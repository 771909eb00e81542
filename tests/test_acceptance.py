"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The learning checks (criteria 8 and 9) train real agents and dominate
the suite's runtime (several minutes total).
"""

import itertools
import time

import numpy as np
import pytest

from sopac import critic as cr
from sopac import learn
from sopac.envs import SwitchGame
from sopac.harness import RunConfig, aggregate, read_metrics, run_experiment
from sopac.learn import LearnConfig, Trainer
from sopac.policy import ActorConfig, EpsilonSchedule
from sopac.rollout import sample_episode_fn
from sopac.sop import ReplayBuffer, episode_kls, kl_estimator_term, kl_exact, sop_iteration
from sopac.verify import gradient_suite, random_batch, switch_oracle_check

from reference import comacc_q, kl_estimator_expectation, td_lambda_targets


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    result = gradient_suite(seeds=20, step=1e-5)
    elapsed = time.perf_counter() - start
    for name, err in result.max_errors.items():
        assert err < 1e-4, f"{name} loss gradient error {err:.3e} >= 1e-4"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, "gradient suite, 4 losses x 20 seeds, < 1 minute")


def test_criterion_02_kl_estimator():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        exact = kl_exact(p, q)
        assert abs(kl_estimator_expectation(p, q) - exact) < 1e-12
        for u in range(m):
            assert kl_estimator_term(p[u], q[u]) >= 0.0
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    draws = rng.choice(2, size=100_000, p=p)
    terms = np.array([kl_estimator_term(p[x], q[x]) for x in draws])
    se = terms.std(ddof=1) / np.sqrt(terms.size)
    assert abs(terms.mean() - kl_exact(p, q)) < 3.0 * se
    report(2, "unbiased KL estimator: identity to 1e-12, Monte-Carlo within 3 SE")


def test_criterion_03_consistency_and_inconsistency():
    n, m, s_w, z_w = 2, 3, 4, 3
    coma_layout = cr.coma_layout(s_w, z_w, n, m)
    cc_layout = cr.comacc_layout(s_w, z_w, n, m)
    coma_disagreements = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        coma_params = cr.critic_init(rng, coma_layout.width, m, hidden=(16, 16))
        cc_params = cr.critic_init(rng, cc_layout.width, 1, hidden=(16, 16))
        state = rng.standard_normal(s_w)
        obs = rng.standard_normal((n, z_w))
        prev = rng.integers(m, size=n)
        joint = rng.integers(m, size=n)
        step = (state, obs, prev, joint)
        taken = cr.counterfactual_values(
            cc_params, cc_layout, cr.encode(cc_layout, *step))[np.arange(n), joint]
        assert taken[0] == taken[1], "consistent critic disagreed with itself"
        per_agent = cr.counterfactual_values(
            coma_params, coma_layout, cr.encode(coma_layout, *step))[np.arange(n), joint]
        coma_disagreements += per_agent[0] != per_agent[1]
    assert coma_disagreements >= 95, f"only {coma_disagreements}/100 draws disagreed"
    report(3, "taken-action estimates: consistent critic bit-identical, "
              f"per-agent critic differs on {coma_disagreements}/100")


def test_criterion_04_single_pass_equivalence_and_input_count(monkeypatch):
    n, m, s_w, z_w = 3, 4, 5, 3
    rng = np.random.default_rng(4)
    layout = cr.comacc_layout(s_w, z_w, n, m)
    params = cr.critic_init(rng, layout.width, 1, hidden=(16, 16))
    state = rng.standard_normal(s_w)
    obs = rng.standard_normal((n, z_w))
    prev = rng.integers(m, size=n)
    joint = rng.integers(m, size=n)
    table = cr.counterfactual_values(params, layout, cr.encode(layout, state, obs, prev, joint))
    for a in range(n):
        for u in range(m):
            counter = joint.copy()
            counter[a] = u
            looped = comacc_q(params, layout, state, obs, prev, counter)
            assert table[a, u] == looped, "single-pass value differs from loop"
    # Critic input rows per step, read off every forward of the production
    # path over a (2, 3) grid of steps.
    rows: list[int] = []
    forward = cr.critic_forward

    def counted(critic_params, inputs):
        rows.append(inputs.shape[0])
        return forward(critic_params, inputs)

    monkeypatch.setattr(cr, "critic_forward", counted)
    steps = (2, 3)
    for n_check in (1, 2, 5, 9):
        for m_check in (2, 3, 10):
            per_step = {}
            for kind, out_width in (("coma", m_check), ("coma-cc", 1)):
                check = cr.layout_for(kind, s_w, z_w, n_check, m_check)
                check_params = cr.critic_init(rng, check.width, out_width, hidden=(4, 4))
                inputs = cr.encode(
                    check, rng.standard_normal((*steps, s_w)),
                    rng.standard_normal((*steps, n_check, z_w)),
                    rng.integers(m_check, size=(*steps, n_check)),
                    rng.integers(m_check, size=(*steps, n_check)))
                rows.clear()
                values = cr.counterfactual_values(check_params, check, inputs)
                assert values.shape == (*steps, n_check, m_check)
                assert len(rows) == 1, "counterfactual values took more than one forward"
                per_step[kind] = rows[0] / np.prod(steps)
            assert per_step["coma"] == n_check
            assert per_step["coma-cc"] == n_check * m_check == m_check * per_step["coma"]
    report(4, "single-pass counterfactual table bit-equals looped calls; "
              "input-count ratio is exactly m")


def test_criterion_05_oracle_agreement():
    start = time.perf_counter()
    result = switch_oracle_check(max_updates=5000, tol=0.05)
    elapsed = time.perf_counter() - start
    assert result.v_error < 0.05, f"|V - V*| = {result.v_error:.4f}"
    assert result.q_error < 0.05, f"max |Q - Q*| = {result.q_error:.4f}"
    assert result.v_updates <= 5000 and result.q_updates <= 5000
    assert elapsed < 120.0, f"oracle agreement took {elapsed:.1f}s"
    report(5, f"trained critics within 0.05 of exact values "
              f"({result.v_updates}/{result.q_updates} updates, {elapsed:.1f}s)")


def test_criterion_06_target_semantics():
    rng = np.random.default_rng(6)
    for _ in range(50):
        t_len = int(rng.integers(1, 9))
        rewards = rng.standard_normal(t_len)
        boots = rng.standard_normal(t_len)
        one_step = np.array([
            rewards[t] + (0.99 * boots[t + 1] if t + 1 < t_len else 0.0)
            for t in range(t_len)
        ])
        assert np.array_equal(td_lambda_targets(rewards, boots, 0.0, 0.99), one_step)
        mc = np.array([
            sum(0.99 ** (i - t) * rewards[i] for i in range(t, t_len))
            for t in range(t_len)
        ])
        assert np.abs(td_lambda_targets(rewards, boots, 1.0, 0.99) - mc).max() < 1e-9

    dims = dict(n=2, m=3, state_width=4, obs_width=3, gru_hidden=6,
                critic_hidden=(8, 8), batch=3, max_len=4)
    batch = random_batch(np.random.default_rng(60), dims)
    trainer = Trainer.create(
        LearnConfig(algo="coma-cc"), ActorConfig(3, 2, 3, 6), 4,
        np.random.default_rng(61), np.random.default_rng(62), critic_hidden=(8, 8))
    inputs = learn.critic_batch_inputs(batch, "coma-cc")
    targets, weights, actions = learn.prepare_critic_batch(trainer, batch, inputs)
    trainer.critic.zero_grads()
    learn.critic_loss_tensor(trainer.critic, inputs, targets, weights, actions).backward()
    whole = trainer.critic.grad_set()
    summed = {k: np.zeros_like(v.data) for k, v in trainer.critic.items()}
    for t in range(batch.max_length):
        trainer.critic.zero_grads()
        learn.critic_loss_tensor(trainer.critic, inputs[:, t], targets[:, t],
                                 weights[:, t], None).backward()
        for k, g in trainer.critic.grad_set().items():
            summed[k] += g.data
    worst = max(np.abs(whole[k].data - summed[k]).max() for k in summed)
    assert worst < 1e-10, f"whole-batch vs summed per-step gradient gap {worst:.2e}"
    report(6, "TD(0)=one-step exactly, TD(1)=Monte-Carlo to 1e-9, "
              f"gradient accumulation linear to {worst:.1e}")


def _switch_setup(b, seed):
    env = SwitchGame()
    actor_cfg = ActorConfig(env.spec.obs_width, 2, env.spec.n_actions, gru_hidden=8)
    trainer = Trainer.create(
        LearnConfig(algo="centralv"), actor_cfg, env.spec.state_width,
        np.random.default_rng(seed), np.random.default_rng(seed + 1),
        critic_hidden=(16, 16))
    sample = sample_episode_fn(env, actor_cfg, EpsilonSchedule(), master_seed=seed)
    return trainer, ReplayBuffer(b), sample


def trained_window(buffer, trainer, sample, mode, kl_threshold=float("inf")):
    """Run one sop iteration; the generations its update trained on."""
    window = []
    sop_iteration(buffer, trainer, sample, mode, kl_threshold,
                  lambda c, p, kls: window.extend(buffer.batch.generations.tolist()))
    return window


def test_criterion_07_buffer_semantics():
    trainer, buffer, sample = _switch_setup(b=8, seed=70)
    for k in range(1, 6):
        window = trained_window(buffer, trainer, sample, "permissive")
        assert window == list(range(k - 1, k + 7)), (
            f"update {k} should train on generations {{{k - 1}..{k + 6}}}, got {window}")

    trainer, buffer, sample = _switch_setup(b=4, seed=71)
    for _ in range(3):
        trained_window(buffer, trainer, sample, "strict", 0.0)
        stale = [k for k in learnable_kls(trainer, buffer)
                 if float(np.max(k)) > 0.0]
        assert not stale, "strict mode with zero threshold kept a diverged episode"

    t_a, buf_a, s_a = _switch_setup(b=4, seed=72)
    t_b, buf_b, s_b = _switch_setup(b=4, seed=72)
    for _ in range(4):
        permissive = trained_window(buf_a, t_a, s_a, "permissive")
        strict = trained_window(buf_b, t_b, s_b, "strict", float("inf"))
        assert strict == permissive, "infinite threshold did not reproduce permissive eviction"
    assert buf_b.batch.generations.tolist() == buf_a.batch.generations.tolist()
    report(7, "FIFO generation traces, zero-threshold pruning, "
              "infinite threshold = permissive")


def learnable_kls(trainer, buffer):
    if buffer.batch is None:
        return []
    return episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch)


@pytest.mark.slow
def test_criterion_08_learning_check_switch_game(tmp_path):
    budget_episodes = 20_000
    reached = {}
    for algo in ("centralv", "coma-cc"):
        hits = 0
        for seed in range(4):
            start = time.perf_counter()
            cfg = RunConfig(env="switch", algo=algo, sop="permissive", batch_size=8,
                            total_steps=3000, eval_interval=250, eval_episodes=32,
                            seed=seed)
            result = run_experiment(cfg, tmp_path / algo / f"seed{seed}")
            elapsed = time.perf_counter() - start
            assert elapsed < 600.0, f"run took {elapsed:.0f}s"
            crossing = next((r for r in result.rows if r["test_win_rate"] >= 0.95), None)
            if crossing is not None and crossing["episodes"] <= budget_episodes:
                hits += 1
        reached[algo] = hits
        assert hits >= 3, f"{algo}-SOP reached the bar on only {hits}/4 seeds"
    report(8, "greedy optimal-joint-action rate >= 95% within budget on "
              f"{reached['centralv']}/4 and {reached['coma-cc']}/4 seeds")


@pytest.mark.slow
def test_criterion_09_sop_sample_efficiency_direction(tmp_path):
    # threshold pinned from the on-policy reference run at this exact config
    threshold = 0.5
    env_config = {"side": 5, "horizon": 20, "prey": "static"}

    def episodes_to_threshold(sop, seed):
        cfg = RunConfig(env="capture", algo="centralv", sop=sop, batch_size=8,
                        total_steps=24000, eval_interval=2000, eval_episodes=16,
                        eps_anneal_steps=15000, seed=seed, env_config=env_config)
        result = run_experiment(cfg, tmp_path / sop / f"seed{seed}")
        for row in result.rows:
            if row["test_return"] >= threshold:
                return row["episodes"]
        return float("inf")

    off = np.median([episodes_to_threshold("off", s) for s in range(4)])
    sop = np.median([episodes_to_threshold("permissive", s) for s in range(4)])
    assert np.isfinite(sop), "semi-on-policy never reached the reference threshold"
    assert sop <= off, (
        f"semi-on-policy needed {sop} episodes (median) vs {off} for on-policy")
    report(9, f"median episodes to test return >= {threshold}: "
              f"semi-on-policy {sop:.0f} <= on-policy {off:.0f}")


@pytest.mark.slow
def test_criterion_10_ablation_harness(tmp_path):
    combos = list(itertools.product(("coma", "coma-cc"),
                                    ("minibatch", "wholebatch"),
                                    ("off", "permissive")))
    assert len(combos) == 8
    for env_name, env_config, total, interval in (
        ("switch", {}, 240, 120),
        ("capture", {"side": 4, "horizon": 8}, 320, 160),
    ):
        paths = []
        for algo, schedule, sop in combos:
            cfg = RunConfig(env=env_name, env_config=env_config, algo=algo,
                            critic_schedule=schedule, sop=sop, batch_size=4,
                            total_steps=total, eval_interval=interval,
                            eval_episodes=2, seed=0)
            out = tmp_path / env_name / f"{algo}-{schedule}-{sop}"
            result = run_experiment(cfg, out)
            assert result.rows, "run emitted no metrics"
            paths.append(result.metrics_path)
        tables = [read_metrics(p) for p in paths]
        grids = {tuple(r["step"] for r in t) for t in tables}
        assert len(grids) == 1, f"step grids differ across {env_name} ablations"
        assert aggregate(paths), "ablation CSVs did not aggregate"
    report(10, "all 8 ablation combinations ran on both environments "
               "with comparable CSVs")


def test_criterion_11_determinism(tmp_path):
    for cfg in (
        RunConfig(env="switch", algo="coma-cc", sop="permissive", batch_size=3,
                  total_steps=60, eval_interval=30, eval_episodes=2, seed=11),
        RunConfig(env="capture", algo="centralv", sop="strict", kl_threshold=0.05,
                  batch_size=2, total_steps=80, eval_interval=40, eval_episodes=2,
                  seed=12, env_config={"side": 4, "horizon": 8, "prey": "walk"}),
    ):
        a = run_experiment(cfg, tmp_path / cfg.env / "a")
        b = run_experiment(cfg, tmp_path / cfg.env / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes(), (
            f"{cfg.env} run is not byte-deterministic")
    report(11, "identical (config, seed) pairs reproduce byte-identical CSVs")
