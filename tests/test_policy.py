import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopac import autodiff as ad
from sopac.envs import CaptureGrid, CaptureGridConfig
from sopac.learn import batch_policy_probs
from sopac.policy import (
    ActorConfig,
    EpsilonSchedule,
    MaskError,
    actor_cell,
    actor_init,
    actor_inputs,
    epsilon_at,
    masked_epsilon_probs,
    select_actions,
)
from sopac.rollout import rollout_episodes
from sopac.sop import episode_kls

CFG = ActorConfig(obs_width=4, n_agents=2, n_actions=3, gru_hidden=8)


def capture_episode(seed=0, params=None, cfg=None):
    env = CaptureGrid(CaptureGridConfig(side=4, horizon=6))
    actor_cfg = cfg or ActorConfig(env.spec.obs_width, 2, 5, gru_hidden=8)
    params = params or actor_init(np.random.default_rng(seed), actor_cfg)
    episode = rollout_episodes(
        env, 1, params, actor_cfg, epsilon_at(0, EpsilonSchedule()), seed, stream=1)
    return episode, params, actor_cfg


class TestEpsilonSchedule:
    def test_start_value(self):
        assert epsilon_at(0, EpsilonSchedule()) == 0.5

    def test_linear_midpoint(self):
        assert epsilon_at(50_000, EpsilonSchedule()) == pytest.approx(0.255)

    def test_clamps_after_anneal(self):
        sched = EpsilonSchedule()
        assert epsilon_at(100_000, sched) == pytest.approx(0.01)
        assert epsilon_at(2_000_000, sched) == pytest.approx(0.01)

    def test_invalid_schedule_rejected(self):
        # start below end, and either end outside [0, 1]
        for start, end in ((0.1, 0.5), (1.5, 0.01), (0.5, -0.1)):
            with pytest.raises(ValueError):
                EpsilonSchedule(start=start, end=end)

    @pytest.mark.parametrize("bad", [{"anneal_steps": 2.5}, {"anneal_steps": True},
                                     {"start": True, "end": False}, {"start": "0.5"}],
                             ids=["fractional-anneal", "bool-anneal", "bool-ends", "string-start"])
    def test_wrongly_typed_schedule_rejected(self, bad):
        with pytest.raises(ValueError, match="need real start and end"):
            EpsilonSchedule(**bad)


class TestMaskedEpsilonProbs:
    def test_epsilon_one_gives_uniform_over_available(self):
        logits = np.array([[3.0, -1.0, 0.2, 5.0]])
        avail = np.array([[1.0, 1.0, 0.0, 1.0]])
        probs = masked_epsilon_probs(logits, avail, 1.0).data[0]
        assert np.allclose(probs, [1 / 3, 1 / 3, 0.0, 1 / 3])
        assert probs[2] == 0.0

    def test_equal_logits_give_uniform_at_zero_epsilon(self):
        probs = masked_epsilon_probs(np.zeros((1, 4)), np.ones((1, 4)), 0.0).data[0]
        assert np.allclose(probs, 0.25)

    def test_half_epsilon_mixture_hand_case(self):
        # two available actions with softmax (0.9, 0.1): mixture is (0.70, 0.30)
        logits = np.array([[np.log(9.0), 0.0, 77.0]])
        avail = np.array([[1.0, 1.0, 0.0]])
        probs = masked_epsilon_probs(logits, avail, 0.5).data[0]
        assert np.allclose(probs, [0.70, 0.30, 0.0])

    def test_all_masked_rejected(self):
        with pytest.raises(MaskError):
            masked_epsilon_probs(np.zeros((1, 3)), np.zeros((1, 3)), 0.1)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_distribution_invariants(self, seed, eps, n_avail):
        rng = np.random.default_rng(seed)
        m = 6
        logits = rng.standard_normal((1, m)) * 5
        avail = np.zeros((1, m))
        avail[0, rng.permutation(m)[:n_avail]] = 1.0
        probs = masked_epsilon_probs(logits, avail, eps).data[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs[avail[0] == 0.0] == 0.0).all()
        assert (probs >= 0.0).all()
        # epsilon-floor lower bound on every available action
        assert (probs[avail[0] == 1.0] >= eps / n_avail - 1e-12).all()


def choice_reference(dist, rngs):
    """One ``rng.choice`` per agent, agents in order, each episode on its own generator."""
    m = dist.shape[-1]
    return np.array([[rng.choice(m, p=row / row.sum()) for row in rows]
                     for rows, rng in zip(dist, rngs)], dtype=np.int64)


def random_dists(rng, shape, kind):
    """(L, n, m) acting distributions: masked epsilon-softmaxes at a random
    epsilon, epsilon = 0 ones with sharp logits, or near-one-hot rows."""
    if kind == "near-one-hot":
        dist = np.full(shape, 1e-12)
        dist[..., rng.integers(shape[-1])] = 1.0
        return dist
    avail = rng.random(shape) < 0.6
    avail[..., rng.integers(shape[-1])] = True
    scale, eps = (30.0, 0.0) if kind == "epsilon-zero" else (2.0, rng.random())
    logits = rng.standard_normal(shape) * scale
    rows = masked_epsilon_probs(logits.reshape(-1, shape[-1]),
                                avail.reshape(-1, shape[-1]), eps)
    return rows.data.reshape(shape)


class TestSelectActions:
    def test_greedy_argmax(self):
        dist = np.array([[[0.1, 0.7, 0.2], [0.6, 0.1, 0.3]]])
        actions = select_actions(dist, "greedy")
        assert actions.dtype == np.int64 and actions.tolist() == [[1, 0]]

    def test_greedy_tie_breaks_to_lowest_index(self):
        assert select_actions(np.array([[[0.5, 0.5], [0.0, 0.0]]]), "greedy").tolist() == [[0, 0]]

    def test_degenerate_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert select_actions(np.array([[[0.0, 1.0], [1.0, 0.0]]]), "sample",
                                  [rng]).tolist() == [[1, 0]]

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_greedy_invariant_under_monotone_transforms(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(5), size=(3, 2))
        transformed = scale * probs + shift
        assert np.array_equal(select_actions(probs, "greedy"),
                              select_actions(transformed, "greedy"))

    @pytest.mark.parametrize("kind", ["masked", "epsilon-zero", "near-one-hot"])
    def test_sample_matches_generator_choice(self, kind):
        """Same actions as per-agent ``rng.choice``, and every generator left
        in the same state: the draw relies on numpy's ``choice`` internals."""
        meta = np.random.default_rng(["masked", "epsilon-zero", "near-one-hot"].index(kind))
        for _ in range(150):
            shape = (int(meta.integers(1, 9)), int(meta.integers(1, 5)),
                     int(meta.choice([2, 3, 5, 9])))
            dist = random_dists(meta, shape, kind)
            seeds = [int(s) for s in meta.integers(2**63, size=shape[0])]
            ours = [np.random.default_rng(s) for s in seeds]
            theirs = [np.random.default_rng(s) for s in seeds]
            actions = select_actions(dist, "sample", ours)
            assert actions.dtype == np.int64
            assert np.array_equal(actions, choice_reference(dist, theirs))
            assert [r.bit_generator.state for r in ours] == [
                r.bit_generator.state for r in theirs]

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [-0.2, 0.6, 0.6], [0.0, 0.0, 0.0]],
                             ids=["nan", "negative", "zero-sum"])
    def test_invalid_row_rejected(self, row):
        dist = np.array([[[0.2, 0.3, 0.5], row]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                select_actions(dist, "sample", [np.random.default_rng(0)])
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(3, p=np.asarray(row) / np.sum(row))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            select_actions(np.full((1, 2, 2), 0.5), "softmax")


class TestHistoryAndDistribution:
    def test_distribution_requires_valid_epsilon(self):
        episode, params, cfg = capture_episode(seed=4)
        episode.epsilons[:] = 1.5
        with pytest.raises(ValueError, match="epsilon"):
            batch_policy_probs(params, cfg, episode)


class TestSnapshots:
    """Replaying recorded episodes under a fixed parameter set."""

    def test_uniform_policy_snapshot_gives_uniform_distributions(self):
        episode, params, cfg = capture_episode(seed=7)
        zero = ad.ParamSet({k: np.zeros_like(v.data) for k, v in params.items()})
        # epsilon mixes uniform with uniform; zero logits give uniform softmax
        replayed = batch_policy_probs(zero, cfg, episode)
        counts = episode.avail.sum(axis=-1, keepdims=True)
        assert np.allclose(replayed, episode.avail / counts, atol=1e-12)

    def test_perturbed_snapshot_diverges_with_computable_kl(self):
        episode, params, cfg = capture_episode(seed=8)
        bumped = params.copy()
        bumped["fc2.w0"].data += 0.05
        bumped["fc2.b0"].data -= 0.03
        (kls,) = episode_kls(bumped, cfg, [episode])
        assert kls.shape == (episode.max_length, cfg.n_agents)
        assert kls.max() > 0.0 and np.isfinite(kls).all()

    def test_missing_epsilon_trace_rejected(self):
        episode, params, cfg = capture_episode(seed=9)
        # a stored epsilon that was never recorded reads NaN
        episode.epsilons[:] = np.nan
        with pytest.raises(ValueError, match="epsilon"):
            episode_kls(params, cfg, [episode])


class TestParameterSharing:
    def test_agents_differ_only_through_inputs(self):
        # identical observation and previous action, differing id one-hots
        rng = np.random.default_rng(10)
        params = actor_init(rng, CFG)
        obs = np.tile(rng.standard_normal(CFG.obs_width), (2, 1))
        rows = actor_inputs(CFG, obs, [1, 1])
        assert np.array_equal(rows[:, -CFG.n_agents:], np.eye(2))
        same_rows = np.stack([rows[0], rows[0]])
        h = np.zeros((2, CFG.gru_hidden))
        logits_diff, _ = actor_cell(params, rows, h)
        logits_same, _ = actor_cell(params, same_rows, h)
        assert np.array_equal(logits_same[0], logits_same[1])
        assert not np.array_equal(logits_diff[0], logits_diff[1])

    def test_encoder_rows_carry_obs_previous_action_and_id(self):
        obs = np.arange(2 * 3 * CFG.obs_width, dtype=np.float64).reshape(3, 2, -1)
        prev = np.array([[-1, -1], [2, 0], [1, 2]])
        rows = actor_inputs(CFG, obs, prev)
        assert rows.shape == (3, 2, CFG.input_width)
        for t in range(3):
            for a in range(2):
                one_hot = np.zeros(CFG.n_actions)
                if prev[t, a] >= 0:
                    one_hot[prev[t, a]] = 1.0
                expected = np.concatenate([obs[t, a], one_hot, np.eye(2)[a]])
                assert np.array_equal(rows[t, a], expected)
