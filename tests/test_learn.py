from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopac import autodiff as ad
from sopac import critic as cr
from sopac import learn
from sopac.autodiff import NumericError, ParamSet
from sopac.envs import SwitchGame
from sopac.harness import ConfigError, RunConfig
from sopac.learn import (
    Batch,
    LearnConfig,
    TargetNetState,
    Trainer,
    compute_advantages,
    critic_batch_inputs,
    critic_update,
    policy_gradient_update,
    prepare_critic_batch,
    target_sync,
    td_lambda_targets,
)
from sopac.policy import ActorConfig, actor_init
from sopac.verify import random_batch, random_episode, uniform_switch_episodes

from reference import (
    centralv_advantage,
    coma_advantage,
    counterfactual_baseline,
    critic_loss_terms,
    n_step_return,
    params_equal,
    policy_loss_terms,
    stepwise_policy_loss,
    stepwise_unroll,
    td_lambda_loop,
)
from test_fused import assert_bits_equal, assert_each_bits_equal, composed_nodes, tape_nodes

DIMS = dict(n=2, m=3, state_width=4, obs_width=3, gru_hidden=6,
            critic_hidden=(8, 8), batch=3, max_len=4)


def make_trainer(algo, seed=0, **overrides):
    cfg = LearnConfig(algo=algo, **overrides)
    actor_cfg = ActorConfig(DIMS["obs_width"], DIMS["n"], DIMS["m"], DIMS["gru_hidden"])
    return Trainer.create(
        cfg, actor_cfg, DIMS["state_width"],
        np.random.default_rng(seed), np.random.default_rng(seed + 1),
        critic_hidden=DIMS["critic_hidden"],
    )


def unrolled(trainer, batch):
    """The trainer's taped actor unroll over the batch."""
    return learn.unroll_policy(trainer.actor, trainer.actor_cfg, batch)


class TestNStepReturn:
    def test_pure_bootstrap(self):
        assert n_step_return([0.0, 0.0, 0.0], 1.0, 0.99, 3) == pytest.approx(0.970299)

    def test_hand_evaluated_two_step(self):
        assert n_step_return([1.0, 2.0, 3.0], 10.0, 0.9, 2) == pytest.approx(10.9)

    def test_one_step_target(self):
        assert n_step_return([0.5, 7.0], 2.0, 0.9, 1) == pytest.approx(0.5 + 0.9 * 2.0)

    def test_window_past_terminal_truncates_and_drops_bootstrap(self):
        assert n_step_return([1.0, 2.0], 100.0, 1.0, 5) == pytest.approx(3.0)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            n_step_return([1.0], 0.0, 0.9, 0)


def direct_td_lambda(rewards, boots, lam, gamma):
    """Direct evaluation of the truncated mixture (independent of the recursion)."""
    t_len = len(rewards)
    out = np.zeros(t_len)
    for t in range(t_len):
        mc = sum(gamma ** (i - t) * rewards[i] for i in range(t, t_len))
        k = t_len - 1 - t  # number of bootstrappable n-step returns
        value = 0.0
        for n in range(1, k + 1):
            g_n = sum(gamma ** i * rewards[t + i] for i in range(n)) + gamma ** n * boots[t + n]
            value += (1 - lam) * lam ** (n - 1) * g_n
        out[t] = value + lam ** k * mc
    return out


class TestTdLambdaTargets:
    def test_lambda_zero_is_one_step_target(self):
        rewards = np.array([1.0, -2.0, 0.5])
        boots = np.array([9.0, 3.0, -1.0])
        targets = td_lambda_targets(rewards, boots, 0.0, 0.9)
        expected = [1.0 + 0.9 * 3.0, -2.0 + 0.9 * -1.0, 0.5]
        assert np.allclose(targets, expected, atol=1e-15)

    def test_lambda_one_is_monte_carlo_return(self):
        rewards = np.array([1.0, -2.0, 0.5])
        boots = np.array([9.0, 3.0, -1.0])
        targets = td_lambda_targets(rewards, boots, 1.0, 0.9)
        expected = [1.0 + 0.9 * (-2.0 + 0.9 * 0.5), -2.0 + 0.9 * 0.5, 0.5]
        assert np.allclose(targets, expected, atol=1e-12)

    def test_truncated_mixture_hand_case(self):
        # two steps, lambda 0.8, gamma 1: y_1 = 0.2 (1 + v2) + 0.8 * 3
        v2 = -1.7
        targets = td_lambda_targets(np.array([1.0, 2.0]), np.array([0.0, v2]), 0.8, 1.0)
        assert targets[0] == pytest.approx(0.2 * (1.0 + v2) + 0.8 * 3.0)
        assert targets[1] == pytest.approx(2.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_recursion_matches_direct_mixture(self, seed, lam, t_len):
        rng = np.random.default_rng(seed)
        rewards = rng.standard_normal(t_len)
        boots = rng.standard_normal(t_len)
        fast = td_lambda_targets(rewards, boots, lam, 0.95)
        slow = direct_td_lambda(rewards, boots, lam, 0.95)
        assert np.allclose(fast, slow, atol=1e-10)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            td_lambda_targets(np.ones(2), np.ones(2), 1.5, 0.9)

    @pytest.mark.parametrize("trailing", [(), (3,)], ids=["centralv", "per-agent"])
    def test_batch_rows_equal_the_one_episode_loop(self, trailing):
        # ragged lengths: every episode's rows must be its own recursion to
        # the bit, and every padded step exactly +0.0
        rng = np.random.default_rng(11)
        lengths = np.array([3, 1, 5, 2])
        rewards = rng.standard_normal((4, 5))
        boots = rng.standard_normal((4, 5, *trailing))
        targets = learn.batch_td_lambda_targets(rewards, boots, lengths, 0.8, 0.99)
        for i, length in enumerate(lengths):
            want = td_lambda_loop(rewards[i, :length], boots[i, :length], 0.8, 0.99)
            assert np.array_equal(targets[i, :length].view(np.int64), want.view(np.int64))
            padded = targets[i, length:]
            assert (padded == 0.0).all() and not np.signbit(padded).any()


class TestAdvantages:
    def test_centralv_constant_values_zero_reward(self):
        assert centralv_advantage(0.0, 3.0, 3.0, 1.0, terminal=False) == 0.0

    def test_centralv_hand_case(self):
        assert centralv_advantage(1.0, 1.0, 2.0, 0.99, terminal=False) == pytest.approx(1.98)

    def test_centralv_terminal_drops_bootstrap(self):
        assert centralv_advantage(5.0, 3.0, 123.0, 0.99, terminal=True) == 2.0

    def test_baseline_constant_row(self):
        dist = np.array([0.2, 0.5, 0.3])
        assert counterfactual_baseline(dist, np.full(3, 4.0)) == pytest.approx(4.0)

    def test_baseline_deterministic_dist(self):
        q_row = np.array([1.0, 7.0, -2.0])
        assert counterfactual_baseline(np.array([0.0, 1.0, 0.0]), q_row) == 7.0

    def test_baseline_dot_product(self):
        assert counterfactual_baseline(np.array([0.25, 0.75]), np.array([1.0, 2.0])) == 1.75

    def test_baseline_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            counterfactual_baseline(np.ones(2) / 2, np.ones(3))

    def test_coma_advantage_composition(self):
        values = np.array([[1.0, 2.0], [5.0, 5.0]])
        dists = np.array([[0.25, 0.75], [0.5, 0.5]])
        adv = coma_advantage(values, np.array([1, 0]), dists)
        assert adv[0] == pytest.approx(2.0 - 1.75)
        assert adv[1] == 0.0  # constant row

    def test_deterministic_policy_chosen_action_has_exactly_zero_advantage(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((3, 4))
        taken = np.array([2, 0, 3])
        dists = np.zeros((3, 4))
        dists[np.arange(3), taken] = 1.0
        adv = coma_advantage(values, taken, dists)
        assert np.array_equal(adv, np.zeros(3))

    def test_centralv_advantages_identical_across_agents(self):
        trainer = make_trainer("centralv")
        batch = random_batch(np.random.default_rng(1), DIMS)
        adv = compute_advantages(batch, critic_batch_inputs(batch, "centralv"), "centralv",
                                 trainer.critic, unrolled(trainer, batch), 0.99, True)
        assert np.array_equal(adv[:, :, 0], adv[:, :, 1])

    @pytest.mark.parametrize("gamma_adv_one", [True, False])
    def test_centralv_batch_matches_scalar_advantage_bit_for_bit(self, gamma_adv_one):
        trainer = make_trainer("centralv", seed=5)
        batch = random_batch(np.random.default_rng(6), dict(DIMS, batch=5))
        adv = compute_advantages(batch, critic_batch_inputs(batch, "centralv"), "centralv",
                                 trainer.critic, unrolled(trainer, batch), 0.9,
                                 gamma_adv_one)
        values = learn._critic_values(trainer.critic, batch.states).data
        values = values.reshape(len(batch), batch.max_length)
        gamma_adv = 1.0 if gamma_adv_one else 0.9
        expected = np.zeros((len(batch), batch.max_length))  # padding is +0.0
        for i, length in enumerate(batch.lengths):
            for t in range(length):
                v_next = values[i, t + 1] if t + 1 < length else 0.0
                expected[i, t] = centralv_advantage(
                    batch.rewards[i, t], values[i, t], v_next, gamma_adv,
                    terminal=t + 1 >= length)
        for a in range(DIMS["n"]):
            assert np.array_equal(adv[:, :, a].view(np.int64), expected.view(np.int64))

    def test_comacc_taken_value_consistent_with_baseline_definition(self):
        trainer = make_trainer("coma-cc")
        batch = random_batch(np.random.default_rng(2), DIMS)
        adv = compute_advantages(batch, critic_batch_inputs(batch, "coma-cc"), "coma-cc",
                                 trainer.critic, unrolled(trainer, batch), 0.99, False)
        assert np.isfinite(adv).all()
        assert (adv[batch.pad == 0.0] == 0.0).all()

    @pytest.mark.parametrize("algo", ["coma", "coma-cc"])
    def test_needed_rows_give_the_advantages_of_the_full_table(self, algo):
        """Training forwards only the available actions of real steps. Its
        advantages equal those built from the full table bit for bit on real
        steps, and are +0.0 on padded ones."""
        from sopac.envs import CaptureGrid, CaptureGridConfig
        from sopac.rollout import rollout_episodes

        env = CaptureGrid(CaptureGridConfig(side=5, horizon=20))
        actor_cfg = ActorConfig(env.spec.obs_width, 2, 5, gru_hidden=8)
        trainer = Trainer.create(LearnConfig(algo=algo), actor_cfg, env.spec.state_width,
                                 np.random.default_rng(30), np.random.default_rng(31),
                                 critic_hidden=(16, 16))
        batch = rollout_episodes(env, 6, trainer.actor, actor_cfg, 0.5, seed=45, stream=1)
        real = batch.pad > 0.0
        assert not real.all() and (batch.avail[real] == 0.0).any()
        inputs = critic_batch_inputs(batch, algo)
        probs = unrolled(trainer, batch)
        adv = compute_advantages(batch, inputs, algo, trainer.critic, probs, 0.99, False)
        table = cr.counterfactual_values(trainer.critic, learn._batch_layout(batch, algo), inputs)
        taken = np.take_along_axis(table, batch.actions[..., None], axis=-1)[..., 0]
        expected = taken - np.einsum("btam,btam->bta", learn._by_episode(batch, probs.data), table)
        assert np.array_equal(adv[real].view(np.int64), expected[real].view(np.int64))
        assert (adv[~real].view(np.int64) == 0).all()


class TestPolicyGradientUpdate:
    def test_zero_advantages_leave_parameters_unchanged(self):
        trainer = make_trainer("centralv")
        batch = random_batch(np.random.default_rng(3), DIMS)
        before = trainer.actor.copy()
        loss = policy_gradient_update(
            batch, np.zeros((len(batch), batch.max_length, DIMS["n"])),
            unrolled(trainer, batch), trainer.actor, trainer.actor_opt, trainer.cfg,
        )
        assert loss == 0.0
        assert params_equal(trainer.actor, before)

    def test_positive_advantage_increases_taken_action_probability(self):
        trainer = make_trainer("coma-cc", seed=4)
        episode = random_episode(np.random.default_rng(5), DIMS["n"], DIMS["m"],
                                 DIMS["state_width"], DIMS["obs_width"], 1)
        batch = Batch.from_episodes([episode])
        adv = np.zeros((1, 1, DIMS["n"]))
        adv[0, 0, 0] = 1.0
        probs_before = learn.batch_policy_probs(trainer.actor, trainer.actor_cfg, batch)
        policy_gradient_update(
            batch, adv, unrolled(trainer, batch), trainer.actor, trainer.actor_opt, trainer.cfg)
        probs_after = learn.batch_policy_probs(trainer.actor, trainer.actor_cfg, batch)
        u = episode.actions[0, 0, 0]
        assert probs_after[0, 0, 0, u] > probs_before[0, 0, 0, u]

    def test_gradient_matches_finite_differences(self):
        trainer = make_trainer("coma-cc", seed=6)
        batch = random_batch(np.random.default_rng(7), DIMS)
        adv = compute_advantages(batch, critic_batch_inputs(batch, "coma-cc"), "coma-cc",
                                 trainer.critic, unrolled(trainer, batch), 0.99, False)

        def loss(params):
            return learn.policy_loss_tensor(batch, adv, params, trainer.actor_cfg)

        assert ad.finite_diff_check(loss, trainer.actor) < 1e-4

    def test_non_finite_loss_rejected_with_parameters_untouched(self):
        trainer = make_trainer("centralv", seed=8)
        batch = random_batch(np.random.default_rng(9), DIMS)
        before = trainer.actor.copy()
        bad = np.full((len(batch), batch.max_length, DIMS["n"]), np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            policy_gradient_update(batch, bad, unrolled(trainer, batch), trainer.actor,
                                   trainer.actor_opt, trainer.cfg)
        assert params_equal(trainer.actor, before)

    def test_no_gradient_reaches_the_critic(self):
        trainer = make_trainer("coma-cc", seed=10)
        batch = random_batch(np.random.default_rng(11), DIMS)
        critic_before = trainer.critic.copy()
        adv = compute_advantages(batch, critic_batch_inputs(batch, "coma-cc"), "coma-cc",
                                 trainer.critic, unrolled(trainer, batch), 0.99, False)
        policy_gradient_update(batch, adv, unrolled(trainer, batch), trainer.actor,
                               trainer.actor_opt, trainer.cfg)
        assert params_equal(trainer.critic, critic_before)
        assert all(v.grad is None for _, v in trainer.critic.items())


class TestCriticSchedules:
    def test_single_step_minibatch_equals_wholebatch(self):
        batch = Batch.from_episodes([
            random_episode(np.random.default_rng(12), DIMS["n"], DIMS["m"],
                           DIMS["state_width"], DIMS["obs_width"], 1)
            for _ in range(3)
        ])
        a = make_trainer("coma-cc", seed=13, critic_schedule="minibatch")
        b = make_trainer("coma-cc", seed=13, critic_schedule="wholebatch")
        inputs = critic_batch_inputs(batch, "coma-cc")
        la = critic_update(batch, inputs, a.cfg, a.critic, a.critic_opt, a.target)
        lb = critic_update(batch, inputs, b.cfg, b.critic, b.critic_opt, b.target)
        assert params_equal(a.critic, b.critic)
        assert la == lb
        assert a.target.counter == b.target.counter

    @pytest.mark.parametrize("schedule", ["minibatch", "wholebatch"])
    def test_perfect_critic_is_a_fixed_point(self, schedule):
        trainer = make_trainer("centralv", seed=14, critic_schedule=schedule)
        zero_critic = ParamSet({k: np.zeros_like(v.data) for k, v in trainer.critic.items()})
        episode = random_episode(np.random.default_rng(15), DIMS["n"], DIMS["m"],
                                 DIMS["state_width"], DIMS["obs_width"], 3)
        episode.rewards[:] = 0.0  # zero targets match the zero critic everywhere
        batch = Batch.from_episodes([episode])
        target = TargetNetState(zero_critic.copy())
        before = zero_critic.copy()
        loss = critic_update(
            batch, critic_batch_inputs(batch, "centralv"), trainer.cfg, zero_critic,
            ad.rmsprop_init(zero_critic), target)
        assert loss == 0.0
        assert params_equal(zero_critic, before)

    def test_multistep_minibatch_differs_from_wholebatch(self):
        batch = random_batch(np.random.default_rng(16), dict(DIMS, max_len=2))
        a = make_trainer("centralv", seed=17, critic_schedule="minibatch")
        b = make_trainer("centralv", seed=17, critic_schedule="wholebatch")
        inputs = critic_batch_inputs(batch, "centralv")
        critic_update(batch, inputs, a.cfg, a.critic, a.critic_opt, a.target)
        critic_update(batch, inputs, b.cfg, b.critic, b.critic_opt, b.target)
        assert not params_equal(a.critic, b.critic)

    def test_wholebatch_gradient_is_sum_of_per_step_gradients(self):
        trainer = make_trainer("coma-cc", seed=18)
        batch = random_batch(np.random.default_rng(19), DIMS)
        inputs = critic_batch_inputs(batch, "coma-cc")
        targets, weights, actions = prepare_critic_batch(
            batch, inputs, "coma-cc", trainer.target, 0.8, 0.99)

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
        for k, g in whole.items():
            assert np.abs(g.data - summed[k]).max() < 1e-10

    def test_repeated_wholebatch_updates_fit_oracle_targets(self):
        # deterministic one-step payoffs are the exact oracle action values;
        # regression on the fixed batch must drive the loss under 1e-3
        env = SwitchGame()
        m = env.spec.n_actions
        # one episode per joint action, (u0, u1) in row-major order
        batch = uniform_switch_episodes(env, np.random.default_rng(0), m * m)
        batch.actions[:, 0] = np.stack(np.divmod(np.arange(m * m), m), axis=-1)
        batch.rewards[:, 0] = [env.step(0, u, np.random.default_rng(0))[1]
                               for u in batch.actions[:, 0]]
        actor_cfg = ActorConfig(env.spec.obs_width, 2, m)
        trainer = Trainer.create(LearnConfig(algo="coma-cc"), actor_cfg,
                                 env.spec.state_width,
                                 np.random.default_rng(20), np.random.default_rng(21),
                                 critic_hidden=(32, 32))
        inputs = critic_batch_inputs(batch, "coma-cc")
        loss = np.inf
        for _ in range(4000):
            loss = critic_update(
                batch, inputs, trainer.cfg, trainer.critic, trainer.critic_opt, trainer.target)
            if loss < 1e-3:
                break
        assert loss < 1e-3

    @pytest.mark.parametrize("schedule", ["minibatch", "wholebatch"])
    def test_non_finite_critic_targets_rejected(self, schedule):
        trainer = make_trainer("centralv", seed=22, critic_schedule=schedule)
        episode = random_episode(np.random.default_rng(23), DIMS["n"], DIMS["m"],
                                 DIMS["state_width"], DIMS["obs_width"], 2)
        episode.rewards[0] = np.inf
        batch = Batch.from_episodes([episode])
        with pytest.raises(NumericError):
            critic_update(batch, critic_batch_inputs(batch, "centralv"), trainer.cfg,
                          trainer.critic, trainer.critic_opt, trainer.target)

    def test_target_counter_and_loss_follow_the_sweep(self):
        # wholebatch steps once on the summed loss; minibatch steps once per
        # timestep, t = T..1, and returns the sum of the per-step losses
        batch = random_batch(np.random.default_rng(30), DIMS)
        t_max = batch.max_length
        assert t_max > 1
        whole = make_trainer("coma", seed=31, critic_schedule="wholebatch")
        mini = make_trainer("coma", seed=31, critic_schedule="minibatch")
        inputs = critic_batch_inputs(batch, "coma")
        targets, weights, actions = prepare_critic_batch(
            batch, inputs, "coma", whole.target, 0.8, 0.99)

        summed = float(learn.critic_loss_tensor(
            whole.critic, inputs, targets, weights, actions).data)
        loss = critic_update(batch, inputs, whole.cfg, whole.critic,
                             whole.critic_opt, whole.target)
        assert whole.target.counter == 1
        assert loss == summed

        # the same sweep by hand, on a second copy of the minibatch trainer
        manual = make_trainer("coma", seed=31, critic_schedule="minibatch")
        params, opt, per_step = manual.critic, manual.critic_opt, []
        for t in range(t_max - 1, -1, -1):
            params.zero_grads()
            step = learn.critic_loss_tensor(params, inputs[:, t], targets[:, t],
                                            weights[:, t], actions[:, t])
            per_step.append(float(step.data))
            step.backward()
            ad.rmsprop_step(params, opt, 0.005, 0.99, 1e-5)
        loss = critic_update(batch, inputs, mini.cfg, mini.critic, mini.critic_opt, mini.target)
        assert mini.target.counter == t_max
        assert loss == sum(per_step)
        assert params_equal(mini.critic, params)


class TestLearnConfig:
    BAD = {"gamma-above-one": {"gamma": 1.5}, "zero-gamma": {"gamma": 0.0},
           "zero-target-period": {"target_period": 0},
           "fractional-target-period": {"target_period": 2.5},
           "bool-target-period": {"target_period": True}, "lambda-above-one": {"lam": 2.0},
           "negative-lambda": {"lam": -0.1}, "negative-lr": {"lr": -1.0},
           "rms-alpha-above-one": {"rms_alpha": 1.5}, "zero-rms-eps": {"rms_eps": 0.0},
           "string-gamma-adv-one": {"gamma_adv_one": "no"}, "bool-lam": {"lam": True},
           "bool-gamma": {"gamma": True}, "string-lr": {"lr": "0.1"}}

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_invalid_values_rejected_and_reported_by_run_config(self, bad):
        with pytest.raises(ValueError) as learn_error:
            LearnConfig(algo="centralv", **bad)
        with pytest.raises(ConfigError) as run_error:
            RunConfig(algo="centralv", **bad)
        assert str(run_error.value) == str(learn_error.value)


class TestTargetNetwork:
    def test_sync_copies_online_exactly_and_resets_counter(self):
        rng = np.random.default_rng(24)
        online = cr.critic_init(rng, 4, 1, hidden=(8, 8))
        stale = cr.critic_init(rng, 4, 1, hidden=(8, 8))
        state = TargetNetState(stale, counter=200)
        assert target_sync(state, online, 200) is None
        assert params_equal(state.params, online)
        assert state.counter == 0

    def test_below_period_leaves_target_unchanged(self):
        rng = np.random.default_rng(25)
        online = cr.critic_init(rng, 4, 1, hidden=(8, 8))
        stale = cr.critic_init(rng, 4, 1, hidden=(8, 8))
        state = TargetNetState(stale, counter=199)
        before = stale.copy()
        assert target_sync(state, online, 200) is None
        assert params_equal(state.params, before)
        assert state.counter == 199

    def test_exactly_one_sync_in_two_hundred_wholebatch_iterations(self):
        trainer = make_trainer("centralv", seed=26, target_period=200)
        batch = random_batch(np.random.default_rng(27), DIMS)
        inputs = critic_batch_inputs(batch, "centralv")
        syncs = 0
        for _ in range(200):
            critic_update(
                batch, inputs, trainer.cfg, trainer.critic, trainer.critic_opt, trainer.target)
            if trainer.target.counter == 0:
                syncs += 1
                assert params_equal(trainer.target.params, trainer.critic)
        assert syncs == 1
        assert trainer.target.counter == 0

    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_training_writes_the_trainers_own_arrays(self, algo):
        # every update syncs; the target must copy values, never alias the
        # critic, and no parameter may carry a gradient past its step
        trainer = make_trainer(algo, seed=28, target_period=1)
        batch = random_batch(np.random.default_rng(29), DIMS)

        def tensors():
            return [t for params in (trainer.actor, trainer.critic, trainer.target.params)
                    for _, t in params.items()]

        def owned():
            return ([obj for t in tensors() for obj in (t, t.data)]
                    + [*trainer.actor_opt.values(), *trainer.critic_opt.values()])

        def assert_disjoint():
            for name, tensor in trainer.critic.items():
                assert not np.shares_memory(trainer.target.params[name].data, tensor.data)

        objects = owned()
        assert_disjoint()
        for _ in range(2):
            before = trainer.actor.copy()
            trainer.train_on_batch(batch)
            assert all(a is b for a, b in zip(owned(), objects, strict=True))
            assert not params_equal(trainer.actor, before)
            assert trainer.target.counter == 0
            assert params_equal(trainer.target.params, trainer.critic)
            assert_disjoint()
            assert all(t.grad is None for t in tensors())


def validate_episode(batch):
    """Every step field spans the batch's episodes and steps, the stored
    epsilons lie in [0, 1], and the stored distributions of real steps sum to 1."""
    span = (len(batch), batch.max_length)
    for name in ("states", "obs", "avail", "actions", "rewards", "dists"):
        if getattr(batch, name).shape[:2] != span:
            raise ValueError(f"batch field {name} does not span {span}")
    if not ((batch.epsilons >= 0.0) & (batch.epsilons <= 1.0)).all():
        raise ValueError(f"stored epsilons {batch.epsilons} outside [0, 1]")
    if not np.allclose(batch.dists[batch.pad > 0.0].sum(axis=-1), 1.0, atol=1e-9):
        raise ValueError("stored distributions do not sum to 1")


class TestEpisodeContainers:
    def test_validate_accepts_rollout_episodes(self):
        from sopac.envs import CaptureGrid, CaptureGridConfig
        from sopac.policy import actor_init
        from sopac.rollout import rollout_episodes

        env = CaptureGrid(CaptureGridConfig(side=4, horizon=5))
        cfg = ActorConfig(env.spec.obs_width, 2, 5, gru_hidden=8)
        params = actor_init(np.random.default_rng(0), cfg)
        validate_episode(rollout_episodes(env, 3, params, cfg, 0.5, seed=1, stream=1))

    def test_validate_rejects_ragged_and_unnormalised_records(self):
        episode = random_episode(np.random.default_rng(1), 2, 3, 4, 3, 3)
        episode.rewards = episode.rewards[:, :-1]
        with pytest.raises(ValueError, match="does not span"):
            validate_episode(episode)
        episode = random_episode(np.random.default_rng(2), 2, 3, 4, 3, 3)
        episode.dists[0, 0, 0] *= 2.0
        with pytest.raises(ValueError, match="sum to 1"):
            validate_episode(episode)


class TestForwardPathConsistency:
    def test_training_unroll_reproduces_rollout_distributions_bit_exactly(self):
        # the two evaluation paths (n-row rollout, padded B*n replay used for
        # training and KL) must agree to the bit for the generating params
        from sopac.envs import CaptureGrid, CaptureGridConfig
        from sopac.policy import actor_init
        from sopac.rollout import rollout_episodes

        env = CaptureGrid(CaptureGridConfig(side=4, horizon=6))
        cfg = ActorConfig(env.spec.obs_width, 2, 5, gru_hidden=8)
        params = actor_init(np.random.default_rng(3), cfg)
        batch = rollout_episodes(env, 3, params, cfg, 0.5, seed=10, stream=1)
        batched = learn.batch_policy_probs(params, cfg, batch)
        real = batch.pad > 0.0
        assert np.array_equal(batched[real], batch.dists[real])


# (agents, actions, observation width, GRU width, steps, episodes) of the
# unit-test trainer, the capture and switch trainers, and a 3-agent grid.
HOISTED_SHAPES = {
    "dims": (DIMS["n"], DIMS["m"], DIMS["obs_width"], DIMS["gru_hidden"], DIMS["max_len"],
             DIMS["batch"]),
    "capture": (2, 5, 40, 64, 20, 8),
    "switch": (2, 3, 2, 64, 1, 8),
    "capture-3-agents": (3, 5, 41, 64, 8, 3),
}


def ragged_actor_batch(rng, shape, steps=None):
    """Random episodes of ``shape``, the first ``steps`` long and the others
    shorter or equal, with about a third of the untaken actions masked."""
    n, m, obs_width, _, max_len, size = shape
    steps = steps or max_len
    lengths = [steps, *rng.integers(1, steps + 1, size=size - 1)]
    episodes = []
    for i, length in enumerate(lengths):
        episode = random_episode(rng, n, m, 4, obs_width, int(length), generation=i)
        episode.avail[rng.uniform(size=episode.avail.shape) < 0.3] = 0.0
        np.put_along_axis(episode.avail, episode.actions[..., None], 1.0, axis=-1)
        episodes.append(episode)
    return Batch.from_episodes(episodes)


class TestHoistedUnroll:
    """``unroll_policy`` and ``policy_loss`` against the per-step tape they
    replace (``reference.stepwise_unroll`` and ``stepwise_policy_loss``):
    probabilities, loss and every actor gradient bit for bit, compared as
    int64 views, on seeded ragged batches. The reference tapes the actor cell
    composed from elementwise ops at every step; ``nodes`` picks its masked
    epsilon-softmax: the fused node, which isolates the hoisting, or the
    composed graph (under ``composed_nodes()``)."""

    @staticmethod
    def run(unroll, loss_fn, shape, seed, steps=None):
        rng = np.random.default_rng(seed)
        n, m, obs_width, hidden, _, _ = shape
        cfg = ActorConfig(obs_width, n, m, hidden)
        params = actor_init(rng, cfg)
        batch = ragged_actor_batch(rng, shape, steps)
        adv = rng.standard_normal((len(batch), batch.max_length, n)) * batch.pad[:, :, None]
        probs = unroll(params, cfg, batch)
        loss = loss_fn(batch, adv, probs)
        loss.backward()
        return probs, loss, {name: t.grad for name, t in params.items()}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nodes", ["fused", "composed"])
    @pytest.mark.parametrize("shape", HOISTED_SHAPES)
    def test_bits_equal_the_stepwise_tape(self, shape, nodes, seed):
        probs, loss, grads = self.run(learn.unroll_policy, learn.policy_loss,
                                      HOISTED_SHAPES[shape], seed)
        with composed_nodes() if nodes == "composed" else nullcontext():
            ref_probs, ref_loss, ref_grads = self.run(stepwise_unroll, stepwise_policy_loss,
                                                      HOISTED_SHAPES[shape], seed)
        assert_bits_equal(probs.data, np.concatenate([p.data for p in ref_probs]))
        assert_bits_equal(loss.data, ref_loss.data)
        assert len(grads) == 13
        assert_each_bits_equal(grads, ref_grads)

    def test_tape_size_does_not_grow_with_steps(self):
        # fc1, ReLU, GRU, fc2, masked epsilon-softmax; the policy loss
        nodes = {steps: tape_nodes(self.run(learn.unroll_policy, learn.policy_loss,
                                            HOISTED_SHAPES["dims"], 0, steps)[1])
                 for steps in (1, 5, 20)}
        assert nodes == {1: 6, 5: 6, 20: 6}


class TestBatchedCriticInputsMatchSingleCalls:
    """The counterfactual values of a batch equal those of each step alone."""

    @staticmethod
    def batched_and_single(algo, seed):
        """The batch's rows, and for each valid (b, t) the step's ``encode``d
        inputs and their own counterfactual values."""
        trainer = make_trainer(algo, seed=seed)
        batch = random_batch(np.random.default_rng(seed + 1), DIMS)
        layout = learn._batch_layout(batch, algo)
        rows = cr.counterfactual_values(trainer.critic, layout, critic_batch_inputs(batch, algo))
        assert rows.shape == (len(batch), batch.max_length, DIMS["n"], DIMS["m"])
        steps = []
        for b in range(len(batch)):
            for t in range(int(batch.lengths[b])):
                prev = batch.actions[b, t - 1] if t > 0 else np.full(DIMS["n"], -1)
                step = cr.encode(layout, batch.states[b, t], batch.obs[b, t], prev,
                                 batch.actions[b, t])
                steps.append((rows[b, t], step,
                              cr.counterfactual_values(trainer.critic, layout, step)))
        return trainer, steps

    def test_comacc_batched_tables_equal_single_pass_tables(self):
        _, steps = self.batched_and_single("coma-cc", 40)
        for batched, _, single in steps:
            assert np.array_equal(batched, single)

    def test_coma_batched_rows_equal_single_calls(self):
        trainer, steps = self.batched_and_single("coma", 42)
        for batched, step, single in steps:
            assert np.array_equal(batched, single)
            for a in range(DIMS["n"]):
                with ad.no_grad():
                    one_row = cr.critic_forward(trainer.critic, step[a][None]).data[0]
                assert np.array_equal(batched[a], one_row)


class TestTrainOnBatch:
    @pytest.mark.parametrize("schedule", ["minibatch", "wholebatch"])
    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_critic_inputs_are_encoded_once_per_update(self, monkeypatch, algo, schedule):
        calls = []
        encode = learn.critic_batch_inputs

        def counted(batch, algo):
            calls.append(algo)
            return encode(batch, algo)

        monkeypatch.setattr(learn, "critic_batch_inputs", counted)
        trainer = make_trainer(algo, seed=30, critic_schedule=schedule)
        rng = np.random.default_rng(31)
        for k in range(1, 4):
            trainer.train_on_batch(random_batch(rng, DIMS))
            assert calls == [algo] * k

    @pytest.mark.parametrize("schedule", ["minibatch", "wholebatch"])
    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_actor_is_unrolled_once_per_update(self, monkeypatch, algo, schedule):
        # the counterfactual baselines read the unroll the policy loss uses
        calls = []
        unroll = learn.unroll_policy

        def counted(params, cfg, batch):
            calls.append(len(batch))
            return unroll(params, cfg, batch)

        monkeypatch.setattr(learn, "unroll_policy", counted)
        trainer = make_trainer(algo, seed=32, critic_schedule=schedule)
        rng = np.random.default_rng(33)
        for k in range(1, 4):
            trainer.train_on_batch(random_batch(rng, DIMS))
            assert calls == [DIMS["batch"]] * k


class TestPadding:
    def test_padded_content_is_irrelevant_to_losses_and_gradients(self):
        rng = np.random.default_rng(28)
        episodes = [
            random_episode(rng, DIMS["n"], DIMS["m"], DIMS["state_width"],
                           DIMS["obs_width"], 4),
            random_episode(rng, DIMS["n"], DIMS["m"], DIMS["state_width"],
                           DIMS["obs_width"], 2),
        ]
        batch = Batch.from_episodes(episodes)
        poisoned = Batch.from_episodes(episodes)
        hole = poisoned.pad == 0.0
        poisoned.states[hole] = rng.standard_normal(poisoned.states[hole].shape) * 50
        poisoned.obs[hole] = rng.standard_normal(poisoned.obs[hole].shape) * 50
        poisoned.rewards[hole] = 1e6
        poisoned.actions[hole] = rng.integers(DIMS["m"], size=poisoned.actions[hole].shape)

        trainer = make_trainer("coma-cc", seed=29)
        adv = compute_advantages(batch, critic_batch_inputs(batch, "coma-cc"), "coma-cc",
                                 trainer.critic, unrolled(trainer, batch), 0.99, False)
        for b in (batch, poisoned):
            trainer.actor.zero_grads()
            loss = learn.policy_loss_tensor(b, adv, trainer.actor, trainer.actor_cfg)
            loss.backward()
            grads = trainer.actor.grad_set()
            if b is batch:
                ref_loss, ref_grads = float(loss.data), grads
            else:
                assert float(loss.data) == ref_loss
                assert params_equal(grads, ref_grads)


class TestBatchComposition:
    """An episode's targets, advantages, counterfactual values and loss terms
    do not depend on its batch-mates."""

    @staticmethod
    def rows(trainer, algo, episodes):
        """Each episode's (targets, advantages, counterfactual values,
        per-(t, a) policy-loss terms, per-step critic-loss terms) rows, cut to
        its length; centralv has no counterfactual values. The loss terms are
        those of the composed losses (``reference.py``'s term builders)."""
        batch = Batch.from_episodes(episodes)
        inputs = critic_batch_inputs(batch, algo)
        targets, weights, actions = prepare_critic_batch(
            batch, inputs, algo, trainer.target, 0.8, 0.99)
        probs = unrolled(trainer, batch)
        adv = compute_advantages(batch, inputs, algo, trainer.critic, probs, 0.99, False)
        values = np.zeros((len(batch), batch.max_length))
        if algo != "centralv":
            values = cr.counterfactual_values(
                trainer.critic, learn._batch_layout(batch, algo), inputs)
        policy_terms = learn._by_episode(batch, policy_loss_terms(batch, adv, probs).data)
        critic_terms = critic_loss_terms(trainer.critic, inputs, targets, weights, actions).data
        critic_terms = critic_terms.reshape(len(batch), batch.max_length, -1)
        return [(targets[i, :n].tobytes(), adv[i, :n].tobytes(), values[i, :n].tobytes(),
                 policy_terms[i, :n].tobytes(), critic_terms[i, :n].tobytes())
                for i, n in enumerate(batch.lengths)]

    @given(st.sampled_from(["centralv", "coma", "coma-cc"]),
           st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(1, 3), st.randoms(use_true_random=False),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reordering_and_longer_padding_leave_rows_bit_identical(
            self, algo, lengths, extra, shuffle, seed):
        rng = np.random.default_rng(seed)
        episodes = [
            random_episode(rng, DIMS["n"], DIMS["m"], DIMS["state_width"],
                           DIMS["obs_width"], n, generation=i)
            for i, n in enumerate(lengths)
        ]
        longer = random_episode(rng, DIMS["n"], DIMS["m"], DIMS["state_width"],
                                DIMS["obs_width"], max(lengths) + extra)
        trainer = make_trainer(algo, seed=seed % 1000)
        alone = self.rows(trainer, algo, episodes)

        order = list(range(len(episodes)))
        shuffle.shuffle(order)
        reordered = self.rows(trainer, algo, [episodes[i] for i in order])
        assert reordered == [alone[i] for i in order]
        assert self.rows(trainer, algo, episodes + [longer])[:-1] == alone
