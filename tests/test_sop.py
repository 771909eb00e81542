import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopac.envs import CaptureGrid, CaptureGridConfig, SwitchGame, SwitchGameConfig
from sopac.learn import Batch, LearnConfig, Trainer, batch_policy_probs
from sopac.policy import ActorConfig, EpsilonSchedule, actor_init
from sopac.rollout import sample_episode_fn
from sopac.sop import (
    ReplayBuffer,
    episode_kls,
    eviction_flags,
    kl_estimator_term,
    kl_exact,
    max_mean_kl,
    sop_iteration,
)
from sopac.verify import random_episode

from reference import kl_estimator_expectation, params_equal


def random_dist_pair(rng, m):
    p = rng.dirichlet(np.ones(m))
    q = rng.dirichlet(np.ones(m))
    return p, q


def replay(trainer, episode):
    """(T, n, m) current-policy distributions over one recorded episode."""
    return batch_policy_probs(trainer.actor, trainer.actor_cfg, episode)[0]


def make_setup(b=4, payoff=None, seed=0, lr=0.005):
    config = SwitchGameConfig(payoff=payoff) if payoff else SwitchGameConfig()
    env = SwitchGame(config)
    actor_cfg = ActorConfig(env.spec.obs_width, 2, env.spec.n_actions, gru_hidden=8)
    trainer = Trainer.create(
        LearnConfig(algo="centralv", lr=lr), actor_cfg, env.spec.state_width,
        np.random.default_rng(seed), np.random.default_rng(seed + 1),
        critic_hidden=(16, 16),
    )
    sample = sample_episode_fn(env, actor_cfg, EpsilonSchedule(), master_seed=seed)
    return env, trainer, ReplayBuffer(b), sample


def fill(buffer, trainer, sample):
    while not buffer.full:
        buffer.insert(sample(trainer.actor, 1))


def iterate(buffer, trainer, sample, mode, kl_threshold=float("inf"), iterations=1):
    """Run sop iterations; the generations each update trained on."""
    windows = []
    for _ in range(iterations):
        sop_iteration(buffer, trainer, sample, mode, kl_threshold,
                      lambda c, p, kls: windows.append(buffer.batch.generations.tolist()))
    return windows


class TestKlExact:
    def test_identical_distributions_have_zero_divergence(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_exact(p, p) == 0.0

    def test_closed_form_hand_case(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_exact(p, q) == pytest.approx(expected, abs=1e-15)
        assert kl_exact(p, q) == pytest.approx(0.14384, abs=1e-5)

    def test_asymmetry_witnessed(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert kl_exact(p, q) != kl_exact(q, p)

    def test_missing_support_reports_infinite_divergence(self):
        assert kl_exact(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf

    def test_zero_p_entries_contribute_nothing(self):
        assert kl_exact(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
    @settings(max_examples=50, deadline=None)
    def test_batched_rows_equal_support_only_sums(self, seed, m):
        # m of the default switch game (3), the capture grid (5) and the
        # smallest payoff (2); from m = 8 on, numpy sums a full row in another
        # order and the lowest bits may differ
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m), size=(4, 3))
        q = rng.dirichlet(np.ones(m), size=(4, 3))
        p[rng.random(p.shape) < 0.3] = 0.0
        q[rng.random(q.shape) < 0.1] = 0.0
        batched = kl_exact(p, q)
        assert batched.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            support = p[idx] > 0.0
            ps, qs = p[idx][support], q[idx][support]
            with np.errstate(divide="ignore"):
                reference = np.sum(ps * np.log(ps / qs))
            assert batched[idx] == reference
            assert kl_exact(p[idx], q[idx]) == reference

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed, m):
        p, q = random_dist_pair(np.random.default_rng(seed), m)
        assert kl_exact(p, q) >= 0.0


class TestKlEstimator:
    def test_equal_probabilities_give_zero(self):
        assert kl_estimator_term(0.3, 0.3) == 0.0

    def test_full_support_expectation_matches_hand_case(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert abs(kl_estimator_expectation(p, q) - kl_exact(p, q)) < 1e-12

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValueError):
            kl_estimator_term(0.0, 0.5)
        with pytest.raises(ValueError):
            kl_estimator_term(0.5, -0.1)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_every_term_is_nonnegative(self, p, q):
        assert kl_estimator_term(p, q) >= 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_expectation_identity_on_random_pairs(self, seed, m):
        p, q = random_dist_pair(np.random.default_rng(seed), m)
        assert abs(kl_estimator_expectation(p, q) - kl_exact(p, q)) < 1e-12

    def test_monte_carlo_mean_is_unbiased(self):
        rng = np.random.default_rng(99)
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        draws = rng.choice(2, size=100_000, p=p)
        terms = np.array([kl_estimator_term(p[x], q[x]) for x in draws])
        se = terms.std(ddof=1) / np.sqrt(terms.size)
        assert abs(terms.mean() - kl_exact(p, q)) < 3.0 * se


class TestReplayBuffer:
    def test_fifo_order_and_capacity(self):
        env, trainer, buffer, sample = make_setup(b=3)
        for _ in range(3):
            buffer.insert(sample(trainer.actor, 1))
        assert buffer.batch.generations.tolist() == [0, 1, 2]
        with pytest.raises(RuntimeError):
            buffer.insert(sample(trainer.actor, 1))
        buffer.evict_where([True, False, False])
        assert buffer.batch.generations.tolist() == [1, 2]
        with pytest.raises(RuntimeError):
            buffer.insert(sample(trainer.actor, 2))

    @given(st.lists(st.booleans(), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_eviction_never_reorders_survivors(self, drop):
        buffer = ReplayBuffer(len(drop))
        env, trainer, _, sample = make_setup(b=1)
        for _ in drop:
            buffer.insert(sample(trainer.actor, 1))
        before = buffer.batch.generations.tolist()
        buffer.evict_where(drop)
        survivors = [g for g, d in zip(before, drop) if not d]
        if survivors:
            assert buffer.batch.generations.tolist() == survivors
        else:
            assert buffer.batch is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @given(st.lists(st.one_of(
               st.tuples(st.just("insert"), st.lists(st.integers(1, 12), min_size=1, max_size=4)),
               st.tuples(st.just("evict"), st.lists(st.booleans(), min_size=1, max_size=6))),
               min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_its_episodes_after_inserts_and_evictions(self, ops, seed):
        # group inserts of mixed lengths and flagged evictions; the flags
        # repeat to the buffer's size
        rng = np.random.default_rng(seed)
        buffer = ReplayBuffer(6)
        kept: list[tuple[int, int]] = []  # (generation, length) of each survivor
        generation = 0
        for kind, arg in ops:
            if kind == "insert":
                lengths = arg[:buffer.capacity - len(buffer)]
                if not lengths:
                    continue
                group = Batch.from_episodes([
                    random_episode(rng, 2, 3, 4, 3, t, generation=generation + i)
                    for i, t in enumerate(lengths)])
                buffer.insert(group)
                kept += [(generation + i, t) for i, t in enumerate(lengths)]
                generation += len(lengths)
            else:
                drop = [arg[i % len(arg)] for i in range(len(buffer))]
                buffer.evict_where(drop)
                kept = [k for k, d in zip(kept, drop) if not d]
            if not kept:
                assert buffer.batch is None
                continue
            assert buffer.batch.generations.tolist() == [g for g, _ in kept]
            assert buffer.batch.max_length == max(t for _, t in kept)
            rebuilt = Batch.from_episodes([buffer.batch[i] for i in range(len(buffer))])
            for name, value in vars(buffer.batch).items():
                other = getattr(rebuilt, name)
                assert (value.dtype, value.shape) == (other.dtype, other.shape), name
                assert value.tobytes() == other.tobytes(), name


class TestMaxBufferKl:
    def test_current_policy_buffer_reports_zero(self):
        env, trainer, buffer, sample = make_setup(b=3)
        fill(buffer, trainer, sample)
        kls = episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch)
        assert max_mean_kl(kls) == (0.0, 0.0)
        assert [float(k.max()) for k in kls] == [0.0, 0.0, 0.0]

    def test_single_stale_episode_dominates(self):
        env, trainer, buffer, sample = make_setup(b=3)
        fill(buffer, trainer, sample)
        buffer.batch.dists[1] = 0.6 * buffer.batch.dists[1] + 0.4 / trainer.actor_cfg.n_actions
        stale = buffer.batch[1]
        expected = float(episode_kls(trainer.actor, trainer.actor_cfg, stale)[0].max())
        kls = episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch)
        assert max_mean_kl(kls)[0] == expected
        assert float(kls[0].max()) == 0.0 and float(kls[2].max()) == 0.0
        # per-step cross-check against the closed form
        current = replay(trainer, stale)
        per_step = [
            kl_exact(current[t, a], stale.dists[0, t, a])
            for t in range(stale.max_length) for a in range(2)
        ]
        assert expected == max(per_step)

    def test_exact_and_expectation_forms_agree(self):
        env, trainer, buffer, sample = make_setup(b=2)
        fill(buffer, trainer, sample)
        episode = buffer.batch[0]
        episode.dists = 0.8 * episode.dists + 0.2 / trainer.actor_cfg.n_actions
        current = replay(trainer, episode)
        for t in range(episode.max_length):
            for a in range(2):
                exact = kl_exact(current[t, a], episode.dists[0, t, a])
                expectation = kl_estimator_expectation(current[t, a], episode.dists[0, t, a])
                assert abs(exact - expectation) < 1e-12

    def test_sampled_kind_is_nonnegative_and_reported(self):
        env, trainer, buffer, sample = make_setup(b=2)
        fill(buffer, trainer, sample)
        buffer.batch.dists[0] = 0.5 * buffer.batch.dists[0] + 0.5 / 3
        kls = episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch, "sampled")
        max_kl, mean_kl = max_mean_kl(kls)
        assert max_kl > 0.0 and mean_kl >= 0.0
        assert all((k >= 0.0).all() for k in kls)


class TestEpisodeKlsBatching:
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1), st.sampled_from(["exact", "sampled"]))
    @settings(max_examples=25, deadline=None)
    def test_each_episode_kl_is_independent_of_its_batch(self, lengths, seed, kind):
        rng = np.random.default_rng(seed)
        cfg = ActorConfig(obs_width=3, n_agents=2, n_actions=3, gru_hidden=6)
        actor = actor_init(rng, cfg)
        episodes = [random_episode(rng, 2, 3, 4, 3, t, generation=i)
                    for i, t in enumerate(lengths)]
        base = episode_kls(actor, cfg, Batch.from_episodes(episodes), kind)
        assert [k.shape for k in base] == [(t, 2) for t in lengths]
        order = rng.permutation(len(episodes))
        shuffled = episode_kls(actor, cfg, Batch.from_episodes([episodes[i] for i in order]), kind)
        longer = random_episode(rng, 2, 3, 4, 3, max(lengths) + 2)
        appended = episode_kls(actor, cfg, Batch.from_episodes(episodes + [longer]), kind)
        for k, i in enumerate(order):
            assert shuffled[k].tobytes() == base[i].tobytes()
        for i, kls in enumerate(base):
            assert appended[i].tobytes() == kls.tobytes()
            assert episode_kls(actor, cfg, episodes[i], kind)[0].tobytes() == kls.tobytes()


class TestReadOnlyBuffer:
    @pytest.mark.parametrize("mode", ["permissive", "strict"])
    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_iterations_never_write_the_buffer_arrays(self, algo, mode):
        # the buffer's arrays outlive an update: training, the KL replay and
        # the evaluation row's reads must leave them as they are
        env = CaptureGrid(CaptureGridConfig(side=4, horizon=8, prey="walk"))
        actor_cfg = ActorConfig(env.spec.obs_width, 2, env.spec.n_actions, gru_hidden=8)
        trainer = Trainer.create(
            LearnConfig(algo=algo, critic_schedule="minibatch"), actor_cfg,
            env.spec.state_width, np.random.default_rng(16), np.random.default_rng(17),
            critic_hidden=(16, 16))
        sample = sample_episode_fn(env, actor_cfg, EpsilonSchedule(), master_seed=16)
        buffer = ReplayBuffer(4)
        train = trainer.train_on_batch
        lengths = set()

        def read_only(batch):
            for value in vars(batch).values():
                value.flags.writeable = False
            lengths.update(batch.lengths.tolist())
            return train(batch)

        def evaluation_row(critic_loss, policy_loss, kls):
            max_mean_kl(kls or episode_kls(trainer.actor, actor_cfg, buffer.batch))
            float(np.mean(buffer.batch.returns))

        trainer.train_on_batch = read_only
        for _ in range(5):
            sop_iteration(buffer, trainer, sample, mode, 0.01, evaluation_row)
        assert len(lengths) > 1


class TestEvictionRule:
    def test_each_mode_flags_its_episodes(self):
        kls = [np.array([[0.0]]), np.array([[0.3]]), np.array([[0.1]])]
        assert eviction_flags("off", None, 0.2, 3) == [True, True, True]
        assert eviction_flags("permissive", None, 0.2, 3) == [True, False, False]
        assert eviction_flags("strict", None, 0.2, 3) == [True, False, False]
        assert eviction_flags("strict", kls, 0.2, 3) == [True, True, False]

    def test_unknown_mode_rejected_before_sampling(self):
        env, trainer, buffer, sample = make_setup(b=2)
        with pytest.raises(ValueError, match="sop mode"):
            iterate(buffer, trainer, sample, "on")
        assert sample.counter["rollouts"] == 0


class TestOffIteration:
    def test_every_update_trains_on_fresh_episodes(self):
        env, trainer, buffer, sample = make_setup(b=3)
        windows = iterate(buffer, trainer, sample, "off", iterations=3)
        assert windows == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert buffer.batch is None


class TestPermissiveIteration:
    def test_buffer_generations_slide_by_one_per_iteration(self):
        env, trainer, buffer, sample = make_setup(b=4)
        windows = iterate(buffer, trainer, sample, "permissive", iterations=5)
        assert windows == [[k - 1, k, k + 1, k + 2] for k in range(1, 6)]
        assert buffer.batch.generations.tolist() == [5, 6, 7]

    def test_capacity_one_trains_on_single_latest_episode(self):
        env, trainer, buffer, sample = make_setup(b=1)
        windows = iterate(buffer, trainer, sample, "permissive", iterations=3)
        assert windows == [[0], [1], [2]]

    def test_consumes_exactly_one_episode_per_iteration(self):
        env, trainer, buffer, sample = make_setup(b=3)
        iterate(buffer, trainer, sample, "permissive")
        before = sample.counter["rollouts"]
        iterate(buffer, trainer, sample, "permissive", iterations=4)
        assert sample.counter["rollouts"] == before + 4


class TestStrictIteration:
    def test_infinite_threshold_matches_permissive_eviction(self):
        env_a, trainer_a, buf_a, sample_a = make_setup(b=3, seed=11)
        env_b, trainer_b, buf_b, sample_b = make_setup(b=3, seed=11)
        permissive = iterate(buf_a, trainer_a, sample_a, "permissive", iterations=3)
        strict = iterate(buf_b, trainer_b, sample_b, "strict", float("inf"), iterations=3)
        assert strict == permissive
        assert buf_b.batch.generations.tolist() == buf_a.batch.generations.tolist()
        assert params_equal(trainer_b.actor, trainer_a.actor)

    def test_zero_threshold_with_policy_change_empties_the_buffer(self):
        env, trainer, buffer, sample = make_setup(b=3, seed=12)
        iterate(buffer, trainer, sample, "strict", 0.0)
        assert buffer.batch is None
        rollouts_before = sample.counter["rollouts"]
        iterate(buffer, trainer, sample, "strict", 0.0)
        # the next iteration trained purely on freshly sampled episodes
        assert sample.counter["rollouts"] == rollouts_before + 3

    def test_threshold_between_two_divergences_evicts_only_the_higher(self):
        # all-zero payoff and a zero critic keep the policy fixed, so the
        # planted divergences are measured exactly
        from sopac.learn import TargetNetState

        payoff = ((0.0, 0.0), (0.0, 0.0))
        env, trainer, buffer, sample = make_setup(b=4, payoff=payoff, seed=13)
        for k, v in trainer.critic.items():
            v.data[...] = 0.0
        trainer.target = TargetNetState(trainer.critic.copy())
        for _ in range(3):
            buffer.insert(sample(trainer.actor, 1))
        uniform = 1.0 / trainer.actor_cfg.n_actions
        buffer.batch.dists[1] = 0.5 * buffer.batch.dists[1] + 0.5 * uniform
        buffer.batch.dists[2] = 0.95 * buffer.batch.dists[2] + 0.05 * uniform
        _, high, low = (float(k.max()) for k in
                        episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch))
        assert high > low > 0.0
        threshold = 0.5 * (high + low)
        iterate(buffer, trainer, sample, "strict", threshold)
        # evicted: generation 0 (oldest) and generation 1 (diverged past threshold)
        assert buffer.batch.generations.tolist() == [2, 3]

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_negative_threshold_rejected(self, threshold):
        env, trainer, buffer, sample = make_setup(b=2)
        with pytest.raises(ValueError):
            iterate(buffer, trainer, sample, "strict", threshold)

    def test_consumes_exactly_as_many_episodes_as_it_evicted(self):
        env, trainer, buffer, sample = make_setup(b=4, seed=14)
        iterate(buffer, trainer, sample, "strict", float("inf"))
        for _ in range(3):
            evicted = buffer.capacity - len(buffer)
            before = sample.counter["rollouts"]
            iterate(buffer, trainer, sample, "strict", float("inf"))
            assert sample.counter["rollouts"] == before + evicted

    def test_callback_receives_the_kls_eviction_uses(self):
        env, trainer, buffer, sample = make_setup(b=3, seed=15)
        seen = []

        def on_train_end(critic_loss, policy_loss, kls):
            expected = episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch)
            assert [k.tobytes() for k in kls] == [k.tobytes() for k in expected]
            seen.append(eviction_flags("strict", kls, 0.01, len(buffer)))

        sop_iteration(buffer, trainer, sample, "strict", 0.01, on_train_end)
        survivors = [g for g, d in zip([0, 1, 2], seen[0]) if not d]
        assert buffer.batch.generations.tolist() == survivors
        for mode, threshold in (("off", 0.01), ("permissive", 0.01), ("strict", np.inf)):
            sop_iteration(buffer, trainer, sample, mode, threshold,
                          lambda c, p, kls: seen.append(kls))
            assert seen[-1] is None
