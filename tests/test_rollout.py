"""Lockstep rollouts store every episode bit-identically to playing it alone."""

import copy

import numpy as np
import pytest

from sopac import harness, rollout
from sopac.envs import CaptureGrid, CaptureGridConfig, SwitchGame
from sopac.learn import Batch, batch_policy_probs
from sopac.policy import ActorConfig, EpsilonSchedule, actor_init, epsilon_at
from sopac.rollout import rollout_episodes, sample_episode_fn

FIELDS = ("states", "obs", "avail", "actions", "rewards", "dists")


def walking_grid():
    return CaptureGrid(CaptureGridConfig(side=4, horizon=8, prey="walk"))


def actor_for(env, seed):
    cfg = ActorConfig(env.spec.obs_width, env.spec.n_agents, env.spec.n_actions, gru_hidden=8)
    return actor_init(np.random.default_rng(seed), cfg), cfg


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.length, a.win, a.generation, a.epsilon) == (b.length, b.win, b.generation,
                                                             b.epsilon)
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape, name
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), name


@pytest.fixture
def actor_cells(monkeypatch):
    """Count the stacked actor forwards the rollout makes."""
    calls = []
    cell = rollout.actor_cell

    def counted(params, x, h):
        calls.append(x.shape[0])
        return cell(params, x, h)

    monkeypatch.setattr(rollout, "actor_cell", counted)
    return calls


def play(env, params, cfg, epsilon, seeds, mode, grouped):
    """The episodes of ``seeds`` as one lockstep group or one group each."""
    def group(idx):
        return rollout_episodes(
            [copy.deepcopy(env) for _ in idx], params, cfg, epsilon,
            env_seeds=[seeds[i] for i in idx],
            action_rngs=[np.random.default_rng(1000 + seeds[i]) for i in idx],
            generations=list(idx), mode=mode)
    if grouped:
        return group(range(len(seeds)))
    return [e for i in range(len(seeds)) for e in group([i])]


class TestLockstepGroup:
    def test_greedy_evaluation_with_mixed_lengths(self, actor_cells):
        env = walking_grid()
        params, cfg = actor_for(env, 0)
        seeds = list(range(100, 112))
        together = play(env, params, cfg, 0.0, seeds, "greedy", True)
        lengths = [e.length for e in together]
        assert len(set(lengths)) > 2 and any(e.win for e in together)
        assert len(actor_cells) == max(lengths)
        # finished episodes leave the stack
        assert actor_cells == [2 * sum(n > t for n in lengths) for t in range(max(lengths))]
        alone = play(env, params, cfg, 0.0, seeds, "greedy", False)
        assert_identical(together, alone)

    def test_evaluate_matches_one_episode_at_a_time(self):
        env = walking_grid()
        params, cfg = actor_for(env, 4)
        win_rate, mean_return = harness.evaluate(
            params, cfg, [copy.deepcopy(env) for _ in range(12)], seed=9)
        played = []
        for i in range(12):
            seq = np.random.SeedSequence(9, spawn_key=(2, i))
            env_seed, action_seed = (int(s) for s in seq.generate_state(2))
            played += rollout_episodes([env], params, cfg, 0.0, [env_seed],
                                       [np.random.default_rng(action_seed)], [-1], "greedy")
        assert win_rate == sum(e.win for e in played) / 12
        assert mean_return == float(np.mean([e.total_return for e in played]))

    def test_sampling_group_matches_one_at_a_time(self):
        env = walking_grid()
        params, cfg = actor_for(env, 1)
        seeds = [5, 6, 7, 8]
        together = play(env, params, cfg, 0.35, seeds, "sample", True)
        alone = play(env, params, cfg, 0.35, seeds, "sample", False)
        assert_identical(together, alone)
        assert all(e.epsilon == 0.35 for e in together)

    def test_mismatched_group_rejected(self):
        env = SwitchGame()
        params, cfg = actor_for(env, 0)
        with pytest.raises(ValueError, match="per episode"):
            rollout_episodes([env, env], params, cfg, 0.0, [1],
                             [np.random.default_rng(0)] * 2, [0, 1])


class TestSampler:
    """Every request plays as one lockstep group at ``epsilon_at(S)``, S being
    the env-step count when the request starts."""

    MASTER_SEED = 3

    @classmethod
    def sampler(cls, env, schedule, actor):
        return sample_episode_fn(copy.deepcopy(env), actor[1], schedule, cls.MASTER_SEED)

    @classmethod
    def alone(cls, env, actor, epsilon, generations):
        """The sampler's episodes ``generations``, each played in a group of one."""
        params, cfg = actor
        played = []
        for g in generations:
            seq = np.random.SeedSequence(cls.MASTER_SEED, spawn_key=(1, g))
            env_seed, action_seed = (int(s) for s in seq.generate_state(2))
            played += rollout_episodes([copy.deepcopy(env)], params, cfg, epsilon, [env_seed],
                                       [np.random.default_rng(action_seed)], [g])
        return played

    def test_switch_group_of_eight(self, actor_cells):
        env = SwitchGame()
        actor = actor_for(env, 2)
        sample = self.sampler(env, EpsilonSchedule(), actor)
        together = sample(actor[0], 8)
        assert actor_cells == [16]
        assert sample.counter == {"rollouts": 8, "env_steps": 8}
        assert all(e.epsilon == epsilon_at(0, EpsilonSchedule()) for e in together)
        assert_identical(together, self.alone(env, actor, together[0].epsilon, range(8)))

    def test_capture_group_after_the_anneal(self, actor_cells):
        env = walking_grid()
        actor = actor_for(env, 3)
        schedule = EpsilonSchedule(0.5, 0.05, 20)
        sample = self.sampler(env, schedule, actor)
        for _ in range(4):
            sample(actor[0], 1)
        start = sample.counter["env_steps"]
        assert start >= 20
        together = sample(actor[0], 6)
        # the warm-up plays one step per forward, the group one per step
        group_forwards = actor_cells[-max(e.length for e in together):]
        assert group_forwards[0] == 2 * 6
        epsilon = epsilon_at(start, schedule)
        assert epsilon == epsilon_at(20, schedule)
        assert all(e.epsilon == epsilon for e in together)
        assert_identical(together, self.alone(env, actor, epsilon, range(4, 10)))

    def test_capture_request_during_the_anneal_is_one_group(self, actor_cells):
        env = walking_grid()
        actor = actor_for(env, 0)
        schedule = EpsilonSchedule(0.5, 0.05, 1000)
        sample = self.sampler(env, schedule, actor)
        sample(actor[0], 2)
        start, calls = sample.counter["env_steps"], len(actor_cells)
        together = sample(actor[0], 6)
        lengths = [e.length for e in together]
        assert len(set(lengths)) > 1
        assert actor_cells[calls] == 2 * 6
        assert len(actor_cells) - calls == max(lengths)
        epsilon = epsilon_at(start, schedule)
        assert 0.05 < epsilon < 0.5
        assert all(e.epsilon == epsilon for e in together)
        assert_identical(together, self.alone(env, actor, epsilon, range(2, 8)))
        assert sample.counter == {"rollouts": 8, "env_steps": start + sum(lengths)}

    def test_consecutive_requests_advance_the_start_by_their_lengths(self):
        env = walking_grid()
        actor = actor_for(env, 5)
        schedule = EpsilonSchedule(0.6, 0.1, 200)
        sample = self.sampler(env, schedule, actor)
        start = 0
        for count in (3, 1, 4, 2):
            episodes = sample(actor[0], count)
            assert [e.epsilon for e in episodes] == [epsilon_at(start, schedule)] * count
            start += sum(e.length for e in episodes)
            assert sample.counter["env_steps"] == start
        assert sample.counter["rollouts"] == 10

    def test_replay_of_a_batch_mixing_requests_reproduces_stored_dists(self):
        env = walking_grid()
        params, cfg = actor = actor_for(env, 6)
        sample = self.sampler(env, EpsilonSchedule(0.6, 0.1, 100), actor)
        episodes = [e for count in (2, 3, 1, 2) for e in sample(params, count)]
        assert len({e.epsilon for e in episodes}) == 4
        mixed = episodes[::2] + episodes[1::2]
        batch = Batch.from_episodes(mixed)
        replayed = batch_policy_probs(params, cfg, batch)
        for i, episode in enumerate(mixed):
            got = replayed[i, :episode.length]
            assert np.array_equal(got.view(np.int64), episode.dists.view(np.int64))

    def test_empty_request_rejected(self):
        env = SwitchGame()
        params, cfg = actor_for(env, 0)
        with pytest.raises(ValueError):
            sample_episode_fn(env, cfg, EpsilonSchedule(), 0)(params, 0)
