"""Lockstep rollouts store every episode bit-identically to playing it alone."""

import copy

import numpy as np
import pytest

from sopac import harness, rollout
from sopac.envs import CaptureGrid, CaptureGridConfig, SwitchGame
from sopac.policy import ActorConfig, EpsilonSchedule, actor_init, epsilon_at
from sopac.rollout import rollout_episodes, sample_episode_fn

FIELDS = ("states", "obs", "avail", "actions", "rewards", "dists", "epsilons")
GREEDY = EpsilonSchedule(0.0, 0.0, 1)


def walking_grid():
    return CaptureGrid(CaptureGridConfig(side=4, horizon=8, prey="walk"))


def actor_for(env, seed):
    cfg = ActorConfig(env.spec.obs_width, env.spec.n_agents, env.spec.n_actions, gru_hidden=8)
    return actor_init(np.random.default_rng(seed), cfg), cfg


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.length, a.win, a.generation) == (b.length, b.win, b.generation)
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


def play(env, params, cfg, schedule, starts, seeds, mode, grouped):
    """The episodes of ``seeds`` as one lockstep group or one group each."""
    def group(idx):
        return rollout_episodes(
            [copy.deepcopy(env) for _ in idx], params, cfg, schedule,
            starts=[starts[i] for i in idx], env_seeds=[seeds[i] for i in idx],
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
        together = play(env, params, cfg, GREEDY, [0] * 12, seeds, "greedy", True)
        lengths = [e.length for e in together]
        assert len(set(lengths)) > 2 and any(e.win for e in together)
        assert len(actor_cells) == max(lengths)
        # finished episodes leave the stack
        assert actor_cells == [2 * sum(n > t for n in lengths) for t in range(max(lengths))]
        alone = play(env, params, cfg, GREEDY, [0] * 12, seeds, "greedy", False)
        assert_identical(together, alone)

    def test_evaluate_matches_one_episode_at_a_time(self):
        env = walking_grid()
        params, cfg = actor_for(env, 4)
        win_rate, mean_return = harness.evaluate(params, cfg, env, 12, seed=9)
        played = []
        for i in range(12):
            seq = np.random.SeedSequence(9, spawn_key=(2, i))
            env_seed, action_seed = (int(s) for s in seq.generate_state(2))
            played += rollout_episodes([env], params, cfg, GREEDY, [0], [env_seed],
                                       [np.random.default_rng(action_seed)], [-1], "greedy")
        assert win_rate == sum(e.win for e in played) / 12
        assert mean_return == float(np.mean([e.total_return for e in played]))

    def test_sampling_with_per_episode_epsilon_starts(self):
        env = walking_grid()
        params, cfg = actor_for(env, 1)
        starts = [0, 3, 11, 40]
        seeds = [5, 6, 7, 8]
        together = play(env, params, cfg, EpsilonSchedule(0.6, 0.1, 30), starts, seeds,
                        "sample", True)
        alone = play(env, params, cfg, EpsilonSchedule(0.6, 0.1, 30), starts, seeds,
                     "sample", False)
        assert_identical(together, alone)

    def test_mismatched_group_rejected(self):
        env = SwitchGame()
        params, cfg = actor_for(env, 0)
        with pytest.raises(ValueError, match="per episode"):
            rollout_episodes([env, env], params, cfg, GREEDY, [0], [1, 2],
                             [np.random.default_rng(0)] * 2, [0, 1])


class TestSampler:
    @staticmethod
    def draw(env, schedule, actor, warmup, count, grouped):
        """``count`` episodes after ``warmup`` single ones, from a fresh sampler."""
        params, cfg = actor
        sample = sample_episode_fn(copy.deepcopy(env), cfg, schedule, master_seed=3)
        for _ in range(warmup):
            sample(params, 1)
        if grouped:
            return sample(params, count), sample.counter
        return [sample(params, 1)[0] for _ in range(count)], sample.counter

    def test_switch_group_of_eight(self, actor_cells):
        env = SwitchGame()
        actor = actor_for(env, 2)
        together, counter = self.draw(env, EpsilonSchedule(), actor, 0, 8, True)
        assert actor_cells == [16]
        alone, expected = self.draw(env, EpsilonSchedule(), actor, 0, 8, False)
        assert_identical(together, alone)
        assert counter == expected == {"rollouts": 8, "env_steps": 8}
        assert [float(e.epsilons[0]) for e in together] == [
            epsilon_at(k, EpsilonSchedule()) for k in range(8)]

    def test_capture_group_after_the_anneal(self, actor_cells):
        env = walking_grid()
        actor = actor_for(env, 3)
        schedule = EpsilonSchedule(0.5, 0.05, 20)
        together, counter = self.draw(env, schedule, actor, 4, 6, True)
        assert counter["env_steps"] - sum(e.length for e in together) >= 20
        # the warm-up plays one step per forward, the group one per step
        group_forwards = actor_cells[-max(e.length for e in together):]
        assert group_forwards[0] == 2 * 6
        alone, expected = self.draw(env, schedule, actor, 4, 6, False)
        assert_identical(together, alone)
        assert counter == expected
        assert all((e.epsilons == epsilon_at(20, schedule)).all() for e in together)

    def test_capture_request_before_the_anneal_end_plays_one_at_a_time(self, actor_cells):
        env = walking_grid()
        actor = actor_for(env, 0)
        schedule = EpsilonSchedule(0.5, 0.05, 1000)
        together, counter = self.draw(env, schedule, actor, 0, 6, True)
        lengths = [e.length for e in together]
        assert len(set(lengths)) > 1
        assert actor_cells == [2] * sum(lengths)
        before = 0
        for episode in together:
            want = [epsilon_at(before + t, schedule) for t in range(episode.length)]
            assert episode.epsilons.tolist() == want
            before += episode.length
        alone, expected = self.draw(env, schedule, actor, 0, 6, False)
        assert_identical(together, alone)
        assert counter == expected == {"rollouts": 6, "env_steps": sum(lengths)}

    def test_empty_request_rejected(self):
        env = SwitchGame()
        params, cfg = actor_for(env, 0)
        with pytest.raises(ValueError):
            sample_episode_fn(env, cfg, EpsilonSchedule(), 0)(params, 0)
