"""Lockstep rollouts store every episode bit-identically to playing it alone."""

import pickle

import numpy as np
import pytest

from sopac import harness, rollout
from sopac.envs import CaptureGrid, CaptureGridConfig, SwitchGame
from sopac.learn import Batch, batch_policy_probs
from sopac.policy import ActorConfig, EpsilonSchedule, actor_init, epsilon_at
from sopac.rollout import rollout_episodes, sample_episode_fn

FIELDS = ("states", "obs", "avail", "actions", "rewards", "dists", "epsilons", "lengths",
          "generations", "wins")


def walking_grid():
    return CaptureGrid(CaptureGridConfig(side=4, horizon=8, prey="walk"))


def actor_for(env, seed):
    cfg = ActorConfig(env.spec.obs_width, env.spec.n_agents, env.spec.n_actions, gru_hidden=8)
    return actor_init(np.random.default_rng(seed), cfg), cfg


def assert_identical(got, want):
    """Two batches hold the same episodes, bit for bit."""
    assert len(got) == len(want)
    for name in FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


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


def play(env, params, cfg, epsilon, count, mode, grouped, seed=0):
    """Episodes 0..count-1 of stream 1 of ``seed``, as one lockstep group or
    one group each, concatenated."""
    if grouped:
        return rollout_episodes(env, count, params, cfg, epsilon, seed, stream=1, mode=mode)
    return Batch.from_episodes([
        rollout_episodes(env, 1, params, cfg, epsilon, seed, stream=1, first=g, mode=mode)
        for g in range(count)])


class TestLockstepGroup:
    def test_greedy_evaluation_with_mixed_lengths(self, actor_cells):
        env = walking_grid()
        params, cfg = actor_for(env, 0)
        together = play(env, params, cfg, 0.0, 12, "greedy", True)
        lengths = together.lengths.tolist()
        assert len(set(lengths)) > 2 and together.wins.any()
        assert len(actor_cells) == max(lengths)
        # finished episodes leave the stack
        assert actor_cells == [2 * sum(n > t for n in lengths) for t in range(max(lengths))]
        alone = play(env, params, cfg, 0.0, 12, "greedy", False)
        assert_identical(together, alone)

    def test_evaluate_matches_one_episode_at_a_time(self):
        env = walking_grid()
        params, cfg = actor_for(env, 4)
        win_rate, mean_return = harness.evaluate(params, cfg, env, 12, seed=9)
        played = [rollout_episodes(env, 1, params, cfg, 0.0, 9, stream=2, first=i,
                                   mode="greedy") for i in range(12)]
        assert win_rate == sum(bool(e.wins[0]) for e in played) / 12
        assert mean_return == float(np.mean([e.rewards[0].sum() for e in played]))

    def test_sampling_group_matches_one_at_a_time(self):
        env = walking_grid()
        params, cfg = actor_for(env, 1)
        together = play(env, params, cfg, 0.35, 4, "sample", True, seed=5)
        alone = play(env, params, cfg, 0.35, 4, "sample", False, seed=5)
        assert_identical(together, alone)
        assert (together.epsilons == 0.35).all()

    def test_episodes_follow_the_seed_rule(self):
        env = walking_grid()
        params, cfg = actor_for(env, 7)
        batch = rollout_episodes(env, 3, params, cfg, 0.3, seed=11, stream=5, first=4)
        assert batch.generations.tolist() == [4, 5, 6]
        for row in range(3):
            episode = batch[row]
            states, actions, dists = episode.states[0], episode.actions[0], episode.dists[0]
            seq = np.random.SeedSequence(11, spawn_key=(5, int(episode.generations[0])))
            env_seed, action_seed = (int(s) for s in seq.generate_state(2))
            # the env generator places the agents and then walks the prey
            env_rng = np.random.default_rng(env_seed)
            key = env.reset(env_rng)
            for state, joint in zip(states, actions):
                assert np.array_equal(state, env.state_vector(key))
                key, *_ = env.step(key, joint, env_rng)
            # the action generator makes one choice per agent per step
            rng = np.random.default_rng(action_seed)
            m = env.spec.n_actions
            assert actions.dtype == np.int64
            assert actions.tolist() == [
                [int(rng.choice(m, p=dist / dist.sum())) for dist in step] for step in dists]

    @pytest.mark.parametrize("env", [walking_grid(), SwitchGame()], ids=["capture", "switch"])
    def test_rollout_leaves_the_env_unchanged(self, env):
        params, cfg = actor_for(env, 8)
        before = pickle.dumps(vars(env))
        rollout_episodes(env, 5, params, cfg, 0.4, seed=2, stream=1)
        harness.evaluate(params, cfg, env, 3, seed=2)
        assert pickle.dumps(vars(env)) == before


class TestSampler:
    """Every request plays as one lockstep group at ``epsilon_at(S)``, S being
    the env-step count when the request starts."""

    MASTER_SEED = 3

    @classmethod
    def sampler(cls, env, schedule, actor):
        return sample_episode_fn(env, actor[1], schedule, cls.MASTER_SEED)

    @classmethod
    def alone(cls, env, actor, epsilon, generations):
        """The sampler's episodes ``generations``, each played in a group of one."""
        params, cfg = actor
        return Batch.from_episodes([
            rollout_episodes(env, 1, params, cfg, epsilon, cls.MASTER_SEED, stream=1, first=g)
            for g in generations])

    def test_switch_group_of_eight(self, actor_cells):
        env = SwitchGame()
        actor = actor_for(env, 2)
        sample = self.sampler(env, EpsilonSchedule(), actor)
        together = sample(actor[0], 8)
        assert actor_cells == [16]
        assert sample.counter == {"rollouts": 8, "env_steps": 8}
        assert (together.epsilons == epsilon_at(0, EpsilonSchedule())).all()
        assert_identical(together, self.alone(env, actor, together.epsilons[0], range(8)))

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
        group_forwards = actor_cells[-together.max_length:]
        assert group_forwards[0] == 2 * 6
        epsilon = epsilon_at(start, schedule)
        assert epsilon == epsilon_at(20, schedule)
        assert (together.epsilons == epsilon).all()
        assert_identical(together, self.alone(env, actor, epsilon, range(4, 10)))

    def test_capture_request_during_the_anneal_is_one_group(self, actor_cells):
        env = walking_grid()
        actor = actor_for(env, 0)
        schedule = EpsilonSchedule(0.5, 0.05, 1000)
        sample = self.sampler(env, schedule, actor)
        sample(actor[0], 2)
        start, calls = sample.counter["env_steps"], len(actor_cells)
        together = sample(actor[0], 6)
        lengths = together.lengths.tolist()
        assert len(set(lengths)) > 1
        assert actor_cells[calls] == 2 * 6
        assert len(actor_cells) - calls == max(lengths)
        epsilon = epsilon_at(start, schedule)
        assert 0.05 < epsilon < 0.5
        assert (together.epsilons == epsilon).all()
        assert_identical(together, self.alone(env, actor, epsilon, range(2, 8)))
        assert sample.counter == {"rollouts": 8, "env_steps": start + sum(lengths)}

    def test_consecutive_requests_advance_the_start_by_their_lengths(self):
        env = walking_grid()
        actor = actor_for(env, 5)
        schedule = EpsilonSchedule(0.6, 0.1, 200)
        sample = self.sampler(env, schedule, actor)
        start = 0
        for count in (3, 1, 4, 2):
            batch = sample(actor[0], count)
            assert batch.epsilons.tolist() == [epsilon_at(start, schedule)] * count
            start += int(batch.lengths.sum())
            assert sample.counter["env_steps"] == start
        assert sample.counter["rollouts"] == 10

    def test_replay_of_a_batch_mixing_requests_reproduces_stored_dists(self):
        env = walking_grid()
        params, cfg = actor = actor_for(env, 6)
        sample = self.sampler(env, EpsilonSchedule(0.6, 0.1, 100), actor)
        requests = [sample(params, count) for count in (2, 3, 1, 2)]
        episodes = [batch[i] for batch in requests for i in range(len(batch))]
        assert len({float(e.epsilons[0]) for e in episodes}) == 4
        mixed = episodes[::2] + episodes[1::2]
        batch = Batch.from_episodes(mixed)
        replayed = batch_policy_probs(params, cfg, batch)
        for i, episode in enumerate(mixed):
            got = replayed[i, :episode.max_length]
            assert np.array_equal(got.view(np.int64), episode.dists[0].view(np.int64))

    @pytest.mark.parametrize("request_none", [
        lambda env, params, cfg, sample: rollout_episodes(env, 0, params, cfg, 0.1, 0, stream=1),
        lambda env, params, cfg, sample: sample(params, 0),
        lambda env, params, cfg, sample: harness.evaluate(params, cfg, env, 0, seed=0),
    ], ids=["rollout_episodes", "sample", "evaluate"])
    def test_empty_request_rejected(self, request_none):
        # the one guard sits in rollout_episodes, before any generator is built
        env = SwitchGame()
        params, cfg = actor_for(env, 0)
        sample = sample_episode_fn(env, cfg, EpsilonSchedule(), 0)
        with pytest.raises(ValueError):
            request_none(env, params, cfg, sample)
        assert sample.counter == {"rollouts": 0, "env_steps": 0}
