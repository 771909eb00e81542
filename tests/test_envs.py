import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import capture_avail_actions, capture_observations, reference_transitions
from sopac.envs import (
    CaptureGrid,
    CaptureGridConfig,
    EnvError,
    EnvSpec,
    SwitchGame,
    SwitchGameConfig,
    make_env,
)
from sopac.oracle import exact_action_values, uniform_policy


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSwitchGame:
    def test_reset_gives_onehot_observations(self):
        env = SwitchGame()
        key = env.reset(rng(123))
        assert key == 0
        assert np.array_equal(env.state_vector(key), [1.0])
        assert np.array_equal(env.observations(key), np.eye(2))
        assert env.avail_actions(key).all()

    def test_step_reward_and_win_flag(self):
        env = SwitchGame()
        assert env.step(0, (2, 2), rng()) == (0, 1.0, True, True)
        assert env.step(0, (0, 1), rng()) == (0, 0.1, True, False)

    @pytest.mark.parametrize("payoff", [SwitchGameConfig().payoff, ((1.0, 0.5), (0.5, 1.0))],
                             ids=["default", "two-maxima"])
    def test_step_matches_transitions_for_every_joint_action(self, payoff):
        env = SwitchGame(SwitchGameConfig(payoff=payoff))
        for joint in itertools.product(range(len(payoff)), repeat=2):
            [(key, reward, terminal, win, prob)] = env.transitions(0, joint)
            assert prob == 1.0 and terminal
            assert reward == payoff[joint[0]][joint[1]]
            assert env.step(0, joint, rng()) == (key, reward, terminal, win)

    def test_out_of_range_action_rejected(self):
        env = SwitchGame()
        with pytest.raises(EnvError):
            env.step(0, (0, 3), rng())

    def test_default_payoff_has_unique_maximum(self):
        payoff = np.asarray(SwitchGameConfig().payoff)
        assert (payoff == payoff.max()).sum() == 1

    def test_invalid_payoff_rejected(self):
        with pytest.raises(ValueError):
            SwitchGameConfig(payoff=((0.0, 1.0),))
        with pytest.raises(ValueError):
            SwitchGameConfig(payoff=((0.0, float("nan")), (0.0, 0.0)))


class TestCaptureGridReset:
    def test_same_seed_same_placement(self):
        env = CaptureGrid()
        key = env.reset(rng(42))
        assert env.reset(rng(42)) == key
        assert key[2] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_all_placed_cells_distinct(self, seed):
        env = CaptureGrid()
        agents, prey, _ = env.reset(rng(seed))
        cells = list(agents) + [prey]
        assert len(set(cells)) == len(cells)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            CaptureGridConfig(side=2)
        with pytest.raises(ValueError):
            CaptureGridConfig(n_agents=1)
        with pytest.raises(ValueError):
            CaptureGridConfig(view_radius=0)
        with pytest.raises(ValueError):
            CaptureGridConfig(prey="teleport")
        # nine cells hold eight agents and the prey, but not nine agents
        CaptureGridConfig(side=3, n_agents=8)
        with pytest.raises(ValueError, match="distinct cells"):
            CaptureGridConfig(side=3, n_agents=9)


class TestCaptureGridStep:
    @staticmethod
    def _env_with(agents, prey, t=0, **kwargs):
        return CaptureGrid(CaptureGridConfig(**kwargs)), (tuple(agents), prey, t)

    def test_capture_pays_and_wins(self):
        # both agents one step away after moving toward the prey at (1, 1)
        env, key = self._env_with([(0, 0), (2, 2)], (1, 1), side=5)
        # down, up -> (1,0) and (1,2), both adjacent
        _, reward, terminal, win = env.step(key, (2, 1), rng())
        assert reward == 10.0 and win and terminal

    def test_non_capturing_step_pays_penalty(self):
        env, key = self._env_with([(0, 0), (4, 4)], (2, 2), side=5)
        _, reward, terminal, win = env.step(key, (0, 0), rng())
        assert reward == pytest.approx(-0.1)
        assert not win and not terminal

    def test_masked_action_rejected(self):
        env, key = self._env_with([(0, 0), (4, 4)], (2, 2), side=5)
        with pytest.raises(EnvError, match="masked"):
            env.step(key, (1, 0), rng())  # up from row 0 is off-grid

    def test_contested_cell_bounces_both(self):
        env, key = self._env_with([(0, 0), (0, 2)], (4, 4), side=5)
        (agents, _, _), *_ = env.step(key, (4, 3), rng())  # both target (0, 1)
        assert agents == ((0, 0), (0, 2))

    def test_prey_cell_blocks_movement(self):
        env, key = self._env_with([(1, 0), (4, 4)], (1, 1), side=5)
        (agents, _, _), *_ = env.step(key, (4, 0), rng())  # agent 0 tries the prey cell
        assert agents[0] == (1, 0)

    def test_moving_into_currently_occupied_cell_bounces(self):
        env, key = self._env_with([(0, 0), (0, 1)], (4, 4), side=5)
        # agent 0 -> (0,1) occupied; agent 1 -> (0,2) free
        (agents, _, _), *_ = env.step(key, (4, 4), rng())
        assert agents == ((0, 0), (0, 2))

    def test_horizon_terminates_without_win(self):
        env, key = self._env_with([(0, 0), (4, 4)], (2, 2), t=1, side=5, horizon=2)
        (_, _, t), _, terminal, win = env.step(key, (0, 0), rng())
        assert t == 2 and terminal and not win

    def test_walking_prey_stays_in_grid_and_off_agents(self):
        env = CaptureGrid(CaptureGridConfig(prey="walk", side=3))
        generator = rng(7)
        key = env.reset(generator)
        for _ in range(5):
            avail = env.avail_actions(key)
            actions = [int(np.flatnonzero(avail[a])[0]) for a in range(2)]
            key, _, terminal, _ = env.step(key, actions, generator)
            agents, prey, _ = key
            assert 0 <= prey[0] < 3 and 0 <= prey[1] < 3
            assert prey not in agents
            if terminal:
                break

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_transitions_match_step_from_every_initial_state(self, horizon):
        # with a static prey every (state, joint action) has one outcome, which
        # step must play; horizon 1 ends every uncaptured first step, horizon 2
        # none of them
        cfg = CaptureGridConfig(side=3, prey="static", horizon=horizon)
        env = CaptureGrid(cfg)
        checked = 0
        for key, _ in env.initial_states():
            avail = env.avail_actions(key)
            for joint in itertools.product(*(np.flatnonzero(row).tolist() for row in avail)):
                (expected,) = env.transitions(key, joint)
                next_key, reward, terminal, win = env.step(key, joint, rng())
                assert (next_key, reward, terminal, win, 1.0) == expected
                assert next_key[1:] == (key[1], 1)
                assert reward == (cfg.capture_reward if win else cfg.step_penalty)
                assert terminal == (win or horizon == 1)
                checked += 1
        assert checked > len(env.initial_states())

    @pytest.mark.parametrize("env", [
        CaptureGrid(CaptureGridConfig(side=3, horizon=3, prey="walk")),
        SwitchGame(),
    ], ids=["capture-3x3-walk", "switch"])
    def test_outcomes_are_equiprobable_on_every_reachable_key(self, env):
        # step draws an outcome index uniformly, which is exact only when every
        # outcome of transitions is equally likely; the oracle's table holds
        # every available joint action of every reachable key
        pairs = exact_action_values(env, uniform_policy(env)).action_values
        assert len(pairs) > (1000 if isinstance(env, CaptureGrid) else 0)
        for key, joint in pairs:
            outcomes = env.transitions(key, joint)
            assert len({o[0] for o in outcomes}) == len(outcomes)
            assert all(o[4] == 1.0 / len(outcomes) for o in outcomes)

    @pytest.mark.parametrize("config, pairs", [
        (CaptureGridConfig(side=3, horizon=3, prey="walk"), 18_980),
        (CaptureGridConfig(side=3, horizon=3, prey="static"), 18_980),
        # three agents contest and occupy each other's targets
        (CaptureGridConfig(side=3, n_agents=3, horizon=1, prey="walk"), 147_240),
    ], ids=["3x3-walk-h3", "3x3-static-h3", "3x3-3agents-walk-h1"])
    def test_transitions_equal_the_tuple_arithmetic_reference(self, config, pairs):
        # every available joint action of every key reachable from the
        # initial states: the same outcomes in the same order, floats exact
        env = CaptureGrid(config)
        stack = [key for key, _ in env.initial_states()]
        seen = set(stack)
        checked = 0
        while stack:
            key = stack.pop()
            for joint in itertools.product(*(np.flatnonzero(row).tolist()
                                             for row in env.avail_actions(key))):
                expected = reference_transitions(env, key, joint)
                assert env.transitions(key, joint) == expected
                for next_key, _r, terminal, _w, _p in expected:
                    if not terminal and next_key not in seen:
                        seen.add(next_key)
                        stack.append(next_key)
                checked += 1
        assert checked == pairs


class TestFeatureTables:
    # The 5x5 grid has 303 600 keys, too many for the loop in every suite
    # run, so the suite checks every 10th.
    @pytest.mark.parametrize("config, stride", [
        (CaptureGridConfig(side=4), 1),
        (CaptureGridConfig(side=3), 1),
        (CaptureGridConfig(side=5, n_agents=3, view_radius=2), 10),
    ], ids=["4x4", "3x3", "5x5-3agents-radius2"])
    def test_initial_keys_match_the_cell_loop(self, config, stride):
        env = CaptureGrid(config)
        keys = [key for key, _ in env.initial_states()]
        for key in keys[::stride]:
            assert env.observations(key).tobytes() == capture_observations(env, key).tobytes()
            assert env.avail_actions(key).tobytes() == capture_avail_actions(env, key).tobytes()

    def test_step_returns_the_features_of_the_new_state(self):
        env = CaptureGrid(CaptureGridConfig(prey="walk", side=4, horizon=30))
        env_rng, action_rng = rng(5), rng(5)
        key = env.reset(env_rng)
        terminal = False
        while not terminal:
            avail = env.avail_actions(key)
            assert env.observations(key).tobytes() == capture_observations(env, key).tobytes()
            assert avail.tobytes() == capture_avail_actions(env, key).tobytes()
            actions = [int(action_rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            key, _, terminal, _ = env.step(key, actions, env_rng)


class TestTrajectoryDeterminism:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_and_actions_replay_bit_exactly(self, seed):
        def run():
            env = CaptureGrid(CaptureGridConfig(prey="walk", horizon=6))
            env_rng, action_rng = rng(seed), rng(seed + 1)
            key = env.reset(env_rng)
            trace = []
            terminal = False
            while not terminal:
                avail = env.avail_actions(key)
                actions = [int(action_rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
                key, reward, terminal, win = env.step(key, actions, env_rng)
                trace.append((env.state_vector(key).tobytes(), env.observations(key).tobytes(),
                              reward, terminal, win))
            return trace

        assert run() == run()

    @given(st.integers(0, 10_000), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_masks_always_offer_an_action(self, seed, steps):
        env = CaptureGrid()
        env_rng, action_rng = rng(seed), rng(seed)
        key = env.reset(env_rng)
        for _ in range(steps % 5):
            avail = env.avail_actions(key)
            assert (avail.sum(axis=1) >= 1).all()
            actions = [int(action_rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            key, _, terminal, _ = env.step(key, actions, env_rng)
            if terminal:
                break
        assert (env.avail_actions(key).sum(axis=1) >= 1).all()

    def test_rewards_stay_in_configured_range(self):
        cfg = CaptureGridConfig()
        env = CaptureGrid(cfg)
        env_rng, action_rng = rng(3), rng(3)
        key = env.reset(env_rng)
        terminal = False
        while not terminal:
            avail = env.avail_actions(key)
            actions = [int(action_rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            key, reward, terminal, _ = env.step(key, actions, env_rng)
            assert reward in (cfg.step_penalty, cfg.capture_reward)


class TestSpecAndFactory:
    def test_spec_dimensions(self):
        env = CaptureGrid()
        assert env.spec.obs_width == 4 * 9 + 2 + 2
        assert env.spec.state_width == 2 * 3 + 1
        assert env.spec.n_actions == 5

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            EnvSpec(n_agents=0, n_actions=2, state_width=1, obs_width=1, horizon=1)
        with pytest.raises(ValueError):
            EnvSpec(n_agents=1, n_actions=2, state_width=1, obs_width=1, horizon=1, gamma=1.5)

    def test_make_env(self):
        assert isinstance(make_env("switch", {}), SwitchGame)
        assert isinstance(make_env("capture", {"side": 4}), CaptureGrid)
        with pytest.raises(ValueError):
            make_env("chess", {})
