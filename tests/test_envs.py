import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import capture_avail_actions, capture_observations
from sopac.envs import (
    CaptureGrid,
    CaptureGridConfig,
    EnvError,
    EnvSpec,
    SwitchGame,
    SwitchGameConfig,
    make_env,
)


class TestSwitchGame:
    def test_reset_gives_onehot_observations(self):
        env = SwitchGame()
        state, obs, avail = env.reset(seed=123)
        assert np.array_equal(state, [1.0])
        assert np.array_equal(obs, np.eye(2))
        assert avail.all()

    def test_step_reward_and_win_flag(self):
        env = SwitchGame()
        env.reset(0)
        result = env.step((2, 2))
        assert result.reward == 1.0 and result.terminal and result.win
        env.reset(0)
        result = env.step((0, 1))
        assert result.reward == 0.1 and result.terminal and not result.win

    @pytest.mark.parametrize("payoff", [SwitchGameConfig().payoff, ((1.0, 0.5), (0.5, 1.0))],
                             ids=["default", "two-maxima"])
    def test_step_matches_transitions_for_every_joint_action(self, payoff):
        env = SwitchGame(SwitchGameConfig(payoff=payoff))
        for joint in itertools.product(range(len(payoff)), repeat=2):
            env.reset(0)
            result = env.step(joint)
            [(key, reward, terminal, win, prob)] = env.transitions(0, joint)
            assert (result.reward, result.terminal, result.win, prob) == (
                reward, terminal, win, 1.0)
            assert np.array_equal(result.state, env.state_vector(key))
            assert np.array_equal(result.obs, env.observations(key))
            assert np.array_equal(result.avail, env.avail_actions(key))

    def test_step_after_terminal_rejected(self):
        env = SwitchGame()
        env.reset(0)
        env.step((0, 0))
        with pytest.raises(EnvError):
            env.step((0, 0))

    def test_out_of_range_action_rejected(self):
        env = SwitchGame()
        env.reset(0)
        with pytest.raises(EnvError):
            env.step((0, 3))

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
        s1, o1, a1 = env.reset(seed=42)
        first = (env._agents, env._prey)
        s2, o2, a2 = env.reset(seed=42)
        assert (env._agents, env._prey) == first
        assert np.array_equal(s1, s2) and np.array_equal(o1, o2) and np.array_equal(a1, a2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_all_placed_cells_distinct(self, seed):
        env = CaptureGrid()
        env.reset(seed)
        cells = list(env._agents) + [env._prey]
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


class TestCaptureGridStep:
    def _env_with(self, agents, prey, **kwargs):
        env = CaptureGrid(CaptureGridConfig(**kwargs))
        env.reset(0)
        env._agents = tuple(agents)
        env._prey = prey
        env._avail = env.avail_actions(env._key())  # step checks the stored mask
        return env

    def test_capture_pays_and_wins(self):
        # both agents one step away after moving toward the prey at (1, 1)
        env = self._env_with([(0, 0), (2, 2)], (1, 1), side=5)
        result = env.step((2, 1))  # down, up -> (1,0) and (1,2), both adjacent
        assert result.reward == 10.0 and result.win and result.terminal

    def test_non_capturing_step_pays_penalty(self):
        env = self._env_with([(0, 0), (4, 4)], (2, 2), side=5)
        result = env.step((0, 0))
        assert result.reward == pytest.approx(-0.1)
        assert not result.win and not result.terminal

    def test_masked_action_rejected(self):
        env = self._env_with([(0, 0), (4, 4)], (2, 2), side=5)
        with pytest.raises(EnvError, match="masked"):
            env.step((1, 0))  # up from row 0 is off-grid

    def test_contested_cell_bounces_both(self):
        env = self._env_with([(0, 0), (0, 2)], (4, 4), side=5)
        result = env.step((4, 3))  # right and left both target (0, 1)
        del result
        assert env._agents == ((0, 0), (0, 2))

    def test_prey_cell_blocks_movement(self):
        env = self._env_with([(1, 0), (4, 4)], (1, 1), side=5)
        env.step((4, 0))  # agent 0 tries to enter the prey cell
        assert env._agents[0] == (1, 0)

    def test_moving_into_currently_occupied_cell_bounces(self):
        env = self._env_with([(0, 0), (0, 1)], (4, 4), side=5)
        env.step((4, 4))  # agent 0 -> (0,1) occupied; agent 1 -> (0,2) free
        assert env._agents == ((0, 0), (0, 2))

    def test_horizon_terminates_without_win(self):
        env = self._env_with([(0, 0), (4, 4)], (2, 2), side=5, horizon=2)
        env._t = 1
        result = env.step((0, 0))
        assert result.terminal and not result.win

    def test_walking_prey_stays_in_grid_and_off_agents(self):
        env = CaptureGrid(CaptureGridConfig(prey="walk", side=3))
        env.reset(7)
        for _ in range(5):
            avail = env.avail_actions(env._key())
            actions = [int(np.flatnonzero(avail[a])[0]) for a in range(2)]
            result = env.step(actions)
            assert 0 <= env._prey[0] < 3 and 0 <= env._prey[1] < 3
            assert env._prey not in env._agents
            if result.terminal:
                break

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_transitions_match_step_from_every_initial_state(self, horizon):
        # with a static prey every (state, joint action) has one outcome, which
        # the enumeration must give exactly as the stateful step plays it;
        # horizon 1 ends every uncaptured first step, horizon 2 none of them
        env = CaptureGrid(CaptureGridConfig(side=3, prey="static", horizon=horizon))
        env.reset(0)
        checked = 0
        for key, _ in env.initial_states():
            avail = env.avail_actions(key)
            for joint in itertools.product(*(np.flatnonzero(row).tolist() for row in avail)):
                (expected,) = env.transitions(key, joint)
                env._agents, env._prey, env._t, env._terminal = key[0], key[1], key[2], False
                env._avail = avail
                result = env.step(joint)
                assert (env._key(), result.reward, result.terminal, result.win, 1.0) == expected
                checked += 1
        assert checked > len(env.initial_states())


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
        _, obs, avail = env.reset(5)
        rng = np.random.default_rng(5)
        terminal = False
        while not terminal:
            key = env._key()
            assert obs.tobytes() == capture_observations(env, key).tobytes()
            assert avail.tobytes() == capture_avail_actions(env, key).tobytes()
            actions = [int(rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            result = env.step(actions)
            obs, avail, terminal = result.obs, result.avail, result.terminal


class TestTrajectoryDeterminism:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_and_actions_replay_bit_exactly(self, seed):
        def run():
            env = CaptureGrid(CaptureGridConfig(prey="walk", horizon=6))
            env.reset(seed)
            rng = np.random.default_rng(seed + 1)
            trace = []
            terminal = False
            while not terminal:
                avail = env.avail_actions(env._key())
                actions = [int(rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
                result = env.step(actions)
                trace.append((result.state.tobytes(), result.obs.tobytes(),
                              result.reward, result.terminal, result.win))
                terminal = result.terminal
            return trace

        assert run() == run()

    @given(st.integers(0, 10_000), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_masks_always_offer_an_action(self, seed, steps):
        env = CaptureGrid()
        _, _, avail = env.reset(seed)
        rng = np.random.default_rng(seed)
        for _ in range(steps % 5):
            assert (avail.sum(axis=1) >= 1).all()
            actions = [int(rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            result = env.step(actions)
            avail = result.avail
            if result.terminal:
                break
        assert (avail.sum(axis=1) >= 1).all()

    def test_rewards_stay_in_configured_range(self):
        cfg = CaptureGridConfig()
        env = CaptureGrid(cfg)
        env.reset(3)
        rng = np.random.default_rng(3)
        terminal = False
        while not terminal:
            avail = env.avail_actions(env._key())
            actions = [int(rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
            result = env.step(actions)
            assert result.reward in (cfg.step_penalty, cfg.capture_reward)
            terminal = result.terminal


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
