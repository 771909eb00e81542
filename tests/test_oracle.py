import itertools

import numpy as np
import pytest

from sopac.envs import CaptureGrid, CaptureGridConfig, SwitchGame, SwitchGameConfig
from sopac.oracle import (
    InstanceTooLarge,
    exact_action_values,
    uniform_policy,
)

GAMMA = 0.99


def fixed_joint_policy(joint_action):
    """The policy that always plays ``joint_action``."""
    joint = tuple(int(a) for a in joint_action)

    def policy(key, avail):
        probs = np.zeros_like(avail, dtype=np.float64)
        for agent, action in enumerate(joint):
            probs[agent, action] = 1.0
        return probs

    return policy


class TestSwitchOracle:
    def test_uniform_policy_value_is_mean_payoff(self):
        env = SwitchGame(SwitchGameConfig(payoff=((0.0, 1.0), (1.0, 0.0))))
        table = exact_action_values(env, uniform_policy(env))
        assert table.initial_value == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_policy_value_is_its_payoff(self):
        env = SwitchGame()
        payoff = np.asarray(env.config.payoff)
        for joint in itertools.product(range(3), repeat=2):
            table = exact_action_values(env, fixed_joint_policy(joint))
            assert table.initial_value == pytest.approx(payoff[joint], abs=1e-15)

    def test_action_values_equal_payoff_entries(self):
        env = SwitchGame()
        table = exact_action_values(env, uniform_policy(env))
        payoff = np.asarray(env.config.payoff)
        for joint in itertools.product(range(3), repeat=2):
            assert table.action_values[(0, joint)] == pytest.approx(payoff[joint], abs=1e-15)

    def test_law_of_total_expectation(self):
        env = SwitchGame()
        table = exact_action_values(env, uniform_policy(env))
        mean_q = np.mean([table.action_values[(0, j)]
                          for j in itertools.product(range(3), repeat=2)])
        assert abs(mean_q - table.initial_value) < 1e-12


def small_grid():
    return CaptureGrid(CaptureGridConfig(side=3, horizon=2, prey="static"))


class TestCaptureOracle:
    def test_bellman_consistency_everywhere(self):
        env = small_grid()
        table = exact_action_values(env, uniform_policy(env))
        for (key, joint), q in table.action_values.items():
            expected = 0.0
            for next_key, reward, terminal, _win, prob in env.transitions(key, joint):
                future = 0.0 if terminal else table.state_values[next_key]
                expected += prob * (reward + GAMMA * future)
            assert abs(expected - q) < 1e-12

    def test_state_value_is_policy_mixture_of_action_values(self):
        env = small_grid()
        policy = uniform_policy(env)
        table = exact_action_values(env, policy)
        for key, value in list(table.state_values.items())[:200]:
            avail = env.avail_actions(key)
            probs = policy(key, avail)
            mix = 0.0
            for joint in itertools.product(*[np.flatnonzero(avail[a]) for a in range(2)]):
                w = probs[0, joint[0]] * probs[1, joint[1]]
                mix += w * table.action_values[(key, tuple(int(a) for a in joint))]
            assert abs(mix - value) < 1e-12

    def test_transitions_enumerated_once_per_action_value(self, monkeypatch):
        env = small_grid()
        calls = []
        transitions = env.transitions

        def counting(key, joint):
            calls.append((key, joint))
            return transitions(key, joint)

        monkeypatch.setattr(env, "transitions", counting)
        table = exact_action_values(env, uniform_policy(env))
        assert len(calls) == len(table.action_values)
        assert set(calls) == set(table.action_values)

    def test_oversized_instance_rejected_with_report(self):
        env = small_grid()
        with pytest.raises(InstanceTooLarge, match="expansions"):
            exact_action_values(env, uniform_policy(env), max_paths=1000)

    def test_path_budget_counts_every_outcome_of_every_pair(self):
        # the benchmark's walking-prey grid expands 55 796 outcomes in all
        env = CaptureGrid(CaptureGridConfig(side=3, horizon=3, prey="walk"))
        with pytest.raises(InstanceTooLarge):
            exact_action_values(env, uniform_policy(env), max_paths=55_795)
        table = exact_action_values(env, uniform_policy(env), max_paths=55_796)
        assert sum(len(env.transitions(*pair)) for pair in table.action_values) == 55_796


def reachable_pairs(env):
    """Every (key, available joint action) reachable from the initial states
    under any sequence of available joint actions."""
    pairs, seen = set(), set()
    stack = [key for key, _ in env.initial_states()]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        avail = env.avail_actions(key)
        for joint in itertools.product(*[np.flatnonzero(avail[a]) for a in range(avail.shape[0])]):
            joint = tuple(int(a) for a in joint)
            pairs.add((key, joint))
            stack.extend(next_key for next_key, _r, terminal, _w, _p
                         in env.transitions(key, joint) if not terminal)
    return pairs


class TestTableContract:
    """Q is tabled at every reachable pair, including the joint actions the
    policy never plays, and V at every state those pairs reach."""

    @pytest.mark.parametrize("make_env", [small_grid, SwitchGame], ids=["capture", "switch"])
    def test_zero_weight_actions_are_tabled(self, make_env):
        env = make_env()
        table = exact_action_values(env, fixed_joint_policy((0, 0)))
        pairs = reachable_pairs(env)
        assert set(table.action_values) == pairs
        assert set(table.state_values) == {key for key, _ in pairs}
        for (key, joint), q in table.action_values.items():
            expected = 0.0
            for next_key, reward, terminal, _win, prob in env.transitions(key, joint):
                future = 0.0 if terminal else table.state_values[next_key]
                expected += prob * (reward + env.spec.gamma * future)
            assert abs(expected - q) < 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo oracles: the movement rules re-encoded independently (vectorised)
# and the stateful env.step interface, both against the enumeration.


MOVES = np.array([(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)])


def mc_uniform_returns(n_episodes: int, seed: int, side: int = 3, horizon: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = n_episodes

    # uniform distinct placement of agent0, agent1, prey on the grid
    cells = np.empty((0, 3), dtype=np.int64)
    while cells.shape[0] < n:
        draw = rng.integers(side * side, size=(n, 3))
        ok = (draw[:, 0] != draw[:, 1]) & (draw[:, 0] != draw[:, 2]) & (draw[:, 1] != draw[:, 2])
        cells = np.concatenate([cells, draw[ok]])[:n]
    pos = np.stack([np.stack([cells[:, i] // side, cells[:, i] % side], axis=1)
                    for i in range(2)], axis=1)          # (n, 2 agents, 2)
    prey = np.stack([cells[:, 2] // side, cells[:, 2] % side], axis=1)

    returns = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for t in range(horizon):
        # sample a uniformly random available move per agent
        actions = np.zeros((n, 2), dtype=np.int64)
        for a in range(2):
            target = pos[:, a, None, :] + MOVES[None, :, :]
            avail = ((target >= 0) & (target < side)).all(axis=2)
            u = rng.random(n)
            cum = np.cumsum(avail, axis=1)
            pick = (u[:, None] * cum[:, -1:]) < cum
            actions[:, a] = np.argmax(pick, axis=1)
        targets = pos + MOVES[actions]
        blocked = np.zeros((n, 2), dtype=bool)
        for a in range(2):
            other = 1 - a
            moving = (targets[:, a] != pos[:, a]).any(axis=1)
            blocked[:, a] = (
                (targets[:, a] == prey).all(axis=1)
                | (moving & (targets[:, a] == pos[:, other]).all(axis=1))
                | (targets[:, a] == targets[:, other]).all(axis=1)
            )
        new_pos = np.where(blocked[:, :, None], pos, targets)
        captured = np.ones(n, dtype=bool)
        for a in range(2):
            captured &= np.abs(new_pos[:, a] - prey).sum(axis=1) == 1
        reward = np.where(captured, 10.0, -0.1)
        returns += alive * (GAMMA ** t) * reward
        alive &= ~captured
        pos = new_pos
    return returns


class TestMonteCarloAgreement:
    def test_exact_value_matches_vectorised_million_rollout_estimate(self):
        env = small_grid()
        exact = exact_action_values(env, uniform_policy(env)).initial_value
        returns = mc_uniform_returns(1_000_000, seed=2024)
        se = returns.std(ddof=1) / np.sqrt(returns.size)
        assert abs(returns.mean() - exact) < 3.0 * se

    def test_exact_value_matches_env_step_estimate(self):
        env = small_grid()
        exact = exact_action_values(env, uniform_policy(env)).initial_value
        rng = np.random.default_rng(77)
        returns = []
        for episode in range(20_000):
            env_rng = np.random.default_rng(int(rng.integers(2**31)))
            key = env.reset(env_rng)
            total, discount, terminal = 0.0, 1.0, False
            while not terminal:
                avail = env.avail_actions(key)
                actions = [int(rng.choice(np.flatnonzero(avail[a]))) for a in range(2)]
                key, reward, terminal, _ = env.step(key, actions, env_rng)
                total += discount * reward
                discount *= GAMMA
            returns.append(total)
        returns = np.asarray(returns)
        se = returns.std(ddof=1) / np.sqrt(returns.size)
        assert abs(returns.mean() - exact) < 3.5 * se
