"""Exact dynamic-programming value oracle for small enumerable instances.

Given a fixed joint policy, ``exact_action_values`` computes Q(s, u) at every
state reachable under any joint action, for every available joint action,
together with V(s) and the value of the initial distribution, as full
expectations over policy randomness and transition randomness. One memoised
recursion over the environment's enumeration interface evaluates each Q and
V entry once and calls ``transitions`` once per (state, joint action).
Instances whose expansion exceeds the path budget are rejected rather than
silently truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# policy(key, avail) -> (n_agents, n_actions) array of per-agent probabilities
Policy = Callable[[object, Array], Array]


class InstanceTooLarge(ValueError):
    """Enumeration would exceed the configured path budget."""


@dataclass
class ValueTable:
    """Exact values keyed by enumeration state (and joint action for Q)."""

    state_values: dict     # key -> V(key)
    action_values: dict    # (key, joint action) -> Q(key, joint action)
    initial_value: float   # V averaged over the initial distribution


def uniform_policy(env) -> Policy:
    def policy(key, avail: Array) -> Array:
        probs = avail.astype(np.float64)
        return probs / probs.sum(axis=-1, keepdims=True)

    return policy


class _Enumerator:
    """Memoised V/Q recursion; each outcome of a pair spends one expansion."""

    def __init__(self, env, policy: Policy, max_paths: int):
        self.env = env
        self.policy = policy
        self.gamma = env.spec.gamma
        self.max_paths = max_paths
        self.expansions = 0
        self.v_memo: dict = {}
        self.q_memo: dict = {}

    def _spend(self, count: int) -> None:
        self.expansions += count
        if self.expansions > self.max_paths:
            raise InstanceTooLarge(
                f"enumeration exceeded {self.max_paths} expansions; "
                "reduce the instance size"
            )

    def q_value(self, key, joint: tuple[int, ...]) -> float:
        # called once per pair, from the memoised state_value of its key
        outcomes = self.env.transitions(key, joint)
        self._spend(len(outcomes))
        v_memo, total = self.v_memo, 0.0
        for next_key, reward, terminal, _win, prob in outcomes:
            if terminal:
                future = 0.0
            elif next_key in v_memo:
                future = v_memo[next_key]
            else:
                future = self.state_value(next_key)
            total += prob * (reward + self.gamma * future)
        self.q_memo[(key, joint)] = total
        return total

    def state_value(self, key) -> float:
        if key in self.v_memo:
            return self.v_memo[key]
        avail = self.env.avail_actions(key)
        probs = self.policy(key, avail)
        total = 0.0
        for joint in itertools.product(*[np.flatnonzero(avail[a]) for a in range(avail.shape[0])]):
            # Q is tabled at every available joint action, V sums the played ones
            q = self.q_value(key, tuple(int(a) for a in joint))
            weight = 1.0
            for agent, action in enumerate(joint):
                weight *= probs[agent, action]
            if weight != 0.0:
                total += weight * q
        self.v_memo[key] = total
        return total


def exact_action_values(env, policy: Policy, *, max_paths: int = 10_000_000) -> ValueTable:
    """Exact Q(s, u) at every state reachable under any joint action, for every
    available joint action, with V at the same states and the value of the
    initial distribution; each pair's ``transitions`` are enumerated once."""
    enum = _Enumerator(env, policy, max_paths)
    initial = sum(prob * enum.state_value(key) for key, prob in env.initial_states())
    return ValueTable(enum.v_memo, enum.q_memo, initial)
