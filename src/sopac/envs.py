"""Desk-scale cooperative multi-agent environments.

Both environments are stateless rule sets. An episode's state is an
enumeration key; ``initial_states`` / ``transitions`` enumerate the dynamics
with their probabilities for the exact value oracle, and the keyed feature
builders (``state_vector`` / ``observations`` / ``avail_actions``) read a key.
``reset(rng)`` draws an initial key and ``step(key, joint_action, rng)``
draws one outcome of ``transitions``, so all randomness flows through the
caller's generator and a (seed, action sequence) pair replays bit-identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class EnvSpec:
    """Sizes of a cooperative partially observable task."""

    n_agents: int
    n_actions: int
    state_width: int
    obs_width: int
    horizon: int
    gamma: float = 0.99

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.n_actions < 2 or self.horizon < 1:
            raise ValueError(f"invalid environment sizes: {self}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"discount must lie in (0, 1], got {self.gamma}")


# (next key, reward, terminal, win) of one step
Step = tuple[object, float, bool, bool]


class EnvError(RuntimeError):
    """Illegal interaction with an environment (a masked or out-of-range action)."""


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and np.isfinite(value)


def _step(env, key, joint_action: Iterable[int], rng: np.random.Generator) -> Step:
    """Both envs' ``step``: check the joint action against
    ``env.avail_actions(key)``, then draw one outcome of ``env.transitions``."""
    u = tuple(int(a) for a in joint_action)
    avail = env.avail_actions(key)
    n, m = avail.shape
    if len(u) != n:
        raise EnvError(f"expected {n} actions, got {len(u)}")
    for agent, action in enumerate(u):
        if not 0 <= action < m or not avail[agent, action]:
            raise EnvError(f"agent {agent} action {action} is masked or out of range")
    outcomes = env.transitions(key, u)
    return outcomes[int(rng.integers(len(outcomes)))][:4]


# ---------------------------------------------------------------------------
# One-shot coordination game


_DEFAULT_PAYOFF = (
    (0.0, 0.1, 0.2),
    (0.1, 0.3, 0.4),
    (0.2, 0.4, 1.0),
)


@dataclass(frozen=True)
class SwitchGameConfig:
    """Two agents pick one action each; the payoff matrix is the reward.

    The default matrix has a single maximal entry and action 2 dominates for
    both agents, so gradient methods find the optimum without deceptive
    equilibria.
    """

    payoff: tuple[tuple[float, ...], ...] = _DEFAULT_PAYOFF

    def __post_init__(self) -> None:
        m = len(self.payoff)
        if m < 2 or any(len(row) != m for row in self.payoff):
            raise ValueError("payoff must be a square matrix with m >= 2")
        if not all(map(_finite_number, itertools.chain(*self.payoff))):
            raise ValueError(f"payoff entries must be finite numbers, got {self.payoff!r}")


class SwitchGame:
    """One simultaneous move, shared reward read from a payoff matrix.

    Each agent observes only its own one-hot id; the global state is the
    constant vector [1.0]. A step wins when it hits the matrix maximum.
    """

    def __init__(self, config: SwitchGameConfig | None = None):
        self.config = config or SwitchGameConfig()
        self.payoff = np.asarray(self.config.payoff, dtype=np.float64)
        m = self.payoff.shape[0]
        self.spec = EnvSpec(
            n_agents=2, n_actions=m, state_width=1, obs_width=2, horizon=1
        )
        self._max = float(self.payoff.max())

    def reset(self, rng: np.random.Generator) -> int:
        del rng  # single deterministic initial state
        return 0

    step = _step

    # enumeration interface -------------------------------------------------

    def initial_states(self) -> list[tuple[int, float]]:
        return [(0, 1.0)]

    def transitions(self, key: int, joint_action: tuple[int, ...]):
        reward = float(self.payoff[joint_action[0], joint_action[1]])
        return [(0, reward, True, reward == self._max, 1.0)]

    def state_vector(self, key: int) -> Array:
        del key
        return np.ones(1, dtype=np.float64)

    def observations(self, key: int) -> Array:
        del key
        return np.eye(2, dtype=np.float64)

    def avail_actions(self, key: int) -> Array:
        del key
        return np.ones((2, self.spec.n_actions), dtype=bool)


# ---------------------------------------------------------------------------
# Multi-step pursuit on a grid


@dataclass(frozen=True)
class CaptureGridConfig:
    """Agents herd a prey on a square grid under a shared reward.

    Agents move simultaneously (stay/up/down/left/right). A move is blocked
    (the agent stays put) when its target cell is the prey cell, is occupied
    by any agent at the start of the step, or is targeted by another agent;
    this makes conflict resolution order-independent. The team wins when
    every agent is orthogonally adjacent to the prey after all moves.
    """

    side: int = 5
    n_agents: int = 2
    prey: str = "static"          # "static" or "walk"
    view_radius: int = 1
    capture_reward: float = 10.0
    step_penalty: float = -0.1
    horizon: int = 20

    def __post_init__(self) -> None:
        for name in ("side", "n_agents", "view_radius", "horizon"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("capture_reward", "step_penalty"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.side < 3:
            raise ValueError("grid side must be >= 3")
        if self.n_agents < 2:
            raise ValueError("need at least 2 agents")
        if self.n_agents + 1 > self.side * self.side:
            raise ValueError(f"a side-{self.side} grid cannot place {self.n_agents} agents "
                             "and the prey on distinct cells")
        if self.view_radius < 1:
            raise ValueError("view radius must be >= 1")
        if self.prey not in ("static", "walk"):
            raise ValueError(f"unknown prey policy {self.prey!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


_MOVES = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))  # stay, up, down, left, right
Cell = tuple[int, int]
GridKey = tuple[tuple[Cell, ...], Cell, int]  # (agent cells, prey cell, t)


class CaptureGrid:
    """Partially observable pursuit task; see :class:`CaptureGridConfig`.

    ``transitions`` reads per-cell tables built once: the five move targets,
    the prey's on-grid moves and the orthogonal neighbours."""

    def __init__(self, config: CaptureGridConfig | None = None):
        self.config = config or CaptureGridConfig()
        c = self.config
        window = (2 * c.view_radius + 1) ** 2
        self.spec = EnvSpec(
            n_agents=c.n_agents,
            n_actions=5,
            state_width=2 * (c.n_agents + 1) + 1,
            obs_width=4 * window + c.n_agents + 2,
            horizon=c.horizon,
        )
        # Row (a * side + row) * side + col of the observation table is agent
        # a's observation at (row, col) with no ally or prey in view: wall and
        # self bits, id one-hot and coordinates. Row row * side + col of the
        # mask table holds the moves from (row, col) that stay on the grid.
        r, n, side = c.view_radius, c.n_agents, c.side
        span, plane = 2 * r + 1, (2 * r + 1) ** 2
        in_view = np.arange(side)[:, None] + np.arange(-r, r + 1)  # (side, span)
        off = (in_view < 0) | (in_view >= side)
        wall = off[:, None, :, None] | off[None, :, None, :]  # (side, side, span, span)
        cells = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1)
        table = np.zeros((n, side, side, self.spec.obs_width))
        table[..., 3 * plane:4 * plane] = wall.reshape(side, side, plane)
        table[..., r * span + r] = 1.0  # self, always at the window's centre
        table[np.arange(n), :, :, 4 * plane + np.arange(n)] = 1.0
        table[..., -2:] = cells / float(side - 1)
        self._obs_table = table.reshape(n * side * side, -1)
        targets = cells[:, :, None] + np.asarray(_MOVES)
        self._avail_table = ((targets >= 0) & (targets < side)).all(axis=-1).reshape(-1, 5)
        self._view_channel = [plane] * n + [2 * plane]  # ally bits, then prey bits
        grid = [(row, col) for row in range(side) for col in range(side)]
        self._target = {cell: tuple((cell[0] + dr, cell[1] + dc) for dr, dc in _MOVES)
                        for cell in grid}
        self._prey_moves = {cell: [t for t in self._target[cell] if t in self._target]
                            for cell in grid}
        self._neighbours = {cell: frozenset(t for t in moves if _adjacent(cell, t))
                            for cell, moves in self._prey_moves.items()}
        penalty = float(c.step_penalty)
        self._win = (float(c.capture_reward), True, True)
        self._no_win = ((penalty, False, False), (penalty, True, False))  # by t >= horizon

    def reset(self, rng: np.random.Generator) -> GridKey:
        """Distinct cells for the agents and then the prey, rejection-sampled."""
        c = self.config
        cells: list[Cell] = []
        while len(cells) < c.n_agents + 1:
            cell = (int(rng.integers(c.side)), int(rng.integers(c.side)))
            if cell not in cells:
                cells.append(cell)
        return (tuple(cells[: c.n_agents]), cells[c.n_agents], 0)

    step = _step

    # movement rules ----------------------------------------------------------

    def _move_agents(self, agents: tuple[Cell, ...], prey: Cell,
                     u: tuple[int, ...]) -> tuple[Cell, ...]:
        targets = [self._target[cell][a] for cell, a in zip(agents, u)]
        out = []
        for cell, target in zip(agents, targets):
            blocked = (target == prey
                       or (target != cell and target in agents)
                       or targets.count(target) > 1)
            out.append(cell if blocked else target)
        return tuple(out)

    def _prey_options(self, prey: Cell, agents: tuple[Cell, ...]) -> list[Cell]:
        return [cell for cell in self._prey_moves[prey] if cell not in agents] or [prey]

    def _outcome(self, agents: tuple[Cell, ...], prey: Cell, t: int) -> tuple[float, bool, bool]:
        """(reward, terminal, win) on arriving at ``(agents, prey)`` at step t:
        the team wins when every agent is adjacent to the prey, and the
        episode also ends at the horizon."""
        if self._neighbours[prey].issuperset(agents):
            return self._win
        return self._no_win[t >= self.config.horizon]

    # enumeration interface ----------------------------------------------------

    def initial_states(self) -> list[tuple[GridKey, float]]:
        side = self.config.side
        n = self.config.n_agents
        cells = [(r, c) for r in range(side) for c in range(side)]
        keys: list[GridKey] = [
            (tuple(combo[:n]), combo[n], 0)
            for combo in itertools.permutations(cells, n + 1)
        ]
        prob = 1.0 / len(keys)
        return [(key, prob) for key in keys]

    def transitions(self, key: GridKey, joint_action: tuple[int, ...]):
        agents, prey, t = key
        moved = self._move_agents(agents, prey, joint_action)
        options = self._prey_options(prey, moved) if self.config.prey == "walk" else [prey]
        prob, t = 1.0 / len(options), t + 1
        return [((moved, cell, t), *self._outcome(moved, cell, t), prob) for cell in options]

    # feature builders ----------------------------------------------------------

    def state_vector(self, key: GridKey | int) -> Array:
        agents, prey, t = key  # type: ignore[misc]
        side = self.config.side
        denom = float(side - 1)
        parts: list[float] = []
        for cell in (*agents, prey):
            parts.extend((cell[0] / denom, cell[1] / denom))
        parts.append(t / float(self.config.horizon))
        return np.asarray(parts, dtype=np.float64)

    def observations(self, key: GridKey | int) -> Array:
        """(n, obs_width): per agent, its (self, ally, prey, wall) window of
        side 2r + 1 flattened channel-major, then its one-hot id and its
        normalised (row, column). Copies the own-cell rows of the static
        table, then sets the ally and prey bits of every entity in view."""
        agents, prey, _ = key  # type: ignore[misc]
        r = self.config.view_radius
        span = 2 * r + 1
        side = self.config.side
        obs = self._obs_table.take(
            [(i * side + ar) * side + ac for i, (ar, ac) in enumerate(agents)], axis=0)
        for a, (ar, ac) in enumerate(agents):
            for j, (er, ec) in enumerate((*agents, prey)):
                dr, dc = er - ar + r, ec - ac + r
                if j != a and 0 <= dr < span and 0 <= dc < span:
                    obs[a, self._view_channel[j] + dr * span + dc] = 1.0
        return obs

    def avail_actions(self, key: GridKey | int) -> Array:
        """(n, 5) booleans: a move is available when it stays on the grid."""
        side = self.config.side
        return self._avail_table.take([ar * side + ac for ar, ac in key[0]], axis=0)  # type: ignore[index]


def _adjacent(a: Cell, b: Cell) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


# Each environment's name, config class and env class.
ENV_CLASSES = {
    "switch": (SwitchGameConfig, SwitchGame),
    "capture": (CaptureGridConfig, CaptureGrid),
}


def make_env_config(name: str, env_config: dict | None = None):
    """Validated configuration of an environment by name (a key of ``ENV_CLASSES``)."""
    if name not in ENV_CLASSES:
        raise ValueError(f"unknown environment {name!r}")
    config_cls = ENV_CLASSES[name][0]
    env_config = dict(env_config or {})
    allowed = [f.name for f in fields(config_cls)]
    unknown = sorted(set(env_config) - set(allowed))
    if unknown:
        raise ValueError(f"unknown env_config keys for {name}: {unknown}; allowed: {allowed}")
    if "payoff" in env_config:
        env_config["payoff"] = tuple(tuple(row) for row in env_config["payoff"])
    return config_cls(**env_config)


def make_env(name: str, env_config: dict | None = None):
    """Construct an environment by name (a key of ``ENV_CLASSES``)."""
    config = make_env_config(name, env_config)  # rejects an unknown name first
    return ENV_CLASSES[name][1](config)
