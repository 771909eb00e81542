"""Shared-parameter recurrent actor with epsilon-floor exploration.

All agents run the same network: a linear layer with ReLU, a GRU cell, and a
linear output head. Per-agent behaviour differs only through the inputs,
which concatenate the local observation, the agent's previous action as a
one-hot, and the agent's one-hot id; ``actor_inputs`` is the one encoder of
those rows, for a single step of the rollout and for a padded batch alike.
The rollout only acts, through ``actor_cell``: plain-array kernels, no tape.
Only the replay needs gradients: recorded histories are replayed by
``learn.unroll_policy`` alone, through ``actor_unroll``, which runs all T
steps as one hoisted pass with the values of T chained ``actor_cell`` calls.

The acting distribution masks unavailable actions, softmaxes the remaining
logits, and mixes in a uniform floor: pi = (1 - eps) * softmax + eps / k over
the k available actions. Masked actions keep probability exactly zero.

``type_problems`` and ``failures`` are the field checks that this module's
``EpsilonSchedule``, ``learn.LearnConfig`` and ``harness.RunConfig`` share.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor

Array = np.ndarray


class MaskError(ValueError):
    """No action is available under the supplied mask."""


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def type_problems(cfg, counts=(), flags=(), reals=()) -> list[str]:
    """One message per named field of ``cfg`` that is not a positive integer,
    a bool or a real number (never a bool or a string), in that order."""
    kinds = ((counts, "a positive integer", lambda v: is_int(v) and v >= 1),
             (flags, "true or false", lambda v: isinstance(v, bool)),
             (reals, "a real number", is_real))
    return [f"{name} must be {kind}, got {getattr(cfg, name)!r}"
            for names, kind, ok in kinds for name in names if not ok(getattr(cfg, name))]


def failures(build, *args) -> list[str]:
    """The message of the ValueError or TypeError ``build(*args)`` raises, if any."""
    try:
        build(*args)
    except (TypeError, ValueError) as exc:
        return [str(exc)]
    return []


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 0.5
    end: float = 0.01
    anneal_steps: int = 100_000

    def __post_init__(self) -> None:
        if not (is_real(self.start) and is_real(self.end) and is_int(self.anneal_steps)):
            raise ValueError(f"need real start and end and an integer anneal_steps, got {self}")
        if not 1.0 >= self.start >= self.end >= 0.0:
            raise ValueError(f"need 1 >= start >= end >= 0, got {self}")
        if self.anneal_steps < 1:
            raise ValueError("anneal_steps must be positive")


def epsilon_at(t: int, schedule: EpsilonSchedule) -> float:
    """Linear interpolation from start to end, clamped after anneal_steps."""
    if t < 0:
        raise ValueError("time step must be nonnegative")
    frac = min(t / schedule.anneal_steps, 1.0)
    return schedule.start + (schedule.end - schedule.start) * frac


@dataclass(frozen=True)
class ActorConfig:
    obs_width: int
    n_agents: int
    n_actions: int
    gru_hidden: int = 64

    @property
    def input_width(self) -> int:
        return self.obs_width + self.n_actions + self.n_agents


def actor_init(rng: np.random.Generator, cfg: ActorConfig) -> ParamSet:
    fc1 = ad.mlp_init(rng, (cfg.input_width, cfg.gru_hidden), prefix="fc1.")
    gru = ad.gru_init(rng, cfg.gru_hidden, cfg.gru_hidden)
    fc2 = ad.mlp_init(rng, (cfg.gru_hidden, cfg.n_actions), prefix="fc2.")
    return ad.merge(fc1, gru, fc2)


def actor_inputs(cfg: ActorConfig, obs: Array, prev_actions: Array) -> Array:
    """Actor input rows [observation, previous-action one-hot, agent-id one-hot].

    ``obs`` is (..., n, obs_width) and ``prev_actions`` (..., n) action
    indices, where -1 (no previous action) encodes as the all-zero one-hot.
    Agent a's id is its position along the n axis. Returns
    (..., n, input_width).
    """
    obs = np.asarray(obs, dtype=np.float64)
    prev = np.asarray(prev_actions)[..., None] == np.arange(cfg.n_actions)
    ids = np.zeros((*obs.shape[:-1], cfg.n_agents))
    ids[..., range(cfg.n_agents), range(cfg.n_agents)] = 1.0
    return np.concatenate([obs, prev, ids], axis=-1)


def actor_cell(params: ParamSet, x: Array, h: Array) -> tuple[Array, Array]:
    """One recurrent step, forward only: (logits, next hidden) for stacked rows,
    on plain arrays through the kernels of ``actor_unroll``'s nodes."""
    z = np.maximum(ad._rowwise(x, params["fc1.w0"].data) + params["fc1.b0"].data, 0.0)
    w, u, b = ([p.data for p in group] for group in ad._gru_gates(params))
    h_next = ad._gru_cell([ad._rowwise(z, wg) for wg in w], h, u, b)[-1]
    return ad._rowwise(h_next, params["fc2.w0"].data) + params["fc2.b0"].data, h_next


def actor_unroll(params: ParamSet, x, steps: int) -> Tensor:
    """The logits of ``steps`` chained ``actor_cell`` calls from a zero hidden
    state, bit for bit, as one hoisted pass over the time-major rows of every
    step. A per-step tape adds fc1's weight terms last step first, behind the
    recursion, and fc2's first step first."""
    z = ad.relu(ad.linear(x, params["fc1.w0"], params["fc1.b0"], steps, last_first=True))
    h = ad.gru_unroll(params, z, steps)
    return ad.linear(h, params["fc2.w0"], params["fc2.b0"], steps)


def masked_epsilon_probs(logits, avail: Array, epsilon) -> Tensor:
    """Mix the masked softmax with a uniform floor over available actions.

    ``logits`` is (k, m); ``avail`` is a (k, m) 0/1 array; ``epsilon`` is a
    scalar or (k, 1) array. Unavailable actions come out exactly zero.
    Recorded as one autodiff node.
    """
    avail = np.asarray(avail, dtype=np.float64)
    counts = avail.sum(axis=-1, keepdims=True)
    if (counts < 1.0).any():
        raise MaskError("a row masks out every action")
    ld = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    # Stop-gradient shift; softmax is invariant to it, so gradients are exact.
    shift = np.max(np.where(avail > 0.0, ld, -np.inf), axis=-1, keepdims=True)
    ex = np.exp((ld - shift) * avail)
    e = ex * avail
    total = e.sum(axis=-1, keepdims=True)
    soft = e / total
    eps = np.asarray(epsilon, dtype=np.float64)
    keep = 1.0 - eps
    out = soft * keep + (eps / counts) * avail

    def backward(g: Array) -> None:
        g_soft = g * keep
        g_e = g_soft / total + (-g_soft * e / (total * total)).sum(axis=-1, keepdims=True)
        ad.accumulate(logits, ((g_e * avail) * ex) * avail)

    return ad.record(out, (logits,), backward)


_P_ATOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)


def select_actions(dist: Array, mode: str, rngs=None) -> Array:
    """(L, n) int64 actions for the (L, n, m) acting distributions of L episodes:
    each row's argmax (ties to the lowest index), or a sample by numpy's
    ``Generator.choice`` rule with p = row / row.sum(), episode i drawing
    ``rngs[i].random(n)``, so each generator draws and picks as n single-row
    calls would. Like them, it rejects NaN, p outside [0, 1] and sums off 1."""
    if mode == "greedy":
        return dist.argmax(axis=-1)
    if mode != "sample":
        raise ValueError(f"unknown selection mode {mode!r}")
    p = dist / dist.sum(axis=-1, keepdims=True)
    if not ((p >= 0.0) & (p <= 1.0)).all() or (abs(p.sum(axis=-1) - 1.0) > _P_ATOL).any():
        raise ValueError("probabilities must lie in [0, 1] and sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    u = np.array([rng.random(dist.shape[1]) for rng in rngs])
    return (cdf <= u[..., None]).sum(axis=-1)
