"""Centralised critics: state-value, per-agent counterfactual, and consistent.

Three critic families share the same MLP trunk (two hidden layers, ReLU) and
differ in input layout and head width:

* ``centralv``: input [state], one output -- V(s).
* ``coma``: per-agent input [state, own obs, previous joint action one-hots,
  current joint action with the agent's own block zeroed, agent id one-hot],
  m outputs -- the agent's counterfactual Q row. Two agents evaluating the
  same joint action generally disagree, because their inputs differ.
* ``coma-cc``: input [state, all observations, previous joint action,
  current joint action], one output -- Q(s, u). Identical joint actions give
  bit-identical estimates no matter which agent asks, and the full n x m
  counterfactual table is evaluated in one stacked forward pass.

Field order inside each layout is fixed and part of the tested contract; it
is written down only in the three layout constructors. ``encode`` packs
every critic input, single or batched, by field name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, ShapeError, Tensor

Array = np.ndarray

@dataclass(frozen=True)
class CriticInputLayout:
    """Ordered (field name, width) pairs describing one critic input vector."""

    kind: str
    fields: tuple[tuple[str, int], ...]

    @property
    def width(self) -> int:
        return sum(w for _, w in self.fields)

    def slices(self) -> dict[str, slice]:
        out: dict[str, slice] = {}
        offset = 0
        for name, width in self.fields:
            out[name] = slice(offset, offset + width)
            offset += width
        return out

    def pack(self, **parts: Array) -> Array:
        """Concatenate the fields in layout order along the last axis.

        Parts may carry leading dimensions; these broadcast against each
        other, so a per-step field can be shared by per-agent rows.
        """
        if set(parts) != {name for name, _ in self.fields}:
            raise ShapeError(
                f"{self.kind} layout expects fields "
                f"{[name for name, _ in self.fields]}, got {sorted(parts)}"
            )
        pieces = []
        for name, width in self.fields:
            arr = np.asarray(parts[name], dtype=np.float64)
            if arr.shape[-1:] != (width,):
                raise ShapeError(f"field {name!r} has shape {arr.shape}, expected width {width}")
            pieces.append(arr)
        out = np.empty((*np.broadcast_shapes(*(p.shape[:-1] for p in pieces)), self.width))
        for sl, arr in zip(self.slices().values(), pieces):
            out[..., sl] = arr
        return out


def centralv_layout(state_width: int) -> CriticInputLayout:
    return CriticInputLayout("centralv", (("state", state_width),))


def coma_layout(state_width: int, obs_width: int, n: int, m: int) -> CriticInputLayout:
    return CriticInputLayout(
        "coma",
        (
            ("state", state_width),
            ("obs", obs_width),
            ("prev_joint", n * m),
            ("joint_others", n * m),
            ("agent_id", n),
        ),
    )


def comacc_layout(state_width: int, obs_width: int, n: int, m: int) -> CriticInputLayout:
    return CriticInputLayout(
        "coma-cc",
        (
            ("state", state_width),
            ("all_obs", n * obs_width),
            ("prev_joint", n * m),
            ("joint", n * m),
        ),
    )


def layout_for(algo: str, state_width: int, obs_width: int, n: int, m: int) -> CriticInputLayout:
    if algo == "centralv":
        return centralv_layout(state_width)
    if algo == "coma":
        return coma_layout(state_width, obs_width, n, m)
    if algo == "coma-cc":
        return comacc_layout(state_width, obs_width, n, m)
    raise ValueError(f"unknown algorithm {algo!r}")


def critic_init(
    rng: np.random.Generator,
    in_width: int,
    out_width: int,
    hidden: Sequence[int] = (128, 128),
) -> ParamSet:
    return ad.mlp_init(rng, (in_width, *hidden, out_width))


def critic_forward(params: ParamSet, inputs) -> Tensor:
    return ad.mlp_forward(params, inputs)


# ---------------------------------------------------------------------------
# Action encodings


def joint_one_hot(actions, m: int) -> Array:
    """Concatenated per-agent one-hots; supports leading batch dimensions.

    An action of -1 (no previous action) encodes as an all-zero block.
    """
    actions = np.asarray(actions, dtype=np.int64)
    one_hot = (actions[..., None] == np.arange(m)).astype(np.float64)
    return one_hot.reshape(*actions.shape[:-1], actions.shape[-1] * m)


def mask_own_block(joint_oh: Array, agent: int, m: int) -> Array:
    """Zero agent's own one-hot block inside a joint encoding."""
    out = np.array(joint_oh, dtype=np.float64, copy=True)
    out[..., agent * m : (agent + 1) * m] = 0.0
    return out


# ---------------------------------------------------------------------------
# Input encoding


def encode(layout: CriticInputLayout, state: Array, obs: Array,
           prev_actions: Array, actions: Array) -> Array:
    """Critic inputs for any shared leading shape ``...``.

    ``state`` is (..., state_width), ``obs`` (..., n, obs_width), and
    ``prev_actions`` / ``actions`` are (..., n) action indices; a previous
    action of -1 (the first step) encodes as the all-zero block. Returns
    (..., W), or (..., n, W) for ``coma``, whose row a is agent a's input.
    """
    state = np.asarray(state, dtype=np.float64)
    if layout.kind == "centralv":
        return layout.pack(state=state)
    obs = np.asarray(obs, dtype=np.float64)
    n = obs.shape[-2]
    m = dict(layout.fields)["prev_joint"] // n
    prev = joint_one_hot(prev_actions, m)
    joint = joint_one_hot(actions, m)
    if layout.kind == "coma-cc":
        return layout.pack(state=state, all_obs=obs.reshape(*obs.shape[:-2], -1),
                           prev_joint=prev, joint=joint)
    others = np.stack([mask_own_block(joint, a, m) for a in range(n)], axis=-2)
    return layout.pack(state=state[..., None, :], obs=obs,
                       prev_joint=prev[..., None, :], joint_others=others,
                       agent_id=np.eye(n))


def counterfactual_inputs(layout: CriticInputLayout, inputs: Array, m: int) -> Array:
    """(..., n, m, W) copies of packed ``coma-cc`` inputs (..., W) in which
    row (a, u) replaces agent a's block of the current joint action by u."""
    joint = layout.slices()["joint"]
    n = (joint.stop - joint.start) // m
    out = np.broadcast_to(inputs[..., None, None, :], (*inputs.shape[:-1], n, m, layout.width)).copy()
    for a in range(n):
        start = joint.start + a * m
        out[..., a, :, start:start + m] = np.eye(m)
    return out


def _single_input(algo: str, state: Array, obs: Array, prev_joint: Array | None,
                  joint_action: Sequence[int], m: int) -> tuple[CriticInputLayout, Array]:
    """Layout and encoded input of one step; ``obs`` flattens to (n, obs_width)."""
    actions = np.asarray(joint_action, dtype=np.int64)
    n = actions.shape[0]
    obs = np.asarray(obs, dtype=np.float64).reshape(n, -1)
    prev = np.full(n, -1) if prev_joint is None else prev_joint
    layout = layout_for(algo, np.asarray(state).size, obs.shape[-1], n, m)
    return layout, encode(layout, state, obs, prev, actions)


# ---------------------------------------------------------------------------
# Evaluation entry points


def v_value(params: ParamSet, state: Array) -> float:
    """Scalar state value from the centralised V critic."""
    state = np.asarray(state, dtype=np.float64)
    out = _forward_single(params, centralv_layout(state.size).pack(state=state))
    return float(out[0])


def coma_counterfactual_qs(
    params: ParamSet,
    state: Array,
    obs_a: Array,
    prev_joint: Array | None,
    joint_action: Sequence[int],
    agent: int,
    m: int,
) -> Array:
    """Agent's counterfactual Q row: one forward pass, m outputs.

    ``prev_joint`` is the previous joint action as indices, or None at the
    first step (encoded as the all-zeros block). The agent's own block in the
    current joint action is zeroed before it enters the network.
    """
    # Every agent's row gets obs_a; only row ``agent`` is forwarded.
    obs = np.tile(np.ravel(obs_a), (len(joint_action), 1))
    _, rows = _single_input("coma", state, obs, prev_joint, joint_action, m)
    return _forward_single(params, rows[agent])


def comacc_q(
    params: ParamSet,
    state: Array,
    all_obs: Array,
    prev_joint: Array | None,
    joint_action: Sequence[int],
    m: int,
) -> float:
    """Consistent joint-action value: a pure function of the shared inputs."""
    _, vec = _single_input("coma-cc", state, all_obs, prev_joint, joint_action, m)
    return float(_forward_single(params, vec)[0])


@dataclass
class CounterfactualQTable:
    """n x m counterfactual values; row a varies agent a's action."""

    values: Array               # (n_agents, n_actions)
    taken: Array                # (n_agents,) action indices

    def taken_values(self) -> Array:
        return self.values[np.arange(self.values.shape[0]), self.taken]


def comacc_counterfactual_table(
    params: ParamSet,
    state: Array,
    all_obs: Array,
    prev_joint: Array | None,
    joint_action: Sequence[int],
    m: int,
) -> CounterfactualQTable:
    """All n*m counterfactual joint-action values in a single forward pass.

    Row a, column u holds Q(s, (u_t with agent a's action replaced by u)).
    Because the batched matmul is row-exact, every entry is bit-identical to
    a separate ``comacc_q`` call on the same counterfactual action.
    """
    actions = np.asarray(joint_action, dtype=np.int64)
    n = actions.shape[0]
    layout, vec = _single_input("coma-cc", state, all_obs, prev_joint, actions, m)
    rows = counterfactual_inputs(layout, vec, m).reshape(n * m, layout.width)
    with ad.no_grad():
        out = critic_forward(params, rows).data[:, 0]
    return CounterfactualQTable(values=out.reshape(n, m), taken=actions.copy())


def count_critic_inputs(kind: str, n: int, m: int) -> int:
    """Network inputs needed for one full counterfactual baseline computation."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    if kind == "coma":
        return n
    if kind == "coma-cc":
        return n * m
    raise ValueError(f"unknown critic kind {kind!r}")


# ---------------------------------------------------------------------------


def _forward_single(params: ParamSet, vector: Array) -> Array:
    with ad.no_grad():
        out = critic_forward(params, vector.reshape(1, -1))
    return out.data[0]

