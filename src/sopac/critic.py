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
  bit-identical estimates no matter which agent asks.

Field order inside each layout is fixed and part of the tested contract; it
is written down only in the three layout constructors. ``encode`` packs
every critic input, single or batched, by field name, and
``counterfactual_values`` is the one path to the n x m counterfactual values
of encoded steps, all in one stacked forward pass: n input rows per step for
``coma`` and n * m for ``coma-cc``, or only the rows of the entries a
caller's ``needed`` mask names.
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
    """Ordered (field name, width) pairs describing one critic input vector,
    and the joint-action shape (n agents, m actions) of counterfactual
    critics (0 for ``centralv``)."""

    kind: str
    fields: tuple[tuple[str, int], ...]
    n: int = 0
    m: int = 0

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
        n, m,
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
        n, m,
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
    n, m = layout.n, layout.m
    prev = joint_one_hot(prev_actions, m)
    joint = joint_one_hot(actions, m)
    if layout.kind == "coma-cc":
        return layout.pack(state=state, all_obs=obs.reshape(*obs.shape[:-2], -1),
                           prev_joint=prev, joint=joint)
    others = np.stack([mask_own_block(joint, a, m) for a in range(n)], axis=-2)
    return layout.pack(state=state[..., None, :], obs=obs,
                       prev_joint=prev[..., None, :], joint_others=others,
                       agent_id=np.eye(n))


def counterfactual_values(params: ParamSet, layout: CriticInputLayout, inputs: Array,
                          needed: Array | None = None) -> Array:
    """(..., n, m) counterfactual values of ``encode``d inputs with any
    leading shape ``...``: entry (a, u) values the step's joint action with
    agent a's action replaced by u.

    ``needed``, a boolean (..., n, m) mask of the entries the caller reads,
    defaults to all of them. ``coma`` forwards the agent rows of its m-headed
    critic that hold a needed entry; ``coma-cc`` forwards one row per needed
    entry: the step's input with agent a's block of the current joint action
    replaced by u. Either way it is one no-grad forward, row-exact batching
    makes every needed entry bit-identical to a forward of its row alone, and
    every other entry is exactly 0.0.
    """
    n, m = layout.n, layout.m
    if layout.kind not in ("coma", "coma-cc"):
        raise ValueError(f"the {layout.kind!r} critic has no counterfactual values")
    lead = inputs.shape[:-2] if layout.kind == "coma" else inputs.shape[:-1]
    if needed is None:
        needed = np.ones((*lead, n, m), dtype=bool)
    steps = inputs.reshape(-1, layout.width)
    if layout.kind == "coma":
        agent_rows = needed.reshape(-1, m).any(axis=1)
        rows = steps[agent_rows]
    else:
        step, agent, action = np.nonzero(needed.reshape(-1, n, m))
        rows = steps[step]
        block = layout.slices()["joint"].start + agent * m
        rows[np.arange(len(rows))[:, None], block[:, None] + np.arange(m)] = np.eye(m)[action]
    with ad.no_grad():
        values = critic_forward(params, rows).data
    out = np.zeros((*lead, n, m))
    if layout.kind == "coma":
        out.reshape(-1, m)[agent_rows] = values
        out[~needed] = 0.0
    else:
        out[needed] = values[:, 0]
    return out
