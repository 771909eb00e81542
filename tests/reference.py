"""Reference implementations kept only as test oracles.

The composed dense stack, GRU cell and masked epsilon-softmax build their
graphs from the elementwise autodiff ops, one tape node per op; the fused
nodes in ``sopac`` must match them bit for bit, forward and backward. The
scalar return and advantage formulas are the per-step definitions that the
batched code in ``sopac.learn`` vectorises.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sopac import autodiff as ad
from sopac import critic as cr
from sopac.policy import MaskError

Array = np.ndarray


# ---------------------------------------------------------------------------
# Composed networks


def composed_mlp_forward(params: ad.ParamSet, x, prefix: str = "") -> ad.Tensor:
    n_layers = ad.mlp_layer_count(params, prefix)
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x, dtype=np.float64))
    for i in range(n_layers):
        h = ad.add(ad.matmul(h, params[f"{prefix}w{i}"]), params[f"{prefix}b{i}"])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


def composed_gru_step(params: ad.ParamSet, x, h, prefix: str = "") -> ad.Tensor:
    p = {name: params[f"{prefix}{name}"]
         for name in ("wr", "ur", "br", "wz", "uz", "bz", "wh", "uh", "bh")}
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p["wr"]), ad.matmul(h, p["ur"])), p["br"]))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p["wz"]), ad.matmul(h, p["uz"])), p["bz"]))
    c = ad.tanh(ad.add(ad.add(ad.matmul(x, p["wh"]), ad.matmul(ad.mul(r, h), p["uh"])),
                       p["bh"]))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, c))


def composed_masked_epsilon_probs(logits, avail: Array, epsilon) -> ad.Tensor:
    avail = np.asarray(avail, dtype=np.float64)
    counts = avail.sum(axis=-1, keepdims=True)
    if (counts < 1.0).any():
        raise MaskError("a row masks out every action")
    logits_data = logits.data if isinstance(logits, ad.Tensor) else np.asarray(logits)
    shift = np.max(np.where(avail > 0.0, logits_data, -np.inf), axis=-1, keepdims=True)
    z = ad.mul(ad.exp(ad.mul(ad.sub(logits, shift), avail)), avail)
    soft = ad.div(z, ad.sum_last(z))
    eps = np.asarray(epsilon, dtype=np.float64)
    return ad.add(ad.mul(soft, 1.0 - eps), (eps / counts) * avail)


# ---------------------------------------------------------------------------
# Scalar returns and advantages


def n_step_return(rewards: Sequence[float], bootstrap: float, gamma: float, n: int) -> float:
    """n-step bootstrapped return from the front of a reward tail; when fewer
    than n rewards remain, the sum truncates and the bootstrap is dropped."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rewards = np.asarray(rewards, dtype=np.float64)
    total = 0.0
    for i in range(min(n, rewards.size)):
        total += (gamma ** i) * rewards[i]
    if n <= rewards.size:
        total += (gamma ** n) * bootstrap
    return total


def centralv_advantage(reward: float, v_now: float, v_next: float,
                       gamma_adv: float, terminal: bool) -> float:
    """Shared temporal-difference advantage; terminal steps bootstrap zero."""
    future = 0.0 if terminal else gamma_adv * v_next
    return reward + future - v_now


def counterfactual_baseline(dist: Array, q_row: Array) -> float:
    """Policy-weighted value over one agent's alternative actions."""
    dist = np.asarray(dist, dtype=np.float64)
    q_row = np.asarray(q_row, dtype=np.float64)
    if dist.shape != q_row.shape:
        raise ValueError(f"distribution {dist.shape} vs Q row {q_row.shape}")
    return float(np.dot(dist, q_row))


def coma_advantage(table: cr.CounterfactualQTable, dists: Array) -> Array:
    """Per-agent advantage: taken-action value minus the counterfactual baseline."""
    dists = np.asarray(dists, dtype=np.float64)
    if dists.shape != table.values.shape:
        raise ValueError(f"dists {dists.shape} vs table {table.values.shape}")
    return table.taken_values() - np.einsum("am,am->a", dists, table.values)
