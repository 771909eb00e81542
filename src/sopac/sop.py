"""Semi-on-policy training: the rolling buffer, KL eligibility, and diagnostics.

Every training mode runs the same iteration over a rolling window of at most
b episodes (:func:`sop_iteration`): fill the window with current-policy
episodes, train on all of it, then evict. The modes differ only in what the
eviction rule flags:

* off: every episode, so each update trains on b fresh episodes (on-policy);
* permissive: the oldest, so each update after the first samples exactly one
  episode with the freshly updated policy;
* strict: the oldest plus every episode whose generating policy diverges from
  the post-update policy by more than ``kl_threshold`` (max over steps and
  agents of KL(current || stored)).

The buffer is one ``learn.Batch``: a refill is concatenated onto it and an
eviction selects the survivors, so training, the KL replay and evaluation
all read the same arrays and nothing is re-padded per update. Divergences
compare the stored per-step distributions with the current policy, replayed
over every episode at once by the padded batched unroll of
``learn.batch_policy_probs``; no old network ever needs replaying. The
``sampled`` estimator kind reproduces the single-sample form
q/p - 1 - log(q/p)  evaluated at the recorded actions (``kl_estimator_term``);
its expectation over the full support equals ``kl_exact`` (acceptance
criterion 2).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import ParamSet
from .learn import Batch, Trainer, batch_policy_probs
from .policy import ActorConfig

Array = np.ndarray


# ---------------------------------------------------------------------------
# KL divergence between categorical policies


def kl_exact(p: Array, q: Array) -> float | Array:
    """Sum over the last axis of p * log(p/q) with 0 log 0 = 0; infinite where
    q misses p's support. Broadcasts over leading dimensions (..., m).

    For m < 8 each row is bit-identical to summing over the support alone;
    from m = 8 on numpy's unrolled summation may change the lowest bits.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0).sum(-1)


def kl_estimator_term(p_prob, q_prob) -> float | Array:
    """Single-sample term q/p - 1 - log(q/p); nonnegative for any ratio.
    Broadcasts over arrays of probabilities."""
    p_prob = np.asarray(p_prob, dtype=np.float64)
    q_prob = np.asarray(q_prob, dtype=np.float64)
    if np.any(p_prob <= 0.0) or np.any(q_prob <= 0.0):
        raise ValueError("estimator terms need strictly positive probabilities")
    ratio = q_prob / p_prob
    return ratio - 1.0 - np.log(ratio)


# ---------------------------------------------------------------------------
# Replay buffer


class ReplayBuffer:
    """FIFO store of at most ``capacity`` episodes, oldest first, held as one
    ``Batch`` (None while empty) trimmed to its longest episode."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.batch: Batch | None = None

    def __len__(self) -> int:
        return 0 if self.batch is None else len(self.batch)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def insert(self, batch: Batch) -> None:
        """Append the batch's episodes, in order, after the buffered ones."""
        if len(self) + len(batch) > self.capacity:
            raise RuntimeError("buffer is full; evict before inserting")
        self.batch = batch if self.batch is None else Batch.from_episodes([self.batch, batch])

    def evict_where(self, drop: Sequence[bool]) -> None:
        """Drop flagged episodes; survivors keep their order."""
        if len(drop) != len(self):
            raise ValueError("flag list does not match buffer size")
        keep = ~np.asarray(drop, dtype=bool)
        self.batch = self.batch[keep] if keep.any() else None


# ---------------------------------------------------------------------------
# Buffer divergence diagnostics


def episode_kls(actor: ParamSet, cfg: ActorConfig, batch: Batch,
                kind: str = "exact") -> list[Array]:
    """Per-step divergences KL(current || stored), one (T_i, n) array per
    episode of the batch, cut to its length, from one replay of the current
    policy over the whole batch."""
    if kind not in ("exact", "sampled"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    current = batch_policy_probs(actor, cfg, batch)
    if kind == "exact":
        kls = kl_exact(current, batch.dists)
    else:
        taken = batch.actions[..., None]
        p = np.take_along_axis(current, taken, axis=-1)[..., 0]
        q = np.take_along_axis(batch.dists, taken, axis=-1)[..., 0]
        # padded steps store all-zero dists; give them a neutral ratio
        real = batch.pad[..., None] > 0.0
        kls = kl_estimator_term(np.where(real, p, 1.0), np.where(real, q, 1.0))
    return [kls[i, :length] for i, length in enumerate(batch.lengths)]


def max_mean_kl(kls: Sequence[Array]) -> tuple[float, float]:
    """The max over every (episode, step, agent) divergence, and their mean
    in episode-major order."""
    return (max(float(k.max()) for k in kls),
            float(np.mean(np.concatenate([k.reshape(-1) for k in kls]))))


# ---------------------------------------------------------------------------
# The training iteration


SOP_MODES = ("off", "permissive", "strict")


def eviction_flags(mode: str, kls: Sequence[Array] | None, kl_threshold: float,
                   size: int) -> list[bool]:
    """Which of ``size`` buffered episodes, oldest first, leave after an update."""
    if mode == "off":
        return [True] * size
    drop = [False] * size
    if kls is not None:
        drop = [float(k.max()) > kl_threshold for k in kls]
    drop[0] = True
    return drop


def sop_iteration(
    buffer: ReplayBuffer,
    trainer: Trainer,
    sample: Callable[[ParamSet, int], Batch],
    mode: str,
    kl_threshold: float,
    on_train_end: Callable[[float, float, list[Array] | None], None],
) -> None:
    """Fill the buffer with current-policy episodes, train on all of it, evict.

    ``on_train_end(critic_loss, policy_loss, kls)`` sees the buffer as it was
    trained on. ``kls`` holds the post-update divergence of every buffered
    episode in strict mode with a finite threshold, computed once for both
    the callback and the eviction, and is None otherwise.
    """
    if mode not in SOP_MODES:
        raise ValueError(f"unknown sop mode {mode!r}")
    if not kl_threshold >= 0.0:
        raise ValueError("kl_threshold must be nonnegative")
    if not buffer.full:
        buffer.insert(sample(trainer.actor, buffer.capacity - len(buffer)))
    critic_loss, policy_loss = trainer.train_on_batch(buffer.batch)
    kls = None
    if mode == "strict" and np.isfinite(kl_threshold):
        kls = episode_kls(trainer.actor, trainer.actor_cfg, buffer.batch)
    on_train_end(critic_loss, policy_loss, kls)
    buffer.evict_where(eviction_flags(mode, kls, kl_threshold, len(buffer)))
