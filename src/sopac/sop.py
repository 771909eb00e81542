"""Semi-on-policy training: the rolling buffer, KL eligibility, and diagnostics.

Two training modes reuse recent episodes generated by slightly stale policies:

* permissive: train on all b buffered episodes, evict only the oldest, and
  roll out exactly one replacement with the freshly updated policy;
* strict: refill the buffer with current-policy episodes, train, then evict
  the oldest episode plus every episode whose generating policy diverges from
  the post-update policy by more than ``kl_threshold`` (max over steps and
  agents of KL(current || stored)).

Divergences compare the stored per-step distributions with the current
policy, replayed over every episode at once by the padded batched unroll of
``learn.batch_policy_probs``; no old network ever needs replaying. The
``sampled`` estimator kind reproduces the single-sample form
q/p - 1 - log(q/p)  evaluated at the recorded actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .autodiff import ParamSet
from .learn import Batch, Episode, Trainer, batch_policy_probs
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


def kl_estimator_expectation(p: Array, q: Array) -> float:
    """Full-support expectation of the estimator; equals kl_exact identically."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * kl_estimator_term(pi, qi)
    return float(total)


# ---------------------------------------------------------------------------
# Replay buffer


class ReplayBuffer:
    """FIFO store of at most ``capacity`` episodes, oldest first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.episodes: list[Episode] = []

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def full(self) -> bool:
        return len(self.episodes) >= self.capacity

    def insert(self, episode: Episode) -> None:
        if self.full:
            raise RuntimeError("buffer is full; evict before inserting")
        self.episodes.append(episode)

    def evict_oldest(self) -> Episode:
        return self.episodes.pop(0)

    def evict_where(self, drop: Sequence[bool]) -> list[Episode]:
        """Drop flagged episodes; survivors keep their order."""
        if len(drop) != len(self.episodes):
            raise ValueError("flag list does not match buffer size")
        removed = [e for e, d in zip(self.episodes, drop) if d]
        self.episodes = [e for e, d in zip(self.episodes, drop) if not d]
        return removed

    def generations(self) -> list[int]:
        return [e.generation for e in self.episodes]


# ---------------------------------------------------------------------------
# Buffer divergence diagnostics


@dataclass
class KlReport:
    per_episode: list[float]
    overall_max: float
    overall_mean: float
    kind: str


def episode_kls(actor: ParamSet, cfg: ActorConfig, episodes: Sequence[Episode],
                kind: str = "exact") -> list[Array]:
    """Per-step divergences KL(current || stored), one (T_i, n) array per
    episode, from a single batched replay of the current policy."""
    if kind not in ("exact", "sampled"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    if any(e.dists is None or e.epsilons is None for e in episodes):
        raise ValueError("episode is missing its stored policy provenance")
    batch = Batch.from_episodes(episodes)
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


def max_buffer_kl(
    actor: ParamSet, cfg: ActorConfig,
    episodes: Iterable[Episode], kind: str = "exact",
) -> KlReport:
    """Divergence of the current policy from each buffered episode's policy.

    Per episode: the max over timesteps and agents. ``overall_max`` is the
    max across episodes, matching the buffer diagnostic; the mean over all
    (episode, step, agent) entries is reported alongside.
    """
    episodes = list(episodes)
    if not episodes:
        return KlReport(per_episode=[], overall_max=0.0, overall_mean=0.0, kind=kind)
    kls = episode_kls(actor, cfg, episodes, kind)
    per_episode = [float(k.max()) for k in kls]
    mean = float(np.mean(np.concatenate([k.reshape(-1) for k in kls])))
    return KlReport(per_episode=per_episode, overall_max=max(per_episode),
                    overall_mean=mean, kind=kind)


# ---------------------------------------------------------------------------
# Training iterations


def permissive_sop_iteration(
    buffer: ReplayBuffer,
    trainer: Trainer,
    sample_episode: Callable[[ParamSet], Episode],
    on_train_end: Callable[[float, float], None] | None = None,
) -> tuple[float, float]:
    """Train on the full buffer, evict the oldest episode, roll out one new.

    The buffer must have been warm-filled to capacity beforehand. Consumes
    exactly one fresh environment episode per call.
    """
    if not buffer.full:
        raise RuntimeError("permissive iteration needs a warm-filled buffer")
    critic_loss, policy_loss = trainer.train_on_batch(buffer.episodes)
    if on_train_end is not None:
        on_train_end(critic_loss, policy_loss)
    buffer.evict_oldest()
    buffer.insert(sample_episode(trainer.actor))
    return critic_loss, policy_loss


def strict_sop_iteration(
    buffer: ReplayBuffer,
    trainer: Trainer,
    sample_episode: Callable[[ParamSet], Episode],
    kl_threshold: float,
    on_train_end: Callable[[float, float], None] | None = None,
) -> tuple[float, float]:
    """Refill with fresh episodes, train, then evict the oldest episode and
    every episode whose max divergence from the post-update policy exceeds
    the threshold."""
    if kl_threshold < 0.0:
        raise ValueError("kl_threshold must be nonnegative")
    while not buffer.full:
        buffer.insert(sample_episode(trainer.actor))
    critic_loss, policy_loss = trainer.train_on_batch(buffer.episodes)
    if on_train_end is not None:
        on_train_end(critic_loss, policy_loss)
    drop = [False] * len(buffer)
    if np.isfinite(kl_threshold):
        kls = episode_kls(trainer.actor, trainer.actor_cfg, buffer.episodes)
        drop = [float(k.max()) > kl_threshold for k in kls]
    drop[0] = True
    buffer.evict_where(drop)
    return critic_loss, policy_loss


def warm_fill(buffer: ReplayBuffer, trainer: Trainer,
              sample_episode: Callable[[ParamSet], Episode]) -> None:
    """Fill the buffer to capacity with fresh current-policy episodes."""
    while not buffer.full:
        buffer.insert(sample_episode(trainer.actor))
