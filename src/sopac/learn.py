"""Return targets, advantages, and the actor/critic update rules.

Every trajectory is a ``Batch``: B episodes padded to the longest of them,
one episode being a batch of one. Padded steps contribute exactly zero to
every loss and gradient. Critic targets are lambda-mixtures of n-step
bootstrapped returns computed from a periodically synced target network,
with the finite-episode convention that all n-step returns reaching past the
terminal collapse onto the Monte-Carlo return (so lambda = 1 is exactly the
discounted return and lambda = 0 is exactly the one-step target).

One critic update, ``critic_update``, serves both training schedules with
targets fixed up front; the schedule is the sweep. ``minibatch`` takes one
optimiser step per timestep, sweeping t = T..1, and ``wholebatch`` takes a
single step on the loss summed over all timesteps. Every optimiser step
advances the target-network counter. The updates write the trainer's
parameters, RMSProp accumulators and target network in place. The settings
they read are declared and checked once, in ``LearnConfig``, which
``harness.RunConfig`` extends.

The actor is replayed over a batch by ``unroll_policy`` in one hoisted pass:
its (T*B*n, m) probabilities are time-major, then episode-major, and
``policy_loss`` reads them in one node. The unroll and loss record the same
6 tape nodes at any T, and their values and gradients equal those of a tape
with one actor step per time step, bit for bit. The critic loss is one node
too, so every tape node is a fused node with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import critic as cr
from .autodiff import NumericError, ParamSet, Tensor
from .policy import (ActorConfig, actor_init, actor_inputs, actor_unroll, failures,
                     masked_epsilon_probs, type_problems)

Array = np.ndarray


# ---------------------------------------------------------------------------
# Trajectory containers


@dataclass
class Batch:
    """B episodes padded to the longest of them; one episode is a batch of one.

    The step fields are (B, T, ...) with T = ``max_length``. Padded steps
    hold zeros, except ``avail``, which stays all-available. The episode
    fields are (B,): each episode's length, the one epsilon that floored
    every step's acting distribution, its generation and whether it won.
    """

    states: Array        # (B, T, state_width)
    obs: Array           # (B, T, n, obs_width)
    avail: Array         # (B, T, n, m) float
    actions: Array       # (B, T, n) int
    rewards: Array       # (B, T)
    dists: Array         # (B, T, n, m) acting distributions
    epsilons: Array      # (B,)
    lengths: Array       # (B,) int
    generations: Array   # (B,) int
    wins: Array          # (B,) bool

    def __len__(self) -> int:
        return self.lengths.shape[0]

    def __getitem__(self, rows) -> "Batch":
        """The episodes at ``rows`` (an index, slice, index array or mask),
        trimmed to the longest of them; an index gives a batch of one."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        t_max = int(self.lengths[rows].max(initial=0))
        return Batch(**{name: value[rows] if value.ndim == 1 else value[rows, :t_max]
                        for name, value in vars(self).items()})

    @property
    def max_length(self) -> int:
        return self.states.shape[1]

    @property
    def pad(self) -> Array:
        """(B, T) float: 1 on real steps, 0 on padded ones."""
        return (np.arange(self.max_length) < self.lengths[:, None]).astype(np.float64)

    @property
    def returns(self) -> Array:
        """(B,) undiscounted returns, each summed over its own episode's steps."""
        return np.asarray([self.rewards[i, :t].sum() for i, t in enumerate(self.lengths)])

    @property
    def prev_actions(self) -> Array:
        """(B, T, n) previous joint actions; -1 at every episode's first step."""
        prev = np.full_like(self.actions, -1)
        prev[:, 1:] = self.actions[:, :-1]
        return prev

    @classmethod
    def from_episodes(cls, batches: Sequence["Batch"]) -> "Batch":
        """The batches' episodes in order, padded to the longest of them; a
        lone batch comes back as it is."""
        if not batches:
            raise ValueError("cannot batch zero episodes")
        if len(batches) == 1:
            return batches[0]
        t_max = max(b.max_length for b in batches)
        joined = {}
        for name in vars(batches[0]):
            parts = [getattr(b, name) for b in batches]
            if parts[0].ndim == 1:
                joined[name] = np.concatenate(parts)
                continue
            out = np.full((sum(map(len, parts)), t_max, *parts[0].shape[2:]),
                          1 if name == "avail" else 0, dtype=parts[0].dtype)
            row = 0
            for part in parts:
                out[row:row + len(part), :part.shape[1]] = part
                row += len(part)
            joined[name] = out
        return cls(**joined)


# ---------------------------------------------------------------------------
# Returns and targets


def td_lambda_targets(rewards: Array, boot_values: Array, lam: float, gamma: float) -> Array:
    """Lambda-mixture of n-step returns for one finite episode: the one-episode
    case of :func:`batch_td_lambda_targets`."""
    rewards = np.asarray(rewards, dtype=np.float64)
    boot = np.asarray(boot_values, dtype=np.float64)
    if boot.shape[0] != rewards.shape[0]:
        raise ValueError("need one target-network value per step")
    return batch_td_lambda_targets(rewards[None], boot[None], np.asarray([len(rewards)]),
                                   lam, gamma)[0]


def batch_td_lambda_targets(rewards: Array, boots: Array, lengths: Array, lam: float,
                            gamma: float) -> Array:
    """(B, T, ...) lambda-mixture of n-step returns over a padded batch.

    ``boots[b, t]`` is the target-network value at step t, used when an
    n-step return bootstraps there; it may carry trailing agent dimensions,
    across which the (B, T) rewards broadcast. Weights of returns reaching
    past the terminal collapse onto the Monte-Carlo return, computed by the
    backward recursion  y[t] = r[t] + gamma * ((1 - lam) * boot[t + 1] + lam * y[t + 1]),
    with y = r at each episode's last step and exactly +0.0 on padded steps.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    trailing = (1,) * (boots.ndim - 2)
    rewards = rewards.reshape(*rewards.shape, *trailing)
    lengths = np.asarray(lengths).reshape(-1, *trailing)
    t_max = boots.shape[1]
    out = np.zeros_like(boots)
    for t in range(t_max - 1, -1, -1):
        y = rewards[:, t]
        if t + 1 < t_max:
            mixed = (1.0 - lam) * boots[:, t + 1] + lam * out[:, t + 1]
            y = np.where(t + 1 < lengths, y + gamma * mixed, y)
        out[:, t] = np.where(t < lengths, y, 0.0)
    return out


# ---------------------------------------------------------------------------
# Target network bookkeeping


@dataclass
class TargetNetState:
    """Target parameters in arrays of their own, and optimiser steps since the last sync."""

    params: ParamSet
    counter: int = 0


def target_sync(state: TargetNetState, online: ParamSet, period: int) -> None:
    """Copy the online values into the target's arrays and reset the counter
    when the counter has reached ``period``."""
    if state.counter >= period:
        for name, tensor in state.params.items():
            np.copyto(tensor.data, online[name].data)
        state.counter = 0


# ---------------------------------------------------------------------------
# Batched network inputs


def actor_step_inputs(batch: Batch, cfg: ActorConfig) -> Array:
    """(T, B*n, input_width) actor inputs, rows ordered episode-major."""
    b, t_max, n, _ = batch.dists.shape
    rows = actor_inputs(cfg, batch.obs.swapaxes(0, 1), batch.prev_actions.swapaxes(0, 1))
    return rows.reshape(t_max, b * n, cfg.input_width)


def unroll_policy(params: ParamSet, cfg: ActorConfig, batch: Batch) -> Tensor:
    """(T*B*n, m) acting distributions over the batch, rows time-major then
    episode-major, each episode's rows floored by its stored epsilon.

    One hoisted pass (``policy.actor_unroll``) whose values and gradients
    equal a per-step unroll's bit for bit. Runs in the caller's gradient
    mode: wrap in ``autodiff.no_grad()`` when the probabilities are wanted
    as constants.
    """
    b, t_max, n, m = batch.dists.shape
    if not ((batch.epsilons >= 0.0) & (batch.epsilons <= 1.0)).all():
        raise ValueError("stored epsilons must lie in [0, 1]")
    inputs = actor_step_inputs(batch, cfg).reshape(t_max * b * n, cfg.input_width)
    eps = np.tile(np.repeat(batch.epsilons, n), t_max)[:, None]
    avail = batch.avail.swapaxes(0, 1).reshape(t_max * b * n, m)
    return masked_epsilon_probs(actor_unroll(params, inputs, t_max), avail, eps)


def _by_episode(batch: Batch, rows: Array) -> Array:
    """(B, T, n, ...) C-ordered array of time-major (T*B*n, ...) rows."""
    b, t_max, n, _ = batch.dists.shape
    return np.ascontiguousarray(rows.reshape(t_max, b, n, -1).swapaxes(0, 1))


def batch_policy_probs(params: ParamSet, cfg: ActorConfig, batch: Batch) -> Array:
    """(B, T, n, m) current-policy probabilities as plain arrays."""
    with ad.no_grad():
        return _by_episode(batch, unroll_policy(params, cfg, batch).data)


def _batch_layout(batch: Batch, algo: str) -> cr.CriticInputLayout:
    _, _, n, m = batch.dists.shape
    return cr.layout_for(algo, batch.states.shape[-1], batch.obs.shape[-1], n, m)


def critic_batch_inputs(batch: Batch, algo: str) -> Array:
    """Per-step critic inputs: (B,T,W) for centralv/coma-cc, (B,T,n,W) for coma."""
    return cr.encode(_batch_layout(batch, algo), batch.states, batch.obs,
                     batch.prev_actions, batch.actions)


def _critic_values(params: ParamSet, inputs: Array) -> Tensor:
    """Forward critic inputs with any leading shape: (rows, 1), or (rows, m)
    for the m-headed critic."""
    return cr.critic_forward(params, inputs.reshape(-1, inputs.shape[-1]))


# ---------------------------------------------------------------------------
# Critic updates


def critic_loss_tensor(params: ParamSet, inputs: Array, targets: Array,
                       weights: Array, actions: Array | None) -> Tensor:
    """Weighted squared error between fixed targets and critic predictions,
    summed, as one node over the critic's output; the m-headed critic
    predicts the value of the taken ``actions``. Forward and backward repeat
    the grouping of ``tests/reference.py``'s ``composed_critic_loss``, so
    its value and gradients are equal bit for bit."""
    out = _critic_values(params, inputs)
    pred = out.data
    if actions is not None:
        index = actions.reshape(-1, 1)
        pred = np.take_along_axis(pred, index, axis=1)
    w = weights.reshape(-1, 1)
    diff = targets.reshape(-1, 1) - pred

    def backward(g: Array) -> None:
        g_pred = -(((g * w) * 2.0) * diff)
        if actions is not None:
            scattered = np.zeros_like(out.data)
            np.put_along_axis(scattered, index, g_pred, axis=1)
            g_pred = scattered
        ad.accumulate(out, g_pred)

    return ad.record(np.asarray(((diff * diff) * w).sum()), (out,), backward)


def prepare_critic_batch(batch: Batch, inputs: Array, algo: str,
                         target: TargetNetState, lam: float, gamma: float):
    """Assemble (targets, weights, actions) for critic training on the
    batch's ``critic_batch_inputs``; targets bootstrap on the target network."""
    coma = algo == "coma"
    actions = batch.actions if coma else None
    with ad.no_grad():
        boots = _critic_values(target.params, inputs).data
    if coma:
        boots = np.take_along_axis(boots, actions.reshape(-1, 1), axis=1)
    boots = boots.reshape(len(batch), batch.max_length, *((-1,) if coma else ()))
    targets = batch_td_lambda_targets(batch.rewards, boots, batch.lengths, lam, gamma)
    weights = np.broadcast_to(batch.pad[:, :, None], targets.shape).copy() if coma else batch.pad
    return targets, weights, actions


def critic_update(
    batch: Batch, inputs: Array, cfg: LearnConfig, params: ParamSet, accs: dict[str, Array],
    target: TargetNetState,
) -> float:
    """Fit the critic to TD(lambda) targets in place; returns the summed loss.

    Targets are computed once from the target network before any step. The
    schedule is the sweep: ``wholebatch`` takes one step on the loss summed
    over every timestep, ``minibatch`` one step per timestep for t = T..1.
    The target counter advances on every optimiser step. A ``NumericError``
    part-way through a minibatch sweep leaves the critic with the steps
    already taken; ``run_experiment`` then saves no parameters.
    """
    targets, weights, actions = prepare_critic_batch(
        batch, inputs, cfg.algo, target, cfg.lam, cfg.gamma)
    sweep = (range(batch.max_length - 1, -1, -1) if cfg.critic_schedule == "minibatch"
             else [slice(None)])
    total = 0.0
    for t in sweep:
        params.zero_grads()
        step_actions = actions[:, t] if actions is not None else None
        loss = critic_loss_tensor(params, inputs[:, t], targets[:, t], weights[:, t], step_actions)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError("critic loss is not finite")
        total += value
        loss.backward()
        ad.rmsprop_step(params, accs, cfg.lr, cfg.rms_alpha, cfg.rms_eps)
        target.counter += 1
        target_sync(target, params, cfg.target_period)
    return total


# ---------------------------------------------------------------------------
# Advantage computation (online critic, current policy probabilities)


def compute_advantages(
    batch: Batch, inputs: Array, algo: str, critic_params: ParamSet,
    probs: Tensor | None, gamma: float, gamma_adv_one: bool,
) -> Array:
    """(B, T, n) advantages from the batch's ``critic_batch_inputs``; padded
    steps come out exactly zero.

    ``probs`` is ``unroll_policy`` of the current actor over the batch; the
    counterfactual baselines of ``coma`` and ``coma-cc`` read its values, and
    ``centralv`` ignores it.
    """
    b, t_max, n, _ = batch.dists.shape
    if algo == "centralv":
        with ad.no_grad():
            values = _critic_values(critic_params, inputs).data.reshape(b, t_max)
        gamma_adv = 1.0 if gamma_adv_one else gamma
        v_next = np.zeros_like(values)
        v_next[:, :-1] = values[:, 1:]
        steps = np.arange(t_max)[None, :]
        lengths = batch.lengths[:, None]
        # r + gamma_adv * V(s') - V(s), in that order. np.where sets the
        # terminal bootstrap term and padded entries to exactly +0.0, where
        # masking by a product could give -0.0.
        future = np.where(steps + 1 >= lengths, 0.0, gamma_adv * v_next)
        adv = np.where(steps < lengths, batch.rewards + future - values, 0.0)
        return np.broadcast_to(adv[:, :, None], (b, t_max, n)).copy()

    # Only the available actions of real steps are read: a masked action
    # enters the baseline with probability exactly 0, and a padded step's
    # entries stay +0.0, so its advantage is +0.0. Entry (a, u_a) is the
    # step's own joint action for every agent a; coma-cc forwards it once,
    # for agent 0, and copies those bits to the other agents.
    needed = (batch.avail > 0.0) & (batch.pad[:, :, None, None] > 0.0)
    own = batch.actions[..., None]
    if algo == "coma-cc":
        needed[:, :, 1:] &= own[:, :, 1:] != np.arange(batch.avail.shape[-1])
    rows = cr.counterfactual_values(critic_params, _batch_layout(batch, algo), inputs, needed)
    taken = np.take_along_axis(rows, own, axis=-1)
    if algo == "coma-cc":
        taken[:, :, 1:] = taken[:, :, :1]
        np.put_along_axis(rows, own, taken, axis=-1)
    baseline = np.einsum("btam,btam->bta", _by_episode(batch, probs.data), rows)
    return taken[..., 0] - baseline


# ---------------------------------------------------------------------------
# Policy update


def policy_loss(batch: Batch, advantages: Array, probs: Tensor) -> Tensor:
    """-sum over valid (t, a) of log pi(u_t^a | tau_t^a) * A, padding-masked,
    as one node over ``probs``, a taped ``unroll_policy`` over the batch.
    Padded rows read log(1) = 0. The terms are summed per step and the step
    sums added first step first. Forward and backward repeat the grouping of
    ``tests/reference.py``'s ``composed_policy_loss``, so its value and
    gradients are equal bit for bit."""
    b, t_max, n, m = batch.dists.shape
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != (b, t_max, n):
        raise ValueError(f"advantages shape {advantages.shape} != {(b, t_max, n)}")
    pad = np.repeat(batch.pad.T, n, axis=1).reshape(-1, 1)
    index = batch.actions.swapaxes(0, 1).reshape(-1, 1)
    p_safe = np.take_along_axis(probs.data, index, axis=1) * pad + (1.0 - pad)
    weight = advantages.swapaxes(0, 1).reshape(-1, 1) * pad
    terms = np.log(p_safe) * weight
    total = ad._sum_steps(terms.reshape(t_max, -1).sum(axis=1), last_first=False)

    def backward(g: Array) -> None:
        g_probs = np.zeros_like(probs.data)
        np.put_along_axis(g_probs, index, (((g * -1.0) * weight) / p_safe) * pad, axis=1)
        ad.accumulate(probs, g_probs)

    return ad.record(np.asarray(total * -1.0), (probs,), backward)


def policy_loss_tensor(batch: Batch, advantages: Array, params: ParamSet,
                       cfg: ActorConfig) -> Tensor:
    """The policy loss as a function of the actor parameters (for finite
    differences): ``policy_loss`` of a fresh unroll."""
    return policy_loss(batch, advantages, unroll_policy(params, cfg, batch))


def policy_gradient_update(
    batch: Batch, advantages: Array, probs: Tensor, params: ParamSet,
    accs: dict[str, Array], cfg: LearnConfig,
) -> float:
    """One optimiser step in place on the policy-gradient loss of ``probs``, a
    taped ``unroll_policy`` of ``params`` over the batch; returns the loss.

    Advantages enter as constants; no gradient reaches the critic. A
    non-finite loss raises without touching the parameters.
    """
    params.zero_grads()
    loss = policy_loss(batch, advantages, probs)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericError("policy loss is not finite")
    loss.backward()
    ad.rmsprop_step(params, accs, cfg.lr, cfg.rms_alpha, cfg.rms_eps)
    return value


# ---------------------------------------------------------------------------
# Trainer glue


ALGOS = ("centralv", "coma", "coma-cc")
SCHEDULES = ("minibatch", "wholebatch")


@dataclass(frozen=True)
class LearnConfig:
    """The learning settings that every critic and sop mode shares."""

    algo: str
    critic_schedule: str = "wholebatch"
    lam: float = 0.8
    gamma: float = 0.99
    gamma_adv_one: bool = True
    lr: float = 0.005
    rms_alpha: float = 0.99
    rms_eps: float = 1e-5
    target_period: int = 200

    def __post_init__(self) -> None:
        problems = []
        if self.algo not in ALGOS:
            problems.append(f"unknown algorithm {self.algo!r}")
        if self.critic_schedule not in SCHEDULES:
            problems.append(f"unknown critic schedule {self.critic_schedule!r}")
        problems += type_problems(self, counts=("target_period",), flags=("gamma_adv_one",))
        unreal = type_problems(self, reals=("lam", "gamma", "lr", "rms_alpha", "rms_eps"))
        problems += unreal
        if not unreal:  # the range checks compare numbers
            if not 0.0 <= self.lam <= 1.0:
                problems.append(f"lambda must lie in [0, 1], got {self.lam!r}")
            if not 0.0 < self.gamma <= 1.0:
                problems.append(f"gamma must lie in (0, 1], got {self.gamma!r}")
            problems += failures(ad.check_rmsprop, self.lr, self.rms_alpha, self.rms_eps)
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class Trainer:
    """Actor/critic parameters and optimiser state, which the update recipe writes in place."""

    cfg: LearnConfig
    actor_cfg: ActorConfig
    actor: ParamSet
    actor_opt: dict[str, Array]  # RMSProp accumulators, keyed like the parameters
    critic: ParamSet
    critic_opt: dict[str, Array]
    target: TargetNetState

    @classmethod
    def create(
        cls, cfg: LearnConfig, actor_cfg: ActorConfig, state_width: int,
        actor_rng: np.random.Generator, critic_rng: np.random.Generator,
        critic_hidden: Sequence[int] = cr.CRITIC_HIDDEN,
    ) -> "Trainer":
        actor = actor_init(actor_rng, actor_cfg)
        in_width = cr.layout_for(
            cfg.algo, state_width, actor_cfg.obs_width,
            actor_cfg.n_agents, actor_cfg.n_actions,
        ).width
        out_width = actor_cfg.n_actions if cfg.algo == "coma" else 1
        critic = cr.critic_init(critic_rng, in_width, out_width, critic_hidden)
        return cls(
            cfg=cfg,
            actor_cfg=actor_cfg,
            actor=actor,
            actor_opt=ad.rmsprop_init(actor),
            critic=critic,
            critic_opt=ad.rmsprop_init(critic),
            target=TargetNetState(critic.copy()),
        )

    def train_on_batch(self, batch: Batch) -> tuple[float, float]:
        """``critic_update``, then one actor step; returns both losses.

        The actor is unrolled once: the counterfactual baselines read the
        values of the same taped unroll that the policy loss differentiates.
        """
        inputs = critic_batch_inputs(batch, self.cfg.algo)
        critic_loss = critic_update(
            batch, inputs, self.cfg, self.critic, self.critic_opt, self.target)
        probs = unroll_policy(self.actor, self.actor_cfg, batch)
        advantages = compute_advantages(
            batch, inputs, self.cfg.algo, self.critic, probs,
            self.cfg.gamma, self.cfg.gamma_adv_one,
        )
        actor_loss = policy_gradient_update(
            batch, advantages, probs, self.actor, self.actor_opt, self.cfg)
        return critic_loss, actor_loss
