"""Verification suites: gradient checking and oracle agreement.

Shared by the CLI subcommands (``grad-check``, ``oracle-check``) and the
acceptance tests. Gradient checks run the real loss code on small random
batches and tiny network widths; central finite differences cost two forward
passes per scalar, so full-size networks would be needlessly slow while
exercising exactly the same code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import critic as cr
from .autodiff import ParamSet
from .envs import SwitchGame
from .learn import (
    ALGOS,
    Batch,
    LearnConfig,
    Trainer,
    actor_step_inputs,
    compute_advantages,
    critic_batch_inputs,
    critic_loss_tensor,
    critic_update,
    policy_loss,
    prepare_critic_batch,
    unroll_policy,
)
from .oracle import exact_action_values, uniform_policy
from .policy import ActorConfig

Array = np.ndarray

# Small but structurally faithful dimensions for finite-difference checks.
CHECK_DIMS = dict(n=2, m=3, state_width=4, obs_width=3, gru_hidden=6,
                  critic_hidden=(8, 8), batch=2, max_len=3)


def random_episode(rng: np.random.Generator, n: int, m: int, state_width: int,
                   obs_width: int, length: int, generation: int = 0) -> Batch:
    """Synthetic episode, a batch of one, with valid masks and stored distributions."""
    logits = rng.standard_normal((length, n, m))
    dists = np.exp(logits)
    dists /= dists.sum(axis=-1, keepdims=True)
    steps = (
        rng.standard_normal((length, state_width)),
        rng.standard_normal((length, n, obs_width)),
        np.ones((length, n, m)),
        rng.integers(m, size=(length, n)),
        rng.standard_normal(length),
        dists,
    )
    return Batch(*(step[None] for step in steps), np.asarray([rng.uniform(0.05, 0.5)]),
                 np.asarray([length]), np.asarray([generation]), np.zeros(1, dtype=bool))


def random_batch(rng: np.random.Generator, dims: dict | None = None) -> Batch:
    d = dict(CHECK_DIMS, **(dims or {}))
    lengths = [d["max_len"]] + [
        int(rng.integers(1, d["max_len"] + 1)) for _ in range(d["batch"] - 1)
    ]
    episodes = [
        random_episode(rng, d["n"], d["m"], d["state_width"], d["obs_width"],
                       length, generation=i)
        for i, length in enumerate(lengths)
    ]
    return Batch.from_episodes(episodes)


def _check_trainer(rng: np.random.Generator, algo: str) -> Trainer:
    dims = CHECK_DIMS
    actor_cfg = ActorConfig(dims["obs_width"], dims["n"], dims["m"], dims["gru_hidden"])
    return Trainer.create(
        LearnConfig(algo=algo, gamma_adv_one=False), actor_cfg, dims["state_width"],
        np.random.default_rng(rng.integers(2**32)),
        np.random.default_rng(rng.integers(2**32)),
        critic_hidden=dims["critic_hidden"],
    )


def _critic_relu_margin(params: ParamSet, inputs: Array) -> float:
    """Smallest |ReLU preactivation| the critic sees on these inputs."""
    h = inputs.reshape(-1, inputs.shape[-1])
    margin = np.inf
    layer = 0
    while f"w{layer + 1}" in params:
        pre = h @ params[f"w{layer}"].data + params[f"b{layer}"].data
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
        layer += 1
    return margin


def _actor_relu_margin(params: ParamSet, batch: Batch, cfg: ActorConfig) -> float:
    """Smallest |preactivation| of the actor's sole ReLU over the batch."""
    inputs = actor_step_inputs(batch, cfg)
    pre = inputs.reshape(-1, inputs.shape[-1]) @ params["fc1.w0"].data + params["fc1.b0"].data
    return float(np.abs(pre).min())


@dataclass
class GradSuiteResult:
    max_errors: dict[str, float]   # loss name -> worst relative error over seeds
    # (seed, check) pairs that rejected all their draws and checked the last one
    exhausted: list[tuple[int, str]]

    @property
    def overall(self) -> float:
        return max(self.max_errors.values())


def _well_conditioned(loss, params: ParamSet, margin_ok: bool) -> bool:
    """A draw is checkable when no ReLU kink sits inside the probe interval
    and no analytic gradient falls in the finite-difference noise dead zone
    (small enough to drown in roundoff, large enough not to be structural)."""
    if not margin_ok:
        return False
    params.zero_grads()
    loss(params).backward()
    for _, tensor in params.items():
        g = np.abs(tensor.grad) if tensor.grad is not None else None
        if g is not None and np.any((g > 1e-11) & (g < 5e-7)):
            return False
    return True


def gradient_suite(seeds: int = 20, step: float = 1e-5) -> GradSuiteResult:
    """Finite-difference checks for the actor loss and all three critic losses.

    Central differences cannot certify a gradient across a ReLU kink or below
    their own roundoff floor, so draws with kink-straddling preactivations or
    dead-zone gradient entries are redrawn before checking. A check that
    rejects all 200 draws checks the last one anyway and lists it in ``exhausted``.
    """
    margin = 100.0 * step
    worst = dict.fromkeys(("actor",) + ALGOS, 0.0)
    exhausted = []
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        batch = random_batch(rng)
        for algo in ALGOS:
            inputs = critic_batch_inputs(batch, algo)
            for attempt in range(200):
                trainer = _check_trainer(rng, algo)
                margins_ok = (
                    _critic_relu_margin(trainer.critic, inputs) > margin
                    and _actor_relu_margin(trainer.actor, batch, trainer.actor_cfg) > margin
                )
                if not margins_ok and attempt < 199:
                    continue  # rejected anyway; the last draw is still checked
                targets, weights, actions = prepare_critic_batch(trainer, batch, inputs)

                def critic_loss(params: ParamSet) -> ad.Tensor:
                    return critic_loss_tensor(params, inputs, targets, weights, actions)

                with ad.no_grad():
                    probs = unroll_policy(trainer.actor, trainer.actor_cfg, batch)
                adv = compute_advantages(trainer, batch, inputs, probs)

                def actor_loss(params: ParamSet) -> ad.Tensor:
                    return policy_loss(batch, adv, unroll_policy(params, trainer.actor_cfg, batch))

                if (_well_conditioned(critic_loss, trainer.critic, margins_ok)
                        and _well_conditioned(actor_loss, trainer.actor, True)):
                    break
            else:
                exhausted.append((seed, algo))

            worst[algo] = max(worst[algo],
                              ad.finite_diff_check(critic_loss, trainer.critic, step))
            if algo == "coma-cc":
                worst["actor"] = max(worst["actor"],
                                     ad.finite_diff_check(actor_loss, trainer.actor, step))
    return GradSuiteResult(worst, exhausted)


# ---------------------------------------------------------------------------
# Oracle agreement on the one-shot coordination game


def uniform_switch_episodes(env: SwitchGame, rng: np.random.Generator, count: int) -> Batch:
    """A batch of one-step generation-0 episodes drawn under the fixed uniform
    policy, with exact stored dists."""
    m = env.spec.n_actions
    actions = np.zeros((count, 1, 2), dtype=np.int64)
    rewards = np.zeros((count, 1))
    wins = np.zeros(count, dtype=bool)
    for i in range(count):
        actions[i, 0] = rng.integers(m, size=2)
        [(_, rewards[i, 0], _, wins[i], _)] = env.transitions(0, tuple(actions[i, 0]))

    def each(step: Array) -> Array:
        return np.broadcast_to(step, (count, 1, *step.shape)).astype(np.float64)

    return Batch(each(env.state_vector(0)), each(env.observations(0)),
                 each(env.avail_actions(0)), actions, rewards,
                 np.full((count, 1, 2, m), 1.0 / m), np.ones(count),
                 np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64), wins)


@dataclass
class OracleCheckResult:
    v_error: float
    q_error: float
    v_updates: int
    q_updates: int

    def passed(self, tol: float = 0.05) -> bool:
        return self.v_error < tol and self.q_error < tol


def switch_oracle_check(
    max_updates: int = 5000, batch: int = 32, tol: float = 0.05,
) -> OracleCheckResult:
    """Train the V critic and the consistent Q critic against the exact oracle.

    Whole-batch updates with the reference hyperparameters, fresh uniform
    batches per update, early stop once well inside tolerance.
    """
    env = SwitchGame()
    m = env.spec.n_actions
    table = exact_action_values(env, uniform_policy(env))
    # The first step at joint actions (j, 0): V reads the state alone, and
    # counterfactual row (j, agent 1, u) is Q(s, (j, u)), so one stacked
    # forward of m * 2m rows covers all m^2 joint actions.
    base = np.stack([np.arange(m), np.zeros(m, dtype=np.int64)], axis=-1)
    first_step = (env.state_vector(0), env.observations(0), np.full(2, -1), base)

    results: dict[str, tuple[float, int]] = {}
    for algo in ("centralv", "coma-cc"):
        rng = np.random.default_rng(7)
        actor_cfg = ActorConfig(env.spec.obs_width, 2, m)
        layout = cr.layout_for(algo, env.spec.state_width, env.spec.obs_width, 2, m)
        inputs = cr.encode(layout, *first_step)
        trainer = Trainer.create(
            LearnConfig(algo=algo), actor_cfg, env.spec.state_width,
            np.random.default_rng(8), np.random.default_rng(9),
        )
        error = np.inf
        updates = 0
        for updates in range(1, max_updates + 1):
            b = uniform_switch_episodes(env, rng, batch)
            critic_update(trainer, b, critic_batch_inputs(b, algo))
            if updates % 25 == 0 or updates == max_updates:
                if algo == "centralv":
                    with ad.no_grad():
                        v = cr.critic_forward(trainer.critic, inputs[None]).data[0, 0]
                    error = abs(v - table.initial_value)
                else:
                    q = cr.counterfactual_values(trainer.critic, layout, inputs)[:, 1]
                    error = max(abs(q[joint] - table.action_values[(0, joint)])
                                for joint in itertools.product(range(m), repeat=2))
                if error < 0.6 * tol:
                    break
        results[algo] = (float(error), updates)
    return OracleCheckResult(
        v_error=results["centralv"][0], q_error=results["coma-cc"][0],
        v_updates=results["centralv"][1], q_updates=results["coma-cc"][1],
    )
