"""Episode generation: exploratory rollouts and greedy evaluation runs.

:func:`rollout_episodes` plays a group of episodes of one stateless env in
lockstep. Every step makes one stacked actor forward over the n agent rows of
every episode still running, then one ``policy.select_actions`` draw over
their acting distributions; only ``env.step`` runs once per episode. The
rollout only acts: ``actor_cell`` is forward only on plain arrays, so a
rollout records nothing in any gradient mode, and a step whose acting
distribution is not finite raises ``NumericError``. Each episode is its env key
plus two seeded generators: the env generator makes the env's draws, the
action generator one uniform per agent per step. So row-exact batching in
the autodiff core makes each stored episode bit-identical to playing it alone
(a group of one), and to the padded replay of ``learn.unroll_policy``, which
runs all steps of a batch in one hoisted pass where the rollout runs one
``actor_cell`` per step. A group comes back as one ``learn.Batch``; each
episode stores its acting distributions and the one epsilon it ran with, so
that replay can re-evaluate it exactly later.

One seed rule serves training and evaluation: episode g of stream s under
seed S seeds its env and action generators with words 0 and 1 of
``SeedSequence(S, spawn_key=(s, g)).generate_state(2)`` and stores g as its
generation. The sampler plays stream 1 of the run seed, ``harness.evaluate``
stream 2 of its evaluation seed.

Exploration is fixed once per sampler request: every episode of a request
runs with ``epsilon_at(S)``, where S is the env-step count when the request
starts, so every request plays as one lockstep group.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .learn import Batch
from .policy import (ActorConfig, EpsilonSchedule, actor_cell, actor_inputs, epsilon_at,
                     masked_epsilon_probs, select_actions)

Array = np.ndarray


def rollout_episodes(
    env,
    count: int,
    params: ad.ParamSet,
    cfg: ActorConfig,
    epsilon: float,
    seed: int,
    stream: int,
    first: int = 0,
    mode: str = "sample",
) -> Batch:
    """Play ``count`` episodes of ``env`` in lockstep, every step of every
    episode with exploration floor ``epsilon``, and return them as one batch.
    Finished episodes drop out of the stack; ``env`` itself is never modified.

    Episode j seeds its env generator and its action generator with words 0
    and 1 of ``SeedSequence(seed, spawn_key=(stream, first + j))`` and stores
    ``first + j`` as its generation.
    """
    if count < 1:
        raise ValueError("need at least one episode")
    n = cfg.n_agents
    words = [np.random.SeedSequence(seed, spawn_key=(stream, first + j)).generate_state(2)
             for j in range(count)]
    env_rngs = [np.random.default_rng(int(w[0])) for w in words]
    action_rngs = [np.random.default_rng(int(w[1])) for w in words]
    keys = [env.reset(rng) for rng in env_rngs]
    # per step: the live episodes, then their states, obs, avail, actions,
    # rewards and dists
    record: list[tuple] = []
    lengths = np.zeros(count, dtype=np.int64)
    wins = np.zeros(count, dtype=bool)
    actions = np.full((count, n), -1)  # each live episode's previous actions
    hidden = np.zeros((count * n, cfg.gru_hidden))
    live = list(range(count))
    while live:
        rows = len(live) * n
        obs = np.array([env.observations(keys[i]) for i in live])
        avail = np.array([env.avail_actions(keys[i]) for i in live], dtype=np.float64)
        x = actor_inputs(cfg, obs, actions).reshape(rows, -1)
        logits, hidden = actor_cell(params, x, hidden)
        dist = masked_epsilon_probs(
            logits, avail.reshape(rows, -1), epsilon).data.reshape(len(live), n, -1)
        if not np.isfinite(dist).all():
            raise ad.NumericError("acting distribution is not finite")
        actions = select_actions(dist, mode, [action_rngs[i] for i in live])
        states = np.array([env.state_vector(keys[i]) for i in live])
        rewards, still = np.zeros(len(live)), []
        for j, i in enumerate(live):
            keys[i], rewards[j], terminal, wins[i] = env.step(keys[i], actions[j], env_rngs[i])
            if not terminal:
                still.append(j)
        record.append((live, states, obs, avail, actions, rewards, dist))
        lengths[live] += 1
        if len(still) < len(live):
            hidden = hidden.reshape(len(live), n, -1)[still].reshape(-1, cfg.gru_hidden)
            actions = actions[still]
            live = [live[j] for j in still]

    steps = [np.zeros((count, len(record), *v.shape[1:]), v.dtype) for v in record[0][1:]]
    steps[2][:] = 1.0  # padded steps stay all-available
    for t, (ids, *values) in enumerate(record):
        for array, value in zip(steps, values):
            array[ids, t] = value
    return Batch(*steps, np.full(count, float(epsilon)), lengths,
                 np.arange(first, first + count), wins)


def sample_episode_fn(
    env, cfg: ActorConfig, schedule: EpsilonSchedule, master_seed: int,
) -> Callable:
    """Build the seeded episode sampler used by the training loops.

    ``sample(params, count)`` plays the next ``count`` episodes with one set
    of parameters, as one lockstep group. Episode k is episode k of stream 1
    of ``master_seed`` whichever training mode requests it, so on-policy and
    semi-on-policy runs see identical rollouts whenever they request them in
    the same order.

    Every episode of a request runs with ``epsilon_at(S)``, where S is
    ``counter["env_steps"]`` when the request starts; the request then
    advances S by the summed lengths of its episodes.
    """
    counter = {"rollouts": 0, "env_steps": 0}

    def sample(params: ad.ParamSet, count: int) -> Batch:
        batch = rollout_episodes(
            env, count, params, cfg, epsilon_at(counter["env_steps"], schedule),
            master_seed, stream=1, first=counter["rollouts"])
        counter["env_steps"] += int(batch.lengths.sum())
        counter["rollouts"] += count
        return batch

    sample.counter = counter  # type: ignore[attr-defined]
    return sample
