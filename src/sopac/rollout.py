"""Episode generation: exploratory rollouts and greedy evaluation runs.

:func:`rollout_episodes` plays a group of episodes in lockstep, one env
instance each: every step makes one stacked actor forward over the n agent
rows of every episode still running. Each episode keeps its own env and its
own seeded action generator, so row-exact batching in the autodiff core
makes each stored episode bit-identical to playing it alone, and to the
padded replay of ``learn.unroll_policy``. A group of one is the sequential
case. Each episode stores its acting distributions and the one epsilon it
ran with, so that replay can re-evaluate stale episodes exactly later.

Exploration is fixed once per sampler request: every episode of a request
runs with ``epsilon_at(S)``, where S is the env-step count when the request
starts, so every request plays as one lockstep group.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .learn import Episode
from .policy import (
    ActorConfig,
    EpsilonSchedule,
    actor_cell,
    actor_inputs,
    epsilon_at,
    masked_epsilon_probs,
    select_action,
)

Array = np.ndarray


def rollout_episodes(
    envs: Sequence,
    params: ad.ParamSet,
    cfg: ActorConfig,
    epsilon: float,
    env_seeds: Sequence[int],
    action_rngs: Sequence[np.random.Generator],
    generations: Sequence[int],
    mode: str = "sample",
) -> list[Episode]:
    """Play one episode on each env in lockstep, every step of every episode
    with exploration floor ``epsilon``. Finished episodes drop out of the
    stack.
    """
    k, n = len(envs), cfg.n_agents
    if not k == len(env_seeds) == len(action_rngs) == len(generations):
        raise ValueError("one env, seed, generator and generation per episode")
    records = [{"states": [], "obs": [], "avail": [], "actions": [],
                "rewards": [], "dists": []} for _ in range(k)]
    wins = [False] * k
    current = [env.reset(seed) for env, seed in zip(envs, env_seeds)]
    prev_actions = [[-1] * n for _ in range(k)]
    hidden: Array | ad.Tensor = np.zeros((k * n, cfg.gru_hidden))
    live = list(range(k))
    while live:
        rows = len(live) * n
        obs = np.array([current[i][1] for i in live])
        avail = np.array([current[i][2] for i in live], dtype=np.float64)
        with ad.no_grad():
            x = actor_inputs(cfg, obs, [prev_actions[i] for i in live]).reshape(rows, -1)
            logits, hidden = actor_cell(params, x, hidden)
            dist = masked_epsilon_probs(
                logits, avail.reshape(rows, -1), epsilon).data.reshape(len(live), n, -1)

        still = []
        for j, i in enumerate(live):
            actions = [select_action(dist[j, a], mode, action_rngs[i]) for a in range(n)]
            result = envs[i].step(actions)
            record = records[i]
            record["states"].append(current[i][0])
            record["obs"].append(obs[j])
            record["avail"].append(avail[j])
            record["actions"].append(actions)
            record["rewards"].append(result.reward)
            record["dists"].append(dist[j])
            current[i] = (result.state, result.obs, result.avail)
            prev_actions[i] = actions
            wins[i] = result.win
            if not result.terminal:
                still.append(j)
        if len(still) < len(live):
            keep = (np.asarray(still, dtype=np.int64)[:, None] * n + np.arange(n)).reshape(-1)
            hidden = hidden.data[keep]
            live = [live[j] for j in still]

    return [
        Episode(
            states=np.asarray(r["states"]),
            obs=np.asarray(r["obs"]),
            avail=np.asarray(r["avail"]),
            actions=np.asarray(r["actions"], dtype=np.int64),
            rewards=np.asarray(r["rewards"]),
            dists=np.asarray(r["dists"]),
            epsilon=epsilon,
            generation=g,
            win=w,
        )
        for r, g, w in zip(records, generations, wins)
    ]


def sample_episode_fn(
    env, cfg: ActorConfig, schedule: EpsilonSchedule, master_seed: int,
) -> Callable:
    """Build the seeded episode sampler used by the training loops.

    ``sample(params, count)`` plays the next ``count`` episodes with one set
    of parameters, as one lockstep group. Episode k always draws the same
    (env seed, action stream) regardless of which training mode requests it,
    so on-policy and semi-on-policy runs see identical rollouts whenever they
    request them in the same order.

    Every episode of a request runs with ``epsilon_at(S)``, where S is
    ``counter["env_steps"]`` when the request starts; the request then
    advances S by the summed lengths of its episodes.
    """
    counter = {"rollouts": 0, "env_steps": 0}
    envs = [env]

    def sample(params: ad.ParamSet, count: int) -> list[Episode]:
        if count < 1:
            raise ValueError("need at least one episode")
        first = counter["rollouts"]
        while len(envs) < count:
            envs.append(copy.deepcopy(env))
        seeds = [np.random.SeedSequence(master_seed, spawn_key=(1, first + j)).generate_state(2)
                 for j in range(count)]
        episodes = rollout_episodes(
            envs[:count], params, cfg, epsilon_at(counter["env_steps"], schedule),
            env_seeds=[int(s[0]) for s in seeds],
            action_rngs=[np.random.default_rng(int(s[1])) for s in seeds],
            generations=list(range(first, first + count)),
        )
        counter["env_steps"] += sum(e.length for e in episodes)
        counter["rollouts"] += count
        return episodes

    sample.counter = counter  # type: ignore[attr-defined]
    return sample
