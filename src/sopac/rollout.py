"""Episode generation: exploratory rollouts and greedy evaluation runs.

Rollouts stack the n agents into one forward pass per step, which (thanks to
row-exact batching in the autodiff core) produces distributions bit-identical
to the padded replay of ``learn.unroll_policy``. Each episode stores the
acting distributions and the epsilon in force at every step, so that replay
can re-evaluate stale episodes exactly later.
"""

from __future__ import annotations

from typing import Callable

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


def rollout_episode(
    env,
    params: ad.ParamSet,
    cfg: ActorConfig,
    schedule: EpsilonSchedule,
    env_steps_done: int,
    env_seed: int,
    action_rng: np.random.Generator,
    generation: int,
    mode: str = "sample",
) -> Episode:
    """Play one episode; epsilon follows the global environment-step counter."""
    n = cfg.n_agents
    state, obs, avail = env.reset(env_seed)
    hidden: Array | ad.Tensor = np.zeros((n, cfg.gru_hidden))
    prev_actions = [-1] * n

    states, all_obs, all_avail, all_actions = [], [], [], []
    rewards, all_dists, epsilons = [], [], []
    terminal = False
    win = False
    t = 0
    while not terminal:
        eps = epsilon_at(env_steps_done + t, schedule) if mode == "sample" else 0.0
        with ad.no_grad():
            logits, hidden = actor_cell(params, actor_inputs(cfg, obs, prev_actions), hidden)
            dist = masked_epsilon_probs(logits, avail.astype(np.float64), eps).data
        actions = [
            select_action(dist[a], mode, action_rng) for a in range(n)
        ]
        result = env.step(actions)

        states.append(state)
        all_obs.append(obs)
        all_avail.append(avail.astype(np.float64))
        all_actions.append(actions)
        rewards.append(result.reward)
        all_dists.append(dist)
        epsilons.append(eps)

        state, obs, avail = result.state, result.obs, result.avail
        terminal, win = result.terminal, result.win
        prev_actions = actions
        t += 1

    episode = Episode(
        states=np.asarray(states),
        obs=np.asarray(all_obs),
        avail=np.asarray(all_avail),
        actions=np.asarray(all_actions, dtype=np.int64),
        rewards=np.asarray(rewards),
        dists=np.asarray(all_dists),
        epsilons=np.asarray(epsilons),
        generation=generation,
        win=win,
    )
    return episode


def sample_episode_fn(
    env, cfg: ActorConfig, schedule: EpsilonSchedule, master_seed: int,
) -> Callable:
    """Build the seeded episode sampler used by the training loops.

    Episode k always draws the same (env seed, action stream) regardless of
    which training mode requests it, so on-policy and semi-on-policy runs see
    identical rollouts whenever they request them in the same order.
    """
    counter = {"rollouts": 0, "env_steps": 0}

    def sample(params: ad.ParamSet) -> Episode:
        k = counter["rollouts"]
        seq = np.random.SeedSequence(master_seed, spawn_key=(1, k))
        env_seed, action_seed = (int(s) for s in seq.generate_state(2))
        episode = rollout_episode(
            env, params, cfg, schedule,
            env_steps_done=counter["env_steps"],
            env_seed=env_seed,
            action_rng=np.random.default_rng(action_seed),
            generation=k,
        )
        counter["rollouts"] += 1
        counter["env_steps"] += episode.length
        return episode

    sample.counter = counter  # type: ignore[attr-defined]
    return sample
