"""Reference implementations kept only as test oracles.

The composed dense stack, GRU cell, masked epsilon-softmax and the two
losses build their graphs from elementwise autodiff ops, one tape node per
op; the fused nodes in ``sopac`` must match them bit for bit, forward and
backward, and the rollout's forward-only ``actor_cell`` must match the
composed cell's forward. The ops that only these compositions use
(``add``, ``sub``, ``mul``, ``div``, ``log``, ``square``, ``sigmoid``,
``tanh``, ``exp``, ``matmul``, ``sum_all``, ``sum_last``, ``gather_last``
and their ``_unbroadcast``) live here, on the engine's tape helpers.
``critic_loss_terms`` and ``policy_loss_terms`` are the per-row loss terms
of ``composed_critic_loss`` and ``composed_policy_loss``, which
``learn.critic_loss_tensor`` and ``learn.policy_loss`` must match bit for
bit. ``stepwise_unroll`` and ``stepwise_policy_loss`` are the per-step taped
actor replay and policy loss, built from the composed actor cell and seven
loss nodes per step, that the hoisted ``learn.unroll_policy`` and
``learn.policy_loss`` must match bit for bit. The scalar
return, advantage and KL formulas are the per-step definitions that the
batched code in ``sopac`` vectorises, ``td_lambda_loop`` is the one-episode
backward recursion that the batched TD(lambda) targets must reproduce,
``td_lambda_targets`` runs those batched targets on one episode (acceptance
criterion 6), ``comacc_q`` is the one-row critic
call that the stacked counterfactual pass must reproduce,
``params_equal`` compares two parameter sets bit for bit,
``capture_observations`` and ``capture_avail_actions`` are the cell-by-cell
loops that ``CaptureGrid``'s feature tables must reproduce bit for bit, and
``reference_transitions`` is the tuple-arithmetic capture dynamics that
``CaptureGrid``'s per-cell move, prey and adjacency tables must reproduce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sopac import autodiff as ad
from sopac import critic as cr
from sopac import learn
from sopac.autodiff import Tensor, _data, _rowwise, _sigmoid, _sum_steps, accumulate, record
from sopac.envs import _MOVES, CaptureGrid, GridKey
from sopac.learn import Batch, actor_step_inputs
from sopac.policy import ActorConfig, MaskError
from sopac.sop import kl_estimator_term

Array = np.ndarray


# ---------------------------------------------------------------------------
# Elementwise ops used only by the composed networks and losses


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = ad + bd

    def backward(g: Array) -> None:
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g, ad.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g, bd.shape))

    return record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = ad - bd

    def backward(g: Array) -> None:
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g, ad.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(-g, bd.shape))

    return record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = ad * bd

    def backward(g: Array) -> None:
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g * bd, ad.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g * ad, bd.shape))

    return record(out, (a, b), backward)


def matmul(x, w) -> Tensor:
    """2-D matrix product ``(k, n) @ (n, m)`` with row-exact batching."""
    xd, wd = _data(x), _data(w)
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ad.ShapeError(f"matmul: incompatible shapes {xd.shape} @ {wd.shape}")
    out = _rowwise(xd, wd)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g @ wd.T)
        if isinstance(w, Tensor):
            accumulate(w, xd.T @ g)

    return record(out, (x, w), backward)


def div(a, b) -> Tensor:
    da, db = _data(a), _data(b)
    out = da / db

    def backward(g: Array) -> None:
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g / db, da.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(-g * da / (db * db), db.shape))

    return record(out, (a, b), backward)


def sigmoid(x) -> Tensor:
    xd = _data(x)
    out = _sigmoid(xd)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g * out * (1.0 - out))

    return record(out, (x,), backward)


def tanh(x) -> Tensor:
    xd = _data(x)
    out = np.tanh(xd)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g * (1.0 - out * out))

    return record(out, (x,), backward)


def exp(x) -> Tensor:
    xd = _data(x)
    out = np.exp(xd)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g * out)

    return record(out, (x,), backward)


def log(x) -> Tensor:
    xd = _data(x)
    out = np.log(xd)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g / xd)

    return record(out, (x,), backward)


def square(x) -> Tensor:
    xd = _data(x)
    out = xd * xd

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g * 2.0 * xd)

    return record(out, (x,), backward)


def sum_all(x, steps: int = 1) -> Tensor:
    """Sum of every entry. With ``steps`` > 1 the rows are ``steps`` equal
    blocks, time-major: each block is summed alone and the block sums are
    added first block first, as a tape of one sum per step adds them."""
    xd = _data(x)
    out = np.asarray(_sum_steps(xd.reshape(steps, -1).sum(axis=1), last_first=False))

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, np.broadcast_to(g, xd.shape).copy())

    return record(out, (x,), backward)


def gather_last(x, index) -> Tensor:
    """Pick ``x[i, index[i]]`` per row of a 2-D tensor; returns shape (k, 1)."""
    xd = _data(x)
    idx = np.asarray(index, dtype=np.int64).reshape(-1, 1)
    if xd.ndim != 2 or idx.shape[0] != xd.shape[0]:
        raise ad.ShapeError(f"gather_last: x {xd.shape} vs index {idx.shape}")
    out = np.take_along_axis(xd, idx, axis=1)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            gx = np.zeros_like(xd)
            np.put_along_axis(gx, idx, g, axis=1)
            accumulate(x, gx)

    return record(out, (x,), backward)


def sum_last(x) -> Tensor:
    """Sum over the last axis, keeping it as size 1."""
    xd = _data(x)
    out = xd.sum(axis=-1, keepdims=True)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, np.broadcast_to(g, xd.shape).copy())

    return record(out, (x,), backward)


# ---------------------------------------------------------------------------
# Composed networks


def composed_mlp_forward(params: ad.ParamSet, x, prefix: str = "") -> ad.Tensor:
    n_layers = 0
    while f"{prefix}w{n_layers}" in params:
        n_layers += 1
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x, dtype=np.float64))
    for i in range(n_layers):
        h = add(matmul(h, params[f"{prefix}w{i}"]), params[f"{prefix}b{i}"])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


def composed_gru_step(params: ad.ParamSet, x, h) -> ad.Tensor:
    p = {name: params[f"gru.{name}"]
         for name in ("wr", "ur", "br", "wz", "uz", "bz", "wh", "uh", "bh")}
    r = sigmoid(add(add(matmul(x, p["wr"]), matmul(h, p["ur"])), p["br"]))
    z = sigmoid(add(add(matmul(x, p["wz"]), matmul(h, p["uz"])), p["bz"]))
    c = tanh(add(add(matmul(x, p["wh"]), matmul(mul(r, h), p["uh"])),
                       p["bh"]))
    return add(mul(sub(1.0, z), h), mul(z, c))


def composed_masked_epsilon_probs(logits, avail: Array, epsilon) -> ad.Tensor:
    avail = np.asarray(avail, dtype=np.float64)
    counts = avail.sum(axis=-1, keepdims=True)
    if (counts < 1.0).any():
        raise MaskError("a row masks out every action")
    logits_data = logits.data if isinstance(logits, ad.Tensor) else np.asarray(logits)
    shift = np.max(np.where(avail > 0.0, logits_data, -np.inf), axis=-1, keepdims=True)
    z = mul(exp(mul(sub(logits, shift), avail)), avail)
    soft = div(z, sum_last(z))
    eps = np.asarray(epsilon, dtype=np.float64)
    return add(mul(soft, 1.0 - eps), (eps / counts) * avail)


# ---------------------------------------------------------------------------
# Composed losses


def critic_loss_terms(params: ad.ParamSet, inputs: Array, targets: Array,
                      weights: Array, actions: Array | None) -> Tensor:
    """One weighted squared error per row of ``targets``, in its order; the
    m-headed critic's prediction is gathered at the taken ``actions``."""
    pred = cr.critic_forward(params, inputs.reshape(-1, inputs.shape[-1]))
    if actions is not None:
        pred = gather_last(pred, actions.reshape(-1))
    diff = sub(targets.reshape(-1, 1), pred)
    return mul(square(diff), weights.reshape(-1, 1))


def composed_critic_loss(params: ad.ParamSet, inputs: Array, targets: Array,
                         weights: Array, actions: Array | None) -> Tensor:
    """``learn.critic_loss_tensor`` from elementwise ops."""
    return sum_all(critic_loss_terms(params, inputs, targets, weights, actions))


def policy_loss_terms(batch: Batch, advantages: Array, probs: Tensor) -> Tensor:
    """(T*B*n, 1) terms log pi(u_t^a | tau_t^a) * A of every (t, b, a) row,
    time-major; padded rows are exactly zero."""
    b, t_max, n, m = batch.dists.shape
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != (b, t_max, n):
        raise ValueError(f"advantages shape {advantages.shape} != {(b, t_max, n)}")
    pad = np.repeat(batch.pad.T, n, axis=1).reshape(-1, 1)
    p = gather_last(probs, batch.actions.swapaxes(0, 1).reshape(-1))
    p_safe = add(mul(p, pad), 1.0 - pad)  # padded rows read log(1) = 0
    weight = advantages.swapaxes(0, 1).reshape(-1, 1) * pad
    return mul(log(p_safe), weight)


def composed_policy_loss(batch: Batch, advantages: Array, probs: Tensor) -> Tensor:
    """``learn.policy_loss`` from elementwise ops: the terms summed per step,
    the step sums added first step first, then negated."""
    terms = policy_loss_terms(batch, advantages, probs)
    return mul(sum_all(terms, batch.max_length), -1.0)


# ---------------------------------------------------------------------------
# The per-step actor unroll and policy loss


def stepwise_unroll(params: ad.ParamSet, cfg: ActorConfig, batch: Batch) -> list[Tensor]:
    """Per-step acting distributions over the batch, each episode's rows
    floored by its stored epsilon: per step, the actor cell composed from
    elementwise ops (dense fc1, ReLU, GRU cell, dense fc2) and one masked
    epsilon-softmax node, read through ``learn`` so that
    ``test_fused.composed_nodes()`` swaps it for the composed graph."""
    b, t_max, n, m = batch.dists.shape
    if not ((batch.epsilons >= 0.0) & (batch.epsilons <= 1.0)).all():
        raise ValueError("stored epsilons must lie in [0, 1]")
    inputs = actor_step_inputs(batch, cfg)
    eps = np.repeat(batch.epsilons, n)[:, None]  # (b * n, 1), episode-major
    hidden: Tensor | Array = np.zeros((b * n, cfg.gru_hidden))
    probs: list[Tensor] = []
    for t in range(t_max):
        z = ad.relu(composed_mlp_forward(params, inputs[t], prefix="fc1."))
        hidden = composed_gru_step(params, z, hidden)
        logits = composed_mlp_forward(params, hidden, prefix="fc2.")
        avail_t = batch.avail[:, t].reshape(b * n, m)
        probs.append(learn.masked_epsilon_probs(logits, avail_t, eps))
    return probs


def stepwise_policy_loss(batch: Batch, advantages: Array, probs: Sequence[Tensor]) -> Tensor:
    """-sum over valid (t, a) of log pi(u_t^a | tau_t^a) * A, padding-masked,
    with seven nodes per step; ``probs`` is a taped ``stepwise_unroll``."""
    b, t_max, n, m = batch.dists.shape
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != (b, t_max, n):
        raise ValueError(f"advantages shape {advantages.shape} != {(b, t_max, n)}")
    pad_rows = np.repeat(batch.pad, n, axis=0).reshape(b, n, t_max)
    total: Tensor | None = None
    for t in range(t_max):
        taken = batch.actions[:, t].reshape(-1)
        p = gather_last(probs[t], taken)
        pad_t = pad_rows[:, :, t].reshape(b * n, 1)
        p_safe = add(mul(p, pad_t), 1.0 - pad_t)  # padded rows read log(1) = 0
        weight = (advantages[:, t, :].reshape(b * n, 1)) * pad_t
        term = sum_all(mul(log(p_safe), weight))
        total = term if total is None else add(total, term)
    return mul(total, -1.0)


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


def td_lambda_loop(rewards: Array, boots: Array, lam: float, gamma: float) -> Array:
    """TD(lambda) targets of one episode by the backward recursion
    y[t] = r[t] + gamma * ((1 - lam) * boot[t + 1] + lam * y[t + 1]), y = r
    at the last step; ``rewards`` broadcast over ``boots``' trailing axes."""
    rewards = np.broadcast_to(rewards.reshape(-1, *([1] * (boots.ndim - 1))), boots.shape)
    out = np.zeros_like(boots)
    out[-1] = rewards[-1]
    for t in range(len(boots) - 2, -1, -1):
        out[t] = rewards[t] + gamma * ((1.0 - lam) * boots[t + 1] + lam * out[t + 1])
    return out


def td_lambda_targets(rewards: Array, boot_values: Array, lam: float, gamma: float) -> Array:
    """TD(lambda) targets of one finite episode: ``learn.batch_td_lambda_targets``
    over a batch of one, so every check of this wrapper checks the batched
    recursion that training runs."""
    rewards = np.asarray(rewards, dtype=np.float64)
    boot = np.asarray(boot_values, dtype=np.float64)
    if boot.shape[0] != rewards.shape[0]:
        raise ValueError("need one target-network value per step")
    return learn.batch_td_lambda_targets(rewards[None], boot[None], np.asarray([len(rewards)]),
                                         lam, gamma)[0]


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


def coma_advantage(values: Array, taken: Array, dists: Array) -> Array:
    """Per-agent advantage from an (n, m) counterfactual table: the taken
    action's value minus the policy-weighted counterfactual baseline."""
    values = np.asarray(values, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    if dists.shape != values.shape:
        raise ValueError(f"dists {dists.shape} vs table {values.shape}")
    taken_values = values[np.arange(values.shape[0]), taken]
    return taken_values - np.einsum("am,am->a", dists, values)


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
# One-row critic calls


def comacc_q(params: ad.ParamSet, layout: cr.CriticInputLayout, state: Array,
             obs: Array, prev_actions: Array, actions: Array) -> float:
    """Q(s, u) of one step from a forward of its ``encode``d row alone;
    ``prev_actions`` is -1 throughout at an episode's first step."""
    row = cr.encode(layout, state, obs, prev_actions, actions)
    with ad.no_grad():
        return float(cr.critic_forward(params, row.reshape(1, -1)).data[0, 0])


# ---------------------------------------------------------------------------
# Parameter sets


def params_equal(a: ad.ParamSet, b: ad.ParamSet) -> bool:
    """Same names in the same order, and bit-identical values."""
    return a.names() == b.names() and all(
        np.array_equal(a[k].data, b[k].data) for k in a.names()
    )


# ---------------------------------------------------------------------------
# Capture features, one cell at a time


def capture_observations(env: CaptureGrid, key: GridKey) -> Array:
    """(n, obs_width): per agent, its (self, ally, prey, wall) window of side
    2r + 1 flattened channel-major, then its one-hot id and its normalised
    (row, column)."""
    agents, prey, _ = key
    c = env.config
    r = c.view_radius
    span = 2 * r + 1
    denom = float(c.side - 1)
    obs = np.zeros((c.n_agents, env.spec.obs_width), dtype=np.float64)
    for a, (ar, ac) in enumerate(agents):
        window = np.zeros((4, span, span), dtype=np.float64)
        for dr in range(-r, r + 1):
            for dc in range(-r, r + 1):
                rr, cc = ar + dr, ac + dc
                wr, wc = dr + r, dc + r
                if not (0 <= rr < c.side and 0 <= cc < c.side):
                    window[3, wr, wc] = 1.0  # wall
                    continue
                if (rr, cc) == (ar, ac):
                    window[0, wr, wc] = 1.0  # self
                if any(i != a and agents[i] == (rr, cc) for i in range(c.n_agents)):
                    window[1, wr, wc] = 1.0  # ally
                if prey == (rr, cc):
                    window[2, wr, wc] = 1.0
        flat = window.reshape(-1)
        one_hot = np.zeros(c.n_agents)
        one_hot[a] = 1.0
        coords = np.asarray([ar / denom, ac / denom])
        obs[a] = np.concatenate([flat, one_hot, coords])
    return obs


def capture_avail_actions(env: CaptureGrid, key: GridKey) -> Array:
    """(n, 5) booleans: a move is available when its target cell is on the grid."""
    agents, _, _ = key
    side = env.config.side
    avail = np.zeros((env.config.n_agents, 5), dtype=bool)
    for a, (ar, ac) in enumerate(agents):
        for m, (dr, dc) in enumerate(_MOVES):
            rr, cc = ar + dr, ac + dc
            avail[a, m] = 0 <= rr < side and 0 <= cc < side
    return avail


def reference_transitions(env: CaptureGrid, key: GridKey, joint_action) -> list:
    """Outcomes of ``env.transitions``, with every move target, bound check,
    prey option and adjacency recomputed from cell coordinates."""
    c = env.config
    agents, prey, t = key
    targets = [
        (agents[i][0] + _MOVES[a][0], agents[i][1] + _MOVES[a][1])
        for i, a in enumerate(joint_action)
    ]
    occupied = set(agents)
    out: list = []
    for i, target in enumerate(targets):
        contested = any(j != i and targets[j] == target for j in range(len(targets)))
        blocked = (
            target == prey
            or (target != agents[i] and target in occupied)
            or contested
        )
        out.append(agents[i] if blocked else target)
    moved = tuple(out)
    if c.prey == "walk":
        options = []
        for dr, dc in _MOVES:
            cell = (prey[0] + dr, prey[1] + dc)
            if 0 <= cell[0] < c.side and 0 <= cell[1] < c.side and cell not in moved:
                options.append(cell)
        options = options or [prey]
        outcomes = [(cell, 1.0 / len(options)) for cell in options]
    else:
        outcomes = [(prey, 1.0)]
    result = []
    for new_prey, prob in outcomes:
        if all(abs(a[0] - new_prey[0]) + abs(a[1] - new_prey[1]) == 1 for a in moved):
            reward, terminal, win = float(c.capture_reward), True, True
        else:
            reward, terminal, win = float(c.step_penalty), t + 1 >= c.horizon, False
        result.append(((moved, new_prey, t + 1), reward, terminal, win, prob))
    return result
