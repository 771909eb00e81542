"""Reverse-mode automatic differentiation on float64 numpy arrays.

A small tape-based engine sized for the networks in this repo: dense layers,
a GRU cell, masked softmax policies and squared-error critics. Design
constraints that shape the implementation:

* everything is float64, and forward passes are bit-deterministic;
* every forward matrix product goes through the one helper ``_rowwise``
  (shared by ``linear``, ``gru_unroll`` and ``policy.actor_cell``), which is
  row-exact: evaluating k stacked inputs yields bit-identical rows to k
  independent single-input calls -- several tests and the counterfactual
  critic rely on this. Its kernel follows from the shape alone: one gemm
  over all rows when the output is at least 8 wide, one gemv per row for
  the narrower heads (the rule, and the BLAS it was verified on, are in its
  docstring);
* gradients accumulate in a fixed topological order, so whole-batch
  training is reproducible down to the last bit.

Every node on the tape is a fused node: ``linear`` (a dense layer, used by
``mlp_forward``), ``relu``, ``gru_unroll``, ``policy.masked_epsilon_probs``
and the two losses, ``learn.critic_loss_tensor`` and ``learn.policy_loss``.
Each computes its forward in plain numpy with the grouping and order of the
elementwise ops it replaces, e.g. ``(x Wr + h Ur) + br``, and records one
node (``record``) whose hand-written backward reproduces the composed ops'
gradients bit for bit. The rule that makes this hold: a fused backward
passes each term that the composed graph would have sent to an input
through its own ``accumulate`` call, in the order the composed graph sent
it, and never pre-sums terms bound for the same input. Floating-point
addition is not associative, so ``g + (a + b)`` and ``(g + a) + b`` can
differ in the last bit. ``tests/reference.py`` keeps the composed versions
as oracles, with the broadcasting elementwise ops only they use.

The GRU has one function, ``gru_unroll``, and one cell kernel, ``_gru_cell``,
which the rollout's tape-free ``policy.actor_cell`` also calls. Its
parameters are always named ``gru.{w,u,b}{r,z,h}``.

Time-hoisted nodes take the R rows of each of T time steps at once,
time-major: ``linear`` with ``steps=T``, ``gru_unroll`` and
``learn.policy_loss``, which adds its per-step sums first step first.
Row-exactness lets every product that does not depend on the hidden state
run once over all T*R rows. Their backward equals a tape of T per-step nodes
bit for bit under one more rule: every product that tape takes per step is
one stacked ``np.matmul`` over the (T, R, .) view, never a flat product over
all rows, and the per-step terms bound for one parameter are added one step
at a time, in the per-step tape's order.

With gradients off, ``mlp_forward`` forwards an input of more than
``_BLOCK_ROWS`` rows one block of rows at a time, so the temporaries stay
small even for the B*T*n*m rows of the coma-cc counterfactual pass;
row-exactness keeps every row bit-identical. Taped forwards are never
blocked: the bits of a weight gradient ``x^T g`` depend on the row count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Tensor or parameter shapes do not line up."""


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


_grad_enabled: bool = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Skip graph construction; forward numerics are unchanged."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array with an optional gradient slot and backward closure."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self, seed: Array | None = None) -> None:
        """Accumulate gradients of this (scalar) node into every ancestor."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() needs a scalar output, got shape {self.data.shape}"
                )
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        accumulate(self, np.asarray(seed, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _data(x) -> Array:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def accumulate(t: Tensor, g: Array) -> None:
    """Add one gradient term into ``t.grad``; terms are summed in call order."""
    t.grad = g if t.grad is None else t.grad + g


def record(data: Array, parents: tuple, backward) -> Tensor:
    """A node on the tape when gradients are on and a parent is a Tensor;
    ``backward(g)`` must ``accumulate`` into the Tensor parents."""
    if _grad_enabled and any(isinstance(p, Tensor) for p in parents):
        tens = tuple(p for p in parents if isinstance(p, Tensor))
        return Tensor(data, tens, backward)
    return Tensor(data)


# Narrowest output width that ``_rowwise`` sends to one gemm over all rows.
_GEMM_MIN_WIDTH = 8


def _rowwise(xd: Array, wd: Array) -> Array:
    """``xd @ wd`` with row i bit-identical to the product of row i alone,
    whatever the number of rows. The kernel follows from the shape alone:

    * N >= ``_GEMM_MIN_WIDTH``: one gemm over all rows. A single row is
      stacked twice and row 0 kept, because numpy sends M = 1 to gemv.
    * narrower N: a stack of single-row products (one gemv per row).

    Plain gemm is not row-exact for every shape: it was not at M = 1, at
    N <= 3 with K >= 30 and at N = 4 with K = 128. The rule was verified on
    numpy 2.4 with OpenBLAS 0.3.31 (Haswell kernels, one and two threads),
    and ``tests/test_autodiff.py::TestRowExactKernel`` re-checks it at every
    shape the trainers use, so a BLAS that breaks it fails the suite.
    """
    if wd.shape[1] < _GEMM_MIN_WIDTH:
        return np.matmul(xd[:, None, :], wd)[:, 0, :]
    if xd.shape[0] == 1:
        return (np.concatenate((xd, xd)) @ wd)[:1]
    return np.ascontiguousarray(xd) @ wd


def _sum_steps(terms: Array, last_first: bool) -> Array:
    """Add ``terms[t]`` one step at a time, first step first or last step first.

    numpy's axis-0 sum of a C-ordered array adds its steps in that order
    whenever a step holds more than one element, and beats the loop from
    three steps on. It adds one-element steps pairwise, and so does a
    transposed array, so those keep the loop."""
    summed = len(terms) > 2 and terms[0].size > 1 and terms.flags.c_contiguous
    if last_first:
        terms = terms[::-1]
    if summed:
        return terms.sum(axis=0)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _steps_view(a: Array, steps: int) -> Array:
    """The (steps, R, width) view of time-major rows."""
    if a.ndim != 2 or a.shape[0] % steps:
        raise ShapeError(f"{a.shape[0]} rows do not split into {steps} steps")
    return a.reshape(steps, -1, a.shape[1])


def linear(x, w, b, steps: int = 1, last_first: bool = False) -> Tensor:
    """Dense layer ``x @ w + b`` as one node: row-exact product plus bias.
    With ``steps`` > 1, ``x`` holds the rows of ``steps`` time steps and the
    backward is that of one node per step, adding the weight and bias terms
    last step first when ``last_first``."""
    xd, wd, bd = _data(x), _data(w), _data(b)
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {xd.shape} @ {wd.shape}")
    x3 = _steps_view(xd, steps)
    out = _rowwise(xd, wd)
    out += bd

    def backward(g: Array) -> None:
        g3 = _steps_view(g, steps)
        if isinstance(x, Tensor):
            accumulate(x, np.matmul(g3, wd.T).reshape(xd.shape))
        if isinstance(w, Tensor):
            accumulate(w, _sum_steps(np.matmul(x3.transpose(0, 2, 1), g3), last_first))
        if isinstance(b, Tensor):
            accumulate(b, _sum_steps(g3.sum(axis=1), last_first).reshape(bd.shape))

    return record(out, (x, w, b), backward)


def relu(x) -> Tensor:
    xd = _data(x)
    out = np.maximum(xd, 0.0)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g * (xd > 0.0))

    return record(out, (x,), backward)


def _sigmoid(xd: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-xd))


# ---------------------------------------------------------------------------
# Parameter containers


class ParamSet:
    """Named parameter tensors; the name set is fixed and iteration ordered."""

    __slots__ = ("_params",)

    def __init__(self, params: Mapping[str, Tensor | Array]):
        self._params: dict[str, Tensor] = {
            name: value if isinstance(value, Tensor) else Tensor(value)
            for name, value in params.items()
        }

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.data.copy() for k, v in self._params.items()})

    def zero_grads(self) -> None:
        for tensor in self._params.values():
            tensor.grad = None

    def grad_set(self) -> "ParamSet":
        """Gradients as a ParamSet; parameters never touched read as zero."""
        return ParamSet(
            {
                k: (v.grad.copy() if v.grad is not None else np.zeros_like(v.data))
                for k, v in self._params.items()
            }
        )


def merge(*sets: ParamSet) -> ParamSet:
    out: dict[str, Tensor] = {}
    for ps in sets:
        for name, tensor in ps.items():
            if name in out:
                raise ValueError(f"duplicate parameter name {name!r}")
            out[name] = tensor
    return ParamSet(out)


@dataclass
class OptimizerState:
    """RMSProp squared-gradient accumulators, keyed like the parameters."""

    acc: dict[str, Array]


def rmsprop_init(params: ParamSet) -> OptimizerState:
    return OptimizerState(acc={k: np.zeros_like(v.data) for k, v in params.items()})


def check_rmsprop(lr: float, alpha: float, eps: float) -> None:
    """Reject hyperparameters outside finite lr > 0, 0 < alpha < 1, finite eps > 0."""
    if not (0.0 < lr < np.inf and 0.0 < alpha < 1.0 and 0.0 < eps < np.inf):
        raise ValueError(f"bad RMSProp hyperparameters lr={lr} alpha={alpha} eps={eps}")


def rmsprop_step(params: ParamSet, state: OptimizerState, lr: float, alpha: float,
                 eps: float) -> None:
    """One RMSProp update in place from each parameter's own ``.grad``:
    acc = a*acc + (1-a)*g^2, p = p - lr*g/sqrt(acc+eps). A parameter the
    backward never reached steps with g = 0. Every ``.grad`` is None after."""
    check_rmsprop(lr, alpha, eps)
    if params.names() != tuple(state.acc):
        raise ValueError(
            f"accumulator keys {tuple(state.acc)} do not match parameters {params.names()}"
        )
    for name, tensor in params.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        acc = state.acc[name]
        acc *= alpha
        acc += ((1.0 - alpha) * g) * g
        tensor.data -= (lr * g) / np.sqrt(acc + eps)
        tensor.grad = None


# ---------------------------------------------------------------------------
# Network building blocks


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


def mlp_init(
    rng: np.random.Generator, sizes: Sequence[int], prefix: str = ""
) -> ParamSet:
    """Dense stack with the given layer widths, uniform(+-1/sqrt(fan_in)) init."""
    if len(sizes) < 2:
        raise ValueError("mlp_init needs at least an input and an output width")
    params: dict[str, Array] = {}
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        params[f"{prefix}w{i}"] = _uniform(rng, (sizes[i], sizes[i + 1]), fan_in)
        params[f"{prefix}b{i}"] = _uniform(rng, (sizes[i + 1],), fan_in)
    return ParamSet(params)


# Rows per block of a no-grad ``mlp_forward``. A 1600-row coma-cc
# counterfactual pass ran fastest at 160 to 400 rows per block (timed at 40
# to 1600 in a plain process); unblocked it took about 1.5x as long. Each
# (256, 128) float64 temporary is 256 KiB.
_BLOCK_ROWS = 256


def mlp_forward(params: ParamSet, x) -> Tensor:
    """Forward through the dense stack w0, b0, w1, ...; ReLU between all but
    the final layer.

    With gradients off, an input of more than ``_BLOCK_ROWS`` rows runs one
    block of rows at a time into one output array; row-exactness keeps every
    row bit-identical. Taped forwards are never blocked."""
    n_layers = 0
    while f"w{n_layers}" in params:
        n_layers += 1
    if n_layers == 0:
        raise ValueError("no dense layers w0, b0, ... in params")
    xd = _data(x)
    expected = params["w0"].data.shape[0]
    if xd.ndim != 2 or xd.shape[1] != expected:
        raise ShapeError(
            f"mlp_forward: input shape {xd.shape} does not match first layer "
            f"width {expected}"
        )
    if _grad_enabled or xd.shape[0] <= _BLOCK_ROWS:
        return _dense_stack(params, x, n_layers)
    out = np.empty((xd.shape[0], params[f"w{n_layers - 1}"].data.shape[1]))
    for start in range(0, xd.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        out[block] = _dense_stack(params, xd[block], n_layers).data
    return Tensor(out)


def _dense_stack(params: ParamSet, x, n_layers: int) -> Tensor:
    h = x
    for i in range(n_layers):
        h = linear(h, params[f"w{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            h = relu(h)
    return h


# The GRU's parameter names: (W, U, b), each in gate order reset, update, candidate.
_GRU_NAMES = tuple(tuple(f"gru.{kind}{gate}" for gate in "rzh") for kind in "wub")


def gru_init(rng: np.random.Generator, in_dim: int, hidden: int) -> ParamSet:
    params: dict[str, Array] = {}
    for w, u, b in zip(*_GRU_NAMES):
        params[w] = _uniform(rng, (in_dim, hidden), in_dim)
        params[u] = _uniform(rng, (hidden, hidden), hidden)
        params[b] = _uniform(rng, (hidden,), hidden)
    return ParamSet(params)


def _gru_gates(params: ParamSet) -> tuple[tuple[Tensor, ...], ...]:
    """The GRU's (W, U, b) tensors, each in gate order: reset, update, candidate."""
    return tuple(tuple(params[name] for name in names) for names in _GRU_NAMES)


def _gru_cell(xw, hd: Array, u, b) -> tuple[Array, ...]:
    """One GRU step from its input products ``xw`` = (x Wr, x Wz, x Wh), on
    plain arrays: returns (r, z, r*h, c, h').

    reset    r = sigmoid(x Wr + h Ur + br)
    update   z = sigmoid(x Wz + h Uz + bz)
    cand     c = tanh(x Wh + (r*h) Uh + bh)
    next     h' = (1 - z) * h + z * c
    """
    r = _sigmoid((xw[0] + _rowwise(hd, u[0])) + b[0])
    z = _sigmoid((xw[1] + _rowwise(hd, u[1])) + b[1])
    rh = r * hd
    c = np.tanh((xw[2] + _rowwise(rh, u[2])) + b[2])
    return r, z, rh, c, (1.0 - z) * hd + z * c


def gru_unroll(params: ParamSet, x, steps: int) -> Tensor:
    """The GRU over ``steps`` time steps from a zero hidden state, as one node
    whose values and gradients equal a tape of ``steps`` chained GRU cells,
    each built from elementwise ops (``tests/reference.py``'s
    ``composed_gru_step``).

    ``x`` holds the input rows of every step and the output the hidden state
    after every step, time-major. Only the h U products run per step. The
    backward is one reverse loop: a step's hidden-state gradient is the
    output's term, then the next step's four terms in the composed graph's
    order; parameter terms are added last step first; the input gets its
    candidate, update and reset terms in that order. The per-step gate values
    the backward reads are kept only when the node is taped.
    """
    xd = _data(x)
    (wr, wz, wh), (ur, uz, uh), (br, bz, bh) = _gru_gates(params)
    u, b = (ur.data, uz.data, uh.data), (br.data, bz.data, bh.data)
    x3 = _steps_view(xd, steps)
    xw = [_steps_view(_rowwise(xd, w.data), steps) for w in (wr, wz, wh)]
    hs = np.zeros((steps + 1, x3.shape[1], ur.data.shape[0]))  # hs[t]: step t's input
    cells = []  # (r, z, r*h, c) of every step
    for t in range(steps):
        *cell, hs[t + 1] = _gru_cell([p[t] for p in xw], hs[t], u, b)
        if _grad_enabled:
            cells.append(cell)
    out = hs[1:].reshape(xd.shape[0], -1)

    def backward(g: Array) -> None:
        g3 = _steps_view(g, steps)
        pre = np.empty((3, *g3.shape))  # reset, update, candidate; per step
        terms: tuple[Array, ...] = ()
        for t in range(steps - 1, -1, -1):
            g_t = g3[t]
            for term in terms:
                g_t = g_t + term
            r, z, _, c = cells[t]
            # Pre-activation gradients and that of r*h, grouped as the
            # composed graph groups them.
            g_cpre = (g_t * z) * (1.0 - c * c)
            g_rh = g_cpre @ u[2].T
            pre[0, t] = ((g_rh * hs[t]) * r) * (1.0 - r)
            pre[1, t] = ((g_t * c - g_t * hs[t]) * z) * (1.0 - z)
            pre[2, t] = g_cpre
            if t:
                # The four terms this step sends its input hidden state, each
                # separately and in the composed graph's order.
                terms = (g_t * (1.0 - z), pre[1, t] @ u[1].T, g_rh * r, pre[0, t] @ u[0].T)
        states = hs[:-1].transpose(0, 2, 1)
        rhs = np.stack([cell[2] for cell in cells]).transpose(0, 2, 1)
        for gp, w, uu, bb, h_in in zip(pre, (wr, wz, wh), (ur, uz, uh), (br, bz, bh),
                                       (states, states, rhs)):
            accumulate(w, _sum_steps(np.matmul(x3.transpose(0, 2, 1), gp), True))
            accumulate(uu, _sum_steps(np.matmul(h_in, gp), True))
            accumulate(bb, _sum_steps(gp.sum(axis=1), True))
        # Each term separately and in the composed graph's order.
        if isinstance(x, Tensor):
            for w, gp in ((wh, pre[2]), (wz, pre[1]), (wr, pre[0])):
                accumulate(x, np.matmul(gp, w.data.T).reshape(xd.shape))

    return record(out, (x, wr, ur, br, wz, uz, bz, wh, uh, bh), backward)


# ---------------------------------------------------------------------------
# Finite-difference verification


def finite_diff_check(
    loss: Callable[[ParamSet], Tensor],
    params: ParamSet,
    step: float = 1e-5,
) -> float:
    """The largest relative error of reverse-mode gradients of a scalar loss
    against central differences, over every parameter scalar.

    Relative error per scalar is |fd - ad| / max(|fd|, |ad|, 1e-8). The loss
    callable must be deterministic; it is re-evaluated twice per parameter
    scalar.
    """
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")
    params.zero_grads()
    out = loss(params)
    if out.data.size != 1 or not np.isfinite(out.data).all():
        raise NumericError("loss must be a finite scalar")
    out.backward()
    analytic = params.grad_set()

    worst = 0.0
    with no_grad():
        for name, tensor in params.items():
            flat = tensor.data.reshape(-1)
            an = analytic[name].data.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + step
                f_plus = float(loss(params).data)
                flat[i] = saved - step
                f_minus = float(loss(params).data)
                flat[i] = saved
                fd = (f_plus - f_minus) / (2.0 * step)
                worst = max(worst, abs(fd - an[i]) / max(abs(fd), abs(an[i]), 1e-8))
    return worst
