"""Reverse-mode automatic differentiation on float64 numpy arrays.

A small tape-based engine sized for the networks in this repo: dense layers,
a GRU cell, masked softmax policies and squared-error critics. Design
constraints that shape the implementation:

* everything is float64, and forward passes are bit-deterministic;
* every forward matrix product goes through the one helper ``_rowwise``
  (shared by ``linear`` and ``gru_step``), which is row-exact: evaluating k
  stacked inputs yields bit-identical rows to k independent single-input
  calls -- several tests and the counterfactual critic rely on this. Its
  kernel follows from the shape alone: one gemm over all rows when the
  output is at least 8 wide, one gemv per row for the narrower heads (the
  rule, and the BLAS it was verified on, are in its docstring);
* gradients accumulate in a fixed topological order, so whole-batch
  training is reproducible down to the last bit.

Besides elementwise ops, the tape has fused nodes: ``linear`` (a dense layer,
used by ``mlp_forward``), ``gru_step`` and ``policy.masked_epsilon_probs``.
Each computes its forward in plain numpy with the grouping and order of the
elementwise ops it replaces, e.g. ``(x Wr + h Ur) + br``, and records one
node whose hand-written backward reproduces the composed ops' gradients bit
for bit. The rule that makes this hold: a fused backward passes each term
that the composed graph would have sent to an input through its own
``accumulate`` call, in the order the composed graph sent it, and never
pre-sums terms bound for the same input. Floating-point addition is not
associative, so ``g + (a + b)`` and ``(g + a) + b`` can differ in the last
bit. ``tests/reference.py`` keeps the composed versions as oracles, with
the elementwise ops only they use (``matmul``, ``sigmoid``, ``tanh``,
``exp``, ``div``, ``sum_last``).
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


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def record(data: Array, parents: tuple, backward) -> Tensor:
    """A node on the tape when gradients are on and a parent is a Tensor;
    ``backward(g)`` must ``accumulate`` into the Tensor parents."""
    if _grad_enabled and any(isinstance(p, Tensor) for p in parents):
        tens = tuple(p for p in parents if isinstance(p, Tensor))
        return Tensor(data, tens, backward)
    return Tensor(data)


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


def linear(x, w, b) -> Tensor:
    """Dense layer ``x @ w + b`` as one node: row-exact product plus bias."""
    xd, wd, bd = _data(x), _data(w), _data(b)
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {xd.shape} @ {wd.shape}")
    out = _rowwise(xd, wd) + bd

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, g @ wd.T)
        if isinstance(w, Tensor):
            accumulate(w, xd.T @ g)
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g, bd.shape))

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


def sum_all(x) -> Tensor:
    xd = _data(x)
    out = np.asarray(xd.sum())

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            accumulate(x, np.broadcast_to(g, xd.shape).copy())

    return record(out, (x,), backward)


def gather_last(x, index) -> Tensor:
    """Pick ``x[i, index[i]]`` per row of a 2-D tensor; returns shape (k, 1)."""
    xd = _data(x)
    idx = np.asarray(index, dtype=np.int64).reshape(-1, 1)
    if xd.ndim != 2 or idx.shape[0] != xd.shape[0]:
        raise ShapeError(f"gather_last: x {xd.shape} vs index {idx.shape}")
    out = np.take_along_axis(xd, idx, axis=1)

    def backward(g: Array) -> None:
        if isinstance(x, Tensor):
            gx = np.zeros_like(xd)
            np.put_along_axis(gx, idx, g, axis=1)
            accumulate(x, gx)

    return record(out, (x,), backward)


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
    """Reject hyperparameters outside lr > 0, 0 < alpha < 1, eps > 0."""
    if not (lr > 0.0 and 0.0 < alpha < 1.0 and eps > 0.0):
        raise ValueError(f"bad RMSProp hyperparameters lr={lr} alpha={alpha} eps={eps}")


def rmsprop_step(
    params: ParamSet,
    grads: ParamSet,
    state: OptimizerState,
    lr: float,
    alpha: float,
    eps: float,
) -> tuple[ParamSet, OptimizerState]:
    """One RMSProp update: acc' = a*acc + (1-a)*g^2, p' = p - lr*g/sqrt(acc'+eps)."""
    check_rmsprop(lr, alpha, eps)
    if params.names() != grads.names():
        raise ValueError(
            f"gradient keys {grads.names()} do not match parameters {params.names()}"
        )
    new_params: dict[str, Array] = {}
    new_acc: dict[str, Array] = {}
    for name, tensor in params.items():
        g = grads[name].data
        acc = alpha * state.acc[name] + (1.0 - alpha) * g * g
        new_acc[name] = acc
        new_params[name] = tensor.data - lr * g / np.sqrt(acc + eps)
    return ParamSet(new_params), OptimizerState(acc=new_acc)


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


def mlp_layer_count(params: ParamSet, prefix: str = "") -> int:
    n = 0
    while f"{prefix}w{n}" in params:
        n += 1
    return n


def mlp_forward(params: ParamSet, x, prefix: str = "") -> Tensor:
    """Forward through the dense stack; ReLU between all but the final layer."""
    n_layers = mlp_layer_count(params, prefix)
    if n_layers == 0:
        raise ValueError(f"no layers found under prefix {prefix!r}")
    xd = _data(x)
    expected = params[f"{prefix}w0"].data.shape[0]
    if xd.ndim != 2 or xd.shape[1] != expected:
        raise ShapeError(
            f"mlp_forward: input shape {xd.shape} does not match first layer "
            f"width {expected}"
        )
    h = x
    for i in range(n_layers):
        h = linear(h, params[f"{prefix}w{i}"], params[f"{prefix}b{i}"])
        if i < n_layers - 1:
            h = relu(h)
    return h


def gru_init(
    rng: np.random.Generator, in_dim: int, hidden: int, prefix: str = ""
) -> ParamSet:
    params: dict[str, Array] = {}
    for gate in ("r", "z", "h"):
        params[f"{prefix}w{gate}"] = _uniform(rng, (in_dim, hidden), in_dim)
        params[f"{prefix}u{gate}"] = _uniform(rng, (hidden, hidden), hidden)
        params[f"{prefix}b{gate}"] = _uniform(rng, (hidden,), hidden)
    return ParamSet(params)


def gru_step(params: ParamSet, x, h, prefix: str = "") -> Tensor:
    """One GRU cell step, recorded as one node.

    reset    r = sigmoid(x Wr + h Ur + br)
    update   z = sigmoid(x Wz + h Uz + bz)
    cand     c = tanh(x Wh + (r*h) Uh + bh)
    next     h' = (1 - z) * h + z * c
    """
    xd, hd = _data(x), _data(h)
    wr, ur, br, wz, uz, bz, wh, uh, bh = (
        params[f"{prefix}{name}"]
        for name in ("wr", "ur", "br", "wz", "uz", "bz", "wh", "uh", "bh"))
    hidden = ur.data.shape[0]
    if hd.ndim != 2 or hd.shape[1] != hidden:
        raise ShapeError(f"gru_step: hidden state {hd.shape} vs width {hidden}")
    r = _sigmoid((_rowwise(xd, wr.data) + _rowwise(hd, ur.data)) + br.data)
    z = _sigmoid((_rowwise(xd, wz.data) + _rowwise(hd, uz.data)) + bz.data)
    rh = r * hd
    c = np.tanh((_rowwise(xd, wh.data) + _rowwise(rh, uh.data)) + bh.data)
    keep = 1.0 - z
    out = keep * hd + z * c

    def backward(g: Array) -> None:
        # The composed graph's terms, grouped as it grouped them.
        g_z = g * c - g * hd
        g_zpre = (g_z * z) * keep
        g_cpre = (g * z) * (1.0 - c * c)
        g_rh = g_cpre @ uh.data.T
        g_rpre = ((g_rh * hd) * r) * (1.0 - r)
        for p, gp in ((wr, xd.T @ g_rpre), (ur, hd.T @ g_rpre), (br, g_rpre),
                      (wz, xd.T @ g_zpre), (uz, hd.T @ g_zpre), (bz, g_zpre),
                      (wh, xd.T @ g_cpre), (uh, rh.T @ g_cpre), (bh, g_cpre)):
            accumulate(p, _unbroadcast(gp, p.data.shape))
        # Each term separately and in the composed graph's order.
        if isinstance(x, Tensor):
            accumulate(x, g_cpre @ wh.data.T)
            accumulate(x, g_zpre @ wz.data.T)
            accumulate(x, g_rpre @ wr.data.T)
        if isinstance(h, Tensor):
            accumulate(h, g * keep)
            accumulate(h, g_zpre @ uz.data.T)
            accumulate(h, g_rh * r)
            accumulate(h, g_rpre @ ur.data.T)

    # x before h: backward()'s depth-first ordering then explores the earlier
    # steps before this step's input layer, as in the composed graph, so a
    # shared parameter such as fc1's receives its per-step terms in the same
    # order (last step first).
    return record(out, (x, h, wr, ur, br, wz, uz, bz, wh, uh, bh), backward)


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
