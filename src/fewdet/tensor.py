"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as numpy arrays; every operation records its inputs and a
backward closure, so calling :meth:`Tensor.backward` on a scalar loss fills
``.grad`` on every tensor that contributed to it. Gradients accumulate by
summation when a tensor is used more than once, the standard reverse-mode
convention.

Everything is float64: this library exists to make gradient checks against
central finite differences meaningful, not to be fast on large models.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used by inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-dimensional float64 array in a recorded computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...],
                backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward pass ----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into ``.grad``."""
        if self.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")

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
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            for parent, g in zip(node._parents, parent_grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # Copy: backward closures may hand out shared arrays.
                    parent.grad = np.array(g)
                else:
                    parent.grad += g

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise arithmetic -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    return Tensor._result(
        a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    return Tensor._result(
        a.data - b.data, (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    return Tensor._result(
        a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "div")
    return Tensor._result(
        a.data / b.data, (a, b),
        lambda g: (_unbroadcast(g / b.data, a.shape),
                   _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(-a.data, (a,), lambda g: (-g,))


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    return Tensor._result(
        a.data @ b.data, (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose requires a 2-d tensor, got {a.shape}")
    return Tensor._result(a.data.T.copy(), (a,), lambda g: (g.T,))


# -- reductions --------------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor._result(np.asarray(out), (a,), backward)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


# -- elementwise nonlinearities -----------------------------------------------------


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor._result(out, (a,), lambda g: (g * (0.5 / out),))


def tabs(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(np.maximum(a.data, 0.0), (a,),
                          lambda g: (g * (a.data > 0.0),))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so large
    negative inputs saturate to 0 without overflow. ``exp(min(x, -x))`` is
    exactly the exponential each branch needs (``-|x|``, but a NaN input
    keeps its sign bit), so no mask indexing is required."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function; the gradient is y * (1 - y)."""
    a = _as_tensor(a)
    out = _stable_sigmoid(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) in the overflow-safe form max(x, 0) + log1p(exp(-|x|))."""
    a = _as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return Tensor._result(out, (a,), lambda g: (g * _stable_sigmoid(x),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x): the smooth nonlinearity used inside FFN blocks."""
    a = _as_tensor(a)
    x = a.data
    s = _stable_sigmoid(x)
    return Tensor._result(x * s, (a,), lambda g: (g * (s * (1.0 + x * (1.0 - s))),))


def maximum(a, b) -> Tensor:
    # Subgradient convention on ties: the left operand receives the gradient.
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "maximum")
    mask = a.data >= b.data
    return Tensor._result(
        np.maximum(a.data, b.data), (a, b),
        lambda g: (_unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)))


def minimum(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "minimum")
    mask = a.data <= b.data
    return Tensor._result(
        np.minimum(a.data, b.data), (a, b),
        lambda g: (_unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)))


# -- softmax ---------------------------------------------------------------------


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-d tensor, stabilized by row-max subtraction."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows requires a 2-d tensor, got {a.shape}")
    if a.shape[1] < 1:
        raise ShapeError("softmax_rows requires at least one column")
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_rows received non-finite input")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return Tensor._result(out, (a,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int
              ) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention over q (n, d), k (m, d) and
    v (m, d) as one graph node. Head h takes channel slice h of width
    dh = d / heads and computes softmax(q_h k_h^T / sqrt(dh)) v_h with the
    row-max-stabilized softmax of :func:`softmax_rows`; head outputs are
    concatenated in channel order. Returns the (n, d) output and, as plain
    numpy for diagnostics, the head-averaged (n, m) attention.

    Hand-derived backward, per head with attention A and upstream gradient G:
    dV = A^T G, dS = A * (G V^T - rowsum(A * G V^T)) / sqrt(dh), dQ = dS K,
    dK = dS^T Q.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or k.shape != v.shape \
            or k.shape[1] != q.shape[1] or k.shape[0] < 1:
        raise ShapeError(f"attention: queries {q.shape}, keys {k.shape} and "
                         f"values {v.shape} do not match")
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"feature dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    if not np.isfinite(scores).all():
        raise NumericError("attention received non-finite scores")
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)

    def backward(g: np.ndarray):
        gh = split(g)
        d_attn = gh @ vh.transpose(0, 2, 1)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True)) * scale
        return (merge(d_scores @ kh), merge(d_scores.transpose(0, 2, 1) @ qh),
                merge(attn.transpose(0, 2, 1) @ gh))

    out = Tensor._result(merge(attn @ vh), (q, k, v), backward)
    return out, attn.sum(axis=0) * (1.0 / heads)


# -- shape manipulation -------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(a.data.reshape(shape).copy(), (a,),
                          lambda g: (g.reshape(a.shape),))


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    """Stack 2-d tensors vertically; gradients split back by row ranges."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows of zero tensors")
    width = parts[0].shape[1]
    for p in parts:
        if p.ndim != 2 or p.shape[1] != width:
            raise ShapeError(
                f"concat_rows column mismatch: {[p.shape for p in parts]}")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return Tensor._result(np.concatenate([p.data for p in parts], axis=0),
                          tuple(parts), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along columns: rows of `a` followed by rows of `b`."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"concat_channels leading extents disagree: {a.shape} vs {b.shape}")
    wa = a.shape[1]

    def backward(g: np.ndarray):
        return (g[:, :wa], g[:, wa:])

    return Tensor._result(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {a.shape}")

    def backward(g: np.ndarray):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return Tensor._result(a.data[:, start:stop].copy(), (a,), backward)


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows by index; repeated indices accumulate gradient."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"row indices out of range for {a.shape}")

    def backward(g: np.ndarray):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._result(a.data[idx].copy(), (a,), backward)


# -- composite layers ------------------------------------------------------------


def pointwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Width-1 convolution over the channel axis: per-row affine mixing."""
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.ndim != 2 or kernel.ndim != 2 or x.shape[1] != kernel.shape[0]:
        raise ShapeError(
            f"pointwise_conv1d: input {x.shape} does not match kernel {kernel.shape}")
    if bias.shape != (kernel.shape[1],):
        raise ShapeError(
            f"pointwise_conv1d: bias {bias.shape} does not match kernel {kernel.shape}")
    return add(matmul(x, kernel), bias)


class FfnParams:
    """Weights of a two-layer feed-forward block: d -> hidden -> d."""

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        if w1.shape[1] != w2.shape[0] or w1.shape[0] != w2.shape[1]:
            raise ShapeError(f"FFN weight shapes disagree: {w1.shape} vs {w2.shape}")
        if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
            raise ShapeError("FFN bias shapes do not match weights")
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def tensors(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.w1, self.b1, self.w2, self.b2)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Rows normalized to zero mean and unit (biased) variance, scaled by
    ``gamma`` and shifted by ``beta``, as one graph node. Backward, with
    row means and dxhat = g * gamma:
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: input {x.shape} does not match "
                         f"gamma {gamma.shape} / beta {beta.shape}")
    inv_width = 1.0 / x.shape[1]
    centered = x.data - x.data.sum(axis=1, keepdims=True) * inv_width
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) * inv_width + eps)
    xhat = centered / std

    def backward(g: np.ndarray):
        dxhat = g * gamma.data
        dx = (dxhat - dxhat.mean(axis=1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / std
        return (dx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return Tensor._result(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def ffn_apply(x: Tensor, params: FfnParams) -> Tensor:
    """Two affine layers with a smooth nonlinearity between, plus residual."""
    x = _as_tensor(x)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ShapeError(f"ffn_apply: input {x.shape} does not match w1 {params.w1.shape}")
    hidden = silu(add(matmul(x, params.w1), params.b1))
    return add(x, add(matmul(hidden, params.w2), params.b2))


# -- finite-difference oracle -------------------------------------------------------


def finite_diff_gradient(f: Callable[[Tensor], "Tensor | float"],
                         x: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function at ``x``.

    This is the independent oracle used to check reverse-mode gradients; it
    never touches the recorded graph (the function is re-evaluated at
    perturbed constant inputs).
    """
    if h <= 0:
        raise ValueError("finite_diff_gradient requires h > 0")
    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    probe = base.reshape(-1)

    def evaluate() -> float:
        with no_grad():
            value = f(Tensor(base))
        v = value.item() if isinstance(value, Tensor) else float(value)
        if not math.isfinite(v):
            raise NumericError("finite_diff_gradient: objective is non-finite")
        return v

    for i in range(probe.size):
        orig = probe[i]
        probe[i] = orig + h
        f_plus = evaluate()
        probe[i] = orig - h
        f_minus = evaluate()
        probe[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
