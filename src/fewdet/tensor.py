"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as numpy arrays; every operation records its inputs and a
backward closure, so calling :meth:`Tensor.backward` on a scalar loss fills
``.grad`` on every tensor that contributed to it. Gradients accumulate by
summation when a tensor is used more than once, the standard reverse-mode
convention.

Backward consumes the graph it walks. As soon as a node's closure has
returned its parents' gradients, the node drops the closure and its parent
edges, so the forward intermediates the closure kept are freed then, and the
node itself (its value and gradient) as soon as nothing outside the graph
holds it. A node the caller still holds keeps its ``.grad``. A second
backward through a consumed node raises ``ValueError``: build the graph
again instead.

Dense sub-blocks are one graph node each: the affine map (:func:`linear`),
the affine map of two inputs' channels side by side
(:func:`concat_linear`), the product with a transposed weight, optionally
followed by filler rows (:func:`project_rows`), the FFN block
(:func:`ffn_apply`, which takes its two weights and two biases as tensors
and checks their shapes), multi-head attention and layer norm. Each has a
hand-derived backward that repeats the arithmetic of the primitive chain
it stands for, so values and gradients are bit-identical to that chain. A
closure keeps what its backward reads and cannot cheaply rebuild: an
intermediate that one element-wise op or one copy of the inputs gives back
(the FFN's activations, the concatenated input of :func:`concat_linear`)
is recomputed in backward instead of held from forward to backward. Each
loss term is one such node too (:mod:`fewdet.set_head`,
:mod:`fewdet.ood`).

A primitive writes only into arrays it allocated in that call. It never
writes into its inputs, into the upstream gradient, or into an array it
returned or its backward closure keeps. Within that rule its element-wise
chains run in one such buffer (``out=`` or augmented assignment), in the
order of the out-of-place expression, so the in-place form is bit-identical
to it.

Only :func:`add` and :func:`mul`, and so ``+`` and ``*``, take a float or
an array where a Tensor goes, and wrap it as a constant: that is where a
scale or a loss weight meets a Tensor. Every other primitive takes
Tensors.

Everything is float64: this library exists to make gradient checks against
central finite differences meaningful, not to be fast on large models.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

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


def _consumed(g: np.ndarray | None) -> Sequence[np.ndarray | None]:
    """The backward of a node whose graph an earlier backward() consumed."""
    raise ValueError("backward() through a graph an earlier backward() has "
                     "consumed; build the graph again for new gradients")


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
    def parameter(data: np.ndarray) -> "Tensor":
        """A leaf that requires grad and holds the float64 array ``data``
        itself, not a copy, so that a parameter can be a view into a buffer
        (:func:`fewdet.optim.flat_parameters`, or a loaded checkpoint's that
        :func:`fewdet.optim.restore` cuts the parameters from)."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = True
        out.grad = None
        out._parents = ()
        out._backward = None
        return out

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
        if self.size != 1:
            raise ShapeError(f"item() requires a single value, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward pass ----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into ``.grad``.

        A backward closure writes only into arrays it allocated in that
        call, never into the upstream gradient it is given, and may hand one
        array to several parents. So an interior node takes its first
        gradient as it is and accumulates out of place, never changing an
        array another node may hold; a leaf copies its first gradient and
        accumulates in place, so its ``.grad`` is an array it owns.

        The pass consumes the graph: each interior node drops its closure
        and parent edges once the closure has returned its parents'
        gradients (at once, if no gradient reached the node). Its forward
        intermediates go with the closure, and its value and gradient as
        soon as nothing outside the graph holds the node; an interior node
        the caller holds keeps its ``.grad``. A later backward that reaches
        a consumed node, from the same root or from a new graph built on a
        held node, raises ``ValueError`` before any gradient changes. A
        leaf is never consumed.
        """
        if self.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")

        # Post-order of the interior nodes. Leaves are never pushed: they
        # have no parents and no backward, so the order is the same without
        # them. The root is pushed even when it is a leaf.
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
            if node._backward is _consumed:
                _consumed(None)  # raises before any gradient changes
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        # Popping drops the list's reference to each node as it is walked.
        while order:
            node = order.pop()
            backward, parents = node._backward, node._parents
            if backward is None:
                continue
            node._backward, node._parents = _consumed, ()
            if node.grad is None:
                continue
            for parent, g in zip(parents, backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent._backward is not None:
                    parent.grad = g if parent.grad is None else parent.grad + g
                elif parent.grad is None:
                    parent.grad = np.array(g)
                else:
                    parent.grad += g

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


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


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    return Tensor._result(
        a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    return Tensor._result(
        a.data @ b.data, (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g))


def project_rows(x: Tensor, w: Tensor, n: int | None = None,
                 filler: Tensor | None = None) -> Tensor:
    """An (n, width) result whose row i < C is row i of the (C, width)
    ``x @ w^T``, and whose every later row is the 1-d ``filler``, or zero
    when ``filler`` is None (a constant with no gradient); ``n`` defaults
    to C, so ``project_rows(x, w)`` is ``x @ w^T``. The product runs
    against a contiguous copy of ``w^T``: OpenBLAS picks other small-matrix
    kernels for a transposed view, whose sums can differ in the last bits.
    One graph node for that product followed by a gather from
    ``[x @ w^T; filler]``, bit-identical to that chain. Its backward slices
    the upstream gradient as the gather's scatter-add into zeros would have
    accumulated it: the projected rows get ``0.0 + g`` (so -0.0 becomes
    0.0), and the filler the sum of its rows in order, starting from 0.0.
    The filler is a parent only when some row holds it."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"project_rows: {x.shape} does not match the "
                         f"transpose of {w.shape}")
    c, width = x.shape[0], w.shape[0]
    n = c if n is None else n
    if n < c:
        raise ShapeError(f"project_rows: {n} rows cannot hold the {c} projected ones")
    if filler is not None and filler.shape != (width,):
        raise ShapeError(f"project_rows: filler {filler.shape} does not "
                         f"match the projected width {width}")
    filled = filler is not None and n > c
    wt = w.data.T.copy()
    out = np.empty((n, width))
    np.matmul(x.data, wt, out=out[:c])
    out[c:] = 0.0 if filler is None else filler.data

    def backward(g: np.ndarray):
        # C-ordered even when g is a transposed view, so BLAS runs the
        # kernels it ran on the gather's accumulation table.
        gx = np.add(g[:c], 0.0, order="C")
        grads = (gx @ wt.T, (x.data.T @ gx).T)
        if not filled:
            return grads
        gf = np.zeros(width)
        for row in g[c:]:
            gf += row
        return grads + (gf,)

    parents = (x, w, filler) if filled else (x, w)
    return Tensor._result(out, parents, backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b`` (a width-1 convolution over the channel
    axis) as one graph node. ``x`` gets no gradient unless it requires one,
    so raw inputs cost no backward product."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    out = x.data @ w.data
    out += b.data

    def backward(g: np.ndarray):
        return (g @ w.data.T if x.requires_grad else None, x.data.T @ g, g.sum(axis=0))

    return Tensor._result(out, (x, w, b), backward)


def concat_linear(a: Tensor, b: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """The affine map ``[a, b] @ w + bias`` of the channels of ``a`` followed
    by those of ``b`` as one graph node, bit-identical to :func:`linear` on
    the concatenated input. The (n, wa + wb) concatenation is not kept:
    backward builds it again for the weight gradient, and hands ``a`` and
    ``b`` the column blocks of ``g @ w^T``."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_linear: inputs {a.shape} and {b.shape} do not "
                         f"share their rows")
    wa = a.shape[1]
    if w.ndim != 2 or w.shape[0] != wa + b.shape[1]:
        raise ShapeError(f"concat_linear: inputs {a.shape} and {b.shape} do not "
                         f"match weight {w.shape}")
    if bias.shape != (w.shape[1],):
        raise ShapeError(f"concat_linear: bias {bias.shape} does not match "
                         f"weight {w.shape}")
    out = np.concatenate([a.data, b.data], axis=1) @ w.data
    out += bias.data

    def backward(g: np.ndarray):
        gx = g @ w.data.T
        return (gx[:, :wa], gx[:, wa:], np.concatenate([a.data, b.data], axis=1).T @ g,
                g.sum(axis=0))

    return Tensor._result(out, (a, b, w, bias), backward)


# -- reductions --------------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor._result(np.asarray(out), (a,), backward)


# -- elementwise nonlinearities -----------------------------------------------------


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so large
    negative inputs saturate to 0 without overflow. ``exp(min(x, -x))`` is
    exactly the exponential each branch needs (``-|x|``, but a NaN input
    keeps its sign bit), so no mask indexing is required. The numerator
    ``max(e, x >= 0)`` is 1 where x >= 0 (there e <= 1), e below, and a
    NaN input's own NaN."""
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, x >= 0.0, dtype=np.float64)
    e += 1.0
    s /= e
    return s


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function; the gradient is y * (1 - y)."""
    out = _stable_sigmoid(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out * (1.0 - out),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x): the smooth nonlinearity used inside FFN blocks."""
    x = a.data
    s = _stable_sigmoid(x)

    def backward(g: np.ndarray):
        ds = np.subtract(1.0, s, out=np.empty_like(x))
        ds *= x
        ds += 1.0
        ds *= s
        ds *= g
        return (ds,)

    return Tensor._result(x * s, (a,), backward)


# -- attention ---------------------------------------------------------------------

# numpy reduces the key axis of a (heads, n, m) map one row at a time, so
# with few keys the per-row overhead outweighs the arithmetic. Below this
# many keys it also adds a row sequentially from 0.0, not pairwise.
_FOLD_KEYS = 8
# A fold makes one element-wise call (about 1.2 us) per key after the first,
# so it pays only with this many rows or more per such key: on a (4, 5, 5)
# map (20 rows) numpy's row loop is the faster, on (4, 64, 5) the fold.
_FOLD_ROWS_PER_KEY = 16


def _reduce_keys(a: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=True)`` for ``np.maximum`` or
    ``np.add``. With fewer than :data:`_FOLD_KEYS` keys and at least
    :data:`_FOLD_ROWS_PER_KEY` rows per key after the first, the key
    columns are folded left to right, one element-wise op each,
    bit-identical to numpy's reduction: a maximum is exact in any order,
    and the sum starts from 0.0 and adds the columns in order, as numpy
    adds a short row."""
    m = a.shape[-1]
    if m >= _FOLD_KEYS or a.size < m * (m - 1) * _FOLD_ROWS_PER_KEY:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., 0] + 0.0 if ufunc is np.add else a[..., 0].copy()
    for j in range(1, m):
        ufunc(out, a[..., j], out=out)
    return out[..., None]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int
              ) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention over q (n, d), k (m, d) and
    v (m, d) as one graph node. Head h takes channel slice h of width
    dh = d / heads and computes softmax(q_h k_h^T / sqrt(dh)) v_h with a
    row-max-stabilized softmax; head outputs are concatenated in channel
    order. Returns the (n, d) output and, as plain numpy for diagnostics,
    the (heads, n, m) attention probabilities; the array is the one the
    backward keeps, so returning it costs nothing.

    Hand-derived backward, per head with attention A and upstream gradient G:
    dV = A^T G, dS = A * (G V^T - rowsum(A * G V^T)) / sqrt(dh), dQ = dS K,
    dK = dS^T Q. The row max and both row sums go through
    :func:`_reduce_keys`, so a short key axis costs no per-row loop.
    """
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
    attn = qh @ kh.transpose(0, 2, 1)
    attn *= scale
    if not np.isfinite(attn).all():
        raise NumericError("attention received non-finite scores")
    attn -= _reduce_keys(attn, np.maximum)
    np.exp(attn, out=attn)
    attn /= _reduce_keys(attn, np.add)

    def backward(g: np.ndarray):
        gh = split(g)
        d_scores = gh @ vh.transpose(0, 2, 1)
        d_scores -= _reduce_keys(d_scores * attn, np.add)
        d_scores *= attn
        d_scores *= scale
        return (merge(d_scores @ kh), merge(d_scores.transpose(0, 2, 1) @ qh),
                merge(attn.transpose(0, 2, 1) @ gh))

    out = Tensor._result(merge(attn @ vh), (q, k, v), backward)
    return out, attn


# -- composite layers ------------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Rows normalized to zero mean and unit (biased) variance, scaled by
    ``gamma`` and shifted by ``beta``, as one graph node. Backward, with
    row means and dxhat = g * gamma:
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps).
    """
    if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: input {x.shape} does not match "
                         f"gamma {gamma.shape} / beta {beta.shape}")
    width = x.shape[1]
    inv_width = 1.0 / width
    xhat = x.data - x.data.sum(axis=1, keepdims=True) * inv_width
    out = xhat * xhat
    std = np.sqrt(out.sum(axis=1, keepdims=True) * inv_width + eps)
    xhat /= std
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def backward(g: np.ndarray):
        dx = g * gamma.data
        scratch = dx * xhat
        row_mean = dx.sum(axis=1, keepdims=True) / width
        np.multiply(xhat, scratch.sum(axis=1, keepdims=True) / width, out=scratch)
        dx -= row_mean
        dx -= scratch
        dx /= std
        np.multiply(g, xhat, out=scratch)
        return (dx, scratch.sum(axis=0), g.sum(axis=0))

    return Tensor._result(out, (x, gamma, beta), backward)


def ffn_apply(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two affine layers with SiLU between, plus the residual, as one graph
    node: ``x + silu(x @ w1 + b1) @ w2 + b2``, d -> hidden -> d, so ``w2``
    has the transposed shape of ``w1``. Backward, with h the hidden
    pre-activation and s = sigmoid(h):
    dh = (g @ w2^T) * s * (1 + h * (1 - s)), dx = g + dh @ w1^T. The
    closure keeps h and s; the activations h * s are recomputed for the w2
    gradient.
    ``x`` is a parent twice, once for the residual and once for the hidden
    layer, so its two gradients accumulate in the order the unfused chain
    gave them."""
    if w1.ndim != 2 or w2.shape != w1.shape[::-1] or b1.shape != (w1.shape[1],) \
            or b2.shape != (w1.shape[0],):
        raise ShapeError(f"ffn_apply: weights {w1.shape}, {w2.shape} and biases "
                         f"{b1.shape}, {b2.shape} disagree")
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise ShapeError(f"ffn_apply: input {x.shape} does not match w1 {w1.shape}")
    h = x.data @ w1.data
    h += b1.data
    s = _stable_sigmoid(h)
    y = (h * s) @ w2.data
    y += b2.data
    y += x.data

    def backward(g: np.ndarray):
        ds = np.subtract(1.0, s)
        ds *= h
        ds += 1.0
        ds *= s
        dh = g @ w2.data.T
        dh *= ds
        # The activations h * s again, in ds's buffer, rather than kept.
        a = np.multiply(h, s, out=ds)
        return (g, dh @ w1.data.T, x.data.T @ dh, dh.sum(axis=0), a.T @ g,
                g.sum(axis=0))

    return Tensor._result(y, (x, x, w1, b1, w2, b2), backward)


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
