"""Adam optimizer over named parameters kept in one flat buffer.

Buffer layout: every parameter's ``Tensor.data`` is a writable C-contiguous
view into one 1-D float64 buffer, in the order of the parameter dict, and
the Adam moments live in two buffers with the same layout. The moment
dicts of :class:`AdamState` hold a view into those buffers for every
parameter, in layout order, from the moment the optimizer binds its
buffers; a parameter that has never had a gradient has zero moments.
:func:`flat_parameters` builds parameters in such a buffer from the start,
and :func:`flat_buffers` hands the three buffers to a checkpoint writer.

Block-wise update: the buffer is cut at parameter boundaries into blocks of
about ``BLOCK_ELEMENTS`` (a parameter larger than that is a block of its
own). Per block the gradients are gathered into block-sized scratch and the
14 element-wise operations of the update run over the whole block, so the
working set stays in cache and scratch memory stays small. Each element
gets exactly the arithmetic of a per-parameter update, so results are bit
for bit those of one.

Skipped parameters: a parameter absent from ``grads`` is not touched, not
its value and not its moments (they are not decayed). Its elements are
masked out of the block's operations with ``where=``.

Bias correction: from step 356 on, ``1 - BETA1**t`` rounds to exactly 1.0,
so ``m / correction1`` is ``m`` bit for bit and that division is skipped.

Validate before mutate: every gradient name and shape is checked before
any value, moment or the step count changes.

Ownership: an :class:`AdamState` owns its moment buffers and binds them
once to the buffer the parameters tile: zeros at its first
:func:`adam_step` or :func:`flat_buffers` call, which checks that the
caller's parameters are the views of one buffer in dict order; or a
checkpoint's three buffers at :func:`restore`, which makes the parameters
itself, cutting them and the moments at the same offsets, so there is
nothing to check view by view. Nothing is re-packed: parameters that do
not tile one buffer in dict order, or a ``Tensor`` or ``.data`` replaced
after binding, raise ShapeError before anything changes. Binding fills the
moment dicts, in ``_FlatLayout`` alone. They are outputs: no step reads a
moment from them or changes which parameters they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

# Adam's decay rates and denominator floor, the defaults of Kingma & Ba.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Elements per block of the update: a block's parameters, moments and two
# scratch arrays (5 float64 arrays of 256 KiB) stay in a typical L2 cache.
# Timed alone on a 2-vCPU Xeon VM, the update of the default model took
# ~2.1 ms in 16k-32k blocks, ~2.5 ms in one whole-buffer pass, ~2.7 ms in 8k.
BLOCK_ELEMENTS = 32768


def flat_parameters(shapes: dict[str, tuple[int, ...]], zeroed: bool = True
                    ) -> dict[str, Tensor]:
    """Parameters of the given shapes, each ``.data`` a view into one buffer
    (zeroed unless ``zeroed`` is false), tiling it in the order of
    ``shapes``; callers write their initial values into the views."""
    buffer = (np.zeros if zeroed else np.empty)(sum(map(math.prod, shapes.values())))
    params, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = Tensor.parameter(buffer[start:start + size].reshape(shape))
        start += size
    return params


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    # The layout binding the moment buffers to the parameters' buffer.
    _flat: "_FlatLayout | None" = field(default=None, init=False, repr=False,
                                        compare=False)


class _FlatLayout:
    """Three buffers of one layout, parameters and two moments, cut into
    blocks at parameter boundaries; ``entries`` are (name, .data, size) of
    each parameter in buffer order. Making one binds ``state`` to it: every
    parameter's moments enter the moment dicts, as views of the moment
    buffers, in layout order."""

    def __init__(self, state: AdamState,
                 buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
                 entries: list[tuple[str, np.ndarray, int]]):
        param_buf, m_buf, v_buf = self.buffers = buffers
        # Per block: (name, .data, span in the block) of each parameter, and
        # the block's slices of the three buffers.
        self.blocks = []
        block = []
        lo = hi = 0
        for name, data, size in entries:
            if block and hi + size - lo > BLOCK_ELEMENTS:
                self.blocks.append((block, param_buf[lo:hi], m_buf[lo:hi], v_buf[lo:hi]))
                block, lo = [], hi
            block.append((name, data, hi - lo, hi - lo + size))
            state.first_moment[name] = m_buf[hi:hi + size].reshape(data.shape)
            state.second_moment[name] = v_buf[hi:hi + size].reshape(data.shape)
            hi += size
        if block:
            self.blocks.append((block, param_buf[lo:hi], m_buf[lo:hi], v_buf[lo:hi]))
        self.entries = [e for entries, *_ in self.blocks for e in entries]
        self.width = max(param.size for _, param, _, _ in self.blocks)
        state._flat = self


def _is_flat(buffer, size: int) -> bool:
    """Whether ``buffer`` is a writable 1-D C-contiguous float64 array of
    ``size`` elements."""
    return (isinstance(buffer, np.ndarray) and buffer.ndim == 1
            and buffer.dtype == np.float64 and buffer.flags.c_contiguous
            and buffer.flags.writeable and buffer.size == size)


def _tiled_layout(params: dict[str, Tensor], state: AdamState) -> _FlatLayout:
    """The layout of the buffer ``params`` tile in dict order, with zero
    moments, bound to ``state``; ShapeError unless each ``.data`` is the
    next view of it."""
    param_buf = next(iter(params.values())).data.base if params else None
    if not _is_flat(param_buf, sum(p.data.size for p in params.values())):
        raise ShapeError("adam: the parameters are not views tiling one flat "
                         "float64 buffer (see flat_parameters)")
    entries, offset = [], _address(param_buf)
    for name, p in params.items():
        data = p.data
        if (data.base is not param_buf or data.dtype != np.float64
                or not data.flags.c_contiguous or not data.flags.writeable
                or _address(data) != offset):
            raise ShapeError(f"adam: parameter '{name}' is not the next view "
                             f"of the parameters' flat buffer")
        entries.append((name, data, data.size))
        offset += data.nbytes
    return _FlatLayout(state, (param_buf, np.zeros(param_buf.size),
                               np.zeros(param_buf.size)), entries)


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _bound_layout(params: dict[str, Tensor], state: AdamState) -> _FlatLayout:
    """``state``'s layout, bound to ``params`` with zero moments if it has
    none yet; ShapeError unless ``params`` hold its views."""
    layout = state._flat
    if layout is None:
        layout = _tiled_layout(params, state)
    elif len(params) != len(layout.entries) or any(
            getattr(params.get(name), "data", None) is not data
            for name, data, _, _ in layout.entries):
        raise ShapeError("adam: a parameter or its .data was replaced after "
                         "the optimizer bound its buffers")
    return layout


def flat_buffers(params: dict[str, Tensor], state: AdamState
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parameter, first-moment and second-moment buffers of ``params``
    and ``state``, in the order of ``params``: the live buffers the next
    :func:`adam_step` updates in place (bound here if ``state`` has none
    yet). A parameter that never had a gradient is zeros in the moment
    buffers."""
    return _bound_layout(params, state).buffers


def restore(param_buf: np.ndarray, m: np.ndarray, v: np.ndarray,
            shapes: dict[str, tuple[int, ...]], state: AdamState
            ) -> dict[str, Tensor]:
    """The parameters of the given shapes, as views tiling ``param_buf`` in
    the order of ``shapes``, with a fresh ``state`` bound to them and to the
    moment buffers ``m`` and ``v`` of the same layout (say, the three buffers
    of a checkpoint), whose moments are taken as they are; binding cuts them
    at the parameters' offsets. ShapeError, with nothing changed, if
    ``state`` is already bound or a buffer is not a writable 1-D
    C-contiguous float64 array of as many elements as ``shapes`` hold."""
    if state._flat is not None:
        raise ShapeError("adam: restore into an optimizer already bound")
    total = sum(map(math.prod, shapes.values()))
    for label, buffer in (("parameter", param_buf), ("first-moment", m),
                          ("second-moment", v)):
        if not _is_flat(buffer, total):
            raise ShapeError(f"adam: the {label} buffer is not a writable 1-D "
                             f"C-contiguous float64 array of the {total} "
                             f"elements the shapes hold")
    params, entries, start = {}, [], 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        data = param_buf[start:start + size].reshape(shape)
        params[name] = Tensor.parameter(data)
        entries.append((name, data, size))
        start += size
    _FlatLayout(state, (param_buf, m, v), entries)
    return params


def _validate(params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    for name, grad in grads.items():
        param = params.get(name)
        if param is None:
            raise ShapeError(f"adam_step: gradient for '{name}', which is not "
                             f"a parameter")
        if grad.shape != param.data.shape:
            raise ShapeError(
                f"adam_step: gradient {grad.shape} does not match "
                f"parameter '{name}' {param.data.shape}")


def adam_step(params: dict[str, Tensor],
              grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update, in place on ``params``.

    ``grads`` maps a subset of parameter names to gradient arrays; names not
    present are left untouched. A gradient whose name is not a parameter's,
    or whose shape is not its parameter's, and parameters the optimizer
    cannot bind or is not bound to, raise ShapeError before anything
    changes. Returns the same objects for chaining.
    """
    _validate(params, grads)
    layout = _bound_layout(params, state)
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    lr = state.learning_rate
    # Scratch is per step: it reuses memory the freed graph left behind.
    grad_buf, tmp_buf = np.empty(layout.width), np.empty(layout.width)
    for entries, p, m, v in layout.blocks:
        n = p.size
        g, tmp = grad_buf[:n], tmp_buf[:n]
        skipped = False
        for name, _, lo, hi in entries:
            grad = grads.get(name)
            if grad is None:
                skipped = True
                continue
            g[lo:hi] = grad.reshape(-1)
        where = True
        if skipped:
            where = np.zeros(n, bool)
            for name, _, lo, hi in entries:
                where[lo:hi] = name in grads
        np.multiply(m, BETA1, out=m, where=where)
        np.multiply(g, 1.0 - BETA1, out=tmp, where=where)
        np.add(m, tmp, out=m, where=where)
        np.multiply(v, BETA2, out=v, where=where)
        np.multiply(g, g, out=tmp, where=where)
        np.multiply(tmp, 1.0 - BETA2, out=tmp, where=where)
        np.add(v, tmp, out=v, where=where)
        if correction1 == 1.0:
            np.multiply(m, lr, out=tmp, where=where)
        else:
            np.divide(m, correction1, out=tmp, where=where)
            np.multiply(tmp, lr, out=tmp, where=where)
        np.divide(v, correction2, out=g, where=where)
        np.sqrt(g, out=g, where=where)
        np.add(g, EPSILON, out=g, where=where)
        np.divide(tmp, g, out=tmp, where=where)
        np.subtract(p, tmp, out=p, where=where)
    return params, state


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of parameters that received one in the last backward pass."""
    return {name: p.grad for name, p in params.items() if p.grad is not None}


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
