"""Adam optimizer over named parameters kept in one flat buffer.

Buffer layout: every parameter's ``Tensor.data`` is a writable C-contiguous
view into one 1-D float64 buffer, in the order of the parameter dict, and
the Adam moments live in two buffers with the same layout. The moment
dicts of :class:`AdamState` are views into those buffers, holding only the
parameters that have had a gradient, so optimizer state still rides along
in checkpoints by name. :func:`flat_parameters` builds parameters in such a
buffer from the start.

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

Validate before mutate: every gradient name and shape is checked before
any value, moment or the step count changes.

Re-packing: each step checks, by identity, that every parameter's
``.data`` and its moments are still the views the buffers were built from
(a swapped ``Tensor`` brings its own ``.data``). Parameters passed as
separate arrays, or a dict entry or a ``.data`` swapped out since the last
step, make the step copy the current values into fresh buffers and rebind
``.data`` and the moment dicts to views of them.
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


def flat_views(shapes: dict[str, tuple[int, ...]], zeroed: bool = True
               ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A 1-D float64 buffer, zeroed unless ``zeroed`` is false, and, by
    name, writable C-contiguous views of the given shapes that tile it in
    the order of ``shapes``."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    buffer = (np.zeros if zeroed else np.empty)(sum(sizes))
    views, start = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = buffer[start:start + size].reshape(shape)
        start += size
    return buffer, views


def flat_parameters(shapes: dict[str, tuple[int, ...]], zeroed: bool = True
                    ) -> dict[str, Tensor]:
    """Parameters of the given shapes, each ``.data`` a view into one buffer
    (zeroed unless ``zeroed`` is false); callers write their initial values
    into the views."""
    _, views = flat_views(shapes, zeroed)
    return {name: Tensor.parameter(view) for name, view in views.items()}


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    _flat: "_FlatLayout | None" = field(default=None, init=False, repr=False,
                                        compare=False)


class _Entry:
    """One parameter in the layout: its ``.data`` view, its moment views,
    its span within its block, and its moments' dict entries (None while it
    has had no gradient)."""

    __slots__ = ("name", "data", "m", "v", "lo", "hi", "m_entry", "v_entry")

    def __init__(self, name, data, m, v, lo, hi, has_moments):
        self.name, self.data = name, data
        self.m, self.v, self.lo, self.hi = m, v, lo, hi
        self.m_entry = m if has_moments else None
        self.v_entry = v if has_moments else None


class _Block:
    __slots__ = ("entries", "param", "m", "v")

    def __init__(self, entries, param, m, v):
        self.entries, self.param, self.m, self.v = entries, param, m, v


class _FlatLayout:
    """Parameters and moments as views into three matching flat buffers,
    cut into blocks at parameter boundaries."""

    def __init__(self, params: dict[str, Tensor], state: AdamState):
        shapes = {name: p.data.shape for name, p in params.items()}
        param_buf = _buffer_of({n: p.data for n, p in params.items()}, shapes)
        if param_buf is None:
            param_buf, views = flat_views(shapes, zeroed=False)
            for name, p in params.items():
                views[name][...] = p.data
                p.data = views[name]
        moment_bufs = []
        for moments in (state.first_moment, state.second_moment):
            present = {n: moments[n] for n in shapes if n in moments}
            buf = _buffer_of(present, shapes)
            if buf is None or any(buf is b for b in (param_buf, *moment_bufs)):
                buf, views = flat_views(shapes)
                for name, arr in present.items():
                    views[name][...] = arr
            moment_bufs.append(buf)
        m_buf, v_buf = moment_bufs
        self.blocks: list[_Block] = []
        block: list[_Entry] = []
        lo = hi = 0
        for name, p in params.items():
            size = p.data.size
            if block and hi + size - lo > BLOCK_ELEMENTS:
                self.blocks.append(_Block(block, param_buf[lo:hi], m_buf[lo:hi],
                                          v_buf[lo:hi]))
                block, lo = [], hi
            at = slice(hi, hi + size)
            block.append(_Entry(name, p.data, m_buf[at].reshape(shapes[name]),
                                v_buf[at].reshape(shapes[name]), hi - lo,
                                hi - lo + size, name in state.first_moment))
            hi += size
        if block:
            self.blocks.append(_Block(block, param_buf[lo:hi], m_buf[lo:hi],
                                      v_buf[lo:hi]))
        self.entries = [e for b in self.blocks for e in b.entries]
        self.width = max((b.param.size for b in self.blocks), default=0)
        for e in self.entries:
            if e.m_entry is not None:
                state.first_moment[e.name] = e.m
                state.second_moment[e.name] = e.v
        self.first_moment = state.first_moment
        self.second_moment = state.second_moment

    def current(self, params: dict[str, Tensor], state: AdamState) -> bool:
        """Whether ``params`` and the moments are still this layout's views."""
        if (len(params) != len(self.entries)
                or state.first_moment is not self.first_moment
                or state.second_moment is not self.second_moment):
            return False
        first, second = state.first_moment, state.second_moment
        for e in self.entries:
            tensor = params.get(e.name)
            if (tensor is None or tensor.data is not e.data
                    or first.get(e.name) is not e.m_entry
                    or second.get(e.name) is not e.v_entry):
                return False
        return True


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _buffer_of(arrays: dict[str, np.ndarray],
               shapes: dict[str, tuple[int, ...]]) -> np.ndarray | None:
    """The buffer that :func:`flat_views` of ``shapes`` would lay out, if
    every one of ``arrays`` already is its writable view there; else None."""
    base = next(iter(arrays.values())).base if arrays else None
    if not (isinstance(base, np.ndarray) and base.ndim == 1
            and base.dtype == np.float64 and base.flags.c_contiguous
            and base.size == sum(math.prod(s) for s in shapes.values())):
        return None
    address = _address(base)
    for name, shape in shapes.items():
        arr = arrays.get(name)
        if arr is not None and (arr.base is not base or arr.shape != shape
                                or arr.dtype != np.float64
                                or not arr.flags.c_contiguous
                                or not arr.flags.writeable
                                or _address(arr) != address):
            return None
        address += base.itemsize * math.prod(shape)
    return base


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
    or whose shape is not its parameter's, raises ShapeError before anything
    changes. Returns the same objects for chaining.
    """
    _validate(params, grads)
    layout = state._flat
    if layout is None or not layout.current(params, state):
        layout = state._flat = _FlatLayout(params, state)
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    lr = state.learning_rate
    # Scratch is per step: it reuses memory the freed graph left behind.
    grad_buf, tmp_buf = np.empty(layout.width), np.empty(layout.width)
    for block in layout.blocks:
        n = block.param.size
        g, tmp = grad_buf[:n], tmp_buf[:n]
        skipped = False
        for e in block.entries:
            grad = grads.get(e.name)
            if grad is None:
                skipped = True
                continue
            g[e.lo:e.hi] = grad.reshape(-1)
            if e.m_entry is None:
                # A parameter's first gradient: its moments start at zero.
                e.m[...] = 0.0
                e.v[...] = 0.0
                e.m_entry = state.first_moment[e.name] = e.m
                e.v_entry = state.second_moment[e.name] = e.v
        where = True
        if skipped:
            where = np.zeros(n, bool)
            for e in block.entries:
                where[e.lo:e.hi] = e.name in grads
        m, v, p = block.m, block.v, block.param
        np.multiply(m, BETA1, out=m, where=where)
        np.multiply(g, 1.0 - BETA1, out=tmp, where=where)
        np.add(m, tmp, out=m, where=where)
        np.multiply(v, BETA2, out=v, where=where)
        np.multiply(g, g, out=tmp, where=where)
        np.multiply(tmp, 1.0 - BETA2, out=tmp, where=where)
        np.add(v, tmp, out=v, where=where)
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
