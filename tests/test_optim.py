import math

import numpy as np
import pytest

from fewdet import optim
from fewdet.errors import ShapeError
from fewdet.optim import (BETA1, BETA2, BLOCK_ELEMENTS, EPSILON, AdamState,
                          adam_step, collect_grads, flat_buffers, flat_parameters,
                          restore, zero_grads)
from fewdet.tensor import Tensor, tsum


def flat(values):
    """Parameters holding copies of ``values``, in one flat buffer."""
    params = flat_parameters({name: np.shape(v) for name, v in values.items()})
    for name, value in values.items():
        params[name].data[...] = value
    return params


def test_zero_gradient_leaves_parameters_unchanged():
    params = flat({"p": [1.0, -2.0]})
    state = AdamState()
    adam_step(params, {"p": np.zeros(2)}, state)
    np.testing.assert_array_equal(params["p"].data, [1.0, -2.0])
    assert state.step_count == 1


def test_first_step_magnitude_is_learning_rate():
    # On f(x) = x the gradient is 1; bias correction makes the first step
    # equal to the learning rate (up to epsilon).
    params = flat({"p": [1.0]})
    state = AdamState(learning_rate=0.1)
    adam_step(params, {"p": np.ones(1)}, state)
    assert params["p"].data[0] == pytest.approx(0.9, abs=1e-6)


def test_quadratic_descent_monotone_after_warmup():
    target = np.array([0.3, -1.2, 2.0])
    params = flat({"p": np.zeros(3)})
    state = AdamState(learning_rate=0.01)
    losses = []
    for _ in range(200):
        zero_grads(params)
        diff = params["p"] + Tensor(-target)
        loss = tsum(diff * diff)
        losses.append(loss.item())
        loss.backward()
        adam_step(params, collect_grads(params), state)
    for k in range(10, len(losses) - 1):
        assert losses[k + 1] < losses[k]


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        adam_step(flat({"p": np.zeros(3)}), {"p": np.zeros(4)}, AdamState())


def test_step_count_increments_once_per_update():
    params = flat({"p": np.zeros(2)})
    state = AdamState()
    for expected in range(1, 5):
        adam_step(params, {"p": np.ones(2)}, state)
        assert state.step_count == expected


def test_skipped_parameters_keep_moments_untouched():
    params = flat({"p": np.zeros(2), "q": np.zeros(2)})
    state = AdamState()
    adam_step(params, {"p": np.ones(2)}, state)
    assert list(state.first_moment) == list(state.second_moment) == ["p", "q"]
    assert not state.first_moment["q"].any() and not state.second_moment["q"].any()
    assert state.first_moment["p"].all() and state.second_moment["p"].all()
    np.testing.assert_array_equal(params["q"].data, np.zeros(2))


# -- the flat, block-wise update against the per-parameter loop --------------------


def adam_reference(params, grads, state):
    """Adam as one update per parameter: the definition the flat update must
    reproduce bit for bit."""
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    for name, grad in grads.items():
        param = params[name]
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            state.first_moment[name] = m
            state.second_moment[name] = v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * (grad * grad)
        m_hat = m / correction1
        v_hat = v / correction2
        param.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)


# Mixed shapes, a (1,) parameter, and one larger than a default block.
SHAPES = {"a": (3, 4), "b": (1,), "c": (BLOCK_ELEMENTS + 5,), "d": (5, 2, 3),
          "e": (7,)}
# Gradient subsets that change between steps: c and d appear late, b and d
# drop out and come back, e never has a gradient.
SCHEDULE = [("a", "b"), ("a", "b", "c", "d"), ("a", "c"), ("b", "c", "d"),
            ("a", "b", "c", "d"), ("d",), ("a", "b", "c")]


def _random_params(rng):
    return {name: rng.normal(size=shape) for name, shape in SHAPES.items()}


def _assert_same(params, state, ref_params, ref_state):
    """Parameters and moments bit for bit the reference's; the moment dicts
    hold every parameter in layout order, and a parameter the reference has
    no moments for (it never had a gradient) has all-zero ones."""
    assert state.step_count == ref_state.step_count
    for name in ref_params:
        assert params[name].data.tobytes() == ref_params[name].data.tobytes(), name
    for moments, ref in ((state.first_moment, ref_state.first_moment),
                         (state.second_moment, ref_state.second_moment)):
        assert list(moments) == list(ref_params)
        for name, arr in moments.items():
            want = ref.get(name, np.zeros(ref_params[name].data.shape))
            assert arr.shape == want.shape
            assert arr.tobytes() == want.tobytes(), name


def _shares_one_buffer(arrays):
    base = arrays[0].base
    return base is not None and all(a.base is base and a.flags.c_contiguous
                                    for a in arrays)


@pytest.mark.parametrize("block", [BLOCK_ELEMENTS, 7], ids=["default", "tiny"])
@pytest.mark.parametrize("built", ["separate", "flat"])
def test_flat_update_equals_per_parameter_loop(monkeypatch, block, built):
    """Flat parameters update as the per-parameter loop does, bit for bit;
    separate arrays are refused with nothing changed, not re-packed."""
    monkeypatch.setattr(optim, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(12)
    values = _random_params(rng)
    state, ref_state = AdamState(learning_rate=0.01), AdamState(learning_rate=0.01)
    if built == "separate":
        params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
        before = _snapshot(params, state)
        with pytest.raises(ShapeError, match="not views tiling one flat"):
            adam_step(params, {"a": np.ones(SHAPES["a"])}, state)
        _assert_unchanged(before, params, state)
        return
    params = flat(values)
    ref_params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
    for names in SCHEDULE * 2:
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
        _assert_same(params, state, ref_params, ref_state)
    assert _shares_one_buffer([p.data for p in params.values()])
    assert _shares_one_buffer(list(state.first_moment.values()))
    assert "e" not in ref_state.first_moment  # so its moments are checked zero


def test_parameters_out_of_buffer_order_are_refused():
    values = _random_params(np.random.default_rng(5))
    shuffled = dict(reversed(flat(values).items()))
    state = AdamState()
    before = _snapshot(shuffled, state)
    for call in (lambda: adam_step(shuffled, {"a": np.ones(SHAPES["a"])}, state),
                 lambda: flat_buffers(shuffled, state)):
        with pytest.raises(ShapeError, match="'e' is not the next view"):
            call()
        _assert_unchanged(before, shuffled, state)


def test_replaced_tensor_or_data_is_refused():
    """After binding, a swapped ``Tensor`` or ``.data`` is refused with the
    parameters, moments and step count unchanged; put back, the run goes on
    as if it had never been swapped."""
    rng = np.random.default_rng(3)
    values = _random_params(rng)
    params = flat(values)
    ref_params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
    state, ref_state = AdamState(), AdamState()

    def step(names):
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
        _assert_same(params, state, ref_params, ref_state)

    step("abcd")
    original = params["a"]
    params["a"] = Tensor(rng.normal(size=SHAPES["a"]), requires_grad=True)
    before = _snapshot(params, state)
    for call in (lambda: adam_step(params, {"b": np.ones(1)}, state),
                 lambda: flat_buffers(params, state)):
        with pytest.raises(ShapeError, match="replaced after the optimizer bound"):
            call()
        _assert_unchanged(before, params, state)
    params["a"] = original
    step("abcd")
    original = params["d"].data
    params["d"].data = rng.normal(size=SHAPES["d"])
    before = _snapshot(params, state)
    with pytest.raises(ShapeError, match="replaced after the optimizer bound"):
        adam_step(params, {"b": np.ones(1)}, state)
    _assert_unchanged(before, params, state)
    params["d"].data = original
    kept = {n: p.data for n, p in params.items()}
    step("abd")
    assert all(params[n].data is kept[n] for n in params)


def test_flat_buffers_before_a_step_are_the_ones_the_step_updates():
    rng = np.random.default_rng(8)
    params = flat(_random_params(rng))
    state = AdamState()
    buffers = flat_buffers(params, state)
    assert buffers[0] is params["a"].data.base
    assert not buffers[1].any() and not buffers[2].any()
    # Binding gives every parameter its (zero) moments, in layout order.
    assert list(state.first_moment) == list(state.second_moment) == list(SHAPES)
    adam_step(params, {n: rng.normal(size=SHAPES[n]) for n in "ab"}, state)
    assert all(a is b for a, b in zip(flat_buffers(params, state), buffers))
    for moments, buffer in ((state.first_moment, buffers[1]),
                            (state.second_moment, buffers[2])):
        assert list(moments) == list(SHAPES)
        assert all(m.base is buffer and m.any() == (name in "ab")
                   for name, m in moments.items())


def test_restore_binds_the_moment_buffers_as_given():
    """Moment buffers full of random values: every parameter's region is
    bound as it is, nothing is zeroed, and the run goes on as the reference
    with those moments."""
    rng = np.random.default_rng(9)
    values = _random_params(rng)
    size = sum(v.size for v in values.values())
    param_buf = np.concatenate([v.reshape(-1) for v in values.values()])
    m, v = rng.normal(size=size), np.abs(rng.normal(size=size))
    m0, v0 = m.copy(), v.copy()
    state = AdamState(learning_rate=0.01, step_count=4)
    params = restore(param_buf, m, v, SHAPES, state)
    assert list(params) == list(SHAPES)
    assert all(p.data.base is param_buf and p.requires_grad for p in params.values())
    assert list(state.first_moment) == list(state.second_moment) == list(SHAPES)
    assert all(state.first_moment[n].base is m and state.second_moment[n].base is v
               for n in SHAPES)
    assert all(a is b for a, b in zip(flat_buffers(params, state), (param_buf, m, v)))
    assert m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes()
    offset = 0
    for name, value in values.items():
        assert params[name].data.tobytes() == value.tobytes(), name
        assert (state.first_moment[name].tobytes()
                == m0[offset:offset + value.size].tobytes()), name
        offset += value.size
    ref_params = {n: Tensor(x, requires_grad=True) for n, x in values.items()}
    ref_state = AdamState(learning_rate=0.01, step_count=4)
    for name in SHAPES:
        ref_state.first_moment[name] = state.first_moment[name].copy()
        ref_state.second_moment[name] = state.second_moment[name].copy()
    for names in SCHEDULE:
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
        _assert_same(params, state, ref_params, ref_state)


def test_restore_into_a_bound_optimizer_fails_at_once():
    """A state bound already, by restore or by a step, is refused with its
    parameters, moments and step count unchanged."""
    rng = np.random.default_rng(10)
    size = sum(math.prod(shape) for shape in SHAPES.values())
    for bind in ("restore", "step"):
        state = AdamState()
        if bind == "restore":
            params = restore(rng.normal(size=size), np.zeros(size), np.zeros(size),
                             SHAPES, state)
        else:
            params = flat(_random_params(rng))
            adam_step(params, {"a": np.ones(SHAPES["a"])}, state)
        before = _snapshot(params, state)
        m, v = rng.normal(size=size), rng.normal(size=size)
        m0, v0 = m.copy(), v.copy()
        with pytest.raises(ShapeError, match="already bound"):
            restore(rng.normal(size=size), m, v, SHAPES, state)
        _assert_unchanged(before, params, state)
        assert m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes()


@pytest.mark.parametrize("which", [0, 1, 2], ids=["params", "adam.m", "adam.v"])
@pytest.mark.parametrize("bad", ["short", "long", "float32", "2-D", "strided",
                                 "read-only"])
def test_restore_from_a_bad_buffer_fails_at_once(which, bad):
    """A buffer of the wrong size, dtype or rank (or one not C-contiguous or
    not writable) raises ShapeError at restore, and neither the buffers nor
    the state change; the state is still fresh after it."""
    rng = np.random.default_rng(11)
    size = sum(math.prod(shape) for shape in SHAPES.values())
    buffers = [rng.normal(size=size) for _ in range(3)]
    good = buffers[which]
    buffers[which] = {
        "short": good[:-1], "long": np.append(good, 0.0),
        "float32": good.astype(np.float32), "2-D": good.reshape(1, size),
        "strided": np.repeat(good, 2)[::2],
        "read-only": np.frombuffer(good.tobytes()),
    }[bad]
    copies = [b.copy() for b in buffers]
    state = AdamState()
    with pytest.raises(ShapeError, match="buffer is not a writable 1-D"):
        restore(*buffers, SHAPES, state)
    assert not state.first_moment and not state.second_moment
    assert state._flat is None and state.step_count == 0
    assert all(b.tobytes() == c.tobytes() for b, c in zip(buffers, copies))
    buffers[which] = good
    params = restore(*buffers, SHAPES, state)
    assert flat_buffers(params, state)[which] is good


def _snapshot(params, state):
    return ({n: p.data.copy() for n, p in params.items()},
            {n: m.copy() for n, m in state.first_moment.items()},
            {n: v.copy() for n, v in state.second_moment.items()},
            state.step_count)


def _assert_unchanged(before, params, state):
    values, first, second, count = before
    assert state.step_count == count
    for name, value in values.items():
        assert params[name].data.tobytes() == value.tobytes()
    for now, then in ((state.first_moment, first), (state.second_moment, second)):
        assert sorted(now) == sorted(then)
        for name, arr in then.items():
            assert now[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "after-a-step"])
def test_rejected_gradient_changes_nothing(stepped):
    """Names and shapes are checked before any parameter, moment or the
    step count changes, for a first step and for a later one."""
    params, state = flat({"p": [1.0, -2.0], "q": np.arange(4.0)}), AdamState()
    if stepped:
        adam_step(params, {"p": np.ones(2), "q": np.ones(4)}, state)
    before = _snapshot(params, state)
    with pytest.raises(ShapeError, match=r"'q' \(4,\)"):
        adam_step(params, {"p": np.ones(2), "q": np.ones(3)}, state)
    _assert_unchanged(before, params, state)
    with pytest.raises(ShapeError, match="'zz', which is not a parameter"):
        adam_step(params, {"p": np.ones(2), "zz": np.ones(2)}, state)
    _assert_unchanged(before, params, state)


@pytest.mark.parametrize("t", [355, 356, 400])
def test_update_once_bias_correction_rounds_to_one(t):
    """From step 356 on ``1 - BETA1**t`` is exactly 1.0 and the update skips
    dividing by it; either side of that step it equals the reference."""
    assert (1.0 - BETA1 ** t == 1.0) == (t >= 356)
    rng = np.random.default_rng(t)
    values = _random_params(rng)
    params = flat(values)
    ref_params = {n: Tensor(v.copy(), requires_grad=True) for n, v in values.items()}
    state, ref_state = AdamState(learning_rate=0.01), AdamState(learning_rate=0.01)
    for s in (state, ref_state):
        s.step_count = t - 2
    for names in (("a", "b", "c"), ("a", "c", "d")):
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
    assert state.step_count == t
    _assert_same(params, state, ref_params, ref_state)
