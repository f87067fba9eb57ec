import numpy as np
import pytest

from fewdet import optim
from fewdet.errors import ShapeError
from fewdet.optim import (BETA1, BETA2, BLOCK_ELEMENTS, EPSILON, AdamState,
                          adam_step, collect_grads, flat_parameters, zero_grads)
from fewdet.tensor import Tensor, tsum


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState()
    adam_step({"p": p}, {"p": np.zeros(2)}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step_count == 1


def test_first_step_magnitude_is_learning_rate():
    # On f(x) = x the gradient is 1; bias correction makes the first step
    # equal to the learning rate (up to epsilon).
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState(learning_rate=0.1)
    adam_step({"p": p}, {"p": np.ones(1)}, state)
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_quadratic_descent_monotone_after_warmup():
    target = np.array([0.3, -1.2, 2.0])
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState(learning_rate=0.01)
    losses = []
    for _ in range(200):
        zero_grads({"p": p})
        diff = p - Tensor(target)
        loss = tsum(diff * diff)
        losses.append(loss.item())
        loss.backward()
        adam_step({"p": p}, collect_grads({"p": p}), state)
    for k in range(10, len(losses) - 1):
        assert losses[k + 1] < losses[k]


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        adam_step({"p": p}, {"p": np.zeros(4)}, AdamState())


def test_step_count_increments_once_per_update():
    p = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState()
    for expected in range(1, 5):
        adam_step({"p": p}, {"p": np.ones(2)}, state)
        assert state.step_count == expected


def test_skipped_parameters_keep_moments_untouched():
    p = Tensor(np.zeros(2), requires_grad=True)
    q = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState()
    adam_step({"p": p, "q": q}, {"p": np.ones(2)}, state)
    assert "q" not in state.first_moment
    np.testing.assert_array_equal(q.data, np.zeros(2))


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
    assert state.step_count == ref_state.step_count
    for name in ref_params:
        assert params[name].data.tobytes() == ref_params[name].data.tobytes(), name
    for moments, ref in ((state.first_moment, ref_state.first_moment),
                         (state.second_moment, ref_state.second_moment)):
        assert sorted(moments) == sorted(ref)
        for name, arr in ref.items():
            assert moments[name].shape == arr.shape
            assert moments[name].tobytes() == arr.tobytes(), name


def _shares_one_buffer(arrays):
    base = arrays[0].base
    return base is not None and all(a.base is base and a.flags.c_contiguous
                                    for a in arrays)


@pytest.mark.parametrize("block", [BLOCK_ELEMENTS, 7], ids=["default", "tiny"])
@pytest.mark.parametrize("built", ["separate", "flat"])
def test_flat_update_equals_per_parameter_loop(monkeypatch, block, built):
    monkeypatch.setattr(optim, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(12)
    values = _random_params(rng)
    if built == "flat":
        params = flat_parameters({n: v.shape for n, v in values.items()})
        for name, value in values.items():
            params[name].data[...] = value
    else:
        params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
    ref_params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
    state, ref_state = AdamState(learning_rate=0.01), AdamState(learning_rate=0.01)
    for names in SCHEDULE * 2:
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
        _assert_same(params, state, ref_params, ref_state)
    assert _shares_one_buffer([p.data for p in params.values()])
    assert _shares_one_buffer(list(state.first_moment.values()))
    assert "e" not in state.first_moment


def test_replaced_tensor_or_data_is_repacked():
    rng = np.random.default_rng(3)
    values = _random_params(rng)
    params = flat_parameters({n: v.shape for n, v in values.items()})
    for name, value in values.items():
        params[name].data[...] = value
    ref_params = {n: Tensor(v, requires_grad=True) for n, v in values.items()}
    state, ref_state = AdamState(), AdamState()

    def step(names):
        grads = {n: rng.normal(size=SHAPES[n]) for n in names}
        adam_step(params, grads, state)
        adam_reference(ref_params, grads, ref_state)
        _assert_same(params, state, ref_params, ref_state)

    step("abcd")
    fresh = rng.normal(size=SHAPES["a"])
    params["a"] = Tensor(fresh, requires_grad=True)      # a new Tensor
    ref_params["a"] = Tensor(fresh, requires_grad=True)
    step("abcd")
    fresh = rng.normal(size=SHAPES["d"])
    params["d"].data = fresh.copy()                      # a new .data
    ref_params["d"].data = fresh.copy()
    step("abd")
    for moments in (state.first_moment, state.second_moment,
                    ref_state.first_moment, ref_state.second_moment):
        del moments["b"]                                 # b's moments restart
    step("abcd")
    assert _shares_one_buffer([p.data for p in params.values()])
    kept = {n: p.data for n, p in params.items()}
    step("abcd")  # nothing swapped: no re-packing, the same views
    assert all(params[n].data is kept[n] for n in params)


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
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.arange(4.0), requires_grad=True)
    params, state = {"p": p, "q": q}, AdamState()
    if stepped:
        adam_step(params, {"p": np.ones(2), "q": np.ones(4)}, state)
    before = _snapshot(params, state)
    with pytest.raises(ShapeError, match=r"'q' \(4,\)"):
        adam_step(params, {"p": np.ones(2), "q": np.ones(3)}, state)
    _assert_unchanged(before, params, state)
    with pytest.raises(ShapeError, match="'zz', which is not a parameter"):
        adam_step(params, {"p": np.ones(2), "zz": np.ones(2)}, state)
    _assert_unchanged(before, params, state)
