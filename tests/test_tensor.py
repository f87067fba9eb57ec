import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet import tensor as T
from fewdet.errors import NumericError, ShapeError
from fewdet.tensor import Tensor, finite_diff_gradient


def grad_check(build, x, rtol=1e-5, atol=1e-7, h=1e-6):
    """Reverse-mode vs central finite differences on sum(build(x))."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    loss = T.tsum(out) if out.size > 1 else out
    loss.backward()
    numeric = finite_diff_gradient(lambda v: T.tsum(build(v)), Tensor(x), h=h)
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


class TestMatmul:
    def test_identity(self):
        x = np.arange(9.0).reshape(3, 3)
        out = T.matmul(Tensor(np.eye(3)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        b = Tensor(rng.normal(size=(5, 3)))
        grad_check(lambda t: T.matmul(t, b), rng.normal(size=(4, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_single_column_is_ones(self):
        out = T.softmax_rows(Tensor([[3.0], [-1.0]]))
        np.testing.assert_array_equal(out.data, [[1.0], [1.0]])

    def test_symmetric_row(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_log_weights(self):
        out = T.softmax_rows(Tensor([[np.log(1), np.log(2), np.log(3)]]))
        np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-12)

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor([[np.inf, 0.0]]))

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 7)) * 10
        out = T.softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-12)
        shifted = T.softmax_rows(Tensor(x + 123.456))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_no_overflow(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_ln3(self):
        assert T.sigmoid(Tensor(np.log(3.0))).item() == pytest.approx(0.75, rel=1e-12)


class TestConcatChannels:
    def test_empty_second(self):
        x = np.arange(6.0).reshape(3, 2)
        out = T.concat_channels(Tensor(x), Tensor(np.zeros((3, 0))))
        np.testing.assert_array_equal(out.data, x)

    def test_single_rows(self):
        out = T.concat_channels(Tensor([[1.0]]), Tensor([[2.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_gradient_split(self):
        rng = np.random.default_rng(3)
        b = Tensor(rng.normal(size=(3, 2)))
        mix = Tensor(rng.normal(size=(3, 6)))
        grad_check(lambda t: T.concat_channels(t, b) * mix, rng.normal(size=(3, 4)))

    def test_gradient_split_is_identity(self):
        # Concatenate then read both halves: each input's grad equals the
        # upstream grad of its half exactly.
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        cat = T.concat_channels(a, b)
        weights = np.arange(10.0).reshape(2, 5)
        T.tsum(cat * Tensor(weights)).backward()
        np.testing.assert_array_equal(a.grad, weights[:, :3])
        np.testing.assert_array_equal(b.grad, weights[:, 3:])

    def test_leading_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat_channels(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))


class TestPointwiseConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        out = T.pointwise_conv1d(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_single_row_is_vector_matrix_product(self):
        rng = np.random.default_rng(5)
        x, k, b = rng.normal(size=(1, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = T.pointwise_conv1d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, x @ k + b)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        k = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=3))
        grad_check(lambda t: T.pointwise_conv1d(t, k, b), rng.normal(size=(5, 4)))


class TestFfn:
    def zero_params(self, d, h):
        return T.FfnParams(Tensor(np.zeros((d, h))), Tensor(np.zeros(h)),
                           Tensor(np.zeros((h, d))), Tensor(np.zeros(d)))

    def test_zero_weights_residual_passthrough(self):
        x = np.arange(8.0).reshape(2, 4)
        out = T.ffn_apply(Tensor(x), self.zero_params(4, 6))
        np.testing.assert_array_equal(out.data, x)

    def test_empty_rows(self):
        out = T.ffn_apply(Tensor(np.zeros((0, 4))), self.zero_params(4, 6))
        assert out.shape == (0, 4)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        params = T.FfnParams(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=6)),
                             Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=4)))
        grad_check(lambda t: T.ffn_apply(t, params), rng.normal(size=(3, 4)))


class TestFiniteDiff:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        g = finite_diff_gradient(lambda t: T.tsum(t), x)
        np.testing.assert_allclose(g, np.ones((2, 3)), atol=1e-9)

    def test_square_at_three(self):
        g = finite_diff_gradient(lambda t: t * t, Tensor(3.0), h=1e-5)
        assert abs(float(g) - 6.0) < 1e-8

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda t: t, Tensor(1.0), h=0.0)

    def test_nonfinite_objective(self):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"), \
                pytest.raises(NumericError):
            finite_diff_gradient(lambda t: T.log(t), Tensor(-1.0))


_PRIMITIVES = {
    "add": lambda t, c: t + c,
    "mul": lambda t, c: t * c,
    "div": lambda t, c: t / (T.tabs(c) + 1.0),
    "sigmoid": lambda t, c: T.sigmoid(t * 3.0),
    "softplus": lambda t, c: T.softplus(t * 3.0),
    "silu": lambda t, c: T.silu(t * 3.0),
    "exp": lambda t, c: T.exp(t),
    "softmax": lambda t, c: T.softmax_rows(t) * c,
    "matmul": lambda t, c: T.matmul(t, T.transpose(c)),
    "sum_axis0": lambda t, c: T.tsum(t, axis=0),
    "mean_axis1": lambda t, c: T.tmean(t, axis=1),
}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(_PRIMITIVES)),
    st.integers(1, 4), st.integers(1, 5),
    st.integers(0, 2 ** 31 - 1),
)
def test_primitive_gradients_match_oracle(op, m, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, n))
    c = Tensor(rng.normal(size=(m, n)))
    grad_check(lambda t: _PRIMITIVES[op](t, c), x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_forward_bit_reproducible(m, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, n))
    w = rng.normal(size=(n, n))

    def run():
        t = Tensor(x, requires_grad=True)
        return T.tsum(T.softmax_rows(T.matmul(t, Tensor(w))) * T.sigmoid(t)).item()

    assert run() == run()


def test_gradient_accumulates_on_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x  # uses x twice
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    z = x * 2.0
    assert z.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_take_rows_accumulates_repeated_indices():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.take_rows(x, [1, 1, 2])
    T.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [[0, 0], [2, 2], [1, 1]])


def reference_attention(q, k, v, heads):
    """Per-head slice/softmax/concat loop: the unfused reference the fused
    attention primitive must reproduce."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qs, ks, vs = (T.slice_cols(x, h * dh, (h + 1) * dh) for x in (q, k, v))
        attn = T.softmax_rows(T.matmul(qs, T.transpose(ks)) * (1.0 / np.sqrt(dh)))
        outs.append(T.matmul(attn, vs))
    merged = outs[0]
    for o in outs[1:]:
        merged = T.concat_channels(merged, o)
    return merged


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("self_attention", [False, True])
    def test_matches_per_head_reference(self, heads, self_attention):
        rng = np.random.default_rng(11 + heads)
        n, m, d = 6, 5, 8
        k_data = rng.normal(size=(m, d))
        q_data = k_data if self_attention else rng.normal(size=(n, d))
        v_data = rng.normal(size=(m, d))
        v_data[[1, 3]] = 0.0  # placeholder rows carry zero values
        mix = rng.normal(size=(q_data.shape[0], d))

        def run(fn):
            k = Tensor(k_data, requires_grad=True)
            q = k if self_attention else Tensor(q_data, requires_grad=True)
            v = Tensor(v_data, requires_grad=True)
            out = fn(q, k, v)
            T.tsum(out * Tensor(mix)).backward()
            return out.data, q.grad, k.grad, v.grad

        fused = run(lambda q, k, v: T.attention(q, k, v, heads)[0])
        reference = run(lambda q, k, v: reference_attention(q, k, v, heads))
        for got, want in zip(fused, reference):
            assert np.abs(got - want).max() < 1e-12

    def test_mean_attention_is_head_average(self):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(4, 6))) for _ in range(3))
        _, mean_attn = T.attention(q, k, v, 2)
        per_head = [T.softmax_rows(T.matmul(T.slice_cols(q, h * 3, h * 3 + 3),
                                            T.transpose(T.slice_cols(k, h * 3, h * 3 + 3)))
                                   * (1.0 / np.sqrt(3))).data for h in range(2)]
        np.testing.assert_allclose(mean_attn, (per_head[0] + per_head[1]) / 2,
                                   rtol=1e-12)
        np.testing.assert_allclose(mean_attn.sum(axis=1), np.ones(4), atol=1e-12)

    def test_nonfinite_scores_raise(self):
        q = Tensor(np.array([[np.inf, 0.0]]))
        with pytest.raises(NumericError):
            T.attention(q, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))), 1)

    def test_heads_must_divide_width(self):
        x = Tensor(np.ones((2, 6)))
        with pytest.raises(ShapeError):
            T.attention(x, x, x, 4)

    def test_key_value_mismatch(self):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))),
                        Tensor(np.ones((2, 4))), 2)


def reference_layer_norm(x, gamma, beta, eps=1e-5):
    """The layer norm spelled out in elementwise primitives."""
    centered = x - T.tmean(x, axis=1, keepdims=True)
    var = T.tmean(centered * centered, axis=1, keepdims=True)
    return (centered / T.sqrt(var + eps)) * gamma + beta


def test_layer_norm_matches_elementwise_reference():
    rng = np.random.default_rng(5)
    data = [rng.normal(size=(4, 6)) * 3.0, rng.normal(size=6), rng.normal(size=6)]
    mix = rng.normal(size=(4, 6))

    def run(fn):
        args = [Tensor(a, requires_grad=True) for a in data]
        out = fn(*args)
        T.tsum(out * Tensor(mix)).backward()
        return [out.data] + [a.grad for a in args]

    fused, reference = run(T.layer_norm), run(reference_layer_norm)
    np.testing.assert_array_equal(fused[0], reference[0])  # same arithmetic
    for got, want in zip(fused[1:], reference[1:]):
        assert np.abs(got - want).max() < 1e-12
