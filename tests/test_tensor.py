import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet import ood, set_head, tensor as T
from fewdet.errors import NumericError, ShapeError
from fewdet.obd import head_average
from fewdet.tensor import Tensor, finite_diff_gradient


def softmax_rows(a):
    """Row-wise softmax stabilized by row-max subtraction, as a graph node:
    the per-head softmax the fused attention must reproduce."""
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_rows received non-finite input")
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return Tensor._result(
        out, (a,), lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def transpose(a):
    return Tensor._result(a.data.T.copy(), (a,), lambda g: (g.T,))


def sqrt(a):
    out = np.sqrt(a.data)
    return Tensor._result(out, (a,), lambda g: (g * (0.5 / out),))


def exp(a):
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


def log(a):
    return Tensor._result(np.log(a.data), (a,), lambda g: (g / a.data,))


def subtract_rows(a, b):
    """``a - b`` for a column ``b`` of one value per row of ``a``."""
    return Tensor._result(a.data - b.data, (a, b),
                          lambda g: (g, (-g).sum(axis=1, keepdims=True)))


def mean_rows(a):
    return T.tsum(a, axis=1, keepdims=True) * (1.0 / a.shape[1])


def divide_rows(a, b):
    """``a / b`` for a column ``b`` of one value per row of ``a``."""
    return Tensor._result(
        a.data / b.data, (a, b),
        lambda g: (g / b.data,
                   (-g * a.data / (b.data * b.data)).sum(axis=1, keepdims=True)))


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
    """Pins the test-local softmax the attention reference is built from."""

    def test_single_column_is_ones(self):
        out = softmax_rows(Tensor([[3.0], [-1.0]]))
        np.testing.assert_array_equal(out.data, [[1.0], [1.0]])

    def test_symmetric_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_log_weights(self):
        out = softmax_rows(Tensor([[np.log(1), np.log(2), np.log(3)]]))
        np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-12)

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericError):
            softmax_rows(Tensor([[np.inf, 0.0]]))

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 7)) * 10
        out = softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-12)
        shifted = softmax_rows(Tensor(x + 123.456))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_no_overflow(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_ln3(self):
        assert T.sigmoid(Tensor(np.log(3.0))).item() == pytest.approx(0.75, rel=1e-12)

    @staticmethod
    def branchwise(x):
        """The masked two-branch form: 1 / (1 + exp(-x)) on x >= 0,
        exp(x) / (1 + exp(x)) elsewhere."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.parametrize("x", [
        np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 800.0,
                  -800.0, np.inf, -np.inf, np.nan, -np.nan]),
        np.random.default_rng(0).normal(0.0, 5.0, (64, 128)),
        np.random.default_rng(1).normal(0.0, 30.0, (256, 128)),
    ], ids=["specials", "64x128", "256x128"])
    def test_bit_identical_to_branchwise(self, x):
        out = T._stable_sigmoid(x)
        assert out.shape == x.shape
        np.testing.assert_array_equal(out.view(np.uint64),
                                      self.branchwise(x).view(np.uint64))

    def test_bit_identical_to_where_form(self):
        """The ``np.maximum`` numerator against the ``np.where`` one it
        replaced, bit for bit, on signed zeros, infinities and NaNs of both
        signs."""
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFF0000000000001],
                        dtype=np.uint64).view(np.float64)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                             745.0, -745.0], nans,
                            np.random.default_rng(2).normal(0.0, 10.0, 64)])
        e = np.exp(np.minimum(x, -x))
        where_form = np.where(x >= 0, 1.0, e) / (1.0 + e)
        np.testing.assert_array_equal(T._stable_sigmoid(x).view(np.uint64),
                                      where_form.view(np.uint64))


class TestSilu:
    @pytest.mark.parametrize("x", [
        np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 701.0,
                  -701.0, 745.5, -745.5, 1e308, -1e308, np.inf, -np.inf]),
        np.random.default_rng(3).normal(0.0, 5.0, (64, 128)),
        np.array(-0.0),
        np.array(-800.0),
    ], ids=["specials", "64x128", "0-d-negative-zero", "0-d-large"])
    def test_bit_identical_to_numpy_expression(self, x):
        """Forward ``x * s`` and backward ``g * (s * (1 + x * (1 - s)))``,
        with s the two-branch sigmoid, bit for bit: signed zeros,
        infinities (the bit patterns of their NaNs too) and |x| > 700."""
        g = np.random.default_rng(4).normal(size=x.shape)
        if x.ndim:
            g.reshape(-1)[:2] = (-0.0, 0.0)
        t = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf * 0 at the infinities
            out = T.silu(t)
            T.tsum(out * Tensor(g)).backward()
            s = TestSigmoid.branchwise(x.reshape(-1)).reshape(x.shape)
            want_out, want_grad = x * s, g * (s * (1.0 + x * (1.0 - s)))
        for got, want in ((out.data, want_out), (t.grad, want_grad)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def concat_channels(a, b):
    """Columns of ``a`` followed by those of ``b``, as a graph node whose
    backward hands each input its column block of the upstream gradient."""
    wa = a.shape[1]
    return Tensor._result(np.concatenate([a.data, b.data], axis=1), (a, b),
                          lambda g: (g[:, :wa], g[:, wa:]))


class TestConcatChannels:
    """The channel concatenation inside :func:`T.concat_linear`."""

    def test_empty_second(self):
        rng = np.random.default_rng(2)
        x, w, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 4)), rng.normal(size=4)
        out = T.concat_linear(Tensor(x), Tensor(np.zeros((3, 0))), Tensor(w), Tensor(b))
        assert_bit_identical([out.data], [T.linear(Tensor(x), Tensor(w), Tensor(b)).data])

    def test_single_rows(self):
        out = T.concat_linear(Tensor([[1.0]]), Tensor([[2.0]]), Tensor([[3.0], [5.0]]),
                              Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[13.5]])

    def test_gradient_split(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        w, bias = rng.normal(size=(6, 5)), rng.normal(size=5)
        grad_check(lambda t: T.concat_linear(t, Tensor(b), Tensor(w), Tensor(bias)), a)
        grad_check(lambda t: T.concat_linear(Tensor(a), t, Tensor(w), Tensor(bias)), b)
        grad_check(lambda t: T.concat_linear(Tensor(a), Tensor(b), t, Tensor(bias)), w)
        grad_check(lambda t: T.concat_linear(Tensor(a), Tensor(b), Tensor(w), t), bias)

    def test_gradient_split_is_identity(self):
        # Through an identity kernel each input's grad equals the upstream
        # grad of its column block exactly.
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.concat_linear(a, b, Tensor(np.eye(5)), Tensor(np.zeros(5)))
        weights = np.arange(10.0).reshape(2, 5)
        T.tsum(out * Tensor(weights)).backward()
        np.testing.assert_array_equal(a.grad, weights[:, :3])
        np.testing.assert_array_equal(b.grad, weights[:, 3:])

    @pytest.mark.parametrize("shared", ["none", "a-interior", "b-interior", "a-leaf"])
    def test_bit_identical_to_concat_then_linear(self, shared):
        """Output and every input gradient bit for bit against the
        concatenation followed by :func:`T.linear`, at the query layer's
        shapes, with signed zeros in the upstream gradient; optionally one
        input has a second consumer, interior (reached first or last) or a
        leaf."""
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=(64, 64)), rng.normal(size=(64, 64))
        w, bias = rng.normal(size=(128, 64)), rng.normal(size=64)
        mix, c = rng.normal(size=(64, 64)), rng.normal(size=(64, 64))
        mix[:, 3] = -0.0

        def run(block):
            leaves = [Tensor(x, requires_grad=True) for x in (a, b, w, bias)]
            ins = list(leaves[:2])
            extra = []
            if shared != "none":
                i = 0 if shared.startswith("a") else 1
                if shared.endswith("interior"):
                    ins[i] = exp(ins[i] * 0.5)
                extra = [T.tsum(ins[i] * Tensor(c))]
            out = block(*ins, *leaves[2:])
            terms = [T.tsum(out * Tensor(mix))] + extra
            loss = terms[0] if len(terms) == 1 else terms[1] + terms[0]
            loss.backward()
            return [out.data] + [leaf.grad for leaf in leaves]

        assert_bit_identical(
            run(T.concat_linear),
            run(lambda x, y, k, d: T.linear(concat_channels(x, y), k, d)))

    def test_leading_mismatch(self):
        """Inputs of different row counts, and a weight or bias that does
        not fit the concatenated width."""
        for shapes in (((2, 1), (3, 1), (2, 2), (2,)), ((2, 1), (2, 1), (3, 2), (2,)),
                       ((2, 1), (2, 1), (2, 2), (3,)), ((2,), (2, 1), (2, 2), (2,))):
            with pytest.raises(ShapeError):
                T.concat_linear(*(Tensor(np.zeros(s)) for s in shapes))


def run_node(fn, inputs, mix):
    """Forward value and the gradient of sum(fn(*inputs) * mix) for every
    input, each input a fresh leaf."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    out = fn(*leaves)
    T.tsum(out * Tensor(mix)).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


def assert_bit_identical(got, want):
    """Equal shapes, dtypes and bits: -0.0 differs from 0.0."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


class TestLinear:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        out = T.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_single_row_is_vector_matrix_product(self):
        rng = np.random.default_rng(5)
        x, k, b = rng.normal(size=(1, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = T.linear(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, x @ k + b)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x, k, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        grad_check(lambda t: T.linear(t, Tensor(k), Tensor(b)), x)
        grad_check(lambda t: T.linear(Tensor(x), t, Tensor(b)), k)
        grad_check(lambda t: T.linear(Tensor(x), Tensor(k), t), b)

    def test_bit_identical_to_matmul_plus_bias(self):
        rng = np.random.default_rng(8)
        x, w, b, g = (rng.normal(size=s) for s in ((6, 5), (5, 3), (3,), (6, 3)))
        assert_bit_identical(run_node(T.linear, (x, w, b), g),
                             [x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)])

    def test_constant_input_gets_no_gradient_product(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = T.linear(Tensor(rng.normal(size=(2, 4))), w, Tensor(np.zeros(3)))
        assert out._backward(np.ones((2, 3)))[0] is None

    @pytest.mark.parametrize("x, w, b", [
        ((2, 3), (4, 2), (2,)),
        ((3,), (3, 2), (2,)),
        ((2, 3), (3, 2), (3,)),
        ((2, 3), (3, 2), (1, 2)),
    ], ids=["inner-extent", "vector-input", "bias-width", "bias-rank"])
    def test_shape_mismatch(self, x, w, b):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)))


class TestFfn:
    def zero_params(self, d, h):
        return (Tensor(np.zeros((d, h))), Tensor(np.zeros(h)),
                Tensor(np.zeros((h, d))), Tensor(np.zeros(d)))

    def test_zero_weights_residual_passthrough(self):
        x = np.arange(8.0).reshape(2, 4)
        out = T.ffn_apply(Tensor(x), *self.zero_params(4, 6))
        np.testing.assert_array_equal(out.data, x)

    def test_empty_rows(self):
        out = T.ffn_apply(Tensor(np.zeros((0, 4))), *self.zero_params(4, 6))
        assert out.shape == (0, 4)

    @staticmethod
    def chain(x, w1, b1, w2, b2):
        """The unfused block: matmul, bias, SiLU, matmul, bias, residual."""
        hidden = T.silu(T.add(T.matmul(x, w1), b1))
        return T.add(x, T.add(T.matmul(hidden, w2), b2))

    @staticmethod
    def fused(x, w1, b1, w2, b2):
        return T.ffn_apply(x, w1, b1, w2, b2)

    @staticmethod
    def inputs(seed, n=5, d=4, h=8):
        rng = np.random.default_rng(seed)
        shapes = ((n, d), (d, h), (h,), (h, d), (d,), (n, d))
        return [rng.normal(size=s) * 2.0 for s in shapes]

    def test_bit_identical_to_numpy_chain(self):
        x, w1, b1, w2, b2, g = self.inputs(13)
        h = x @ w1 + b1
        s = T._stable_sigmoid(h)
        a = h * s
        dh = (g @ w2.T) * (s * (1.0 + h * (1.0 - s)))
        want = [x + (a @ w2 + b2), g + dh @ w1.T, x.T @ dh, dh.sum(axis=0),
                a.T @ g, g.sum(axis=0)]
        assert_bit_identical(run_node(self.fused, (x, w1, b1, w2, b2), g), want)

    @pytest.mark.parametrize("other_first", [False, True])
    def test_input_with_a_second_consumer_matches_chain(self, other_first):
        """The input's residual and hidden-layer gradients accumulate with a
        third one from another consumer in the chain's order, whichever
        consumer the backward pass reaches first."""
        *params, mix = self.inputs(14)
        c = np.random.default_rng(15).normal(size=mix.shape)

        def run(block):
            x, w1, b1, w2, b2 = (Tensor(p, requires_grad=True) for p in params)
            hidden = exp(x * 0.5)  # an interior input, used twice
            out = block(hidden, w1, b1, w2, b2)
            terms = [T.tsum(out * Tensor(mix)), T.tsum(hidden * Tensor(c))]
            loss = terms[1] + terms[0] if other_first else terms[0] + terms[1]
            loss.backward()
            return [out.data, hidden.grad] + [p.grad for p in (x, w1, b1, w2, b2)]

        assert_bit_identical(run(self.fused), run(self.chain))

    def test_leaf_input_with_a_second_consumer_matches_chain(self):
        *params, mix = self.inputs(16)

        def run(block):
            x, w1, b1, w2, b2 = (Tensor(p, requires_grad=True) for p in params)
            loss = T.tsum(x * 3.0) + T.tsum(block(x, w1, b1, w2, b2) * Tensor(mix))
            loss.backward()
            return [p.grad for p in (x, w1, b1, w2, b2)]

        assert_bit_identical(run(self.fused), run(self.chain))

    def test_gradient(self):
        *args, _ = self.inputs(7, n=3, d=4, h=6)
        for i, arg in enumerate(args):
            def build(t, i=i):
                return self.fused(*(t if j == i else Tensor(a) for j, a in enumerate(args)))
            grad_check(build, arg)

    def test_input_width_mismatch(self):
        with pytest.raises(ShapeError):
            T.ffn_apply(Tensor(np.zeros((2, 3))), *self.zero_params(4, 6))

    @pytest.mark.parametrize("shapes", [
        ((4, 6), (6,), (4, 6), (4,)),
        ((4, 6), (4,), (6, 4), (4,)),
        ((4, 6), (6,), (6, 4), (6,)),
        ((4,), (4,), (4,), (4,)),
    ], ids=["w2-not-transposed", "b1-length", "b2-length", "1d-w1"])
    def test_mismatched_weights_are_refused(self, shapes):
        params = [Tensor(np.zeros(shape)) for shape in shapes]
        with pytest.raises(ShapeError, match="ffn_apply"):
            T.ffn_apply(Tensor(np.zeros((2, 4))), *params)


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
            finite_diff_gradient(lambda t: log(t), Tensor(-1.0))


_PRIMITIVES = {
    "add": lambda t, c: t + c,
    "mul": lambda t, c: t * c,
    "sigmoid": lambda t, c: T.sigmoid(t * 3.0),
    "silu": lambda t, c: T.silu(t * 3.0),
    "softmax": lambda t, c: softmax_rows(t) * c,
    "project_rows": lambda t, c: T.project_rows(t, c),
    "sum_axis0": lambda t, c: T.tsum(t, axis=0),
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
        return T.tsum(softmax_rows(T.matmul(t, Tensor(w))) * T.sigmoid(t)).item()

    assert run() == run()


def test_gradient_accumulates_on_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x  # uses x twice
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def backward_copying_every_gradient(root):
    """Reverse-mode pass that copies every first gradient and accumulates in
    place, in the same node order: the reference the copy-free pass must
    reproduce bit for bit."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(g)
            else:
                parent.grad += g


def test_copy_free_backward_matches_copying_every_gradient():
    """``add`` hands one array to both parents (leaves, and interior nodes
    used again), and a leaf is used three times; the leaves' gradients stay
    bit-identical to the copy-everything pass and each owns its array."""
    rng = np.random.default_rng(12)
    data = [rng.normal(size=(3, 4)) for _ in range(3)]

    def run(backward):
        a, b, d = (Tensor(x, requires_grad=True) for x in data)
        p, q = a * 2.0, b * 3.0
        loss = T.tsum((a + b) * (p + q) + p * p + q * q + d * d * exp(d))
        backward(loss)
        return a, b, d

    leaves = run(Tensor.backward)
    expected = run(backward_copying_every_gradient)
    for got, want in zip(leaves, expected):
        np.testing.assert_array_equal(got.grad, want.grad)
    for i, leaf in enumerate(leaves):
        leaf.grad += 1.0
        leaf.grad[0, 0] = 123.0
        for other, want in zip(leaves[i + 1:], expected[i + 1:]):
            np.testing.assert_array_equal(other.grad, want.grad)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    z = x * 2.0
    assert z.requires_grad


def test_backward_from_a_leaf_root_sets_its_gradient():
    x = Tensor(3.0, requires_grad=True)
    x.backward()
    np.testing.assert_array_equal(x.grad, 1.0)


def test_backward_from_a_root_without_grad_raises():
    with pytest.raises(ValueError, match="does not require grad"):
        (Tensor(np.array([1.0])) * 2.0).backward()


def test_backward_passes_a_node_no_gradient_reached():
    """A node whose consumers gave it no gradient is consumed unwalked, and
    nothing below it gets a gradient."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = x * 3.0
    Tensor._result(np.asarray(0.0), (hidden,), lambda g: (None,)).backward()
    assert hidden.grad is None and x.grad is None
    with pytest.raises(ValueError, match="consumed"):
        T.tsum(hidden).backward()


def test_second_backward_through_a_consumed_graph_raises():
    """Backward consumes the graph: a second pass from the same root, or
    from a new graph built on a held interior node, raises before any
    gradient changes, and the held node keeps its first gradient."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = exp(x)
    loss = T.tsum(hidden * 3.0)
    loss.backward()
    first_x, first_hidden = x.grad.copy(), hidden.grad.copy()
    np.testing.assert_array_equal(first_hidden, 3.0)
    for root in (loss, T.tsum(hidden * x)):
        with pytest.raises(ValueError, match="consumed"):
            root.backward()
        np.testing.assert_array_equal(x.grad, first_x)
        np.testing.assert_array_equal(hidden.grad, first_hidden)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_item_requires_a_single_value():
    assert Tensor(np.full((1, 1), 2.5)).item() == 2.5
    for shape in ((2, 3), (0,), (2,)):
        with pytest.raises(ShapeError):
            Tensor(np.arange(float(np.prod(shape))).reshape(shape)).item()


def backward_from(out, g):
    """Backward with ``g`` itself as the upstream gradient of ``out``."""
    Tensor._result(np.asarray(0.0), (out,), lambda _: (g,)).backward()


def matmul_t_then_gather(x, w, filler, n, g):
    """Value and gradients of the two-node chain the realization replaces:
    the product ``x @ w^T`` against a contiguous ``w^T``, then a gather of
    the n rows ``0..C-1, C, C, ...`` from ``[x @ w^T; filler]`` whose
    backward accumulates into zeros with ``np.add.at``."""
    c = len(x)
    wt = w.T.copy()
    table = np.concatenate([x @ wt, filler[None]])
    index = np.minimum(np.arange(n), c)
    full = np.zeros_like(table)
    np.add.at(full, index, g)
    projected = full[:c]
    return [table[index], projected @ wt.T, (x.T @ projected).T, full[c]]


class TestProjectRows:
    # (class rows C, sequence length n)
    LAYOUTS = {"prefix": (4, 7), "no-placeholder": (4, 4), "only-placeholders": (0, 3)}

    @pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("token", [True, False], ids=["token", "zeros"])
    def test_bit_identical_to_matmul_t_then_gather(self, token, layout, transposed):
        """Value and the x, w and filler gradients, bit for bit, with signed
        zeros in the upstream gradient and that gradient C-ordered or a
        transposed view (as the class logits' ``project_rows`` hands it on
        to the support keys). The model's shapes, at which BLAS sums a
        transposed gradient otherwise, and three placeholders, whose sum
        depends on its order."""
        c, n = self.LAYOUTS[layout]
        rng = np.random.default_rng(24)
        x, w, filler = (rng.normal(size=(c, 64)), rng.normal(size=(64, 64)),
                        rng.normal(size=64))
        g = rng.normal(size=(64, n)) * 1e3
        g[:, 1] = -0.0
        g[2, c:] = -0.0
        g = g.T if transposed else g.T.copy()
        want = matmul_t_then_gather(x, w, filler if token else np.zeros(64), n, g)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, filler)]
        out = T.project_rows(leaves[0], leaves[1], n, leaves[2] if token else None)
        backward_from(out, g)
        got = [out.data] + [leaf.grad for leaf in leaves[:2]]
        if token and n > c:
            got.append(leaves[2].grad)
        else:
            assert leaves[2].grad is None
            want.pop()
        assert_bit_identical(got, want)

    def test_gradient(self):
        rng = np.random.default_rng(19)
        x, w, filler = rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
        grad_check(lambda t: T.project_rows(t, Tensor(w), 5, Tensor(filler)), x)
        grad_check(lambda t: T.project_rows(Tensor(x), t, 5), w)
        grad_check(lambda t: T.project_rows(Tensor(x), Tensor(w), 5, t), filler)

    @pytest.mark.parametrize("n, filler", [
        (1, (3,)), (-1, (3,)), (3, (2,)), (3, (1, 3)),
    ], ids=["row-count", "negative", "filler-width", "filler-rank"])
    def test_bad_positions_or_filler(self, n, filler):
        """A length shorter than the projected rows, or a filler that is not
        one row of the projection."""
        with pytest.raises(ShapeError):
            T.project_rows(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                           n, Tensor(np.zeros(filler)))

    def test_weight_must_match_transposed(self):
        with pytest.raises(ShapeError):
            T.project_rows(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))), 2)

    def test_default_length_is_product_with_copied_transpose(self):
        """With no length given there are no placeholder rows: the value and
        both gradients are those of ``x @ w^T`` against a contiguous copy of
        ``w^T``, bit for bit."""
        rng = np.random.default_rng(10)
        for n, m, k in ((4, 3, 64), (5, 5, 64), (25, 7, 64), (1, 2, 3)):
            x, w, g = rng.normal(size=(n, k)), rng.normal(size=(m, k)), rng.normal(size=(n, m))
            wt = w.T.copy()
            assert_bit_identical(run_node(T.project_rows, (x, w), g),
                                 [x @ wt, g @ wt.T, (x.T @ g).T])

    def test_default_length_is_matmul_of_transpose(self):
        rng = np.random.default_rng(11)
        x, w, g = rng.normal(size=(6, 8)), rng.normal(size=(5, 8)), rng.normal(size=(6, 5))
        assert_bit_identical(run_node(T.project_rows, (x, w), g),
                             run_node(lambda a, b: T.matmul(a, transpose(b)), (x, w), g))

    def test_default_length_gradient(self):
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        grad_check(lambda t: T.project_rows(t, Tensor(w)), x)
        grad_check(lambda t: T.project_rows(Tensor(x), t), w)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            T.project_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def columns(x, start, stop):
    """Columns [start, stop) of a 2-d tensor as a graph node whose backward
    writes ``0.0 + g`` into those columns of a zero gradient."""
    def backward(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = 0.0 + g
        return (full,)

    return Tensor._result(x.data[:, start:stop].copy(), (x,), backward)


def reference_attention(q, k, v, heads):
    """Per-head slice/softmax/concat loop: the unfused reference the fused
    attention primitive must reproduce."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qs, ks, vs = (columns(x, h * dh, (h + 1) * dh) for x in (q, k, v))
        attn = softmax_rows(T.matmul(qs, transpose(ks)) * (1.0 / np.sqrt(dh)))
        outs.append(T.matmul(attn, vs))
    merged = outs[0]
    for o in outs[1:]:
        merged = concat_channels(merged, o)
    return merged


@pytest.mark.parametrize("keys", range(1, 11))
def test_key_reductions_are_bit_identical_to_numpy(keys):
    """The attention's row max and row sums over the key axis against
    numpy's ``.max(axis=-1)`` and ``.sum(axis=-1)`` bit for bit, on both
    sides of the fold's key threshold and of its row threshold: ties, rows
    of signed zeros, and magnitudes over 16 decades, where any other
    summation order rounds differently. The few-row maps are the support
    self-attention's (4, 5, keys) and single-head maps one row under and at
    the row threshold."""
    rng = np.random.default_rng(keys)

    def random_map(shape):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        a[rng.random(a.shape) < 0.15] = -0.0
        a[rng.random(a.shape) < 0.15] = 0.0
        return a

    a = random_map((3, 40, keys))
    a[:, :4] = a[:, :4, :1]
    a[0, 4], a[0, 5] = -0.0, 0.0
    a[0, 6, ::2] = -0.0
    a[0, 6, 1::2] = 0.0
    edge = T._FOLD_ROWS_PER_KEY * (keys - 1)
    maps = [a] + [random_map(shape) for shape in
                  ((4, 5, keys), (1, max(edge - 1, 1), keys), (1, max(edge, 1), keys))]
    for a in maps:
        a[..., 0, :] = a[..., 0, :1]
        for ufunc, reduce in ((np.maximum, np.max), (np.add, np.sum)):
            assert_bit_identical([T._reduce_keys(a, ufunc)],
                                 [reduce(a, axis=-1, keepdims=True)])


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

    @staticmethod
    def numpy_attention(q, k, v, g, heads):
        """Output, head attention and q/k/v gradients in the out-of-place
        numpy expression the fused node computes, one temporary a step."""
        d = q.shape[1]
        dh = d // heads
        scale = 1.0 / np.sqrt(dh)

        def split(x):
            return x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2)

        def merge(x):
            return x.transpose(1, 0, 2).reshape(x.shape[1], d)

        qh, kh, vh, gh = split(q), split(k), split(v), split(g)
        scores = (qh @ kh.transpose(0, 2, 1)) * scale
        e = np.exp(scores - scores.max(axis=2, keepdims=True))
        attn = e / e.sum(axis=2, keepdims=True)
        d_attn = gh @ vh.transpose(0, 2, 1)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True)) * scale
        return (merge(attn @ vh), attn, merge(d_scores @ kh),
                merge(d_scores.transpose(0, 2, 1) @ qh),
                merge(attn.transpose(0, 2, 1) @ gh))

    @pytest.mark.parametrize("heads, n, m, d, self_attention, zero_rows", [
        (1, 6, 5, 8, False, False),
        (4, 6, 5, 8, False, False),
        (1, 5, 5, 8, True, False),
        (4, 5, 5, 8, True, False),
        (4, 6, 1, 8, False, False),
        (4, 6, 5, 8, False, True),
        (4, 100, 256, 64, False, False),
    ], ids=["heads1", "heads4", "self-heads1", "self-heads4", "single-key",
            "zero-value-rows", "100x256"])
    def test_bit_identical_to_numpy_expression(self, heads, n, m, d,
                                               self_attention, zero_rows):
        rng = np.random.default_rng(17 + heads + m)
        k_data = rng.normal(size=(m, d)) * 2.0
        q_data = k_data if self_attention else rng.normal(size=(n, d)) * 2.0
        v_data = rng.normal(size=(m, d))
        if zero_rows:
            v_data[[1, 3]] = 0.0
        g = rng.normal(size=(q_data.shape[0], d))

        k = Tensor(k_data, requires_grad=True)
        q = k if self_attention else Tensor(q_data, requires_grad=True)
        v = Tensor(v_data, requires_grad=True)
        out, head_attn = T.attention(q, k, v, heads)
        T.tsum(out * Tensor(g)).backward()

        want_out, want_attn, dq, dk, dv = self.numpy_attention(q_data, k_data,
                                                               v_data, g, heads)
        got = [out.data, head_attn, k.grad, v.grad]
        want = [want_out, want_attn, dq + dk if self_attention else dk, dv]
        if not self_attention:
            got.append(q.grad)
            want.append(dq)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_mean_attention_is_head_average(self):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(4, 6))) for _ in range(3))
        _, head_attn = T.attention(q, k, v, 2)
        per_head = [softmax_rows(T.matmul(columns(q, h * 3, h * 3 + 3),
                                          transpose(columns(k, h * 3, h * 3 + 3)))
                                 * (1.0 / np.sqrt(3))).data for h in range(2)]
        np.testing.assert_allclose(head_attn, per_head, rtol=1e-12)
        mean_attn = head_average(head_attn)
        # The expression attention() used to return, bit for bit.
        np.testing.assert_array_equal(mean_attn, head_attn.sum(axis=0) * (1.0 / 2))
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
    centered = subtract_rows(x, mean_rows(x))
    var = mean_rows(centered * centered)
    return divide_rows(centered, sqrt(var + eps)) * gamma + beta


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


def test_layer_norm_backward_bit_identical_to_mean_form():
    """The input gradient, with its row means taken as ``sum / width``,
    against the same formula with ``np.mean``."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(25, 64)) * 3.0, requires_grad=True)
    gamma, beta = Tensor(rng.normal(size=64)), Tensor(rng.normal(size=64))
    g = rng.normal(size=(25, 64))
    T.tsum(T.layer_norm(x, gamma, beta) * Tensor(g)).backward()

    centered = x.data - x.data.sum(axis=1, keepdims=True) * (1.0 / 64)
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) * (1.0 / 64)
                  + 1e-5)
    xhat = centered / std
    dxhat = g * gamma.data
    want = (dxhat - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / std
    np.testing.assert_array_equal(x.grad.view(np.uint64), want.view(np.uint64))


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


_TARGETS = frozen(np.random.default_rng(21).uniform(0.2, 0.8, (2, 4)))
_POS_W = frozen(np.random.default_rng(22).uniform(0.0, 1.0, (3, 4)))
_NEG_W = frozen(np.random.default_rng(23).uniform(0.0, 1.0, (3, 4)))

# Each primitive with the shapes of its tensor inputs. The numpy inputs the
# set_head nodes take beside them are frozen above; InfoNCE selects three of
# five embedding rows, out of order.
NO_WRITE_CASES = {
    "attention": (lambda q, k, v: T.attention(q, k, v, 4),
                  [(6, 8), (5, 8), (5, 8)]),
    "attention-single-key": (lambda q, k, v: T.attention(q, k, v, 2),
                             [(3, 4), (1, 4), (1, 4)]),
    "layer_norm": (T.layer_norm, [(4, 6), (6,), (6,)]),
    "ffn_apply": (T.ffn_apply, [(5, 4), (4, 8), (8,), (8, 4), (4,)]),
    "silu": (T.silu, [(3, 5)]),
    "silu-0d": (T.silu, [()]),
    "sigmoid": (T.sigmoid, [(3, 5)]),
    "sigmoid-0d": (T.sigmoid, [()]),
    "linear": (T.linear, [(3, 4), (4, 2), (2,)]),
    "concat_linear": (T.concat_linear, [(3, 4), (3, 2), (6, 2), (2,)]),
    "project_rows-no-placeholder": (T.project_rows, [(3, 4), (2, 4)]),
    "project_rows": (lambda x, w, f: T.project_rows(x, w, 5, f),
                     [(3, 4), (5, 4), (5,)]),
    "bce_with_logits": (lambda z: set_head.bce_with_logits(z, _POS_W, _NEG_W),
                        [(3, 4)]),
    "box_loss": (lambda b: set_head.box_loss(b, [3, 0], _TARGETS, 5.0, 2.0)[0],
                 [(5, 4)]),
    "infonce_loss": (lambda f, e: ood.infonce_loss(
        ood.SupportClassFeatures(f), ood.ClassFeatureSpace(e, 0.1), [4, 1, 2]),
                     [(3, 4), (5, 4)]),
}


@pytest.mark.parametrize("case", sorted(NO_WRITE_CASES))
def test_primitives_write_no_input_or_upstream_gradient(case):
    """Forward and backward with every input array and the upstream
    gradient read-only: a write into any of them raises. The arrays a
    primitive returns are frozen between its forward and its backward, so
    the backward must not write into them either."""
    fn, shapes = NO_WRITE_CASES[case]
    rng = np.random.default_rng(7)
    leaves = []
    for shape in shapes:
        leaf = Tensor(rng.uniform(0.2, 0.8, shape), requires_grad=True)  # valid boxes too
        leaf.data.flags.writeable = False
        leaves.append(leaf)
    inputs = [leaf.data.copy() for leaf in leaves]

    result = fn(*leaves)
    out, returned = (result[0], [result[1]]) if isinstance(result, tuple) else (result, [])
    returned.append(out.data)
    for a in returned:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    kept = [np.array(a) for a in returned]
    g = frozen(rng.normal(size=out.shape))
    g_before = g.copy()
    Tensor._result(np.asarray(0.0), (out,), lambda _: (g,)).backward()

    for leaf, before in zip(leaves, inputs):
        assert leaf.grad is not None
        np.testing.assert_array_equal(leaf.data, before, strict=True)
    for a, before in zip(returned, kept):
        np.testing.assert_array_equal(a, before)
    np.testing.assert_array_equal(g, g_before, strict=True)


def test_no_package_source_calls_add_at():
    """Backward passes accumulate with slices, never with the unbuffered
    ``np.add.at`` scatter-add; a new gather node must keep it that way."""
    package = Path(T.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and ast.unparse(node.value).split(".")[-1] == "add"]
    assert calls == []
