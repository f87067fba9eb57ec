import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.errors import ConfigError, NumericError, ShapeError
from fewdet.ood import (ClassFeatureSpace, SupportClassFeatures, infonce_loss,
                        min_interclass_separation)
from fewdet.optim import (AdamState, adam_step, collect_grads, flat_parameters,
                          zero_grads)
from fewdet import tensor as T
from fewdet.tensor import Tensor, finite_diff_gradient, tsum


def space(embeddings, temperature=1.0, requires_grad=False):
    return ClassFeatureSpace(Tensor(np.asarray(embeddings, dtype=float),
                                    requires_grad=requires_grad),
                             temperature=temperature)


def feats(x, requires_grad=False):
    return SupportClassFeatures(Tensor(np.asarray(x, dtype=float),
                                       requires_grad=requires_grad))


def exp(a):
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


def log(a):
    return Tensor._result(np.log(a.data), (a,), lambda g: (g / a.data,))


def sub(a, b):
    """``a - b``, ``b`` broadcast to ``a``'s shape."""
    return Tensor._result(a.data - b.data, (a, b),
                          lambda g: (T._unbroadcast(g, a.shape),
                                     T._unbroadcast(-g, b.shape)))


def take_rows(a, indices):
    """Rows ``indices`` of ``a`` as a graph node whose backward writes
    ``0.0 + g`` at those rows of a zero gradient."""
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = 0.0 + g
        return (full,)

    return Tensor._result(a.data[idx], (a,), backward)


def times_transpose(a, b):
    """``a @ b^T`` against a contiguous copy of ``b^T``."""
    bt = b.data.T.copy()
    return Tensor._result(a.data @ bt, (a, b),
                          lambda g: (g @ bt.T, (a.data.T @ g).T))


def infonce_chain(f, t, class_ids):
    """The InfoNCE loss as the chain of elementwise nodes the fused node
    stands for: the reference it must reproduce bit for bit."""
    c = len(class_ids)
    logits = times_transpose(f.features, take_rows(t.embeddings, class_ids)) \
        * (1.0 / t.temperature)
    shifted = sub(logits, Tensor(logits.data.max(axis=1, keepdims=True)))
    lse = log(T.tsum(exp(shifted), axis=1, keepdims=True))
    matched = T.tsum(shifted * Tensor(np.eye(c)), axis=1, keepdims=True)
    return T.tsum(sub(lse, matched)) * (1.0 / c)


@pytest.mark.parametrize("c, ids", [(3, [4, 1, 2]), (1, [2]), (5, [0, 5, 3, 1, 2])],
                         ids=["out-of-order", "one-class", "all-but-one"])
def test_fused_node_is_bit_identical_to_the_chain(c, ids):
    """The value and both gradients, bit for bit, with the loss weighted and
    the features an interior node that another term also reads, as in the
    model's training loss."""
    rng = np.random.default_rng(c)
    x, emb = rng.normal(size=(c, 6)) * 0.1, rng.normal(size=(6, 6))
    mix = rng.normal(size=(c, 6))

    def run(loss_fn):
        x_t, emb_t = Tensor(x, requires_grad=True), Tensor(emb, requires_grad=True)
        features = x_t * 1.5
        loss = loss_fn(SupportClassFeatures(features),
                       ClassFeatureSpace(emb_t, temperature=0.07), ids)
        total = tsum(features * Tensor(mix)) + 0.7 * loss
        total.backward()
        return [np.asarray(loss.data), x_t.grad, emb_t.grad]

    for got, want in zip(run(infonce_loss), run(infonce_chain)):
        np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestInfoNce:
    def test_single_class_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        loss = infonce_loss(feats(rng.normal(size=(1, 4))),
                            space(rng.normal(size=(3, 4)), temperature=0.07), [2])
        assert loss.item() == 0.0

    def test_uniform_dot_products_give_log_c(self):
        # All feature/embedding dot products equal -> uniform softmax.
        f = np.tile([1.0, 0.0], (3, 1))
        t = np.tile([0.5, 0.3], (3, 1))
        loss = infonce_loss(feats(f), space(t), [0, 1, 2])
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-9)

    def test_two_class_orthogonal_case(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = infonce_loss(feats(f), space(f), [0, 1])
        assert loss.item() == pytest.approx(np.log(1 + np.e ** -1), abs=1e-9)

    def test_temperature_must_be_positive(self):
        for temperature in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="temperature must be finite"):
                space(np.eye(2), temperature=temperature)
        s = space(np.eye(2), temperature=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.temperature = -1.0  # the one check ran at construction

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            infonce_loss(feats(np.eye(2)), space(np.eye(2)), [0, 0])

    @pytest.mark.parametrize("f, emb, ids", [
        (np.eye(2), np.eye(2), [0, 2]), (np.eye(2), np.eye(2), [-1, 0]),
        (np.eye(2), np.ones((3, 3)), [0, 1]), (np.eye(2), np.eye(2), [0]),
        (np.zeros((0, 2)), np.eye(2), []),
    ], ids=["id-past-end", "negative-id", "width", "count", "no-class"])
    def test_ids_and_shapes_that_do_not_fit_are_rejected(self, f, emb, ids):
        with pytest.raises(ShapeError):
            infonce_loss(feats(f), space(emb), ids)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(5, 6))
        f0 = rng.normal(size=(3, 6))
        ids = [4, 1, 2]

        def loss_of_f(v):
            return infonce_loss(SupportClassFeatures(v), space(emb, 0.5), ids)

        f_t = Tensor(f0, requires_grad=True)
        loss = loss_of_f(f_t)
        loss.backward()
        numeric = finite_diff_gradient(loss_of_f, Tensor(f0))
        np.testing.assert_allclose(f_t.grad, numeric, rtol=1e-5, atol=1e-8)

        def loss_of_t(v):
            return infonce_loss(feats(f0),
                                ClassFeatureSpace(v, temperature=0.5), ids)

        t_t = Tensor(emb, requires_grad=True)
        infonce_loss(feats(f0), ClassFeatureSpace(t_t, temperature=0.5),
                     ids).backward()
        numeric_t = finite_diff_gradient(loss_of_t, Tensor(emb))
        np.testing.assert_allclose(t_t.grad, numeric_t, rtol=1e-5, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_nonnegative_and_permutation_invariant(self, c, d, seed):
        rng = np.random.default_rng(seed)
        f0 = rng.normal(size=(c, d))
        emb = rng.normal(size=(c + 2, d))
        ids = list(rng.choice(c + 2, size=c, replace=False))
        loss = infonce_loss(feats(f0), space(emb, 0.3), ids).item()
        assert loss >= 0.0

        perm = rng.permutation(c)
        loss_p = infonce_loss(feats(f0[perm]), space(emb, 0.3),
                              [ids[i] for i in perm]).item()
        assert loss_p == pytest.approx(loss, rel=1e-12, abs=1e-12)

    def test_separated_low_temperature_limit_is_zero(self):
        f = np.eye(3) * 10
        warm = infonce_loss(feats(f), space(np.eye(3) * 10, temperature=5.0),
                            [0, 1, 2])
        cold = infonce_loss(feats(f), space(np.eye(3) * 10, temperature=0.01),
                            [0, 1, 2])
        assert cold.item() < 1e-12
        assert warm.item() > cold.item()


class TestSeparation:
    def test_identical_rows(self):
        sep = min_interclass_separation(feats([[1.0, 2.0], [1.0, 2.0]]))
        assert sep == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_rows(self):
        assert min_interclass_separation(feats(np.eye(2))) == pytest.approx(1.0)

    def test_45_degrees(self):
        f = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        assert min_interclass_separation(feats(f)) == pytest.approx(
            1 - np.sqrt(2) / 2, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ShapeError):
            min_interclass_separation(feats([[1.0, 0.0]]))

    def test_zero_norm_row_rejected(self):
        with pytest.raises(NumericError):
            min_interclass_separation(feats([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("batch, c, d", [(50, 4, 64), (7, 2, 3), (1, 5, 16)])
    def test_stacked_features_give_each_episode_its_own_bits(self, batch, c, d):
        x = np.random.default_rng(batch).normal(size=(batch, c, d))
        x[0, 1] = x[0, 0]  # a separation of 0
        separations = min_interclass_separation(feats(x))
        assert separations.shape == (batch,)
        assert [s.hex() for s in separations.tolist()] == [
            min_interclass_separation(feats(x[b])).hex() for b in range(batch)]

    def test_zero_norm_row_anywhere_in_a_stack_is_rejected(self):
        x = np.ones((3, 2, 4))
        x[2, 1] = 0.0
        with pytest.raises(NumericError, match="zero-norm class feature row"):
            min_interclass_separation(feats(x))

    def test_a_stack_is_no_infonce_input(self):
        with pytest.raises(ShapeError):
            infonce_loss(feats(np.ones((2, 2, 2))), space(np.eye(2)), [0, 1])


def test_minimizing_infonce_increases_separation():
    """Adam on the contrastive loss alone (C=4, d=8, 500 steps): features
    become strictly more separated than at initialization."""
    rng = np.random.default_rng(11)
    params = flat_parameters({"f": (4, 8), "t": (4, 8)})
    for p in params.values():
        p.data[...] = rng.normal(size=(4, 8)) * 0.3
    f, t = params["f"], params["t"]
    initial = min_interclass_separation(SupportClassFeatures(f))
    opt = AdamState(learning_rate=1e-2)
    for _ in range(500):
        zero_grads(params)
        loss = infonce_loss(SupportClassFeatures(f),
                            ClassFeatureSpace(t, temperature=0.1), [0, 1, 2, 3])
        loss.backward()
        adam_step(params, collect_grads(params), opt)
    final = min_interclass_separation(SupportClassFeatures(f))
    assert final > initial
