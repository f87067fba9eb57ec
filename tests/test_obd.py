import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fewdet.errors import ShapeError
from fewdet.obd import (SupportSequence, background_attention_mass, head_average,
                        ofe_query, ofe_support)
from fewdet.tensor import Tensor, attention, project_rows, tsum


def make_sequence(features, ids, placeholders=0):
    """The classes in order, then ``placeholders`` background positions."""
    features = np.asarray(features, dtype=float)
    return SupportSequence(tuple(ids), len(ids) + placeholders,
                           Tensor(features, requires_grad=True))


def random_projections(rng, d, requires_grad=True):
    """Query, key and value weights (an OBD layer's w1, w2 and w3)."""
    return tuple(Tensor(rng.normal(size=(d, d)), requires_grad=requires_grad)
                 for _ in range(3))


def identity_projections(d):
    return tuple(Tensor(np.eye(d)) for _ in range(3))


def random_fusion(rng, d):
    """The Conv1D kernel and bias and the FFN's (w1, b1, w2, b2), in the
    order ofe_query takes them."""
    conv_kernel = Tensor(rng.normal(size=(2 * d, d)), requires_grad=True)
    conv_bias = Tensor(rng.normal(size=d), requires_grad=True)
    ffn = (Tensor(rng.normal(size=(d, 2 * d)), requires_grad=True),
           Tensor(rng.normal(size=2 * d), requires_grad=True),
           Tensor(rng.normal(size=(2 * d, d)), requires_grad=True),
           Tensor(rng.normal(size=d), requires_grad=True))
    return conv_kernel, conv_bias, ffn


class TestBuildSequences:
    def test_no_placeholder_keys_are_projected_features(self):
        rng = np.random.default_rng(0)
        d = 4
        feats = rng.normal(size=(3, d))
        seq = make_sequence(feats, [0, 1, 2])
        w = rng.normal(size=(d, d))
        keys = project_rows(seq.features, Tensor(w), len(seq),
                            Tensor(rng.normal(size=d)))
        np.testing.assert_allclose(keys.data, feats @ w.T, rtol=1e-12)

    def test_all_placeholder_single_row_is_token_verbatim(self):
        d = 4
        token_vec = np.arange(float(d))
        seq = make_sequence(np.zeros((0, d)), [], placeholders=1)
        keys = project_rows(seq.features, Tensor(np.eye(d)), len(seq), Tensor(token_vec))
        np.testing.assert_array_equal(keys.data, token_vec[None, :])

    def test_paper_layout_placeholder_last(self):
        # N=5, C=4: the token row sits at position 4, unprojected; class
        # rows are projected in original order.
        rng = np.random.default_rng(1)
        d = 6
        feats = rng.normal(size=(4, d))
        w = rng.normal(size=(d, d))
        token_vec = rng.normal(size=d)
        seq = make_sequence(feats, [10, 11, 12, 13], placeholders=1)
        keys = project_rows(seq.features, Tensor(w), len(seq), Tensor(token_vec))
        expected = np.vstack([feats[0] @ w.T, feats[1] @ w.T, feats[2] @ w.T,
                              feats[3] @ w.T, token_vec])
        np.testing.assert_allclose(keys.data, expected, rtol=1e-12)

    def test_value_rows_zero_at_placeholders(self):
        rng = np.random.default_rng(2)
        d = 4
        feats = rng.normal(size=(2, d))
        seq = make_sequence(feats, [0, 1], placeholders=1)
        values = project_rows(seq.features, Tensor(np.eye(d)), len(seq))
        np.testing.assert_allclose(values.data[0], feats[0])
        np.testing.assert_allclose(values.data[1], feats[1])
        np.testing.assert_array_equal(values.data[2], np.zeros(d))

    def test_all_placeholders_zero_matrix(self):
        seq = make_sequence(np.zeros((0, 3)), [], placeholders=2)
        values = project_rows(seq.features, Tensor(np.eye(3)), len(seq))
        np.testing.assert_array_equal(values.data, np.zeros((2, 3)))

    def test_token_gets_no_gradient_through_value_path(self):
        # Freeze the attention and push a loss through the mixed output: the
        # token only ever enters values as a constant zero, so its gradient
        # must be exactly zero (here: absent).
        rng = np.random.default_rng(3)
        d = 4
        token = Tensor(rng.normal(size=d), requires_grad=True)
        seq = make_sequence(rng.normal(size=(2, d)), [0, 1], placeholders=1)
        _, w_key, w_value = random_projections(rng, d)
        _, attn = ofe_support(seq, w_key, w_value, token)
        frozen_attention = Tensor(head_average(attn))
        values = project_rows(seq.features, w_value, len(seq))
        from fewdet.tensor import matmul
        out = matmul(frozen_attention, values)
        tsum(out * out).backward()
        assert token.grad is None


class TestOfeSupport:
    def test_single_class_single_position(self):
        rng = np.random.default_rng(4)
        d = 4
        feats = rng.normal(size=(1, d))
        seq = make_sequence(feats, [0])
        _, w_key, w_value = random_projections(rng, d)
        out, attn = ofe_support(seq, w_key, w_value, Tensor(rng.normal(size=d)))
        np.testing.assert_array_equal(head_average(attn), [[1.0]])
        np.testing.assert_allclose(out.data, feats @ w_value.data.T, rtol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_empty_support_gives_zero_rows(self, heads):
        """With no class (C = 0) the support branch returns a (0, d) output
        and a (heads, 0, n) attention, not a patch-row error from the query
        branch."""
        rng = np.random.default_rng(14)
        d = 4
        seq = make_sequence(np.zeros((0, d)), [], placeholders=3)
        _, w_key, w_value = random_projections(rng, d)
        token = Tensor(rng.normal(size=d))
        out, attn = ofe_support(seq, w_key, w_value, token, heads=heads)
        assert out.shape == (0, d) and attn.shape == (heads, 0, 3)

    def test_hand_derived_two_position_case(self):
        # One class feature orthogonal to the token with squared norm
        # sqrt(d), identity projections: the class row attends
        # [e/(e+1), 1/(e+1)] and its output is e/(e+1) times the feature.
        d = 4
        c = np.zeros(d)
        c[0] = d ** 0.25  # ||c||^2 = sqrt(d)
        token_vec = np.zeros(d)
        token_vec[1] = 1.0
        seq = make_sequence([c], [0], placeholders=1)
        _, w_key, w_value = identity_projections(d)
        out, attn = ofe_support(seq, w_key, w_value, Tensor(token_vec))
        e = np.e
        np.testing.assert_allclose(head_average(attn)[0],
                                   [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(out.data[0], (e / (e + 1)) * c, rtol=1e-12)

    def test_identical_features_and_token_give_uniform_attention(self):
        # Two class rows attend 1/3 to each of the three positions, the
        # placeholder included; the placeholder itself attends from no row.
        rng = np.random.default_rng(5)
        d = 4
        c = rng.normal(size=d)
        seq = make_sequence([c, c], [0, 1], placeholders=1)
        _, w_key, w_value = identity_projections(d)
        out, attn = ofe_support(seq, w_key, w_value, Tensor(c))
        assert out.shape == (2, d) and attn.shape == (1, 2, 3)
        np.testing.assert_allclose(head_average(attn), np.full((2, 3), 1 / 3),
                                   rtol=1e-12)

    def test_reduces_to_standard_self_attention_without_placeholders(self):
        # C = N: independent straight-line computation of scaled dot-product
        # self-attention over projected class features.
        rng = np.random.default_rng(6)
        d = 8
        feats = rng.normal(size=(5, d))
        seq = make_sequence(feats, list(range(5)))
        _, w_key, w_value = random_projections(rng, d)
        out, _ = ofe_support(seq, w_key, w_value, Tensor(rng.normal(size=d)))

        keys = feats @ w_key.data.T
        values = feats @ w_value.data.T
        scores = keys @ keys.T / np.sqrt(d)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        expected = attn @ values
        assert np.abs(out.data - expected).max() < 1e-10

    def test_multi_head_matches_per_slice_oracle(self):
        rng = np.random.default_rng(7)
        d, heads = 8, 2
        feats = rng.normal(size=(4, d))
        seq = make_sequence(feats, list(range(4)))
        _, w_key, w_value = random_projections(rng, d)
        out, _ = ofe_support(seq, w_key, w_value, Tensor(rng.normal(size=d)),
                             heads=heads)

        keys = feats @ w_key.data.T
        values = feats @ w_value.data.T
        dh = d // heads
        parts = []
        for h in range(heads):
            k = keys[:, h * dh:(h + 1) * dh]
            v = values[:, h * dh:(h + 1) * dh]
            scores = k @ k.T / np.sqrt(dh)
            attn = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn /= attn.sum(axis=1, keepdims=True)
            parts.append(attn @ v)
        assert np.abs(out.data - np.hstack(parts)).max() < 1e-10


class TestOfeQuery:
    def test_zero_inputs_give_uniform_attention_and_column_mean(self):
        d, p, n = 4, 3, 3
        seq = make_sequence(np.zeros((2, d)), [0, 1], placeholders=1)
        w_query, w_key, w_value = (Tensor(np.zeros((d, d))) for _ in range(3))
        fusion = (Tensor(np.zeros((2 * d, d))), Tensor(np.zeros(d)),
                  (Tensor(np.zeros((d, d))), Tensor(np.zeros(d)),
                   Tensor(np.zeros((d, d))), Tensor(np.zeros(d))))
        _, out, attn = ofe_query(Tensor(np.zeros((p, d))), seq, w_query, w_key,
                                 w_value, Tensor(np.zeros(d)), *fusion)
        np.testing.assert_allclose(head_average(attn), np.full((p, n), 1 / n))
        values = project_rows(seq.features, w_value, len(seq))
        np.testing.assert_allclose(out.data,
                                   np.tile(values.data.mean(axis=0), (p, 1)))

    def test_saturating_patch_attends_to_single_class(self):
        rng = np.random.default_rng(8)
        d = 4
        feats = np.eye(2, d) * 50.0
        seq = make_sequence(feats, [0, 1], placeholders=1)
        fusion = random_fusion(rng, d)
        patch = np.zeros((1, d))
        patch[0, 0] = 50.0  # huge dot product with class 0's key only
        _, out, attn = ofe_query(Tensor(patch), seq, *identity_projections(d),
                                 Tensor(np.zeros(d)), *fusion)
        assert head_average(attn)[0, 0] > 1.0 - 1e-10
        np.testing.assert_allclose(out.data[0], feats[0], rtol=1e-8)

    def test_straight_line_oracle_full_forward(self):
        # P=3, N=2, d=4 random instance against a direct transcription of
        # the four formulas (projection, softmax similarity, mixing, fusion).
        rng = np.random.default_rng(9)
        d, p = 4, 3
        feats = rng.normal(size=(1, d))
        seq = make_sequence(feats, [0], placeholders=1)
        w_query, w_key, w_value = random_projections(rng, d)
        conv_kernel, conv_bias, ffn = random_fusion(rng, d)
        token_vec = rng.normal(size=d)
        token = Tensor(token_vec, requires_grad=True)
        patches = rng.normal(size=(p, d))
        refined, _, head_attn = ofe_query(Tensor(patches), seq, w_query, w_key,
                                          w_value, token, conv_kernel, conv_bias, ffn)

        q = patches @ w_query.data.T
        keys = np.vstack([feats @ w_key.data.T, token_vec])
        values = np.vstack([feats @ w_value.data.T, np.zeros(d)])
        scores = q @ keys.T / np.sqrt(d)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        f_out = attn @ values
        fused = np.hstack([patches, f_out]) @ conv_kernel.data + conv_bias.data
        w1, b1, w2, b2 = (t.data for t in ffn)
        hidden = fused @ w1 + b1
        hidden = hidden / (1.0 + np.exp(-hidden))
        expected = fused + hidden @ w2 + b2

        np.testing.assert_allclose(head_average(head_attn), attn, rtol=1e-10)
        np.testing.assert_allclose(refined.data, expected, rtol=1e-9)

    def test_refined_shape_independent_of_n(self):
        rng = np.random.default_rng(10)
        d, p = 4, 5
        fusion = random_fusion(rng, d)
        w_query, w_key, w_value = random_projections(rng, d)
        token = Tensor(rng.normal(size=d))
        for n_extra in (0, 1, 3):
            seq = make_sequence(rng.normal(size=(2, d)), [0, 1], placeholders=n_extra)
            refined, _, _ = ofe_query(Tensor(rng.normal(size=(p, d))), seq, w_query,
                                      w_key, w_value, token, *fusion)
            assert refined.shape == (p, d)


class TestBackgroundMass:
    def test_no_placeholders(self):
        seq = make_sequence(np.zeros((2, 3)), [0, 1])
        mass = background_attention_mass(np.full((4, 2), 0.5), seq)
        np.testing.assert_array_equal(mass, np.zeros(4))

    def test_all_placeholders(self):
        seq = make_sequence(np.zeros((0, 3)), [], placeholders=2)
        mass = background_attention_mass(np.full((3, 2), 0.5), seq)
        np.testing.assert_allclose(mass, np.ones(3))

    def test_uniform_one_of_five(self):
        seq = make_sequence(np.zeros((4, 3)), [0, 1, 2, 3], placeholders=1)
        mass = background_attention_mass(np.full((2, 5), 0.2), seq)
        np.testing.assert_allclose(mass, [0.2, 0.2])
        attention = np.arange(10.0).reshape(2, 5)
        np.testing.assert_array_equal(background_attention_mass(attention, seq),
                                      [4.0, 9.0])



@pytest.mark.parametrize("batch, heads, p, n, c", [
    (50, 4, 64, 5, 4),     # the default eval sweep
    (3, 2, 256, 20, 3),    # a 16x16 grid; a sum over 17 placeholder columns
    (1, 1, 1, 2, 1),
])
def test_stacked_attention_gives_each_episode_its_own_bits(batch, heads, p, n, c):
    """head_average and background_attention_mass on a stack of
    attentions equal, byte for byte, their calls on each one alone."""
    logits = np.random.default_rng(batch + p).normal(size=(batch, heads, p, n))
    stacked = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    seq = make_sequence(np.ones((c, 3)), range(c), placeholders=n - c)
    averaged = head_average(stacked)
    mass = background_attention_mass(averaged, seq)
    assert averaged.shape == (batch, p, n) and mass.shape == (batch, p)
    for b in range(batch):
        alone = head_average(stacked[b])
        assert averaged[b].tobytes() == alone.tobytes()
        assert mass[b].tobytes() == background_attention_mass(alone, seq).tobytes()

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1, 2]))
def test_permutation_equivariance(c, extra, seed, heads):
    """Permuting the classes permutes the output rows, and the attention's
    rows and class columns, identically; the placeholder columns, last
    either way, stay where they are."""
    rng = np.random.default_rng(seed)
    d = 4
    feats = rng.normal(size=(c, d))
    _, w_key, w_value = random_projections(rng, d, requires_grad=False)
    token = Tensor(rng.normal(size=d))

    order = rng.permutation(c)
    perm = np.concatenate([order, np.arange(c, c + extra)])
    base = SupportSequence(tuple(range(c)), c + extra, Tensor(feats))
    permuted = SupportSequence(tuple(order.tolist()), c + extra, Tensor(feats[order]))

    out_a, attn_a = ofe_support(base, w_key, w_value, token, heads=heads)
    out_b, attn_b = ofe_support(permuted, w_key, w_value, token, heads=heads)
    assert out_a.shape == (c, d) and attn_a.shape == (heads, c, c + extra)
    np.testing.assert_allclose(out_b.data, out_a.data[order], atol=1e-12)
    np.testing.assert_allclose(head_average(attn_b),
                               head_average(attn_a)[np.ix_(order, perm)], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 5),
       st.integers(0, 2 ** 31 - 1))
def test_attention_rows_stochastic(c, extra, p, seed):
    rng = np.random.default_rng(seed)
    d = 4
    seq = make_sequence(rng.normal(size=(c, d)), list(range(c)), placeholders=extra)
    w_query, w_key, w_value = random_projections(rng, d, requires_grad=False)
    token = Tensor(rng.normal(size=d))
    fusion = random_fusion(np.random.default_rng(seed + 1), d)
    _, sup = ofe_support(seq, w_key, w_value, token)
    _, _, qry = ofe_query(Tensor(rng.normal(size=(p, d))), seq, w_query, w_key,
                          w_value, token, *fusion)
    np.testing.assert_allclose(head_average(sup).sum(axis=1), np.ones(c), atol=1e-9)
    np.testing.assert_allclose(head_average(qry).sum(axis=1),
                               np.ones(p), atol=1e-9)


@pytest.mark.parametrize("extra", [0, 1, 3])
@pytest.mark.parametrize("heads", [1, 2])
def test_support_rows_match_full_self_attention(extra, heads):
    """The class rows' output and attention are the first C rows of
    self-attention over all n = C + extra positions, each position's key
    its own query, within 1e-12. So are the gradients of a loss on those
    rows with respect to the features, both projections and the token (the
    reference's loss reads its placeholder rows with zero weight)."""
    rng = np.random.default_rng(31 + extra)
    c, d = 3, 8
    arrays = [rng.normal(size=(c, d)), rng.normal(size=(d, d)),
              rng.normal(size=(d, d)), rng.normal(size=d)]
    mix = rng.normal(size=(c, d))

    def run(attend, weight):
        feats, w_key, w_value, token = leaves = [Tensor(a, requires_grad=True)
                                                 for a in arrays]
        seq = SupportSequence(tuple(range(c)), c + extra, feats)
        out, attn = attend(seq, w_key, w_value, token)
        tsum(out * Tensor(weight)).backward()
        grads = [leaf.grad for leaf in leaves]
        assert (token.grad is None) == (extra == 0)  # no placeholder, no token
        return [out.data, attn] + [g for g in grads if g is not None]

    def full_self_attention(seq, w_key, w_value, token):
        keys = project_rows(seq.features, w_key, len(seq), token)
        values = project_rows(seq.features, w_value, len(seq))
        return attention(keys, keys, values, heads)

    got = run(lambda *args: ofe_support(*args, heads=heads), mix)
    want = run(full_self_attention, np.vstack([mix, np.zeros((extra, d))]))
    want[:2] = want[0][:c], want[1][:, :c]
    assert got[0].shape == (c, d) and got[1].shape == (heads, c, c + extra)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_duplicate_class_ids_rejected():
    with pytest.raises(ShapeError):
        make_sequence(np.zeros((2, 3)), [1, 1])


def test_sequence_keeps_given_feature_matrix():
    rng = np.random.default_rng(12)
    d = 4
    feats = Tensor(rng.normal(size=(2, d)), requires_grad=True)
    seq = SupportSequence((3, 5), 3, feats)
    assert seq.features is feats and len(seq) == 3
    assert seq.class_ids == (3, 5)
    w = rng.normal(size=(d, d))
    token_vec = rng.normal(size=d)
    keys = project_rows(seq.features, Tensor(w), len(seq), Tensor(token_vec))
    np.testing.assert_allclose(keys.data, np.vstack([feats.data[0] @ w.T,
                                                     feats.data[1] @ w.T, token_vec]),
                               rtol=1e-12)
    replaced = dataclasses.replace(seq, features=Tensor(np.zeros((2, d))))
    assert replaced.class_ids == (3, 5) and len(replaced) == 3
    with pytest.raises(ShapeError):
        dataclasses.replace(seq, features=Tensor(np.zeros((3, d))))
    with pytest.raises(ShapeError):
        SupportSequence((3,), 2, Tensor(np.zeros(d)))  # a vector, not (C, d)
    with pytest.raises(ShapeError):
        SupportSequence((3, 5), 1, feats)  # shorter than its classes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
@example(c=1, extra=0, seed=224)  # an entry of -5.7e-6 off by 7.9e-12
def test_key_and_value_rows_follow_layout(c, extra, seed):
    """The classes first, then the placeholders: class rows are the
    projected features in class order, bit for bit the product with the
    contiguous transposed weight that ``project_rows`` documents; placeholder
    rows are the raw token on the key side and exact zeros on the value
    side."""
    n = c + extra
    rng = np.random.default_rng(seed)
    d = 4
    feats = rng.normal(size=(c, d))
    seq = make_sequence(feats, [10 + i for i in range(c)], placeholders=extra)
    w, w3 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    token_vec = rng.normal(size=d)
    keys = project_rows(seq.features, Tensor(w), len(seq), Tensor(token_vec))
    values = project_rows(seq.features, Tensor(w3), len(seq))
    assert keys.shape == values.shape == (n, d)
    np.testing.assert_array_equal(keys.data[:c], feats @ np.ascontiguousarray(w.T))
    np.testing.assert_array_equal(values.data[:c], feats @ np.ascontiguousarray(w3.T))
    np.testing.assert_array_equal(keys.data[c:], np.tile(token_vec, (extra, 1)))
    np.testing.assert_array_equal(values.data[c:], np.zeros((extra, d)))
