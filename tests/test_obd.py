import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.errors import ShapeError
from fewdet.obd import (BackgroundToken, OfeFusion, OfeProjections, SupportSequence,
                        background_attention_mass, build_key_sequence,
                        build_value_sequence, ofe_query, ofe_support)
from fewdet.tensor import FfnParams, Tensor, tsum


def make_sequence(features, ids, placeholders_at=()):
    """Class positions in order, with placeholders inserted at given positions."""
    features = np.asarray(features, dtype=float)
    id_iter = iter(ids)
    layout = tuple(None if pos in placeholders_at else next(id_iter)
                   for pos in range(len(features) + len(placeholders_at)))
    return SupportSequence(layout, Tensor(features, requires_grad=True))


def random_projections(rng, d, requires_grad=True):
    return OfeProjections(*[Tensor(rng.normal(size=(d, d)), requires_grad=requires_grad)
                            for _ in range(3)])


def random_fusion(rng, d):
    return OfeFusion(
        conv_kernel=Tensor(rng.normal(size=(2 * d, d)), requires_grad=True),
        conv_bias=Tensor(rng.normal(size=d), requires_grad=True),
        ffn=FfnParams(Tensor(rng.normal(size=(d, 2 * d)), requires_grad=True),
                      Tensor(rng.normal(size=2 * d), requires_grad=True),
                      Tensor(rng.normal(size=(2 * d, d)), requires_grad=True),
                      Tensor(rng.normal(size=d), requires_grad=True)))


class TestBuildSequences:
    def test_no_placeholder_keys_are_projected_features(self):
        rng = np.random.default_rng(0)
        d = 4
        feats = rng.normal(size=(3, d))
        seq = make_sequence(feats, [0, 1, 2])
        w = rng.normal(size=(d, d))
        token = BackgroundToken(Tensor(rng.normal(size=d)))
        keys = build_key_sequence(seq, Tensor(w), token)
        np.testing.assert_allclose(keys.data, feats @ w.T, rtol=1e-12)

    def test_all_placeholder_single_row_is_token_verbatim(self):
        d = 4
        token_vec = np.arange(float(d))
        seq = make_sequence(np.zeros((0, d)), [], placeholders_at=(0,))
        keys = build_key_sequence(seq, Tensor(np.eye(d)),
                                  BackgroundToken(Tensor(token_vec)))
        np.testing.assert_array_equal(keys.data, token_vec[None, :])

    def test_paper_layout_placeholder_in_middle(self):
        # N=5, C=4, placeholder at position 2: the token row sits exactly
        # there, unprojected; class rows are projected in original order.
        rng = np.random.default_rng(1)
        d = 6
        feats = rng.normal(size=(4, d))
        w = rng.normal(size=(d, d))
        token_vec = rng.normal(size=d)
        seq = make_sequence(feats, [10, 11, 12, 13], placeholders_at=(2,))
        keys = build_key_sequence(seq, Tensor(w), BackgroundToken(Tensor(token_vec)))
        expected = np.vstack([feats[0] @ w.T, feats[1] @ w.T, token_vec,
                              feats[2] @ w.T, feats[3] @ w.T])
        np.testing.assert_allclose(keys.data, expected, rtol=1e-12)

    def test_value_rows_zero_at_placeholders(self):
        rng = np.random.default_rng(2)
        d = 4
        feats = rng.normal(size=(2, d))
        seq = make_sequence(feats, [0, 1], placeholders_at=(1,))
        values = build_value_sequence(seq, Tensor(np.eye(d)))
        np.testing.assert_allclose(values.data[0], feats[0])
        np.testing.assert_array_equal(values.data[1], np.zeros(d))
        np.testing.assert_allclose(values.data[2], feats[1])

    def test_all_placeholders_zero_matrix(self):
        seq = make_sequence(np.zeros((0, 3)), [], placeholders_at=(0, 1))
        values = build_value_sequence(seq, Tensor(np.eye(3)))
        np.testing.assert_array_equal(values.data, np.zeros((2, 3)))

    def test_token_gets_no_gradient_through_value_path(self):
        # Freeze the attention and push a loss through the mixed output: the
        # token only ever enters values as a constant zero, so its gradient
        # must be exactly zero (here: absent).
        rng = np.random.default_rng(3)
        d = 4
        token = BackgroundToken(Tensor(rng.normal(size=d), requires_grad=True))
        seq = make_sequence(rng.normal(size=(2, d)), [0, 1], placeholders_at=(1,))
        proj = random_projections(rng, d)
        ref = ofe_support(seq, proj, token, d)
        frozen_attention = Tensor(ref.attention)
        values = build_value_sequence(seq, proj.w3)
        from fewdet.tensor import matmul
        out = matmul(frozen_attention, values)
        tsum(out * out).backward()
        assert token.vector.grad is None


class TestOfeSupport:
    def test_single_class_single_position(self):
        rng = np.random.default_rng(4)
        d = 4
        feats = rng.normal(size=(1, d))
        seq = make_sequence(feats, [0])
        proj = random_projections(rng, d)
        token = BackgroundToken(Tensor(rng.normal(size=d)))
        ref = ofe_support(seq, proj, token, d)
        np.testing.assert_array_equal(ref.attention, [[1.0]])
        np.testing.assert_allclose(ref.per_position_output.data,
                                   feats @ proj.w3.data.T, rtol=1e-12)

    def test_hand_derived_two_position_case(self):
        # One class feature orthogonal to the token with squared norm
        # sqrt(d), identity projections: the class row attends
        # [e/(e+1), 1/(e+1)] and its output is e/(e+1) times the feature.
        d = 4
        c = np.zeros(d)
        c[0] = d ** 0.25  # ||c||^2 = sqrt(d)
        token_vec = np.zeros(d)
        token_vec[1] = 1.0
        seq = make_sequence([c], [0], placeholders_at=(1,))
        proj = OfeProjections(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
        ref = ofe_support(seq, proj, BackgroundToken(Tensor(token_vec)), d)
        e = np.e
        np.testing.assert_allclose(ref.attention[0],
                                   [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(ref.per_position_output.data[0],
                                   (e / (e + 1)) * c, rtol=1e-12)

    def test_identical_features_and_token_give_uniform_attention(self):
        rng = np.random.default_rng(5)
        d = 4
        c = rng.normal(size=d)
        seq = make_sequence([c, c], [0, 1], placeholders_at=(2,))
        proj = OfeProjections(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
        ref = ofe_support(seq, proj, BackgroundToken(Tensor(c)), d)
        np.testing.assert_allclose(ref.attention, np.full((3, 3), 1 / 3),
                                   rtol=1e-12)

    def test_reduces_to_standard_self_attention_without_placeholders(self):
        # C = N: independent straight-line computation of scaled dot-product
        # self-attention over projected class features.
        rng = np.random.default_rng(6)
        d = 8
        feats = rng.normal(size=(5, d))
        seq = make_sequence(feats, list(range(5)))
        proj = random_projections(rng, d)
        token = BackgroundToken(Tensor(rng.normal(size=d)))
        ref = ofe_support(seq, proj, token, d)

        keys = feats @ proj.w2.data.T
        values = feats @ proj.w3.data.T
        scores = keys @ keys.T / np.sqrt(d)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        expected = attn @ values
        assert np.abs(ref.per_position_output.data - expected).max() < 1e-10

    def test_multi_head_matches_per_slice_oracle(self):
        rng = np.random.default_rng(7)
        d, heads = 8, 2
        feats = rng.normal(size=(4, d))
        seq = make_sequence(feats, list(range(4)))
        proj = random_projections(rng, d)
        token = BackgroundToken(Tensor(rng.normal(size=d)))
        ref = ofe_support(seq, proj, token, d, heads=heads)

        keys = feats @ proj.w2.data.T
        values = feats @ proj.w3.data.T
        dh = d // heads
        parts = []
        for h in range(heads):
            k = keys[:, h * dh:(h + 1) * dh]
            v = values[:, h * dh:(h + 1) * dh]
            scores = k @ k.T / np.sqrt(dh)
            attn = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn /= attn.sum(axis=1, keepdims=True)
            parts.append(attn @ v)
        assert np.abs(ref.per_position_output.data - np.hstack(parts)).max() < 1e-10


class TestOfeQuery:
    def test_zero_inputs_give_uniform_attention_and_column_mean(self):
        d, p, n = 4, 3, 3
        seq = make_sequence(np.zeros((2, d)), [0, 1], placeholders_at=(1,))
        proj = OfeProjections(Tensor(np.zeros((d, d))), Tensor(np.zeros((d, d))),
                              Tensor(np.zeros((d, d))))
        fusion = OfeFusion(Tensor(np.zeros((2 * d, d))), Tensor(np.zeros(d)),
                           FfnParams(Tensor(np.zeros((d, d))), Tensor(np.zeros(d)),
                                     Tensor(np.zeros((d, d))), Tensor(np.zeros(d))))
        token = BackgroundToken(Tensor(np.zeros(d)))
        ref = ofe_query(Tensor(np.zeros((p, d))), seq, proj, token, d, fusion)
        np.testing.assert_allclose(ref.attention, np.full((p, n), 1 / n))
        values = build_value_sequence(seq, proj.w3)
        np.testing.assert_allclose(ref.per_position_output.data,
                                   np.tile(values.data.mean(axis=0), (p, 1)))

    def test_saturating_patch_attends_to_single_class(self):
        rng = np.random.default_rng(8)
        d = 4
        feats = np.eye(2, d) * 50.0
        seq = make_sequence(feats, [0, 1], placeholders_at=(2,))
        proj = OfeProjections(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
        fusion = random_fusion(rng, d)
        token = BackgroundToken(Tensor(np.zeros(d)))
        patch = np.zeros((1, d))
        patch[0, 0] = 50.0  # huge dot product with class 0's key only
        ref = ofe_query(Tensor(patch), seq, proj, token, d, fusion)
        assert ref.attention[0, 0] > 1.0 - 1e-10
        np.testing.assert_allclose(ref.per_position_output.data[0],
                                   feats[0], rtol=1e-8)

    def test_straight_line_oracle_full_forward(self):
        # P=3, N=2, d=4 random instance against a direct transcription of
        # the four formulas (projection, softmax similarity, mixing, fusion).
        rng = np.random.default_rng(9)
        d, p = 4, 3
        feats = rng.normal(size=(1, d))
        seq = make_sequence(feats, [0], placeholders_at=(1,))
        proj = random_projections(rng, d)
        fusion = random_fusion(rng, d)
        token_vec = rng.normal(size=d)
        token = BackgroundToken(Tensor(token_vec, requires_grad=True))
        patches = rng.normal(size=(p, d))
        ref = ofe_query(Tensor(patches), seq, proj, token, d, fusion)

        q = patches @ proj.w1.data.T
        keys = np.vstack([feats @ proj.w2.data.T, token_vec])
        values = np.vstack([feats @ proj.w3.data.T, np.zeros(d)])
        scores = q @ keys.T / np.sqrt(d)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        f_out = attn @ values
        fused = np.hstack([patches, f_out]) @ fusion.conv_kernel.data \
            + fusion.conv_bias.data
        w1, b1 = fusion.ffn.w1.data, fusion.ffn.b1.data
        w2, b2 = fusion.ffn.w2.data, fusion.ffn.b2.data
        hidden = fused @ w1 + b1
        hidden = hidden / (1.0 + np.exp(-hidden))
        expected = fused + hidden @ w2 + b2

        np.testing.assert_allclose(ref.attention, attn, rtol=1e-10)
        np.testing.assert_allclose(ref.refined.data, expected, rtol=1e-9)

    def test_refined_shape_independent_of_n(self):
        rng = np.random.default_rng(10)
        d, p = 4, 5
        fusion = random_fusion(rng, d)
        proj = random_projections(rng, d)
        token = BackgroundToken(Tensor(rng.normal(size=d)))
        for n_extra in (0, 1, 3):
            seq = make_sequence(rng.normal(size=(2, d)), [0, 1],
                                placeholders_at=tuple(range(2, 2 + n_extra)))
            ref = ofe_query(Tensor(rng.normal(size=(p, d))), seq, proj, token,
                            d, fusion)
            assert ref.refined.shape == (p, d)


class TestBackgroundMass:
    def test_no_placeholders(self):
        seq = make_sequence(np.zeros((2, 3)), [0, 1])
        mass = background_attention_mass(np.full((4, 2), 0.5), seq)
        np.testing.assert_array_equal(mass, np.zeros(4))

    def test_all_placeholders(self):
        seq = make_sequence(np.zeros((0, 3)), [], placeholders_at=(0, 1))
        mass = background_attention_mass(np.full((3, 2), 0.5), seq)
        np.testing.assert_allclose(mass, np.ones(3))

    def test_uniform_one_of_five(self):
        seq = make_sequence(np.zeros((4, 3)), [0, 1, 2, 3], placeholders_at=(2,))
        mass = background_attention_mass(np.full((2, 5), 0.2), seq)
        np.testing.assert_allclose(mass, [0.2, 0.2])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1, 2]))
def test_permutation_equivariance(c, extra, seed, heads):
    """Permuting support positions permutes attention and output rows
    identically, placeholder rows included."""
    rng = np.random.default_rng(seed)
    d = 4
    feats = rng.normal(size=(c, d))
    proj = random_projections(rng, d, requires_grad=False)
    token = BackgroundToken(Tensor(rng.normal(size=d)))

    layout = tuple(range(c)) + (None,) * extra
    perm = rng.permutation(len(layout))
    base = SupportSequence(layout, Tensor(feats))
    permuted_layout = tuple(layout[i] for i in perm)
    permuted = SupportSequence(permuted_layout, Tensor(
        feats[[cid for cid in permuted_layout if cid is not None]]))

    ref_a = ofe_support(base, proj, token, d, heads=heads)
    ref_b = ofe_support(permuted, proj, token, d, heads=heads)
    np.testing.assert_allclose(ref_b.per_position_output.data,
                               ref_a.per_position_output.data[perm], atol=1e-12)
    np.testing.assert_allclose(ref_b.attention,
                               ref_a.attention[np.ix_(perm, perm)], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 5),
       st.integers(0, 2 ** 31 - 1))
def test_attention_rows_stochastic(c, extra, p, seed):
    rng = np.random.default_rng(seed)
    d = 4
    seq = make_sequence(rng.normal(size=(c, d)), list(range(c)),
                        placeholders_at=tuple(range(c, c + extra)))
    proj = random_projections(rng, d, requires_grad=False)
    token = BackgroundToken(Tensor(rng.normal(size=d)))
    fusion = random_fusion(np.random.default_rng(seed + 1), d)
    sup = ofe_support(seq, proj, token, d)
    qry = ofe_query(Tensor(rng.normal(size=(p, d))), seq, proj, token, d, fusion)
    np.testing.assert_allclose(sup.attention.sum(axis=1),
                               np.ones(len(seq)), atol=1e-9)
    np.testing.assert_allclose(qry.attention.sum(axis=1),
                               np.ones(p), atol=1e-9)


def test_duplicate_class_ids_rejected():
    with pytest.raises(ShapeError):
        make_sequence(np.zeros((2, 3)), [1, 1])


def test_sequence_keeps_given_feature_matrix():
    rng = np.random.default_rng(12)
    d = 4
    feats = Tensor(rng.normal(size=(2, d)), requires_grad=True)
    seq = SupportSequence((3, None, 5), feats)
    assert seq.features is feats and len(seq) == 3
    assert seq.class_positions == (0, 2) and seq.placeholder_positions == (1,)
    assert seq.class_ids == (3, 5) and seq.gather_index == (0, 2, 1)
    assert seq.position_of_class(3) == 0 and seq.position_of_class(5) == 2
    for absent in (4, None):
        with pytest.raises(KeyError):
            seq.position_of_class(absent)
    w = rng.normal(size=(d, d))
    token_vec = rng.normal(size=d)
    keys = build_key_sequence(seq, Tensor(w), BackgroundToken(Tensor(token_vec)))
    np.testing.assert_allclose(keys.data, np.vstack([feats.data[0] @ w.T, token_vec,
                                                     feats.data[1] @ w.T]), rtol=1e-12)
    replaced = dataclasses.replace(seq, features=Tensor(np.zeros((2, d))))
    assert replaced.layout == seq.layout and replaced.class_ids == (3, 5)
    assert replaced.placeholder_positions == (1,)
    with pytest.raises(ShapeError):
        dataclasses.replace(seq, features=Tensor(np.zeros((3, d))))
    with pytest.raises(ShapeError):
        SupportSequence((3, None), Tensor(np.zeros(d)))  # a vector, not (C, d)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=8),
       st.integers(0, 2 ** 31 - 1))
def test_key_and_value_rows_follow_layout(is_placeholder, seed):
    """Placeholders anywhere among the class positions: class rows are the
    projected features in class order, placeholder rows the raw token on the
    key side and exact zeros on the value side."""
    placeholders_at = tuple(i for i, p in enumerate(is_placeholder) if p)
    n = len(is_placeholder)
    c = n - len(placeholders_at)
    rng = np.random.default_rng(seed)
    d = 4
    feats = rng.normal(size=(c, d))
    seq = make_sequence(feats, [10 + i for i in range(c)], placeholders_at)
    w, w3 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    token_vec = rng.normal(size=d)
    keys = build_key_sequence(seq, Tensor(w), BackgroundToken(Tensor(token_vec)))
    values = build_value_sequence(seq, Tensor(w3))
    assert keys.shape == values.shape == (n, d)
    assert seq.placeholder_positions == placeholders_at
    np.testing.assert_allclose(keys.data[list(seq.class_positions)], feats @ w.T,
                               rtol=1e-12)
    np.testing.assert_allclose(values.data[list(seq.class_positions)], feats @ w3.T,
                               rtol=1e-12)
    for pos in placeholders_at:
        np.testing.assert_array_equal(keys.data[pos], token_vec)
        np.testing.assert_array_equal(values.data[pos], np.zeros(d))
