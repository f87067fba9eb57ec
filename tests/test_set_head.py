import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.errors import NumericError, ShapeError
from fewdet.obd import SupportSequence
from fewdet.set_head import (DetectionOutput, GroundTruth, MatchResult, Weights,
                             decode_detections, giou_pairs, hungarian_match,
                             match_cost, set_loss)
from fewdet.tensor import Tensor, finite_diff_gradient, tsum


def brute_force_min(cost: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive minimum over all assignments of min(M, G) pairs, returning
    the lexicographically smallest optimal pair list."""
    m, g = cost.shape
    if m >= g:
        assignments = ([(q, j) for j, q in enumerate(perm)]
                       for perm in itertools.permutations(range(m), g))
    else:
        assignments = (list(enumerate(perm))
                       for perm in itertools.permutations(range(g), m))
    best_total, best_pairs = None, None
    for assignment in assignments:
        total = sum(cost[q, j] for q, j in assignment)
        pairs = sorted(assignment)
        if best_total is None or total < best_total - 1e-12 or (
                abs(total - best_total) <= 1e-12 and pairs < best_pairs):
            best_total, best_pairs = total, pairs
    return best_total, best_pairs


def random_cost(rng, m, g, kind):
    """Continuous costs, or tie-heavy ones: small integers, or continuous
    rows duplicated so that whole queries are interchangeable."""
    if kind == "continuous":
        return rng.normal(size=(m, g))
    if kind == "small_ints":
        return rng.integers(0, 3, size=(m, g)).astype(float)
    distinct = rng.normal(size=(max(1, m // 2), g))
    return distinct[rng.integers(0, len(distinct), size=m)]


def sequence(ids, placeholders=1, d=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return SupportSequence(tuple(ids) + (None,) * placeholders,
                           Tensor(rng.normal(size=(len(ids), d))))


def decode_reference(out, s, score_threshold):
    """The per-query loop that decode_detections replaced."""
    class_positions = list(s.class_positions)
    if not class_positions:
        return []
    detections = []
    for q in range(out.num_queries):
        row = out.position_probs.data[q, class_positions]
        best = int(np.argmax(row))
        score = float(row[best])
        if score >= score_threshold:
            detections.append((s.layout[class_positions[best]], score,
                               out.boxes.data[q].copy()))
    return detections


def output(probs, boxes):
    probs = np.asarray(probs, dtype=float)
    logits = np.log(probs / (1 - probs))
    return DetectionOutput(boxes=Tensor(np.asarray(boxes, dtype=float)),
                           position_probs=Tensor(probs),
                           position_logits=Tensor(logits))


class TestHungarian:
    def test_diagonal(self):
        cost = np.array([[0.0, 9, 9], [9, 0, 9], [9, 9, 0]])
        match = hungarian_match(cost)
        assert match.pairs == [(0, 0), (1, 1), (2, 2)]
        assert match.unmatched_queries == []

    def test_spec_two_by_two(self):
        match = hungarian_match(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert sorted(match.pairs) == [(0, 1), (1, 0)]

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            hungarian_match(np.array([[np.nan, 1.0], [0.0, 2.0]]))

    def test_empty_gt(self):
        match = hungarian_match(np.zeros((3, 0)))
        assert match.pairs == [] and match.unmatched_queries == [0, 1, 2]

    def test_rectangular_more_queries(self):
        cost = np.array([[5.0, 5.0], [0.0, 5.0], [5.0, 0.0]])
        match = hungarian_match(cost)
        assert sorted(match.pairs) == [(1, 0), (2, 1)]
        assert match.unmatched_queries == [0]

    def test_more_gts_than_queries_warns_and_matches_cheapest(self):
        cost = np.array([[0.0, 5.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            match = hungarian_match(cost)
        assert match.pairs == [(0, 0)]

    def test_tie_break_lexicographic(self):
        match = hungarian_match(np.zeros((3, 3)))
        assert match.pairs == [(0, 0), (1, 1), (2, 2)]
        # ties among a subset of optimal columns
        cost = np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 5.0], [5.0, 5.0, 0.0]])
        assert hungarian_match(cost).pairs == [(0, 0), (1, 1), (2, 2)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["continuous", "small_ints", "duplicated_rows"]))
    def test_matches_brute_force_including_ties(self, m, g, seed, kind):
        cost = random_cost(np.random.default_rng(seed), m, g, kind)
        expected_total, expected_pairs = brute_force_min(cost)
        if g > m:
            with pytest.warns(RuntimeWarning, match="more ground truths"):
                match = hungarian_match(cost)
        else:
            match = hungarian_match(cost)
        total = sum(cost[q, j] for q, j in match.pairs)
        assert total == pytest.approx(expected_total, abs=1e-9)
        assert match.pairs == expected_pairs
        assert match.unmatched_queries == sorted(
            set(range(m)) - {q for q, _ in match.pairs})

    @pytest.mark.parametrize("shape", [(100, 12), (25, 4), (6, 6), (3, 8)])
    def test_unique_optimum_solves_one_plus_min_m_g(self, monkeypatch, shape):
        from fewdet import set_head
        cost = np.random.default_rng(11).normal(size=shape)
        calls = []
        solve = set_head.linear_sum_assignment
        monkeypatch.setattr(set_head, "linear_sum_assignment",
                            lambda c: calls.append(c.shape) or solve(c))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hungarian_match(cost)
        assert 0 < len(calls) <= 1 + min(shape)

    @pytest.mark.parametrize("kind", ["continuous", "duplicated_rows"])
    def test_fast_path_agrees_with_search_at_train_dense_size(self, kind):
        from fewdet.set_head import _canonical_search, _lsa_total
        cost = random_cost(np.random.default_rng(12), 100, 12, kind)
        match = hungarian_match(cost)
        assert match.pairs == _canonical_search(cost, _lsa_total(cost))
        assert len(match.pairs) == 12 and len(match.unmatched_queries) == 88


class TestMatchCost:
    def test_perfect_prediction_cost(self):
        seq = sequence([7], placeholders=1)
        probs = np.array([[1.0 - 1e-12, 0.5]])
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]])
        out = output(probs, boxes)
        gt = GroundTruth(boxes=boxes.copy(), labels=[7])
        w = Weights(cls=2.0, l1=5.0, giou=2.0)
        cost = match_cost(out, gt, seq, w)
        assert cost[0, 0] == pytest.approx(-2.0, abs=1e-9)

    def test_background_probability_never_enters(self):
        seq = sequence([7], placeholders=1)
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]])
        gt = GroundTruth(boxes=boxes.copy(), labels=[7])
        w = Weights()
        base = match_cost(output([[0.8, 0.1]], boxes), gt, seq, w)
        bumped = match_cost(output([[0.8, 0.9]], boxes), gt, seq, w)
        np.testing.assert_array_equal(base, bumped)

    def test_random_instance_against_recomputation(self):
        rng = np.random.default_rng(3)
        seq = sequence([0, 1, 2], placeholders=2, rng=rng)
        m, g = 4, 3
        probs = rng.uniform(0.05, 0.95, size=(m, 5))
        boxes = rng.uniform(0.2, 0.8, size=(m, 4))
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                    rng.uniform(0.1, 0.3, size=(g, 2))])
        labels = [2, 0, 1]
        out = output(probs, boxes)
        gt = GroundTruth(boxes=gt_boxes, labels=labels)
        w = Weights(cls=1.3, l1=0.7, giou=2.1)
        cost = match_cost(out, gt, seq, w)

        from fewdet.metrics import giou
        for q in range(m):
            for j in range(g):
                pos = seq.position_of_class(labels[j])
                expected = (w.cls * -probs[q, pos]
                            + w.l1 * np.abs(boxes[q] - gt_boxes[j]).sum()
                            + w.giou * (1 - giou(boxes[q], gt_boxes[j])))
                assert cost[q, j] == pytest.approx(expected, rel=1e-12)

    def test_unknown_label_rejected(self):
        seq = sequence([0], placeholders=1)
        out = output([[0.5, 0.5]], [[0.5, 0.5, 0.2, 0.2]])
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.2, 0.2]], labels=[9])
        with pytest.raises(KeyError):
            match_cost(out, gt, seq, Weights())


class TestSetLoss:
    def test_perfect_predictions_drive_loss_to_zero(self):
        seq = sequence([3], placeholders=1)
        eps = 1e-9
        probs = np.array([[1 - eps, eps], [eps, 1 - eps], [eps, 1 - eps]])
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]] * 3)
        out = output(probs, boxes)
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.2, 0.2]], labels=[3])
        match = MatchResult(pairs=[(0, 0)], unmatched_queries=[1, 2])
        loss, parts = set_loss(out, gt, seq, match, Weights())
        assert loss.item() < 1e-6

    def test_no_gt_reduces_to_background_bce(self):
        seq = sequence([3], placeholders=1)
        probs = np.full((2, 2), 0.5)
        out = output(probs, np.full((2, 4), 0.5))
        gt = GroundTruth(boxes=np.zeros((0, 4)), labels=[])
        match = MatchResult(pairs=[], unmatched_queries=[0, 1])
        loss, parts = set_loss(out, gt, seq, match, Weights(cls=1.0))
        # all-0.5 probabilities: BCE is ln 2 per entry regardless of target
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-9)
        assert parts["box"] == 0.0 and parts["giou"] == 0.0

    def test_tiny_instance_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(5)
        seq = sequence([0, 1], placeholders=1, rng=rng)
        m, n = 3, 3
        probs = rng.uniform(0.1, 0.9, size=(m, n))
        boxes = rng.uniform(0.3, 0.7, size=(m, 4))
        out = output(probs, boxes)
        gt_box = np.array([[0.4, 0.6, 0.25, 0.2]])
        gt = GroundTruth(boxes=gt_box, labels=[1])
        match = MatchResult(pairs=[(2, 0)], unmatched_queries=[0, 1])
        w = Weights(cls=2.0, l1=5.0, giou=2.0)
        loss, parts = set_loss(out, gt, seq, match, w)

        from fewdet.metrics import giou
        targets = np.zeros((m, n))
        targets[2, seq.position_of_class(1)] = 1.0
        bg_pos = seq.placeholder_positions[0]
        targets[0, bg_pos] = 1.0
        targets[1, bg_pos] = 1.0
        pos_mask = targets == 1.0
        bce = 0.5 * (-np.log(probs[pos_mask]).mean()
                     - np.log(1 - probs[~pos_mask]).mean())
        l1 = np.abs(boxes[2] - gt_box[0]).sum()
        g = giou(boxes[2], gt_box[0])
        expected = w.cls * bce + w.l1 * l1 + w.giou * (1 - g)
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_degenerate_gt_box_rejected(self):
        seq = sequence([0], placeholders=1)
        out = output([[0.5, 0.5]], [[0.5, 0.5, 0.2, 0.2]])
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.0, 0.2]], labels=[0])
        with pytest.raises(ShapeError):
            set_loss(out, gt, seq, MatchResult(pairs=[(0, 0)]), Weights())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        seq = sequence([0, 1], placeholders=1, rng=rng)
        m, n = 3, 3
        logits0 = rng.normal(size=(m, n))
        raw_boxes0 = rng.normal(size=(m, 4)) * 0.3
        gt = GroundTruth(boxes=[[0.4, 0.6, 0.25, 0.2], [0.7, 0.3, 0.2, 0.3]],
                         labels=[1, 0])
        match = MatchResult(pairs=[(0, 1), (2, 0)], unmatched_queries=[1])
        w = Weights()

        from fewdet.tensor import sigmoid

        def build(logits, raw_boxes):
            out = DetectionOutput(boxes=sigmoid(raw_boxes),
                                  position_probs=sigmoid(logits),
                                  position_logits=logits)
            return set_loss(out, gt, seq, match, w)[0]

        lt = Tensor(logits0, requires_grad=True)
        bt = Tensor(raw_boxes0, requires_grad=True)
        build(lt, bt).backward()
        num_l = finite_diff_gradient(lambda v: build(v, Tensor(raw_boxes0)),
                                     Tensor(logits0))
        num_b = finite_diff_gradient(lambda v: build(Tensor(logits0), v),
                                     Tensor(raw_boxes0))
        np.testing.assert_allclose(lt.grad, num_l, rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(bt.grad, num_b, rtol=1e-4, atol=1e-9)

    def test_gt_permutation_invariance_with_rematching(self):
        rng = np.random.default_rng(7)
        seq = sequence([0, 1, 2], placeholders=1, rng=rng)
        m = 5
        probs = rng.uniform(0.1, 0.9, size=(m, 4))
        boxes = rng.uniform(0.3, 0.7, size=(m, 4))
        out = output(probs, boxes)
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(3, 2)),
                                    rng.uniform(0.1, 0.3, size=(3, 2))])
        labels = np.array([2, 0, 1])
        w = Weights()

        def full_loss(order):
            gt = GroundTruth(boxes=gt_boxes[order], labels=labels[order])
            match = hungarian_match(match_cost(out, gt, seq, w))
            return set_loss(out, gt, seq, match, w)[0].item()

        base = full_loss([0, 1, 2])
        for order in itertools.permutations(range(3)):
            assert full_loss(list(order)) == pytest.approx(base, rel=1e-12)

    def test_raising_matched_probability_never_raises_loss(self):
        rng = np.random.default_rng(8)
        seq = sequence([0], placeholders=1, rng=rng)
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.2, 0.2]], labels=[0])
        match = MatchResult(pairs=[(0, 0)], unmatched_queries=[1])
        pos = seq.position_of_class(0)
        w = Weights()
        boxes = np.full((2, 4), 0.5)
        previous = None
        for p in np.linspace(0.05, 0.95, 10):
            probs = np.full((2, 2), 0.3)
            probs[0, pos] = p
            loss, _ = set_loss(output(probs, boxes), gt, seq, match, w)
            if previous is not None:
                assert loss.item() <= previous + 1e-12
            previous = loss.item()


class TestGiouPairs:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        a = np.column_stack([rng.uniform(0.3, 0.7, size=(6, 2)),
                             rng.uniform(0.05, 0.4, size=(6, 2))])
        b = np.column_stack([rng.uniform(0.3, 0.7, size=(6, 2)),
                             rng.uniform(0.05, 0.4, size=(6, 2))])
        out = giou_pairs(Tensor(a), Tensor(b))
        from fewdet.metrics import giou
        expected = [giou(a[i], b[i]) for i in range(6)]
        np.testing.assert_allclose(out.data.ravel(), expected, rtol=1e-12)


class TestDecode:
    def test_all_below_threshold(self):
        seq = sequence([0, 1], placeholders=1)
        out = output(np.full((3, 3), 0.2), np.full((3, 4), 0.5))
        assert decode_detections(out, seq, 0.5) == []

    def test_placeholder_probability_never_wins(self):
        seq = sequence([4], placeholders=1)
        probs = np.array([[0.1, 0.99]])  # placeholder at position 1
        out = output(probs, [[0.5, 0.5, 0.2, 0.2]])
        assert decode_detections(out, seq, 0.5) == []

    def test_two_clear_detections(self):
        seq = sequence([4, 9], placeholders=1)
        probs = np.array([[0.9, 0.1, 0.05], [0.2, 0.8, 0.05]])
        out = output(probs, np.full((2, 4), 0.5))
        dets = decode_detections(out, seq, 0.5)
        assert [d[0] for d in dets] == [4, 9]

    def test_threshold_zero_emits_every_query(self):
        seq = sequence([4, 9], placeholders=1)
        rng = np.random.default_rng(10)
        out = output(rng.uniform(0.01, 0.99, size=(7, 3)),
                     rng.uniform(0.3, 0.7, size=(7, 4)))
        assert len(decode_detections(out, seq, 0.0)) == 7

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, 12),
           st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 31 - 1))
    def test_matches_per_query_loop(self, is_placeholder, m, threshold, seed):
        """Probabilities drawn from a few levels, 1.0 included, so rows tie
        exactly and the threshold-1 case emits."""
        rng = np.random.default_rng(seed)
        layout = tuple(None if p else 20 + i for i, p in enumerate(is_placeholder))
        class_count = sum(c is not None for c in layout)
        seq = SupportSequence(layout, Tensor(np.zeros((class_count, 4))))
        probs = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, len(layout)))
        out = DetectionOutput(boxes=Tensor(rng.uniform(0.3, 0.7, size=(m, 4))),
                              position_probs=Tensor(probs),
                              position_logits=Tensor(np.zeros_like(probs)))
        got = decode_detections(out, seq, threshold)
        want = decode_reference(out, seq, threshold)
        assert [(c, sc) for c, sc, _ in got] == [(c, sc) for c, sc, _ in want]
        assert all(type(c) is int and type(sc) is float for c, sc, _ in got)
        for (_, _, box), (_, _, ref_box) in zip(got, want):
            np.testing.assert_array_equal(box, ref_box)
