import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsa

from fewdet.errors import NumericError, ShapeError
from fewdet.obd import SupportSequence
from fewdet.set_head import (DetectionOutput, GroundTruth, Weights,
                             bce_with_logits, box_loss, decode_detections,
                             hungarian_match, linear_sum_assignment, match_cost,
                             set_loss)
from fewdet.tensor import Tensor, finite_diff_gradient, tsum


def brute_force_min(cost: np.ndarray) -> float:
    """Exhaustive minimum total over all assignments of min(M, G) pairs."""
    m, g = cost.shape
    if m >= g:
        assignments = ([(q, j) for j, q in enumerate(perm)]
                       for perm in itertools.permutations(range(m), g))
    else:
        assignments = (list(enumerate(perm))
                       for perm in itertools.permutations(range(g), m))
    return min(sum(cost[q, j] for q, j in assignment) for assignment in assignments)


def pairs(match):
    """The (query, ground truth) pairs of a hungarian_match (rows, cols)."""
    rows, cols = match
    return list(zip(rows.tolist(), cols.tolist()))


def match_of(*matched):
    """A hungarian_match-style (rows, cols) pair of index arrays holding the
    (query, ground truth) pairs ``matched``."""
    return tuple(np.array(matched, dtype=np.intp).reshape(-1, 2).T)


def unmatched_queries(match, m):
    """The queries of an (m, G) match that no pair holds, ascending."""
    matched = {q for q, _ in pairs(match)}
    return [q for q in range(m) if q not in matched]


def random_cost(rng, m, g, kind):
    """Continuous costs, or tie-heavy ones: small integers, or continuous
    rows duplicated so that whole queries are interchangeable."""
    if kind == "continuous":
        return rng.normal(size=(m, g))
    if kind == "small_ints":
        return rng.integers(0, 3, size=(m, g)).astype(float)
    distinct = rng.normal(size=(max(1, m // 2), g))
    return distinct[rng.integers(0, len(distinct), size=m)]


KINDS = ["continuous", "small_ints", "duplicated_rows"]


def sequence(ids, placeholders=1, d=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return SupportSequence(tuple(ids), len(ids) + placeholders,
                           Tensor(rng.normal(size=(len(ids), d))))


def decode_reference(out, s, score_threshold):
    """The per-query loop that decode_detections replaced."""
    class_count = len(s.class_ids)
    if not class_count:
        return []
    detections = []
    for q in range(out.boxes.shape[0]):
        row = out.position_probs.data[q, :class_count]
        best = int(np.argmax(row))
        score = float(row[best])
        if score >= score_threshold:
            detections.append((s.class_ids[best], score, out.boxes.data[q].copy()))
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
        assert pairs(match) == [(0, 0), (1, 1), (2, 2)]
        assert unmatched_queries(match, 3) == []

    def test_spec_two_by_two(self):
        match = hungarian_match(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert sorted(pairs(match)) == [(0, 1), (1, 0)]

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            hungarian_match(np.array([[np.nan, 1.0], [0.0, 2.0]]))

    def test_empty_gt(self):
        match = hungarian_match(np.zeros((3, 0)))
        assert pairs(match) == [] and unmatched_queries(match, 3) == [0, 1, 2]

    def test_rectangular_more_queries(self):
        cost = np.array([[5.0, 5.0], [0.0, 5.0], [5.0, 0.0]])
        match = hungarian_match(cost)
        assert sorted(pairs(match)) == [(1, 0), (2, 1)]
        assert unmatched_queries(match, 3) == [0]

    def test_more_gts_than_queries_warns_and_matches_cheapest(self):
        cost = np.array([[0.0, 5.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            match = hungarian_match(cost)
        assert pairs(match) == [(0, 0)]

    def test_tied_optimum_is_deterministic(self):
        """A tie gets an optimal assignment, and the same one on a repeated
        call and on a Fortran-ordered copy of the matrix."""
        tied_block = np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 5.0], [5.0, 5.0, 0.0]])
        for cost in (np.zeros((3, 3)), tied_block):
            match = hungarian_match(cost)
            assert sum(cost[q, j] for q, j in pairs(match)) == brute_force_min(cost)
            assert [q for q, _ in pairs(match)] == [0, 1, 2]
            assert sorted(j for _, j in pairs(match)) == [0, 1, 2]
            assert pairs(hungarian_match(cost)) == pairs(match)
            assert pairs(hungarian_match(np.asfortranarray(cost))) == pairs(match)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["continuous", "small_ints", "duplicated_rows"]))
    def test_matches_brute_force_including_ties(self, m, g, seed, kind):
        cost = random_cost(np.random.default_rng(seed), m, g, kind)
        if g > m:
            with pytest.warns(RuntimeWarning, match="more ground truths"):
                match = hungarian_match(cost)
        else:
            match = hungarian_match(cost)
        total = sum(cost[q, j] for q, j in pairs(match))
        assert total == pytest.approx(brute_force_min(cost), abs=1e-9)
        queries = [q for q, _ in pairs(match)]
        columns = [j for _, j in pairs(match)]
        assert queries == sorted(set(queries))
        assert len(set(columns)) == len(columns)
        assert len(pairs(match)) == min(m, g)
        assert unmatched_queries(match, m) == sorted(set(range(m)) - set(queries))

    @pytest.mark.parametrize("shape", [(100, 12), (25, 4), (6, 6), (3, 8)])
    def test_unique_optimum_needs_one_solve(self, monkeypatch, shape):
        """One solve per match, on tie-heavy matrices too."""
        from fewdet import set_head
        rng = np.random.default_rng(11)
        calls = []
        solve = set_head.linear_sum_assignment
        monkeypatch.setattr(set_head, "linear_sum_assignment",
                            lambda c: calls.append(c.shape) or solve(c))
        for kind in KINDS:
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                hungarian_match(random_cost(rng, *shape, kind))
            assert calls == [shape], kind

    @pytest.mark.parametrize("shape", [(100, 12), (25, 4)], ids=str)
    def test_pairs_equal_scipy_at_training_sizes(self, shape):
        cost = random_cost(np.random.default_rng(12), *shape, "continuous")
        match = hungarian_match(cost)
        rows, cols = scipy_lsa(cost)
        assert pairs(match) == list(zip(rows.tolist(), cols.tolist()))
        assert len(unmatched_queries(match, shape[0])) == shape[0] - shape[1]


class TestLinearSumAssignment:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 5), (12, 12),
                                       (3, 8), (8, 3), (4, 25), (25, 4),
                                       (12, 100), (100, 12)], ids=str)
    def test_agrees_with_scipy(self, shape, kind):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for _ in range(15):
            cost = random_cost(rng, *shape, kind)
            rows, cols = linear_sum_assignment(cost)
            want_rows, want_cols = scipy_lsa(cost)
            assert cost[rows, cols].sum() == pytest.approx(
                cost[want_rows, want_cols].sum(), abs=1e-9)
            assert rows.size == cols.size == min(shape)
            assert (np.diff(rows) > 0).all() and np.unique(cols).size == cols.size
            if kind == "continuous":  # the optimum is unique
                np.testing.assert_array_equal(rows, want_rows)
                np.testing.assert_array_equal(cols, want_cols)

    def test_empty(self):
        for shape in ((0, 3), (3, 0)):
            rows, cols = linear_sum_assignment(np.zeros(shape))
            assert rows.size == cols.size == 0


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
                pos = seq.class_ids.index(labels[j])
                expected = (w.cls * -probs[q, pos]
                            + w.l1 * np.abs(boxes[q] - gt_boxes[j]).sum()
                            + w.giou * (1 - giou(boxes[q], gt_boxes[j])))
                assert cost[q, j] == pytest.approx(expected, rel=1e-12)

    def test_unknown_label_rejected(self):
        seq = sequence([0], placeholders=1)
        out = output([[0.5, 0.5]], [[0.5, 0.5, 0.2, 0.2]])
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.2, 0.2]], labels=[9])
        with pytest.raises(ValueError):
            match_cost(out, gt, seq, Weights())


class TestSetLoss:
    def test_perfect_predictions_drive_loss_to_zero(self):
        seq = sequence([3], placeholders=1)
        eps = 1e-9
        probs = np.array([[1 - eps, eps], [eps, 1 - eps], [eps, 1 - eps]])
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]] * 3)
        out = output(probs, boxes)
        gt = GroundTruth(boxes=[[0.5, 0.5, 0.2, 0.2]], labels=[3])
        match = match_of((0, 0))
        loss, parts = set_loss(out, gt, seq, match, Weights())
        assert loss.item() < 1e-6

    def test_no_gt_reduces_to_background_bce(self):
        seq = sequence([3], placeholders=1)
        probs = np.full((2, 2), 0.5)
        out = output(probs, np.full((2, 4), 0.5))
        gt = GroundTruth(boxes=np.zeros((0, 4)), labels=[])
        match = match_of()
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
        match = match_of((2, 0))
        w = Weights(cls=2.0, l1=5.0, giou=2.0)
        loss, parts = set_loss(out, gt, seq, match, w)

        from fewdet.metrics import giou
        targets = np.zeros((m, n))
        targets[2, seq.class_ids.index(1)] = 1.0
        bg_pos = 2  # the placeholder follows the two classes
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
            set_loss(out, gt, seq, match_of((0, 0)), Weights())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        seq = sequence([0, 1], placeholders=1, rng=rng)
        m, n = 3, 3
        logits0 = rng.normal(size=(m, n))
        raw_boxes0 = rng.normal(size=(m, 4)) * 0.3
        gt = GroundTruth(boxes=[[0.4, 0.6, 0.25, 0.2], [0.7, 0.3, 0.2, 0.3]],
                         labels=[1, 0])
        match = match_of((0, 1), (2, 0))
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

    def test_empty_match_gives_boxes_no_gradient(self):
        """No pairs: the box and GIoU parts are exactly 0, the boxes get no
        gradient (Adam then leaves their moments alone), and the loss does
        not move with them."""
        rng = np.random.default_rng(18)
        seq = sequence([0], placeholders=1, rng=rng)
        logits, raw = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        gt = GroundTruth(boxes=np.zeros((0, 4)), labels=[])
        match = match_of()

        from fewdet.tensor import sigmoid

        def build(raw_boxes):
            out = DetectionOutput(boxes=sigmoid(raw_boxes),
                                  position_probs=sigmoid(Tensor(logits)),
                                  position_logits=Tensor(logits))
            return set_loss(out, gt, seq, match, Weights())

        bt = Tensor(raw, requires_grad=True)
        loss, parts = build(bt)
        assert parts["box"] == 0.0 and parts["giou"] == 0.0
        assert not loss.requires_grad and bt.grad is None
        numeric = finite_diff_gradient(lambda v: build(v)[0], Tensor(raw))
        assert not numeric.any()

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
        match = match_of((0, 0))
        pos = seq.class_ids.index(0)
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


def softplus_reference(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def random_boxes(rng, k):
    return np.column_stack([rng.uniform(0.3, 0.7, size=(k, 2)),
                            rng.uniform(0.05, 0.4, size=(k, 2))])


class TestBceWithLogits:
    def test_bit_identical_to_softplus_formula(self):
        """The balanced BCE of the elementwise chain the node replaced:
        weighted softplus sums, averaged, scaled by the class weight."""
        rng = np.random.default_rng(13)
        z = rng.normal(size=(25, 5)) * 4.0
        z[0, :3] = [800.0, -800.0, 0.0]
        targets = (rng.uniform(size=z.shape) < 0.2).astype(float)
        pos_w = targets / targets.sum()
        neg_w = (1.0 - targets) / (targets.size - targets.sum())
        want = ((pos_w * softplus_reference(-z)).sum()
                + (neg_w * softplus_reference(z)).sum()) * 0.5
        assert bce_with_logits(Tensor(z), pos_w, neg_w).item() == want

    def test_cls_part_of_set_loss_is_bit_identical(self):
        rng = np.random.default_rng(14)
        seq = sequence([0, 1], placeholders=1, rng=rng)
        probs = rng.uniform(0.05, 0.95, size=(4, 3))
        out = output(probs, random_boxes(rng, 4))
        gt = GroundTruth(boxes=random_boxes(rng, 2), labels=[1, 0])
        match = match_of((1, 1), (3, 0))
        w = Weights(cls=1.7)
        _, parts = set_loss(out, gt, seq, match, w)
        targets = np.zeros((4, 3))
        targets[[1, 3], [seq.class_ids.index(0), seq.class_ids.index(1)]] = 1.0
        targets[[0, 2], 2] = 1.0  # the placeholder follows the two classes
        z = out.position_logits.data
        bce = ((targets / targets.sum() * softplus_reference(-z)).sum()
               + ((1.0 - targets) / (targets.size - targets.sum())
                  * softplus_reference(z)).sum()) * 0.5
        assert parts["cls"] == bce * w.cls

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_gradient_matches_finite_differences(self, scale):
        rng = np.random.default_rng(15)
        pos_w, neg_w = rng.uniform(0.0, 1.0, size=(2, 3, 4))
        z0 = rng.normal(size=(3, 4)) * scale
        z = Tensor(z0, requires_grad=True)
        bce_with_logits(z, pos_w, neg_w).backward()
        numeric = finite_diff_gradient(
            lambda v: bce_with_logits(v, pos_w, neg_w), Tensor(z0))
        np.testing.assert_allclose(z.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_weight_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bce_with_logits(Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.zeros((3, 2)))


def box_loss_at(boxes, idx, targets, w_l1=5.0, w_giou=2.0):
    return lambda v: box_loss(v, idx, targets, w_l1, w_giou)[0]


def assert_box_gradient(boxes, idx, targets, rtol=1e-6, atol=1e-9):
    t = Tensor(boxes, requires_grad=True)
    box_loss_at(boxes, idx, targets)(t).backward()
    numeric = finite_diff_gradient(box_loss_at(boxes, idx, targets), Tensor(boxes))
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)
    return t.grad


class TestBoxLoss:
    def test_pair_giou_is_bit_identical_to_metrics(self):
        """With one pair and unit weights the GIoU part is 1 - giou of that
        pair, so each pair's value can be read off exactly."""
        from fewdet.metrics import giou
        rng = np.random.default_rng(9)
        a, b = random_boxes(rng, 6), random_boxes(rng, 6)
        for i in range(6):
            _, _, giou_part = box_loss(Tensor(a), [i], b[i:i + 1], 1.0, 1.0)
            assert giou_part == 1.0 - giou(a[i], b[i])

    def test_parts_are_the_weighted_means(self):
        from fewdet.metrics import giou
        rng = np.random.default_rng(16)
        boxes, targets = random_boxes(rng, 5), random_boxes(rng, 3)
        idx = [4, 0, 2]
        out, box_part, giou_part = box_loss(Tensor(boxes), idx, targets, 5.0, 2.0)
        l1 = np.abs(boxes[idx] - targets).sum(axis=1).mean()
        g = np.mean([1.0 - giou(boxes[q], t) for q, t in zip(idx, targets)])
        assert box_part == pytest.approx(5.0 * l1, rel=1e-14)
        assert giou_part == pytest.approx(2.0 * g, rel=1e-14)
        assert out.item() == box_part + giou_part

    @pytest.mark.parametrize("kind, boxes, targets", [pytest.param(*case, id=case[0])
                                                     for case in (
        ("overlap", [0.46, 0.55, 0.3, 0.2], [0.5, 0.51, 0.2, 0.3]),
        ("disjoint", [0.2, 0.52, 0.2, 0.3], [0.7, 0.45, 0.25, 0.2]),
        ("contains", [0.5, 0.5, 0.6, 0.5], [0.48, 0.53, 0.2, 0.1]),
        ("contained", [0.48, 0.53, 0.2, 0.1], [0.5, 0.5, 0.6, 0.5]),
    )])
    def test_single_pair_gradient_matches_finite_differences(self, kind, boxes,
                                                             targets):
        from fewdet.metrics import box_corners
        p, t = box_corners(boxes), box_corners(targets)
        lo, hi = np.maximum(p[:2], t[:2]), np.minimum(p[2:], t[2:])
        assert kind == ("disjoint" if (hi[0] - lo[0]) < 0 else
                        "contains" if (lo == t[:2]).all() and (hi == t[2:]).all() else
                        "contained" if (lo == p[:2]).all() and (hi == p[2:]).all() else
                        "overlap")
        assert_box_gradient(np.array([boxes]), [0], np.array([targets]))

    def test_repeated_and_unmatched_rows(self):
        """Unmatched rows get a zero gradient; a repeated row is refused
        before anything is computed."""
        rng = np.random.default_rng(17)
        boxes, targets = random_boxes(rng, 5), random_boxes(rng, 4)
        grad = assert_box_gradient(boxes, [3, 1, 0], targets[:3])
        assert not grad[[2, 4]].any()
        with pytest.raises(ShapeError, match="repeated"):
            box_loss(Tensor(boxes, requires_grad=True), [3, 1, 3, 0], targets,
                     5.0, 2.0)

    @pytest.mark.parametrize("kind, boxes, targets, side", [
        pytest.param("edge-tie", [0.5, 0.25, 0.25, 0.25], [0.5625, 0.75, 0.125, 0.25],
                     1, id="edge-tie"),
        pytest.param("touching", [0.375, 0.4375, 0.25, 0.375],
                     [0.6875, 0.5625, 0.375, 0.3125], -1, id="touching"),
    ])
    def test_kink_takes_the_one_sided_derivative_of_its_convention(
            self, kind, boxes, targets, side):
        """Exact dyadic kinks in x, each with a single active branch.
        edge-tie: px2 == tx2 with the boxes apart in y, so only the
        enclosure's max is at its kink and gives the prediction the gradient:
        the derivative of moving px2 right. touching: px2 == tx1, the
        intersection width is exactly 0 and its clip passes nothing: the
        derivative of moving px2 left. In x the two one-sided derivatives
        differ; in y everything is smooth and central differences apply."""
        boxes, targets = np.array([boxes]), np.array([targets])
        p, t = boxes[0, 0] + boxes[0, 2] / 2, targets[0, 0] - targets[0, 2] / 2
        assert p == (targets[0, 0] + targets[0, 2] / 2 if kind == "edge-tie" else t)
        f = box_loss_at(boxes, [0], targets)
        bt = Tensor(boxes, requires_grad=True)
        f(bt).backward()
        numeric = finite_diff_gradient(f, Tensor(boxes))
        np.testing.assert_allclose(bt.grad[0, [1, 3]], numeric[0, [1, 3]],
                                   rtol=1e-6, atol=1e-9)

        def one_sided(col, direction, h=1e-6):
            """Second-order one-sided difference along ``direction`` * col."""
            def at(step):
                probe = boxes.copy()
                probe[0, col] += direction * step
                return f(Tensor(probe)).item()
            return direction * (-3 * at(0) + 4 * at(h) - at(2 * h)) / (2 * h)

        for col in (0, 2):  # cx and w both move px2
            taken, other = one_sided(col, side), one_sided(col, -side)
            assert bt.grad[0, col] == pytest.approx(taken, rel=1e-6)
            assert abs(taken - other) > 1e-3

    def test_identical_boxes_have_zero_gradient(self):
        """Every corner ties and the loss is at its minimum: with the
        prediction taking both branches of each min/max and sign(0) = 0, the
        intersection and enclosure terms cancel exactly."""
        boxes = np.array([[0.5, 0.4, 0.3, 0.2], [0.3, 0.6, 0.25, 0.125]])
        bt = Tensor(boxes, requires_grad=True)
        out, box_part, giou_part = box_loss(bt, [0, 1], boxes.copy(), 5.0, 2.0)
        out.backward()
        assert (box_part, giou_part) == (0.0, 0.0)
        np.testing.assert_array_equal(bt.grad, np.zeros_like(boxes))

    def test_empty_match_is_constant_zero(self):
        out, box_part, giou_part = box_loss(Tensor(np.full((3, 4), 0.5),
                                                   requires_grad=True),
                                            [], np.zeros((0, 4)), 5.0, 2.0)
        assert (out.item(), box_part, giou_part) == (0.0, 0.0, 0.0)
        assert not out.requires_grad

    @pytest.mark.parametrize("idx, targets", [
        ([0, 1], np.zeros((1, 4))), ([3], np.zeros((1, 4))), ([-1], np.zeros((1, 4))),
    ], ids=["count", "past-end", "negative"])
    def test_bad_indices_or_targets(self, idx, targets):
        with pytest.raises(ShapeError):
            box_loss(Tensor(np.full((3, 4), 0.5)), idx, targets, 5.0, 2.0)


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
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 12),
           st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 31 - 1))
    def test_matches_per_query_loop(self, class_count, extra, m, threshold, seed):
        """Probabilities drawn from a few levels, 1.0 included, so rows tie
        exactly and the threshold-1 case emits."""
        assume(class_count + extra >= 1)
        rng = np.random.default_rng(seed)
        seq = SupportSequence(tuple(20 + i for i in range(class_count)),
                              class_count + extra, Tensor(np.zeros((class_count, 4))))
        probs = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, len(seq)))
        out = DetectionOutput(boxes=Tensor(rng.uniform(0.3, 0.7, size=(m, 4))),
                              position_probs=Tensor(probs),
                              position_logits=Tensor(np.zeros_like(probs)))
        got = decode_detections(out, seq, threshold)
        want = decode_reference(out, seq, threshold)
        assert [(c, sc) for c, sc, _ in got] == [(c, sc) for c, sc, _ in want]
        assert all(type(c) is int and type(sc) is float for c, sc, _ in got)
        for (_, _, box), (_, _, ref_box) in zip(got, want):
            np.testing.assert_array_equal(box, ref_box)
            assert box.flags.owndata
