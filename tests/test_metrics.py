import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.errors import NumericError, ShapeError
from fewdet import metrics
from fewdet.metrics import (IOU_THRESHOLDS, Detection, EvalReport, GtRecord,
                            average_precision, confusion_matrix,
                            evaluate_detections, giou, iou)


def det(ep, cid, score, box):
    return Detection(ep, cid, score, np.asarray(box, dtype=float))


def gtr(ep, cid, box):
    return GtRecord(ep, cid, np.asarray(box, dtype=float))


UNIT = [0.5, 0.5, 1.0, 1.0]  # unit box centered at (0.5, 0.5)
RIGHT = [1.5, 0.5, 1.0, 1.0]  # UNIT's neighbour to the right
SPAN = [1.0, 0.5, 1.0, 1.0]   # straddles UNIT and RIGHT: IoU 1/3 with each


class TestIou:
    def test_identical(self):
        assert iou(UNIT, UNIT) == 1.0

    def test_disjoint(self):
        assert iou([0.5, 0.5, 1.0, 1.0], [5.0, 0.5, 1.0, 1.0]) == 0.0

    def test_half_width_shift(self):
        assert iou(UNIT, [1.0, 0.5, 1.0, 1.0]) == pytest.approx(1 / 3, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ShapeError):
            iou([0.5, 0.5, 0.0, 1.0], UNIT)


class TestGiou:
    def test_identical(self):
        assert giou(UNIT, UNIT) == 1.0

    def test_touching_side_by_side(self):
        # Corner form [0,0,1,1] and [1,0,2,1]: enclosing = union = 2.
        assert giou([0.5, 0.5, 1, 1], [1.5, 0.5, 1, 1]) == pytest.approx(0.0, abs=1e-9)

    def test_gap_is_minus_third(self):
        # Corner form [0,0,1,1] vs [2,0,3,1]: enclosing 3, union 2.
        assert giou([0.5, 0.5, 1, 1], [2.5, 0.5, 1, 1]) == pytest.approx(-1 / 3,
                                                                         abs=1e-9)

    def test_matrix_agrees_with_scalar(self):
        """The broadcast form is bit-exact with a loop over 0-d pairs."""
        rng = np.random.default_rng(0)
        a = np.column_stack([rng.uniform(0, 1, (5, 2)), rng.uniform(0.1, 0.5, (5, 2))])
        b = np.column_stack([rng.uniform(0, 1, (4, 2)), rng.uniform(0.1, 0.5, (4, 2))])
        b[0] = a[0]                   # identical pair
        b[1] = [5.0, 5.0, 0.2, 0.2]   # disjoint from every row of a
        for fn in (iou, giou):
            mat = fn(a[:, None], b[None])
            assert mat.shape == (5, 4)
            for i in range(5):
                for j in range(4):
                    pair = fn(a[i], b[j])
                    assert np.ndim(pair) == 0
                    assert mat[i, j] == pair
            np.testing.assert_array_equal(fn(a[:2, None], b[None, :1]), mat[:2, :1])

    @pytest.mark.parametrize("fn", [iou, giou])
    @pytest.mark.parametrize("bad, error", [
        ([0.5, 0.5, 0.0, 1.0], ShapeError),    # zero width
        ([0.5, 0.5, 1.0, -0.2], ShapeError),   # negative height
        ([0.5, np.nan, 1.0, 1.0], NumericError),
        ([0.5, 0.5, np.inf, 1.0], NumericError),
    ])
    def test_bad_box_raises_from_pairwise_form(self, fn, bad, error):
        good = np.array([UNIT, [1.0, 0.5, 1.0, 1.0]])
        boxes = np.array([UNIT, bad])
        with pytest.raises(error):
            fn(boxes[:, None], good[None])
        with pytest.raises(error):
            fn(good[:, None], boxes[None])

    @pytest.mark.parametrize("fn", [iou, giou])
    def test_last_axis_must_hold_four_entries(self, fn):
        with pytest.raises(ShapeError):
            fn(np.ones((2, 1, 3)), np.ones((1, 2, 4)))

    @pytest.mark.parametrize("fn", [iou, giou])
    def test_bad_box_message_names_the_first_and_counts_them(self, fn):
        """The message stays short on a sweep's worth of boxes."""
        boxes = np.tile(UNIT, (1000, 1))
        boxes[617, 1] = np.nan
        with pytest.raises(NumericError) as exc:
            fn(boxes, boxes[::-1])
        assert str(exc.value) == ("non-finite box coordinates: 1 of 1000 boxes, "
                                  "the first at index [617]: [0.5, nan, 1.0, 1.0]")
        boxes[617, 1] = 0.5
        boxes[[40, 3], 2] = [-1.0, 0.0]
        with pytest.raises(ShapeError) as exc:
            fn(boxes[:, None], boxes[None, :5])
        assert str(exc.value) == ("degenerate box with non-positive extent: 2 of "
                                  "1000 boxes, the first at index [3, 0]: "
                                  "[0.5, 0.5, 0.0, 1.0]")


def reference_average_precision(dets, gts, threshold):
    """The per-detection form of AP at one threshold: a greedy loop over every
    detection in score order, then a 101-step interpolation loop."""
    if not gts or not dets:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    ious = iou(np.array([d.box for d in dets])[:, None],
               np.array([g.box for g in gts])[None])
    same_episode = (np.array([d.episode_id for d in dets])[:, None]
                    == np.array([g.episode_id for g in gts])[None])
    used = np.zeros(len(gts), dtype=bool)
    tp = np.zeros(len(dets))
    for k, di in enumerate(order):
        row = np.where(used | ~same_episode[di], 0.0, ious[di])
        best = int(np.argmax(row))
        if row[best] > 0.0 and row[best] >= threshold:
            used[best] = True
            tp[k] = 1.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / len(gts)
    precision = cum_tp / (cum_tp + np.cumsum(1.0 - tp))
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.searchsorted(recall, r, side="left")
        if idx < len(envelope):
            ap += envelope[idx]
    return float(ap / 101)


def random_tie_set(rng):
    """Detections and ground truths of one class over a few episodes, with
    boxes on a coarse grid (duplicate boxes, equal IoUs, IoUs exactly on a
    threshold) and scores from a short list (equal scores)."""
    def box():
        return [rng.integers(2, 9) / 10, rng.integers(2, 9) / 10,
                rng.integers(1, 5) / 10, rng.integers(1, 5) / 10]
    episodes = int(rng.integers(1, 4))
    gts = [gtr(int(rng.integers(0, episodes)), 1, box())
           for _ in range(rng.integers(0, 7))]
    dets = []
    for _ in range(rng.integers(0, 13)):
        source = gts[rng.integers(0, len(gts))].box if gts and rng.random() < 0.5 else box()
        dets.append(det(int(rng.integers(0, episodes)), 1,
                        float(rng.choice([0.2, 0.5, 0.5, 0.9])), source))
    return dets, gts


def class_ap(dets, gts, band=IOU_THRESHOLDS, cid=1):
    """Class ``cid``'s AP row in the report on ``band`` (which holds 0.5),
    zeros when the class has no ground truth."""
    report = evaluate_detections(dets, gts, [cid], episode_count=4, thresholds=band)
    return report.ap[0] if report.class_ids else np.zeros(len(band))


def ap_at(dets, gts, threshold, cid=1):
    """Class ``cid``'s AP at one threshold, from the report on the band of
    that threshold and 0.5."""
    return class_ap(dets, gts, (threshold, 0.5), cid)[0]


def confusion_at(dets, gts, threshold, class_ids):
    """The confusion matrix at any threshold, composed the way
    evaluate_detections composes it at 0.5."""
    order = metrics._score_order(np.array([d.score for d in dets], dtype=np.float64))
    ranked = metrics._ranked_overlaps(dets, gts, threshold)
    (match,) = metrics._greedy_match(order, ranked, len(gts), (threshold,))
    predicted = np.array([class_ids.index(d.class_id) for d in dets], dtype=np.int64)
    true = np.array([class_ids.index(g.class_id) for g in gts], dtype=np.int64)
    return confusion_matrix(predicted, true, match, len(class_ids))


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        dets = [det(0, 1, 0.7, UNIT)]
        gts = [gtr(0, 1, UNIT)]
        ap = class_ap(dets, gts)
        assert ap.shape == (len(IOU_THRESHOLDS),) and ap.dtype == np.float64
        np.testing.assert_array_equal(ap, np.ones(len(IOU_THRESHOLDS)))

    def test_no_detections(self):
        report = evaluate_detections([], [gtr(0, 1, UNIT)], [1], episode_count=1)
        assert report.class_ids == [1]
        np.testing.assert_array_equal(report.ap, np.zeros((1, len(IOU_THRESHOLDS))))

    def test_tp_before_fp_gives_full_ap(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.9, UNIT), det(0, 1, 0.8, [5, 5, 1, 1])]
        assert ap_at(dets, gts, 0.5) == 1.0

    def test_fp_before_tp_halves_ap(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.8, UNIT), det(0, 1, 0.9, [5, 5, 1, 1])]
        assert ap_at(dets, gts, 0.5) == pytest.approx(0.5)

    def test_one_gt_used_once(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.9, UNIT), det(0, 1, 0.8, UNIT)]
        # second detection duplicates the first -> FP
        assert ap_at(dets, gts, 0.5) == 1.0

    def test_episodes_do_not_cross_match(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(1, 1, 0.9, UNIT)]  # right box, wrong episode
        assert ap_at(dets, gts, 0.5) == 0.0

    def test_zero_threshold_still_needs_overlap(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.9, [5, 5, 1, 1]), det(0, 1, 0.8, SPAN)]
        ap = class_ap(dets, gts, (0.0, 0.5))
        assert ap[0] == reference_average_precision(dets, gts, 0.0) == 0.5
        assert ap[1] == 0.0

    def test_ties_first_gt_and_list_order_win(self):
        # SPAN overlaps both ground truths at exactly IoU 1/3 and takes the
        # first one; the exact detection is then left with gt 1 at IoU 0.
        # With equal scores list order decides which of the two goes first.
        gts = [gtr(0, 1, UNIT), gtr(0, 1, RIGHT)]
        span, exact = det(0, 1, 0.5, SPAN), det(0, 1, 0.5, UNIT)
        assert ap_at([span, exact], gts, 0.3) == 51 / 101
        assert ap_at([exact, span], gts, 0.3) == 1.0

    def test_band_equals_per_detection_reference(self):
        """Every threshold of the band is bit-equal to the per-detection
        greedy loop and the 101-step interpolation, on sets with IoU and
        score ties."""
        rng = np.random.default_rng(2024)
        for _ in range(400):
            dets, gts = random_tie_set(rng)
            ap = class_ap(dets, gts)
            for j, t in enumerate(IOU_THRESHOLDS):
                assert ap[j] == reference_average_precision(dets, gts, t)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
    def test_invariant_to_monotone_score_transform(self, seed, scale):
        rng = np.random.default_rng(seed)
        gts = [gtr(e, 1, [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
               for e in range(3)]
        dets = [det(rng.integers(0, 3), 1, rng.uniform(0.1, 0.9),
                    [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
                for _ in range(8)]
        base = class_ap(dets, gts)
        scaled = [Detection(d.episode_id, d.class_id, scale * d.score + 2.0, d.box)
                  for d in dets]
        np.testing.assert_allclose(class_ap(scaled, gts), base)


def test_kernels_read_arrays_only():
    """``average_precision`` scores a (T, D) true-positive table, 0 with no
    detection; ``confusion_matrix`` counts class indices and a match."""
    # Recall 1/2 at precision 1 for 51 grid points, then 1 at 2/3 for 50.
    tp = np.array([[True, False, True], [False, False, False]])
    ap = average_precision(tp, 2)
    assert ap.shape == (2,) and ap[1] == 0.0
    assert ap[0] == pytest.approx((51 + 50 * 2 / 3) / 101, rel=1e-15)
    np.testing.assert_array_equal(average_precision(tp[:, :0], 2), [0.0, 0.0])
    # Detection 0 (class 1) took ground truth 1 (class 0), detection 1
    # (class 0) took nothing; ground truth 0 (class 1) was missed.
    np.testing.assert_array_equal(
        confusion_matrix(np.array([1, 0]), np.array([1, 0]), np.array([1, -1]), 2),
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


@pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
def test_non_finite_score_raises_in_ap_and_confusion(score):
    """Refused whether or not the detection's class has a ground truth to
    score AP against: the one score order serves both walks."""
    dets = [det(0, 0, 0.9, UNIT), det(0, 0, score, RIGHT)]
    for gts in ([gtr(0, 0, UNIT)], [gtr(0, 1, UNIT)], []):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_detections(dets, gts, [0, 1], episode_count=1)
    with pytest.raises(ValueError, match="non-finite"):
        metrics._score_order(np.array([0.9, score]))


class TestConfusion:
    def test_perfect_detector_is_diagonal(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, [3, 3, 1, 1])]
        dets = [det(0, 0, 0.9, UNIT), det(0, 1, 0.8, [3, 3, 1, 1])]
        counts = evaluate_detections(dets, gts, [0, 1], episode_count=1).confusion
        np.testing.assert_array_equal(counts, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_no_detections_fill_bg_column(self):
        gts = [gtr(0, 0, UNIT), gtr(1, 1, UNIT)]
        counts = evaluate_detections([], gts, [0, 1], episode_count=2).confusion
        np.testing.assert_array_equal(counts, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])

    def test_cross_class_error(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, [3, 3, 1, 1])]
        dets = [det(0, 1, 0.9, UNIT),          # class-1 prediction on class-0 gt
                det(0, 1, 0.8, [3, 3, 1, 1])]
        counts = evaluate_detections(dets, gts, [0, 1], episode_count=1).confusion
        assert counts[0, 1] == 1 and counts[1, 1] == 1
        assert counts.sum() == 2

    def test_ties_first_gt_and_list_order_win(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, RIGHT)]
        span, exact = det(0, 1, 0.5, SPAN), det(0, 0, 0.5, UNIT)
        # span takes gt 0 (first on equal IoU), exact finds nothing left.
        np.testing.assert_array_equal(confusion_at([span, exact], gts, 0.3, [0, 1]),
                                      [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        np.testing.assert_array_equal(confusion_at([exact, span], gts, 0.3, [0, 1]),
                                      [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_total_count_identity(self):
        rng = np.random.default_rng(4)
        gts = [gtr(e, int(rng.integers(0, 2)),
                   [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
               for e in range(5)]
        dets = [det(int(rng.integers(0, 5)), int(rng.integers(0, 2)),
                    rng.uniform(), [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                                    0.2, 0.2]) for _ in range(9)]
        counts = evaluate_detections(dets, gts, [0, 1], episode_count=5).confusion
        unmatched_gts = counts[:, -1].sum()
        assert counts.sum() == len(dets) + unmatched_gts

    def test_threshold_domain(self):
        """A band threshold that is not a finite number in [0, 1] is refused
        by name, whatever its place in the band, by evaluate_detections and
        EvalReport.from_json alike; 0 and 1 themselves are kept."""
        dets, gts = [det(0, 1, 0.9, UNIT)], [gtr(0, 1, UNIT)]
        report = evaluate_detections(dets, gts, [1], episode_count=1,
                                     thresholds=(0.0, 0.5, 1.0))
        np.testing.assert_array_equal(report.ap, [[1.0, 1.0, 1.0]])
        for bad in (np.nan, np.inf, -np.inf, 1.5, -0.1):
            for band in ((0.5, bad), (bad, 0.5)):
                named = rf"IoU threshold {float(bad)} is not a finite number in \[0, 1\]"
                with pytest.raises(ValueError, match=named):
                    evaluate_detections(dets, gts, [1], episode_count=1,
                                        thresholds=band)
                payload = json.loads(report.to_json())
                payload.update(thresholds=list(band), ap=[[1.0, 1.0]])
                with pytest.raises(ValueError, match=named):
                    EvalReport.from_json(json.dumps(payload))


class TestEvalReport:
    def make_report(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, [3, 3, 1, 1])]
        dets = [det(0, 0, 0.9, UNIT), det(0, 1, 0.8, [3.1, 3, 1, 1])]
        return evaluate_detections(dets, gts, [0, 1], episode_count=1)

    def test_map_band_is_mean_of_thresholds(self):
        report = self.make_report()
        assert report.map_band == pytest.approx(
            float(np.mean([report.ap[:, j].mean()
                           for j in range(len(report.thresholds))])))

    def test_json_roundtrip_lossless(self):
        report = self.make_report()
        back = EvalReport.from_json(report.to_json())
        np.testing.assert_array_equal(report.ap, back.ap)
        np.testing.assert_array_equal(report.confusion, back.confusion)
        assert report.class_ids == back.class_ids
        assert report.thresholds == back.thresholds
        assert back.to_json() == report.to_json()


def oracle_greedy_match(dets, gts, iou_thresholds):
    """The per-threshold matcher evaluate_detections used to run: one IoU
    matrix per episode, then at each threshold one numpy reduction per match
    over the rows not yet passed."""
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    match = np.full((len(iou_thresholds), len(dets)), -1, dtype=np.int64)
    gt_by_episode, det_by_episode = {}, {}
    for i, g in enumerate(gts):
        gt_by_episode.setdefault(g.episode_id, []).append(i)
    for di in order:
        det_by_episode.setdefault(dets[di].episode_id, []).append(di)
    for episode, det_ids in det_by_episode.items():
        gt_ids = gt_by_episode.get(episode)
        if not gt_ids:
            continue
        ious = iou(np.array([dets[i].box for i in det_ids])[:, None],
                   np.array([gts[i].box for i in gt_ids])[None])
        for j, threshold in enumerate(iou_thresholds):
            free = ious.copy()
            start = 0
            while start < len(det_ids):
                best = free[start:].max(axis=1)
                hits = np.flatnonzero((best > 0.0) & (best >= threshold))
                if not hits.size:
                    break
                start += int(hits[0])
                gi = int(np.argmax(free[start]))
                match[j, det_ids[start]] = gt_ids[gi]
                free[:, gi] = 0.0
                start += 1
    return order, match


def oracle_confusion(dets, gts, iou_threshold, class_ids):
    index = {cid: i for i, cid in enumerate(class_ids)}
    bg = len(class_ids)
    counts = np.zeros((bg + 1, bg + 1), dtype=np.int64)
    _, (match,) = oracle_greedy_match(dets, gts, (iou_threshold,))
    for d, gi in zip(dets, match):
        counts[index[gts[gi].class_id] if gi >= 0 else bg, index[d.class_id]] += 1
    used = np.zeros(len(gts), dtype=bool)
    used[match[match >= 0]] = True
    for gi in np.flatnonzero(~used):
        counts[index[gts[gi].class_id], bg] += 1
    return counts


def random_episode_set(rng, classes):
    """Detections and ground truths of several classes over up to six
    episodes: boxes on a coarse grid, ground truths sharing a box, many
    detections copying a ground truth's box, scores from a short list, and
    episodes left without ground truths or without detections."""
    def box():
        return [rng.integers(2, 9) / 10, rng.integers(2, 9) / 10,
                rng.integers(1, 5) / 10, rng.integers(1, 5) / 10]
    dets, gts = [], []
    for e in range(int(rng.integers(1, 7))):
        kind = rng.choice(["both", "no_gts", "no_dets"], p=[0.6, 0.2, 0.2])
        ep_gts = []
        for _ in range(0 if kind == "no_gts" else rng.integers(1, 6)):
            source = (ep_gts[rng.integers(0, len(ep_gts))].box
                      if ep_gts and rng.random() < 0.3 else box())
            ep_gts.append(gtr(e, int(rng.choice(classes)), source))
        gts += ep_gts
        if kind == "no_dets":
            continue
        for _ in range(rng.integers(1, 15)):
            source = (ep_gts[rng.integers(0, len(ep_gts))].box
                      if ep_gts and rng.random() < 0.6 else box())
            dets.append(det(e, int(rng.choice(classes)),
                            float(rng.choice([0.1, 0.5, 0.5, 0.9])), source))
    return dets, gts


def assert_matches_oracles(dets, gts, classes, band=IOU_THRESHOLDS):
    """On ``band``, the whole-table match equals the per-threshold oracle
    matcher's, the report's confusion matrix the oracle's and each class's
    AP row the per-detection reference at every threshold."""
    got = evaluate_detections(dets, gts, classes, episode_count=8, thresholds=band)
    order = metrics._score_order(np.array([d.score for d in dets], dtype=np.float64))
    match = metrics._greedy_match(order, metrics._ranked_overlaps(dets, gts, min(band)),
                                  len(gts), band)
    want_order, want_match = oracle_greedy_match(dets, gts, band)
    np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(match, want_match)
    np.testing.assert_array_equal(got.confusion,
                                  oracle_confusion(dets, gts, 0.5, classes))
    assert got.class_ids == [c for c in classes if any(g.class_id == c for g in gts)]
    for cid in got.class_ids:
        cls_dets = [d for d in dets if d.class_id == cid]
        cls_gts = [g for g in gts if g.class_id == cid]
        np.testing.assert_array_equal(
            got.ap[got.class_ids.index(cid)],
            [reference_average_precision(cls_dets, cls_gts, t) for t in band])
    return got


@pytest.mark.parametrize("seed", range(25))
def test_evaluation_matches_per_threshold_oracle(seed):
    """AP and the confusion matrix are bit-identical to the per-threshold
    matcher and the per-detection reference, on sets full of score and IoU
    ties."""
    rng = np.random.default_rng(seed)
    dets, gts = random_episode_set(rng, [4, 5, 6])
    assert_matches_oracles(dets, gts, [4, 5, 6])


@pytest.mark.parametrize("seed", range(25))
def test_low_thresholds_match_the_oracles(seed):
    """AP and confusion matrix at thresholds below the default band, where
    the ranked table keeps low-IoU entries: each AP row of a report on a
    low band, and on the band of each low threshold and 0.5, is bit-equal
    to the per-detection reference; the confusion matrix at each low
    threshold equals the per-threshold oracle's."""
    rng = np.random.default_rng(seed)
    classes = [4, 5, 6]
    dets, gts = random_episode_set(rng, classes)
    low = (0.0, 0.1, 0.3)
    report = assert_matches_oracles(dets, gts, classes, low + (0.5,))
    for cid in classes:
        cls_dets = [d for d in dets if d.class_id == cid]
        cls_gts = [g for g in gts if g.class_id == cid]
        for t in low:
            assert ap_at(cls_dets, cls_gts, t, cid) == reference_average_precision(
                cls_dets, cls_gts, t)
        if cid in report.class_ids:
            np.testing.assert_array_equal(
                report.ap[report.class_ids.index(cid), :3],
                [reference_average_precision(cls_dets, cls_gts, t) for t in low])
    for t in low:
        np.testing.assert_array_equal(confusion_at(dets, gts, t, classes),
                                      oracle_confusion(dets, gts, t, classes))


def test_band_without_half_is_refused():
    """mAP@0.5 and the confusion matrix are taken at 0.5, so a band
    without it is refused on entry: by evaluate_detections, and by
    EvalReport.from_json with the same message, not later by ``map_50``."""
    dets, gts = [det(0, 1, 0.9, UNIT)], [gtr(0, 1, UNIT)]
    with pytest.raises(ValueError, match="0.5") as eval_error:
        evaluate_detections(dets, gts, [1], episode_count=1, thresholds=(0.75,))
    report = evaluate_detections(dets, gts, [1], episode_count=1,
                                 thresholds=(0.5, 0.75))
    assert report.map_50 == 1.0
    payload = json.loads(report.to_json())
    payload.update(thresholds=[0.75], ap=[[1.0]])
    with pytest.raises(ValueError) as load_error:
        EvalReport.from_json(json.dumps(payload))
    assert str(load_error.value) == str(eval_error.value)


def count_iou_calls(monkeypatch) -> list:
    """The shapes of the boxes each ``metrics.iou`` call gets, in order."""
    calls = []
    real_iou = metrics.iou

    def counted_iou(a, b):
        calls.append(np.shape(a))
        return real_iou(a, b)

    monkeypatch.setattr(metrics, "iou", counted_iou)
    return calls


def test_one_iou_call_per_evaluation(monkeypatch):
    """evaluate_detections calls ``iou`` once, over the pairs of every
    episode that has at least one detection and one ground truth: 9
    detections against 3 ground truths in each of 4 episodes."""
    rng = np.random.default_rng(11)
    classes = [0, 1, 2]

    def box():
        return [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2]
    # Episodes 0-3 have both, 4 only ground truths, 5 only detections.
    gts = [gtr(e, c, box()) for e in (0, 1, 2, 3, 4) for c in classes]
    dets = [det(e, c, rng.uniform(), box())
            for e in (0, 1, 2, 3, 5) for c in classes for _ in range(3)]
    calls = count_iou_calls(monkeypatch)
    report = evaluate_detections(dets, gts, classes, episode_count=6)
    assert report.ap.shape == (len(classes), len(IOU_THRESHOLDS))
    assert calls == [(4 * 9 * 3, 4)]


@pytest.mark.parametrize("classes", [[1], [1, 2, 3, 4]], ids=["one-class", "four-classes"])
def test_one_walk_set_up_per_evaluation(monkeypatch, classes):
    """Whatever the class count, one evaluation checks the classes once,
    orders the scores once, calls ``iou`` once and walks the table twice:
    once for the AP of every class and threshold, once at 0.5 for the
    confusion matrix."""
    rng = np.random.default_rng(5)
    gts = [gtr(e, c, [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
           for e in range(3) for c in classes]
    dets = [det(g.episode_id, int(rng.choice(classes)), float(rng.uniform()),
                jittered(g.box, rng)) for g in gts for _ in range(2)]
    calls = {name: 0 for name in ("_check_classes", "_score_order", "_greedy_match")}
    for name in calls:
        def counted(*args, _real=getattr(metrics, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(metrics, name, counted)
    iou_calls = count_iou_calls(monkeypatch)
    report = evaluate_detections(dets, gts, classes, episode_count=6)
    assert report.class_ids == classes
    assert calls == {"_check_classes": 1, "_score_order": 1, "_greedy_match": 2}
    assert len(iou_calls) == 1


def test_repeated_class_id_is_refused():
    """A class id that ``class_ids`` holds twice is refused by name: its AP
    row and confusion row and column would otherwise split in two."""
    with pytest.raises(ValueError, match=r"class_ids hold class 1 twice: \[1, 1, 2\]"):
        evaluate_detections([det(0, 2, 0.8, UNIT)], [gtr(0, 1, UNIT), gtr(0, 2, UNIT)],
                            [1, 1, 2], episode_count=1)


@pytest.mark.parametrize("dets, gts", [
    ([], []),
    ([det(0, 1, 0.9, UNIT)], []),
    ([], [gtr(0, 1, UNIT)]),
    ([det(0, 1, 0.9, UNIT), det(2, 1, 0.5, UNIT)], [gtr(1, 1, UNIT), gtr(3, 1, UNIT)]),
], ids=["empty", "detections-only", "ground-truths-only", "disjoint-episodes"])
def test_no_iou_call_without_an_episode_holding_both(monkeypatch, dets, gts):
    calls = count_iou_calls(monkeypatch)
    report = evaluate_detections(dets, gts, [1], episode_count=4)
    assert calls == []
    assert report.confusion.sum() == len(dets) + len(gts)


@pytest.mark.parametrize("dets, gts, named", [
    ([det(0, 9, 0.9, UNIT)], [gtr(0, 1, UNIT)], "detections hold class 9"),
    ([det(0, 1, 0.9, UNIT)], [gtr(0, 1, UNIT), gtr(1, 9, UNIT)],
     "ground truths hold class 9"),
], ids=["detection", "ground-truth"])
def test_class_outside_class_ids_is_named(monkeypatch, dets, gts, named):
    """A detection or ground truth whose class is not in ``class_ids`` is
    refused on entry, naming the list that holds it and the class, before
    any scoring."""
    calls = count_iou_calls(monkeypatch)
    with pytest.raises(ValueError, match=named + r", which is not in class_ids \[1, 2\]"):
        evaluate_detections(dets, gts, [1, 2], episode_count=2)
    assert calls == []


def jittered(box, rng, scale=0.04):
    return list(np.asarray(box) + rng.uniform(-scale, scale, 4) * [1, 1, 0.5, 0.5])


def test_episodes_with_none_one_and_the_most_ground_truths():
    """Episodes with 0, 1 and 7 ground truths (the most of any), each with
    detections near its ground truths and elsewhere: the flat pairs of one
    ``iou`` call cover runs of every length."""
    rng = np.random.default_rng(3)
    classes = [1, 2]
    gts, dets = [], []
    for e, n in enumerate([0, 1, 7, 1, 0, 7]):
        ep_gts = [gtr(e, int(rng.choice(classes)),
                      [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.2, 0.2])
                  for _ in range(n)]
        gts += ep_gts
        dets += [det(e, int(rng.choice(classes)), float(rng.uniform()),
                     jittered(g.box, rng)) for g in ep_gts for _ in range(2)]
        dets += [det(e, 1, float(rng.uniform()), [0.5, 0.5, 0.3, 0.3])]
    report = assert_matches_oracles(dets, gts, classes)
    assert report.map_50 > 0


def test_detections_in_episodes_without_ground_truth_are_false_positives():
    """A detection of an episode with no ground truth has no entries: it
    lands in the background row and counts as a false positive, even on
    the box of another episode's ground truth."""
    gts = [gtr(0, 1, UNIT), gtr(2, 1, RIGHT)]
    dets = [det(1, 1, 0.95, UNIT), det(0, 1, 0.9, UNIT),
            det(3, 1, 0.8, RIGHT), det(2, 1, 0.7, RIGHT)]
    report = assert_matches_oracles(dets, gts, [1])
    # Two false positives ahead of each true positive: precision 1/2 at
    # recall 1/2 and 1 alike.
    assert report.ap[0, 0] == pytest.approx(0.5, abs=0.01)
    np.testing.assert_array_equal(report.confusion, [[2, 0], [2, 0]])


def test_ground_truth_only_episodes_are_missed():
    gts = [gtr(0, 1, UNIT), gtr(1, 1, UNIT), gtr(1, 2, RIGHT), gtr(2, 2, SPAN)]
    dets = [det(0, 1, 0.9, UNIT), det(0, 2, 0.4, RIGHT)]
    report = assert_matches_oracles(dets, gts, [1, 2])
    assert report.class_ids == [1, 2]
    # Class 1 reaches recall 1/2 at precision 1: 51 of the 101 points.
    np.testing.assert_array_equal(report.ap[:, 0], [51 / 101, 0.0])
    np.testing.assert_array_equal(report.confusion, [[1, 0, 1], [0, 0, 2], [0, 1, 0]])


def test_exact_iou_ties_go_to_the_lower_ground_truth():
    """SPAN overlaps UNIT and RIGHT by exactly 1/3, and duplicate ground
    truths tie at 1: each detection takes the lowest free index, in score
    order, list order on equal scores."""
    gts = [gtr(0, 1, RIGHT), gtr(0, 1, UNIT), gtr(0, 1, UNIT), gtr(1, 1, UNIT)]
    dets = [det(0, 1, 0.5, UNIT), det(0, 1, 0.5, UNIT), det(0, 1, 0.9, SPAN),
            det(0, 1, 0.5, UNIT), det(1, 1, 0.5, UNIT)]
    ranked = metrics._ranked_overlaps(dets, gts, 0.3)
    np.testing.assert_array_equal(ranked.det, [0, 0, 1, 1, 2, 2, 2, 3, 3, 4])
    np.testing.assert_array_equal(ranked.gt, [1, 2, 1, 2, 0, 1, 2, 1, 2, 3])
    assert ranked.iou[4] == ranked.iou[5] == ranked.iou[6] == iou(SPAN, UNIT)
    order = metrics._score_order(np.array([d.score for d in dets]))
    np.testing.assert_array_equal(order, [2, 0, 1, 3, 4])
    match = metrics._greedy_match(order, ranked, len(gts), (0.3, 0.5))
    np.testing.assert_array_equal(match, [[1, 2, 0, -1, 3], [1, 2, -1, -1, 3]])
    assert_matches_oracles(dets, gts, [1])


def test_class_whose_ground_truths_sit_apart_from_its_detections():
    """Class 2's ground truths are all in episodes without a class-2
    detection, though class-2 detections elsewhere sit on class-1 boxes:
    its AP is 0 at every threshold, and the confusion matrix counts those
    detections as class 1 taken for class 2."""
    gts = [gtr(0, 1, UNIT), gtr(1, 2, UNIT), gtr(1, 2, RIGHT), gtr(2, 1, RIGHT)]
    dets = [det(0, 1, 0.8, UNIT), det(0, 2, 0.9, UNIT), det(2, 2, 0.7, RIGHT),
            det(1, 1, 0.6, UNIT)]
    report = assert_matches_oracles(dets, gts, [1, 2])
    np.testing.assert_array_equal(report.ap[1], np.zeros(len(IOU_THRESHOLDS)))
    np.testing.assert_array_equal(report.confusion, [[0, 2, 0], [1, 0, 1], [1, 0, 0]])
