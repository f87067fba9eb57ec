import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.errors import NumericError, ShapeError
from fewdet.metrics import (Detection, EvalReport, GtRecord, average_precision,
                            confusion_matrix, evaluate_detections, giou, iou)


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


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        dets = [det(0, 1, 0.7, UNIT)]
        gts = [gtr(0, 1, UNIT)]
        for threshold in np.arange(0.5, 0.96, 0.05):
            assert average_precision(dets, gts, threshold) == 1.0

    def test_no_detections(self):
        assert average_precision([], [gtr(0, 1, UNIT)], 0.5) == 0.0

    def test_tp_before_fp_gives_full_ap(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.9, UNIT), det(0, 1, 0.8, [5, 5, 1, 1])]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_fp_before_tp_halves_ap(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.8, UNIT), det(0, 1, 0.9, [5, 5, 1, 1])]
        assert average_precision(dets, gts, 0.5) == pytest.approx(0.5)

    def test_one_gt_used_once(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(0, 1, 0.9, UNIT), det(0, 1, 0.8, UNIT)]
        # second detection duplicates the first -> FP
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_episodes_do_not_cross_match(self):
        gts = [gtr(0, 1, UNIT)]
        dets = [det(1, 1, 0.9, UNIT)]  # right box, wrong episode
        assert average_precision(dets, gts, 0.5) == 0.0

    def test_ties_first_gt_and_list_order_win(self):
        # SPAN overlaps both ground truths at exactly IoU 1/3 and takes the
        # first one; the exact detection is then left with gt 1 at IoU 0.
        # With equal scores list order decides which of the two goes first.
        gts = [gtr(0, 1, UNIT), gtr(0, 1, RIGHT)]
        span, exact = det(0, 1, 0.5, SPAN), det(0, 1, 0.5, UNIT)
        assert average_precision([span, exact], gts, 0.3) == 51 / 101
        assert average_precision([exact, span], gts, 0.3) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
    def test_invariant_to_monotone_score_transform(self, seed, scale):
        rng = np.random.default_rng(seed)
        gts = [gtr(e, 1, [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
               for e in range(3)]
        dets = [det(rng.integers(0, 3), 1, rng.uniform(0.1, 0.9),
                    [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
                for _ in range(8)]
        base = average_precision(dets, gts, 0.5)
        scaled = [Detection(d.episode_id, d.class_id, scale * d.score + 2.0, d.box)
                  for d in dets]
        assert average_precision(scaled, gts, 0.5) == pytest.approx(base)


class TestConfusion:
    def test_perfect_detector_is_diagonal(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, [3, 3, 1, 1])]
        dets = [det(0, 0, 0.9, UNIT), det(0, 1, 0.8, [3, 3, 1, 1])]
        counts = confusion_matrix(dets, gts, 0.5, [0, 1])
        np.testing.assert_array_equal(counts, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_no_detections_fill_bg_column(self):
        gts = [gtr(0, 0, UNIT), gtr(1, 1, UNIT)]
        counts = confusion_matrix([], gts, 0.5, [0, 1])
        np.testing.assert_array_equal(counts, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])

    def test_cross_class_error(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, [3, 3, 1, 1])]
        dets = [det(0, 1, 0.9, UNIT),          # class-1 prediction on class-0 gt
                det(0, 1, 0.8, [3, 3, 1, 1])]
        counts = confusion_matrix(dets, gts, 0.5, [0, 1])
        assert counts[0, 1] == 1 and counts[1, 1] == 1
        assert counts.sum() == 2

    def test_ties_first_gt_and_list_order_win(self):
        gts = [gtr(0, 0, UNIT), gtr(0, 1, RIGHT)]
        span, exact = det(0, 1, 0.5, SPAN), det(0, 0, 0.5, UNIT)
        # span takes gt 0 (first on equal IoU), exact finds nothing left.
        np.testing.assert_array_equal(
            confusion_matrix([span, exact], gts, 0.3, [0, 1]),
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        np.testing.assert_array_equal(
            confusion_matrix([exact, span], gts, 0.3, [0, 1]),
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_total_count_identity(self):
        rng = np.random.default_rng(4)
        gts = [gtr(e, int(rng.integers(0, 2)),
                   [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2])
               for e in range(5)]
        dets = [det(int(rng.integers(0, 5)), int(rng.integers(0, 2)),
                    rng.uniform(), [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                                    0.2, 0.2]) for _ in range(9)]
        counts = confusion_matrix(dets, gts, 0.5, [0, 1])
        unmatched_gts = counts[:, -1].sum()
        assert counts.sum() == len(dets) + unmatched_gts

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [], 0.0, [0])


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

    def test_normalized_rows(self):
        report = self.make_report()
        normalized = report.confusion_normalized
        sums = normalized.sum(axis=1)
        for i, s in enumerate(sums):
            if report.confusion[i].sum() > 0:
                assert s == pytest.approx(1.0)
            else:
                assert s == 0.0
