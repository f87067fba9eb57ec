"""Detection metrics: IoU / generalized IoU on (cx, cy, w, h) boxes,
COCO-style average precision over the 0.50:0.05:0.95 threshold band with
101-point interpolation, and a class confusion matrix with an explicit
background row/column.

There is one geometry path: ``iou`` and ``giou`` broadcast over leading
axes, so two (4,) boxes give a scalar and ``a[:, None]`` against ``b[None]``
the (m, n) matrix, with the same arithmetic and box checks either way; a
bad box is reported by its index, its values and the count of bad boxes.

There is one scoring path, :func:`evaluate_detections`, and it builds
everything once: the class index of every record (:func:`_check_classes`),
the score order (:func:`_score_order`, which rejects non-finite scores),
and the ranked-overlap table (:func:`_ranked_overlaps`, a :class:`Ranked` of
flat arrays): every detection's overlapping ground truths of its episode,
best first, from one ``iou`` call over all the same-episode pairs. The
greedy matcher :func:`_greedy_match` walks table entries in score order in
plain Python and gives each detection the first free ground truth of its
entries that reaches the threshold. One walk over the same-class entries
matches every class at every threshold of the band; one more over the
whole table at 0.5 feeds the confusion matrix. :func:`average_precision`
and :func:`confusion_matrix` are array kernels on the results: a class's
(T, D) true-positive table, and class indices with a match, counted with
one ``np.bincount``.

Everything here is plain numpy on raw values. The training loss's box term
(:func:`fewdet.set_head.box_loss`) finishes ``giou``'s arithmetic on
``box_overlap`` inside one autodiff node, bit-identical pair by pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ShapeError

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
_RECALL_GRID = np.linspace(0.0, 1.0, 101)  # the 101 points of interpolated AP


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) -> (x1, y1, x2, y2), vectorized over leading axes."""
    lo, hi = _corners(np.asarray(boxes, dtype=np.float64))
    return np.concatenate([lo, hi], axis=-1)


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x1, y1) and (x2, y2) corners of (cx, cy, w, h) boxes."""
    half = boxes[..., 2:] / 2
    return boxes[..., :2] - half, boxes[..., :2] + half


def box_overlap(a: np.ndarray, b: np.ndarray):
    """Corners ``(lo, hi)`` of ``a`` and ``b``, their intersection's extent
    (0 if apart) and area, and their union's area, broadcast over leading
    axes. Every box must be finite (else NumericError) with positive width
    and height (else ShapeError)."""
    corners = []
    for boxes in (a, b):
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.shape[-1:] != (4,):
            raise ShapeError(f"boxes must have 4 entries on the last axis, "
                             f"got shape {boxes.shape}")
        if not np.isfinite(boxes).all():
            raise bad_boxes(NumericError, "non-finite box coordinates", boxes,
                            ~np.isfinite(boxes).all(axis=-1))
        if (boxes[..., 2:] <= 0).any():
            raise bad_boxes(ShapeError, "degenerate box with non-positive extent",
                            boxes, (boxes[..., 2:] <= 0).any(axis=-1))
        corners.append(_corners(boxes))
    (lo_a, hi_a), (lo_b, hi_b) = corners
    wh = np.clip(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    ext_a, ext_b = hi_a - lo_a, hi_b - lo_b
    area_a = ext_a[..., 0] * ext_a[..., 1]
    area_b = ext_b[..., 0] * ext_b[..., 1]
    return corners[0], corners[1], wh, inter, area_a + area_b - inter


def bad_boxes(error: type, what: str, boxes: np.ndarray, bad: np.ndarray):
    """``error`` naming how many of ``boxes`` are ``bad`` (a mask over the
    leading axes) and the first one's index and values, never every box."""
    where = np.argwhere(bad)
    first = tuple(where[0].tolist())
    return error(f"{what}: {len(where)} of {bad.size} boxes, the first at "
                 f"index {list(first)}: {boxes[first].tolist()}")


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (cx, cy, w, h) boxes, broadcast over the
    leading axes: two (4,) boxes give a scalar, ``a[:, None]`` against
    ``b[None]`` the (m, n) matrix."""
    _, _, _, inter, union = box_overlap(a, b)
    return inter / union


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU minus the normalized dead area of the smallest enclosing box,
    broadcast like :func:`iou`."""
    (lo_a, hi_a), (lo_b, hi_b), _, inter, union = box_overlap(a, b)
    wh_enc = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    enclose = wh_enc[..., 0] * wh_enc[..., 1]
    return inter / union - (enclose - union) / enclose


@dataclass
class Detection:
    episode_id: int
    class_id: int
    score: float
    box: np.ndarray  # (cx, cy, w, h)


@dataclass
class GtRecord:
    episode_id: int
    class_id: int
    box: np.ndarray


def _score_order(scores: np.ndarray) -> np.ndarray:
    """Indices of ``scores`` by descending score, lower index on ties; a
    non-finite score raises ValueError."""
    if not np.isfinite(scores).all():
        raise ValueError(f"non-finite detection score: "
                         f"{scores[~np.isfinite(scores)][0]}")
    return np.argsort(-scores, kind="stable")


class Ranked(NamedTuple):
    """The ranked-overlap table: one entry per detection ``det`` and ground
    truth ``gt`` of its episode whose IoU is above 0 and at least a floor.
    Entries run in detection order, each detection's best first (the lower
    ground-truth index on equal IoU)."""
    det: np.ndarray
    gt: np.ndarray
    iou: np.ndarray


def _ranked_overlaps(dets: list[Detection], gts: list[GtRecord],
                     floor: float) -> Ranked:
    """The :class:`Ranked` table of these lists at ``floor``, from one
    ``iou`` call over every same-episode pair, made only when there is one."""
    det_episodes = np.array([d.episode_id for d in dets], dtype=np.int64)
    gt_episodes = np.array([g.episode_id for g in gts], dtype=np.int64)
    # Each detection pairs with the run runs[lo:lo + count] of its episode's
    # ground truths; the stable sort keeps each run in list order.
    by_episode = np.argsort(gt_episodes, kind="stable")
    runs = gt_episodes[by_episode]
    lo = np.searchsorted(runs, det_episodes, side="left")
    count = np.searchsorted(runs, det_episodes, side="right") - lo
    det = np.repeat(np.arange(len(dets)), count)
    if not det.size:
        empty = np.zeros(0, dtype=np.int64)
        return Ranked(empty, empty, np.zeros(0))
    # Pair p of detection i, whose pairs start at first[i], is run entry
    # lo[i] + p - first[i].
    first = np.cumsum(count) - count
    gt = by_episode[np.repeat(lo - first, count) + np.arange(det.size)]
    det_boxes = np.array([d.box for d in dets], dtype=np.float64)
    gt_boxes = np.array([g.box for g in gts], dtype=np.float64)
    values = iou(np.take(det_boxes, det, axis=0), np.take(gt_boxes, gt, axis=0))
    keep = (values > 0.0) & (values >= floor)
    det, gt, values = det[keep], gt[keep], values[keep]
    order = np.lexsort((gt, -values, det))
    return Ranked(det[order], gt[order], values[order])


def _greedy_match(order: np.ndarray, ranked: Ranked, gt_count: int,
                  thresholds) -> np.ndarray:
    """Score-ordered greedy matching at every threshold of a band.

    Returns ``match[j, i]``: the ground truth detection ``i`` takes at
    ``thresholds[j]``, or -1. In ``order`` (a :func:`_score_order`) each
    detection takes its first entry of ``ranked`` whose ground truth is
    still free, and keeps it if its IoU reaches the threshold; ``ranked``
    is a :func:`_ranked_overlaps` table at a floor no higher than the
    lowest threshold, or a subset of its entries.
    """
    match = np.full((len(thresholds), len(order)), -1, dtype=np.int64)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    # The entries in score order; the stable sort keeps each detection's
    # entries together and best first.
    by_score = np.argsort(rank[ranked.det], kind="stable")
    walk = list(zip(ranked.det[by_score].tolist(), ranked.gt[by_score].tolist(),
                    ranked.iou[by_score].tolist()))
    for t, threshold in enumerate(thresholds):
        free = [True] * gt_count
        done = -1  # the detection whose remaining entries are skipped
        for i, k, value in walk:
            if i == done:
                continue
            if value < threshold:
                done = i
            elif free[k]:
                match[t, i] = k
                free[k] = False
                done = i
    return match


def average_precision(tp: np.ndarray, gt_count: int) -> np.ndarray:
    """Average precision with 101-point interpolation, one per row of the
    (T, D) true-positive table ``tp`` of one class (a column per detection,
    in descending score order) against its ``gt_count`` ground truths: a
    (T,) float64 array, 0 where there is no detection."""
    tp = tp.astype(np.float64)
    cum_tp = np.cumsum(tp, axis=1)
    cum_fp = np.cumsum(1.0 - tp, axis=1)
    recall = cum_tp / gt_count
    precision = cum_tp / (cum_tp + cum_fp)

    # 101-point interpolation: for each recall grid point take the best
    # precision achieved at that recall or beyond; a zero column past the
    # last detection scores the grid points no recall reaches. The sum runs
    # left to right (cumsum, not the pairwise np.sum) so every bit is kept.
    envelope = np.zeros((len(tp), tp.shape[1] + 1))
    envelope[:, :-1] = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    idx = np.array([np.searchsorted(row, _RECALL_GRID, side="left") for row in recall])
    points = np.take_along_axis(envelope, idx, axis=1)
    return np.cumsum(points, axis=1)[:, -1] / len(_RECALL_GRID)


def _check_classes(dets: list[Detection], gts: list[GtRecord],
                   class_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The index in ``class_ids`` of each detection's and each ground
    truth's class. ValueError naming a class that ``class_ids`` repeats, or
    the first detection or ground truth class that is not in it and which
    list holds it."""
    index: dict = {}
    for i, cid in enumerate(class_ids):
        if index.setdefault(cid, i) != i:
            raise ValueError(f"class_ids hold class {cid} twice: {list(class_ids)}")
    indices = []
    for name, records in (("detections", dets), ("ground truths", gts)):
        found = np.array([index.get(r.class_id, -1) for r in records], dtype=np.int64)
        if (found < 0).any():
            stray = records[int(np.argmax(found < 0))].class_id
            raise ValueError(f"the {name} hold class {stray}, which is not "
                             f"in class_ids {list(class_ids)}")
        indices.append(found)
    return tuple(indices)


def confusion_matrix(predicted: np.ndarray, true: np.ndarray, match: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """(C+1) x (C+1) count matrix, rows true class / columns predicted,
    final index background: ``predicted`` holds each detection's class index,
    ``true`` each ground truth's and ``match`` the ground truth each
    detection took, or -1. An unmatched detection lands in the background
    row, an unmatched ground truth in the background column."""
    bg = num_classes
    taken = np.zeros(len(true), dtype=bool)
    taken[match[match >= 0]] = True
    # The true class of each ground truth, then background: the row an
    # unmatched detection (match -1) reads.
    rows = np.append(true, bg)[match]
    cells = np.concatenate([rows * (bg + 1) + predicted, true[~taken] * (bg + 1) + bg])
    return np.bincount(cells, minlength=(bg + 1) ** 2).reshape(bg + 1, bg + 1)


@dataclass
class EvalReport:
    class_ids: list[int]
    thresholds: list[float]
    ap: np.ndarray                 # (C, T) per-class AP per threshold
    confusion: np.ndarray          # (C+1, C+1) raw counts at threshold 0.5
    episode_count: int
    detection_count: int = 0
    gt_count: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def map_per_threshold(self) -> np.ndarray:
        return self.ap.mean(axis=0) if self.ap.size else np.zeros(len(self.thresholds))

    @property
    def map_50(self) -> float:
        idx = self.thresholds.index(0.5)
        return float(self.map_per_threshold[idx])

    @property
    def map_band(self) -> float:
        """mAP averaged over the whole threshold band."""
        return float(self.map_per_threshold.mean()) if self.ap.size else 0.0

    def to_json(self) -> str:
        payload = {
            "format_version": 1,
            "class_ids": list(map(int, self.class_ids)),
            "thresholds": [float(t) for t in self.thresholds],
            "ap": self.ap.tolist(),
            "confusion": self.confusion.tolist(),
            "episode_count": int(self.episode_count),
            "detection_count": int(self.detection_count),
            "gt_count": int(self.gt_count),
            "map_50": self.map_50,
            "map_band": self.map_band,
            "extras": self.extras,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        """The report ``to_json`` wrote. A band without 0.5 is refused
        with :func:`evaluate_detections`'s ValueError."""
        payload = json.loads(text)
        return EvalReport(
            class_ids=list(payload["class_ids"]),
            thresholds=_threshold_band(payload["thresholds"]),
            ap=np.asarray(payload["ap"], dtype=np.float64).reshape(
                len(payload["class_ids"]), len(payload["thresholds"])),
            confusion=np.asarray(payload["confusion"], dtype=np.int64),
            episode_count=payload["episode_count"],
            detection_count=payload["detection_count"],
            gt_count=payload["gt_count"],
            extras=payload["extras"],
        )

    def table(self) -> str:
        lines = ["class      " + "  ".join(f"AP@{t:.2f}" for t in self.thresholds)]
        for i, cid in enumerate(self.class_ids):
            row = "  ".join(f"{self.ap[i, j]:7.3f}" for j in range(len(self.thresholds)))
            lines.append(f"class {cid:<4d} {row}")
        lines.append(f"mAP@0.5 = {self.map_50:.4f}   mAP@[0.5:0.95] = {self.map_band:.4f}")
        return "\n".join(lines)


def _threshold_band(thresholds) -> list[float]:
    """The band as floats; ValueError naming a threshold that is not a
    finite number in [0, 1], or unless the band holds 0.5, the threshold
    of mAP@0.5 and of the confusion matrix."""
    band = [float(t) for t in thresholds]
    for t in band:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"IoU threshold {t} is not a finite number in "
                             f"[0, 1]; got {band}")
    if 0.5 not in band:
        raise ValueError(f"the threshold band must hold 0.5, the threshold of "
                         f"mAP@0.5 and the confusion matrix; got {band}")
    return band


def evaluate_detections(dets: list[Detection], gts: list[GtRecord],
                        class_ids: list[int], episode_count: int,
                        thresholds=IOU_THRESHOLDS) -> EvalReport:
    """Per-class AP across the threshold band plus the 0.5-IoU confusion
    matrix. Classes with no ground truth anywhere are excluded from AP rows
    (COCO convention). ValueError for a band threshold that is not a finite
    number in [0, 1] or a band without 0.5, the threshold of the headline
    mAP and of the confusion matrix; for a class that ``class_ids``
    repeats; and for a detection or ground truth whose class is not in
    ``class_ids``.

    One score order and one :func:`_ranked_overlaps` table at the band's
    lowest threshold serve two walks. The AP walk covers every class and
    threshold at once over the table's same-class entries: a ground truth
    is reached only by detections of its class, and the score order kept
    to one class is that class's own. The confusion walk reads the whole
    table at 0.5."""
    thresholds = _threshold_band(thresholds)
    det_class, gt_class = _check_classes(dets, gts, class_ids)
    ranked = _ranked_overlaps(dets, gts, min(thresholds))
    order = _score_order(np.array([d.score for d in dets], dtype=np.float64))
    same = det_class[ranked.det] == gt_class[ranked.gt]
    tp = _greedy_match(order, Ranked(*(a[same] for a in ranked)), len(gts),
                       thresholds)[:, order] >= 0
    class_by_score = det_class[order]
    gt_counts = np.bincount(gt_class, minlength=len(class_ids))
    present = np.flatnonzero(gt_counts)
    ap = np.zeros((len(present), len(thresholds)))
    for c, k in enumerate(present):
        ap[c] = average_precision(tp[:, class_by_score == k], int(gt_counts[k]))
    (at_half,) = _greedy_match(order, ranked, len(gts), (0.5,))
    confusion = confusion_matrix(det_class, gt_class, at_half, len(class_ids))
    return EvalReport(class_ids=[class_ids[k] for k in present], thresholds=thresholds,
                      ap=ap, confusion=confusion, episode_count=episode_count,
                      detection_count=len(dets), gt_count=len(gts))
