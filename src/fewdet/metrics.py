"""Detection metrics: IoU / generalized IoU on (cx, cy, w, h) boxes,
COCO-style average precision over the 0.50:0.05:0.95 threshold band with
101-point interpolation, and a class confusion matrix with an explicit
background row/column.

There is one geometry path: ``iou`` and ``giou`` broadcast over leading
axes, so two (4,) boxes give a scalar and ``a[:, None]`` against ``b[None]``
the (m, n) matrix, with the same arithmetic and box checks either way. AP
and the confusion matrix share one score-ordered greedy matcher that
rejects non-finite scores. ``evaluate_detections`` computes each episode's
detections x ground truths IoU matrix once, with one ``iou`` call, rows in
stable score order and columns in ground-truth index order; the per-class
``average_precision`` calls and ``confusion_matrix`` read their sub-blocks
of it. Called on their own, they compute the matrices of their own lists.
``average_precision`` takes the whole threshold band and returns one AP per
threshold: each detection's ground truths are ranked by IoU once, and the
matcher walks those short lists in plain Python at each threshold.

Everything here is plain numpy on raw values. The training loss's box term
(:func:`fewdet.set_head.box_loss`) repeats ``giou``'s arithmetic inside one
autodiff node, and the tests hold the two bit-identical pair by pair.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) -> (x1, y1, x2, y2), vectorized over leading axes."""
    lo, hi = _corners(np.asarray(boxes, dtype=np.float64))
    return np.concatenate([lo, hi], axis=-1)


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x1, y1) and (x2, y2) corners of (cx, cy, w, h) boxes."""
    half = boxes[..., 2:] / 2
    return boxes[..., :2] - half, boxes[..., :2] + half


def _overlap(a: np.ndarray, b: np.ndarray):
    """Corners ``(lo, hi)`` of ``a`` and ``b`` plus their intersection and
    union areas, broadcast over the leading axes. Every box must be finite
    (else NumericError) with positive width and height (else ShapeError)."""
    corners = []
    for boxes in (a, b):
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.shape[-1:] != (4,):
            raise ShapeError(f"boxes must have 4 entries on the last axis, "
                             f"got shape {boxes.shape}")
        if not np.isfinite(boxes).all():
            raise NumericError(f"non-finite box coordinates: {boxes.tolist()}")
        if (boxes[..., 2:] <= 0).any():
            raise ShapeError(f"degenerate box with non-positive extent: "
                             f"{boxes.tolist()}")
        corners.append(_corners(boxes))
    (lo_a, hi_a), (lo_b, hi_b) = corners
    wh = np.clip(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    ext_a, ext_b = hi_a - lo_a, hi_b - lo_b
    area_a = ext_a[..., 0] * ext_a[..., 1]
    area_b = ext_b[..., 0] * ext_b[..., 1]
    return corners[0], corners[1], inter, area_a + area_b - inter


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (cx, cy, w, h) boxes, broadcast over the
    leading axes: two (4,) boxes give a scalar, ``a[:, None]`` against
    ``b[None]`` the (m, n) matrix."""
    _, _, inter, union = _overlap(a, b)
    return inter / union


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU minus the normalized dead area of the smallest enclosing box,
    broadcast like :func:`iou`."""
    (lo_a, hi_a), (lo_b, hi_b), inter, union = _overlap(a, b)
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


def _score_order(dets: list[Detection]) -> np.ndarray:
    """Detection indices by descending score, list order on ties; a
    non-finite score raises ValueError."""
    scores = np.array([d.score for d in dets], dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError(f"non-finite detection score: "
                         f"{scores[~np.isfinite(scores)][0]}")
    return np.argsort(-scores, kind="stable")


@dataclass(frozen=True)
class _Overlaps:
    """One IoU matrix per episode, rows the episode's detections in score
    order, columns its ground truths in index order, held by row as the
    positive entries ``(IoU, column)`` best first, lower column first on
    equal IoU. ``row[i]`` and ``col[k]`` place detection ``i`` and ground
    truth ``k`` of the lists the table belongs to."""
    matrices: dict[int, list[list[tuple[float, int]]]]
    row: list[int]
    col: list[int]

    def restrict(self, det_ids: list[int], gt_ids: list[int]) -> "_Overlaps":
        """The same matrices, placed for the sub-lists ``[dets[i] for i in
        det_ids]`` and ``[gts[k] for k in gt_ids]``: their sub-blocks."""
        return _Overlaps(self.matrices, [self.row[i] for i in det_ids],
                         [self.col[k] for k in gt_ids])


def _group(keys: list, ids) -> dict:
    """``ids`` split by ``keys[i]``, each part in the order of ``ids``."""
    groups: dict = {}
    for i in ids:
        groups.setdefault(keys[i], []).append(i)
    return groups


def _by_episode(records, ids) -> dict[int, list[int]]:
    return _group([r.episode_id for r in records], ids)


def _overlaps(dets: list[Detection], gts: list[GtRecord],
              order: np.ndarray) -> _Overlaps:
    """The IoU table of ``dets`` against ``gts``: one ``iou`` call per
    episode with at least one detection and one ground truth."""
    row, col = [0] * len(dets), [0] * len(gts)
    gt_groups = _by_episode(gts, range(len(gts)))
    for ids in gt_groups.values():
        for j, k in enumerate(ids):
            col[k] = j
    matrices = {}
    for episode, det_ids in _by_episode(dets, order.tolist()).items():
        for j, i in enumerate(det_ids):
            row[i] = j
        gt_ids = gt_groups.get(episode)
        if not gt_ids:
            continue
        ious = iou(np.array([dets[i].box for i in det_ids])[:, None],
                   np.array([gts[k].box for k in gt_ids])[None])
        cols = np.argsort(-ious, axis=1, kind="stable")
        values = np.take_along_axis(ious, cols, axis=1)
        matrices[episode] = [list(zip(v[:n], c[:n])) for v, c, n in zip(
            values.tolist(), cols.tolist(), (ious > 0.0).sum(axis=1).tolist())]
    return _Overlaps(matrices, row, col)


def _greedy_match(dets: list[Detection], gts: list[GtRecord], iou_thresholds,
                  overlaps: _Overlaps | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Score-ordered greedy matching at every threshold of a band.

    Returns the detection order (descending score, list order on ties) and
    ``match[j, i]``: the index of the ground truth detection ``i`` takes at
    ``iou_thresholds[j]``, or -1. In that order each detection takes its
    best-IoU unused ground truth of the same episode (the first in index
    order on equal IoU) and keeps it when the IoU is above 0 and at least
    the threshold. The IoUs come from ``overlaps`` (the table of these
    lists), else from one ``iou`` call per episode. The walk is plain Python
    over each detection's ground truths ranked once for the band: at each
    threshold a detection takes the first free one, if that one reaches the
    threshold.
    """
    order = _score_order(dets)
    if overlaps is None:
        overlaps = _overlaps(dets, gts, order)
    match = np.full((len(iou_thresholds), len(dets)), -1, dtype=np.int64)
    lowest = min(iou_thresholds, default=np.inf)
    gt_groups = _by_episode(gts, range(len(gts)))
    for episode, det_ids in _by_episode(dets, order.tolist()).items():
        gt_ids = gt_groups.get(episode)
        if not gt_ids:
            continue
        matrix = overlaps.matrices[episode]
        position = {overlaps.col[k]: j for j, k in enumerate(gt_ids)}
        # Each detection's (IoU, position in gt_ids) at the lowest threshold
        # or above, best first; a detection with none never matches.
        ranked = []
        for i in det_ids:
            entries = matrix[overlaps.row[i]]
            if entries and entries[0][0] >= lowest:
                candidates = [(v, position[c]) for v, c in entries
                              if v >= lowest and c in position]
                if candidates:
                    ranked.append((i, candidates))
        for t, threshold in enumerate(iou_thresholds):
            free = [True] * len(gt_ids)
            for i, candidates in ranked:
                for value, j in candidates:
                    if value < threshold:
                        break
                    if free[j]:
                        match[t, i] = gt_ids[j]
                        free[j] = False
                        break
    return order, match


def average_precision(dets: list[Detection], gts: list[GtRecord],
                      iou_thresholds, overlaps: _Overlaps | None = None
                      ) -> np.ndarray:
    """Single-class average precision with 101-point interpolation at each
    threshold of ``iou_thresholds``: a (T,) float64 array.

    Detections are greedily matched in descending score order; each ground
    truth is consumed at most once; matches must reach the IoU threshold and
    stay within the same episode. One sort and one IoU matrix per episode
    (or the caller's ``overlaps`` table of these lists) serve the whole band.
    A non-finite score raises ValueError.
    """
    ap = np.zeros(len(iou_thresholds))
    if not gts or not dets:
        return ap
    order, match = _greedy_match(dets, gts, iou_thresholds, overlaps)
    tp = (match[:, order] >= 0).astype(np.float64)
    cum_tp = np.cumsum(tp, axis=1)
    cum_fp = np.cumsum(1.0 - tp, axis=1)
    recall = cum_tp / len(gts)
    precision = cum_tp / (cum_tp + cum_fp)

    # 101-point interpolation: for each recall grid point take the best
    # precision achieved at that recall or beyond. The sum runs left to
    # right (cumsum, not the pairwise np.sum) so every bit is kept.
    grid = np.linspace(0.0, 1.0, 101)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    for j in range(len(ap)):
        idx = np.searchsorted(recall[j], grid, side="left")
        ap[j] = np.cumsum(envelope[j, idx[idx < len(dets)]])[-1] / len(grid)
    return ap


def confusion_matrix(dets: list[Detection], gts: list[GtRecord],
                     iou_threshold: float, class_ids: list[int],
                     overlaps: _Overlaps | None = None) -> np.ndarray:
    """(C+1) x (C+1) count matrix, rows true class / columns predicted,
    final index is background. Each detection is assigned to its best-IoU
    unused ground truth of any class (score order, same episode); unmatched
    detections land in the background row, unmatched ground truths in the
    background column. ``overlaps`` is as for :func:`average_precision`.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must lie in (0, 1), got {iou_threshold}")
    index = {cid: i for i, cid in enumerate(class_ids)}
    bg = len(class_ids)
    counts = np.zeros((bg + 1, bg + 1), dtype=np.int64)

    _, (match,) = _greedy_match(dets, gts, (iou_threshold,), overlaps)
    match = match.tolist()
    cells = Counter((index[gts[k].class_id] if k >= 0 else bg, index[d.class_id])
                    for d, k in zip(dets, match))
    taken = set(match)
    cells.update((index[g.class_id], bg) for k, g in enumerate(gts) if k not in taken)
    for cell, n in cells.items():
        counts[cell] = n
    return counts


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
        payload = json.loads(text)
        return EvalReport(
            class_ids=list(payload["class_ids"]),
            thresholds=list(payload["thresholds"]),
            ap=np.asarray(payload["ap"], dtype=np.float64).reshape(
                len(payload["class_ids"]), len(payload["thresholds"])),
            confusion=np.asarray(payload["confusion"], dtype=np.int64),
            episode_count=payload["episode_count"],
            detection_count=payload.get("detection_count", 0),
            gt_count=payload.get("gt_count", 0),
            extras=payload.get("extras", {}),
        )

    def table(self) -> str:
        lines = ["class      " + "  ".join(f"AP@{t:.2f}" for t in self.thresholds)]
        for i, cid in enumerate(self.class_ids):
            row = "  ".join(f"{self.ap[i, j]:7.3f}" for j in range(len(self.thresholds)))
            lines.append(f"class {cid:<4d} {row}")
        lines.append(f"mAP@0.5 = {self.map_50:.4f}   mAP@[0.5:0.95] = {self.map_band:.4f}")
        return "\n".join(lines)


def evaluate_detections(dets: list[Detection], gts: list[GtRecord],
                        class_ids: list[int], episode_count: int,
                        thresholds=IOU_THRESHOLDS) -> EvalReport:
    """Per-class AP across the threshold band plus the 0.5-IoU confusion
    matrix. Classes with no ground truth anywhere are excluded from AP rows
    (COCO convention). Each episode's detections x ground truths IoU matrix
    is computed once; the AP of each class and the confusion matrix read
    their sub-blocks of it."""
    thresholds = [float(t) for t in thresholds]
    gt_classes = _group([g.class_id for g in gts], range(len(gts)))
    det_classes = _group([d.class_id for d in dets], range(len(dets)))
    present = [cid for cid in class_ids if cid in gt_classes]
    overlaps = _overlaps(dets, gts, _score_order(dets))
    ap = np.zeros((len(present), len(thresholds)))
    for i, cid in enumerate(present):
        det_ids, gt_ids = det_classes.get(cid, []), gt_classes[cid]
        ap[i] = average_precision([dets[j] for j in det_ids], [gts[k] for k in gt_ids],
                                  thresholds, overlaps.restrict(det_ids, gt_ids))
    confusion = confusion_matrix(dets, gts, 0.5, list(class_ids), overlaps)
    return EvalReport(class_ids=list(present), thresholds=thresholds, ap=ap,
                      confusion=confusion, episode_count=episode_count,
                      detection_count=len(dets), gt_count=len(gts))
