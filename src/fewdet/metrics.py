"""Detection metrics: IoU / generalized IoU on (cx, cy, w, h) boxes,
COCO-style average precision over the 0.50:0.05:0.95 threshold band with
101-point interpolation, and a class confusion matrix with an explicit
background row/column.

There is one geometry path: ``iou`` and ``giou`` broadcast over leading
axes, so two (4,) boxes give a scalar and ``a[:, None]`` against ``b[None]``
the (m, n) matrix, with the same arithmetic and box checks either way. AP
and the confusion matrix share one score-ordered greedy matcher that reads
one IoU matrix per episode and rejects non-finite scores. ``average_precision``
takes the whole threshold band and returns one AP per threshold, so one sort
and one IoU matrix per episode serve all ten thresholds; at each threshold
the matcher steps from match to match (at most one step per ground truth),
not from detection to detection.

Everything here is plain numpy on raw values; the differentiable box terms
used by the training loss live elsewhere, which makes these functions an
independent cross-check of those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) -> (x1, y1, x2, y2), vectorized over leading axes."""
    boxes = np.asarray(boxes, dtype=np.float64)
    cx, cy, w, h = np.moveaxis(boxes, -1, 0)
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def _overlap(a: np.ndarray, b: np.ndarray):
    """Corners of ``a`` and ``b`` plus their intersection and union areas,
    broadcast over the leading axes. Every box must be finite (else
    NumericError) with positive width and height (else ShapeError)."""
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
        corners.append(box_corners(boxes))
    a, b = corners
    lt = np.maximum(a[..., :2], b[..., :2])
    rb = np.minimum(a[..., 2:], b[..., 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return a, b, inter, area_a + area_b - inter


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (cx, cy, w, h) boxes, broadcast over the
    leading axes: two (4,) boxes give a scalar, ``a[:, None]`` against
    ``b[None]`` the (m, n) matrix."""
    _, _, inter, union = _overlap(a, b)
    return inter / union


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU minus the normalized dead area of the smallest enclosing box,
    broadcast like :func:`iou`."""
    a, b, inter, union = _overlap(a, b)
    wh_enc = np.maximum(a[..., 2:], b[..., 2:]) - np.minimum(a[..., :2], b[..., :2])
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


def _greedy_match(dets: list[Detection], gts: list[GtRecord],
                  iou_thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Score-ordered greedy matching at every threshold of a band, one IoU
    matrix per episode.

    Returns the detection order (descending score, list order on ties) and
    ``match[j, i]``: the index of the ground truth detection ``i`` takes at
    ``iou_thresholds[j]``, or -1. In that order each detection takes its
    best-IoU unused ground truth of the same episode (the first in index
    order on equal IoU) and keeps it when the IoU is above 0 and at least
    the threshold. The loop steps over matches, not detections: the next
    match goes to the first remaining detection with such a ground truth
    free, and the detections it passes over stay unmatched.
    """
    scores = np.array([d.score for d in dets], dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError(f"non-finite detection score: "
                         f"{scores[~np.isfinite(scores)][0]}")
    order = np.argsort(-scores, kind="stable")
    match = np.full((len(iou_thresholds), len(dets)), -1, dtype=np.int64)
    gt_by_episode: dict[int, list[int]] = {}
    for i, g in enumerate(gts):
        gt_by_episode.setdefault(g.episode_id, []).append(i)
    det_by_episode: dict[int, list[int]] = {}
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


def average_precision(dets: list[Detection], gts: list[GtRecord],
                      iou_thresholds) -> np.ndarray:
    """Single-class average precision with 101-point interpolation at each
    threshold of ``iou_thresholds``: a (T,) float64 array.

    Detections are greedily matched in descending score order; each ground
    truth is consumed at most once; matches must reach the IoU threshold and
    stay within the same episode. One sort and one IoU matrix per episode
    serve the whole band. A non-finite score raises ValueError.
    """
    ap = np.zeros(len(iou_thresholds))
    if not gts or not dets:
        return ap
    order, match = _greedy_match(dets, gts, iou_thresholds)
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
                     iou_threshold: float, class_ids: list[int]) -> np.ndarray:
    """(C+1) x (C+1) count matrix, rows true class / columns predicted,
    final index is background. Each detection is assigned to its best-IoU
    unused ground truth of any class (score order, same episode); unmatched
    detections land in the background row, unmatched ground truths in the
    background column.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must lie in (0, 1), got {iou_threshold}")
    index = {cid: i for i, cid in enumerate(class_ids)}
    bg = len(class_ids)
    counts = np.zeros((bg + 1, bg + 1), dtype=np.int64)

    _, (match,) = _greedy_match(dets, gts, (iou_threshold,))
    for det, gi in zip(dets, match):
        true = index[gts[gi].class_id] if gi >= 0 else bg
        counts[true, index[det.class_id]] += 1
    used = np.zeros(len(gts), dtype=bool)
    used[match[match >= 0]] = True
    for gi in np.flatnonzero(~used):
        counts[index[gts[gi].class_id], bg] += 1
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

    @property
    def confusion_normalized(self) -> np.ndarray:
        """Row-normalized view of the confusion counts (rows that are all
        zero stay zero)."""
        c = self.confusion.astype(np.float64)
        sums = c.sum(axis=1, keepdims=True)
        return np.divide(c, sums, out=np.zeros_like(c), where=sums > 0)

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
    (COCO convention)."""
    thresholds = [float(t) for t in thresholds]
    present = [cid for cid in class_ids
               if any(g.class_id == cid for g in gts)]
    ap = np.zeros((len(present), len(thresholds)))
    for i, cid in enumerate(present):
        cls_dets = [d for d in dets if d.class_id == cid]
        cls_gts = [g for g in gts if g.class_id == cid]
        ap[i] = average_precision(cls_dets, cls_gts, thresholds)
    confusion = confusion_matrix(dets, gts, 0.5, list(class_ids))
    return EvalReport(class_ids=list(present), thresholds=thresholds, ap=ap,
                      confusion=confusion, episode_count=episode_count,
                      detection_count=len(dets), gt_count=len(gts))
