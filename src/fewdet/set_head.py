"""Set-prediction detection head.

Predictions are per-object-query boxes plus independent sigmoid
probabilities mapped one-to-one onto support sequence positions, background
placeholders included. Bipartite matching excludes the background columns
entirely; the loss then supervises them explicitly: a matched query targets
1 at its ground-truth class position and 0 everywhere else, an unmatched
query targets 1 at every placeholder position.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NumericError, ShapeError
from .metrics import giou
from .obd import SupportSequence
from .tensor import (Tensor, maximum, minimum, mul, relu, slice_cols, softplus,
                     sub, take_rows, tmean, tsum, tabs)


@dataclass
class Weights:
    """Shared weighting of the classification / L1 / GIoU terms, used both
    for the matching cost and the training loss."""

    cls: float = 2.0
    l1: float = 5.0
    giou: float = 2.0


@dataclass
class DetectionOutput:
    boxes: Tensor            # (M, 4) normalized (cx, cy, w, h), sigmoid outputs
    position_probs: Tensor   # (M, N) independent sigmoid per support position
    position_logits: Tensor  # (M, N) pre-sigmoid logits, used by the loss

    def __post_init__(self):
        m = self.boxes.shape[0]
        if self.boxes.shape != (m, 4):
            raise ShapeError(f"boxes must be (M, 4), got {self.boxes.shape}")
        if self.position_probs.shape != self.position_logits.shape \
                or self.position_probs.shape[0] != m:
            raise ShapeError("position probability/logit shapes disagree")

    @property
    def num_queries(self) -> int:
        return self.boxes.shape[0]


@dataclass
class GroundTruth:
    boxes: np.ndarray   # (G, 4) normalized (cx, cy, w, h)
    labels: np.ndarray  # (G,) class ids

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.boxes.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"{self.boxes.shape[0]} boxes but {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.boxes.shape[0]


@dataclass
class MatchResult:
    pairs: list[tuple[int, int]]
    unmatched_queries: list[int] = field(default_factory=list)


def _lsa(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One `linear_sum_assignment` solve: rows, columns and total cost."""
    rows, cols = linear_sum_assignment(cost)
    return rows, cols, float(cost[rows, cols].sum())


def _lsa_total(cost: np.ndarray) -> float:
    if cost.size == 0 or min(cost.shape) == 0:
        return 0.0
    return _lsa(cost)[2]


def _optimum_is_unique(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                       total: float, tol: float) -> bool:
    """True when every assignment avoiding some pair of the optimum
    (rows, cols) costs more than ``total + 2 * tol``."""
    work = cost.copy()
    for q, g in zip(rows, cols):
        work[q, g] = np.inf
        try:
            alternative = _lsa(work)[2]
        except ValueError:  # infeasible: every assignment uses (q, g)
            alternative = np.inf
        work[q, g] = cost[q, g]
        if alternative <= total + 2 * tol:
            return False
    return True


def _canonical_search(cost: np.ndarray, total: float) -> list[tuple[int, int]]:
    """Lexicographically smallest optimal pair list, by brute search: for
    each query in turn, the smallest ground truth whose choice still admits
    an optimal completion (one assignment solve per candidate)."""
    m, g = cost.shape
    tol = 1e-9 * max(1.0, abs(total))
    total_pairs = min(m, g)

    pairs: list[tuple[int, int]] = []
    remaining = list(range(g))
    prefix = 0.0
    for q in range(m):
        if not remaining:
            break
        queries_left_after = m - q - 1
        must_match = queries_left_after < len(remaining) and len(pairs) < total_pairs
        chosen = None
        for cand in remaining:
            rest_g = [x for x in remaining if x != cand]
            needed = total_pairs - len(pairs) - 1
            if min(queries_left_after, len(rest_g)) < needed:
                continue
            sub_cost = cost[np.ix_(range(q + 1, m), rest_g)] if rest_g else \
                np.zeros((0, 0))
            completion = _lsa_total(sub_cost) if rest_g else 0.0
            if prefix + cost[q, cand] + completion <= total + tol:
                chosen = cand
                break
        if chosen is None:
            if must_match:
                # Cannot happen for a finite cost matrix: some optimal
                # completion always exists. Guard against tolerance slippage.
                chosen = remaining[0]
            else:
                continue
        pairs.append((q, chosen))
        prefix += cost[q, chosen]
        remaining.remove(chosen)
    return pairs


def hungarian_match(cost: np.ndarray) -> MatchResult:
    """Minimum-cost assignment of queries (rows) to ground truths (columns).

    Matches min(M, G) pairs. Among equally cheap assignments the result is
    canonical: the pair list sorted by query index is lexicographically
    smallest on (query index, gt index). When G > M (more ground truths than
    queries) the cheapest M ground truths are matched and a diagnostic
    warning is emitted.

    Fast path: the matrix is solved once, then once more per matched pair
    with that one entry forbidden (1 + min(M, G) solves). When every such
    re-solve is infeasible or costs more than the optimum plus twice the
    search tolerance (``1e-9 * max(1, |total|)``; the factor 2 covers float
    slop in the search's own sums), the optimum is unique and is returned.
    This is exact: any other assignment the search could accept avoids at
    least one pair of the optimum, so the re-solve forbidding that pair
    would have found it within the bound. On a tie the canonical search
    (`_canonical_search`, one solve per candidate pair) picks the result.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-d, got {cost.shape}")
    m, g = cost.shape
    if g == 0:
        return MatchResult(pairs=[], unmatched_queries=list(range(m)))
    if not np.isfinite(cost).all():
        raise NumericError("hungarian_match: non-finite cost entries")
    if g > m:
        warnings.warn(f"more ground truths ({g}) than queries ({m}); "
                      f"matching the {m} cheapest", RuntimeWarning)

    rows, cols, total = _lsa(cost)
    tol = 1e-9 * max(1.0, abs(total))
    if _optimum_is_unique(cost, rows, cols, total, tol):
        pairs = sorted(zip(rows.tolist(), cols.tolist()))
    else:
        pairs = _canonical_search(cost, total)

    matched_q = {q for q, _ in pairs}
    unmatched = [q for q in range(m) if q not in matched_q]
    return MatchResult(pairs=pairs, unmatched_queries=unmatched)


def match_cost(out: DetectionOutput, gt: GroundTruth, s: SupportSequence,
               weights: Weights) -> np.ndarray:
    """(M, G) matching cost: -probability at the ground truth's support
    position, L1 box distance, and GIoU complement. Background-position
    probabilities never enter. Computed on raw values; matching carries no
    gradient."""
    positions = [s.position_of_class(int(label)) for label in gt.labels]
    probs = out.position_probs.data
    boxes = out.boxes.data
    cost_cls = -probs[:, positions]
    cost_l1 = np.abs(boxes[:, None, :] - gt.boxes[None, :, :]).sum(axis=2)
    cost_giou = 1.0 - giou(boxes[:, None], gt.boxes[None])
    return weights.cls * cost_cls + weights.l1 * cost_l1 + weights.giou * cost_giou


def _corners(boxes: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    cx = slice_cols(boxes, 0, 1)
    cy = slice_cols(boxes, 1, 2)
    w = slice_cols(boxes, 2, 3)
    h = slice_cols(boxes, 3, 4)
    half_w = w * 0.5
    half_h = h * 0.5
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def giou_pairs(pred: Tensor, target: Tensor) -> Tensor:
    """Differentiable GIoU of row-aligned box pairs; returns a (K, 1) tensor."""
    px1, py1, px2, py2 = _corners(pred)
    tx1, ty1, tx2, ty2 = _corners(target)
    iw = relu(minimum(px2, tx2) - maximum(px1, tx1))
    ih = relu(minimum(py2, ty2) - maximum(py1, ty1))
    inter = iw * ih
    area_p = (px2 - px1) * (py2 - py1)
    area_t = (tx2 - tx1) * (ty2 - ty1)
    union = area_p + area_t - inter
    enc_w = maximum(px2, tx2) - minimum(px1, tx1)
    enc_h = maximum(py2, ty2) - minimum(py1, ty1)
    enclose = enc_w * enc_h
    return inter / union - (enclose - union) / enclose


def set_loss(out: DetectionOutput, gt: GroundTruth, s: SupportSequence,
             match: MatchResult, weights: Weights) -> tuple[Tensor, dict[str, float]]:
    """Classification + localization loss under a fixed matching.

    Classification is binary cross-entropy over every (query, position)
    probability, with a balanced reduction: the few positive entries and the
    many negative entries are averaged separately, so positives are not
    drowned out. Localization (matched queries only) is weighted L1 plus
    GIoU complement, averaged over matched pairs. Returns the scalar loss
    tensor and a float breakdown {cls, box, giou}.
    """
    m, n = out.position_logits.shape
    if len(gt) and ((gt.boxes[:, 2] <= 0).any() or (gt.boxes[:, 3] <= 0).any()):
        raise ShapeError("ground truth contains a degenerate box (w or h <= 0)")

    q_idx = [q for q, _ in match.pairs]
    g_idx = [g for _, g in match.pairs]
    targets = np.zeros((m, n))
    targets[q_idx, [s.position_of_class(int(gt.labels[g])) for g in g_idx]] = 1.0
    unmatched = np.ones(m, dtype=bool)
    unmatched[q_idx] = False
    targets[np.ix_(unmatched, s.placeholder_positions)] = 1.0

    # Stable BCE from logits: t*softplus(-z) + (1-t)*softplus(z), each class
    # of entry averaged on its own.
    z = out.position_logits
    n_pos = targets.sum()
    n_neg = targets.size - n_pos
    pos_weights = targets / n_pos if n_pos else targets
    neg_weights = (1.0 - targets) / n_neg if n_neg else (1.0 - targets)
    bce_pos = tsum(mul(Tensor(pos_weights), softplus(-z)))
    bce_neg = tsum(mul(Tensor(neg_weights), softplus(z)))
    bce = (bce_pos + bce_neg) * 0.5
    cls_term = weights.cls * bce

    if match.pairs:
        pred_boxes = take_rows(out.boxes, q_idx)
        gt_boxes = Tensor(gt.boxes[g_idx])
        l1 = tmean(tsum(tabs(sub(pred_boxes, gt_boxes)), axis=1))
        g = tmean(1.0 - giou_pairs(pred_boxes, gt_boxes))
        box_term = weights.l1 * l1
        giou_term = weights.giou * g
        total = cls_term + box_term + giou_term
    else:
        box_term = Tensor(0.0)
        giou_term = Tensor(0.0)
        total = cls_term

    breakdown = {"cls": cls_term.item(), "box": box_term.item(),
                 "giou": giou_term.item()}
    return total, breakdown


def decode_detections(out: DetectionOutput, s: SupportSequence,
                      score_threshold: float) -> list[tuple[int, float, np.ndarray]]:
    """Per query: the best class-position probability becomes the score;
    queries at or above the threshold emit (class_id, score, box).
    Placeholder positions never produce detections."""
    if not (0.0 <= score_threshold <= 1.0):
        raise ValueError(f"score threshold must lie in [0, 1], got {score_threshold}")
    class_positions = s.class_positions
    if not class_positions:
        return []
    probs = out.position_probs.data[:, class_positions]
    best = np.argmax(probs, axis=1)
    scores = probs[np.arange(len(best)), best]
    boxes = out.boxes.data
    return [(s.class_ids[best[q]], float(scores[q]), boxes[q].copy())
            for q in np.flatnonzero(scores >= score_threshold)]
