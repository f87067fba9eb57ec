"""Set-prediction detection head.

Predictions are per-object-query boxes plus independent sigmoid
probabilities mapped one-to-one onto support sequence positions: the C
class columns first, then the background placeholder columns. Bipartite
matching excludes the background columns entirely; the loss then
supervises them explicitly: a matched query targets 1 at its ground-truth
class column and 0 everywhere else, an unmatched query targets 1 at every
placeholder column.

Matching is plain numpy: :func:`linear_sum_assignment` is Crouse's
shortest augmenting path solver (the algorithm scipy runs), and
:func:`hungarian_match` returns the optimum of its one solve, the solver's
``(rows, cols)`` index arrays, rows ascending. Among equally cheap
assignments that optimum is the solver's pick: a function of the cost
values alone, so the same matrix always gets the same pairs, but not a
canonical one.

The set loss is one graph node per term, each with a hand-derived backward:
``bce_with_logits`` for classification and ``box_loss`` for the L1 and GIoU
of the matched boxes, on the geometry of :func:`fewdet.metrics.box_overlap`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .metrics import box_overlap, giou
from .obd import SupportSequence
from .tensor import Tensor


@dataclass(frozen=True)
class Weights:
    """Shared weighting of the classification / L1 / GIoU terms, used both
    for the matching cost and the training loss."""

    cls: float = 2.0
    l1: float = 5.0
    giou: float = 2.0

    def __post_init__(self):
        for name in ("cls", "l1", "giou"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"weights.{name} must be finite and >= 0, "
                                  f"not {getattr(self, name)!r}")


@dataclass
class DetectionOutput:
    boxes: Tensor            # (M, 4) normalized (cx, cy, w, h), sigmoid outputs
    position_probs: Tensor   # (M, N) sigmoid per support position; a value
                             # outside the graph (matching, decoding)
    position_logits: Tensor  # (M, N) pre-sigmoid logits, used by the loss

    def __post_init__(self):
        m = self.boxes.shape[0]
        if self.boxes.shape != (m, 4):
            raise ShapeError(f"boxes must be (M, 4), got {self.boxes.shape}")
        if self.position_probs.shape != self.position_logits.shape \
                or self.position_probs.shape[0] != m:
            raise ShapeError("position probability/logit shapes disagree")


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


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of min(M, G) pairs of a finite (M, G) cost
    matrix.

    Crouse's rectangular shortest augmenting path algorithm (IEEE TAES
    2016), the one ``scipy.optimize.linear_sum_assignment`` runs, on the
    min(M, G) x max(M, G) orientation of the matrix, where every row is
    matched. Each row starts at its minimum; a row whose cheapest column no
    earlier row took keeps it. Every other row is added along a shortest
    augmenting path in reduced costs (Dijkstra, one vectorised scan of the
    columns per step), and the duals are updated as in Crouse's algorithm.

    Returns ``rows`` (ascending) and their ``cols``. Every step reads only
    the cost values, so a matrix and any copy of it (Fortran-ordered
    included) get the same pairs; among equally cheap optima the result is
    whichever the augmenting paths reach, not a canonical one.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if min(cost.shape) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    transposed = cost.shape[0] > cost.shape[1]
    c = cost.T if transposed else cost
    nr, nc = c.shape
    col4row = [-1] * nr
    row4col = [-1] * nc
    for i, j in enumerate(c.argmin(axis=1).tolist()):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
    u = c.min(axis=1)
    v = np.zeros(nc)
    path = np.empty(nc, dtype=np.intp)  # the row a shortest path reaches column j from
    key = np.empty(nc)                  # shortest path length found so far to column j
    for cur in range(nr):
        if col4row[cur] >= 0:
            continue
        key.fill(np.inf)
        # A scanned column's dual is -inf here, so its reduced cost is +inf
        # and later scans leave its path and length alone.
        blocked = v.copy()
        scanned, lengths = [], []
        i, min_val = cur, 0.0
        while True:
            r = c[i] - blocked
            r += min_val - u[i]
            path[r < key] = i
            np.minimum(key, r, out=key)
            j = int(key.argmin())
            min_val = float(key[j])
            scanned.append(j)
            lengths.append(min_val)
            i = row4col[j]
            if i < 0:
                break
            key[j] = np.inf
            blocked[j] = -np.inf
        u[cur] += min_val
        for j, length in zip(scanned, lengths):
            v[j] -= min_val - length
            if row4col[j] >= 0:
                u[row4col[j]] += min_val - length
        while True:  # augment back from the free column j
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    cols = np.array(col4row, dtype=np.intp)
    if transposed:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr), cols


def hungarian_match(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of queries (rows) to ground truths (columns).

    Matches min(M, G) pairs at the minimum total cost: the optimum of one
    :func:`linear_sum_assignment` solve, as its ``(rows, cols)`` index
    arrays, query ``rows[k]`` matched to ground truth ``cols[k]``, rows
    ascending (both empty with no ground truth). The result is
    deterministic for the given cost values; among equally cheap
    assignments it is the solver's pick, not a canonical one. When G > M
    (more ground truths than queries) the cheapest M ground truths are
    matched and a diagnostic warning is emitted.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-d, got {cost.shape}")
    m, g = cost.shape
    if not np.isfinite(cost).all():
        raise NumericError("hungarian_match: non-finite cost entries")
    if g > m:
        warnings.warn(f"more ground truths ({g}) than queries ({m}); "
                      f"matching the {m} cheapest", RuntimeWarning)
    return linear_sum_assignment(cost)


def match_cost(out: DetectionOutput, gt: GroundTruth, s: SupportSequence,
               weights: Weights) -> np.ndarray:
    """(M, G) matching cost: -probability at the ground truth's support
    position, L1 box distance, and GIoU complement. Background-position
    probabilities never enter. Computed on raw values; matching carries no
    gradient."""
    positions = [s.class_ids.index(int(label)) for label in gt.labels]
    probs = out.position_probs.data
    boxes = out.boxes.data
    cost_cls = -probs[:, positions]
    cost_l1 = np.abs(boxes[:, None, :] - gt.boxes[None, :, :]).sum(axis=2)
    cost_giou = 1.0 - giou(boxes[:, None], gt.boxes[None])
    return weights.cls * cost_cls + weights.l1 * cost_l1 + weights.giou * cost_giou


def bce_with_logits(z: Tensor, pos_w: np.ndarray, neg_w: np.ndarray) -> Tensor:
    """Balanced binary cross-entropy from logits as one graph node:
    ``(sum(pos_w * softplus(-z)) + sum(neg_w * softplus(z))) * 0.5``, with
    softplus in the overflow-safe form ``max(x, 0) + log1p(exp(-|x|))``.
    Backward: ``dz = 0.5 g (neg_w sigmoid(z) - pos_w sigmoid(-z))``."""
    if z.shape != pos_w.shape or z.shape != neg_w.shape:
        raise ShapeError(f"bce_with_logits: logits {z.shape}, weights "
                         f"{pos_w.shape} and {neg_w.shape} disagree")
    x = z.data
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    pos = (pos_w * (np.maximum(-x, 0.0) + tail)).sum()
    neg = (neg_w * (np.maximum(x, 0.0) + tail)).sum()

    def backward(g: np.ndarray):
        # sigmoid(x) and sigmoid(-x), both from exp(-|x|) without overflow.
        inv = 1.0 / (1.0 + e)
        nonneg = x >= 0
        sig = np.where(nonneg, 1.0, e) * inv
        sig_neg = np.where(nonneg, e, 1.0) * inv
        half = g * 0.5
        return (half * (neg_w * sig) - half * (pos_w * sig_neg),)

    return Tensor._result(np.asarray((pos + neg) * 0.5), (z,), backward)


def box_loss(boxes: Tensor, q_idx, gt_boxes: np.ndarray, w_l1: float,
             w_giou: float) -> tuple[Tensor, float, float]:
    """Weighted L1 plus GIoU-complement loss of the matched boxes as one
    graph node: the distinct rows ``q_idx`` of ``boxes`` (a repeated index
    raises ShapeError) against the row-aligned ``gt_boxes``, each term
    averaged over the K pairs. Returns the
    ``w_l1 * l1 + w_giou * (1 - giou)`` tensor and its two terms as floats.
    The GIoU reads its corners, intersection and union (and box checks)
    from :func:`fewdet.metrics.giou`'s helper, so each pair's value is
    bit-identical to it. With no pairs both terms are 0 and the result is a
    constant, so ``boxes`` gets no gradient (not a zero one, which would
    still move Adam's moments).

    Hand-derived backward, with the subgradients at ties of the elementwise
    chain it replaces: ``min``/``max`` of a predicted and a target corner
    send the gradient to the prediction, the intersection's clip at 0 passes
    nothing at 0, and ``sign(0) = 0`` in the L1 term.
    """
    idx = np.asarray(q_idx, dtype=np.intp)
    k = idx.size
    if idx.ndim != 1 or gt_boxes.shape != (k, 4) or boxes.ndim != 2 \
            or boxes.shape[1] != 4:
        raise ShapeError(f"box_loss: boxes {boxes.shape}, {k} indices and "
                         f"targets {gt_boxes.shape} do not match")
    if k and (idx.min() < 0 or idx.max() >= boxes.shape[0]):
        raise ShapeError(f"box_loss: row indices out of range for {boxes.shape}")
    if len(set(idx.tolist())) != k:
        raise ShapeError(f"box_loss: repeated row index in {idx.tolist()}")
    if not k:
        return Tensor(0.0), 0.0, 0.0
    inv_k = 1.0 / k
    pred = boxes.data[idx]
    diff = pred - gt_boxes
    box_part = np.abs(diff).sum(axis=1).sum() * inv_k * w_l1

    (lo_p, hi_p), (lo_t, hi_t), inter_wh, inter, union = box_overlap(pred, gt_boxes)
    size_p = hi_p - lo_p
    enclose_wh = np.maximum(hi_p, hi_t) - np.minimum(lo_p, lo_t)
    enclose = enclose_wh[:, 0] * enclose_wh[:, 1]
    giou = inter / union - (enclose - union) / enclose
    giou_part = (1.0 - giou).sum() * inv_k * w_giou

    def backward(g: np.ndarray):
        d_giou = -(g * w_giou * inv_k)
        # giou = inter / union - (enclose - union) / enclose
        d_union = d_giou / enclose - d_giou * inter / (union * union)
        d_enclose = -d_giou * union / (enclose * enclose)
        d_inter = d_giou / union - d_union
        d_overlap = (d_inter[:, None] * inter_wh[:, ::-1]) * (inter_wh > 0.0)
        d_size = d_union[:, None] * size_p[:, ::-1]
        d_enclose_wh = d_enclose[:, None] * enclose_wh[:, ::-1]
        d_hi = d_size + d_overlap * (hi_p <= hi_t) + d_enclose_wh * (hi_p >= hi_t)
        d_lo = -d_size - d_overlap * (lo_p >= lo_t) - d_enclose_wh * (lo_p <= lo_t)
        d_pred = (g * w_l1 * inv_k) * np.sign(diff)
        d_pred[:, :2] += d_lo + d_hi
        d_pred[:, 2:] += (d_hi - d_lo) * 0.5
        d_pred += 0.0  # -0.0 becomes 0.0, as accumulating into zeros gives
        full = np.zeros_like(boxes.data)
        full[idx] = d_pred
        return (full,)

    out = Tensor._result(np.asarray(box_part + giou_part), (boxes,), backward)
    return out, float(box_part), float(giou_part)


def set_loss(out: DetectionOutput, gt: GroundTruth, s: SupportSequence,
             match: tuple[np.ndarray, np.ndarray],
             weights: Weights) -> tuple[Tensor, dict[str, float]]:
    """Classification + localization loss under a fixed matching: ``match``
    is the ``(rows, cols)`` pair of :func:`hungarian_match`, query
    ``rows[k]`` matched to ground truth ``cols[k]``.

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

    q_idx, g_idx = match
    targets = np.zeros((m, n))
    targets[q_idx, [s.class_ids.index(int(gt.labels[g])) for g in g_idx]] = 1.0
    unmatched = np.ones(m, dtype=bool)
    unmatched[q_idx] = False
    targets[unmatched, len(s.class_ids):] = 1.0

    # Positives and negatives are each averaged on their own.
    n_pos = targets.sum()
    n_neg = targets.size - n_pos
    pos_weights = targets / n_pos if n_pos else targets
    neg_weights = (1.0 - targets) / n_neg if n_neg else (1.0 - targets)
    cls_term = weights.cls * bce_with_logits(out.position_logits, pos_weights,
                                             neg_weights)
    box_term, box_part, giou_part = box_loss(out.boxes, q_idx, gt.boxes[g_idx],
                                             weights.l1, weights.giou)
    total = cls_term + box_term
    return total, {"cls": cls_term.item(), "box": box_part, "giou": giou_part}


def decode_detections(out: DetectionOutput, s: SupportSequence,
                      score_threshold: float) -> list[tuple[int, float, np.ndarray]]:
    """Per query: the best class-position probability becomes the score;
    queries at or above the threshold emit (class_id, score, box).
    Placeholder positions never produce detections."""
    if not (0.0 <= score_threshold <= 1.0):
        raise ValueError(f"score threshold must lie in [0, 1], got {score_threshold}")
    if not s.class_ids:
        return []
    probs = out.position_probs.data[:, :len(s.class_ids)]
    best = np.argmax(probs, axis=1)
    scores = probs[np.arange(len(best)), best].tolist()
    boxes = out.boxes.data
    return [(s.class_ids[b], score, boxes[q].copy())
            for q, (b, score) in enumerate(zip(best.tolist(), scores))
            if score >= score_threshold]
