"""Output checks. None of them runs inside a timed region.

Each check returns an error message, or ``None`` when the output is right.
The AP / confusion oracle is the benchmark's own vectorised implementation
of the COCO-style rules in :mod:`fewdet.metrics`; it shares no code with
them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from fewdet import model as fd_model
from fewdet.metrics import Detection, GtRecord, evaluate_detections
from fewdet.set_head import GroundTruth
from fewdet.tensor import no_grad

ORACLE_TOLERANCE = 1e-12

# Gradient spot check: sampled coordinates, central-difference step, and the
# relative tolerance, taken against |numeric| + GRAD_FLOOR.
GRAD_COORDINATES = 6
GRAD_H = 1e-6
GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-2


def loss_parts(breakdown) -> str | None:
    parts = breakdown.as_dict()
    bad = {k: v for k, v in parts.items() if not math.isfinite(v)}
    return f"non-finite loss parts {bad}" if bad else None


def state_digest(state, opt) -> str:
    """SHA-256 over every parameter and Adam moment, by name."""
    h = hashlib.sha256()
    for prefix, arrays in (("p", {n: t.data for n, t in state.params.items()}),
                           ("m", opt.first_moment), ("v", opt.second_moment)):
        for name in sorted(arrays):
            h.update(f"{prefix}.{name}".encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
    h.update(str(opt.step_count).encode())
    return h.hexdigest()


def checkpoint_roundtrip(state, opt, loaded) -> str | None:
    """Params and both Adam moments restored bit for bit."""
    if loaded.opt.step_count != opt.step_count:
        return f"step_count {loaded.opt.step_count} != {opt.step_count}"
    pairs = [("param", {n: t.data for n, t in state.params.items()},
              {n: t.data for n, t in loaded.state.params.items()}),
             ("adam.m", opt.first_moment, loaded.opt.first_moment),
             ("adam.v", opt.second_moment, loaded.opt.second_moment)]
    for kind, want, got in pairs:
        if set(want) != set(got):
            return f"{kind} names differ after round trip"
        for name, arr in want.items():
            if got[name].shape != arr.shape or got[name].tobytes() != arr.tobytes():
                return f"{kind} '{name}' differs after round trip"
    return None


def detections(dets, episode, num_queries: int) -> str | None:
    """One detection per object query, scores in [0, 1], known classes."""
    if len(dets) != num_queries:
        return f"episode {episode.index}: {len(dets)} detections, want {num_queries}"
    for class_id, score, box in dets:
        if not (math.isfinite(score) and 0.0 <= score <= 1.0):
            return f"episode {episode.index}: score {score} outside [0, 1]"
        if class_id not in episode.class_ids:
            return f"episode {episode.index}: unknown class {class_id}"
        if np.shape(box) != (4,) or not np.isfinite(box).all():
            return f"episode {episode.index}: bad box {box}"
    return None


def gradient_spot_check(episode, state, cfg, rng: np.random.Generator) -> str | None:
    """Reverse-mode versus central-difference gradient of the training loss
    at a few sampled parameter coordinates. The matching is frozen at the
    base point, because the loss is piecewise in it."""
    for p in state.params.values():
        p.grad = None
    loss, _, diag = fd_model.compute_loss(episode, state, cfg)
    loss.backward()
    match, class_ids = diag["match"], diag["sequence"].class_ids
    gt = GroundTruth(boxes=episode.boxes, labels=episode.labels)

    def loss_value() -> float:
        with no_grad():
            out, feats, d2 = fd_model.forward(episode, state, cfg)
            total, _ = fd_model.set_loss(out, gt, d2["sequence"], match, cfg.weights)
            if cfg.ood_weight > 0 and feats.class_count >= 1:
                total = total + cfg.ood_weight * fd_model.infonce_loss(
                    feats, state.class_space(), class_ids)
        return total.item()

    names = sorted(n for n, p in state.params.items()
                   if p.grad is not None and np.any(p.grad))
    errors = []
    for _ in range(GRAD_COORDINATES):
        name = names[int(rng.integers(len(names)))]
        param = state.params[name]
        flat = param.data.reshape(-1)
        nonzero = np.flatnonzero(param.grad)
        i = int(nonzero[rng.integers(len(nonzero))])
        analytic = float(param.grad.reshape(-1)[i])
        original = flat[i]
        flat[i] = original + GRAD_H
        plus = loss_value()
        flat[i] = original - GRAD_H
        minus = loss_value()
        flat[i] = original
        numeric = (plus - minus) / (2.0 * GRAD_H)
        err = abs(analytic - numeric) / (abs(numeric) + GRAD_FLOOR)
        if not err <= GRAD_RTOL:
            errors.append(f"{name}[{i}]: reverse {analytic:.6e} vs "
                          f"central {numeric:.6e}")
    for p in state.params.values():
        p.grad = None
    return "; ".join(errors) or None


# -- evaluation oracle --------------------------------------------------------------


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (cx, cy, w, h) boxes, with the same arithmetic as the
    scalar IoU so that equal inputs give equal bits."""
    def corners(x):
        cx, cy, w, h = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2

    ax1, ay1, ax2, ay2 = (c[:, None] for c in corners(a))
    bx1, by1, bx2, by2 = (c[None, :] for c in corners(b))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _greedy(dets: list[Detection], gts: list[GtRecord], threshold: float):
    """Score-ordered greedy matching. Yields (detection index, matched gt
    index or -1): each detection takes its best-IoU unused ground truth of
    the same episode, and keeps it only at IoU >= threshold."""
    order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
    if not gts:
        for di in order:
            yield int(di), -1
        return
    ious = _iou_matrix(np.array([d.box for d in dets]).reshape(-1, 4),
                       np.array([g.box for g in gts]).reshape(-1, 4))
    det_ep = np.array([d.episode_id for d in dets])
    gt_ep = np.array([g.episode_id for g in gts])
    ious[det_ep[:, None] != gt_ep[None, :]] = 0.0
    used = np.zeros(len(gts), dtype=bool)
    for di in order:
        row = np.where(used, 0.0, ious[di])
        best = int(np.argmax(row))
        if row[best] > 0.0 and row[best] >= threshold:
            used[best] = True
            yield int(di), best
        else:
            yield int(di), -1


def _average_precision(dets, gts, threshold: float) -> float:
    if not dets or not gts:
        return 0.0
    tp = np.array([g >= 0 for _, g in _greedy(dets, gts, threshold)], dtype=float)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / len(gts)
    precision = cum_tp / (cum_tp + cum_fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    return float(envelope[idx[idx < len(envelope)]].sum() / 101)


def oracle_report(dets, gts, class_ids, thresholds):
    """(present class ids, AP matrix, confusion counts at IoU 0.5)."""
    present = [c for c in class_ids if any(g.class_id == c for g in gts)]
    ap = np.array([[_average_precision([d for d in dets if d.class_id == c],
                                       [g for g in gts if g.class_id == c], t)
                    for t in thresholds] for c in present]).reshape(len(present),
                                                                    len(thresholds))
    index = {c: i for i, c in enumerate(class_ids)}
    bg = len(class_ids)
    confusion = np.zeros((bg + 1, bg + 1), dtype=np.int64)
    used = np.zeros(len(gts), dtype=bool)
    for di, gi in _greedy(dets, gts, 0.5):
        if gi >= 0:
            used[gi] = True
            confusion[index[gts[gi].class_id], index[dets[di].class_id]] += 1
        else:
            confusion[bg, index[dets[di].class_id]] += 1
    for gi in np.flatnonzero(~used):
        confusion[index[gts[gi].class_id], bg] += 1
    return present, ap, confusion


def compare_reports(report, present, ap, confusion) -> str | None:
    if list(report.class_ids) != list(present):
        return f"AP classes {report.class_ids} != oracle {present}"
    if report.ap.shape != ap.shape:
        return f"AP shape {report.ap.shape} != oracle {ap.shape}"
    diff = float(np.max(np.abs(report.ap - ap))) if ap.size else 0.0
    if not diff <= ORACLE_TOLERANCE:
        return f"AP differs from the oracle by {diff:.3e}"
    if not np.array_equal(report.confusion, confusion):
        return "confusion matrix differs from the oracle"
    return None


def evaluation_oracle(dets, gts, class_ids, episode_count: int,
                      sweep_report=None) -> str | None:
    """``evaluate_detections`` against the oracle, and the sweep's report
    (same model, same episodes) against both."""
    report = evaluate_detections(dets, gts, class_ids, episode_count)
    present, ap, confusion = oracle_report(dets, gts, class_ids, report.thresholds)
    error = compare_reports(report, present, ap, confusion)
    if error is None and sweep_report is not None:
        error = compare_reports(sweep_report, present, ap, confusion)
        if error is not None:
            error = f"evaluate_model sweep: {error}"
    return error


def perfect_detections(gts, class_ids, episode_count: int) -> str | None:
    """Ground truths fed back as detections must score mAP = 1.0."""
    dets = [Detection(g.episode_id, g.class_id, 1.0, g.box) for g in gts]
    report = evaluate_detections(dets, gts, class_ids, episode_count)
    if report.map_50 != 1.0 or report.map_band != 1.0:
        return (f"ground truth as detections scores mAP@0.5 {report.map_50}, "
                f"mAP@[0.5:0.95] {report.map_band}")
    return None
