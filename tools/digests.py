"""Bit-identity and numeric-diff evidence: digests of training, evaluation
and inference, and the arrays behind them.

    python3 tools/digests.py > digests.json
    python3 tools/digests.py --values values.npz > digests.json
    python3 tools/digests.py --diff parent.npz change.npz

Runs against the ``fewdet`` sources of the checkout this file sits in and
prints one JSON object. Run it in two checkouts and diff the outputs: a
change that keeps the arithmetic prints the same object. ``--values`` also
saves the arrays each digest is taken over, keyed ``<seed>/<run>/<array>``:
the parameters (``param/``) and Adam moments (``adam_m/``, ``adam_v/``),
the loss history (one row per logged step, its keys in sorted order),
the report's JSON bytes, the two diagnostics and the detections
(``detections/classes``, ``scores`` and ``boxes``). ``--diff`` prints the
largest absolute difference of each array of two such files and exits 1
when one is above 1e-12, when an integer array (the classes, the report
bytes) differs at all, or when an array is missing or changes shape: the
check for a change that reorders arithmetic, where bit identity cannot
hold. Per seed (0, 7 and 104729; the episodes are generated from the same
seed, as ``fewbench`` does):

* for each ablation variant of the default config, after 40 base steps and
  10 fine-tune steps: ``fewbench.checks.state_digest`` of the parameters
  and Adam moments, the sha256 of the per-step loss history and its last
  total, and on the 50 default test episodes the sha256 of
  ``EvalReport.to_json()``, ``bg_dominance_rate`` and ``mean_separation``
  (null where they are NaN, as for the baseline), and the sha256 of its
  detections on test episode 0 at score threshold 0, so every query of
  every single-class pass counts;
* for the +OBD+OOD variant, the sha256 of its run-checkpoint bytes and
  whether saving the checkpoint loaded back from them gives the same bytes;
* the detections of the untrained +OBD+OOD model on test episode 0 at
  score threshold 0;
* a +OBD+OOD model of the ``train_dense`` workload after 10 steps: its
  state digest and the sha256 of its detections on test episode 0.

A full run takes about half a minute on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the benchmark runs, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from fewbench.checks import state_digest  # noqa: E402
from fewbench.workloads import VARIANT, WORKLOADS  # noqa: E402
from fewdet.episodes import generate_episode  # noqa: E402
from fewdet.harness import (EVAL_SCORE_THRESHOLD, evaluate_model,  # noqa: E402
                            load_run_checkpoint, save_run_checkpoint, train_run)
from fewdet.model import (VARIANTS, ablation_variant,  # noqa: E402
                          init_model_state, run_inference)

SEEDS = (0, 7, 104729)
TOLERANCE = 1e-12


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _number(x: float) -> float | None:
    return None if math.isnan(x) else x


def _trained(workload: str, seed: int, variant: str, steps: int,
             fine_tune_steps: int):
    run = WORKLOADS[workload].run_config(seed)
    run = dataclasses.replace(run, training=dataclasses.replace(
        run.training, steps=steps, fine_tune_steps=fine_tune_steps, log_interval=1))
    return run, train_run(run, cfg=ablation_variant(run.resolved_model(), variant))


def _detections(episode, state, cfg, threshold: float) -> dict[str, np.ndarray]:
    dets = run_inference(episode, state, cfg, threshold)
    return {"detections/classes": np.array([c for c, _, _ in dets], dtype=np.int64),
            "detections/scores": np.array([s for _, s, _ in dets]),
            "detections/boxes": np.array([b for _, _, b in dets]).reshape(-1, 4)}


def _detection_digest(arrays: dict[str, np.ndarray]) -> str:
    return _sha256([[c, s, b] for c, s, b in zip(
        arrays["detections/classes"].tolist(), arrays["detections/scores"].tolist(),
        arrays["detections/boxes"].tolist())])


def _state(state, opt) -> dict[str, np.ndarray]:
    return {**{f"param/{n}": t.data for n, t in state.params.items()},
            **{f"adam_m/{n}": a for n, a in opt.first_moment.items()},
            **{f"adam_v/{n}": a for n, a in opt.second_moment.items()}}


def _checkpoint(run, result) -> dict:
    """The sha256 of ``result``'s run-checkpoint bytes, and whether a save of
    the checkpoint loaded from them writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.fdck"), Path(tmp, "second.fdck")
        save_run_checkpoint(first, run, result)
        save_run_checkpoint(second, *load_run_checkpoint(first))
        data = first.read_bytes()
        return {"sha256": hashlib.sha256(data).hexdigest(),
                "resave_identical": second.read_bytes() == data}


def digests(seeds=SEEDS, steps: int = 40, fine_tune_steps: int = 10,
            dense_steps: int = 10, values: dict | None = None) -> dict:
    """The digests object; a ``values`` dict also receives the arrays behind
    them, keyed ``<seed>/<run>/<array>``."""
    def keep(prefix: str, arrays: dict) -> None:
        if values is not None:
            values.update({f"{prefix}/{k}": np.asarray(a) for k, a in arrays.items()})

    out = {"steps": steps, "fine_tune_steps": fine_tune_steps,
           "dense_steps": dense_steps, "seeds": {}}
    for seed in seeds:
        variants = {}
        for variant in VARIANTS:
            run, result = _trained("eval_default", seed, variant, steps,
                                   fine_tune_steps)
            report, diag = evaluate_model(result.state, result.cfg, run)
            report_bytes = report.to_json().encode()
            episode = generate_episode(run.benchmark, 0, "test")
            dets = _detections(episode, result.state, result.cfg, 0.0)
            variants[variant] = {
                "state": state_digest(result.state, result.opt),
                "history": _sha256(result.history),
                "final_loss": result.history[-1]["total"],
                "report": hashlib.sha256(report_bytes).hexdigest(),
                "bg_dominance_rate": _number(diag.bg_dominance_rate),
                "mean_separation": _number(diag.mean_separation),
                "detections": _detection_digest(dets)}
            keep(f"{seed}/{variant}", {
                **_state(result.state, result.opt), **dets,
                "history": [[row[k] for k in sorted(row)] for row in result.history],
                "report": np.frombuffer(report_bytes, dtype=np.uint8),
                "bg_dominance_rate": diag.bg_dominance_rate,
                "mean_separation": diag.mean_separation})
            if variant == VARIANT:
                checkpoint = _checkpoint(run, result)
        cfg = ablation_variant(run.resolved_model(), VARIANT)
        untrained = _detections(episode, init_model_state(cfg), cfg, 0.0)
        keep(f"{seed}/untrained", untrained)
        run, result = _trained("train_dense", seed, VARIANT, dense_steps, 0)
        dense = _detections(generate_episode(run.benchmark, 0, "test"),
                            result.state, result.cfg, EVAL_SCORE_THRESHOLD)
        keep(f"{seed}/dense", {**_state(result.state, result.opt), **dense})
        out["seeds"][str(seed)] = {
            "variants": variants, "checkpoint": checkpoint,
            "untrained_detections": _detection_digest(untrained),
            "dense": {"state": state_digest(result.state, result.opt),
                      "detections": _detection_digest(dense)}}
    return out


def diff(a_path, b_path) -> int:
    """Print the largest absolute difference of each array of two
    ``--values`` files, then a summary line. Returns 1 when an array is in
    one file only, changes shape or dtype, differs by more than
    :data:`TOLERANCE` or, for an integer array, at all; else 0. A NaN matches
    only a NaN."""
    with np.load(a_path) as fa, np.load(b_path) as fb:
        a = {k: fa[k] for k in fa.files}
        b = {k: fb[k] for k in fb.files}
    worst, failed = 0.0, 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{'missing':>10}  {name}: only in {a_path if name in a else b_path}")
            failed += 1
            continue
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype:
            print(f"{'differs':>10}  {name}: {x.dtype}{x.shape} against "
                  f"{y.dtype}{y.shape}")
            failed += 1
            continue
        exact = x.dtype.kind != "f"  # the classes and the report bytes
        x, y = x.astype(float), y.astype(float)
        gap = np.where(np.isnan(x) & np.isnan(y), 0.0, np.abs(x - y))
        gap = float(np.nan_to_num(gap, nan=np.inf, posinf=np.inf).max(initial=0.0))
        bad = gap > (0.0 if exact else TOLERANCE)
        failed += bad
        worst = max(worst, gap)
        print(f"{gap:10.3e}  {name}{'  ABOVE BOUND' if bad else ''}")
    print(f"{len(a.keys() | b.keys())} arrays; max |a - b| {worst:.3e}; "
          f"{failed} fail (bound {TOLERANCE:g}, integer arrays exact)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--values", metavar="OUT.npz",
                      help="also save the arrays behind the digests")
    mode.add_argument("--diff", nargs=2, metavar=("A.npz", "B.npz"),
                      help="compare two --values files instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    values = {} if args.values else None
    print(json.dumps(digests(values=values), indent=1, sort_keys=True))
    if args.values:
        np.savez(args.values, **values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
