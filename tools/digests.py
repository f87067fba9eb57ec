"""The numerics gate: save what training, evaluation and inference produce,
and compare two saves.

    python3 tools/digests.py OUT.npz
    python3 tools/digests.py --diff A.npz B.npz

Runs against the ``fewdet`` sources of the checkout this file sits in and
builds its own run configs. Run it in two checkouts and diff the saves.
Per seed (0, 7 and 104729; the episodes are generated from the same seed)
it saves each result once, as an array keyed ``<seed>/<run>/<array>``:

* for each ablation variant of the default run config, after 40 base steps
  and 10 fine-tune steps: the parameters (``param/<name>``) and Adam
  moments (``adam_m/``, ``adam_v/``, one array for every parameter, all
  zeros for one that never had a gradient, such as the baseline's
  ``obd.background_token``); the loss history (``history``, one row per
  step, its keys in sorted order); on the 50 default test episodes
  the ``EvalReport.to_json()`` bytes (``report``), ``bg_dominance_rate``
  and ``mean_separation`` (NaN for the baseline); and the detections on
  test episode 0 at score threshold 0, so every query of every
  single-class pass counts (``detections/classes``, ``scores``, ``boxes``);
* for ``+OBD+OOD``, the config record of its run checkpoint as bytes
  (``record``); the checkpoint's float buffers are the arrays above. The
  run fails when a save of the checkpoint loaded back writes other bytes;
* ``untrained``: the detections of the untrained ``+OBD+OOD`` model;
* ``dense``: a ``+OBD+OOD`` model on a 16x16 grid with 8-12 objects and
  the default model config, after 10 steps: its parameters, Adam moments
  and detections;
* ``matching``: the ``EvalReport.to_json()`` bytes (``report``) of a
  seeded synthetic detection set on the ground truths of the 50 default
  test episodes, some of them with a relabelled twin: jittered copies of
  each ground truth from near-exact to barely overlapping, a copy at an
  IoU of exactly 0.5 or 0.75, class swaps, exact copies and duplicates,
  and stray boxes, with scores from a short list so that they tie. The
  trained models above overlap few ground truths; this set walks the
  matcher through every threshold of the band and its tie rules.

``--diff`` prints each array of two saves as ``identical`` (same dtype,
shape and bytes) or with its largest |a - b|, and exits 1 when an array is
in one save only, changes dtype or shape, is an integer array (detection
classes, report and record bytes) that changed at all, holds a NaN or inf
where the other save holds a number, or is a ``param/`` or ``detections/``
array more than 1e-12 away. The bound binds those two only: loss
histories, Adam moments and diagnostics carry more rounding than the
parameters they produce (a reordered sum moved a loss of 6.21 by 2.4e-12
and no parameter by more than 7.1e-15), so they are printed, never failed.

A full run takes about six seconds on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the benchmark runs, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from fewdet.config import RunConfig, TrainingConfig  # noqa: E402
from fewdet.episodes import BenchmarkSpec, generate_episode  # noqa: E402
from fewdet.harness import (checkpoint_payload, evaluate_model,  # noqa: E402
                            load_run_checkpoint, save_run_checkpoint, train_run)
from fewdet.metrics import Detection, GtRecord, evaluate_detections  # noqa: E402
from fewdet.model import (VARIANTS, ablation_variant,  # noqa: E402
                          init_model_state, run_inference)

SEEDS = (0, 7, 104729)
VARIANT = "+OBD+OOD"
DENSE = {"grid_rows": 16, "grid_cols": 16, "objects_min": 8, "objects_max": 12}
BOUND = 1e-12
BOUND_ARRAYS = ("param/", "detections/")


def _trained(seed: int, variant: str, steps: int, fine_tune_steps: int,
             **benchmark):
    run = RunConfig(seed=seed, benchmark=BenchmarkSpec(seed=seed, **benchmark),
                    training=TrainingConfig(steps=steps, fine_tune_steps=fine_tune_steps,
                                            log_interval=1))
    return run, train_run(run, cfg=ablation_variant(run.resolved_model(), variant))


def _detections(run, state, cfg) -> dict[str, np.ndarray]:
    dets = run_inference(generate_episode(run.benchmark, 0, "test"), state, cfg, 0.0)
    return {"detections/classes": np.array([c for c, _, _ in dets], dtype=np.int64),
            "detections/scores": np.array([s for _, s, _ in dets]),
            "detections/boxes": np.array([b for _, _, b in dets]).reshape(-1, 4)}


def _state(result) -> dict[str, np.ndarray]:
    return {**{f"param/{n}": t.data for n, t in result.state.params.items()},
            **{f"adam_m/{n}": a for n, a in result.opt.first_moment.items()},
            **{f"adam_v/{n}": a for n, a in result.opt.second_moment.items()}}


def _record(run, result) -> np.ndarray:
    """The config record of ``result``'s run checkpoint as bytes; exits when
    a save of the checkpoint loaded back writes other bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.fdck"), Path(tmp, "second.fdck")
        save_run_checkpoint(first, run, result)
        save_run_checkpoint(second, *load_run_checkpoint(first))
        if second.read_bytes() != first.read_bytes():
            raise SystemExit(f"seed {run.seed}: a save of the loaded run "
                             f"checkpoint writes other bytes")
    record = json.dumps(checkpoint_payload(run, result)[0], sort_keys=True)
    return np.frombuffer(record.encode(), dtype=np.uint8)


def _matching_report(seed: int) -> np.ndarray:
    """The report bytes of the synthetic detection set on the default test
    episodes of ``seed`` (see the module docstring)."""
    run = RunConfig(seed=seed, benchmark=BenchmarkSpec(seed=seed))
    t = run.training
    episodes = [generate_episode(run.benchmark, t.eval_start_index + i, "test")
                for i in range(t.eval_episodes)]
    rng = np.random.default_rng([seed, 1])
    scores = (0.2, 0.4, 0.4, 0.6, 0.8, 0.8, 0.9)
    class_ids = list(episodes[0].class_ids)
    dets, gts = [], []
    for ep in episodes:
        for box, label in zip(ep.boxes, ep.labels):
            gts.append(GtRecord(ep.index, int(label), box.copy()))
            if rng.random() < 0.15:  # a relabelled twin: exact IoU ties
                gts.append(GtRecord(ep.index, int(rng.choice(class_ids)), box.copy()))
            # Boxes sit on a 1/16 grid, so a copy narrowed by 1/2 or 3/4
            # about its centre has an IoU of exactly 0.5 or 0.75.
            narrowed = box * [1, 1, rng.choice([0.5, 0.75]), 1]
            copies = [box.copy()] * int(rng.integers(0, 3)) + [narrowed]
            for spread in (0.05, 0.15, 0.3, 0.5):
                shift = rng.uniform(-spread, spread, 2) * box[2:]
                scale = np.exp(rng.uniform(-spread, spread, 2))
                copies.append(np.concatenate([box[:2] + shift, box[2:] * scale]))
            for copy in copies:
                label_of = int(rng.choice(class_ids)) if rng.random() < 0.2 else int(label)
                score = float(rng.choice(scores))
                dets += [Detection(ep.index, label_of, score, copy)] * (
                    1 + int(rng.random() < 0.1))
        for _ in range(int(rng.integers(0, 4))):
            dets.append(Detection(ep.index, int(rng.choice(class_ids)),
                                  float(rng.choice(scores)),
                                  np.concatenate([rng.uniform(0, 1, 2),
                                                  rng.uniform(0.1, 0.4, 2)])))
    report = evaluate_detections(dets, gts, class_ids, len(episodes))
    return np.frombuffer(report.to_json().encode(), dtype=np.uint8)


def results(seeds=SEEDS, steps: int = 40, fine_tune_steps: int = 10,
            dense_steps: int = 10) -> dict[str, np.ndarray]:
    """Every array the gate compares, keyed ``<seed>/<run>/<array>``."""
    out: dict[str, np.ndarray] = {}

    def keep(prefix: str, arrays: dict) -> None:
        out.update({f"{prefix}/{k}": np.asarray(a) for k, a in arrays.items()})

    for seed in seeds:
        for variant in VARIANTS:
            run, result = _trained(seed, variant, steps, fine_tune_steps)
            report, diag = evaluate_model(result.state, result.cfg, run)
            keep(f"{seed}/{variant}", {
                **_state(result), **_detections(run, result.state, result.cfg),
                "history": [[row[k] for k in sorted(row)] for row in result.history],
                "report": np.frombuffer(report.to_json().encode(), dtype=np.uint8),
                "bg_dominance_rate": diag.bg_dominance_rate,
                "mean_separation": diag.mean_separation})
            if variant == VARIANT:
                keep(f"{seed}/{variant}", {"record": _record(run, result)})
        cfg = ablation_variant(run.resolved_model(), VARIANT)
        keep(f"{seed}/untrained", _detections(run, init_model_state(cfg), cfg))
        run, result = _trained(seed, VARIANT, dense_steps, 0, **DENSE)
        keep(f"{seed}/dense", {**_state(result),
                               **_detections(run, result.state, result.cfg)})
        keep(f"{seed}/matching", {"report": _matching_report(seed)})
    return out


def diff(a_path, b_path) -> int:
    """Print each array of two saves as ``identical`` or with its largest
    |a - b|, then a summary line. Returns 1 when an array fails (see the
    module docstring), else 0. A NaN matches only a NaN."""
    with np.load(a_path) as fa, np.load(b_path) as fb:
        a = {k: fa[k] for k in fa.files}
        b = {k: fb[k] for k in fb.files}
    names = sorted(a.keys() | b.keys())
    identical = failed = 0
    for name in names:
        x, y = a.get(name), b.get(name)
        if x is None or y is None:
            status, bad = f"missing: only in {a_path if y is None else b_path}", True
        elif (x.dtype, x.shape) != (y.dtype, y.shape):
            status, bad = f"{x.dtype}{x.shape} against {y.dtype}{y.shape}", True
        elif x.tobytes() == y.tobytes():
            status, bad = "identical", False
            identical += 1
        else:
            exact = x.dtype.kind != "f"  # the classes, the report and record bytes
            x, y = x.astype(float), y.astype(float)
            finite = np.isfinite(x) & np.isfinite(y)
            gap = float(np.abs(x - y)[finite].max(initial=0.0))
            nonfinite = not np.array_equal(x[~finite], y[~finite], equal_nan=True)
            status = "NaN or inf" if nonfinite else f"{gap:.3e}"
            bad = (exact or nonfinite
                   or (gap > BOUND and name.split("/", 2)[-1].startswith(BOUND_ARRAYS)))
        failed += bad
        print(f"{status:>10}  {name}{'  FAILS' if bad else ''}")
    print(f"{len(names)} arrays, {identical} identical; {failed} fail (param/ and "
          f"detections/ within {BOUND:g}, integer arrays exact)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", metavar="OUT.npz", help="save the results")
    parser.add_argument("--diff", nargs=2, metavar=("A.npz", "B.npz"),
                        help="compare two saves instead of running")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.diff is None):
        parser.error("give OUT.npz or --diff A.npz B.npz")
    if args.diff:
        return diff(*args.diff)
    arrays = results()
    np.savez(args.out, **arrays)
    print(f"{len(arrays)} arrays saved to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
