"""Bit-identity evidence: digests of training, evaluation and inference.

    python3 tools/digests.py > digests.json

Runs against the ``fewdet`` sources of the checkout this file sits in and
prints one JSON object. Run it in two checkouts and diff the outputs: a
change that keeps the arithmetic prints the same object. Per seed (0, 7 and
104729; the episodes are generated from the same seed, as ``fewbench`` does):

* for each ablation variant of the default config, after 40 base steps and
  10 fine-tune steps: ``fewbench.checks.state_digest`` of the parameters
  and Adam moments, the sha256 of the per-step loss history and its last
  total, and on the 50 default test episodes the sha256 of
  ``EvalReport.to_json()``, ``bg_dominance_rate`` and ``mean_separation``
  (null where they are NaN, as for the baseline);
* for the +OBD+OOD variant, the sha256 of its run-checkpoint bytes and
  whether saving the checkpoint loaded back from them gives the same bytes;
* for the baseline variant, the sha256 of its detections on test episode 0
  at score threshold 0, so every query of every single-class pass counts;
* a +OBD+OOD model of the ``train_dense`` workload after 10 steps: its
  state digest and the sha256 of its detections on test episode 0.

A full run takes about half a minute on one core.
"""

from __future__ import annotations

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

from fewbench.checks import state_digest  # noqa: E402
from fewbench.workloads import VARIANT, WORKLOADS  # noqa: E402
from fewdet.episodes import generate_episode  # noqa: E402
from fewdet.harness import (EVAL_SCORE_THRESHOLD, evaluate_model,  # noqa: E402
                            load_run_checkpoint, save_run_checkpoint, train_run)
from fewdet.model import VARIANTS, ablation_variant, run_inference  # noqa: E402

SEEDS = (0, 7, 104729)


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


def _detections(episode, result, threshold: float) -> str:
    dets = run_inference(episode, result.state, result.cfg, threshold)
    return _sha256([[c, s, b.tolist()] for c, s, b in dets])


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
            dense_steps: int = 10) -> dict:
    out = {"steps": steps, "fine_tune_steps": fine_tune_steps,
           "dense_steps": dense_steps, "seeds": {}}
    for seed in seeds:
        variants = {}
        for variant in VARIANTS:
            run, result = _trained("eval_default", seed, variant, steps,
                                   fine_tune_steps)
            report, diag = evaluate_model(result.state, result.cfg, run)
            variants[variant] = {
                "state": state_digest(result.state, result.opt),
                "history": _sha256(result.history),
                "final_loss": result.history[-1]["total"],
                "report": hashlib.sha256(report.to_json().encode()).hexdigest(),
                "bg_dominance_rate": _number(diag.bg_dominance_rate),
                "mean_separation": _number(diag.mean_separation)}
            if variant == VARIANT:
                checkpoint = _checkpoint(run, result)
            if variant == "baseline":
                baseline = _detections(generate_episode(run.benchmark, 0, "test"),
                                       result, 0.0)
        run, result = _trained("train_dense", seed, VARIANT, dense_steps, 0)
        episode = generate_episode(run.benchmark, 0, "test")
        out["seeds"][str(seed)] = {
            "variants": variants, "checkpoint": checkpoint,
            "baseline_detections": baseline,
            "dense": {"state": state_digest(result.state, result.opt),
                      "detections": _detections(episode, result, EVAL_SCORE_THRESHOLD)}}
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
