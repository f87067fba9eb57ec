"""Tests of the benchmark itself, on a tiny model so they run in seconds."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fewdet.model
from fewdet.metrics import Detection, GtRecord, IOU_THRESHOLDS, evaluate_detections

from fewbench import checks, tracing
from fewbench.workloads import REFERENCE_S, Samples, Session, Workload, end_to_end

TINY = Workload(
    name="tiny",
    benchmark={"class_count": 2, "shots": 3, "capacity": 3, "grid_rows": 4,
               "grid_cols": 4, "feature_dim": 8, "objects_min": 1,
               "objects_max": 2},
    model={"d": 8, "heads": 2, "encoder_layers": 1, "decoder_layers": 1,
           "num_object_queries": 4, "n_max": 3},
    training={"eval_episodes": 2},
    primary="step", steps=12, ckpts=1, infers=2, from_checkpoint=False)
TINY_EVAL = dataclasses.replace(TINY, primary="sweep", from_checkpoint=True)

EXACT = ("tensor.graph_nodes", "tensor.ops", "set_head.lsa_calls",
         "set_head.lsa_per_match", "metrics.iou_calls", "optim.param_tensors",
         "harness.forwards_per_episode", "checkpoint.bytes", "model.heads_nodes")


def one_cycle(workload, tmp_path, tracer=None, seed=3):
    """A session of exactly one cycle: its deadline has passed at once."""
    workdir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return Session(workload, seed, workdir, tracer).run(0.0)


@pytest.mark.parametrize("workload", [TINY, TINY_EVAL], ids=["train", "eval"])
def test_clean_run_passes_every_check(workload, tmp_path):
    samples = one_cycle(workload, tmp_path)
    assert samples.failed == 0, samples.failures
    assert len(samples.step) == workload.steps
    metrics = end_to_end(samples, 1.0)
    assert all(v > 0 for v, _ in metrics.values()), metrics


def test_timings_are_scaled_by_the_reference_runs_around_them():
    samples = Samples()
    samples.probe.append(REFERENCE_S)
    samples.add("step", 0.010)
    samples.probe.append(3 * REFERENCE_S)
    samples.add("step", 0.030)
    assert samples.scaled("step") == pytest.approx([0.010 / 2, 0.030 / 3])
    assert samples.step == [0.010, 0.030]


def test_non_finite_loss_is_counted_as_failed(tmp_path, monkeypatch):
    real = fewdet.model.train_step
    calls = []

    def broken(*args):
        breakdown = real(*args)
        calls.append(1)
        if len(calls) == 5:
            breakdown.cls = float("nan")
        return breakdown

    monkeypatch.setattr(fewdet.model, "train_step", broken)
    samples = one_cycle(TINY, tmp_path)
    assert samples.failed == 1
    assert "non-finite" in samples.failures[0]
    assert len(samples.step) == TINY.steps - 1


def test_corrupted_detection_is_counted_as_failed(tmp_path, monkeypatch):
    real = fewdet.model.run_inference

    def corrupt(*args):
        dets = real(*args)
        class_id, _, box = dets[0]
        return [(class_id, 1.5, box)] + dets[1:]

    monkeypatch.setattr(fewdet.model, "run_inference", corrupt)
    samples = one_cycle(TINY, tmp_path)
    assert samples.failed >= TINY.infers
    assert any("outside [0, 1]" in f for f in samples.failures)
    assert samples.infer == []


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        assert one_cycle(TINY, tmp_path, tracer).failed == 0
        runs.append(tracing.layer_metrics(tracer, TINY.primary))
    for name in EXACT:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["tensor.graph_nodes"][0] > 0
    assert runs[0]["set_head.lsa_calls"][0] > 0
    assert runs[0]["harness.forwards_per_episode"][0] == 2.0


@pytest.mark.parametrize("workload", [TINY, TINY_EVAL], ids=["train", "eval"])
def test_every_layer_metric_is_reported_and_never_zero(workload, tmp_path):
    """Layers that run only in a train step are counted per step on the
    eval workload too (its fine-tune steps), so no metric is a structural 0."""
    tracer = tracing.Tracer()
    one_cycle(workload, tmp_path, tracer)
    metrics = tracing.layer_metrics(tracer, workload.primary)
    expected = ({m for m, *_ in tracing.TIME_METRICS}
                | {m for m, _ in tracing.NODE_METRICS})
    assert expected <= set(metrics)
    assert all(value > 0 for value, _ in metrics.values()), metrics


@pytest.mark.parametrize("workload", [TINY, TINY_EVAL], ids=["train", "eval"])
def test_child_self_time_never_exceeds_parent(workload, tmp_path):
    tracer = tracing.Tracer()
    one_cycle(workload, tmp_path, tracer)
    spans = tracer.spans
    assert spans
    nested = 0
    for span in spans:
        assert span.self_time >= 0.0
        if span.parent is None:
            continue
        parent = spans[span.parent]
        nested += 1
        assert parent.start <= span.start <= span.end <= parent.end
        assert span.self_time <= parent.duration
        assert span.unit == parent.unit
    assert nested > 0


def test_wrapped_names_are_restored(tmp_path):
    before = tracing.site_objects()
    one_cycle(TINY, tmp_path)
    after_untraced = tracing.site_objects()
    one_cycle(TINY, tmp_path, tracing.Tracer())
    after_traced = tracing.site_objects()
    for key, obj in before.items():
        assert after_untraced[key] is obj, key
        assert after_traced[key] is obj, key


def test_wrapped_names_are_restored_when_the_run_raises(tmp_path, monkeypatch):
    before = tracing.site_objects()

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("fewbench.workloads.Session._sweep", boom)
    with pytest.raises(RuntimeError):
        one_cycle(TINY, tmp_path, tracing.Tracer())
    assert all(tracing.site_objects()[k] is v for k, v in before.items())


def _random_eval(rng, episodes=4, classes=(4, 5, 6)):
    dets, gts = [], []
    for ep in range(episodes):
        for _ in range(int(rng.integers(0, 4))):
            gts.append(GtRecord(ep, int(rng.choice(classes)),
                                np.r_[rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.4, 2)]))
        for _ in range(int(rng.integers(0, 6))):
            # Coarse scores so that ties in score order occur.
            score = float(rng.integers(0, 5)) / 4
            if gts and rng.random() < 0.5:
                box = gts[int(rng.integers(len(gts)))].box + rng.normal(0, 0.03, 4)
                box[2:] = np.abs(box[2:]) + 0.01
            else:
                box = np.r_[rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.4, 2)]
            dets.append(Detection(ep, int(rng.choice(classes)), score, box))
    return dets, gts


@pytest.mark.parametrize("seed", range(25))
def test_oracle_agrees_with_evaluate_detections(seed):
    rng = np.random.default_rng(seed)
    dets, gts = _random_eval(rng)
    assert checks.evaluation_oracle(dets, gts, [4, 5, 6], 4) is None
    if gts:
        assert checks.perfect_detections(gts, [4, 5, 6], 4) is None


def test_oracle_catches_a_wrong_report():
    dets, gts = _random_eval(np.random.default_rng(7), episodes=6)
    report = evaluate_detections(dets, gts, [4, 5, 6], 6)
    present, ap, confusion = checks.oracle_report(dets, gts, [4, 5, 6],
                                                  [float(t) for t in IOU_THRESHOLDS])
    assert checks.compare_reports(report, present, ap, confusion) is None
    report.ap[0, 0] += 1e-9
    assert "AP differs" in checks.compare_reports(report, present, ap, confusion)
    report.ap[0, 0] -= 1e-9
    report.confusion[0, 0] += 1
    assert "confusion" in checks.compare_reports(report, present, ap, confusion)


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero and prints no result."""
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "fewbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "fewbench/run.py", "--workload", "train_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
