import dataclasses
import io
import json

import numpy as np
import pytest

from fewdet.config import RunConfig, TrainingConfig, run_config_from_dict
from fewdet.harness import (VariantOutcome, ablation_summary, ablation_table,
                            evaluate_model, run_ablation, train_run)
from fewdet.model import ablation_variant


def fast_run(**training_kw):
    training = dict(steps=6, fine_tune_steps=3, fine_tune_episodes=2,
                    eval_episodes=3, log_interval=2)
    training.update(training_kw)
    return run_config_from_dict({
        "benchmark": {"class_count": 2, "shots": 3, "capacity": 3,
                      "grid_rows": 4, "grid_cols": 4, "feature_dim": 8,
                      "objects_min": 1, "objects_max": 2},
        "model": {"d": 8, "heads": 2, "encoder_layers": 1, "decoder_layers": 1,
                  "num_object_queries": 4},
        "training": training,
    })


def test_train_run_logs_jsonl_rows():
    run = fast_run()
    buf = io.StringIO()
    result = train_run(run, log_fh=buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert result.steps_done == 9
    assert rows[0]["step"] == 0
    assert {"cls", "box", "giou", "ood", "total"} <= set(rows[0])


def test_train_run_deterministic():
    a = train_run(fast_run())
    b = train_run(fast_run())
    for name in a.state.names():
        np.testing.assert_array_equal(a.state.params[name].data,
                                      b.state.params[name].data)


def test_evaluate_model_counts():
    run = fast_run()
    result = train_run(run)
    report, diag = evaluate_model(result.state, result.cfg, run)
    assert report.episode_count == 3
    assert report.detection_count == 3 * run.model.num_object_queries
    assert diag.episodes_with_diag <= 3


def test_single_class_evaluation_merges_classes():
    run = fast_run()
    cfg = ablation_variant(run.resolved_model(), "baseline")
    result = train_run(run, cfg=cfg)
    report, diag = evaluate_model(result.state, cfg, run)
    # one forward per class -> M detections per class per episode
    assert report.detection_count == 3 * 2 * run.model.num_object_queries
    assert diag.episodes_with_diag == 0  # no background diagnostics at N=1


def test_ablation_covers_variants_and_seeds():
    run = dataclasses.replace(fast_run(), ablate_seeds=(0, 1))
    outcomes = run_ablation(run)
    assert len(outcomes) == 6
    assert {o.variant for o in outcomes} == {"baseline", "+OBD", "+OBD+OOD"}
    summary = ablation_summary(outcomes)
    json.dumps(summary)  # strictly serializable (no NaN)
    assert ablation_table(summary).count("\n") == 3


def test_ablation_table_prints_null_means_as_nan():
    nan = float("nan")
    outcomes = [VariantOutcome("baseline", 0, 0.125, 0.0625, nan, nan, 1.0),
                VariantOutcome("baseline", 1, 0.25, 0.03125, nan, nan, 1.0),
                VariantOutcome("+OBD", 0, 0.5, 0.2, 0.75, 0.125, 1.0),
                VariantOutcome("+OBD", 1, 0.0, 0.1, nan, 0.5, 1.0),
                VariantOutcome("+OBD+OOD", 0, 1.0, 0.333333, 0.4, 1.25, 1.0)]
    assert ablation_table(ablation_summary(outcomes)) == (
        "variant         mAP@0.5   mAP@[0.5:0.95]  bg-dominance  separation\n"
        "baseline         0.1875           0.0469           nan         nan\n"
        "+OBD             0.2500           0.1500         0.750      0.3125\n"
        "+OBD+OOD         1.0000           0.3333         0.400      1.2500")


def test_overfit_mode_reuses_one_episode():
    run = fast_run(steps=4, fine_tune_steps=0, overfit_episode=7)
    result = train_run(run)
    assert result.steps_done == 4
