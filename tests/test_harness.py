import dataclasses
import io
import json

import numpy as np
import pytest

from fewdet.config import RunConfig, TrainingConfig, run_config_from_dict
from fewdet.episodes import BenchmarkSpec, generate_episode
from fewdet.errors import NumericError
from fewdet.harness import (EvalDiagnostics, VariantOutcome, ablation_summary,
                            ablation_table, evaluate_model, load_run_checkpoint,
                            run_ablation, save_run_checkpoint, train_run)
from fewdet.model import (ablation_variant, forward, init_model_state, train_step,
                          training_episode, zero_model_state)
from fewdet.obd import background_attention_mass, head_average
from fewdet.ood import min_interclass_separation
from fewdet.optim import AdamState
from fewdet.tensor import no_grad


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


def _diagnostics_episode_by_episode(state, cfg, episodes) -> EvalDiagnostics:
    """The reference: each episode's diagnostics from the 2-D helper calls,
    in episode order."""
    diag = EvalDiagnostics()
    for ep in episodes:
        with no_grad():
            _, feats, fdiag = forward(ep, state, cfg, detect=False)
        mask = ep.object_patch_mask()
        mass = background_attention_mass(head_average(fdiag["query_attention"]),
                                         fdiag["sequence"])
        if mask.any() and (~mask).any():
            diag.episodes_with_diag += 1
            if mass[~mask].mean() > mass[mask].mean():
                diag.episodes_bg_dominant += 1
        if feats.class_count >= 2:
            diag.separations.append(min_interclass_separation(feats))
    return diag


def _assert_same_diagnostics(got: EvalDiagnostics, want: EvalDiagnostics):
    assert (got.episodes_with_diag, got.episodes_bg_dominant) == (
        want.episodes_with_diag, want.episodes_bg_dominant)
    assert [s.hex() for s in got.separations] == [s.hex() for s in want.separations]
    assert got.mean_separation.hex() == want.mean_separation.hex()


@pytest.mark.parametrize("steps", [0, 20], ids=["untrained", "20-steps"])
@pytest.mark.parametrize("seed", [0, 7, 104729])
def test_sweep_diagnostics_equal_the_per_episode_calls(seed, steps):
    """The stacked diagnostics of a default sweep (50 test episodes) are
    the bits that the 2-D helper calls give episode by episode."""
    run = RunConfig(seed=seed, benchmark=BenchmarkSpec(seed=seed),
                    training=TrainingConfig(steps=steps, fine_tune_steps=0))
    result = train_run(run)
    _, diag = evaluate_model(result.state, result.cfg, run)
    episodes = [generate_episode(run.benchmark, run.training.eval_start_index + i,
                                 "test") for i in range(run.training.eval_episodes)]
    assert len(diag.separations) == 50
    _assert_same_diagnostics(diag, _diagnostics_episode_by_episode(
        result.state, result.cfg, episodes))


def test_a_list_that_mixes_grids_is_evaluated_in_episode_order():
    """An 8x8, a 16x16 and another 8x8 episode: two stacks, and the
    separations still follow the list."""
    run = RunConfig()
    dense = dataclasses.replace(run.benchmark, grid_rows=16, grid_cols=16,
                                objects_min=8, objects_max=12)
    episodes = [generate_episode(run.benchmark, 0, "test"),
                generate_episode(dense, 1, "test"),
                generate_episode(run.benchmark, 2, "test")]
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    report, diag = evaluate_model(state, cfg, run, episodes=episodes)
    assert report.episode_count == 3
    assert diag.episodes_with_diag == 3
    _assert_same_diagnostics(diag, _diagnostics_episode_by_episode(state, cfg,
                                                                   episodes))


def test_zero_class_features_are_a_numeric_error():
    run = fast_run()
    cfg = run.resolved_model()
    with pytest.raises(NumericError, match="zero-norm class feature row"):
        evaluate_model(zero_model_state(cfg), cfg, run)

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
    cfg = run.resolved_model()
    state, opt = init_model_state(cfg), AdamState(learning_rate=cfg.learning_rate)
    episode = generate_episode(run.benchmark, 7, "train")
    for step in range(4):
        train_step(training_episode(episode, cfg, step), state, opt, cfg)
    for name, param in result.state.params.items():
        np.testing.assert_array_equal(param.data, state.params[name].data)


def _one_buffer(arrays):
    """The one 1-D buffer all ``arrays`` are C-contiguous views of, else None."""
    base = arrays[0].base
    ok = base is not None and base.ndim == 1 and all(
        a.base is base and a.flags.c_contiguous and a.flags.writeable
        for a in arrays)
    return base if ok else None


def test_parameters_and_moments_share_one_buffer(tmp_path):
    run = fast_run()
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    assert _one_buffer([p.data for p in state.params.values()]) is not None
    result = train_run(run, cfg=cfg, state=state)
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, result)
    _, loaded = load_run_checkpoint(path)
    params = [p.data for p in loaded.state.params.values()]
    bases = [_one_buffer(params), _one_buffer(list(loaded.opt.first_moment.values())),
             _one_buffer(list(loaded.opt.second_moment.values()))]
    assert all(b is not None for b in bases)
    assert len({id(b) for b in bases}) == 3
    assert bases[0].size == sum(p.size for p in params)
    # A step on the loaded state updates those buffers in place.
    kept = {n: p.data for n, p in loaded.state.params.items()}
    train_run(run, cfg=loaded.cfg, state=loaded.state, opt=loaded.opt,
              start_step=result.steps_done - 1)
    assert all(loaded.state.params[n].data is kept[n] for n in kept)
    assert _one_buffer(list(loaded.opt.first_moment.values())) is bases[1]
    assert _one_buffer(list(loaded.opt.second_moment.values())) is bases[2]


@pytest.mark.parametrize("variant", ["+OBD+OOD", "+OBD", "baseline"])
def test_resumed_run_equals_uninterrupted_run(tmp_path, variant):
    """Four steps, a checkpoint round trip, then the rest of the run: the
    parameters, Adam moments and step count are bit-identical to a run
    that was never interrupted."""
    run = fast_run()
    cfg = ablation_variant(run.resolved_model(), variant)
    whole = train_run(run, cfg=cfg)
    assert whole.steps_done == 9
    first_four = dataclasses.replace(run, training=dataclasses.replace(
        run.training, steps=4, fine_tune_steps=0))
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, train_run(first_four, cfg=cfg))
    run2, loaded = load_run_checkpoint(path)
    resumed = train_run(run2, cfg=loaded.cfg, state=loaded.state, opt=loaded.opt,
                        start_step=loaded.steps_done)
    assert resumed.opt.step_count == whole.opt.step_count == 9
    assert resumed.state.names() == whole.state.names()
    for name in whole.state.names():
        assert (resumed.state.params[name].data.tobytes()
                == whole.state.params[name].data.tobytes()), name
    for got, want in ((resumed.opt.first_moment, whole.opt.first_moment),
                      (resumed.opt.second_moment, whole.opt.second_moment)):
        assert list(got) == list(want) == list(whole.state.params)
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name
    if variant == "baseline":  # the background token never has a gradient
        assert not resumed.opt.first_moment["obd.background_token"].any()
        assert not resumed.opt.second_moment["obd.background_token"].any()


@pytest.mark.parametrize("variant", ["+OBD+OOD", "+OBD", "baseline"])
def test_evaluation_runs_the_decoder_for_inference_only(monkeypatch, variant):
    """The diagnostic forward stops before the decoder: the decoder runs
    once per episode, or once per class view in single-class mode, where
    no diagnostic forward runs."""
    import fewdet.harness as H
    import fewdet.model as M

    run = fast_run()
    cfg = ablation_variant(run.resolved_model(), variant)
    calls = {"decoder": 0, "diagnostic": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(M, "_decoder", counted("decoder", M._decoder))
    monkeypatch.setattr(H, "forward", counted("diagnostic", H.forward))
    evaluate_model(init_model_state(cfg), cfg, run)
    episodes = run.training.eval_episodes
    if cfg.single_class_mode:
        expected = {"decoder": run.benchmark.class_count * episodes, "diagnostic": 0}
    else:
        expected = {"decoder": episodes, "diagnostic": episodes}
    assert calls == expected
