"""``tools/digests.py`` on a short run: what it saves, and what ``--diff``
fails."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fewdet.model import VARIANTS

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
RUNS = (*VARIANTS, "untrained", "dense", "matching")
DETECTIONS = ("detections/classes", "detections/scores", "detections/boxes")


@pytest.fixture(scope="module")
def digests():
    # The module puts its checkout's sources first on sys.path and pins BLAS
    # to one thread; both are undone after the module's tests.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", sys.path[:])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        spec = importlib.util.spec_from_file_location("digests", DIGESTS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.fixture(scope="module")
def saved(digests):
    return digests.results(seeds=(0,), steps=2, fine_tune_steps=1, dense_steps=1)


def test_short_run_saves_every_documented_array(digests, saved):
    assert digests.SEEDS == (0, 7, 104729)
    assert {name.split("/")[1] for name in saved} == set(RUNS)
    assert all(name.startswith("0/") for name in saved)
    for run in RUNS:
        arrays = {name[len(f"0/{run}/"):] for name in saved
                  if name.startswith(f"0/{run}/")}
        if run == "matching":
            assert arrays == {"report"}
            continue
        assert set(DETECTIONS) <= arrays
        assert saved[f"0/{run}/detections/classes"].dtype == np.int64
        assert saved[f"0/{run}/detections/boxes"].shape[1:] == (4,)
        if run == "untrained":
            assert arrays == set(DETECTIONS)
            continue
        params = {a[len("param/"):] for a in arrays if a.startswith("param/")}
        assert "obd.background_token" in params
        moments = {a[len("adam_m/"):] for a in arrays if a.startswith("adam_m/")}
        assert moments == params  # zeros for a parameter without a gradient
        assert moments == {a[len("adam_v/"):] for a in arrays if a.startswith("adam_v/")}
        extras = arrays - set(DETECTIONS) - {a for a in arrays if a.startswith(
            ("param/", "adam_m/", "adam_v/"))}
        if run == "dense":
            assert extras == set()
            continue
        assert extras == ({"history", "report", "bg_dominance_rate", "mean_separation"}
                          | ({"record"} if run == "+OBD+OOD" else set()))
        assert saved[f"0/{run}/history"].shape[0] == 3  # one row per step
        report = saved[f"0/{run}/report"]
        assert report.dtype == np.uint8
        json.loads(report.tobytes())
        # The baseline gathers no attention or separation diagnostics.
        assert np.isnan(saved[f"0/{run}/bg_dominance_rate"]) == (run == "baseline")
        assert np.isnan(saved[f"0/{run}/mean_separation"]) == (run == "baseline")
    record = json.loads(saved["0/+OBD+OOD/record"].tobytes())
    assert sorted(record) == ["adam", "layout", "run", "step", "variant"]
    assert (record["step"], record["adam"]) == (3, {"step_count": 3})
    assert record["variant"] == "+OBD+OOD" and record["layout"] == "product"
    assert record["run"]["seed"] == record["run"]["benchmark"]["seed"] == 0


def test_matching_report_walks_the_matcher_through_the_band(saved):
    """The synthetic set on the 50 default test episodes matches some
    ground truths at every threshold and misses some at the top one, and
    class swaps put counts off the confusion matrix's diagonal."""
    report = json.loads(saved["0/matching/report"].tobytes())
    assert report["episode_count"] == 50
    assert report["detection_count"] > 5 * report["gt_count"] > 0
    ap = np.array(report["ap"])
    assert (ap > 0).all() and (ap[:, -1] < ap[:, 0]).all()
    confusion = np.array(report["confusion"])
    classes = len(report["class_ids"])
    assert np.trace(confusion[:classes, :classes]) < confusion[:classes, :classes].sum()


def save(path, arrays) -> Path:
    np.savez(path, **arrays)
    return path


def run_diff(digests, capsys, a, b) -> tuple[int, list[str]]:
    code = digests.main(["--diff", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def line_of(lines, name) -> str:
    return next(line for line in lines if line.split()[-1] == name
                or line.endswith(f"{name}  FAILS"))


def test_save_diffed_with_itself_is_identical(digests, saved, tmp_path, capsys):
    path = save(tmp_path / "a.npz", saved)
    code, lines = run_diff(digests, capsys, path, path)
    assert code == 0
    assert all(line.split() == ["identical", name]
               for line, name in zip(lines, sorted(saved)))
    assert lines[-1].startswith(f"{len(saved)} arrays, {len(saved)} identical; 0 fail")


def edited(arrays, name, edit) -> dict:
    out = dict(arrays)
    out[name] = edit(arrays[name].copy())
    return out


def nudge(by):
    def edit(a):
        a.flat[0] += by
        return a
    return edit


@pytest.mark.parametrize("name, by, code", [
    ("0/+OBD+OOD/param/obd.background_token", 1e-11, 1),
    ("0/dense/param/obd.background_token", 1e-11, 1),
    ("0/+OBD+OOD/detections/scores", 1e-11, 1),
    ("0/untrained/detections/boxes", 1e-11, 1),
    ("0/+OBD+OOD/param/obd.background_token", 1e-14, 0),
    ("0/+OBD+OOD/history", 1e-11, 0),
    ("0/+OBD+OOD/adam_m/obd.background_token", 1e-11, 0),
    ("0/+OBD+OOD/adam_v/obd.background_token", 1e-11, 0),
    ("0/+OBD/mean_separation", 1e-11, 0),
], ids=lambda v: str(v))
def test_bound_binds_parameters_and_detections_only(
        digests, saved, tmp_path, capsys, name, by, code):
    a = save(tmp_path / "a.npz", saved)
    b = save(tmp_path / "b.npz", edited(saved, name, nudge(by)))
    got, lines = run_diff(digests, capsys, a, b)
    assert got == code
    line = line_of(lines, name)
    assert math.isclose(float(line.split()[0]), by, rel_tol=1e-3)
    assert line.endswith("FAILS") == bool(code)
    assert lines[-1].startswith(f"{len(saved)} arrays, {len(saved) - 1} identical; "
                                f"{code} fail")


def set_first(value):
    def edit(a):
        a.flat[0] = value
        return a
    return edit


@pytest.mark.parametrize("name, edit", [
    ("0/+OBD/report", nudge(1)),
    ("0/matching/report", nudge(1)),
    ("0/+OBD+OOD/record", nudge(1)),
    ("0/baseline/detections/classes", nudge(1)),
    ("0/+OBD+OOD/history", set_first(np.nan)),
    ("0/+OBD+OOD/adam_m/obd.background_token", set_first(np.inf)),
    ("0/+OBD/mean_separation", set_first(np.nan)),
    ("0/baseline/bg_dominance_rate", set_first(0.5)),  # a number against NaN
    ("0/+OBD+OOD/history", lambda a: a[:-1]),
    ("0/dense/detections/classes", lambda a: a.astype(np.int32)),
], ids=["report", "matching-report", "record", "classes", "nan-history", "inf-moment",
        "nan-diagnostic", "number-for-nan", "shape", "dtype"])
def test_exact_and_structural_changes_fail(digests, saved, tmp_path, capsys,
                                           name, edit):
    a = save(tmp_path / "a.npz", saved)
    b = save(tmp_path / "b.npz", edited(saved, name, edit))
    code, lines = run_diff(digests, capsys, a, b)
    assert code == 1
    assert line_of(lines, name).endswith("FAILS")
    assert lines[-1].endswith("1 fail (param/ and detections/ within 1e-12, "
                              "integer arrays exact)")


def test_a_missing_array_fails(digests, saved, tmp_path, capsys):
    a = save(tmp_path / "a.npz", saved)
    kept = {k: v for k, v in saved.items() if k != "0/+OBD/history"}
    b = save(tmp_path / "b.npz", kept)
    code, lines = run_diff(digests, capsys, a, b)
    assert code == 1
    assert line_of(lines, "0/+OBD/history") == f"missing: only in {a}  0/+OBD/history  FAILS"


def test_a_resave_mismatch_fails_the_run(digests, monkeypatch):
    load = digests.load_run_checkpoint

    def drifting(path):
        run, result = load(path)
        result.steps_done += 1
        return run, result

    monkeypatch.setattr(digests, "load_run_checkpoint", drifting)
    with pytest.raises(SystemExit, match="seed 0: a save of the loaded run "
                                         "checkpoint writes other bytes"):
        digests.results(seeds=(0,), steps=1, fine_tune_steps=0, dense_steps=1)


def test_command_line_takes_an_output_path_or_diff(digests, tmp_path, capsys,
                                                   monkeypatch):
    for argv in ([], ["out.npz", "--diff", "a.npz", "b.npz"]):
        with pytest.raises(SystemExit) as exc:
            digests.main(argv)
        assert exc.value.code == 2
    assert "give OUT.npz or --diff A.npz B.npz" in capsys.readouterr().err
    monkeypatch.setattr(digests, "results", lambda: {"0/untrained/x": np.zeros(2)})
    assert digests.main([str(tmp_path / "out.npz")]) == 0
    assert capsys.readouterr().out == f"1 arrays saved to {tmp_path / 'out.npz'}\n"
    with np.load(tmp_path / "out.npz") as f:
        assert f.files == ["0/untrained/x"]


def test_tool_does_not_import_fewbench():
    """The gate builds its own run configs: no benchmark edit can move it."""
    assert "fewbench" not in DIGESTS.read_text()
