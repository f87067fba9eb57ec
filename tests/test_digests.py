"""Smoke test of ``tools/digests.py`` on a short run."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fewdet.model import VARIANTS

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


@pytest.fixture
def digests(monkeypatch):
    # The module puts its checkout first on sys.path and pins BLAS to one
    # thread; both are undone after the test.
    monkeypatch.setattr(sys, "path", sys.path[:])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_run_prints_every_documented_key(digests):
    assert digests.SEEDS == (0, 7, 104729)

    out = digests.digests(seeds=(0,), steps=2, fine_tune_steps=2, dense_steps=2)
    json.dumps(out, allow_nan=False)  # strict JSON: NaN is printed as null
    assert (out["steps"], out["fine_tune_steps"], out["dense_steps"]) == (2, 2, 2)
    assert list(out["seeds"]) == ["0"]
    seed = out["seeds"]["0"]
    assert set(seed) == {"variants", "checkpoint", "untrained_detections", "dense"}
    assert list(seed["variants"]) == list(VARIANTS)
    for variant, row in seed["variants"].items():
        assert set(row) == {"state", "history", "final_loss", "report",
                            "bg_dominance_rate", "mean_separation", "detections"}
        assert all(len(row[key]) == 64
                   for key in ("state", "history", "report", "detections"))
        assert isinstance(row["final_loss"], float)
        # The baseline gathers no attention or separation diagnostics.
        assert (row["bg_dominance_rate"] is None) == (variant == "baseline")
        assert (row["mean_separation"] is None) == (variant == "baseline")
    assert seed["checkpoint"].keys() == {"sha256", "resave_identical"}
    assert len(seed["checkpoint"]["sha256"]) == 64
    assert seed["checkpoint"]["resave_identical"] is True
    assert len(seed["untrained_detections"]) == 64
    assert set(seed["dense"]) == {"state", "detections"}
    assert all(len(value) == 64 for value in seed["dense"].values())
    states = [row["state"] for row in seed["variants"].values()]
    assert len(set(states + [seed["dense"]["state"]])) == 4


def test_values_diffed_with_themselves_pass_and_one_changed_element_fails(
        digests, tmp_path, capsys):
    values = {}
    digests.digests(seeds=(0,), steps=1, fine_tune_steps=1, dense_steps=1,
                    values=values)
    for run in (*VARIANTS, "untrained", "dense"):
        for array in ("detections/classes", "detections/scores", "detections/boxes"):
            assert f"0/{run}/{array}" in values
    for array in ("param/obd.background_token", "adam_m/obd.background_token",
                  "adam_v/obd.background_token", "history", "report",
                  "bg_dominance_rate", "mean_separation"):
        assert f"0/+OBD/{array}" in values
    assert values["0/+OBD/report"].dtype == np.uint8
    assert np.isnan(values["0/baseline/bg_dominance_rate"])  # NaN matches NaN
    same = tmp_path / "a.npz"
    np.savez(same, **values)
    assert digests.main(["--diff", str(same), str(same)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        f"{len(values)} arrays; max |a - b| 0.000e+00; 0 fail")

    def changed(name, edit):
        path = tmp_path / "b.npz"
        np.savez(path, **{**values, name: edit(values[name].copy())})
        code = digests.main(["--diff", str(same), str(path)])
        return code, capsys.readouterr().out

    def nudge(by):
        def edit(a):
            a.flat[0] += by
            return a
        return edit

    code, out = changed("0/+OBD+OOD/param/obd.background_token", nudge(1e-6))
    assert code == 1 and "1 fail" in out.splitlines()[-1]
    assert "ABOVE BOUND" in next(line for line in out.splitlines()
                                 if "0/+OBD+OOD/param/obd.background_token" in line)
    assert changed("0/+OBD+OOD/param/obd.background_token", nudge(1e-14))[0] == 0
    assert changed("0/+OBD/report", nudge(1))[0] == 1
