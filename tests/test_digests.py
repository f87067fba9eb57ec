"""Smoke test of ``tools/digests.py`` on a short run."""

import importlib.util
import json
import sys
from pathlib import Path

from fewdet.model import VARIANTS

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def test_short_run_prints_every_documented_key(monkeypatch):
    # The module puts its checkout first on sys.path and pins BLAS to one
    # thread; both are undone after the test.
    monkeypatch.setattr(sys, "path", sys.path[:])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert digests.SEEDS == (0, 7, 104729)

    out = digests.digests(seeds=(0,), steps=2, fine_tune_steps=2, dense_steps=2)
    json.dumps(out, allow_nan=False)  # strict JSON: NaN is printed as null
    assert (out["steps"], out["fine_tune_steps"], out["dense_steps"]) == (2, 2, 2)
    assert list(out["seeds"]) == ["0"]
    seed = out["seeds"]["0"]
    assert set(seed) == {"variants", "checkpoint", "baseline_detections", "dense"}
    assert list(seed["variants"]) == list(VARIANTS)
    for variant, row in seed["variants"].items():
        assert set(row) == {"state", "history", "final_loss", "report",
                            "bg_dominance_rate", "mean_separation"}
        assert all(len(row[key]) == 64 for key in ("state", "history", "report"))
        assert isinstance(row["final_loss"], float)
        # The baseline gathers no attention or separation diagnostics.
        assert (row["bg_dominance_rate"] is None) == (variant == "baseline")
        assert (row["mean_separation"] is None) == (variant == "baseline")
    assert seed["checkpoint"].keys() == {"sha256", "resave_identical"}
    assert len(seed["checkpoint"]["sha256"]) == 64
    assert seed["checkpoint"]["resave_identical"] is True
    assert len(seed["baseline_detections"]) == 64
    assert set(seed["dense"]) == {"state", "detections"}
    assert all(len(value) == 64 for value in seed["dense"].values())
    states = [row["state"] for row in seed["variants"].values()]
    assert len(set(states + [seed["dense"]["state"]])) == 4
