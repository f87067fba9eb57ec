import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fewdet.cli import main
from fewdet.episodes import read_episodes

FAST_CONFIG = {
    "benchmark": {"class_count": 2, "shots": 3, "capacity": 3, "grid_rows": 4,
                  "grid_cols": 4, "feature_dim": 8, "objects_min": 1,
                  "objects_max": 2},
    "model": {"d": 8, "heads": 2, "encoder_layers": 1, "decoder_layers": 1,
              "num_object_queries": 4},
    "training": {"steps": 6, "fine_tune_steps": 2, "fine_tune_episodes": 2,
                 "eval_episodes": 3, "log_interval": 2},
    "ablate_seeds": [0],
}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "run.yaml"
    cfg = dict(FAST_CONFIG)
    cfg["out_dir"] = str(tmp_path / "out")
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_gen_writes_and_prints_digest(self, fast_config, tmp_path, capsys):
        assert run_cli("gen", "--config", str(fast_config), "--count", "4") == 0
        out = capsys.readouterr().out
        assert "manifest digest:" in out
        manifest, episodes = read_episodes(tmp_path / "out" / "episodes_train.bin")
        assert len(episodes) == 4

    def test_gen_count_zero(self, fast_config, tmp_path, capsys):
        assert run_cli("gen", "--config", str(fast_config), "--count", "0") == 0
        _, episodes = read_episodes(tmp_path / "out" / "episodes_train.bin")
        assert episodes == []

    def test_gen_fixed_seed_fixed_digest(self, fast_config, tmp_path, capsys):
        run_cli("gen", "--config", str(fast_config), "--count", "3")
        first = capsys.readouterr().out
        run_cli("gen", "--config", str(fast_config), "--count", "3")
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_unwritable_path_exits_3(self, fast_config, tmp_path, capsys):
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["out_dir"] = "/proc/definitely/not/writable"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        assert run_cli("gen", "--config", str(bad), "--count", "1") == 3


class TestUsageErrors:
    def test_unknown_verb_exits_1(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"model": {"bogus": 1}}))
        assert run_cli("gradcheck", "--config", str(path)) == 1

    def test_missing_config_file_exits_1(self, capsys):
        assert run_cli("gen", "--config", "/does/not/exist.yaml") == 1

    @pytest.mark.parametrize("argv", [
        ("gen", "--seed", "1"),
        ("eval", "--checkpoint", "x.fdck", "--seed", "1"),
        ("ablate", "--seed", "1"),
        ("gradcheck", "--out", "x"),
        ("gradcheck", "--inject-fault", "sigmoid"),
    ], ids=["gen-seed", "eval-seed", "ablate-seed", "gradcheck-out",
            "gradcheck-inject-fault"])
    def test_flag_the_verb_does_not_read_exits_1(self, argv, capsys):
        assert run_cli(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval_roundtrip(self, fast_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(fast_config)) == 0
        out_dir = tmp_path / "out"
        ckpt = out_dir / "checkpoint.fdck"
        assert ckpt.exists()

        log_rows = [json.loads(line) for line in
                    (out_dir / "train_log.jsonl").read_text().splitlines()]
        assert {"step", "cls", "box", "giou", "ood", "total"} <= set(log_rows[0])

        assert run_cli("eval", "--checkpoint", str(ckpt)) == 0
        report_path = out_dir / "eval_report.json"
        assert report_path.exists()
        from fewdet.metrics import EvalReport
        report = EvalReport.from_json(report_path.read_text())
        assert report.episode_count == 3

    def test_baseline_eval_report_is_strict_json(self, fast_config, tmp_path, capsys):
        """The baseline has no placeholders, so its background diagnostics
        are undefined; the report carries them as null, never as NaN."""
        assert run_cli("train", "--config", str(fast_config),
                       "--variant", "baseline") == 0
        assert run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck")) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "out" / "eval_report.json").read_text()
        extras = json.loads(text, parse_constant=reject)["extras"]
        assert extras["bg_dominance_rate"] is None
        assert extras["mean_separation"] is None

    def test_resume_continues_step_numbering(self, fast_config, tmp_path, capsys):
        run_cli("train", "--config", str(fast_config))
        ckpt = tmp_path / "out" / "checkpoint.fdck"
        from fewdet.harness import load_run_checkpoint
        _, before = load_run_checkpoint(ckpt)
        assert before.steps_done == 8
        assert run_cli("train", "--config", str(fast_config),
                       "--checkpoint", str(ckpt)) == 0
        # resuming at the final step trains no further but re-saves cleanly
        _, after = load_run_checkpoint(ckpt)
        assert after.steps_done == 8

    @pytest.mark.parametrize("flag, value, same, theirs", [
        ("--seed", "5", "0", "seed 0"),
        ("--variant", "baseline", "+OBD+OOD", "variant +OBD+OOD"),
    ], ids=["seed", "variant"])
    def test_resume_with_a_differing_flag_exits_1(self, fast_config, tmp_path, capsys,
                                                  flag, value, same, theirs):
        """A resumed run keeps the checkpoint's settings: a flag that asks
        for another value is refused, naming both, not dropped."""
        run_cli("train", "--config", str(fast_config))
        ckpt = tmp_path / "out" / "checkpoint.fdck"
        before = ckpt.read_bytes()
        capsys.readouterr()
        resume = ("train", "--config", str(fast_config), "--checkpoint", str(ckpt))
        assert run_cli(*resume, flag, value) == 1
        assert (f"error: {flag} {value} differs from the checkpoint's {theirs}"
                in capsys.readouterr().err)
        assert ckpt.read_bytes() == before
        assert run_cli(*resume, flag, same) == 0

    def test_eval_on_episode_file(self, fast_config, tmp_path, capsys):
        run_cli("train", "--config", str(fast_config))
        run_cli("gen", "--config", str(fast_config), "--count", "3",
                "--split", "test")
        code = run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck"),
                       "--episodes", str(tmp_path / "out" / "episodes_test.bin"))
        assert code == 0

    def test_eval_on_benchmark_of_other_feature_width_exits_1(
            self, fast_config, tmp_path, capsys):
        run_cli("train", "--config", str(fast_config))
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["benchmark"]["feature_dim"] = 12
        wide = tmp_path / "wide.yaml"
        wide.write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck"),
                       "--config", str(wide)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "feature dim 12" in err and "input_dim 8" in err

    def test_eval_on_episode_file_of_other_vocabulary(self, fast_config, tmp_path,
                                                       capsys):
        """The report's classes are the file's, not the checkpoint's."""
        run_cli("train", "--config", str(fast_config))
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["benchmark"]["class_count"] = 3
        cfg["out_dir"] = str(tmp_path / "three")
        three = tmp_path / "three.yaml"
        three.write_text(yaml.safe_dump(cfg))
        run_cli("gen", "--config", str(three), "--count", "2", "--split", "test")
        assert run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck"),
                       "--episodes", str(tmp_path / "three" / "episodes_test.bin")) == 0
        from fewdet.metrics import EvalReport
        report = EvalReport.from_json(
            (tmp_path / "out" / "eval_report.json").read_text())
        assert report.confusion.shape == (4, 4)

    def test_eval_missing_checkpoint_exits_3(self, capsys):
        assert run_cli("eval", "--checkpoint", "/no/such/file.fdck") == 3

    def test_eval_corrupt_checkpoint_exits_3(self, fast_config, tmp_path, capsys):
        run_cli("train", "--config", str(fast_config))
        ckpt = tmp_path / "out" / "checkpoint.fdck"
        blob = bytearray(ckpt.read_bytes())
        blob[5] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        assert run_cli("eval", "--checkpoint", str(ckpt)) == 3


class TestAblate:
    def test_ablate_emits_three_variants(self, fast_config, tmp_path, capsys):
        assert run_cli("ablate", "--config", str(fast_config)) == 0
        summary = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert set(summary["mean"]) == {"baseline", "+OBD", "+OBD+OOD"}
        out = capsys.readouterr().out
        table_lines = [l for l in out.splitlines()
                       if l.startswith(("baseline", "+OBD"))]
        assert len(table_lines) >= 3

    def test_ablate_deterministic(self, fast_config, tmp_path, capsys):
        def load():
            data = json.loads((tmp_path / "out" / "ablation.json").read_text())
            for row in data["rows"]:
                row.pop("train_seconds")  # wall clock, excluded from determinism
            return data

        run_cli("ablate", "--config", str(fast_config))
        first = load()
        run_cli("ablate", "--config", str(fast_config))
        assert load() == first


class TestGradcheckVerb:
    def test_injected_fault_exits_2_and_names_op(self, fast_config, monkeypatch,
                                                 capsys):
        """A sigmoid whose backward is negated fails its primitive check.
        The model binds its own sigmoid at import, so the full-loss checks
        still pass."""
        import fewdet.tensor as T

        def wrong_sigmoid(a):
            out = T._stable_sigmoid(a.data)
            return T.Tensor._result(out, (a,), lambda g: (-g * out * (1.0 - out),))

        monkeypatch.setattr(T, "sigmoid", wrong_sigmoid)
        code = run_cli("gradcheck", "--config", str(fast_config))
        assert code == 2
        captured = capsys.readouterr()
        # Every other check, the full-loss ones included, passes.
        assert captured.err == "gradient check FAILED for: sigmoid\n"


def test_console_entry_point_runs():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "fewdet", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gradcheck" in proc.stdout
