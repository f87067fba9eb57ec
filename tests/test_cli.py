import json
import os
import re
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

    @pytest.mark.parametrize("section, key, value", [
        ("training", "steps", 2.5),
        ("training", "steps", True),
        ("benchmark", "grid_rows", 4.0),
        ("training", "eval_episodes", -5),
        ("training", "log_interval", 0),
        ("model", "d", 0),
        ("model", "d", 6),
        ("benchmark", "capacity", 1),
        ("training", "eval_start_index", -1),
        ("training", "overfit_episode", -1),
        ("model", "heads", 0),
        ("benchmark", "seed", -3),
    ], ids=["float-steps", "bool-steps", "float-grid-rows", "negative-eval-episodes",
            "zero-log-interval", "zero-d", "d-not-multiple-of-4", "capacity-one",
            "negative-eval-start-index", "negative-overfit-episode", "heads-zero",
            "negative-benchmark-seed"])
    def test_bad_integer_setting_exits_1(self, fast_config, tmp_path, capsys,
                                         section, key, value):
        cfg = yaml.safe_load(fast_config.read_text())
        cfg[section] = {**cfg[section], key: value}
        fast_config.write_text(yaml.safe_dump(cfg))
        assert run_cli("train", "--config", str(fast_config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("model", "learning_rate", -1.0),
        ("model", "learning_rate", 0.0),
        ("model", "learning_rate", float("nan")),
        ("model", "learning_rate", "0.001"),
        ("model", "learning_rate", True),
        ("model", "temperature", float("nan")),
        ("model", "temperature", 0),
        ("model", "ood_weight", -1),
        ("model", "ood_weight", float("inf")),
        ("model", "weights.cls", -1.0),
        ("model", "weights.l1", float("nan")),
        ("model", "weights.giou", "2"),
        ("benchmark", "noise_std", -0.1),
        ("benchmark", "noise_std", float("inf")),
        ("benchmark", "noise_std", False),
        ("model", "learning_rate", 10**400),
    ], ids=["negative-rate", "zero-rate", "nan-rate", "quoted-rate", "bool-rate",
            "nan-temperature", "zero-temperature", "negative-ood-weight",
            "inf-ood-weight", "negative-cls-weight", "nan-l1-weight",
            "quoted-giou-weight", "negative-noise", "inf-noise", "bool-noise",
            "rate-too-large-for-a-float"])
    def test_bad_float_setting_exits_1(self, fast_config, tmp_path, capsys,
                                       section, key, value):
        cfg = yaml.safe_load(fast_config.read_text())
        if key.startswith("weights."):
            cfg[section] = {**cfg[section], "weights": {key.split(".")[1]: value}}
        else:
            cfg[section] = {**cfg[section], key: value}
        fast_config.write_text(yaml.safe_dump(cfg))
        assert run_cli("train", "--config", str(fast_config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, value", [("train", 5), ("gen", [1])],
                             ids=["train-integer", "gen-list"])
    def test_out_dir_that_is_not_a_string_exits_1(self, fast_config, capsys,
                                                  verb, value):
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["out_dir"] = value
        fast_config.write_text(yaml.safe_dump(cfg))
        assert run_cli(verb, "--config", str(fast_config)) == 1
        assert capsys.readouterr().err == \
            f"error: out_dir must be a string, not {value!r}\n"

    def test_gen_with_capacity_one_exits_1(self, fast_config, tmp_path, capsys):
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["benchmark"]["capacity"] = 1
        fast_config.write_text(yaml.safe_dump(cfg))
        assert run_cli("gen", "--config", str(fast_config), "--count", "1") == 1
        assert "capacity must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_gen_count_exits_1(self, fast_config, tmp_path, capsys):
        assert run_cli("gen", "--config", str(fast_config), "--count", "-1") == 1
        assert capsys.readouterr().err == "error: --count must be >= 0, not -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start", ["-1", str(2 ** 64)],
                             ids=["negative", "past-u64"])
    def test_bad_start_index_exits_1(self, fast_config, tmp_path, capsys, start):
        """An episode record stores its index as a u64: the last index,
        start + count - 1, must fit, and is checked before anything is
        written."""
        assert run_cli("gen", "--config", str(fast_config), "--count", "1",
                       "--start-index", start) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --start-index must be") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    def test_negative_seed_flag_exits_1(self, fast_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(fast_config), "--seed", "-1") == 1
        assert capsys.readouterr().err == \
            "error: seed must be a non-negative integer, not -1\n"
        assert not (tmp_path / "out").exists()


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
        log = (tmp_path / "out" / "train_log.jsonl").read_bytes()
        capsys.readouterr()
        assert run_cli("train", "--config", str(fast_config),
                       "--checkpoint", str(ckpt)) == 0
        # resuming at the final step trains no further but re-saves cleanly
        assert capsys.readouterr().out.splitlines()[0] == (
            "no step left to train: the run already reached step 8")
        _, after = load_run_checkpoint(ckpt)
        assert after.steps_done == 8
        assert (tmp_path / "out" / "train_log.jsonl").read_bytes() == log

    def test_resume_from_a_mid_run_checkpoint_logs_each_step_once(
            self, fast_config, tmp_path, capsys):
        """The log of a run that went past the checkpoint loses the rows
        from the checkpoint's step on before the resumed run appends its
        own, so it ends as the uninterrupted run's log."""
        import dataclasses
        from fewdet.harness import (load_run_checkpoint, save_run_checkpoint,
                                    train_run)
        assert run_cli("train", "--config", str(fast_config)) == 0
        log_path = tmp_path / "out" / "train_log.jsonl"
        uninterrupted = log_path.read_bytes()
        run, full = load_run_checkpoint(tmp_path / "out" / "checkpoint.fdck")
        head = dataclasses.replace(run, training=dataclasses.replace(
            run.training, steps=4, fine_tune_steps=0))
        mid = tmp_path / "mid.fdck"
        save_run_checkpoint(mid, run, train_run(head, cfg=full.cfg))
        assert run_cli("train", "--config", str(fast_config),
                       "--checkpoint", str(mid)) == 0
        steps = [json.loads(line)["step"] for line in log_path.read_text().splitlines()]
        assert steps == [0, 2, 4, 6, 7]
        assert log_path.read_bytes() == uninterrupted

    def test_resume_without_out_or_config_writes_beside_the_checkpoint(
            self, fast_config, tmp_path, capsys, monkeypatch):
        """A resume given neither --out nor --config continues the run in
        the checkpoint's directory, not under the working directory."""
        import dataclasses
        from fewdet.harness import (load_run_checkpoint, save_run_checkpoint,
                                    train_run)
        assert run_cli("train", "--config", str(fast_config)) == 0
        ckpt = tmp_path / "out" / "checkpoint.fdck"
        log_path = tmp_path / "out" / "train_log.jsonl"
        uninterrupted, finished = log_path.read_bytes(), ckpt.read_bytes()
        run, full = load_run_checkpoint(ckpt)
        head = dataclasses.replace(run, training=dataclasses.replace(
            run.training, steps=4, fine_tune_steps=0))
        save_run_checkpoint(ckpt, run, train_run(head, cfg=full.cfg))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("train", "--checkpoint", str(ckpt)) == 0
        assert list(elsewhere.iterdir()) == []
        steps = [json.loads(line)["step"] for line in log_path.read_text().splitlines()]
        assert steps == [0, 2, 4, 6, 7]
        assert log_path.read_bytes() == uninterrupted
        assert ckpt.read_bytes() == finished

    def test_resume_into_another_directory_starts_its_log_with_the_earlier_rows(
            self, fast_config, tmp_path, capsys):
        """A resume into a directory with no log yet first copies the rows
        before the resume step from the log where the checkpoint's run
        wrote, so the new log ends as the uninterrupted run's; that log is
        left as it was. With no earlier log, the new one starts at the
        resume step."""
        import dataclasses
        from fewdet.harness import (load_run_checkpoint, save_run_checkpoint,
                                    train_run)
        assert run_cli("train", "--config", str(fast_config)) == 0
        log_path = tmp_path / "out" / "train_log.jsonl"
        uninterrupted = log_path.read_bytes()
        run, full = load_run_checkpoint(tmp_path / "out" / "checkpoint.fdck")
        head = dataclasses.replace(run, training=dataclasses.replace(
            run.training, steps=4, fine_tune_steps=0))
        mid = tmp_path / "out" / "mid.fdck"
        save_run_checkpoint(mid, run, train_run(head, cfg=full.cfg))
        b = tmp_path / "b"
        assert run_cli("train", "--checkpoint", str(mid), "--out", str(b)) == 0
        assert (b / "train_log.jsonl").read_bytes() == uninterrupted
        assert log_path.read_bytes() == uninterrupted

        log_path.unlink()
        c = tmp_path / "c"
        assert run_cli("train", "--checkpoint", str(mid), "--out", str(c)) == 0
        steps = [json.loads(line)["step"]
                 for line in (c / "train_log.jsonl").read_text().splitlines()]
        assert steps == [4, 6, 7]

    def test_resume_onto_a_log_with_a_corrupt_row_exits_3(self, fast_config, tmp_path,
                                                           capsys):
        """A row that ends in a newline was fully written, so one that does
        not parse is corruption, not a torn append."""
        run_cli("train", "--config", str(fast_config))
        log_path = tmp_path / "out" / "train_log.jsonl"
        with open(log_path, "a") as fh:
            fh.write('{"step": 8, "cls"\n')
        capsys.readouterr()
        assert run_cli("train", "--config", str(fast_config), "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck")) == 3
        assert (f"{log_path}: line 6 is not a training log row"
                in capsys.readouterr().err)

    def test_a_torn_final_row_is_dropped_by_fresh_and_resumed_runs(
            self, fast_config, tmp_path, capsys):
        """A kill during an append leaves a last line with no newline. A
        fresh run and a resume each drop it, and the log ends as the
        uninterrupted run's."""
        import dataclasses
        from fewdet.harness import (load_run_checkpoint, save_run_checkpoint,
                                    train_run)
        assert run_cli("train", "--config", str(fast_config)) == 0
        log_path = tmp_path / "out" / "train_log.jsonl"
        uninterrupted = log_path.read_bytes()
        run, full = load_run_checkpoint(tmp_path / "out" / "checkpoint.fdck")
        head = dataclasses.replace(run, training=dataclasses.replace(
            run.training, steps=4, fine_tune_steps=0))
        mid = tmp_path / "mid.fdck"
        save_run_checkpoint(mid, run, train_run(head, cfg=full.cfg))
        for resume in ((), ("--checkpoint", str(mid))):
            with open(log_path, "ab") as fh:
                fh.write(b'{"step": 4, "cls": 0.5')
            assert run_cli("train", "--config", str(fast_config), *resume) == 0
            assert log_path.read_bytes() == uninterrupted

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

    def test_resume_with_a_differing_config_exits_1(self, fast_config, tmp_path,
                                                    capsys):
        """A config that differs from the checkpoint's run is refused,
        naming the first setting, before anything is written; one that
        equals it but for out_dir resumes there."""
        run_cli("train", "--config", str(fast_config))
        ckpt = tmp_path / "out" / "checkpoint.fdck"
        cfg = yaml.safe_load(fast_config.read_text())
        cfg["out_dir"] = str(tmp_path / "more")
        cfg["training"] = {**cfg["training"], "steps": 20, "log_interval": 3}
        more = tmp_path / "more.yaml"
        more.write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert run_cli("train", "--config", str(more), "--checkpoint", str(ckpt)) == 1
        assert capsys.readouterr().err == (
            "error: --config gives training.steps 20, the checkpoint's run has 6\n")
        assert not (tmp_path / "more").exists()
        cfg["training"] = FAST_CONFIG["training"]
        more.write_text(yaml.safe_dump(cfg))
        assert run_cli("train", "--config", str(more), "--checkpoint", str(ckpt)) == 0
        # The same run and state, recorded with the directory it wrote to.
        from fewdet.checkpoint import load_checkpoint
        (old, old_tensors), (new, new_tensors) = (
            load_checkpoint(path) for path in (ckpt, tmp_path / "more" / "checkpoint.fdck"))
        assert new["run"]["out_dir"] == str(tmp_path / "more")
        new["run"]["out_dir"] = old["run"]["out_dir"]
        assert new == old
        assert {k: v.tobytes() for k, v in new_tensors.items()} == {
            k: v.tobytes() for k, v in old_tensors.items()}

    def test_resume_with_out_records_and_evaluates_the_new_directory(
            self, fast_config, tmp_path, capsys):
        """A resume given --out writes its checkpoint there with that
        out_dir, so an eval of it writes its report beside it and leaves the
        first run's directory alone."""
        from fewdet.harness import load_run_checkpoint
        assert run_cli("train", "--config", str(fast_config)) == 0
        first = tmp_path / "out"
        second = tmp_path / "b"
        assert run_cli("train", "--checkpoint", str(first / "checkpoint.fdck"),
                       "--out", str(second)) == 0
        run, _ = load_run_checkpoint(second / "checkpoint.fdck")
        assert run.out_dir == str(second)
        assert run_cli("eval", "--checkpoint", str(second / "checkpoint.fdck")) == 0
        assert (second / "eval_report.json").exists()
        assert not (first / "eval_report.json").exists()

    def test_eval_on_episode_file(self, fast_config, tmp_path, capsys):
        run_cli("train", "--config", str(fast_config))
        run_cli("gen", "--config", str(fast_config), "--count", "3",
                "--split", "test")
        code = run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck"),
                       "--episodes", str(tmp_path / "out" / "episodes_test.bin"))
        assert code == 0

    @pytest.mark.parametrize("field, damage, message", [
        ("patches", lambda ep: {"patches": np.vstack([ep.patches, ep.patches[:2]])},
         "patches: rows 18, expected 16"),
        ("support", lambda ep: {"support": ep.support[:1]},
         "support: rows 1, expected 2"),
        ("boxes", lambda ep: {"boxes": ep.boxes[:, :3]},
         "boxes: columns 3, expected 4"),
        ("labels", lambda ep: {"labels": ep.labels[:1]}, "labels: count 1, expected 2"),
        ("label-value", lambda ep: {"labels": np.array([ep.labels[0], 99])},
         "labels: [99] are not among the class ids [2, 3]"),
    ], ids=["patch-rows", "support-rows", "box-width", "label-count", "label-value"])
    def test_episode_record_that_contradicts_its_header_is_corrupt(
            self, fast_config, tmp_path, capsys, monkeypatch, field, damage, message):
        """A record with valid digests whose shapes or labels contradict the
        header's spec, or each other, is refused naming the field: by
        read_episodes, and by eval --episodes with exit 3 and no report."""
        import dataclasses
        from fewdet import episodes
        from fewdet.errors import CorruptionError

        assert run_cli("train", "--config", str(fast_config)) == 0
        spec = episodes.BenchmarkSpec(**yaml.safe_load(fast_config.read_text())["benchmark"])
        index = next(i for i in range(100)
                     if len(episodes.generate_episode(spec, i, "test").labels) == 2)
        ep = episodes.generate_episode(spec, index, "test")
        damaged = dataclasses.replace(ep, **damage(ep))
        path = tmp_path / "damaged.bin"
        with monkeypatch.context() as mp:
            mp.setattr(episodes, "generate_episode", lambda *args: damaged)
            episodes.write_episodes(spec, 1, path, split="test", start_index=index)
        expected = f"episode 0: {message}"
        with pytest.raises(CorruptionError, match=re.escape(expected)):
            read_episodes(path)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.fdck"),
                       "--episodes", str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert expected in err
        assert not (tmp_path / "out" / "eval_report.json").exists()

    def test_eval_on_an_empty_episode_file_exits_1(self, fast_config, tmp_path,
                                                   capsys):
        run_cli("train", "--config", str(fast_config))
        run_cli("gen", "--config", str(fast_config), "--count", "0",
                "--split", "test")
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint",
                       str(tmp_path / "out" / "checkpoint.fdck"),
                       "--episodes", str(tmp_path / "out" / "episodes_test.bin")) == 1
        err = capsys.readouterr().err
        assert err == "error: no episodes to evaluate\n"
        assert not (tmp_path / "out" / "eval_report.json").exists()

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

    def test_eval_with_out_writes_the_report_there(self, fast_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(fast_config)) == 0
        other = tmp_path / "other"
        assert run_cli("eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.fdck"),
                       "--out", str(other)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"report: {other / 'eval_report.json'}")
        assert (other / "eval_report.json").exists()
        assert not (tmp_path / "out" / "eval_report.json").exists()

    def test_eval_of_a_moved_checkpoint_writes_beside_it(self, fast_config, tmp_path,
                                                        capsys):
        """Given neither --out nor --config, eval writes its report beside
        the checkpoint, not into the out_dir the checkpoint records."""
        import shutil
        assert run_cli("train", "--config", str(fast_config)) == 0
        moved = tmp_path / "moved"
        moved.mkdir()
        shutil.copy(tmp_path / "out" / "checkpoint.fdck", moved)
        assert run_cli("eval", "--checkpoint", str(moved / "checkpoint.fdck")) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"report: {moved / 'eval_report.json'}")
        assert (moved / "eval_report.json").exists()
        assert not (tmp_path / "out" / "eval_report.json").exists()

    def test_resume_into_a_non_finite_loss_exits_2(self, fast_config, tmp_path, capsys):
        """A checkpoint whose class embeddings hold NaN trains into a
        non-finite loss: a numeric failure."""
        import dataclasses
        from fewdet.config import load_run_config
        from fewdet.harness import save_run_checkpoint, train_run
        run = load_run_config(str(fast_config))
        head = train_run(dataclasses.replace(run, training=dataclasses.replace(
            run.training, steps=4, fine_tune_steps=0)))
        head.state.params["ood.embeddings"].data[:] = np.nan
        save_run_checkpoint(tmp_path / "mid.fdck", run, head)
        assert run_cli("train", "--config", str(fast_config),
                       "--checkpoint", str(tmp_path / "mid.fdck")) == 2
        assert capsys.readouterr().err.startswith(
            "numeric failure: non-finite loss at step 5: ")

    def test_box_extent_underflow_exits_2(self, tmp_path, capsys):
        """A learning rate of 1.0 on the default benchmark drives the box
        extents to 0 at step 3: a numeric failure on one line that names
        the step, not a traceback."""
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"model": {"learning_rate": 1.0},
                                        "training": {"steps": 5},
                                        "out_dir": str(tmp_path / "out")}))
        assert run_cli("train", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: predicted box extent underflowed to 0: ")
        assert err.endswith(" (at step 3)\n")
        assert err.count("\n") == 1 and "Traceback" not in err

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
    def test_all_checks_passing_exits_0(self, fast_config, capsys):
        assert run_cli("gradcheck", "--config", str(fast_config)) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == ""
        assert len(lines) > 1 and all(line.endswith("  ok") for line in lines[:-1])
        assert lines[-1] == f"all {len(lines) - 1} gradient checks passed"

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


@pytest.mark.parametrize("package", ["scipy", "yaml"])
def test_fewdet_imports_no_package(package):
    """The entry points load no scipy module (matching is pure numpy) and no
    yaml module (only a config file needs the parser)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, fewdet.cli, fewdet.harness, fewdet.model; "
            f"print(sorted(m for m in sys.modules if m.startswith({package!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
