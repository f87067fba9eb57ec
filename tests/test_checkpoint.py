import numpy as np
import pytest

from fewdet.checkpoint import (load_checkpoint, load_tensors, save_checkpoint,
                               save_tensors)
from fewdet.errors import CorruptionError
from fewdet.tensor import Tensor


def test_tensor_container_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(3, 4)),
        "b.vector": rng.normal(size=7),
        "c.scalarish": np.array(3.25),
        "wrapped": Tensor(rng.normal(size=(2, 2, 2))),
    }
    path = tmp_path / "tensors.fdnt"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name, value in tensors.items():
        data = value.data if isinstance(value, Tensor) else value
        np.testing.assert_array_equal(loaded[name], data)
        assert loaded[name].dtype == np.float64


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    config = {"nested": {"a": 1, "b": [1, 2, 3]}, "name": "x"}
    tensors = {"w": rng.normal(size=(5, 5))}
    path = tmp_path / "model.fdck"
    save_checkpoint(path, config, tensors)
    config2, tensors2 = load_checkpoint(path)
    assert config2 == config
    np.testing.assert_array_equal(tensors2["w"], tensors["w"])


def test_truncated_container(tmp_path):
    path = tmp_path / "tensors.fdnt"
    save_tensors(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CorruptionError):
        load_tensors(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fdnt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CorruptionError):
        load_tensors(path)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_garbage_config_record(tmp_path):
    path = tmp_path / "model.fdck"
    save_checkpoint(path, {"k": 1}, {"w": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[13] ^= 0xFF  # inside the JSON payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(CorruptionError):
        load_tensors(tmp_path / "absent.fdnt")



class _FailingFile:
    """Writes half of what it is given, then raises as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = bytes(data)
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


_CLI_CONFIG = {
    "benchmark": {"class_count": 2, "shots": 3, "capacity": 3, "grid_rows": 4,
                  "grid_cols": 4, "feature_dim": 8, "objects_min": 1,
                  "objects_max": 2},
    "model": {"d": 8, "heads": 2, "encoder_layers": 1, "decoder_layers": 1,
              "num_object_queries": 4, "n_max": 3},
    "training": {"steps": 4, "fine_tune_steps": 1, "fine_tune_episodes": 1,
                 "eval_episodes": 2, "log_interval": 2},
    "ablate_seeds": [0],
}


def _artifact_writer(save, tmp_path):
    """(path, write(value)) for one artifact writer; ``value`` changes what
    is written."""
    if save == "tensors":
        path = tmp_path / "model.bin"
        return path, lambda value: save_tensors(path, {"w": np.full((64, 64), value)})
    if save == "checkpoint":
        path = tmp_path / "model.bin"
        return path, lambda value: save_checkpoint(
            path, {"step": value}, {"w": np.full((64, 64), value)})
    if save == "episodes":
        from fewdet.episodes import BenchmarkSpec, write_episodes
        path = tmp_path / "episodes.bin"
        return path, lambda value: write_episodes(BenchmarkSpec(), int(value), path)

    import yaml
    from fewdet import cli

    out = tmp_path / "out"
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({**_CLI_CONFIG, "out_dir": str(out)}))

    def run(verb, *argv):
        args = cli.build_parser().parse_args([verb, "--config", str(config), *argv])
        return getattr(cli, f"cmd_{verb}")(args)

    if save == "manifest":
        return (out / "episodes_train.manifest.json",
                lambda value: run("gen", "--count", str(int(value))))
    if save == "eval_report":
        run("train")
        ckpt = str(out / "checkpoint.fdck")
        return (out / "eval_report.json",
                lambda value: run("eval", "--checkpoint", ckpt, "--seed", str(int(value))))
    assert save == "ablation"
    return out / "ablation.json", lambda value: run("ablate", "--seed", str(int(value)))


@pytest.mark.parametrize("save", ["tensors", "checkpoint", "episodes", "manifest",
                                  "eval_report", "ablation"])
@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_leaves_earlier_file_intact(tmp_path, monkeypatch, save, failure):
    import builtins
    import fewdet.checkpoint as checkpoint

    path, write = _artifact_writer(save, tmp_path)
    write(1.0)
    before = path.read_bytes()
    # Only the write of ``path`` fails: the CLI verbs write other files too.
    if failure == "write":
        def failing_open(file, *args, **kwargs):
            fh = builtins.open(file, *args, **kwargs)
            return _FailingFile(fh) if str(file).startswith(str(path)) else fh
        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    else:
        real_replace = checkpoint.os.replace

        def refuse(src, dst):
            if str(dst) == str(path):
                raise OSError("rename refused")
            real_replace(src, dst)
        monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(OSError):
        write(2.0)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not [p.name for p in tmp_path.rglob("*.tmp")]


def test_model_state_checkpoint_bit_identical_forward(tmp_path):
    """Save -> load -> forward reproduces the exact same outputs."""
    from fewdet.config import RunConfig
    from fewdet.episodes import generate_episode
    from fewdet.harness import (TrainResult, load_run_checkpoint,
                                save_run_checkpoint, train_run)
    from fewdet.model import forward
    from fewdet.config import TrainingConfig
    import dataclasses

    run = RunConfig(
        benchmark=dataclasses.replace(RunConfig().benchmark, class_count=2,
                                      capacity=3, grid_rows=4, grid_cols=4,
                                      feature_dim=8),
        model=dataclasses.replace(RunConfig().model, d=8, heads=2,
                                  encoder_layers=1, decoder_layers=1,
                                  num_object_queries=3, n_max=3),
        training=TrainingConfig(steps=5, fine_tune_steps=0))
    with pytest.warns(RuntimeWarning, match="more ground truths"):
        result = train_run(run)
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, result)
    run2, result2 = load_run_checkpoint(path)

    ep = generate_episode(run.benchmark, 42, "test")
    out1, _, _ = forward(ep, result.state, result.cfg)
    out2, _, _ = forward(ep, result2.state, result2.cfg)
    np.testing.assert_array_equal(out1.position_probs.data, out2.position_probs.data)
    np.testing.assert_array_equal(out1.boxes.data, out2.boxes.data)
    assert result2.steps_done == result.steps_done
    assert result2.opt.step_count == result.opt.step_count
    for name, m in result.opt.first_moment.items():
        np.testing.assert_array_equal(result2.opt.first_moment[name], m)


def test_checkpoint_with_retired_score_threshold_loads(tmp_path):
    """Checkpoints written while TrainingConfig had a score_threshold field
    carry it in their run config; they still load, and the key is dropped."""
    from fewdet.config import RunConfig, TrainingConfig
    from fewdet.harness import checkpoint_payload, load_run_checkpoint, train_run
    import dataclasses

    run = RunConfig(
        benchmark=dataclasses.replace(RunConfig().benchmark, class_count=2,
                                      capacity=3, grid_rows=4, grid_cols=4,
                                      feature_dim=8),
        model=dataclasses.replace(RunConfig().model, d=8, heads=2,
                                  encoder_layers=1, decoder_layers=1,
                                  num_object_queries=3, n_max=3),
        training=TrainingConfig(steps=2, fine_tune_steps=0))
    with pytest.warns(RuntimeWarning, match="more ground truths"):
        result = train_run(run)
    config, tensors = checkpoint_payload(run, result)
    config["run"]["training"]["score_threshold"] = 0.5
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)

    run2, result2 = load_run_checkpoint(path)
    assert run2 == run
    for name in result.state.names():
        np.testing.assert_array_equal(result2.state.params[name].data,
                                      result.state.params[name].data)
