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


@pytest.mark.parametrize("save", ["tensors", "checkpoint"])
@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_leaves_earlier_file_intact(tmp_path, monkeypatch, save, failure):
    import builtins
    import fewdet.checkpoint as checkpoint

    def write(value):
        tensors = {"w": np.full((64, 64), value)}
        if save == "tensors":
            save_tensors(path, tensors)
        else:
            save_checkpoint(path, {"step": value}, tensors)

    path = tmp_path / "model.bin"
    write(1.0)
    before = path.read_bytes()
    if failure == "write":
        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **k: _FailingFile(builtins.open(*a, **k)),
                            raising=False)
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(OSError):
        write(2.0)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

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
