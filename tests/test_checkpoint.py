import hashlib
import re
import struct

import numpy as np
import pytest

from fewdet.checkpoint import load_checkpoint, save_checkpoint
from fewdet.episodes import BenchmarkSpec, read_episodes, write_episodes
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
    path = tmp_path / "tensors.fdck"
    save_checkpoint(path, {}, tensors)
    _, loaded = load_checkpoint(path)
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
    path = tmp_path / "model.fdck"
    save_checkpoint(path, {}, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CorruptionError, match="truncated"):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fdck"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CorruptionError, match="bad magic"):
        load_checkpoint(path)
    save_checkpoint(path, {}, {"w": np.ones(2)})
    blob = bytearray(path.read_bytes())
    container = blob.index(b"FDNT")
    blob[container:container + 4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="bad magic"):
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
        load_checkpoint(tmp_path / "absent.fdck")


_PINNED_CONFIG = {"a": 1, "b": [1.5]}
_PINNED_TENSORS = {"w.x": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}


def test_written_checkpoint_bytes_are_pinned(tmp_path):
    """The on-disk format is fixed: files written earlier still load."""
    path = tmp_path / "pinned.fdck"
    save_checkpoint(path, _PINNED_CONFIG, _PINNED_TENSORS)
    blob = path.read_bytes()
    assert len(blob) == 152
    assert hashlib.sha256(blob).hexdigest() == (
        "15cb3b96a8fb6a34ae77f2e92d31239acf39df5d7e7cac8b02fd198f4f1734bd")
    config, tensors = load_checkpoint(path)
    assert config == _PINNED_CONFIG
    assert set(tensors) == set(_PINNED_TENSORS)
    for name, value in _PINNED_TENSORS.items():
        np.testing.assert_array_equal(tensors[name], value)


def _damaged_copies(blob: bytes):
    """(proper prefix?, bytes) for every proper prefix of ``blob`` and every
    single-byte XOR of it with 0x01, 0x80 and 0xFF."""
    for n in range(len(blob)):
        yield True, blob[:n]
    for i in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            yield False, bytes(flipped)


@pytest.mark.parametrize("artifact", ["checkpoint", "episodes"])
def test_damaged_file_loads_or_is_corrupt(tmp_path, artifact):
    """Truncated or bit-flipped, a file either loads or raises
    CorruptionError (exit 3 from the CLI), never another exception. A
    truncated file never loads."""
    path = tmp_path / "artifact.bin"
    if artifact == "checkpoint":
        save_checkpoint(path, _PINNED_CONFIG, _PINNED_TENSORS)
        load, size = load_checkpoint, 152
    else:
        write_episodes(BenchmarkSpec(class_count=2, capacity=3, grid_rows=2,
                                     grid_cols=2, feature_dim=4, objects_min=1,
                                     objects_max=1, shots=1), 2, path)
        load, size = read_episodes, 913
    blob = path.read_bytes()
    assert len(blob) == size
    for prefix, damaged in _damaged_copies(blob):
        path.write_bytes(damaged)
        try:
            load(path)
        except CorruptionError:
            continue
        assert not prefix, f"a {len(damaged)}-byte prefix loaded"


@pytest.mark.parametrize("offset, mask, field", [
    (0, 0x01, "magic: bad magic"),
    (12, 0x01, "config record: not JSON"),
    (48, 0x80, "tensor 0 name: not UTF-8"),
    (49, 0xFF, "extents of 'b': truncated"),
    (60, 0x80, "values of 'b': truncated"),
    (-1, None, "values of 'w.x': truncated"),
], ids=["magic", "config-not-json", "name-not-utf8", "rank-past-end",
        "extent-past-end", "short-values"])
def test_corruption_names_the_artifact_and_field(tmp_path, offset, mask, field):
    path = tmp_path / "pinned.fdck"
    save_checkpoint(path, _PINNED_CONFIG, _PINNED_TENSORS)
    blob = bytearray(path.read_bytes())
    if mask is None:
        del blob[offset:]
    else:
        blob[offset] ^= mask
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"checkpoint {path}: {field}")


def test_deeply_nested_config_record_is_corrupt(tmp_path):
    payload = b"[" * 100_000
    path = tmp_path / "nested.fdck"
    path.write_bytes(b"FDCK" + struct.pack("<II", 1, len(payload)) + payload)
    with pytest.raises(CorruptionError, match="config record: not JSON"):
        load_checkpoint(path)


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

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


_CLI_CONFIG = {
    "benchmark": {"class_count": 2, "shots": 3, "capacity": 3, "grid_rows": 4,
                  "grid_cols": 4, "feature_dim": 8, "objects_min": 1,
                  "objects_max": 2},
    "model": {"d": 8, "heads": 2, "encoder_layers": 1, "decoder_layers": 1,
              "num_object_queries": 4},
    "training": {"steps": 4, "fine_tune_steps": 1, "fine_tune_episodes": 1,
                 "eval_episodes": 2, "log_interval": 2},
    "ablate_seeds": [0],
}


def _artifact_writer(save, tmp_path):
    """(path, write(value)) for one artifact writer; ``value`` changes what
    is written."""
    if save == "checkpoint":
        path = tmp_path / "model.bin"
        return path, lambda value: save_checkpoint(
            path, {"step": value}, {"w": np.full((64, 64), value)})
    if save == "run_checkpoint":
        from fewdet.config import run_config_from_dict
        from fewdet.harness import TrainResult, save_run_checkpoint
        from fewdet.model import zero_model_state
        from fewdet.optim import AdamState

        path = tmp_path / "run.fdck"
        run = run_config_from_dict(_CLI_CONFIG)
        state = zero_model_state(run.resolved_model())

        def write(value):
            for p in state.params.values():
                p.data[...] = value
            save_run_checkpoint(path, run, TrainResult(state, AdamState(), state.cfg,
                                                       int(value)))
        return path, write
    if save == "episodes":
        from fewdet.episodes import BenchmarkSpec, write_episodes
        path = tmp_path / "episodes.bin"
        return path, lambda value: write_episodes(BenchmarkSpec(), int(value), path)

    import yaml
    from fewdet import cli

    out = tmp_path / "out"
    config = tmp_path / "run.yaml"

    def run(verb, *argv, value=1.0):
        # The value reaches the artifact through settings the verbs read.
        training = {**_CLI_CONFIG["training"], "eval_start_index": 10_000 + int(value)}
        config.write_text(yaml.safe_dump({**_CLI_CONFIG, "out_dir": str(out),
                                          "seed": int(value), "training": training}))
        args = cli.build_parser().parse_args([verb, "--config", str(config), *argv])
        return getattr(cli, f"cmd_{verb}")(args)

    if save == "manifest":
        return (out / "episodes_train.manifest.json",
                lambda value: run("gen", "--count", str(int(value))))
    if save == "eval_report":
        run("train")
        ckpt = str(out / "checkpoint.fdck")
        return (out / "eval_report.json",
                lambda value: run("eval", "--checkpoint", ckpt, value=value))
    assert save == "ablation"
    return out / "ablation.json", lambda value: run("ablate", value=value)


@pytest.mark.parametrize("save", ["checkpoint", "run_checkpoint", "episodes",
                                  "manifest", "eval_report", "ablation"])
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


@pytest.fixture(scope="module")
def tiny_trained():
    """(run, result) of a two-step training run on a tiny benchmark."""
    from fewdet.config import RunConfig, TrainingConfig
    from fewdet.harness import train_run
    import dataclasses

    run = RunConfig(
        benchmark=dataclasses.replace(RunConfig().benchmark, class_count=2,
                                      capacity=3, grid_rows=4, grid_cols=4,
                                      feature_dim=8),
        model=dataclasses.replace(RunConfig().model, d=8, heads=2,
                                  encoder_layers=1, decoder_layers=1,
                                  num_object_queries=3),
        training=TrainingConfig(steps=2, fine_tune_steps=0))
    with pytest.warns(RuntimeWarning, match="more ground truths"):
        result = train_run(run)
    return run, result


def test_checkpoint_with_retired_score_threshold_loads(tmp_path, tiny_trained):
    """Older checkpoints carry keys since retired: training.score_threshold,
    the derived model keys and the Adam constants. They still load, and the
    keys are dropped."""
    import dataclasses
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    run, result = tiny_trained
    config, tensors = checkpoint_payload(run, result)
    config["run"]["training"]["score_threshold"] = 0.5
    config["run"]["model"] = dataclasses.asdict(run.resolved_model())
    assert "learning_rate" not in config["adam"]
    config["adam"].update(learning_rate=result.cfg.learning_rate,
                          beta1=0.9, beta2=0.999, epsilon=1e-8)
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)

    run2, result2 = load_run_checkpoint(path)
    assert run2 == run
    assert result2.opt.learning_rate == result.cfg.learning_rate
    for name in result.state.names():
        np.testing.assert_array_equal(result2.state.params[name].data,
                                      result.state.params[name].data)


def test_checkpoint_with_other_adam_constant_is_corrupt(tmp_path, tiny_trained):
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["adam"].update(beta1=0.8, beta2=0.999, epsilon=1e-8)
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match="beta1"):
        load_run_checkpoint(path)


def test_checkpoint_with_other_adam_learning_rate_is_corrupt(tmp_path, tiny_trained):
    """The model's rate is the one the optimiser steps at: a legacy Adam
    record with another rate is refused, naming both."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["adam"]["learning_rate"] = 0.5
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)
    rate = config["variant_model"]["learning_rate"]
    with pytest.raises(CorruptionError,
                       match=rf"adam learning_rate is 0\.5, the optimiser uses {rate}"):
        load_run_checkpoint(path)


def legacy_payload(run, result) -> tuple[dict, dict]:
    """The per-parameter run checkpoint written before checkpoints stored
    flat buffers: one tensor per parameter and per Adam moment, and no
    ``moments`` field."""
    import dataclasses
    from fewdet.config import run_config_to_dict

    config = {"run": run_config_to_dict(run), "step": result.steps_done,
              "adam": {"step_count": result.opt.step_count},
              "variant_model": dataclasses.asdict(result.cfg)}
    tensors = {name: p.data for name, p in result.state.params.items()}
    for name, m in result.opt.first_moment.items():
        tensors[f"adam.m.{name}"] = m
    for name, v in result.opt.second_moment.items():
        tensors[f"adam.v.{name}"] = v
    return config, tensors


@pytest.mark.parametrize("name, change", [
    ("embed.bias", lambda t: t.update({"embed.bias": np.zeros(1)})),
    ("adam.v.embed.weight",
     lambda t: t.update({"adam.v.embed.weight": np.zeros((8, 7))})),
    ("adam.m.not.a.param", lambda t: t.update({"adam.m.not.a.param": np.zeros(8),
                                               "adam.v.not.a.param": np.zeros(8)})),
    ("embed.bias", lambda t: t.pop("adam.v.embed.bias")),
], ids=["param-shape", "moment-shape", "moment-name", "moment-unpaired"])
def test_checkpoint_tensor_that_does_not_fit_the_config_is_corrupt(
        tmp_path, tiny_trained, name, change):
    """Shapes are checked, not only names: numpy broadcasting would let a
    model run on a wrongly shaped tensor. Per-parameter layout."""
    from fewdet.harness import load_run_checkpoint

    config, tensors = legacy_payload(*tiny_trained)
    tensors = dict(tensors)
    change(tensors)
    path = tmp_path / "bad.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match=re.escape(f"'{name}'")):
        load_run_checkpoint(path)


def _short_params(config, tensors):
    tensors["params"] = tensors["params"][:-1]
    return "'params' has shape"


def _no_second_moments(config, tensors):
    del tensors["adam.v"]
    return "missing ['adam.v']"


def _unknown_moment(config, tensors):
    config["moments"].append("not.a.param")
    return "moments: 'not.a.param' is not a parameter"


def _repeated_moment(config, tensors):
    config["moments"].append(config["moments"][0])
    return f"moments: '{config['moments'][0]}' appears twice"


def _moments_not_names(config, tensors):
    config["moments"] = 3
    return "moments is not a list of names"


@pytest.mark.parametrize("change", [_short_params, _no_second_moments,
                                    _unknown_moment, _repeated_moment,
                                    _moments_not_names],
                         ids=["buffer-length", "missing-buffer", "unknown-moment",
                              "repeated-moment", "moments-not-names"])
def test_flat_checkpoint_that_does_not_fit_the_config_is_corrupt(
        tmp_path, tiny_trained, change):
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    tensors = dict(tensors)
    offender = change(config, tensors)
    path = tmp_path / "bad.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match=re.escape(offender)):
        load_run_checkpoint(path)


def _state_bytes(result) -> dict:
    """Every parameter and Adam moment as bytes, by kind and name, and the
    step counts."""
    return {"p": {n: p.data.tobytes() for n, p in result.state.params.items()},
            "m": {n: m.tobytes() for n, m in result.opt.first_moment.items()},
            "v": {n: v.tobytes() for n, v in result.opt.second_moment.items()},
            "steps": (result.steps_done, result.opt.step_count)}


@pytest.mark.parametrize("variant", ["+OBD+OOD", "baseline"])
def test_per_parameter_checkpoint_loads_as_the_flat_one(tmp_path, variant):
    """A checkpoint in the per-parameter layout loads to the same state as
    the flat checkpoint of the same run."""
    from fewdet.config import run_config_from_dict
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint, train_run
    from fewdet.model import ablation_variant

    run = run_config_from_dict(_CLI_CONFIG)
    result = train_run(run, cfg=ablation_variant(run.resolved_model(), variant))
    flat, legacy = tmp_path / "flat.fdck", tmp_path / "legacy.fdck"
    save_run_checkpoint(flat, run, result)
    save_checkpoint(legacy, *legacy_payload(run, result))
    (run_flat, from_flat), (run_legacy, from_legacy) = (
        load_run_checkpoint(flat), load_run_checkpoint(legacy))
    assert run_flat == run_legacy == run
    assert _state_bytes(from_flat) == _state_bytes(from_legacy) == _state_bytes(result)
    if variant == "baseline":  # the background token never has a gradient
        assert "obd.background_token" not in from_legacy.opt.first_moment
        assert "obd.background_token" not in from_legacy.opt.second_moment


def _pinned_run():
    """A run, and a tiny model after one Adam step on fixed gradients (all
    but the background token), so its checkpoint's bytes depend on no
    matrix product."""
    from fewdet.config import run_config_from_dict
    from fewdet.harness import TrainResult
    from fewdet.model import init_model_state
    from fewdet.optim import AdamState, adam_step

    run = run_config_from_dict(_CLI_CONFIG)
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    opt = AdamState(learning_rate=cfg.learning_rate)
    adam_step(state.params, {name: np.full(p.data.shape, 0.25)
                             for name, p in state.params.items()
                             if name != "obd.background_token"}, opt)
    return run, TrainResult(state=state, opt=opt, cfg=cfg, steps_done=1)


def test_written_run_checkpoint_bytes_are_pinned(tmp_path):
    """A run checkpoint is three flat buffers and a ``moments`` list; a
    parameter without moments is zeros in both moment buffers."""
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint
    from fewdet.model import parameter_shapes

    run, result = _pinned_run()
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, result)
    blob = path.read_bytes()
    assert len(blob) == 48688
    assert hashlib.sha256(blob).hexdigest() == (
        "8e8a35951cbd0c7845972a6decd349118def832c6fbae22b1abe1156bccc1ef7")
    config, tensors = load_checkpoint(path)
    names = list(parameter_shapes(result.cfg))
    assert config["moments"] == [n for n in names if n != "obd.background_token"]
    size = sum(p.data.size for p in result.state.params.values())
    assert {k: v.shape for k, v in tensors.items()} == {
        "params": (size,), "adam.m": (size,), "adam.v": (size,)}
    token = names.index("obd.background_token")
    start = sum(result.state.params[n].data.size for n in names[:token])
    token_size = result.state.params["obd.background_token"].data.size
    for key in ("adam.m", "adam.v"):
        assert not tensors[key][start:start + token_size].any()
    _, loaded = load_run_checkpoint(path)
    assert _state_bytes(loaded) == _state_bytes(result)


def test_model_without_moments_round_trips(tmp_path):
    """A model that has not taken a step yet has no moments: the buffers are
    packed for the save, the state is left as it was."""
    from fewdet.config import run_config_from_dict
    from fewdet.harness import TrainResult, load_run_checkpoint, save_run_checkpoint
    from fewdet.model import init_model_state
    from fewdet.optim import AdamState

    run = run_config_from_dict(_CLI_CONFIG)
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    kept = {n: p.data for n, p in state.params.items()}
    result = TrainResult(state=state, opt=AdamState(learning_rate=cfg.learning_rate),
                         cfg=cfg, steps_done=0)
    path = tmp_path / "fresh.fdck"
    save_run_checkpoint(path, run, result)
    assert all(state.params[n].data is kept[n] for n in kept)
    config, tensors = load_checkpoint(path)
    assert config["moments"] == []
    assert not tensors["adam.m"].any() and not tensors["adam.v"].any()
    _, loaded = load_run_checkpoint(path)
    assert _state_bytes(loaded) == _state_bytes(result)
    assert loaded.opt.first_moment == {} and loaded.opt.second_moment == {}


def test_parameters_out_of_layout_order_are_refused(tmp_path, tiny_trained):
    """The buffers carry no names: parameters in another order than the
    config's layout would load shuffled, so they are not saved."""
    import dataclasses
    from fewdet.errors import ShapeError
    from fewdet.harness import save_run_checkpoint
    from fewdet.model import ModelState

    run, result = tiny_trained
    state = ModelState(dict(reversed(result.state.params.items())), result.cfg)
    path = tmp_path / "shuffled.fdck"
    with pytest.raises(ShapeError, match="the model config lays out"):
        save_run_checkpoint(path, run, dataclasses.replace(result, state=state))
    assert not path.exists()
