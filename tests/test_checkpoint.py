import hashlib
import io
import json
import re
import struct

import numpy as np
import pytest

from fewdet.checkpoint import load_checkpoint, save_checkpoint
from fewdet.episodes import BenchmarkSpec, read_episodes, write_episodes
from fewdet.errors import CorruptionError


def test_tensor_container_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(3, 4)),
        "b.vector": rng.normal(size=7),
        "c.scalarish": np.array(3.25),
        "d.cube": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "tensors.fdck"
    save_checkpoint(path, {}, tensors)
    _, loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, value in tensors.items():
        np.testing.assert_array_equal(loaded[name], value)
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


def test_duplicate_tensor_name_is_corrupt(tmp_path):
    path = tmp_path / "twice.fdck"
    save_checkpoint(path, {}, {"wa": np.zeros(2), "wb": np.zeros(2)})
    blob = path.read_bytes()
    assert blob.count(b"wb") == 1
    path.write_bytes(blob.replace(b"wb", b"wa"))
    with pytest.raises(CorruptionError, match="tensor 1 name: duplicate name 'wa'"):
        load_checkpoint(path)


def test_empty_tensor_with_an_extent_past_numpy_is_corrupt(tmp_path):
    """Zero values need no bytes, but an extent numpy cannot allocate is
    still refused by name, not raised as numpy's ValueError."""
    payload = b"{}"
    path = tmp_path / "extent.fdck"
    path.write_bytes(b"FDCK" + struct.pack("<II", 1, len(payload)) + payload
                     + b"FDNT" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack("<I2Q", 2, 0, 2 ** 63))
    with pytest.raises(CorruptionError, match=r"values of 'w': shape .* does not decode"):
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


@pytest.mark.parametrize("record, key, value", [
    ("training", "score_threshold", 0.5),
    ("model", "input_dim", 8),
    ("adam", "beta1", 0.9),
], ids=["score-threshold", "derived-model-key", "adam-constant"])
def test_checkpoint_with_retired_key_is_refused(tmp_path, tiny_trained,
                                                record, key, value):
    """Keys that older checkpoints carried are refused, each by name, even
    with the value the program would use: ``training.score_threshold``, a
    derived model key and an Adam constant."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    (config["adam"] if record == "adam" else config["run"][record])[key] = value
    path = tmp_path / "retired.fdck"
    save_checkpoint(path, config, tensors)
    where = record if record == "adam" else f"run.{record}"
    with pytest.raises(CorruptionError, match=rf"'{where}'.*\b{key}\b"):
        load_run_checkpoint(path)


@pytest.mark.parametrize("run_record", [[], "run", 3, None],
                         ids=["list", "string", "int", "null"])
def test_checkpoint_whose_run_is_not_a_mapping_is_corrupt(tmp_path, tiny_trained,
                                                          run_record):
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["run"] = run_record
    path = tmp_path / "bad-run.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match="malformed checkpoint config: "
                                              "configuration root must be a mapping"):
        load_run_checkpoint(path)


def test_checkpoint_with_other_adam_constant_is_corrupt(tmp_path, tiny_trained):
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["adam"].update(beta1=0.8, beta2=0.999, epsilon=1e-8)
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match="beta1"):
        load_run_checkpoint(path)


def test_checkpoint_with_other_adam_learning_rate_is_corrupt(tmp_path, tiny_trained):
    """The model's rate is the one the optimiser steps at: an Adam record
    that carries a rate of its own is refused, naming the key."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["adam"]["learning_rate"] = 0.5
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError,
                       match=r"unknown key\(s\) in 'adam': \['learning_rate'\]"):
        load_run_checkpoint(path)


@pytest.mark.parametrize("value", [2.5, 7.9, -1, True])
@pytest.mark.parametrize("field", ["step", "adam.step_count"])
def test_step_counter_that_is_not_a_count_is_corrupt(tmp_path, tiny_trained,
                                                     field, value):
    """Step counters load as non-negative JSON integers or not at all: not
    truncated, not as a fraction a resumed run would bias-correct with."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    record = config["adam"] if field == "adam.step_count" else config
    record[field.split(".")[-1]] = value
    path = tmp_path / "counter.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError,
                       match=rf"{field} is {value!r}, not a non-negative integer"):
        load_run_checkpoint(path)


@pytest.mark.parametrize("field, value, kind", [
    ("training.steps", 2.5, "an integer"), ("benchmark.grid_rows", "4", "an integer"),
    ("model.d", 8.0, "an integer"), ("model.weights.giou", True, "a number"),
], ids=["training", "benchmark", "model", "model-weights"])
def test_bad_nested_run_value_is_named_by_its_full_path(tmp_path, tiny_trained,
                                                        field, value, kind):
    """A bad value in a section of the run record is named by its path
    from the record's root, ``run.`` included, as a top-level one is."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    *sections, key = field.split(".")
    record = config["run"]
    for section in sections:
        record = record[section]
    record[key] = value
    path = tmp_path / "nested.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError,
                       match=rf": run\.{re.escape(field)} must be {kind}, not {value!r}"):
        load_run_checkpoint(path)


def test_run_out_dir_that_is_not_a_string_is_corrupt(tmp_path, tiny_trained):
    """The run record's ``out_dir`` loads as a JSON string or not at all:
    not as a number that ``eval`` later fails to build a path from."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    config["run"]["out_dir"] = 5
    path = tmp_path / "run.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match=r"run\.out_dir must be a string, not 5"):
        load_run_checkpoint(path)


def legacy_payload(run, result) -> tuple[dict, dict]:
    """The per-parameter run checkpoint written before checkpoints stored
    flat buffers: one tensor per parameter and per Adam moment, the model
    config as ``variant_model``, and no ``variant`` field."""
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


def _short_params(config, tensors):
    tensors["params"] = tensors["params"][:-1]
    return "'params' has shape"


def _short_first_moments(config, tensors):
    tensors["adam.m"] = tensors["adam.m"][:-1]
    return "'adam.m' has shape"


def _no_second_moments(config, tensors):
    del tensors["adam.v"]
    return "missing ['adam.v']"


@pytest.mark.parametrize("change", [_short_params, _short_first_moments,
                                    _no_second_moments],
                         ids=["buffer-length", "moment-length", "missing-buffer"])
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


def _rewrite_config_record(path, change) -> None:
    """Apply ``change`` to the config record of the checkpoint at ``path``
    and rewrite the record and its length prefix; the tensors' bytes stay
    as they are."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    config = json.loads(blob[12:12 + length])
    change(config)
    record = json.dumps(config, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(record)) + record
                     + blob[12 + length:])


def test_config_larger_than_the_buffers_is_corrupt(tmp_path, tiny_trained, capsys):
    """A config record whose model is far larger than the buffers the file
    holds is refused before anything is sized from it: a CorruptionError,
    exit 3 from the CLI, not a failed allocation."""
    from fewdet.cli import main
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint

    path = tmp_path / "huge.fdck"
    save_run_checkpoint(path, *tiny_trained)
    _rewrite_config_record(path, lambda config: config["run"]["model"].update(
        d=4_000_000))
    with pytest.raises(CorruptionError, match="'params' has shape"):
        load_run_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "'params' has shape" in err


@pytest.mark.parametrize("layers", ["encoder_layers", "decoder_layers"])
def test_layer_count_larger_than_the_buffers_is_corrupt(tmp_path, tiny_trained,
                                                        capsys, monkeypatch, layers):
    """A record with about 10^9 layers is refused while its layout is made,
    once it sizes more values than the file holds: the whole shape table,
    which would not fit in memory, is never built."""
    from fewdet import harness, model
    from fewdet.cli import main

    path = tmp_path / "deep.fdck"
    harness.save_run_checkpoint(path, *tiny_trained)
    _rewrite_config_record(path, lambda config: config["run"]["model"].update(
        {layers: 10 ** 9}))

    def refuse(cfg):
        raise AssertionError(f"parameter_shapes built for {cfg.encoder_layers} "
                             f"encoder and {cfg.decoder_layers} decoder layers")

    for module in (harness, model):  # harness imported it by name once
        monkeypatch.setattr(module, "parameter_shapes", refuse, raising=False)
    with pytest.raises(CorruptionError, match="'params' has shape"):
        harness.load_run_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "'params' has shape" in err


class _ShortReads(io.BufferedReader):
    """A file whose ``readinto`` fills all but the last byte it is asked
    for, as a file cut short while it is read would."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:-1])


def test_short_read_is_corrupt(tmp_path, tiny_trained, monkeypatch):
    """A read that returns fewer bytes than it asked for is a truncation
    that names the field, not values left as they were."""
    from fewdet import checkpoint
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint

    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, *tiny_trained)
    monkeypatch.setattr(checkpoint, "open", raising=False,
                        value=lambda name, mode: _ShortReads(io.FileIO(name, mode[0])))
    with pytest.raises(CorruptionError, match=re.escape(
            f"checkpoint {path}: values of 'adam.m': truncated")):
        load_run_checkpoint(path)


def _state_bytes(result) -> dict:
    """Every parameter and Adam moment as bytes, by kind and name, and the
    step counts."""
    return {"p": {n: p.data.tobytes() for n, p in result.state.params.items()},
            "m": {n: m.tobytes() for n, m in result.opt.first_moment.items()},
            "v": {n: v.tobytes() for n, v in result.opt.second_moment.items()},
            "steps": (result.steps_done, result.opt.step_count)}


_PER_PARAMETER = re.escape(
    "the config record has keys ['adam', 'run', 'step', 'variant_model'] and "
    "lacks ['variant']; a run checkpoint's record holds exactly ['adam', 'run', "
    "'step', 'variant']")


@pytest.mark.parametrize("variant", ["+OBD+OOD", "baseline"])
def test_per_parameter_checkpoint_is_refused(tmp_path, variant):
    """A checkpoint in the per-parameter layout, which nothing writes any
    more, is refused with an error that names the layout."""
    from fewdet.config import run_config_from_dict
    from fewdet.harness import load_run_checkpoint, train_run
    from fewdet.model import ablation_variant

    run = run_config_from_dict(_CLI_CONFIG)
    result = train_run(run, cfg=ablation_variant(run.resolved_model(), variant))
    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, *legacy_payload(run, result))
    with pytest.raises(CorruptionError, match=_PER_PARAMETER):
        load_run_checkpoint(path)


@pytest.mark.parametrize("verb", ["eval", "train"])
def test_cli_on_a_per_parameter_checkpoint_exits_3(tmp_path, tiny_trained, capsys,
                                                   verb):
    from fewdet.cli import main

    path = tmp_path / "legacy.fdck"
    save_checkpoint(path, *legacy_payload(*tiny_trained))
    assert main([verb, "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert re.search(_PER_PARAMETER, err)
    assert [p.name for p in tmp_path.iterdir()] == ["legacy.fdck"]


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
    """A run checkpoint is three flat buffers and a record naming the
    variant; a parameter that never had a gradient is zeros in both moment
    buffers."""
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint
    from fewdet.model import parameter_shapes

    run, result = _pinned_run()
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, result)
    blob = path.read_bytes()
    assert len(blob) == 47585
    assert hashlib.sha256(blob).hexdigest() == (
        "8a1220d5a082e47b93c32c64542513030fec2d405e1d3f6abfe65592e07939f2")
    config, tensors = load_checkpoint(path)
    names = list(parameter_shapes(result.cfg))
    assert config["variant"] == "+OBD+OOD"
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
    """A model that has not taken a step yet has all-zero moments: the save
    binds the optimizer, whose moment dicts then hold every parameter, and
    leaves the parameters as they were."""
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
    _, tensors = load_checkpoint(path)
    assert not tensors["adam.m"].any() and not tensors["adam.v"].any()
    _, loaded = load_run_checkpoint(path)
    assert _state_bytes(loaded) == _state_bytes(result)
    for opt in (result.opt, loaded.opt):
        for moments in (opt.first_moment, opt.second_moment):
            assert list(moments) == list(kept)
            assert not any(m.any() for m in moments.values())


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


# -- the record: each fact once ------------------------------------------------------


def _variant_run(variant, ood_weight=1.0):
    """A tiny run and a one-step model of ``variant``, the run's model at
    ``ood_weight``."""
    import dataclasses
    from fewdet.config import run_config_from_dict
    from fewdet.harness import train_run
    from fewdet.model import ablation_variant

    run = run_config_from_dict(_CLI_CONFIG)
    run = dataclasses.replace(
        run, model=dataclasses.replace(run.model, ood_weight=ood_weight),
        training=dataclasses.replace(run.training, steps=1, fine_tune_steps=0))
    return run, train_run(run, cfg=ablation_variant(run.resolved_model(), variant))


@pytest.mark.parametrize("variant, ood_weight, named", [
    ("baseline", 1.0, "baseline"), ("+OBD", 1.0, "+OBD"),
    ("+OBD+OOD", 1.0, "+OBD+OOD"), ("+OBD+OOD", 0.0, "+OBD"),
], ids=["baseline", "+OBD", "+OBD+OOD", "+OBD+OOD-ood-weight-0"])
def test_record_names_the_variant_and_loads_its_config(tmp_path, variant,
                                                       ood_weight, named):
    """The record holds exactly ``adam``, ``run``, ``step`` and ``variant``:
    the first variant whose config is the saved one. The loaded config is
    that variant of the run's model, equal to the saved config, and the
    state round-trips bit for bit. With ``ood_weight`` 0, ``+OBD+OOD`` and
    ``+OBD`` are one config, named ``+OBD``."""
    from fewdet.harness import load_run_checkpoint, save_run_checkpoint
    from fewdet.model import ablation_variant

    run, result = _variant_run(variant, ood_weight)
    path = tmp_path / "run.fdck"
    save_run_checkpoint(path, run, result)
    config, _ = load_checkpoint(path)
    assert sorted(config) == ["adam", "run", "step", "variant"]
    assert config["variant"] == named
    loaded_run, loaded = load_run_checkpoint(path)
    assert loaded_run == run
    assert loaded.cfg == ablation_variant(run.resolved_model(), named) == result.cfg
    assert _state_bytes(loaded) == _state_bytes(result)


def test_saving_a_config_that_is_no_variant_of_the_run_is_refused(tmp_path):
    """A model config that no variant of the run's model gives could not be
    rebuilt from the record: a ConfigError, and nothing is written."""
    import dataclasses
    from fewdet.errors import ConfigError
    from fewdet.harness import save_run_checkpoint

    run, result = _variant_run("+OBD")
    other = dataclasses.replace(run, model=dataclasses.replace(run.model,
                                                               temperature=0.5))
    path = tmp_path / "run.fdck"
    with pytest.raises(ConfigError, match="none of the run's variants"):
        save_run_checkpoint(path, other, result)
    assert not path.exists()


def _parent_record(config):
    """The flat record before it named the variant: the model config as
    ``variant_model`` and a ``moments`` list."""
    import dataclasses
    from fewdet.config import run_config_from_dict
    from fewdet.model import ablation_variant

    run = run_config_from_dict(config["run"])
    cfg = ablation_variant(run.resolved_model(), config.pop("variant"))
    config["variant_model"] = dataclasses.asdict(cfg)
    config["moments"] = []
    return "keys ['adam', 'moments', 'run', 'step', 'variant_model'] and lacks ['variant']"


def _stray_key(config):
    config["note"] = "hello"
    return "keys ['adam', 'note', 'run', 'step', 'variant'] and lacks []"


def _no_variant(config):
    del config["variant"]
    return "keys ['adam', 'run', 'step'] and lacks ['variant']"


def _unknown_variant(config):
    config["variant"] = "+OOD"
    return "unknown ablation variant '+OOD'"


def _variant_not_a_name(config):
    config["variant"] = ["+OBD"]
    return "unknown ablation variant '['+OBD']'"


@pytest.mark.parametrize("change", [_parent_record, _stray_key, _no_variant,
                                    _unknown_variant, _variant_not_a_name],
                         ids=["parent-flat-record", "stray-key", "no-variant",
                              "unknown-variant", "variant-not-a-name"])
def test_record_other_than_the_four_keys_is_corrupt(tmp_path, tiny_trained, change):
    """Any key set but the four, an earlier flat record's included, and a
    variant that is not one of ``VARIANTS`` are a CorruptionError that says
    what is wrong."""
    from fewdet.harness import checkpoint_payload, load_run_checkpoint

    config, tensors = checkpoint_payload(*tiny_trained)
    offender = change(config)
    path = tmp_path / "record.fdck"
    save_checkpoint(path, config, tensors)
    with pytest.raises(CorruptionError, match=re.escape(offender)):
        load_run_checkpoint(path)


@pytest.mark.parametrize("verb", ["eval", "train"])
def test_cli_on_an_earlier_flat_checkpoint_exits_3(tmp_path, tiny_trained, capsys,
                                                   verb):
    """A checkpoint whose record still carries ``variant_model`` and
    ``moments`` exits 3, names both, and writes nothing."""
    from fewdet.cli import main
    from fewdet.harness import checkpoint_payload

    config, tensors = checkpoint_payload(*tiny_trained)
    _parent_record(config)
    path = tmp_path / "flat.fdck"
    save_checkpoint(path, config, tensors)
    assert main([verb, "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "'moments'" in err and "'variant_model'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["flat.fdck"]
