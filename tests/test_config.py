import dataclasses

import pytest
import yaml

from fewdet.config import (DERIVED_MODEL_KEYS, RunConfig, TrainingConfig,
                           load_run_config, run_config_from_dict,
                           run_config_to_dict)
from fewdet.episodes import BenchmarkSpec
from fewdet.errors import ConfigError
from fewdet.model import ModelConfig
from fewdet.set_head import Weights


def test_defaults_construct():
    run = load_run_config(None)
    assert run.seed == 0
    assert run.model.d == 64
    assert run.benchmark.class_count == 4


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        run_config_from_dict({"nonsense": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        run_config_from_dict({"model": {"depth": 3}})


def test_unknown_weights_key_rejected():
    with pytest.raises(ConfigError, match="weights"):
        run_config_from_dict({"model": {"weights": {"cls": 1.0, "l2": 3.0}}})


def test_weights_that_are_not_a_mapping_rejected():
    with pytest.raises(ConfigError, match="section 'model.weights' must be a mapping"):
        run_config_from_dict({"model": {"weights": 3}})


@pytest.mark.parametrize("root", [[], [{"seed": 1}], "seed: 1", 3, None],
                         ids=["empty-list", "list", "string", "int", "none"])
def test_root_that_is_not_a_mapping_rejected(root):
    with pytest.raises(ConfigError, match="configuration root must be a mapping"):
        run_config_from_dict(root)


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"seed": 5, "model": {"d": 32, "heads": 2}}))
    run = load_run_config(str(path))
    assert run.seed == 5 and run.model.d == 32


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"seed": 5}))
    run = load_run_config(str(path), overrides={"seed": 9})
    assert run.seed == 9


def test_empty_file_gives_the_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    assert load_run_config(str(path)) == RunConfig()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "absent.yaml"))


def test_malformed_yaml_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [unclosed")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


@pytest.mark.parametrize("text", ["- seed\n- 5\n", "5\n", "just text\n"],
                         ids=["list", "int", "string"])
def test_file_that_is_not_a_mapping_is_config_error(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"config file {path} must contain a mapping"):
        load_run_config(str(path))


def test_roundtrip_through_dict():
    run = load_run_config(None)
    data = run_config_to_dict(run)
    assert not set(data["model"]) & set(DERIVED_MODEL_KEYS)
    assert run_config_from_dict(data) == run


@pytest.mark.parametrize("key, source", [pytest.param(k, s, id=k) for k, s in (
    ("input_dim", "benchmark.feature_dim"),
    ("num_class_embeddings", "benchmark.class_count"),
    ("n_max", "benchmark.capacity"),
    ("seed", "top-level seed"),
    ("single_class_mode", "variant"),
)])
def test_derived_model_key_is_refused_naming_its_source(tmp_path, key, source):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"model": {key: 3}}))
    with pytest.raises(ConfigError, match=rf"{key} comes from .*{source}"):
        load_run_config(str(path))


def test_resolved_model_derives_benchmark_fields():
    run = run_config_from_dict({"benchmark": {"feature_dim": 24, "class_count": 3,
                                              "capacity": 4}})
    cfg = run.resolved_model()
    assert cfg.input_dim == 24
    assert cfg.num_class_embeddings == 6
    assert cfg.n_max == 4


@pytest.mark.parametrize("seeds, bad", [
    ([0, 0.5], "ablate_seeds\\[1\\] must be a non-negative integer, not 0.5"),
    ([True, 2], "ablate_seeds\\[0\\] must be a non-negative integer, not True"),
    ([1, 2, -3], "ablate_seeds\\[2\\] must be a non-negative integer, not -3"),
    (["7"], "ablate_seeds\\[0\\] must be a non-negative integer, not '7'"),
    (5, "ablate_seeds must be a list, not 5"),
    ([], "ablate_seeds must hold at least one seed"),
], ids=["fraction", "bool", "negative", "string", "not-a-list", "empty"])
def test_ablate_seed_that_is_not_a_seed_is_refused(tmp_path, seeds, bad):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"ablate_seeds": seeds}))
    with pytest.raises(ConfigError, match=bad):
        load_run_config(str(path))


@pytest.mark.parametrize("section, key, value", [
    pytest.param(section, f.name, value, id=f"{section}.{f.name}={value}")
    for section, cls in (("model", ModelConfig), ("benchmark", BenchmarkSpec),
                         ("training", TrainingConfig))
    for f in dataclasses.fields(cls)
    if f.type in ("int", "int | None", "float") and not (
        section == "model" and f.name in DERIVED_MODEL_KEYS)
    for value in (0, -1)])
def test_numeric_setting_loads_or_is_a_config_error(section, key, value):
    """Each int or float setting a file may give, set alone to 0 or -1,
    loads or raises ConfigError: a range check never trips over a value it
    has not checked yet (``heads: 0`` once divided by zero)."""
    try:
        run_config_from_dict({section: {key: value}})
    except ConfigError:
        pass


FLOAT_FIELDS = [
    (section, f.name)
    for section, cls in (("model", ModelConfig), ("benchmark", BenchmarkSpec),
                         ("training", TrainingConfig), ("model.weights", Weights))
    for f in dataclasses.fields(cls) if f.type == "float"]


def nested(section: str, key: str, value) -> dict:
    data = {key: value}
    for part in reversed(section.split(".")):
        data = {part: data}
    return data


@pytest.mark.parametrize("section, key", FLOAT_FIELDS,
                         ids=[f"{s}.{k}" for s, k in FLOAT_FIELDS])
def test_integer_too_large_for_a_float_is_refused(section, key):
    """An int a float cannot hold is refused naming the field; an int it
    can hold is kept as the int, so records written from it do not change."""
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be a finite "
                                          rf"number, not an integer too large for "
                                          rf"a float \(1329 bits\)$"):
        run_config_from_dict(nested(section, key, 10**400))
    cfg = run_config_from_dict(nested(section, key, 1))
    for part in (*section.split("."), key):
        cfg = getattr(cfg, part)
    assert type(cfg) is int and cfg == 1
