import pytest
import yaml

from fewdet.config import (RunConfig, load_run_config, run_config_from_dict,
                           run_config_to_dict)
from fewdet.errors import ConfigError


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


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "absent.yaml"))


def test_malformed_yaml_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [unclosed")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


def test_roundtrip_through_dict():
    run = load_run_config(None)
    again = run_config_from_dict(run_config_to_dict(run))
    assert again == run


def test_resolved_model_derives_benchmark_fields():
    run = run_config_from_dict({"benchmark": {"feature_dim": 24, "class_count": 3,
                                              "capacity": 4}})
    cfg = run.resolved_model()
    assert cfg.input_dim == 24
    assert cfg.num_class_embeddings == 6
    assert cfg.n_max == 4
