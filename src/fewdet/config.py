"""Run configuration: one YAML file with nested sections, every field
defaulted, unknown keys rejected. Precedence is flags > file > defaults;
the CLI passes its flag overrides into :func:`load_run_config`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .episodes import BenchmarkSpec
from .errors import ConfigError
from .model import ModelConfig
from .set_head import Weights


@dataclass(frozen=True)
class TrainingConfig:
    steps: int = 2000
    fine_tune_steps: int = 400
    fine_tune_episodes: int = 20
    eval_episodes: int = 50
    eval_start_index: int = 10_000
    log_interval: int = 50
    overfit_episode: int | None = None

    def __post_init__(self):
        if self.steps < 0 or self.fine_tune_steps < 0:
            raise ConfigError("step counts must be non-negative")
        if self.fine_tune_steps > 0 and self.fine_tune_episodes < 1:
            raise ConfigError("fine_tune_episodes must be >= 1 when fine-tuning")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    ablate_seeds: tuple[int, ...] = (0, 1, 2)
    model: ModelConfig = field(default_factory=ModelConfig)
    benchmark: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def resolved_model(self) -> ModelConfig:
        """Model config with the fields that must agree with the benchmark
        (input dim, class-embedding rows, support sequence length) derived
        from it."""
        return dataclasses.replace(
            self.model,
            input_dim=self.benchmark.feature_dim,
            num_class_embeddings=2 * self.benchmark.class_count,
            n_max=self.benchmark.capacity,
            seed=self.seed if self.model.seed == 0 else self.model.seed)


_SECTION_TYPES = {
    "model": ModelConfig,
    "benchmark": BenchmarkSpec,
    "training": TrainingConfig,
}
_TOP_LEVEL_SCALARS = {"seed", "out_dir", "ablate_seeds"}


def _build_section(cls, values: dict, section: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")
    if cls is ModelConfig and "weights" in values:
        w = values["weights"]
        walowed = {f.name for f in dataclasses.fields(Weights)}
        wunknown = set(w) - walowed
        if wunknown:
            raise ConfigError(f"unknown key(s) in 'model.weights': {sorted(wunknown)}")
        values = dict(values)
        values["weights"] = Weights(**w)
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"bad value in '{section}': {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - set(_SECTION_TYPES) - _TOP_LEVEL_SCALARS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    for key in _TOP_LEVEL_SCALARS:
        if key in data:
            value = data[key]
            kwargs[key] = tuple(value) if key == "ablate_seeds" else value
    for section, cls in _SECTION_TYPES.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"section '{section}' must be a mapping")
            kwargs[section] = _build_section(cls, data[section], section)
    return RunConfig(**kwargs)


def run_config_to_dict(cfg: RunConfig) -> dict:
    data = dataclasses.asdict(cfg)
    data["ablate_seeds"] = list(cfg.ablate_seeds)
    return data


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_run_config(path: str | None = None,
                    overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with the YAML file (if given), overlaid with the
    flag overrides (if given)."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        data = loaded
    if overrides:
        data = _deep_merge(data, overrides)
    return run_config_from_dict(data)
