"""Run configuration: one YAML file with nested sections, every field
defaulted, unknown keys rejected. Precedence is flags > file > defaults;
the CLI passes its flag overrides into :func:`load_run_config`.

Seeds: the top-level ``seed`` initialises the model, ``benchmark.seed``
generates the episodes, and ``ablate_seeds`` seed the ablation's models.
Every setting has one source: a file that sets a ``model`` key derived from
another setting (``DERIVED_MODEL_KEYS``) gets a ConfigError naming it, and
so does an integer setting that is not a YAML integer (``2.5``, ``true``),
a float setting that is not a YAML number (``"0.001"``, ``true``) or is an
integer too large for a float (``10**400``), a string
setting that is not a YAML string (``out_dir: 5``), a value
out of its range (checked by each section's ``__post_init__``; a float must
be finite), an empty ``ablate_seeds`` or an entry of it that is not a
non-negative integer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

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
        for name in ("eval_episodes", "log_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, not {getattr(self, name)}")
        for name in ("eval_start_index", "overfit_episode"):
            if (getattr(self, name) or 0) < 0:
                raise ConfigError(f"{name} must be >= 0, not {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    ablate_seeds: tuple[int, ...] = (0, 1, 2)
    model: ModelConfig = field(default_factory=ModelConfig)
    benchmark: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed}")
        if not self.ablate_seeds:
            raise ConfigError("ablate_seeds must hold at least one seed")
        for i, seed in enumerate(self.ablate_seeds):
            if type(seed) is not int or seed < 0:  # a bool is not a seed
                raise ConfigError(f"ablate_seeds[{i}] must be a non-negative "
                                  f"integer, not {seed!r}")

    def resolved_model(self) -> ModelConfig:
        """Model config with the fields that must agree with the benchmark
        (input dim, class-embedding rows, support sequence length) derived
        from it, seeded by the top-level seed."""
        return dataclasses.replace(
            self.model,
            input_dim=self.benchmark.feature_dim,
            num_class_embeddings=2 * self.benchmark.class_count,
            n_max=self.benchmark.capacity,
            seed=self.seed)


# ``model`` keys a config file may not set, and where each value comes from.
DERIVED_MODEL_KEYS = {
    "input_dim": "benchmark.feature_dim",
    "num_class_embeddings": "benchmark.class_count (twice it)",
    "n_max": "benchmark.capacity",
    "seed": "the top-level seed",
    "single_class_mode": "the variant (only baseline sets it)",
}


_SECTION_TYPES = {
    "model": ModelConfig,
    "benchmark": BenchmarkSpec,
    "training": TrainingConfig,
}
_TOP_LEVEL_SCALARS = {"seed", "out_dir", "ablate_seeds"}


def check_types(cls, values: dict, prefix: str) -> None:
    """ConfigError unless each of ``values`` that sets an int field of ``cls``
    is an int, each that sets a float field an int a float can hold or a
    float, never a bool, each that sets a bool field a bool and each that
    sets a str field a str (``f.type`` is a string: annotations are
    deferred)."""
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        if f.type in ("int", "int | None") and type(value) is not int and not (
                value is None and f.type != "int"):
            raise ConfigError(f"{prefix}{f.name} must be an integer, not {value!r}")
        if f.type == "float" and type(value) not in (int, float):
            raise ConfigError(f"{prefix}{f.name} must be a number, not {value!r}")
        if f.type == "float" and type(value) is int:
            try:
                float(value)  # the int itself is kept
            except OverflowError:
                raise ConfigError(f"{prefix}{f.name} must be a finite number, not an "
                                  f"integer too large for a float "
                                  f"({value.bit_length()} bits)") from None
        if f.type == "bool" and type(value) is not bool:
            raise ConfigError(f"{prefix}{f.name} must be a boolean, not {value!r}")
        if f.type == "str" and type(value) is not str:
            raise ConfigError(f"{prefix}{f.name} must be a string, not {value!r}")


def _build_section(cls, values: dict, section: str):
    """``cls`` built from ``values``; ``section`` is the full path of the
    section, and every error names it."""
    if not isinstance(values, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")
    derived = sorted(set(values) & set(DERIVED_MODEL_KEYS)) if cls is ModelConfig else []
    if derived:
        raise ConfigError(f"derived key(s) in '{section}' cannot be set: " + "; ".join(
            f"{key} comes from {DERIVED_MODEL_KEYS[key]}" for key in derived))
    if cls is ModelConfig and "weights" in values:
        values = {**values, "weights": _build_section(Weights, values["weights"],
                                                      f"{section}.weights")}
    check_types(cls, values, f"{section}.")
    return cls(**values)


def run_config_from_dict(data: dict, prefix: str = "") -> RunConfig:
    """The run config of ``data``; ``prefix`` is the path of ``data`` in a
    larger record (``"run."`` in a run checkpoint), and every error about a
    value names it with its full path."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - set(_SECTION_TYPES) - _TOP_LEVEL_SCALARS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    check_types(RunConfig, data, prefix)
    kwargs = {}
    for key in _TOP_LEVEL_SCALARS:
        if key in data:
            value = data[key]
            if key == "ablate_seeds":
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"{prefix}ablate_seeds must be a list, "
                                      f"not {value!r}")
                value = tuple(value)
            kwargs[key] = value
    for section, cls in _SECTION_TYPES.items():
        if section in data:
            kwargs[section] = _build_section(cls, data[section], prefix + section)
    return RunConfig(**kwargs)


def run_config_to_dict(cfg: RunConfig) -> dict:
    data = dataclasses.asdict(cfg)
    data["ablate_seeds"] = list(cfg.ablate_seeds)
    for key in DERIVED_MODEL_KEYS:
        del data["model"][key]
    return data


def load_run_config(path: str | None = None,
                    overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with the YAML file (if given), overlaid with the
    flag overrides (if given), which are top-level keys."""
    data: dict = {}
    if path is not None:
        import yaml  # only a config file needs the YAML parser

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
    return run_config_from_dict({**data, **(overrides or {})})
