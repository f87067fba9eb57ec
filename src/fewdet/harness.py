"""Training, evaluation, and ablation drivers shared by the CLI and tests.

Protocol: base-train on the train-split vocabulary with a fresh episode per
step, optionally fine-tune on a small fixed set of test-split episodes (the
k-shot regime: every episode's support is a k-shot mean), then evaluate on
held-out test-split episodes. The single-class baseline rotates the
supported class during training and fans one forward out per class during
evaluation.

Run checkpoints: a checkpoint (see :mod:`fewdet.checkpoint`) holding three
tensors, ``params``, ``adam.m`` and ``adam.v``, each one whole 1-D float64
buffer laid out as ``parameter_layout`` lays the model's parameters out
(see :mod:`fewdet.optim`). The config record holds exactly ``run``,
``step``, ``adam`` (``{"step_count": n}`` and nothing else) and
``variant``, each fact once: the model config is
``ablation_variant(run.resolved_model(), variant)``, and the writer names
the first of ``VARIANTS`` that gives the saved config (``+OBD`` when
``model.ood_weight`` is 0) or raises ConfigError. This is the one layout
:func:`load_run_checkpoint` reads: any other key set (the keys the record
has and lacks are named), an unknown variant, or a key that older records
carried in ``run`` or ``adam`` is a CorruptionError. The record is checked
against the buffers the file holds before anything is sized from it; then
one :func:`fewdet.optim.restore` call cuts the parameters and both Adam
moments from the three loaded buffers at the same offsets and binds the
optimizer to them: the loaded ``params`` buffer is the one the parameters
view.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, run_config_from_dict, run_config_to_dict
from .episodes import Episode, generate_episode
from .errors import ConfigError, CorruptionError, ShapeError
from .metrics import Detection, EvalReport, GtRecord, evaluate_detections
from .model import (VARIANTS, ModelConfig, ModelState, ablation_variant,
                    forward, init_model_state, parameter_layout, run_inference,
                    train_step, training_episode)
from .obd import background_attention_mass, head_average
from .ood import min_interclass_separation
from .optim import AdamState, flat_buffers, restore
from .tensor import no_grad

# Evaluation keeps every query's best guess, so precision/recall curves are
# not truncated; the CLI's eval report records this value.
EVAL_SCORE_THRESHOLD = 0.0


@dataclass
class TrainResult:
    state: ModelState
    opt: AdamState
    cfg: ModelConfig
    steps_done: int
    history: list[dict] = field(default_factory=list)


def _episode_for_step(run: RunConfig, step: int) -> Episode:
    """Base training consumes train-split episodes; the fine-tune phase
    cycles a fixed pool of test-split episodes."""
    t = run.training
    if t.overfit_episode is not None:
        return generate_episode(run.benchmark, t.overfit_episode, "train")
    if step < t.steps:
        return generate_episode(run.benchmark, step, "train")
    ft_index = (step - t.steps) % t.fine_tune_episodes
    return generate_episode(run.benchmark, ft_index, "test")


def train_run(run: RunConfig, cfg: ModelConfig | None = None,
              state: ModelState | None = None, opt: AdamState | None = None,
              start_step: int = 0, log_fh=None) -> TrainResult:
    cfg = cfg or run.resolved_model()
    state = state or init_model_state(cfg)
    opt = opt or AdamState(learning_rate=cfg.learning_rate)
    total_steps = run.training.steps + run.training.fine_tune_steps
    history = []
    for step in range(start_step, total_steps):
        ep = training_episode(_episode_for_step(run, step), cfg, step)
        breakdown = train_step(ep, state, opt, cfg)
        if step % run.training.log_interval == 0 or step == total_steps - 1:
            row = {"step": step, **breakdown.as_dict()}
            history.append(row)
            if log_fh is not None:
                log_fh.write(json.dumps(row) + "\n")
                log_fh.flush()
    return TrainResult(state=state, opt=opt, cfg=cfg,
                       steps_done=total_steps, history=history)


@dataclass
class EvalDiagnostics:
    """Attention/feature statistics collected alongside the metric sweep."""

    episodes_bg_dominant: int = 0
    episodes_with_diag: int = 0
    separations: list[float] = field(default_factory=list)

    @property
    def bg_dominance_rate(self) -> float:
        if not self.episodes_with_diag:
            return float("nan")
        return self.episodes_bg_dominant / self.episodes_with_diag

    @property
    def mean_separation(self) -> float:
        return float(np.mean(self.separations)) if self.separations else float("nan")


def evaluate_model(state: ModelState, cfg: ModelConfig, run: RunConfig,
                   episodes: list[Episode] | None = None
                   ) -> tuple[EvalReport, EvalDiagnostics]:
    """Run inference over evaluation episodes at ``EVAL_SCORE_THRESHOLD``
    and compute the metric report. No episode to evaluate is a
    ConfigError. Outside single-class mode the diagnostics come from a
    second, ``detect=False`` forward that stops at the last query-OBD
    layer's attention, before its Conv1D and FFN fusion and the decoder,
    until ROADMAP item 1 reads them from inference's own forward."""
    t = run.training
    if episodes is None:
        episodes = [generate_episode(run.benchmark, t.eval_start_index + i, "test")
                    for i in range(t.eval_episodes)]
    if not episodes:
        raise ConfigError("no episodes to evaluate")
    dets: list[Detection] = []
    gts: list[GtRecord] = []
    diag = EvalDiagnostics()
    for ep in episodes:
        for class_id, score, box in run_inference(ep, state, cfg, EVAL_SCORE_THRESHOLD):
            dets.append(Detection(ep.index, class_id, score, box))
        for box, label in zip(ep.boxes, ep.labels):
            gts.append(GtRecord(ep.index, int(label), box.copy()))
        if not cfg.single_class_mode:
            with no_grad():
                _, feats, fdiag = forward(ep, state, cfg, detect=False)
            mask = ep.object_patch_mask()
            mass = background_attention_mass(head_average(fdiag["query_attention"]),
                                             fdiag["sequence"])
            if mask.any() and (~mask).any():
                diag.episodes_with_diag += 1
                if mass[~mask].mean() > mass[mask].mean():
                    diag.episodes_bg_dominant += 1
            if feats.class_count >= 2:
                diag.separations.append(min_interclass_separation(feats))
    report = evaluate_detections(dets, gts, list(episodes[0].class_ids),
                                 len(episodes))
    return report, diag


# -- checkpoints ------------------------------------------------------------------

_BUFFERS = ("params", "adam.m", "adam.v")


def checkpoint_payload(run: RunConfig, result: TrainResult) -> tuple[dict, dict]:
    params, opt = result.state.params, result.opt
    base = run.resolved_model()
    variant = next((v for v in VARIANTS if ablation_variant(base, v) == result.cfg),
                   None)
    if variant is None:
        raise ConfigError("checkpoint: the model config is none of the run's "
                          f"variants {', '.join(VARIANTS)}")
    if ([(name, p.data.shape) for name, p in params.items()]
            != list(parameter_layout(result.cfg))):
        raise ShapeError("checkpoint: the parameters are not the ones, in the "
                         "order, that the model config lays out")
    config = {"run": run_config_to_dict(run), "step": result.steps_done,
              "adam": {"step_count": opt.step_count}, "variant": variant}
    return config, dict(zip(_BUFFERS, flat_buffers(params, opt)))


def save_run_checkpoint(path, run: RunConfig, result: TrainResult) -> None:
    config, tensors = checkpoint_payload(run, result)
    save_checkpoint(path, config, tensors)


_RECORD_KEYS = {"adam", "run", "step", "variant"}


def _parse_run_config(path, config: dict
                      ) -> tuple[RunConfig, ModelConfig, int, AdamState]:
    """The run, variant config, step and optimizer state of a config
    record."""
    try:
        if set(config) != _RECORD_KEYS:
            raise CorruptionError(
                f"{path}: the config record has keys {sorted(config)} and lacks "
                f"{sorted(_RECORD_KEYS - set(config))}; a run checkpoint's record "
                f"holds exactly {sorted(_RECORD_KEYS)}")
        run = run_config_from_dict(config["run"], "run.")
        cfg = ablation_variant(run.resolved_model(), config["variant"])
        step, adam = config["step"], config["adam"]
        count = adam["step_count"]
        if len(adam) != 1:
            raise CorruptionError(f"{path}: unknown key(s) in 'adam': "
                                  f"{sorted(set(adam) - {'step_count'})}")
        for field, value in (("step", step), ("adam.step_count", count)):
            if type(value) is not int or value < 0:  # a bool is not a count
                raise CorruptionError(f"{path}: {field} is {value!r}, not a "
                                      f"non-negative integer")
        opt = AdamState(learning_rate=cfg.learning_rate, step_count=count)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: malformed checkpoint config: {exc}") from exc
    return run, cfg, step, opt


def load_run_checkpoint(path) -> tuple[RunConfig, TrainResult]:
    config, tensors = load_checkpoint(path)
    run, cfg, step, opt = _parse_run_config(path, config)
    missing = sorted(set(_BUFFERS) - set(tensors))
    extra = sorted(set(tensors) - set(_BUFFERS))
    if missing or extra:
        raise CorruptionError(f"{path}: tensor names do not match config "
                              f"(missing {missing}, unexpected {extra})")
    # One entry at a time: no record sizes more than its file holds.
    held = tensors["params"]
    shapes, total = {}, 0
    for name, shape in parameter_layout(cfg):
        total += math.prod(shape)
        if total > held.size:
            raise CorruptionError(f"{path}: 'params' has shape {held.shape}, the "
                                  f"config gives more than {held.size} values")
        shapes[name] = shape
    for name in _BUFFERS:
        if tensors[name].shape != (total,):
            raise CorruptionError(f"{path}: '{name}' has shape {tensors[name].shape}, "
                                  f"the config gives {(total,)}")
    # Native float64 (a copy on a big-endian host only). The loaded params
    # buffer is the one the parameters view.
    param_buf, m, v = (np.asarray(tensors[name], dtype=np.float64) for name in _BUFFERS)
    state = ModelState(restore(param_buf, m, v, shapes, opt), cfg)
    return run, TrainResult(state=state, opt=opt, cfg=cfg, steps_done=step)


# -- ablation ---------------------------------------------------------------------


@dataclass
class VariantOutcome:
    variant: str
    seed: int
    map_50: float
    map_band: float
    bg_dominance_rate: float
    mean_separation: float
    train_seconds: float


def run_ablation(run: RunConfig, variants=VARIANTS,
                 log=None) -> list[VariantOutcome]:
    """Train and evaluate every variant on the identical benchmark for each
    configured seed. Deterministic given the config."""
    outcomes = []
    for variant in variants:
        for seed in run.ablate_seeds:
            seeded = dataclasses.replace(run, seed=int(seed))
            cfg = ablation_variant(seeded.resolved_model(), variant)
            start = time.perf_counter()
            result = train_run(seeded, cfg=cfg)
            report, diag = evaluate_model(result.state, cfg, seeded)
            elapsed = time.perf_counter() - start
            outcome = VariantOutcome(
                variant=variant, seed=int(seed), map_50=report.map_50,
                map_band=report.map_band,
                bg_dominance_rate=diag.bg_dominance_rate,
                mean_separation=diag.mean_separation,
                train_seconds=elapsed)
            outcomes.append(outcome)
            if log is not None:
                log(f"{variant:10s} seed={seed}  mAP@0.5={report.map_50:.4f}  "
                    f"mAP@[0.5:0.95]={report.map_band:.4f}  ({elapsed:.1f}s)")
    return outcomes


def _json_safe(value: float) -> float | None:
    return None if isinstance(value, float) and np.isnan(value) else value


# Each outcome column and how a variant's seeds are averaged: the
# diagnostics are NaN for the single-class baseline, so they skip NaNs.
_MEAN_COLUMNS = (("map_50", np.mean), ("map_band", np.mean),
                 ("bg_dominance_rate", np.nanmean), ("mean_separation", np.nanmean))


def ablation_summary(outcomes: list[VariantOutcome]) -> dict:
    """JSON-serializable summary; NaN diagnostics (e.g. for the single-class
    baseline, which has no placeholders) become null."""
    summary: dict = {"rows": [{k: _json_safe(v) for k, v in dataclasses.asdict(o).items()}
                              for o in outcomes], "mean": {}}
    for variant in dict.fromkeys(o.variant for o in outcomes):
        group = [o for o in outcomes if o.variant == variant]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary["mean"][variant] = {
                key: _json_safe(float(mean([getattr(o, key) for o in group])))
                for key, mean in _MEAN_COLUMNS}
    return summary


def ablation_table(summary: dict) -> str:
    """The per-variant means of an :func:`ablation_summary`, null as nan."""
    lines = [f"{'variant':12s} {'mAP@0.5':>10s} {'mAP@[0.5:0.95]':>16s} "
             f"{'bg-dominance':>13s} {'separation':>11s}"]
    for variant, mean in summary["mean"].items():
        map50, band, dom, sep = (float("nan") if mean[key] is None else mean[key]
                                 for key, _ in _MEAN_COLUMNS)
        lines.append(f"{variant:12s} {map50:10.4f} {band:16.4f} "
                     f"{dom:13.3f} {sep:11.4f}")
    return "\n".join(lines)
