"""Training, evaluation, and ablation drivers shared by the CLI and tests.

Protocol: base-train on the train-split vocabulary with a fresh episode per
step, optionally fine-tune on a small fixed set of test-split episodes (the
k-shot regime: every episode's support is a k-shot mean), then evaluate on
held-out test-split episodes. The single-class baseline rotates the
supported class during training and fans one forward out per class during
evaluation.

Run checkpoints: a checkpoint (see :mod:`fewdet.checkpoint`) holding three
tensors, ``params``, ``adam.m`` and ``adam.v``, each one whole 1-D float64
buffer laid out as ``parameter_shapes(variant_model)`` lays the parameters
out (see :mod:`fewdet.optim`). The config record holds ``run``, ``step``,
``adam`` (the step count), ``variant_model`` and ``moments``: the
parameters that have Adam moments, in layout order; the others are zeros
in both moment buffers. Per-parameter checkpoints written before, with no
``moments`` field, hold one tensor per parameter plus ``adam.m.<name>`` and
``adam.v.<name>`` for each parameter with moments; they load into views of
the same three buffers.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (DERIVED_MODEL_KEYS, RunConfig, run_config_from_dict,
                     run_config_to_dict)
from .episodes import Episode, generate_episode
from .errors import CorruptionError, ShapeError
from .metrics import Detection, EvalReport, GtRecord, evaluate_detections
from .model import (VARIANTS, ModelConfig, ModelState, ablation_variant,
                    forward, init_model_state, parameter_shapes, run_inference,
                    train_step, training_episode)
from .ood import min_interclass_separation
from .optim import BETA1, BETA2, EPSILON, AdamState, flat_buffers, flat_views
from .set_head import Weights
from .tensor import Tensor, no_grad

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


def _episode_for_step(run: RunConfig, step: int) -> tuple[Episode, str]:
    """Base training consumes train-split episodes; the fine-tune phase
    cycles a fixed pool of test-split episodes."""
    t = run.training
    if t.overfit_episode is not None:
        return generate_episode(run.benchmark, t.overfit_episode, "train"), "train"
    if step < t.steps:
        return generate_episode(run.benchmark, step, "train"), "train"
    ft_index = (step - t.steps) % t.fine_tune_episodes
    return generate_episode(run.benchmark, ft_index, "test"), "test"


def train_run(run: RunConfig, cfg: ModelConfig | None = None,
              state: ModelState | None = None, opt: AdamState | None = None,
              start_step: int = 0, log_fh=None) -> TrainResult:
    cfg = cfg or run.resolved_model()
    state = state or init_model_state(cfg)
    opt = opt or AdamState(learning_rate=cfg.learning_rate)
    total_steps = run.training.steps + run.training.fine_tune_steps
    history = []
    for step in range(start_step, total_steps):
        episode, _ = _episode_for_step(run, step)
        ep = training_episode(episode, cfg, step)
        breakdown = train_step(ep, state, opt, cfg)
        if step % max(run.training.log_interval, 1) == 0 or step == total_steps - 1:
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
    and compute the metric report."""
    t = run.training
    if episodes is None:
        episodes = [generate_episode(run.benchmark, t.eval_start_index + i, "test")
                    for i in range(t.eval_episodes)]
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
                _, feats, fdiag = forward(ep, state, cfg)
            mask = ep.object_patch_mask()
            mass = fdiag["background_mass"][-1]
            if mask.any() and (~mask).any():
                diag.episodes_with_diag += 1
                if mass[~mask].mean() > mass[mask].mean():
                    diag.episodes_bg_dominant += 1
            if feats.class_count >= 2:
                diag.separations.append(min_interclass_separation(feats))
    class_ids = list(episodes[0].class_ids) if episodes else []
    report = evaluate_detections(dets, gts, class_ids, len(episodes))
    return report, diag


# -- checkpoints ------------------------------------------------------------------

_BUFFERS = ("params", "adam.m", "adam.v")


def checkpoint_payload(run: RunConfig, result: TrainResult) -> tuple[dict, dict]:
    params, opt = result.state.params, result.opt
    if ([(name, p.data.shape) for name, p in params.items()]
            != list(parameter_shapes(result.cfg).items())):
        raise ShapeError("checkpoint: the parameters are not the ones, in the "
                         "order, that the model config lays out")
    config = {"run": run_config_to_dict(run), "step": result.steps_done,
              "adam": {"step_count": opt.step_count},
              "variant_model": dataclasses.asdict(result.cfg),
              "moments": [name for name in params if name in opt.first_moment]}
    return config, dict(zip(_BUFFERS, flat_buffers(params, opt)))


def save_run_checkpoint(path, run: RunConfig, result: TrainResult) -> None:
    config, tensors = checkpoint_payload(run, result)
    save_checkpoint(path, config, tensors)


def _parse_run_config(path, config: dict
                      ) -> tuple[RunConfig, ModelConfig, int, AdamState, list | None]:
    """The run, variant config, step, optimizer state and moment names
    (None for a per-parameter checkpoint) of a config record."""
    try:
        # Older checkpoints carry retired keys: training.score_threshold, the
        # derived model keys, and Adam's learning rate and constants, which
        # must match the model's rate and adam_step's constants.
        run_data = dict(config["run"])
        run_data["training"] = {k: v for k, v in run_data.get("training", {}).items()
                                if k != "score_threshold"}
        run_data["model"] = {k: v for k, v in run_data.get("model", {}).items()
                             if k not in DERIVED_MODEL_KEYS}
        run = run_config_from_dict(run_data)
        vm = dict(config["variant_model"])
        vm["weights"] = Weights(**vm["weights"])
        cfg = ModelConfig(**vm)
        step = int(config["step"])
        adam_meta = config["adam"]
        for key, value in (("learning_rate", cfg.learning_rate), ("beta1", BETA1),
                           ("beta2", BETA2), ("epsilon", EPSILON)):
            if adam_meta.get(key, value) != value:
                raise CorruptionError(f"{path}: adam {key} is {adam_meta[key]}, "
                                      f"the optimiser uses {value}")
        opt = AdamState(learning_rate=cfg.learning_rate,
                        step_count=adam_meta["step_count"])
        moments = config.get("moments")
        if moments is not None and not (isinstance(moments, list) and all(
                isinstance(name, str) for name in moments)):
            raise TypeError(f"moments is not a list of names: {moments!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: malformed checkpoint config: {exc}") from exc
    return run, cfg, step, opt, moments


def load_run_checkpoint(path) -> tuple[RunConfig, TrainResult]:
    parsed = []

    def into(config: dict) -> dict[str, np.ndarray]:
        # The config record comes before the tensors, so they are read
        # straight into the three buffers, laid out as init_model_state lays
        # them out: whole, or (per-parameter) into views of them.
        run, cfg, step, opt, moments = _parse_run_config(path, config)
        shapes = parameter_shapes(cfg)
        seen: set[str] = set()
        for name in moments or ():
            if name not in shapes:
                raise CorruptionError(f"{path}: moments: '{name}' is not a parameter")
            if name in seen:
                raise CorruptionError(f"{path}: moments: '{name}' appears twice")
            seen.add(name)
        buffers, views = zip(*(flat_views(shapes, zeroed=False) for _ in _BUFFERS))
        if moments is None:
            slots = dict(views[0])
            for prefix, moment_views in (("adam.m.", views[1]), ("adam.v.", views[2])):
                slots.update((prefix + name, v) for name, v in moment_views.items())
            required = set(shapes)
        else:
            slots = dict(zip(_BUFFERS, buffers))
            required = set(_BUFFERS)
        parsed.extend((run, cfg, step, opt, moments, views, slots, required))
        return slots

    _, tensors = load_checkpoint(path, into)
    run, cfg, step, opt, moments, (params, m_views, v_views), slots, required = parsed
    missing = sorted(required - set(tensors))
    extra = sorted(set(tensors) - set(slots))
    if missing or extra:
        raise CorruptionError(f"{path}: tensor names do not match config "
                              f"(missing {missing}, unexpected {extra})")
    for name, arr in tensors.items():
        if arr.shape != slots[name].shape:
            raise CorruptionError(f"{path}: '{name}' has shape {arr.shape}, "
                                  f"the config gives {slots[name].shape}")
        if arr is not slots[name]:  # not read in place (a big-endian host)
            slots[name][...] = arr
    if moments is None:
        moments = [name for name in params if "adam.m." + name in tensors]
        unpaired = {name for name in params
                    if ("adam.m." + name in tensors) != ("adam.v." + name in tensors)}
        if unpaired:
            raise CorruptionError(f"{path}: adam.m and adam.v differ for "
                                  f"{sorted(unpaired)}")
    # Moments may cover only some parameters: one that never had a gradient
    # (the baseline's background token) has none. Its part of the moment
    # buffers is read by nothing; the optimizer zeroes it when it takes
    # the buffers over.
    for name in moments:
        opt.first_moment[name] = m_views[name]
        opt.second_moment[name] = v_views[name]
    state = ModelState({name: Tensor.parameter(view) for name, view in params.items()},
                       cfg)
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
