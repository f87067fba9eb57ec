"""Training, evaluation, and ablation drivers shared by the CLI and tests.

Protocol: base-train on the train-split vocabulary with a fresh episode per
step, optionally fine-tune on a small fixed set of test-split episodes (the
k-shot regime: every episode's support is a k-shot mean), then evaluate on
held-out test-split episodes. The single-class baseline rotates the
supported class during training and fans one forward out per class during
evaluation.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, run_config_to_dict
from .episodes import Episode, class_id_range, generate_episode
from .errors import CorruptionError
from .metrics import Detection, EvalReport, GtRecord, evaluate_detections
from .model import (VARIANTS, ModelConfig, ModelState, ablation_variant,
                    forward, init_model_state, run_inference, train_step,
                    training_episode)
from .ood import min_interclass_separation
from .optim import AdamState
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

    bg_mass_background: list[float] = field(default_factory=list)
    bg_mass_object: list[float] = field(default_factory=list)
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
                   episodes: list[Episode] | None = None,
                   collect_diagnostics: bool = True
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
        if collect_diagnostics and not cfg.single_class_mode:
            with no_grad():
                _, feats, fdiag = forward(ep, state, cfg)
            mask = ep.object_patch_mask()
            mass = fdiag["background_mass"][-1]
            if mask.any() and (~mask).any():
                bg_mean = float(mass[~mask].mean())
                obj_mean = float(mass[mask].mean())
                diag.bg_mass_background.append(bg_mean)
                diag.bg_mass_object.append(obj_mean)
                diag.episodes_with_diag += 1
                if bg_mean > obj_mean:
                    diag.episodes_bg_dominant += 1
            if feats.class_count >= 2:
                diag.separations.append(min_interclass_separation(feats))
    class_ids = class_id_range(run.benchmark, episodes[0].split) if episodes else []
    report = evaluate_detections(dets, gts, class_ids, len(episodes))
    return report, diag


# -- checkpoints ------------------------------------------------------------------


def checkpoint_payload(run: RunConfig, result: TrainResult) -> tuple[dict, dict]:
    config = {"run": run_config_to_dict(run), "step": result.steps_done,
              "adam": {"learning_rate": result.opt.learning_rate,
                       "beta1": result.opt.beta1, "beta2": result.opt.beta2,
                       "epsilon": result.opt.epsilon,
                       "step_count": result.opt.step_count},
              "variant_model": dataclasses.asdict(result.cfg)}
    tensors: dict[str, np.ndarray] = {name: p.data for name, p in
                                      result.state.params.items()}
    for name, m in result.opt.first_moment.items():
        tensors[f"adam.m.{name}"] = m
    for name, v in result.opt.second_moment.items():
        tensors[f"adam.v.{name}"] = v
    return config, tensors


def save_run_checkpoint(path, run: RunConfig, result: TrainResult) -> None:
    config, tensors = checkpoint_payload(run, result)
    save_checkpoint(path, config, tensors)


def load_run_checkpoint(path) -> tuple[RunConfig, TrainResult]:
    from .config import run_config_from_dict
    from .set_head import Weights

    config, tensors = load_checkpoint(path)
    try:
        # Checkpoints written before score_threshold was removed carry it.
        run_data = dict(config["run"])
        run_data["training"] = {k: v for k, v in run_data.get("training", {}).items()
                                if k != "score_threshold"}
        run = run_config_from_dict(run_data)
        vm = dict(config["variant_model"])
        vm["weights"] = Weights(**vm["weights"])
        cfg = ModelConfig(**vm)
        step = int(config["step"])
        adam_meta = config["adam"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: malformed checkpoint config: {exc}") from exc

    params: dict[str, Tensor] = {}
    opt = AdamState(learning_rate=adam_meta["learning_rate"],
                    beta1=adam_meta["beta1"], beta2=adam_meta["beta2"],
                    epsilon=adam_meta["epsilon"],
                    step_count=adam_meta["step_count"])
    for name, arr in tensors.items():
        if name.startswith("adam.m."):
            opt.first_moment[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            opt.second_moment[name[len("adam.v."):]] = arr
        else:
            params[name] = Tensor(arr, requires_grad=True)

    from .model import parameter_shapes
    expected = parameter_shapes(cfg)
    if set(expected) != set(params):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise CorruptionError(
            f"{path}: parameter names do not match config "
            f"(missing {missing}, unexpected {extra})")
    state = ModelState(params, cfg)
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
            cfg = ablation_variant(
                dataclasses.replace(seeded.resolved_model(), seed=int(seed)),
                variant)
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


def ablation_table(outcomes: list[VariantOutcome]) -> str:
    lines = [f"{'variant':12s} {'mAP@0.5':>10s} {'mAP@[0.5:0.95]':>16s} "
             f"{'bg-dominance':>13s} {'separation':>11s}"]
    for variant in dict.fromkeys(o.variant for o in outcomes):
        rows = [o for o in outcomes if o.variant == variant]
        map50 = np.mean([o.map_50 for o in rows])
        band = np.mean([o.map_band for o in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dom = np.nanmean([o.bg_dominance_rate for o in rows])
            sep = np.nanmean([o.mean_separation for o in rows])
        lines.append(f"{variant:12s} {map50:10.4f} {band:16.4f} "
                     f"{dom:13.3f} {sep:11.4f}")
    return "\n".join(lines)


def _json_safe(value: float) -> float | None:
    return None if isinstance(value, float) and np.isnan(value) else value


def ablation_summary(outcomes: list[VariantOutcome]) -> dict:
    """JSON-serializable summary; NaN diagnostics (e.g. for the single-class
    baseline, which has no placeholders) become null."""
    rows = []
    for o in outcomes:
        row = dataclasses.asdict(o)
        row = {k: _json_safe(v) for k, v in row.items()}
        rows.append(row)
    summary: dict = {"rows": rows, "mean": {}}
    for variant in dict.fromkeys(o.variant for o in outcomes):
        group = [o for o in outcomes if o.variant == variant]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary["mean"][variant] = {
                "map_50": _json_safe(float(np.mean([o.map_50 for o in group]))),
                "map_band": _json_safe(float(np.mean([o.map_band for o in group]))),
                "bg_dominance_rate": _json_safe(
                    float(np.nanmean([o.bg_dominance_rate for o in group]))),
                "mean_separation": _json_safe(
                    float(np.nanmean([o.mean_separation for o in group]))),
            }
    return summary
