"""Command-line interface. Every verb reads --config (a YAML run
configuration) and the flags listed with it; any other flag is a usage error.

  gen        episode file; data seed from the config's benchmark.seed:
             --out --count (>= 0) --split --start-index (>= 0; plus --count, <= 2**64)
  train      base training plus optional fine-tuning, a JSONL metrics log and
             a checkpoint: --seed --out --variant --checkpoint (resume, with
             the checkpoint's settings; a --seed or --variant that differs
             from the checkpoint's, or a --config whose settings but out_dir
             differ from its run's, exits 1); a resume given neither --out nor
             --config writes into the checkpoint's directory; a resume's
             checkpoint records the directory it wrote to. The log first
             loses its rows from the run's first step on, so each step
             appears once
  eval       metric report for a checkpoint, on its settings unless --config
             is given: --out --checkpoint --episodes; exits 1 when the
             benchmark's feature_dim is not the checkpoint's input_dim
  ablate     three variants on one fixed benchmark, one model per config
             ablate_seeds entry: --out
  gradcheck  finite-difference audit of every primitive and the full loss;
             writes nothing: --seed

Exit codes: 0 success, 1 usage/config error, 2 numeric failure,
3 I/O or corruption.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import _write_atomic
from .config import RunConfig, load_run_config, run_config_to_dict
from .errors import ConfigError, CorruptionError, NumericError
from .episodes import read_episodes, write_episodes
from .model import VARIANTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fewdet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed: bool = False, out: bool = True):
        p.add_argument("--config", help="YAML run configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="override config seed")
        if out:
            p.add_argument("--out", help="override output directory")

    p_gen = sub.add_parser("gen", help="materialize a benchmark episode file")
    common(p_gen)
    p_gen.add_argument("--count", type=int, default=50)
    p_gen.add_argument("--split", choices=("train", "test"), default="train")
    p_gen.add_argument("--start-index", type=int, default=0)

    p_train = sub.add_parser("train", help="train a model, emit checkpoint + log")
    common(p_train, seed=True)
    p_train.add_argument("--checkpoint", help="resume from this checkpoint")
    p_train.add_argument("--variant", choices=VARIANTS,
                         help="ablation variant (default +OBD+OOD)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", help="episode file to evaluate on "
                        "(default: generated test episodes per config)")

    p_ablate = sub.add_parser("ablate", help="run the three-variant comparison")
    common(p_ablate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p_gc, seed=True, out=False)

    return parser


def _load_run(args) -> RunConfig:
    flags = {"seed": vars(args).get("seed"), "out_dir": vars(args).get("out")}
    return load_run_config(args.config,
                           {k: v for k, v in flags.items() if v is not None})


def _out_dir(run: RunConfig) -> Path:
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    run = _load_run(args)
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, not {args.count}")
    if not 0 <= args.start_index <= 2 ** 64 - args.count:  # a u64 episode index
        raise ConfigError(f"--start-index must be >= 0 with --start-index + --count "
                          f"<= 2**64, not {args.start_index}")
    out = _out_dir(run)
    path = out / f"episodes_{args.split}.bin"
    manifest = write_episodes(run.benchmark, args.count, path,
                              split=args.split, start_index=args.start_index)
    _write_atomic(out / f"episodes_{args.split}.manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))
    print(f"wrote {args.count} episodes to {path}")
    print(f"manifest digest: {manifest['manifest_digest']}")
    return EXIT_OK


def _first_difference(ours, theirs, prefix: str = ""):
    """(dotted name, ours, theirs) of the first setting in which two config
    dataclasses differ, or None."""
    for f in dataclasses.fields(ours):
        a, b = getattr(ours, f.name), getattr(theirs, f.name)
        if a != b:
            if dataclasses.is_dataclass(a):
                return _first_difference(a, b, f"{prefix}{f.name}.")
            return prefix + f.name, a, b
    return None


def _truncate_log(path: Path, start_step: int) -> None:
    """Drop the rows of step ``start_step`` and later from the JSONL
    training log at ``path``, so the rows a run appends from that step
    follow the earlier ones once each. A final line with no newline is an
    append that a kill tore, and is dropped too. A log with nothing to drop
    is left untouched."""
    try:
        lines = path.read_bytes().splitlines(keepends=True)
    except FileNotFoundError:
        return
    torn = bool(lines) and not lines[-1].endswith(b"\n")
    kept = []
    for number, line in enumerate(lines[:-1] if torn else lines, 1):
        try:
            earlier = json.loads(line)["step"] < start_step
        except (ValueError, TypeError, KeyError):
            raise CorruptionError(f"{path}: line {number} is not a training "
                                  f"log row") from None
        if earlier:
            kept.append(line)
    if len(kept) < len(lines):
        _write_atomic(path, b"".join(kept))


def cmd_train(args) -> int:
    from .harness import (load_run_checkpoint, save_run_checkpoint, train_run)
    from .model import ablation_variant

    run = _load_run(args)
    out = Path(run.out_dir)
    state = opt = None
    start_step = 0
    if args.checkpoint:
        prev_run, prev = load_run_checkpoint(args.checkpoint)
        cfg, state, opt, start_step = prev.cfg, prev.state, prev.opt, prev.steps_done
        if args.seed is not None and args.seed != prev_run.seed:
            raise ConfigError(f"--seed {args.seed} differs from the checkpoint's "
                              f"seed {prev_run.seed}")
        if (args.variant is not None
                and ablation_variant(cfg, args.variant) != cfg):
            theirs = next(v for v in VARIANTS if ablation_variant(cfg, v) == cfg)
            raise ConfigError(f"--variant {args.variant} differs from the "
                              f"checkpoint's variant {theirs}")
        differs = args.config and _first_difference(
            dataclasses.replace(run, out_dir=prev_run.out_dir), prev_run)
        if differs:
            raise ConfigError("--config gives %s %r, the checkpoint's run has %r"
                              % differs)
        if args.out is None and args.config is None:
            out = Path(args.checkpoint).parent
        run = dataclasses.replace(prev_run, out_dir=str(out))
    else:
        cfg = ablation_variant(run.resolved_model(), args.variant or "+OBD+OOD")
    out.mkdir(parents=True, exist_ok=True)

    log_path = out / "train_log.jsonl"
    _truncate_log(log_path, start_step)
    with open(log_path, "a") as log_fh:
        result = train_run(run, cfg=cfg, state=state, opt=opt,
                           start_step=start_step, log_fh=log_fh)
    ckpt = out / "checkpoint.fdck"
    save_run_checkpoint(ckpt, run, result)
    if result.history:
        print(f"trained to step {result.steps_done}; final loss "
              f"{result.history[-1]['total']:.4f}")
    else:
        print(f"no step left to train: the run already reached step "
              f"{result.steps_done}")
    print(f"checkpoint: {ckpt}")
    print(f"metrics log: {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .harness import (EVAL_SCORE_THRESHOLD, _json_safe, evaluate_model,
                          load_run_checkpoint)

    ckpt_run, result = load_run_checkpoint(args.checkpoint)
    run = ckpt_run if args.config is None else _load_run(args)
    if args.out is not None:
        run = dataclasses.replace(run, out_dir=args.out)
    out = _out_dir(run)

    episodes = None
    if args.episodes:
        _, episodes = read_episodes(args.episodes)
    report, diag = evaluate_model(result.state, result.cfg, run, episodes=episodes)
    report.extras.update({
        "score_threshold": EVAL_SCORE_THRESHOLD,
        "bg_dominance_rate": _json_safe(diag.bg_dominance_rate),
        "mean_separation": _json_safe(diag.mean_separation),
    })
    report_path = out / "eval_report.json"
    _write_atomic(report_path, report.to_json().encode("utf-8"))
    print(report.table())
    print("confusion matrix (rows true, cols predicted, last is background):")
    print(report.confusion)
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    from .harness import ablation_summary, ablation_table, run_ablation

    run = _load_run(args)
    out = _out_dir(run)
    outcomes = run_ablation(run, log=print)
    summary = ablation_summary(outcomes)
    summary["config"] = run_config_to_dict(run)
    _write_atomic(out / "ablation.json",
                  json.dumps(summary, indent=2, sort_keys=True).encode("utf-8"))
    print(ablation_table(summary))
    print(f"summary: {out / 'ablation.json'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from . import gradcheck as gc

    run = _load_run(args)
    results, ok = gc.run_gradcheck(seed=run.seed)
    failures = [r for r in results if not r.ok]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:<{width}s}  max rel err {r.max_rel_error:.3e}  "
              f"(tol {r.tolerance:.0e})  {status}")
    if failures:
        print(f"gradient check FAILED for: {', '.join(r.name for r in failures)}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": cmd_gen,
            "train": cmd_train,
            "eval": cmd_eval,
            "ablate": cmd_ablate,
            "gradcheck": cmd_gradcheck,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorruptionError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
