"""Benchmark entry point.

    python3 fewbench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

Runs one workload of ``BENCHMARK.json`` from the root of a checkout against
the ``fewdet`` sources in its ``src/``. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload traced for two thirds of the time,
between two untraced sessions that share the rest and give the tracing
overhead, and prints the per-layer metrics. Times are scaled to a reference
machine (see ``workloads.REFERENCE_S``). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result record, with the versions and machine it was
measured on, the unscaled metrics and, for a traced run, the factor its
layer times were scaled by, is written under
``.bench_out/results/``. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import ctypes
import os

# One client, one thread: BLAS is pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fix_malloc_thresholds() -> bool:
    """glibc moves its mmap threshold with the allocation history, so large
    buffers (checkpoints, dense activations) come from fresh, page-faulting
    mappings in one process and from reused heap in the next: a third more
    or less time from one run to the next. Fixed thresholds, set before
    numpy allocates anything, take the history out."""
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 64 << 20))


MALLOC_FIXED = _fix_malloc_thresholds()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXIT_FAILED_CHECK = 1
EXIT_NO_PROGRAM = 3


def _import_program():
    """Put the checkout's ``src`` first on the path and make sure ``fewdet``
    is the one found there, not another copy."""
    src = ROOT / "src"
    if not (src / "fewdet" / "__init__.py").is_file():
        raise SystemExit(f"fewbench: no fewdet sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import fewdet
    if Path(fewdet.__file__).resolve().parent != (src / "fewdet").resolve():
        raise SystemExit(f"fewbench: imported fewdet from {fewdet.__file__}, "
                         f"not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fewbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_PROGRAM
    from fewbench import environment, tracing
    from fewbench.workloads import (HELD_OUT_SEED, REFERENCE_S, WORKLOADS, Session,
                                    end_to_end, percentile, sample_counts)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        workdir = Path(tmp)
        if args.trace:
            # Untraced sessions before and after the traced one, so that a
            # machine drifting in speed biases the overhead less.
            tracer = tracing.Tracer()
            runs = []
            for name, share, run_tracer in (("before", 1 / 6, None),
                                            ("traced", 2 / 3, tracer),
                                            ("after", 1 / 6, None)):
                (workdir / name).mkdir()
                runs.append(Session(workload, args.seed, workdir / name,
                                    run_tracer).run(share * args.seconds))
            # Layer times are scaled like the end-to-end ones, by the traced
            # session's reference-kernel median; the record keeps both.
            layer_scale = REFERENCE_S / percentile(runs[1].probe, 50)
            raw = tracing.layer_metrics(tracer, workload.primary)
            metrics = {name: (value * layer_scale if unit == "ms" else value, unit)
                       for name, (value, unit) in raw.items()}

            def overhead(scaled: bool) -> float:
                steps = [r.scaled("step") if scaled else r.step for r in runs]
                return 100.0 * (percentile(steps[1], 50)
                                / percentile(steps[0] + steps[2], 50) - 1.0)
            metrics["trace.overhead_pct"] = (overhead(True), "%")
            raw["trace.overhead_pct"] = (overhead(False), "%")
        else:
            layer_scale = None
            samples = Session(workload, args.seed, workdir).run(args.seconds)
            metrics = end_to_end(samples, _peak_rss_mb())
            raw = end_to_end(samples, _peak_rss_mb(), scaled=False)
            runs = [samples]
    probes = [p for r in runs for p in r.probe]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [f for r in runs for f in r.failures]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "environment": {**environment.describe(ROOT),
                        "malloc_thresholds_fixed": MALLOC_FIXED},
        "samples": [sample_counts(r) for r in runs],
        "reference_kernel_ms": 1e3 * percentile(probes, 50),
        "layer_time_scale": layer_scale,
        "unscaled_metrics": {k: v for k, (v, _) in raw.items()},
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        # A metric with no sample (every attempt failed) is null, not NaN.
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results = out / "results"
    results.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True))

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"reference kernel: {record['reference_kernel_ms']:.4f} ms median; times "
          f"below are scaled to {1e3 * REFERENCE_S:g} ms")
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6f} {unit}")  # nan when it has no sample
    print(f"{'error_rate':32s} {record['error_rate']:14.6f} failed/attempted "
          f"({failed}/{attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
