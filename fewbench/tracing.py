"""Outside-in span tracer for ``fewdet``.

Spans are recorded only from the benchmark: :func:`installed` swaps the
call-site names listed in :data:`SPAN_SITES` and :data:`COUNT_SITES` for
thin wrappers, and puts every original object back on exit. Nothing inside
``fewdet`` knows it is being traced, and an untraced run installs nothing.

Each span records its name, start, end, parent span and the unit (step id)
it belongs to. A unit is one top-level operation the benchmark starts: a
train step, an inference, an ``evaluate_model`` sweep or a checkpoint round
trip. Self time is a span's duration minus the time its child spans cover.
Tensor operations (``Tensor._result`` calls) and autodiff graph nodes are
counted on the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). The module is the one whose namespace the
# caller looks the name up in, so ``fewdet.harness.forward`` (the diagnostic
# forward of ``evaluate_model``) and ``fewdet.model.forward`` are different
# call sites of one function.
SPAN_SITES = (
    ("fewdet.episodes", "generate_episode", "episodes.generate_episode"),
    ("fewdet.harness", "generate_episode", "harness.generate_episode"),
    ("fewdet.model", "train_step", "model.train_step"),
    ("fewdet.model", "run_inference", "model.run_inference"),
    ("fewdet.model", "forward", "model.forward"),
    ("fewdet.model", "extract_features", "model.extract_features"),
    ("fewdet.model", "ofe_support", "obd.ofe_support"),
    ("fewdet.model", "ofe_query", "obd.ofe_query"),
    ("fewdet.model", "multi_head_attention", "model.multi_head_attention"),
    ("fewdet.model", "layer_norm", "model.layer_norm"),
    ("fewdet.model", "ffn_apply", "model.ffn_apply"),
    ("fewdet.model", "infonce_loss", "ood.infonce_loss"),
    ("fewdet.model", "match_cost", "set_head.match_cost"),
    ("fewdet.model", "hungarian_match", "set_head.hungarian_match"),
    ("fewdet.model", "set_loss", "set_head.set_loss"),
    ("fewdet.model", "decode_detections", "set_head.decode_detections"),
    ("fewdet.model", "adam_step", "optim.adam_step"),
    ("fewdet.tensor", "Tensor.backward", "tensor.backward"),
    ("fewdet.harness", "evaluate_model", "harness.evaluate_model"),
    ("fewdet.harness", "run_inference", "harness.run_inference"),
    ("fewdet.harness", "forward", "harness.forward"),
    ("fewdet.harness", "evaluate_detections", "metrics.evaluate_detections"),
    ("fewdet.harness", "save_run_checkpoint", "checkpoint.save"),
    ("fewdet.harness", "load_run_checkpoint", "checkpoint.load"),
    ("fewdet.metrics", "average_precision", "metrics.average_precision"),
    ("fewdet.metrics", "confusion_matrix", "metrics.confusion_matrix"),
)

# Call sites too hot or too fine for a span: only their calls are counted.
COUNT_SITES = (
    ("fewdet.set_head", "linear_sum_assignment", "set_head.lsa_calls"),
    ("fewdet.metrics", "iou", "metrics.iou_calls"),
)

RESULT_SITE = ("fewdet.tensor", "Tensor._result")


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "child_time",
                 "ops", "nodes")

    def __init__(self, name: str, start: float, parent: int | None, unit: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.child_time = 0.0
        self.ops = 0
        self.nodes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory spans and counts; read out after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit_kinds: list[str] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []

    @property
    def unit(self) -> int:
        return len(self.unit_kinds) - 1

    def begin_unit(self, kind: str) -> None:
        """Start the next top-level operation; later spans belong to it."""
        self.unit_kinds.append(kind)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.unit))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.unit, name)] += n

    def record_op(self, is_node: bool) -> None:
        if self._stack:
            span = self.spans[self._stack[-1]]
            span.ops += 1
            span.nodes += is_node
        else:
            self.counts[(self.unit, "ops")] += 1
            self.counts[(self.unit, "nodes")] += is_node


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a dotted site such as
    ``Tensor.backward`` in ``fewdet.tensor``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def site_objects() -> dict[tuple[str, str], object]:
    """The object currently bound at every wrapped call site."""
    out = {}
    for module, attr, *_ in SPAN_SITES + COUNT_SITES + (RESULT_SITE,):
        owner, name = _resolve(module, attr)
        out[(module, attr)] = owner.__dict__[name]
    return out


def _span_wrapper(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _adam_wrapper(fn, name: str, tracer: Tracer):
    traced = _span_wrapper(fn, name, tracer)

    @functools.wraps(fn)
    def wrapper(params, grads, state):
        tracer.count("optim.param_tensors", len(grads))
        return traced(params, grads, state)
    return wrapper


def _count_wrapper(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _result_wrapper(fn, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(data, parents, backward):
        out = fn(data, parents, backward)
        tracer.record_op(out._backward is not None)
        return out
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every call site for the duration of the block."""
    originals = []
    try:
        for module, attr, span_name in SPAN_SITES:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            make = _adam_wrapper if span_name == "optim.adam_step" else _span_wrapper
            originals.append((owner, name, original))
            setattr(owner, name, make(original, span_name, tracer))
        for module, attr, count_name in COUNT_SITES:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(owner, name, _count_wrapper(original, count_name, tracer))
        owner, name = _resolve(*RESULT_SITE)
        original = owner.__dict__[name]
        originals.append((owner, name, original))
        setattr(owner, name, staticmethod(_result_wrapper(original.__func__, tracer)))
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


# -- per-layer metrics -----------------------------------------------------------

# (metric, span names, "self" or "total" time, scope). Scope "unit" divides
# by the workload's primary units (train steps on the train workloads,
# sweeps on eval_default); "step" by train steps on every workload, for the
# layers that run only inside a train step (on eval_default these are its
# fine-tune steps); "sweep" by evaluate_model sweeps; "call" by the calls of
# the named spans.
TIME_METRICS = (
    ("episodes.generate_ms", ("episodes.generate_episode",
                              "harness.generate_episode"), "self", "unit"),
    ("model.embed_ms", ("model.extract_features",), "self", "unit"),
    ("obd.support_ms", ("obd.ofe_support",), "self", "unit"),
    ("obd.query_ms", ("obd.ofe_query",), "self", "unit"),
    ("model.attention_ms", ("model.multi_head_attention",), "self", "unit"),
    ("model.layer_norm_ms", ("model.layer_norm",), "self", "unit"),
    ("model.ffn_ms", ("model.ffn_apply",), "self", "unit"),
    ("model.heads_ms", ("model.forward", "harness.forward"), "self", "unit"),
    ("ood.infonce_ms", ("ood.infonce_loss",), "self", "step"),
    ("tensor.backward_ms", ("tensor.backward",), "self", "step"),
    ("optim.adam_ms", ("optim.adam_step",), "self", "step"),
    ("set_head.match_cost_ms", ("set_head.match_cost",), "self", "step"),
    ("set_head.hungarian_ms", ("set_head.hungarian_match",), "self", "step"),
    ("set_head.set_loss_ms", ("set_head.set_loss",), "self", "step"),
    ("set_head.decode_ms", ("set_head.decode_detections",), "self", "sweep"),
    ("harness.inference_ms", ("harness.run_inference",), "total", "sweep"),
    ("harness.diag_forward_ms", ("harness.forward",), "total", "sweep"),
    ("metrics.evaluate_ms", ("metrics.evaluate_detections",), "total", "sweep"),
    ("metrics.ap_ms", ("metrics.average_precision",), "self", "sweep"),
    ("metrics.confusion_ms", ("metrics.confusion_matrix",), "self", "sweep"),
    ("checkpoint.save_ms", ("checkpoint.save",), "total", "call"),
    ("checkpoint.load_ms", ("checkpoint.load",), "total", "call"),
)

# Graph nodes created while the named spans are innermost, per train step:
# no_grad forwards record none, so a sweep would always count 0.
NODE_METRICS = (
    ("model.embed_nodes", ("model.extract_features",)),
    ("obd.support_nodes", ("obd.ofe_support",)),
    ("obd.query_nodes", ("obd.ofe_query",)),
    ("model.attention_nodes", ("model.multi_head_attention",)),
    ("model.layer_norm_nodes", ("model.layer_norm",)),
    ("model.ffn_nodes", ("model.ffn_apply",)),
    ("model.heads_nodes", ("model.forward", "harness.forward")),
    ("ood.infonce_nodes", ("ood.infonce_loss",)),
)

# Counts are read over the first units of a kind only, so that they are a
# function of the seed and not of how many units fit in the run.
COUNT_WINDOW = {"step": 10, "sweep": 1, "ckpt": 1}


def layer_metrics(tracer: Tracer, primary: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``. Times are means
    over all units of the run; counts are means over the count window.
    ``tensor.ops`` is per primary unit; the other counts of graph and
    optimiser work are per train step."""
    kinds = tracer.unit_kinds

    def units_of(kind: str, window: bool) -> set[int]:
        ids = [u for u, k in enumerate(kinds) if k == kind]
        return set(ids[:COUNT_WINDOW[kind]] if window else ids)

    def spans_in(units: set[int], names=None) -> list[Span]:
        return [s for s in tracer.spans if s.unit in units
                and (names is None or s.name in names)]

    def per(total: float, units: set[int]) -> float:
        return total / len(units) if units else 0.0

    def counted(name: str, units: set[int]) -> float:
        return sum(tracer.counts.get((u, name), 0.0) for u in units)

    scope_kind = {"unit": primary, "step": "step", "sweep": "sweep"}
    out: dict[str, tuple[float, str]] = {}
    for metric, names, mode, scope in TIME_METRICS:
        if scope == "call":
            spans = [s for s in tracer.spans if s.name in names]
            total = sum(s.duration for s in spans)
            out[metric] = (1e3 * total / len(spans) if spans else 0.0, "ms")
            continue
        units = units_of(scope_kind[scope], window=False)
        spans = spans_in(units, names)
        total = sum(s.self_time if mode == "self" else s.duration for s in spans)
        out[metric] = (1e3 * per(total, units), "ms")

    steps = units_of("step", window=True)
    for metric, names in NODE_METRICS:
        out[metric] = (per(sum(s.nodes for s in spans_in(steps, names)), steps),
                       "count")
    step_spans = spans_in(steps)
    out["tensor.graph_nodes"] = (per(sum(s.nodes for s in step_spans)
                                     + counted("nodes", steps), steps), "count")
    window = units_of(primary, window=True)
    out["tensor.ops"] = (per(sum(s.ops for s in spans_in(window))
                             + counted("ops", window), window), "count")
    out["optim.param_tensors"] = (per(counted("optim.param_tensors", steps),
                                      steps), "count")
    lsa = counted("set_head.lsa_calls", steps)
    matches = len(spans_in(steps, ("set_head.hungarian_match",)))
    out["set_head.lsa_calls"] = (per(lsa, steps), "count")
    out["set_head.lsa_per_match"] = (lsa / matches if matches else 0.0, "ratio")

    sweeps = units_of("sweep", window=True)
    forwards = len(spans_in(sweeps, ("model.forward", "harness.forward")))
    episodes = len(spans_in(sweeps, ("harness.run_inference",)))
    out["harness.forwards_per_episode"] = (forwards / episodes if episodes else 0.0,
                                           "ratio")
    out["metrics.iou_calls"] = (per(counted("metrics.iou_calls", sweeps), sweeps),
                                "count")
    ckpts = units_of("ckpt", window=True)
    out["checkpoint.bytes"] = (per(counted("checkpoint.bytes", ckpts), ckpts),
                               "bytes")
    return out
