"""Gradient checking: reverse-mode gradients of every kind of node a
training step records, each check named after the function that creates it
(``attention.q``: :func:`attention` with respect to ``q``), and of the full
training loss on a micro model, against central finite differences. This
is the numeric gate the CLI `gradcheck` verb runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ood, tensor as T
from .episodes import BenchmarkSpec, generate_episode
from .model import ModelConfig, compute_loss, init_model_state
from .set_head import bce_with_logits, box_loss
from .tensor import Tensor, finite_diff_gradient

@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _relative_error(analytic: np.ndarray, numeric: np.ndarray,
                    floor: float = 1e-2) -> float:
    """max |a - n| / (|n| + floor): with floor = atol/rtol this is the
    combined |a - n| <= atol + rtol |n| criterion expressed as a ratio."""
    denom = np.abs(numeric) + floor
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def _check(name: str, build, x: np.ndarray, rtol: float = 1e-5,
           h: float = 1e-6) -> CheckResult:
    """Compare d(sum of f)/dx between reverse mode and finite differences."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    loss = T.tsum(out) if out.size > 1 else out
    loss.backward()
    numeric = finite_diff_gradient(lambda v: T.tsum(build(v)), Tensor(x), h=h)
    return CheckResult(name, _relative_error(t.grad, numeric), rtol)


def primitive_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    m = rng.normal(size=(5, 3))
    results = [
        _check("add", lambda t: t + Tensor(b), a),
        _check("mul", lambda t: t * Tensor(b), a),
        _check("matmul", lambda t: T.matmul(t, Tensor(m)), a),
        _check("tsum", lambda t: T.tsum(t, axis=1), a),
        _check("sigmoid", lambda t: T.sigmoid(t), 3.0 * a),
        _check("silu", lambda t: T.silu(t), 3.0 * a),
    ]

    # Primitives with several inputs, checked with respect to each input in
    # turn against a random mix of the output. Attention runs two heads, so
    # the head split and merge are exercised too. The support-sequence
    # realization puts placeholders after the projected rows: a token on the
    # key side, zeros on the value side.
    fused = {
        "attention": (lambda q, k, v: T.attention(q, k, v, 2)[0],
                      {"q": (3, 4), "k": (5, 4), "v": (5, 4)}),
        "layer_norm": (T.layer_norm, {"x": (4, 5), "gamma": (5,), "beta": (5,)}),
        "linear": (T.linear, {"x": (4, 5), "w": (5, 3), "b": (3,)}),
        "concat_linear": (T.concat_linear, {"a": (4, 3), "b": (4, 2), "w": (5, 3),
                                            "bias": (3,)}),
        "project_rows.token": (
            lambda x, w, token: T.project_rows(x, w, 6, token),
            {"x": (3, 5), "w": (4, 5), "token": (4,)}),
        "project_rows.zeros": (lambda x, w: T.project_rows(x, w, 5),
                               {"x": (3, 5), "w": (4, 5)}),
        "ffn_apply": (T.ffn_apply, {"x": (4, 5), "w1": (5, 7), "b1": (7,),
                                    "w2": (7, 5), "b2": (5,)}),
        "infonce_loss": (lambda f, e: ood.infonce_loss(
            ood.SupportClassFeatures(f), ood.ClassFeatureSpace(e, 0.5), [4, 1, 2]),
                         {"features": (3, 5), "embeddings": (6, 5)}),
    }
    for op, (fn, shapes) in fused.items():
        inputs = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        mix = Tensor(rng.normal(size=fn(*map(Tensor, inputs.values())).shape))
        for name, x in inputs.items():
            def build(t, name=name, fn=fn, inputs=inputs, mix=mix):
                return fn(*(t if k == name else Tensor(v) for k, v in inputs.items())) * mix
            results.append(_check(f"{op}.{name}", build, x))

    # The set-loss nodes have one differentiable input each. Box loss: five
    # boxes, four of them matched out of order; every box has positive extent.
    pos_w, neg_w = rng.uniform(0.0, 1.0, size=(2, 4, 5))
    results.append(_check("bce_with_logits.z",
                          lambda t: bce_with_logits(t, pos_w, neg_w), 3.0 * a))
    boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(5, 2)),
                             rng.uniform(0.1, 0.4, size=(5, 2))])
    targets = np.column_stack([rng.uniform(0.3, 0.7, size=(4, 2)),
                               rng.uniform(0.1, 0.4, size=(4, 2))])
    results.append(_check("box_loss.boxes",
                          lambda t: box_loss(t, [4, 2, 0, 3], targets, 5.0, 2.0)[0],
                          boxes))
    return results


def micro_setup(seed: int = 0) -> tuple:
    """Tiny episode + model used for the full-loss gradient check."""
    spec = BenchmarkSpec(class_count=2, shots=2, capacity=3, grid_rows=2,
                         grid_cols=2, feature_dim=8, objects_min=1,
                         objects_max=1, bg_overlap=0.3, class_overlap=0.3,
                         seed=seed)
    cfg = ModelConfig(d=8, heads=2, encoder_layers=1, decoder_layers=1,
                      num_object_queries=3, n_max=3, input_dim=8,
                      num_class_embeddings=4, seed=seed)
    episode = generate_episode(spec, 0, "train")
    state = init_model_state(cfg)
    return episode, state, cfg


def full_loss_check(seed: int = 0, rtol: float = 1e-4,
                    h: float = 1e-6) -> list[CheckResult]:
    """Reverse-mode gradient of the complete training objective versus finite
    differences, for every parameter of a micro model. The bipartite matching
    is frozen at the base point (the loss is piecewise w.r.t. the matching)."""
    episode, state, cfg = micro_setup(seed)

    loss, _, diag = compute_loss(episode, state, cfg)
    loss.backward()
    match = diag["match"]

    def loss_at(name: str, values: Tensor) -> float:
        original = state.params[name]
        state.params[name] = Tensor(values.data)
        try:
            return compute_loss(episode, state, cfg, match)[0].item()
        finally:
            state.params[name] = original

    results = []
    for name in state.names():
        param = state.params[name]
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        numeric = finite_diff_gradient(lambda v, n=name: loss_at(n, v),
                                       Tensor(param.data), h=h)
        results.append(CheckResult(f"loss/{name}",
                                   _relative_error(analytic, numeric),
                                   rtol))
    return results


def run_gradcheck(seed: int = 0) -> tuple[list[CheckResult], bool]:
    results = primitive_checks(seed) + full_loss_check(seed)
    return results, all(r.ok for r in results)
