"""Adam optimizer over named parameter dictionaries.

Moments are kept per parameter name so optimizer state can ride along in
checkpoints; parameters whose gradient is absent in a step are skipped
entirely (their moments are not decayed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

# Adam's decay rates and denominator floor, the defaults of Kingma & Ba.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor],
              grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update, in place on ``params``.

    ``grads`` maps a subset of parameter names to gradient arrays; names not
    present are left untouched. Returns the same objects for chaining.
    """
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    for name, grad in grads.items():
        param = params[name]
        if grad.shape != param.data.shape:
            raise ShapeError(
                f"adam_step: gradient {grad.shape} does not match "
                f"parameter '{name}' {param.data.shape}")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            state.first_moment[name] = m
            state.second_moment[name] = v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * (grad * grad)
        m_hat = m / correction1
        v_hat = v / correction2
        param.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return params, state


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of parameters that received one in the last backward pass."""
    return {name: p.grad for name, p in params.items() if p.grad is not None}


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
