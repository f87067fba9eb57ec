"""Object-object distinguishing: a learnable per-class feature space and the
temperature-scaled InfoNCE loss aligning support-branch class features with
it. Pulling each class feature toward its own embedding and away from the
others' increases inter-class distance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import (Tensor, log, exp, matmul, take_rows, tmean, tsum, transpose)


@dataclass
class ClassFeatureSpace:
    """C_max x d matrix of learnable class embeddings, rows indexed by class id."""

    embeddings: Tensor
    temperature: float = 0.1

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.embeddings.ndim != 2:
            raise ShapeError(f"embeddings must be 2-d, got {self.embeddings.shape}")


@dataclass
class SupportClassFeatures:
    """Support-branch output rows for class positions only (no placeholders)."""

    features: Tensor

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError(f"class features must be 2-d, got {self.features.shape}")

    @property
    def class_count(self) -> int:
        return self.features.shape[0]


def infonce_loss(f: SupportClassFeatures, t: ClassFeatureSpace,
                 class_ids: Sequence[int]) -> Tensor:
    """Mean over classes of -log softmax similarity with the matching
    embedding, the softmax ranging over the episode's selected rows only.

    Differentiable with respect to both the support features and the
    embedding table.
    """
    ids = list(class_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate class ids: {ids}")
    if t.temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {t.temperature}")
    c = f.class_count
    if len(ids) != c:
        raise ShapeError(f"{c} feature rows but {len(ids)} class ids")
    if c < 1:
        raise ShapeError("infonce_loss requires at least one class")

    selected = take_rows(t.embeddings, ids)
    logits = matmul(f.features, transpose(selected)) * (1.0 / t.temperature)
    # Row-max subtraction (as a constant) keeps the exponentials bounded
    # without changing the value or the gradient.
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    shifted = logits - shift
    lse = log(tsum(exp(shifted), axis=1, keepdims=True))
    diag = Tensor(np.eye(c))
    matched = tsum(shifted * diag, axis=1, keepdims=True)
    return tmean(lse - matched)


def min_interclass_separation(f: SupportClassFeatures) -> float:
    """Minimum pairwise cosine distance (1 - cosine similarity) among the
    class feature rows. Diagnostic only: operates on raw values."""
    x = f.features.data
    if x.shape[0] < 2:
        raise ShapeError("separation needs at least two classes")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        raise NumericError("zero-norm class feature row")
    unit = x / norms[:, None]
    cos = unit @ unit.T
    mask = ~np.eye(x.shape[0], dtype=bool)
    return float((1.0 - cos[mask]).min())
