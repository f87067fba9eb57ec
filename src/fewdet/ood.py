"""Object-object distinguishing: a learnable per-class feature space and the
temperature-scaled InfoNCE loss (arXiv 1807.03748), one autodiff node,
aligning support-branch class features with it. Pulling each class feature
toward its own embedding and away from the others' increases inter-class
distance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class ClassFeatureSpace:
    """C_max x d matrix of learnable class embeddings, rows indexed by class id."""

    embeddings: Tensor
    temperature: float = 0.1

    def __post_init__(self):
        if not 0 < self.temperature < np.inf:  # NaN fails too
            raise ConfigError(f"temperature must be finite and > 0, not "
                              f"{self.temperature!r}")
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
    """Mean over the C classes of -log softmax similarity with the matching
    embedding, the softmax ranging over the episode's selected rows W only,
    as one graph node over the support features F and the embedding table.

    Backward, with e the exponentials of the logits ``F @ W^T / tau`` less
    their row max (a constant): ``ds = (g/C) / rowsum(e) * e - (g/C) * I``,
    then the product ``F @ W^T``'s gradients of ``ds / tau``, against the
    same contiguous ``W^T`` as the forward. Each step repeats, in order, the
    arithmetic of the same loss built from elementwise nodes, so the value
    and both gradients are bit-identical.
    """
    ids = list(class_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate class ids: {ids}")
    c = f.class_count
    if len(ids) != c:
        raise ShapeError(f"{c} feature rows but {len(ids)} class ids")
    if c < 1:
        raise ShapeError("infonce_loss requires at least one class")
    features, table = f.features, t.embeddings
    idx = np.asarray(ids, dtype=np.intp)
    if (idx.min() < 0 or idx.max() >= table.shape[0]
            or features.shape[1] != table.shape[1]):
        raise ShapeError(f"class ids {ids} or features {features.shape} do not "
                         f"fit embeddings {table.shape}")

    inv_t, inv_c = 1.0 / t.temperature, 1.0 / c
    wt = table.data[idx].T.copy()
    shifted = features.data @ wt
    shifted *= inv_t
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    eye = np.eye(c)  # not np.diagonal: a -inf logit still makes its row NaN
    loss =(np.log(s) - (shifted * eye).sum(axis=1, keepdims=True)).sum() * inv_c

    def backward(g: np.ndarray):
        gc = g * inv_c
        ds = gc / s * e
        ds += -gc * eye
        ds *= inv_t
        full = np.zeros_like(table.data)
        full[idx] = 0.0 + (features.data.T @ ds).T
        return (ds @ wt.T, full)

    return Tensor._result(np.asarray(loss), (features, table), backward)


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
