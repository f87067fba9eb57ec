"""Object-background distinguishing attention.

A support sequence is a layout of class positions and background
placeholders over a (C, d) class-feature matrix. On the key side every
placeholder is realized as a shared learnable background token
(deliberately *not* passed through the key projection); on the value side
it is a fixed zero vector, so attention mass spent on the background
contributes nothing to the mixed output and the token is trained purely
through the similarity path. Both sides are one row gather over the
projected class features plus one filler row.

Two branches share the machinery: the support branch lets class features
attend over the sequence itself (self-interaction), the query branch lets
image patch features attend over the sequence and then fuses the result
back with the original patches through Conv1D + FFN. Both run every head at
once through the fused :func:`fewdet.tensor.attention` primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ShapeError
from .tensor import (FfnParams, Tensor, attention, concat_channels, concat_rows,
                     ffn_apply, matmul, pointwise_conv1d, reshape, take_rows,
                     transpose)


@dataclass
class BackgroundToken:
    """Learnable d-vector standing in for "not any target class"."""

    vector: Tensor

    def __post_init__(self):
        if self.vector.ndim != 1:
            raise ShapeError(f"background token must be a vector, got {self.vector.shape}")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class SupportSequence:
    """Ordered support positions: classes and background placeholders.

    ``layout`` holds a class id at each class position and ``None`` at each
    placeholder; ``features`` is the (C, d) class-feature matrix, row i
    belonging to the i-th class position. Positions, class ids and the row
    gather index are derived from the layout once per instance;
    ``dataclasses.replace(seq, features=...)`` swaps the features and
    re-runs the checks.
    """

    layout: tuple[Optional[int], ...]
    features: Tensor

    def __post_init__(self):
        ids = self.class_ids
        if len(set(ids)) != len(ids):
            raise ShapeError(f"duplicate class ids in support sequence: {ids}")
        if self.features.ndim != 2 or self.features.shape[0] != len(ids):
            raise ShapeError(f"expected {len(ids)} feature rows, "
                             f"got {self.features.shape}")

    def __len__(self) -> int:
        return len(self.layout)

    @cached_property
    def class_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.layout) if c is not None)

    @cached_property
    def placeholder_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.layout) if c is None)

    @cached_property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(c for c in self.layout if c is not None)

    @property
    def class_count(self) -> int:
        return len(self.class_ids)

    @cached_property
    def gather_index(self) -> tuple[int, ...]:
        """Row of ``[class rows; filler row]`` realized at each position."""
        rows = iter(range(self.class_count))
        return tuple(self.class_count if c is None else next(rows)
                     for c in self.layout)

    def position_of_class(self, class_id: int) -> int:
        if class_id not in self.class_ids:
            raise KeyError(f"class id {class_id} has no position in this sequence")
        return self.layout.index(class_id)


@dataclass
class OfeProjections:
    """Per-layer weight matrices: w1 on query patches, w2 keys, w3 values."""

    w1: Tensor
    w2: Tensor
    w3: Tensor

    def __post_init__(self):
        for name, w in (("w1", self.w1), ("w2", self.w2), ("w3", self.w3)):
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ShapeError(f"{name} must be square, got {w.shape}")


@dataclass
class OfeFusion:
    """Conv1D + FFN parameters fusing patches with their attended features."""

    conv_kernel: Tensor  # (2d, d)
    conv_bias: Tensor    # (d,)
    ffn: FfnParams


@dataclass
class RefinedFeatures:
    per_position_output: Tensor
    attention: np.ndarray  # head-averaged, a constant outside the graph
    refined: Optional[Tensor] = None


def _realize(s: SupportSequence, projected: Tensor, filler: Tensor) -> Tensor:
    """Sequence rows in position order with one gather: row i of
    ``projected`` at the i-th class position, the ``filler`` row at every
    placeholder. The filler enters the graph only when the sequence has
    placeholders."""
    table = concat_rows([projected, filler]) if s.placeholder_positions else projected
    return take_rows(table, s.gather_index)


def build_key_sequence(s: SupportSequence, w_key: Tensor,
                       token: BackgroundToken) -> Tensor:
    """Key-side realization of the sequence: projected class features with the
    background token dropped in *unprojected* at every placeholder."""
    d = token.dim
    projected = matmul(s.features, transpose(w_key))
    if projected.shape[1] != d:
        raise ShapeError(
            f"key projection output {projected.shape} does not match token dim {d}")
    return _realize(s, projected, reshape(token.vector, (1, d)))


def build_value_sequence(s: SupportSequence, w3: Tensor) -> Tensor:
    """Value-side realization: projected class features, exact zero rows at
    placeholders (the zero rows are constants and carry no gradient)."""
    projected = matmul(s.features, transpose(w3))
    return _realize(s, projected, Tensor(np.zeros((1, projected.shape[1]))))


def ofe_support(s: SupportSequence, proj: OfeProjections, token: BackgroundToken,
                d: int, heads: int = 1) -> RefinedFeatures:
    """Support-branch self-interaction: keys double as queries, values carry
    zero rows at placeholders so background mass dilutes rather than leaks."""
    if len(s) == 0:
        raise ShapeError("ofe_support: empty support sequence")
    keys = build_key_sequence(s, proj.w2, token)
    values = build_value_sequence(s, proj.w3)
    if keys.shape[1] != d:
        raise ShapeError(f"sequence dim {keys.shape[1]} does not match d={d}")
    out, attn = attention(keys, keys, values, heads)
    return RefinedFeatures(per_position_output=out, attention=attn)


def ofe_query(q_patches: Tensor, s: SupportSequence, proj: OfeProjections,
              token: BackgroundToken, d: int, fusion: OfeFusion,
              heads: int = 1) -> RefinedFeatures:
    """Query-branch cross-interaction plus Conv1D/FFN fusion with the
    original patches, so global image content is retained."""
    if q_patches.ndim != 2 or q_patches.shape[0] < 1:
        raise ShapeError(f"ofe_query: need at least one patch row, got {q_patches.shape}")
    projected_q = matmul(q_patches, transpose(proj.w1))
    keys = build_key_sequence(s, proj.w2, token)
    values = build_value_sequence(s, proj.w3)
    out, attn = attention(projected_q, keys, values, heads)
    fused = pointwise_conv1d(concat_channels(q_patches, out),
                             fusion.conv_kernel, fusion.conv_bias)
    refined = ffn_apply(fused, fusion.ffn)
    if refined.shape != (q_patches.shape[0], d):
        raise ShapeError(f"refined output {refined.shape} != ({q_patches.shape[0]}, {d})")
    return RefinedFeatures(per_position_output=out, attention=attn,
                           refined=refined)


def background_attention_mass(attention: np.ndarray,
                              s: SupportSequence) -> np.ndarray:
    """Per row of the attention matrix, the mass spent on placeholder
    positions (diagnostic; zero vector when the sequence has none)."""
    positions = s.placeholder_positions
    if not positions:
        return np.zeros(attention.shape[0])
    return attention[:, positions].sum(axis=1)
