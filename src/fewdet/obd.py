"""Object-background distinguishing attention.

A support sequence mixes per-class feature slots with background
placeholders. On the key side every placeholder is realized as a shared
learnable background token (deliberately *not* passed through the key
projection); on the value side it is a fixed zero vector, so attention mass
spent on the background contributes nothing to the mixed output and the
token is trained purely through the similarity path.

Two branches share the machinery: the support branch lets class features
attend over the sequence itself (self-interaction), the query branch lets
image patch features attend over the sequence and then fuses the result
back with the original patches through Conv1D + FFN. Both run every head at
once through the fused :func:`fewdet.tensor.attention` primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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


@dataclass
class ClassSlot:
    class_id: int
    # (d,) feature, read only when the sequence is built without a feature
    # matrix; a sequence given one keeps its class features there.
    feature: Optional[Tensor] = None


class BackgroundPlaceholder:
    """Marker slot holding no class."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "[bg]"


BG = BackgroundPlaceholder()
Slot = Union[ClassSlot, BackgroundPlaceholder]


@dataclass
class SupportSequence:
    """Ordered support slots: class features plus background placeholders.

    ``features`` is the (C, d) matrix of class features, row i belonging to
    the i-th class slot. When it is not given it is stacked from the slots'
    own features.
    """

    slots: list[Slot]
    features: Optional[Tensor] = None

    def __post_init__(self):
        ids = self.class_ids
        if len(set(ids)) != len(ids):
            raise ShapeError(f"duplicate class ids in support sequence: {ids}")
        if self.features is None and ids:
            feats = [s.feature for s in self.slots if isinstance(s, ClassSlot)]
            dims = {None if f is None else f.shape for f in feats}
            if len(dims) > 1 or None in dims:
                raise ShapeError(f"class slot features missing or inconsistent: {dims}")
            self.features = concat_rows([reshape(f, (1, f.shape[0])) for f in feats])
        elif self.features is not None and (
                self.features.ndim != 2 or self.features.shape[0] != len(ids)):
            raise ShapeError(f"expected {len(ids)} feature rows, "
                             f"got {self.features.shape}")

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def class_count(self) -> int:
        return sum(1 for s in self.slots if isinstance(s, ClassSlot))

    @property
    def class_positions(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if isinstance(s, ClassSlot)]

    @property
    def placeholder_positions(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if not isinstance(s, ClassSlot)]

    @property
    def class_ids(self) -> list[int]:
        return [s.class_id for s in self.slots if isinstance(s, ClassSlot)]

    def position_of_class(self, class_id: int) -> int:
        for i, s in enumerate(self.slots):
            if isinstance(s, ClassSlot) and s.class_id == class_id:
                return i
        raise KeyError(f"class id {class_id} has no slot in this sequence")

    def class_feature_matrix(self) -> Tensor:
        """Class slot features as a C x d tensor (graph-recorded)."""
        if self.features is None:
            raise ShapeError("support sequence has no class slots")
        return self.features

    def with_class_features(self, features: Tensor) -> "SupportSequence":
        """Same layout with the class features replaced by ``features``."""
        return SupportSequence([ClassSlot(s.class_id) if isinstance(s, ClassSlot)
                                else s for s in self.slots], features)


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
    attention: Tensor  # head-averaged, a constant outside the graph
    refined: Optional[Tensor] = None


def _realize(s: SupportSequence, projected: Optional[Tensor],
             filler: Tensor) -> Tensor:
    """Sequence rows in slot order with one gather: row i of ``projected``
    at the i-th class slot, the ``filler`` row at every placeholder. The
    filler enters the graph only when the sequence has placeholders."""
    table = [] if projected is None else [projected]
    if s.placeholder_positions:
        table.append(filler)
    rows = iter(range(s.class_count))
    index = [next(rows) if isinstance(slot, ClassSlot) else s.class_count
             for slot in s.slots]
    return take_rows(table[0] if len(table) == 1 else concat_rows(table), index)


def build_key_sequence(s: SupportSequence, w_key: Tensor,
                       token: BackgroundToken) -> Tensor:
    """Key-side realization of the sequence: projected class features with the
    background token dropped in *unprojected* at every placeholder."""
    d = token.dim
    projected = None
    if s.class_count:
        projected = matmul(s.class_feature_matrix(), transpose(w_key))
        if projected.shape[1] != d:
            raise ShapeError(
                f"key projection output {projected.shape} does not match token dim {d}")
    return _realize(s, projected, reshape(token.vector, (1, d)))


def build_value_sequence(s: SupportSequence, w3: Tensor) -> Tensor:
    """Value-side realization: projected class features, exact zero rows at
    placeholders (the zero rows are constants and carry no gradient)."""
    if s.class_count == 0:
        return Tensor(np.zeros((len(s), w3.shape[0])))
    projected = matmul(s.class_feature_matrix(), transpose(w3))
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
    return RefinedFeatures(per_position_output=out, attention=Tensor(attn))


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
    return RefinedFeatures(per_position_output=out, attention=Tensor(attn),
                           refined=refined)


def background_attention_mass(attention: np.ndarray | Tensor,
                              s: SupportSequence) -> np.ndarray:
    """Per row of the attention matrix, the mass spent on placeholder
    positions (diagnostic; zero vector when the sequence has none)."""
    attn = attention.data if isinstance(attention, Tensor) else np.asarray(attention)
    positions = s.placeholder_positions
    if not positions:
        return np.zeros(attn.shape[0])
    return attn[:, positions].sum(axis=1)
