"""Object-background distinguishing attention.

A support sequence holds C class positions followed by n - C background
placeholders over a (C, d) class-feature matrix: row i is the i-th class.
Attention over the sequence is permutation-equivariant, so fixing the
placeholders last loses nothing. On the key side every placeholder is
realized as the shared learnable background token (deliberately *not*
passed through the key projection); on the value side it is a fixed zero
vector, so attention mass spent on the background contributes nothing to
the mixed output and the token is trained purely through the similarity
path. Each side is one graph node (:func:`fewdet.tensor.project_rows`):
the projected class features in the first C rows, and the token or the
zero row in the rest.

Two branches share the machinery: the support branch lets class features
attend over the sequence itself (self-interaction), the query branch lets
image patch features attend over the sequence and then fuses the result
back with the original patches through Conv1D + FFN. The Conv1D is one
:func:`fewdet.tensor.concat_linear` node over the patches and the attended
features side by side, which keeps no concatenated copy for backward; the
FFN is one :func:`fewdet.tensor.ffn_apply` node. Both branches run every
head at once through the fused :func:`fewdet.tensor.attention` primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .tensor import (FfnParams, Tensor, attention, concat_linear, ffn_apply,
                     matmul_t, project_rows)


@dataclass(frozen=True)
class SupportSequence:
    """Support positions: the classes ``class_ids`` first, in that order,
    then background placeholders up to ``length``. ``features`` is the
    (C, d) class-feature matrix, row i belonging to ``class_ids[i]``;
    ``dataclasses.replace(seq, features=...)`` swaps the features and
    re-runs the checks."""

    class_ids: tuple[int, ...]
    length: int
    features: Tensor

    def __post_init__(self):
        ids = self.class_ids
        if len(set(ids)) != len(ids):
            raise ShapeError(f"duplicate class ids in support sequence: {ids}")
        if self.features.ndim != 2 or self.features.shape[0] != len(ids):
            raise ShapeError(f"expected {len(ids)} feature rows, "
                             f"got {self.features.shape}")
        if self.length < len(ids):
            raise ShapeError(f"sequence length {self.length} is shorter than "
                             f"its {len(ids)} classes")

    def __len__(self) -> int:
        return self.length


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
    head_attention: np.ndarray  # (heads, n, m), a constant outside the graph
    refined: Optional[Tensor] = None

    @property
    def attention(self) -> np.ndarray:
        """The head-averaged (n, m) attention, computed when read: most
        forwards never read it."""
        return head_average(self.head_attention)


def head_average(head_attention: np.ndarray) -> np.ndarray:
    """The (n, m) mean over the heads of a (heads, n, m) attention."""
    return head_attention.sum(axis=0) * (1.0 / head_attention.shape[0])


def build_key_sequence(s: SupportSequence, w_key: Tensor, token: Tensor) -> Tensor:
    """Key-side realization of the sequence: projected class features with the
    1-d background token dropped in *unprojected* at every placeholder."""
    return project_rows(s.features, w_key, len(s), token)


def build_value_sequence(s: SupportSequence, w3: Tensor) -> Tensor:
    """Value-side realization: projected class features, exact zero rows at
    placeholders (the zero rows are constants and carry no gradient)."""
    return project_rows(s.features, w3, len(s))


def ofe_support(s: SupportSequence, proj: OfeProjections, token: Tensor,
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
    return RefinedFeatures(per_position_output=out, head_attention=attn)


def ofe_query(q_patches: Tensor, s: SupportSequence, proj: OfeProjections,
              token: Tensor, d: int, fusion: OfeFusion,
              heads: int = 1) -> RefinedFeatures:
    """Query-branch cross-interaction plus Conv1D/FFN fusion with the
    original patches, so global image content is retained."""
    if q_patches.ndim != 2 or q_patches.shape[0] < 1:
        raise ShapeError(f"ofe_query: need at least one patch row, got {q_patches.shape}")
    projected_q = matmul_t(q_patches, proj.w1)
    keys = build_key_sequence(s, proj.w2, token)
    values = build_value_sequence(s, proj.w3)
    out, attn = attention(projected_q, keys, values, heads)
    fused = concat_linear(q_patches, out, fusion.conv_kernel, fusion.conv_bias)
    refined = ffn_apply(fused, fusion.ffn)
    if refined.shape != (q_patches.shape[0], d):
        raise ShapeError(f"refined output {refined.shape} != ({q_patches.shape[0]}, {d})")
    return RefinedFeatures(per_position_output=out, head_attention=attn,
                           refined=refined)


def background_attention_mass(attention: np.ndarray,
                              s: SupportSequence) -> np.ndarray:
    """Per row of the attention matrix, the mass spent on the placeholder
    columns, the last n - C (diagnostic)."""
    return attention[:, len(s.class_ids):].sum(axis=1)
