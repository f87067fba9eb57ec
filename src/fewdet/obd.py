"""Object-background distinguishing attention.

A support sequence holds C class positions followed by n - C background
placeholders over a (C, d) class-feature matrix: row i is the i-th class.
Attention over the sequence is permutation-equivariant, so fixing the
placeholders last loses nothing. On the key side every placeholder is
realized as the shared learnable background token (deliberately *not*
passed through the key projection); on the value side it is a fixed zero
vector, so attention mass spent on the background contributes nothing to
the mixed output and the token is trained purely through the similarity
path. Every projection is one :func:`fewdet.tensor.project_rows` node
(``x @ w``, then any placeholder rows), each weight stored as the
(in, out) matrix that product reads: the key side is
``project_rows(s.features, w_key, len(s), token)`` and the value side
``project_rows(s.features, w_value, len(s))``, the projected class
features in the first C rows and the token or the zero row in the rest.

Two branches share one wiring, :func:`ofe_query_attention`: rows
projected with no placeholders (``project_rows(x, w)``) attend over the key
and value sequences, whose placeholders are keys and values only, never
rows that attend. The support branch's rows are its C class features under
the key projection (self-interaction), the query branch's the image patches
under the query projection; it then fuses the result back with the original
patches through Conv1D + FFN. The Conv1D is one
:func:`fewdet.tensor.concat_linear` node over the patches and the attended
features side by side, which keeps no concatenated copy for backward; the
FFN is one :func:`fewdet.tensor.ffn_apply` node. Both branches run every
head at once through the fused :func:`fewdet.tensor.attention` primitive.

The branches take the weight tensors they read and return plain values:
:func:`ofe_support` takes the key and value projections and returns
``(out, head_attention)`` for the C class rows;
:func:`ofe_query` also takes the query projection, the Conv1D kernel and
bias and the FFN's four tensors, and returns ``(refined, out,
head_attention)``. Its attention half is :func:`ofe_query_attention`,
which returns ``(out, head_attention)`` with no fusion: the diagnostic
forward (``fewdet.model.forward(..., detect=False)``) stops there at the
last query layer, whose refined patches nothing reads. The head attention
is the (heads, rows, n) array ``attention`` returns; :func:`head_average`
is the one place it is averaged over the heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, attention, concat_linear, ffn_apply, project_rows


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


def head_average(head_attention: np.ndarray) -> np.ndarray:
    """The (..., n, m) mean over the heads of a (..., heads, n, m)
    attention: a (heads, n, m) attention, or a stack of them on leading
    batch axes. The sum runs over the heads axis, so each stacked attention
    averages to the bits of its own call."""
    return head_attention.sum(axis=-3) * (1.0 / head_attention.shape[-3])


def ofe_support(s: SupportSequence, w_key: Tensor, w_value: Tensor,
                token: Tensor, heads: int = 1) -> tuple[Tensor, np.ndarray]:
    """Support-branch self-interaction: each class row attends over the
    sequence with its own key as the query; values carry zero rows at
    placeholders so background mass dilutes rather than leaks. It is
    :func:`ofe_query_attention` with the class features as the rows and the
    key projection as the query projection. Returns the (C, d) output and
    (heads, C, n) attention: the first C rows of self-attention over all n
    positions; with no class (C = 0), zero rows of each."""
    return ofe_query_attention(s.features, s, w_key, w_key, w_value, token, heads)


def ofe_query_attention(q_patches: Tensor, s: SupportSequence, w_query: Tensor,
                        w_key: Tensor, w_value: Tensor, token: Tensor,
                        heads: int = 1) -> tuple[Tensor, np.ndarray]:
    """The attention half of :func:`ofe_query`: the patches, under the
    query projection, attend over the sequence. Returns the (P, d) attended
    features and the (heads, P, n) attention, with no fusion; the diagnostic
    forward of :func:`fewdet.model.forward` stops here at its last layer."""
    return attention(project_rows(q_patches, w_query),
                     project_rows(s.features, w_key, len(s), token),
                     project_rows(s.features, w_value, len(s)), heads)


def ofe_query(q_patches: Tensor, s: SupportSequence, w_query: Tensor,
              w_key: Tensor, w_value: Tensor, token: Tensor, conv_kernel: Tensor,
              conv_bias: Tensor, ffn: tuple[Tensor, Tensor, Tensor, Tensor],
              heads: int = 1) -> tuple[Tensor, Tensor, np.ndarray]:
    """Query-branch cross-interaction (:func:`ofe_query_attention`) plus
    Conv1D/FFN fusion with the original patches, so global image content is
    retained; ``ffn`` is the FFN's ``(w1, b1, w2, b2)``. Returns the
    (P, d) refined patches, the (P, d) attended features and the
    (heads, P, n) attention. No patch row is a ShapeError."""
    if q_patches.ndim != 2 or q_patches.shape[0] < 1:
        raise ShapeError(f"ofe_query: need at least one patch row, got {q_patches.shape}")
    out, attn = ofe_query_attention(q_patches, s, w_query, w_key, w_value,
                                    token, heads)
    fused = concat_linear(q_patches, out, conv_kernel, conv_bias)
    return ffn_apply(fused, *ffn), out, attn


def background_attention_mass(attention: np.ndarray,
                              s: SupportSequence) -> np.ndarray:
    """Per row of the (..., rows, n) attention, the mass spent on the
    placeholder columns, the last n - C (diagnostic). Leading batch axes
    stack attentions over sequences of ``s``'s class count; each row sums
    as it does alone."""
    return attention[..., len(s.class_ids):].sum(axis=-1)
