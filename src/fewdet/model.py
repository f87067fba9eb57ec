"""End-to-end assembly: patch embedder, support encoder stack, query encoder
stack, transformer decoder over learned object queries, and the detection
heads, plus the training step combining the set loss with the contrastive
class-separation loss.

The support sequence is the episode's classes in episode order, then
background placeholders up to ``n_max`` (none in single-class mode), over
the embedded (C, d) support features. The support branch refines those
features through self-interaction layers: each adds what the C class rows
gather over the whole sequence to its feature matrix, keeping its classes
and length; the final class rows feed the contrastive loss. The query
branch refines patch features against the *modified* support sequence.
The classification head scores each decoder output against every support
position (the C class rows through a projection, then the placeholders as
the raw background token), which is what makes the head class-agnostic
and gives the background token its supervision path.

:func:`forward` reads every weight from ``state.params``, hands the OBD
layers the tensors they read (the FFN's four picked by :func:`_ffn`, as
for :func:`_decoder`), and gets plain tensors and per-head attention back;
its diagnostics keep the last query layer's, which
:func:`fewdet.obd.head_average` averages wherever a caller needs the mean.
``forward(..., detect=False)`` stops there, at the last query layer's
attention (:func:`fewdet.obd.ofe_query_attention`), before that layer's
Conv1D and FFN fusion, the decoder and the heads: evaluation's diagnostic
forward reads nothing past that point.

Every attention block, in the encoders and the decoder alike, runs its heads
at once through the fused :func:`fewdet.tensor.attention` primitive, and
:func:`layer_norm` is the fused primitive of :mod:`fewdet.tensor`. The
embedding and the box head's layers are :func:`fewdet.tensor.linear`
nodes, each FFN block is one :func:`ffn_apply` node, and every product
with a transposed matrix is one :func:`fewdet.tensor.project_rows` node:
the OBD projections, the support keys of the class head, and its logits
against those keys.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .episodes import Episode, single_class_view
from .errors import ConfigError, NumericError
from .metrics import bad_boxes
from .obd import SupportSequence, ofe_query, ofe_query_attention, ofe_support
from .ood import ClassFeatureSpace, SupportClassFeatures, infonce_loss
from .optim import (AdamState, adam_step, collect_grads, flat_parameters,
                    zero_grads)
from .set_head import (DetectionOutput, GroundTruth, Weights, decode_detections,
                       hungarian_match, match_cost, set_loss)
from .tensor import (Tensor, attention, ffn_apply, layer_norm, linear, matmul,
                     no_grad, project_rows, sigmoid, silu)

VARIANTS = ("baseline", "+OBD", "+OBD+OOD")


@dataclass(frozen=True)
class ModelConfig:
    """Model hyper-parameters. Five of them are derived, never read from a
    config file (``config.DERIVED_MODEL_KEYS``): ``RunConfig.resolved_model``
    sets ``input_dim`` (the benchmark's ``feature_dim``),
    ``num_class_embeddings`` (twice its ``class_count``), ``n_max`` (its
    ``capacity``, the support sequence length) and ``seed`` (the run's
    top-level seed); :func:`ablation_variant` sets ``single_class_mode``."""

    d: int = 64
    heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    num_object_queries: int = 25
    n_max: int = 5
    input_dim: int = 32
    num_class_embeddings: int = 8
    temperature: float = 0.1
    ood_weight: float = 1.0
    weights: Weights = field(default_factory=Weights)
    learning_rate: float = 1e-3
    seed: int = 0
    single_class_mode: bool = False

    def __post_init__(self):
        if self.d < 4 or self.d % 4:
            raise ConfigError(f"d must be a positive multiple of 4 (the "
                              f"positional code has four parts), not {self.d}")
        for name in ("heads", "encoder_layers", "decoder_layers",
                     "num_object_queries", "input_dim", "num_class_embeddings"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.n_max < 2:
            raise ConfigError("n_max must be >= 2 (one class plus one placeholder)")
        for name in ("learning_rate", "temperature"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ConfigError(f"{name} must be finite and > 0, not "
                                  f"{getattr(self, name)!r}")
        if not 0 <= self.ood_weight < np.inf:
            raise ConfigError(f"ood_weight must be finite and >= 0, not "
                              f"{self.ood_weight!r}")


class ModelState:
    """All learnable tensors, keyed by stable names derived from the config.

    Every parameter's ``.data`` is a view into one flat float64 buffer, in
    the order of :func:`parameter_shapes` (see :mod:`fewdet.optim`), so
    that Adam updates the whole model a few buffer-wide operations at a
    time."""

    def __init__(self, params: dict[str, Tensor], cfg: ModelConfig):
        self.params = params
        self.cfg = cfg

    def names(self) -> list[str]:
        return sorted(self.params)

    def class_space(self) -> ClassFeatureSpace:
        return ClassFeatureSpace(embeddings=self.params["ood.embeddings"],
                                 temperature=self.cfg.temperature)


def parameter_layout(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each parameter in layout order, from the config
    alone and one at a time, so a checkpoint reader can stop early."""
    d, h = cfg.d, 2 * cfg.d
    yield "embed.weight", (cfg.input_dim, d)
    yield "embed.bias", (d,)
    yield "obd.background_token", (d,)
    yield "ood.embeddings", (cfg.num_class_embeddings, d)
    yield "queries.embed", (cfg.num_object_queries, d)
    yield "queries.ref", (cfg.num_object_queries, 4)
    yield "head.class.query_proj", (d, d)
    yield "head.class.support_proj", (d, d)
    yield "head.class.bias", (1,)
    yield "head.box.w1", (d, h)
    yield "head.box.b1", (h,)
    yield "head.box.w2", (h, 4)
    yield "head.box.b2", (4,)
    for i in range(cfg.encoder_layers):
        yield f"obd.layer{i}.w1", (d, d)
        yield f"obd.layer{i}.w2", (d, d)
        yield f"obd.layer{i}.w3", (d, d)
        yield f"obd.layer{i}.conv.kernel", (2 * d, d)
        yield f"obd.layer{i}.conv.bias", (d,)
        yield f"obd.layer{i}.ffn.w1", (d, h)
        yield f"obd.layer{i}.ffn.b1", (h,)
        yield f"obd.layer{i}.ffn.w2", (h, d)
        yield f"obd.layer{i}.ffn.b2", (d,)
    for j in range(cfg.decoder_layers):
        for attn in ("self", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                yield f"dec.layer{j}.{attn}.{w}", (d, d)
        for ln in ("ln1", "ln2", "ln3"):
            yield f"dec.layer{j}.{ln}.gamma", (d,)
            yield f"dec.layer{j}.{ln}.beta", (d,)
        yield f"dec.layer{j}.ffn.w1", (d, h)
        yield f"dec.layer{j}.ffn.b1", (h,)
        yield f"dec.layer{j}.ffn.w2", (h, d)
        yield f"dec.layer{j}.ffn.b2", (d,)


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map of :func:`parameter_layout`, in its order."""
    return dict(parameter_layout(cfg))


def _reference_lattice(m: int) -> np.ndarray:
    """Initial per-query reference boxes: centers on a near-square lattice
    over the unit image, extents ~0.2, all expressed as pre-sigmoid logits."""
    side = int(np.ceil(np.sqrt(m)))
    centers = (np.arange(side) + 0.5) / side
    boxes = np.zeros((m, 4))
    for q in range(m):
        boxes[q] = [centers[q % side], centers[(q // side) % side], 0.2, 0.2]
    p = np.clip(boxes, 1e-4, 1 - 1e-4)
    return np.log(p / (1 - p))


def init_model_state(cfg: ModelConfig) -> ModelState:
    rng = np.random.default_rng(cfg.seed)
    shapes = parameter_shapes(cfg)
    params = flat_parameters(shapes, zeroed=False)  # every value is set below
    for name, shape in shapes.items():
        if name == "obd.background_token":
            data = rng.normal(0.0, 0.02, size=shape)
        elif name == "ood.embeddings":
            data = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=shape)
        elif name.endswith(".gamma"):
            data = 1.0
        elif name.endswith((".bias", ".beta", ".b1", ".b2")):
            data = 0.0
        elif name == "queries.embed":
            data = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=shape)
        elif name == "queries.ref":
            data = _reference_lattice(cfg.num_object_queries)
        else:
            fan_in = shape[0]
            data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        params[name].data[...] = data
    return ModelState(params, cfg)


def zero_model_state(cfg: ModelConfig) -> ModelState:
    """Every parameter exactly zero; useful for contract tests."""
    return ModelState(flat_parameters(parameter_shapes(cfg)), cfg)


# -- feature extraction -----------------------------------------------------------


@functools.lru_cache(maxsize=32)
def sinusoidal_grid_encoding(rows: int, cols: int, d: int) -> np.ndarray:
    """Fixed 2-d positional code: half the channels encode the row index,
    half the column index, interleaved sine/cosine at geometric wavelengths."""
    quarter = d // 4
    freqs = 1.0 / (100.0 ** (np.arange(quarter) / max(quarter, 1)))
    out = np.zeros((rows * cols, d))
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            out[p, 0:quarter] = np.sin(r * freqs)
            out[p, quarter:2 * quarter] = np.cos(r * freqs)
            out[p, 2 * quarter:3 * quarter] = np.sin(c * freqs)
            out[p, 3 * quarter:] = np.cos(c * freqs)
    return out


def extract_features(episode: Episode, state: ModelState,
                     cfg: ModelConfig) -> tuple[Tensor, SupportSequence]:
    """Embed raw patch and support features through the shared affine map,
    add positional codes to patches, and lay the support classes out in
    episode order, padded with background placeholders up to the sequence
    capacity."""
    if episode.patches.shape[1] != cfg.input_dim:
        raise ConfigError(
            f"episode feature dim {episode.patches.shape[1]} does not match "
            f"model input_dim {cfg.input_dim}")
    w, b = state.params["embed.weight"], state.params["embed.bias"]
    rows, cols = episode.grid
    pos = Tensor(sinusoidal_grid_encoding(rows, cols, cfg.d))
    patches = linear(Tensor(episode.patches), w, b) + pos

    support = linear(Tensor(episode.support), w, b)
    c = len(episode.class_ids)
    n = 1 if cfg.single_class_mode else cfg.n_max
    if c > n:
        raise ConfigError(f"episode has {c} classes but sequence capacity is {n}")
    class_ids = tuple(int(cid) for cid in episode.class_ids)
    return patches, SupportSequence(class_ids, n, support)


# -- decoder building blocks --------------------------------------------------------


def _ffn(params: dict[str, Tensor], layer: str) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The ``(w1, b1, w2, b2)`` of the FFN of ``layer``, e.g. ``dec.layer1``."""
    return tuple(params[f"{layer}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2"))


def multi_head_attention(x_q: Tensor, x_kv: Tensor, wq: Tensor, wk: Tensor,
                         wv: Tensor, wo: Tensor, heads: int) -> Tensor:
    """Project queries, keys and values, attend over all heads at once, and
    mix the concatenated head outputs through ``wo``."""
    merged, _ = attention(matmul(x_q, wq), matmul(x_kv, wk), matmul(x_kv, wv), heads)
    return matmul(merged, wo)


def _decoder(state: ModelState, cfg: ModelConfig, memory: Tensor,
             pos: Tensor) -> Tensor:
    # Positional codes are re-added at every cross-attention (keys and
    # values): encoder refinement is free to wash them out of the content,
    # the decoder still needs them to localize.
    memory_pos = memory + pos
    p = state.params
    x = p["queries.embed"]
    for j in range(cfg.decoder_layers):
        attn = multi_head_attention(x, x, p[f"dec.layer{j}.self.wq"],
                                    p[f"dec.layer{j}.self.wk"],
                                    p[f"dec.layer{j}.self.wv"],
                                    p[f"dec.layer{j}.self.wo"], cfg.heads)
        x = layer_norm(x + attn, p[f"dec.layer{j}.ln1.gamma"], p[f"dec.layer{j}.ln1.beta"])
        cross = multi_head_attention(x, memory_pos, p[f"dec.layer{j}.cross.wq"],
                                     p[f"dec.layer{j}.cross.wk"],
                                     p[f"dec.layer{j}.cross.wv"],
                                     p[f"dec.layer{j}.cross.wo"], cfg.heads)
        x = layer_norm(x + cross, p[f"dec.layer{j}.ln2.gamma"], p[f"dec.layer{j}.ln2.beta"])
        x = layer_norm(ffn_apply(x, *_ffn(p, f"dec.layer{j}")),
                       p[f"dec.layer{j}.ln3.gamma"], p[f"dec.layer{j}.ln3.beta"])
    return x


# -- forward pass -------------------------------------------------------------------


def forward(episode: Episode, state: ModelState, cfg: ModelConfig, *,
            detect: bool = True
            ) -> tuple[DetectionOutput | None, SupportClassFeatures, dict]:
    """Full forward pass; returns detections, the support-branch class
    features (contrastive tap), and diagnostics: the final support
    ``sequence`` and the last query layer's (heads, P, n_max)
    ``query_attention`` over it.

    With ``detect=False`` it stops at the last query-OBD layer's attention
    (:func:`fewdet.obd.ofe_query_attention`), before that layer's Conv1D and
    FFN fusion, and returns ``None`` for the detections: no fusion of the
    last layer, no decoder, no heads. Only the
    diagnostic forward of :func:`fewdet.harness.evaluate_model` asks for
    that, until ROADMAP item 1 reads the diagnostics from inference's own
    forward and deletes the parameter with that call."""
    patches, seq = extract_features(episode, state, cfg)
    p = state.params
    token = p["obd.background_token"]

    for i in range(cfg.encoder_layers):
        attended, _ = ofe_support(seq, p[f"obd.layer{i}.w2"], p[f"obd.layer{i}.w3"],
                                  token, cfg.heads)
        seq = dataclasses.replace(seq, features=seq.features + attended)

    support_features = SupportClassFeatures(features=seq.features)

    for i in range(cfg.encoder_layers):
        qkv = p[f"obd.layer{i}.w1"], p[f"obd.layer{i}.w2"], p[f"obd.layer{i}.w3"]
        if not detect and i == cfg.encoder_layers - 1:
            # The diagnostics read this layer's attention, never the patches
            # its Conv1D and FFN would refine: run the attention half only.
            _, query_attention = ofe_query_attention(patches, seq, *qkv, token,
                                                     cfg.heads)
            break
        patches, _, query_attention = ofe_query(
            patches, seq, *qkv, token, p[f"obd.layer{i}.conv.kernel"],
            p[f"obd.layer{i}.conv.bias"], _ffn(p, f"obd.layer{i}"), cfg.heads)
    diag = {"sequence": seq, "query_attention": query_attention}
    if not detect:
        return None, support_features, diag

    rows, cols = episode.grid
    pos = Tensor(sinusoidal_grid_encoding(rows, cols, cfg.d))
    decoded = _decoder(state, cfg, patches, pos)

    match_keys = project_rows(seq.features, p["head.class.support_proj"], len(seq), token)
    logits = project_rows(matmul(decoded, p["head.class.query_proj"]),
                          match_keys) * (1.0 / np.sqrt(cfg.d)) + p["head.class.bias"]
    with no_grad():  # values for matching and decoding; the loss uses logits
        probs = sigmoid(logits)

    # Boxes are offsets from per-query learnable reference boxes, in logit
    # space; with an all-zero state this still decodes to sigmoid(0). With no
    # ground truth the box loss is a constant, so the head records no nodes.
    # An extent that underflows to 0 is reported here, before matching,
    # training or scoring reads the boxes.
    with contextlib.nullcontext() if len(episode.labels) else no_grad():
        box_hidden = linear(decoded, p["head.box.w1"], p["head.box.b1"])
        box_delta = linear(silu(box_hidden), p["head.box.w2"], p["head.box.b2"])
        boxes = sigmoid(p["queries.ref"] + box_delta)
    if (boxes.data[:, 2:] <= 0).any():
        raise bad_boxes(NumericError, "predicted box extent underflowed to 0",
                        boxes.data, (boxes.data[:, 2:] <= 0).any(axis=1))

    out = DetectionOutput(boxes=boxes, position_probs=probs, position_logits=logits)
    return out, support_features, diag


# -- training -----------------------------------------------------------------------


@dataclass
class LossBreakdown:
    cls: float
    box: float
    giou: float
    ood: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def compute_loss(episode: Episode, state: ModelState, cfg: ModelConfig,
                 match: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Tensor, LossBreakdown, dict]:
    """Forward + matching + combined loss (no parameter update). A given
    ``match``, a :func:`hungarian_match` ``(rows, cols)`` pair, is used as
    it is instead of matching the forward's output."""
    out, support_features, diag = forward(episode, state, cfg)
    seq: SupportSequence = diag["sequence"]
    gt = GroundTruth(boxes=episode.boxes, labels=episode.labels)
    if match is None:
        match = hungarian_match(match_cost(out, gt, seq, cfg.weights))
    loss, parts = set_loss(out, gt, seq, match, cfg.weights)

    ood_value = 0.0
    if cfg.ood_weight > 0 and support_features.class_count >= 1:
        ood = infonce_loss(support_features, state.class_space(), seq.class_ids)
        loss = loss + cfg.ood_weight * ood
        ood_value = ood.item()

    breakdown = LossBreakdown(cls=parts["cls"], box=parts["box"],
                              giou=parts["giou"], ood=ood_value,
                              total=loss.item())
    diag["match"] = match
    return loss, breakdown, diag


def train_step(episode: Episode, state: ModelState, opt: AdamState,
               cfg: ModelConfig) -> LossBreakdown:
    """One optimization step; raises NumericError (with a diagnostics
    snapshot attached) if the loss goes non-finite. A NumericError from the
    forward or the loss, such as a box extent underflow, is raised again
    naming the step, with the episode index attached. Gradients a caller left
    on the parameters are dropped first, and the step's own are released
    after the update: on return every parameter's ``.grad`` is None."""
    zero_grads(state.params)
    step = opt.step_count + 1
    try:
        loss, breakdown, diag = compute_loss(episode, state, cfg)
    except NumericError as exc:
        err = NumericError(f"{exc} (at step {step})")
        err.diagnostics = {"episode_index": episode.index}
        raise err from exc
    if not np.isfinite(breakdown.total):
        err = NumericError(f"non-finite loss at step {step}: "
                           f"{breakdown.as_dict()}")
        err.diagnostics = {"episode_index": episode.index,
                           "breakdown": breakdown.as_dict()}
        raise err
    loss.backward()
    # Backward has freed the graph. The diagnostics still hold the final
    # support sequence's features and their gradient; drop them first, so
    # the update reuses their memory instead of adding to the step's peak.
    del loss, diag
    adam_step(state.params, collect_grads(state.params), opt)
    # Nothing reads a gradient after the update: release them now rather
    # than hold them through whatever runs before the next step.
    zero_grads(state.params)
    return breakdown


def run_inference(episode: Episode, state: ModelState, cfg: ModelConfig,
                  threshold: float) -> list[tuple[int, float, np.ndarray]]:
    """Forward without graph recording, then decode detections. In
    single-class mode the model sees one class per pass, so each class of
    the episode is run on its own view and the detections are concatenated
    in ``episode.class_ids`` order."""
    views = ([single_class_view(episode, int(cid)) for cid in episode.class_ids]
             if cfg.single_class_mode else [episode])
    detections: list[tuple[int, float, np.ndarray]] = []
    with no_grad():
        for view in views:
            out, _, diag = forward(view, state, cfg)
            detections.extend(decode_detections(out, diag["sequence"], threshold))
    return detections


def ablation_variant(cfg: ModelConfig, variant: str) -> ModelConfig:
    """Table-style ablation configs: 'baseline' trains and evaluates with a
    single-class support (no placeholder, no background token participation)
    and no contrastive loss; '+OBD' restores the full sequence; '+OBD+OOD'
    is the unmodified config."""
    if variant == "baseline":
        return dataclasses.replace(cfg, single_class_mode=True, ood_weight=0.0)
    if variant == "+OBD":
        return dataclasses.replace(cfg, single_class_mode=False, ood_weight=0.0)
    if variant == "+OBD+OOD":
        return dataclasses.replace(cfg, single_class_mode=False)
    raise ConfigError(f"unknown ablation variant '{variant}' "
                      f"(expected one of {VARIANTS})")


def training_episode(episode: Episode, cfg: ModelConfig, step: int) -> Episode:
    """The episode actually fed to train_step: in single-class mode the
    supported class rotates with the step index so all classes are seen."""
    if not cfg.single_class_mode:
        return episode
    cid = episode.class_ids[step % len(episode.class_ids)]
    return single_class_view(episode, int(cid))
