"""End-to-end assembly: patch embedder, support encoder stack, query encoder
stack, transformer decoder over learned object queries, and the detection
heads, plus the training step combining the set loss with the contrastive
class-separation loss.

The support sequence is a layout (class ids in episode order, then ``None``
placeholders up to ``n_max``, or none in single-class mode) over the
embedded (C, d) support features. The support branch refines those features
through self-interaction layers, each layer replacing the sequence's feature
matrix and keeping its layout; the final class rows feed the contrastive
loss. The query branch refines patch features against the *modified*
support sequence. The classification head scores each decoder output
against every support position (class rows through a projection,
placeholders as the raw background token), which is what makes the head
class-agnostic and gives the background token its supervision path.

Every attention block, in the encoders and the decoder alike, runs its heads
at once through the fused :func:`fewdet.tensor.attention` primitive, and
:func:`layer_norm` is the fused primitive of :mod:`fewdet.tensor`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .episodes import Episode, single_class_view
from .errors import ConfigError, NumericError, ShapeError
from .obd import (BackgroundToken, OfeFusion, OfeProjections, SupportSequence,
                  background_attention_mass, build_key_sequence, ofe_query,
                  ofe_support)
from .ood import ClassFeatureSpace, SupportClassFeatures, infonce_loss
from .optim import AdamState, adam_step, collect_grads, zero_grads
from .set_head import (DetectionOutput, GroundTruth, MatchResult, Weights,
                       decode_detections, hungarian_match, match_cost, set_loss)
from .tensor import (FfnParams, Tensor, attention, ffn_apply, layer_norm, matmul,
                     no_grad, sigmoid, silu, take_rows, transpose)

VARIANTS = ("baseline", "+OBD", "+OBD+OOD")


@dataclass(frozen=True)
class ModelConfig:
    """Model hyper-parameters. ``RunConfig.resolved_model`` derives three of
    them from the benchmark: ``input_dim`` (its ``feature_dim``),
    ``num_class_embeddings`` (twice its ``class_count``) and ``n_max`` (its
    ``capacity``, the support sequence length)."""

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
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        for name in ("heads", "encoder_layers", "decoder_layers",
                     "num_object_queries", "input_dim", "num_class_embeddings"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_max < 2:
            raise ConfigError("n_max must be >= 2 (one class plus one placeholder)")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


class ModelState:
    """All learnable tensors, keyed by stable names derived from the config."""

    def __init__(self, params: dict[str, Tensor], cfg: ModelConfig):
        self.params = params
        self.cfg = cfg

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def ofe_projections(self, layer: int) -> OfeProjections:
        p = self.params
        return OfeProjections(w1=p[f"obd.layer{layer}.w1"],
                              w2=p[f"obd.layer{layer}.w2"],
                              w3=p[f"obd.layer{layer}.w3"])

    def ofe_fusion(self, layer: int) -> OfeFusion:
        p = self.params
        return OfeFusion(
            conv_kernel=p[f"obd.layer{layer}.conv.kernel"],
            conv_bias=p[f"obd.layer{layer}.conv.bias"],
            ffn=FfnParams(p[f"obd.layer{layer}.ffn.w1"], p[f"obd.layer{layer}.ffn.b1"],
                          p[f"obd.layer{layer}.ffn.w2"], p[f"obd.layer{layer}.ffn.b2"]))

    def background_token(self) -> BackgroundToken:
        return BackgroundToken(self.params["obd.background_token"])

    def class_space(self) -> ClassFeatureSpace:
        return ClassFeatureSpace(embeddings=self.params["ood.embeddings"],
                                 temperature=self.cfg.temperature)


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map; a function of the config alone so checkpoints can
    be validated against it."""
    d, h = cfg.d, 2 * cfg.d
    shapes: dict[str, tuple[int, ...]] = {
        "embed.weight": (cfg.input_dim, d),
        "embed.bias": (d,),
        "obd.background_token": (d,),
        "ood.embeddings": (cfg.num_class_embeddings, d),
        "queries.embed": (cfg.num_object_queries, d),
        "queries.ref": (cfg.num_object_queries, 4),
        "head.class.query_proj": (d, d),
        "head.class.support_proj": (d, d),
        "head.class.bias": (1,),
        "head.box.w1": (d, h),
        "head.box.b1": (h,),
        "head.box.w2": (h, 4),
        "head.box.b2": (4,),
    }
    for i in range(cfg.encoder_layers):
        shapes[f"obd.layer{i}.w1"] = (d, d)
        shapes[f"obd.layer{i}.w2"] = (d, d)
        shapes[f"obd.layer{i}.w3"] = (d, d)
        shapes[f"obd.layer{i}.conv.kernel"] = (2 * d, d)
        shapes[f"obd.layer{i}.conv.bias"] = (d,)
        shapes[f"obd.layer{i}.ffn.w1"] = (d, h)
        shapes[f"obd.layer{i}.ffn.b1"] = (h,)
        shapes[f"obd.layer{i}.ffn.w2"] = (h, d)
        shapes[f"obd.layer{i}.ffn.b2"] = (d,)
    for j in range(cfg.decoder_layers):
        for attn in ("self", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"dec.layer{j}.{attn}.{w}"] = (d, d)
        for ln in ("ln1", "ln2", "ln3"):
            shapes[f"dec.layer{j}.{ln}.gamma"] = (d,)
            shapes[f"dec.layer{j}.{ln}.beta"] = (d,)
        shapes[f"dec.layer{j}.ffn.w1"] = (d, h)
        shapes[f"dec.layer{j}.ffn.b1"] = (h,)
        shapes[f"dec.layer{j}.ffn.w2"] = (h, d)
        shapes[f"dec.layer{j}.ffn.b2"] = (d,)
    return shapes


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
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(cfg).items():
        if name == "obd.background_token":
            data = rng.normal(0.0, 0.02, size=shape)
        elif name == "ood.embeddings":
            data = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=shape)
        elif name.endswith(".gamma"):
            data = np.ones(shape)
        elif name.endswith((".bias", ".beta", ".b1", ".b2")) or name == "head.class.bias":
            data = np.zeros(shape)
        elif name == "queries.embed":
            data = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=shape)
        elif name == "queries.ref":
            data = _reference_lattice(cfg.num_object_queries)
        else:
            fan_in = shape[0]
            data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return ModelState(params, cfg)


def zero_model_state(cfg: ModelConfig) -> ModelState:
    """Every parameter exactly zero; useful for contract tests."""
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in parameter_shapes(cfg).items()}
    return ModelState(params, cfg)


# -- feature extraction -----------------------------------------------------------


@functools.lru_cache(maxsize=32)
def sinusoidal_grid_encoding(rows: int, cols: int, d: int) -> np.ndarray:
    """Fixed 2-d positional code: half the channels encode the row index,
    half the column index, interleaved sine/cosine at geometric wavelengths."""
    if d % 4 != 0:
        raise ConfigError(f"positional encoding needs d divisible by 4, got {d}")
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
        raise ShapeError(
            f"episode feature dim {episode.patches.shape[1]} does not match "
            f"model input_dim {cfg.input_dim}")
    w, b = state["embed.weight"], state["embed.bias"]
    rows, cols = episode.grid
    pos = Tensor(sinusoidal_grid_encoding(rows, cols, cfg.d))
    patches = matmul(Tensor(episode.patches), w) + b + pos

    support = matmul(Tensor(episode.support), w) + b
    c = len(episode.class_ids)
    n = 1 if cfg.single_class_mode else cfg.n_max
    if c > n:
        raise ConfigError(f"episode has {c} classes but sequence capacity is {n}")
    layout = tuple(int(cid) for cid in episode.class_ids) + (None,) * (n - c)
    return patches, SupportSequence(layout, support)


# -- decoder building blocks --------------------------------------------------------


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
    x = state["queries.embed"]
    for j in range(cfg.decoder_layers):
        p = state.params
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
        ffn = FfnParams(p[f"dec.layer{j}.ffn.w1"], p[f"dec.layer{j}.ffn.b1"],
                        p[f"dec.layer{j}.ffn.w2"], p[f"dec.layer{j}.ffn.b2"])
        x = layer_norm(ffn_apply(x, ffn), p[f"dec.layer{j}.ln3.gamma"],
                       p[f"dec.layer{j}.ln3.beta"])
    return x


# -- forward pass -------------------------------------------------------------------


def forward(episode: Episode, state: ModelState, cfg: ModelConfig
            ) -> tuple[DetectionOutput, SupportClassFeatures, dict]:
    """Full forward pass; returns detections, the support-branch class
    features (contrastive tap), and diagnostics: the final support
    ``sequence`` and the query branch's per-layer ``background_mass``."""
    patches, seq = extract_features(episode, state, cfg)
    token = state.background_token()

    for i in range(cfg.encoder_layers):
        ref = ofe_support(seq, state.ofe_projections(i), token, cfg.d, cfg.heads)
        refined_rows = take_rows(ref.per_position_output, seq.class_positions)
        seq = dataclasses.replace(seq, features=seq.features + refined_rows)

    support_features = SupportClassFeatures(features=seq.features)

    background_mass = []
    for i in range(cfg.encoder_layers):
        ref = ofe_query(patches, seq, state.ofe_projections(i), token, cfg.d,
                        state.ofe_fusion(i), cfg.heads)
        patches = ref.refined
        background_mass.append(background_attention_mass(ref.attention, seq))

    rows, cols = episode.grid
    pos = Tensor(sinusoidal_grid_encoding(rows, cols, cfg.d))
    decoded = _decoder(state, cfg, patches, pos)

    match_keys = build_key_sequence(seq, state["head.class.support_proj"], token)
    logits = matmul(matmul(decoded, state["head.class.query_proj"]),
                    transpose(match_keys)) * (1.0 / np.sqrt(cfg.d)) \
        + state["head.class.bias"]
    probs = sigmoid(logits)

    # Boxes are offsets from per-query learnable reference boxes, in logit
    # space; with an all-zero state this still decodes to sigmoid(0).
    box_hidden = matmul(decoded, state["head.box.w1"]) + state["head.box.b1"]
    box_delta = matmul(silu(box_hidden), state["head.box.w2"]) + state["head.box.b2"]
    boxes = sigmoid(state["queries.ref"] + box_delta)

    out = DetectionOutput(boxes=boxes, position_probs=probs, position_logits=logits)
    return out, support_features, {"sequence": seq,
                                   "background_mass": background_mass}


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


def compute_loss(episode: Episode, state: ModelState, cfg: ModelConfig
                 ) -> tuple[Tensor, LossBreakdown, dict]:
    """Forward + matching + combined loss (no parameter update)."""
    out, support_features, diag = forward(episode, state, cfg)
    seq: SupportSequence = diag["sequence"]
    gt = GroundTruth(boxes=episode.boxes, labels=episode.labels)
    if len(gt):
        cost = match_cost(out, gt, seq, cfg.weights)
        match = hungarian_match(cost)
    else:
        match = MatchResult(pairs=[], unmatched_queries=list(range(out.num_queries)))
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
    snapshot attached) if the loss goes non-finite."""
    zero_grads(state.params)
    loss, breakdown, diag = compute_loss(episode, state, cfg)
    if not np.isfinite(breakdown.total):
        err = NumericError(f"non-finite loss at step {opt.step_count + 1}: "
                           f"{breakdown.as_dict()}")
        err.diagnostics = {"episode_index": episode.index,
                           "breakdown": breakdown.as_dict()}
        raise err
    loss.backward()
    adam_step(state.params, collect_grads(state.params), opt)
    return breakdown


def run_inference(episode: Episode, state: ModelState, cfg: ModelConfig,
                  threshold: float) -> list[tuple[int, float, np.ndarray]]:
    """Forward without graph recording, then decode detections. In
    single-class mode the model sees one class per pass, so each class of
    the episode is run separately and the detections are merged."""
    with no_grad():
        if cfg.single_class_mode:
            merged: list[tuple[int, float, np.ndarray]] = []
            for cid in episode.class_ids:
                view = single_class_view(episode, int(cid))
                out, _, diag = forward(view, state, cfg)
                merged.extend(decode_detections(out, diag["sequence"], threshold))
            return merged
        out, _, diag = forward(episode, state, cfg)
        return decode_detections(out, diag["sequence"], threshold)


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
