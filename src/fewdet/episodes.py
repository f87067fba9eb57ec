"""Deterministic synthetic episode generator and on-disk episode format.

Episodes are generated directly in patch-feature space. Each benchmark owns
two disjoint class vocabularies (train ids 0..C-1, test ids C..2C-1), each a
set of unit-norm prototypes constructed so that every pair has cosine
similarity exactly equal to the class-overlap knob. The background
distribution interpolates between an independent random direction and the
prototype mean, controlled by the background-overlap knob, so the two
feature-confusion failure modes are dialed in independently.

Object patches are the class prototype plus Gaussian noise; objects occupy
non-overlapping axis-aligned rectangles of grid patches and their bounding
boxes are exact in normalized coordinates. Support prototypes are the mean
of k noisy shots, resampled per episode.

A split's prototypes and background direction depend only on the spec and
the split, so each process builds them once per (spec, split) and shares
them read-only between episodes; ``class_prototypes`` and
``background_direction`` themselves build fresh arrays on every call.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import Reader, _write_atomic
from .errors import ConfigError, GenerationError

_MAGIC = b"FDEP"
_FORMAT_VERSION = 1

SPLITS = ("train", "test")


@dataclass(frozen=True)
class BenchmarkSpec:
    class_count: int = 4
    shots: int = 10
    # Support sequence length N (classes + placeholders); RunConfig.resolved_model
    # sets ModelConfig.n_max from it, next to input_dim (from feature_dim) and
    # num_class_embeddings (from class_count).
    capacity: int = 5
    grid_rows: int = 8
    grid_cols: int = 8
    feature_dim: int = 32
    objects_min: int = 2
    objects_max: int = 4
    bg_overlap: float = 0.6     # object-background confusion knob, in [0, 1]
    class_overlap: float = 0.6  # object-object confusion knob, in [0, 1]
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 1:
            raise ConfigError("class_count must be >= 1")
        if self.capacity < 2:
            raise ConfigError(f"capacity must be >= 2 (one class plus one "
                              f"placeholder), not {self.capacity}")
        if self.class_count > self.capacity:
            raise ConfigError(
                f"class_count {self.class_count} exceeds capacity {self.capacity}")
        if not (0.0 <= self.bg_overlap <= 1.0 and 0.0 <= self.class_overlap <= 1.0):
            raise ConfigError("overlap knobs must lie in [0, 1]")
        if not 0 <= self.noise_std < np.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, not {self.noise_std!r}")
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ConfigError("grid extents must be >= 2")
        if self.feature_dim < self.class_count + 2:
            raise ConfigError(
                f"feature_dim {self.feature_dim} too small for "
                f"{self.class_count} classes (need >= C + 2)")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if not (1 <= self.objects_min <= self.objects_max):
            raise ConfigError("objects range must satisfy 1 <= min <= max")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed}")

    @property
    def num_patches(self) -> int:
        return self.grid_rows * self.grid_cols


@dataclass
class Episode:
    index: int
    split: str
    class_ids: list[int]        # length C, the vocabulary of this split
    support: np.ndarray         # (C, d_raw) k-shot mean prototypes
    patches: np.ndarray         # (P, d_raw) query patch features
    grid: tuple[int, int]
    boxes: np.ndarray           # (G, 4) normalized (cx, cy, w, h)
    labels: np.ndarray          # (G,) class ids

    def patch_classes(self) -> np.ndarray:
        """(P,) position in ``class_ids`` of the class whose ground-truth box
        covers each patch, -1 where no box does. Every box's edges come from
        one array expression, rounded to the patch grid half to even (as
        ``round`` rounds); then each box is painted by a slice assignment in
        order, so where boxes overlap the last one wins, and an edge past
        the grid is cut as a slice cuts it."""
        rows, cols = self.grid
        classes = np.full((rows, cols), -1)
        centre, half = self.boxes[:, :2], self.boxes[:, 2:] / 2
        edges = np.rint(np.concatenate((centre - half, centre + half), axis=1)
                        * (cols, rows, cols, rows)).astype(int)
        for (c0, r0, c1, r1), label in zip(edges.tolist(), self.labels):
            classes[r0:r1, c0:c1] = self.class_ids.index(int(label))
        return classes.reshape(-1)

    def object_patch_mask(self) -> np.ndarray:
        """Boolean (P,) mask of patches covered by any ground-truth box."""
        return self.patch_classes() >= 0


def _split_code(split: str) -> int:
    if split not in SPLITS:
        raise ConfigError(f"unknown split '{split}' (expected one of {SPLITS})")
    return SPLITS.index(split)


def class_id_range(spec: BenchmarkSpec, split: str) -> list[int]:
    base = _split_code(split) * spec.class_count
    return list(range(base, base + spec.class_count))


def class_prototypes(spec: BenchmarkSpec, split: str) -> np.ndarray:
    """(C, d_raw) unit-norm prototypes with pairwise cosine similarity equal
    to the class-overlap knob: an orthonormal frame blended with one shared
    direction."""
    rng = np.random.default_rng([spec.seed, 7919, _split_code(split)])
    c, d = spec.class_count, spec.feature_dim
    gauss = rng.normal(size=(d, c + 1))
    q, _ = np.linalg.qr(gauss)
    frame = q[:, :c].T          # orthonormal rows u_i
    shared = q[:, c]            # unit vector orthogonal to every u_i
    sigma = spec.class_overlap
    protos = np.sqrt(1.0 - sigma) * frame + np.sqrt(sigma) * shared[None, :]
    return protos


def background_direction(spec: BenchmarkSpec, split: str,
                         protos: np.ndarray) -> np.ndarray:
    """Unit mean of the background patch distribution; ``protos`` is the
    split's `class_prototypes(spec, split)`."""
    rng = np.random.default_rng([spec.seed, 104729, _split_code(split)])
    raw = rng.normal(size=spec.feature_dim)
    independent = raw / np.linalg.norm(raw)
    proto_mean = protos.mean(axis=0)
    proto_mean = proto_mean / np.linalg.norm(proto_mean)
    mix = (1.0 - spec.bg_overlap) * independent + spec.bg_overlap * proto_mean
    return mix / np.linalg.norm(mix)


@functools.lru_cache(maxsize=8)
def _split_constants(spec: BenchmarkSpec, split: str) -> tuple[np.ndarray, np.ndarray]:
    """The split's `class_prototypes` and `background_direction`, built once
    per (spec, split) and returned read-only, since every caller shares
    them."""
    protos = class_prototypes(spec, split)
    bg = background_direction(spec, split, protos)
    protos.flags.writeable = False
    bg.flags.writeable = False
    return protos, bg


def _place_objects(rng: np.random.Generator, spec: BenchmarkSpec,
                   count: int) -> list[tuple[int, int, int, int]]:
    """Non-overlapping (r0, c0, height, width) patch rectangles."""
    rows, cols = spec.grid_rows, spec.grid_cols
    occupied = np.zeros((rows, cols), dtype=bool)
    rects = []
    attempts = 0
    max_attempts = 250 * count
    while len(rects) < count:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"could not place {count} objects on a {rows}x{cols} grid "
                f"after {max_attempts} attempts")
        h = int(rng.integers(1, min(3, rows) + 1))
        w = int(rng.integers(1, min(3, cols) + 1))
        r0 = int(rng.integers(0, rows - h + 1))
        c0 = int(rng.integers(0, cols - w + 1))
        if occupied[r0:r0 + h, c0:c0 + w].any():
            continue
        occupied[r0:r0 + h, c0:c0 + w] = True
        rects.append((r0, c0, h, w))
    return rects


def generate_episode(spec: BenchmarkSpec, index: int, split: str = "train") -> Episode:
    """Deterministically build episode ``index`` of the given split."""
    if index < 0:
        raise ConfigError("episode index must be non-negative")
    rng = np.random.default_rng([spec.seed, _split_code(split), index])
    protos, bg_mean = _split_constants(spec, split)
    ids = class_id_range(spec, split)
    c, d = spec.class_count, spec.feature_dim
    rows, cols = spec.grid_rows, spec.grid_cols

    count = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    rects = _place_objects(rng, spec, count)
    object_classes = rng.integers(0, c, size=count)

    # standard_normal draws what normal(0, 1) draws, without its loc/scale pass.
    patches = bg_mean[None, :] + spec.noise_std * rng.standard_normal((rows * cols, d))
    grid = patches.reshape(rows, cols, d)  # a view: writes land in patches
    boxes = np.zeros((count, 4))
    labels = np.zeros(count, dtype=np.int64)
    for i, ((r0, c0, h, w), cls) in enumerate(zip(rects, object_classes)):
        # Row-major over the rectangle: the draw order of one normal per patch.
        noise = spec.noise_std * rng.standard_normal((h, w, d))
        grid[r0:r0 + h, c0:c0 + w] = protos[cls] + noise
        boxes[i] = [(c0 + w / 2) / cols, (r0 + h / 2) / rows, w / cols, h / rows]
        labels[i] = ids[cls]

    shots = protos[:, None, :] + spec.noise_std * rng.standard_normal((c, spec.shots, d))
    support = shots.mean(axis=1)

    return Episode(index=index, split=split, class_ids=ids, support=support,
                   patches=patches, grid=(rows, cols), boxes=boxes, labels=labels)


def single_class_view(episode: Episode, class_id: int) -> Episode:
    """The same query content with the support reduced to one class; ground
    truths of other classes are dropped (they become background for this
    view). Used by the single-class baseline ablation (N = C = 1)."""
    if class_id not in episode.class_ids:
        raise ConfigError(f"class {class_id} not in episode vocabulary")
    keep = episode.labels == class_id
    row = episode.class_ids.index(class_id)
    return Episode(index=episode.index, split=episode.split,
                   class_ids=[class_id],
                   support=episode.support[row:row + 1].copy(),
                   patches=episode.patches, grid=episode.grid,
                   boxes=episode.boxes[keep].copy(),
                   labels=episode.labels[keep].copy())


# -- binary episode files -------------------------------------------------------


def _encode_episode(ep: Episode) -> bytes:
    buf = io.BytesIO()
    buf.write(struct.pack("<QBI", ep.index, _split_code(ep.split), len(ep.class_ids)))
    buf.write(np.asarray(ep.class_ids, dtype="<u4").tobytes())
    buf.write(struct.pack("<II", *ep.grid))
    for arr in (ep.support, ep.patches, ep.boxes):
        a = np.ascontiguousarray(arr, dtype="<f8")
        buf.write(struct.pack("<II", *a.shape))
        buf.write(a.tobytes())
    buf.write(struct.pack("<I", len(ep.labels)))
    buf.write(np.asarray(ep.labels, dtype="<u4").tobytes())
    return buf.getvalue()


def _decode_episode(r: Reader) -> Episode:
    index, split_code, c = r.unpack("<QBI", "header")
    if split_code >= len(SPLITS):
        raise r.error("header", f"invalid split code {split_code}")
    class_ids = r.array("<u4", (c,), "class ids").astype(int).tolist()
    grid = r.unpack("<II", "grid")
    support, patches, boxes = [r.array("<f8", r.unpack("<II", f"{name} shape"), name)
                               for name in ("support", "patches", "boxes")]
    (g,) = r.unpack("<I", "label count")
    labels = r.array("<u4", (g,), "labels").astype(np.int64)
    r.end()
    return Episode(index, SPLITS[split_code], class_ids, support, patches, grid,
                   boxes, labels)


def write_episodes(spec: BenchmarkSpec, count: int, path,
                   split: str = "train", start_index: int = 0) -> dict:
    """Materialize ``count`` consecutive episodes into one file; returns the
    manifest (format version, spec, split, count, per-episode digests, and
    the manifest digest printed by the CLI)."""
    records = [_encode_episode(generate_episode(spec, start_index + i, split))
               for i in range(count)]
    digests = [hashlib.sha256(r).digest() for r in records]

    spec_json = json.dumps({"spec": asdict(spec), "split": split,
                            "start_index": start_index},
                           sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<III", _FORMAT_VERSION, len(records), len(spec_json)))
    buf.write(spec_json)
    buf.write(b"".join(digests))
    header_bytes = buf.getvalue()
    for r in records:
        buf.write(struct.pack("<Q", len(r)))
        buf.write(r)
    _write_atomic(path, buf.getbuffer())
    return _manifest(spec, split, start_index, header_bytes, digests)


def _manifest(spec: BenchmarkSpec, split: str, start_index: int,
              header_bytes: bytes, digests: list[bytes]) -> dict:
    """An episode file's manifest: its header fields, each record's sha256
    and the sha256 of the header bytes (the manifest digest)."""
    return {"format_version": _FORMAT_VERSION, "count": len(digests), "split": split,
            "spec": asdict(spec), "start_index": start_index,
            "episode_digests": [d.hex() for d in digests],
            "manifest_digest": hashlib.sha256(header_bytes).hexdigest()}


def _spec_mismatch(ep: Episode, spec: BenchmarkSpec) -> str | None:
    """How an episode record disagrees with the header's spec or with
    itself, naming the field, or None if it does not. A non-finite feature
    or box value, or a box whose width or height is not > 0, is such a
    disagreement: no generated episode has one."""
    grid = (spec.grid_rows, spec.grid_cols)
    if tuple(ep.grid) != grid:
        return (f"grid {tuple(ep.grid)} where the header gives "
                f"(grid_rows, grid_cols) {grid}")
    for name, arr in (("support", ep.support), ("patches", ep.patches)):
        if arr.shape[1] != spec.feature_dim:
            return (f"{name} width {arr.shape[1]} where the header gives "
                    f"feature_dim {spec.feature_dim}")
    ids = class_id_range(spec, ep.split)
    if ep.class_ids != ids:
        return f"class ids {ep.class_ids} where the header gives {ids}"
    for field, got, want in (("patches: rows", len(ep.patches), spec.num_patches),
                             ("support: rows", len(ep.support), len(ids)),
                             ("boxes: columns", ep.boxes.shape[1], 4),
                             ("labels: count", len(ep.labels), len(ep.boxes))):
        if got != want:
            return f"{field} {got}, expected {want}"
    for name, arr in (("support", ep.support), ("patches", ep.patches),
                      ("boxes", ep.boxes)):
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            at = tuple(int(i) for i in bad[0])
            return f"{name}: non-finite value {arr[at]} at {at}"
    empty = np.flatnonzero(~(ep.boxes[:, 2:] > 0).all(axis=1))
    if len(empty):
        width, height = ep.boxes[empty[0], 2:]
        return (f"boxes: box {empty[0]} has width {width} and height {height}; "
                f"both must be > 0")
    stray = sorted(set(ep.labels.tolist()) - set(ids))
    if stray:
        return f"labels: {stray} are not among the class ids {ids}"
    return None


def read_episodes(path) -> tuple[dict, list[Episode]]:
    """Load an episode file, checking its structure, its digests, that
    record i is episode ``start_index + i`` of the header's ``split``, and
    that every record agrees with the header's spec and with itself (see
    ``_spec_mismatch``)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    buf = io.BytesIO(blob)
    r = Reader(buf, f"episode file {path}")
    r.magic(_MAGIC)
    version, count, spec_len = r.unpack("<III", "header")
    if version != _FORMAT_VERSION:
        raise r.error("header", f"unsupported format version {version}")
    meta = r.json(spec_len, "spec block")
    try:
        spec = BenchmarkSpec(**meta["spec"])
        split, start = meta["split"], meta["start_index"]
        indices = range(start, start + count)
        _split_code(split)
    except (ValueError, KeyError, TypeError) as exc:
        raise r.error("spec block", f"unreadable: {exc!r}") from exc
    table = r.read(32 * count, "digest table")
    digests = [table[32 * i:32 * (i + 1)] for i in range(count)]
    header_bytes = blob[:buf.tell()]
    episodes = []
    for i, (digest, index) in enumerate(zip(digests, indices)):
        (rec_len,) = r.unpack("<Q", f"length of episode {i}")
        record = r.read(rec_len, f"episode {i}")
        if hashlib.sha256(record).digest() != digest:
            raise r.error(f"episode {i}", "digest mismatch")
        ep = _decode_episode(Reader(io.BytesIO(record), f"{r.artifact} episode {i}"))
        if (ep.split, ep.index) != (split, index):
            raise r.error(f"episode {i}", f"{ep.split} episode {ep.index} where the "
                          f"header gives {split} episode {index}")
        mismatch = _spec_mismatch(ep, spec)
        if mismatch:
            raise r.error(f"episode {i}", mismatch)
        episodes.append(ep)
    r.end()
    return _manifest(spec, split, start, header_bytes, digests), episodes


def nearest_prototype_accuracy(spec: BenchmarkSpec, split: str,
                               episode_count: int) -> float:
    """Oracle patch classifier: assign each patch to the most-similar center
    among {class prototypes, background mean}; returns mean accuracy. Used to
    validate that the confusion knobs really produce confusion."""
    protos, bg = _split_constants(spec, split)
    centers = np.vstack([protos, bg[None, :]])
    centers = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    correct = 0
    total = 0
    for i in range(episode_count):
        ep = generate_episode(spec, i, split)
        truth = ep.patch_classes()
        truth[truth < 0] = spec.class_count  # background index
        feats = ep.patches / np.linalg.norm(ep.patches, axis=1, keepdims=True)
        pred = (feats @ centers.T).argmax(axis=1)
        correct += int((pred == truth).sum())
        total += len(truth)
    return correct / total


def separation_margins(spec: BenchmarkSpec, split: str,
                       episode_count: int) -> tuple[float, float]:
    """(object-background margin, inter-class margin) averaged over episodes.

    Object-background margin: cosine to the true class center minus cosine to
    the background center for object patches, and vice versa for background
    patches. Inter-class margin: cosine to the true class center minus the
    best other class, object patches only.
    """
    protos, bg = _split_constants(spec, split)
    protos_u = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    ob_vals = []
    oo_vals = []
    for i in range(episode_count):
        ep = generate_episode(spec, i, split)
        truth = ep.patch_classes()
        feats = ep.patches / np.linalg.norm(ep.patches, axis=1, keepdims=True)
        sim_cls = feats @ protos_u.T
        sim_bg = feats @ bg
        for p in range(spec.num_patches):
            if truth[p] >= 0:
                ob_vals.append(sim_cls[p, truth[p]] - sim_bg[p])
                if spec.class_count > 1:
                    others = np.delete(sim_cls[p], truth[p])
                    oo_vals.append(sim_cls[p, truth[p]] - others.max())
            else:
                ob_vals.append(sim_bg[p] - sim_cls[p].max())
    oo = float(np.mean(oo_vals)) if oo_vals else float("nan")
    return float(np.mean(ob_vals)), oo
