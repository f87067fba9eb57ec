import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from fewdet.episodes import (BenchmarkSpec, _encode_episode, class_prototypes,
                             generate_episode, nearest_prototype_accuracy,
                             read_episodes, separation_margins,
                             single_class_view, write_episodes)
from fewdet.errors import ConfigError, CorruptionError, GenerationError


def spec(**kw):
    base = dict(class_count=3, shots=5, capacity=4, grid_rows=6, grid_cols=6,
                feature_dim=16, objects_min=1, objects_max=3, bg_overlap=0.5,
                class_overlap=0.5, seed=7)
    base.update(kw)
    return BenchmarkSpec(**base)


class TestSpecValidation:
    def test_class_count_fits_capacity(self):
        with pytest.raises(ConfigError):
            spec(class_count=5, capacity=4)

    def test_overlap_bounds(self):
        with pytest.raises(ConfigError):
            spec(bg_overlap=1.5)

    def test_grid_minimum(self):
        with pytest.raises(ConfigError):
            spec(grid_rows=1)

    def test_feature_dim_large_enough(self):
        with pytest.raises(ConfigError):
            spec(class_count=3, feature_dim=4)


class TestPrototypes:
    def test_zero_overlap_orthogonal(self):
        protos = class_prototypes(spec(class_overlap=0.0), "train")
        gram = protos @ protos.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_pairwise_cosine_equals_knob(self):
        for sigma in (0.2, 0.6, 0.9):
            protos = class_prototypes(spec(class_overlap=sigma), "train")
            gram = protos @ protos.T
            off = gram[~np.eye(3, dtype=bool)]
            np.testing.assert_allclose(off, sigma, atol=1e-10)
            np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)

    def test_splits_disjoint(self):
        train = class_prototypes(spec(), "train")
        test = class_prototypes(spec(), "test")
        assert np.abs(train - test).max() > 1e-3


class TestGeneration:
    def test_deterministic(self):
        a = generate_episode(spec(), 3, "train")
        b = generate_episode(spec(), 3, "train")
        np.testing.assert_array_equal(a.patches, b.patches)
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.boxes, b.boxes)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("split, digest", [
        ("train", "cb101edaca1eea59e50487c3bb650d7489b06ef0bf936e0362a5acd54d189c45"),
        ("test", "5d4cad750d58fedfc936bbf8107c4274cff662b584df2c92a7924cf4140d30fb"),
    ], ids=["train", "test"])
    def test_default_episodes_are_pinned(self, split, digest):
        """The values of default-spec episodes 0-49, not only their
        determinism: a change to the generator's draws shows here."""
        h = hashlib.sha256()
        for i in range(50):
            h.update(_encode_episode(generate_episode(BenchmarkSpec(), i, split)))
        assert h.hexdigest() == digest

    def test_builds_split_prototypes_once(self, monkeypatch):
        """Episodes of one split share one build of its prototypes and
        background direction, read-only."""
        import fewdet.episodes as episodes
        calls = []
        original = episodes.class_prototypes

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(episodes, "class_prototypes", counted)
        episodes._split_constants.cache_clear()
        for i in range(5):
            generate_episode(spec(), i, "test")
        nearest_prototype_accuracy(spec(), "test", 2)
        separation_margins(spec(), "test", 2)
        assert calls == [(spec(), "test")]
        protos, bg = episodes._split_constants(spec(), "test")
        fresh = class_prototypes(spec(), "test")
        np.testing.assert_array_equal(protos, fresh)
        assert fresh.flags.writeable  # the public builder is not cached
        for arr in (protos, bg):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_negative_index_is_refused(self):
        with pytest.raises(ConfigError, match="episode index must be non-negative"):
            generate_episode(spec(), -1, "train")

    def test_different_indices_differ(self):
        a = generate_episode(spec(), 0, "train")
        b = generate_episode(spec(), 1, "train")
        assert np.abs(a.patches - b.patches).max() > 1e-6

    def test_boxes_normalized_positive(self):
        for i in range(20):
            ep = generate_episode(spec(), i, "train")
            corners_lo = ep.boxes[:, :2] - ep.boxes[:, 2:] / 2
            corners_hi = ep.boxes[:, :2] + ep.boxes[:, 2:] / 2
            assert (corners_lo >= -1e-12).all() and (corners_hi <= 1 + 1e-12).all()
            assert (ep.boxes[:, 2:] > 0).all()

    def test_boxes_cover_object_patches(self):
        ep = generate_episode(spec(), 2, "train")
        mask = ep.object_patch_mask()
        assert mask.sum() > 0
        # covered patches look like prototypes, others like background
        protos = class_prototypes(spec(), "train")
        sim = ep.patches @ protos.T
        assert sim[mask].max() > sim[~mask].max()

    def test_labels_within_vocabulary(self):
        ep = generate_episode(spec(), 4, "test")
        assert set(ep.labels.tolist()) <= set(ep.class_ids)
        assert ep.class_ids == [3, 4, 5]  # test vocabulary offset by C

    def test_infeasible_placement_raises(self):
        with pytest.raises(GenerationError):
            generate_episode(spec(grid_rows=2, grid_cols=2, objects_min=5,
                                  objects_max=5), 0, "train")

    def test_oracle_classifier_near_perfect_when_unconfused(self):
        clean = spec(bg_overlap=0.0, class_overlap=0.0)
        acc = nearest_prototype_accuracy(clean, "train", 50)
        assert acc >= 0.99

    def test_margins_shrink_with_overlap_knobs(self):
        ob_margins = []
        for sigma in (0.0, 0.3, 0.6, 0.9):
            ob, _ = separation_margins(spec(bg_overlap=sigma), "train", 50)
            ob_margins.append(ob)
        assert all(a > b for a, b in zip(ob_margins, ob_margins[1:]))

        oo_margins = []
        for sigma in (0.0, 0.3, 0.6, 0.9):
            _, oo = separation_margins(spec(class_overlap=sigma), "train", 50)
            oo_margins.append(oo)
        assert all(a > b for a, b in zip(oo_margins, oo_margins[1:]))


def _patch_classes_box_by_box(ep):
    """The oracle: the per-box loop that ``patch_classes`` replaced, each
    edge rounded by Python's ``round``."""
    rows, cols = ep.grid
    classes = np.full((rows, cols), -1)
    for (cx, cy, w, h), label in zip(ep.boxes, ep.labels):
        c0, c1 = int(round((cx - w / 2) * cols)), int(round((cx + w / 2) * cols))
        r0, r1 = int(round((cy - h / 2) * rows)), int(round((cy + h / 2) * rows))
        classes[r0:r1, c0:c1] = ep.class_ids.index(int(label))
    return classes.reshape(-1)


class TestPatchClasses:
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("bench", [
        BenchmarkSpec(),
        BenchmarkSpec(grid_rows=16, grid_cols=16, objects_min=8, objects_max=12),
    ], ids=["default", "dense"])
    def test_generated_episodes_match_the_box_loop(self, bench, split):
        for i in range(200):
            ep = generate_episode(bench, i, split)
            np.testing.assert_array_equal(ep.patch_classes(),
                                          _patch_classes_box_by_box(ep))

    @pytest.mark.parametrize("boxes, labels, painted", [
        # The second box, 4x4 patches, overlaps 3x3 of the first and wins them.
        ([[0.375, 0.375, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]], [4, 5],
         {4: 16 - 9, 5: 16}),
        # Past the right edge (columns 6 to 9) the slice stops at the grid.
        ([[0.925, 0.5, 0.35, 0.25]], [6], {6: 2 * 2}),
        # A left edge at -2 slices from column 6: [-2:2] is empty.
        ([[0.0, 0.5, 0.5, 0.25]], [6], {}),
        # Edges on half cells, 2.5 to 3.5 by 4.5 to 5.5, round half to even:
        # columns 2 to 4 by rows 4 to 6 (half up would paint one patch).
        ([[0.375, 0.625, 0.125, 0.125]], [7], {7: 4}),
        # No box at all.
        (np.zeros((0, 4)), [], {}),
    ], ids=["overlap", "past-the-edge", "negative-edge", "half-cells", "no-box"])
    def test_hand_built_boxes_match_the_box_loop(self, boxes, labels, painted):
        ep = dataclasses.replace(generate_episode(BenchmarkSpec(), 0, "test"),
                                 boxes=np.asarray(boxes, dtype=float),
                                 labels=np.asarray(labels, dtype=np.int64))
        classes = ep.patch_classes()
        np.testing.assert_array_equal(classes, _patch_classes_box_by_box(ep))
        assert {ep.class_ids[k]: int(v) for k, v in
                zip(*np.unique(classes[classes >= 0], return_counts=True))} == painted


class TestSingleClassView:
    def test_keeps_only_selected_class(self):
        ep = generate_episode(spec(), 0, "train")
        cid = int(ep.labels[0])
        view = single_class_view(ep, cid)
        assert view.class_ids == [cid]
        assert (view.labels == cid).all()
        np.testing.assert_array_equal(view.patches, ep.patches)
        assert view.support.shape == (1, ep.support.shape[1])

    def test_unknown_class_rejected(self):
        ep = generate_episode(spec(), 0, "train")
        with pytest.raises(ConfigError):
            single_class_view(ep, 999)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "episodes.bin"
        manifest = write_episodes(spec(), 5, path, split="test", start_index=3)
        manifest2, episodes = read_episodes(path)
        assert manifest["manifest_digest"] == manifest2["manifest_digest"]
        assert len(episodes) == 5
        for i, ep in enumerate(episodes):
            src = generate_episode(spec(), 3 + i, "test")
            np.testing.assert_array_equal(ep.patches, src.patches)
            np.testing.assert_array_equal(ep.support, src.support)
            np.testing.assert_array_equal(ep.boxes, src.boxes)
            np.testing.assert_array_equal(ep.labels, src.labels)
            assert ep.class_ids == src.class_ids
            assert ep.split == "test" and ep.index == src.index

    def test_truncation_is_corruption_error(self, tmp_path):
        path = tmp_path / "episodes.bin"
        write_episodes(spec(), 3, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 40])
        with pytest.raises(CorruptionError):
            read_episodes(path)

    def test_bitflip_is_digest_error(self, tmp_path):
        path = tmp_path / "episodes.bin"
        write_episodes(spec(), 3, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="digest"):
            read_episodes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "episodes.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptionError, match="magic"):
            read_episodes(path)

    def test_manifest_digest_stable(self, tmp_path):
        m1 = write_episodes(spec(), 4, tmp_path / "a.bin")
        m2 = write_episodes(spec(), 4, tmp_path / "b.bin")
        assert m1["manifest_digest"] == m2["manifest_digest"]

    def test_written_bytes_are_pinned(self, tmp_path):
        """The on-disk format is fixed: files written earlier still load."""
        path = tmp_path / "episodes.bin"
        manifest = write_episodes(BenchmarkSpec(), 5, path, split="test")
        blob = path.read_bytes()
        assert len(blob) == 88333
        assert hashlib.sha256(blob).hexdigest() == (
            "5fbe179d9c5bd7dbe7aeb877b43de5aa3b2695c9ccf351e593ad3181bf3d6766")
        assert manifest["manifest_digest"] == (
            "0564d7a14c99f3e1a4db34237f59da7f15af1dfaa50e7e2556ec1305c2c58218")
        assert read_episodes(path)[0] == manifest

    @pytest.mark.parametrize("old, new, message", [
        (b'"split": "test"', b'"split": "train"', "train episode 3"),
        (b', "split": "test"', b"", "KeyError"),
        (b'"start_index": 3', b'"start_index": 4', "test episode 4"),
        (b'"feature_dim": 16', b'"feature_dim": 17',
         "episode 0: support width 16 where the header gives feature_dim 17"),
        (b'"class_count": 3', b'"class_count": 2',
         r"episode 0: class ids \[3, 4, 5\] where the header gives \[2, 3\]"),
    ], ids=["split-disagrees", "split-missing", "start-index-disagrees",
            "feature-dim-disagrees", "class-ids-disagree"])
    def test_header_that_does_not_match_its_records_is_corrupt(
            self, tmp_path, old, new, message):
        path = tmp_path / "episodes.bin"
        write_episodes(spec(), 2, path, split="test", start_index=3)
        blob = path.read_bytes()
        (spec_len,) = struct.unpack_from("<I", blob, 12)
        header = blob[16:16 + spec_len]
        assert header.count(old) == 1
        header = header.replace(old, new)
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + spec_len:])
        with pytest.raises(CorruptionError, match=message):
            read_episodes(path)

    def test_header_grid_no_record_has_is_corrupt(self, tmp_path):
        """One digit of the header's grid changed, in a file whose records
        all have a 2x2 grid: the file is refused, not loaded with a spec
        that is not its records'."""
        path = tmp_path / "episodes.bin"
        write_episodes(BenchmarkSpec(class_count=2, capacity=3, grid_rows=2,
                                     grid_cols=2, feature_dim=4, objects_min=1,
                                     objects_max=1, shots=1), 2, path)
        blob = path.read_bytes()
        assert len(blob) == 913 and blob.count(b'"grid_rows": 2') == 1
        path.write_bytes(blob.replace(b'"grid_rows": 2', b'"grid_rows": 3'))
        with pytest.raises(CorruptionError, match=(
                r"episode 0: grid \(2, 2\) where the header gives "
                r"\(grid_rows, grid_cols\) \(3, 2\)")):
            read_episodes(path)

    def test_record_with_an_unknown_split_code_is_corrupt(self, tmp_path):
        """A record whose split byte names no split is refused, even with
        its digest rewritten to match."""
        path = tmp_path / "episodes.bin"
        write_episodes(spec(), 1, path)
        blob = bytearray(path.read_bytes())
        (spec_len,) = struct.unpack_from("<I", blob, 12)
        table = 16 + spec_len
        record = table + 32 + 8
        assert blob[record + 8] == 0  # the split byte follows the u64 index
        blob[record + 8] = 2
        blob[table:table + 32] = hashlib.sha256(blob[record:]).digest()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="episode 0: header: invalid split "
                                                  "code 2"):
            read_episodes(path)

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.bin"
        manifest = write_episodes(spec(), 0, path)
        manifest2, episodes = read_episodes(path)
        assert episodes == [] and manifest2["count"] == 0
        assert manifest["manifest_digest"] == manifest2["manifest_digest"]
