import dataclasses

import numpy as np
import pytest

from fewdet.episodes import (BenchmarkSpec, class_prototypes, generate_episode,
                             nearest_prototype_accuracy, read_episodes,
                             separation_margins, single_class_view,
                             write_episodes)
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

    def test_builds_split_prototypes_once(self, monkeypatch):
        import fewdet.episodes as episodes
        calls = []
        original = episodes.class_prototypes

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(episodes, "class_prototypes", counted)
        generate_episode(spec(), 0, "test")
        assert len(calls) == 1

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

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.bin"
        manifest = write_episodes(spec(), 0, path)
        manifest2, episodes = read_episodes(path)
        assert episodes == [] and manifest2["count"] == 0
        assert manifest["manifest_digest"] == manifest2["manifest_digest"]
