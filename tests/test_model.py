import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet.episodes import BenchmarkSpec, generate_episode
from fewdet.errors import ConfigError
from fewdet.model import (ModelConfig, VARIANTS, ablation_variant, compute_loss,
                          extract_features, forward, init_model_state,
                          run_inference, train_step, training_episode,
                          zero_model_state)
from fewdet.optim import AdamState


def micro_spec(**kw):
    base = dict(class_count=2, shots=3, capacity=3, grid_rows=4, grid_cols=4,
                feature_dim=8, objects_min=1, objects_max=2, bg_overlap=0.4,
                class_overlap=0.4, seed=3)
    base.update(kw)
    return BenchmarkSpec(**base)


def micro_cfg(**kw):
    base = dict(d=8, heads=2, encoder_layers=1, decoder_layers=1,
                num_object_queries=4, n_max=3, input_dim=8,
                num_class_embeddings=4, seed=1)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_d_divisible_by_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=10, heads=4)

    def test_n_max_minimum(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_max=1)


class TestExtractFeatures:
    def test_padding_appends_placeholders(self):
        spec = micro_spec(class_count=1, capacity=3)
        cfg = micro_cfg(n_max=3)
        ep = generate_episode(spec, 0, "train")
        state = init_model_state(cfg)
        _, seq = extract_features(ep, state, cfg)
        assert seq.layout == (int(ep.class_ids[0]), None, None)

    def test_identity_embedder_passthrough(self):
        spec = micro_spec()
        cfg = micro_cfg()
        ep = generate_episode(spec, 0, "train")
        state = zero_model_state(cfg)
        state.params["embed.weight"].data[:] = np.eye(8)
        _, seq = extract_features(ep, state, cfg)
        # support features pass through the identity map unchanged
        feats = seq.features.data
        np.testing.assert_allclose(feats, ep.support, atol=1e-12)

    def test_deterministic(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 5, "train")
        a, _ = extract_features(ep, state, cfg)
        b, _ = extract_features(ep, state, cfg)
        np.testing.assert_array_equal(a.data, b.data)


class TestForward:
    def test_shape_contract(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        out, feats, diag = forward(ep, state, cfg)
        assert out.boxes.shape == (cfg.num_object_queries, 4)
        assert out.position_probs.shape == (cfg.num_object_queries, cfg.n_max)
        assert feats.features.shape == (spec.class_count, cfg.d)
        assert len(diag["background_mass"]) == cfg.encoder_layers

    def test_zero_state_gives_half_probabilities(self):
        spec = micro_spec()
        cfg = micro_cfg()
        ep = generate_episode(spec, 0, "train")
        out, _, _ = forward(ep, zero_model_state(cfg), cfg)
        np.testing.assert_allclose(out.position_probs.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(out.boxes.data, 0.5, atol=1e-12)

    def test_deterministic(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        a, _, _ = forward(ep, state, cfg)
        b, _, _ = forward(ep, state, cfg)
        np.testing.assert_array_equal(a.position_probs.data, b.position_probs.data)
        np.testing.assert_array_equal(a.boxes.data, b.boxes.data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(3, 5), st.integers(4, 6),
           st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_shapes_over_randomized_configs(self, c, n_max, grid, m, seed):
        spec = micro_spec(class_count=c, capacity=max(c, n_max), grid_rows=grid,
                          grid_cols=grid, seed=seed % 100)
        cfg = micro_cfg(n_max=n_max if n_max >= c else c, num_object_queries=m,
                        num_class_embeddings=2 * c, seed=seed % 97)
        state = init_model_state(cfg)
        ep = generate_episode(spec, seed % 11, "train")
        out, feats, _ = forward(ep, state, cfg)
        assert out.boxes.shape == (m, 4)
        assert out.position_probs.shape == (m, cfg.n_max)
        assert feats.features.shape == (c, cfg.d)


class TestTrainStep:
    def test_loss_breakdown_fields(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        b = train_step(ep, state, AdamState(), cfg)
        assert set(b.as_dict()) == {"cls", "box", "giou", "ood", "total"}

    def test_ood_weight_zero_means_no_embedding_gradient(self):
        spec = micro_spec()
        cfg = micro_cfg(ood_weight=0.0)
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        b = train_step(ep, state, AdamState(), cfg)
        assert b.ood == 0.0
        assert state.params["ood.embeddings"].grad is None

    def test_single_class_mode_never_touches_background_token(self):
        spec = micro_spec()
        cfg = ablation_variant(micro_cfg(), "baseline")
        state = init_model_state(cfg)
        token_before = state.params["obd.background_token"].data.copy()
        opt = AdamState()
        for step in range(4):
            ep = training_episode(generate_episode(spec, step, "train"), cfg, step)
            train_step(ep, state, opt, cfg)
            assert state.params["obd.background_token"].grad is None
        np.testing.assert_array_equal(state.params["obd.background_token"].data,
                                      token_before)

    def test_overfit_single_episode_halves_loss(self):
        spec = micro_spec()
        ep = generate_episode(spec, 0, "train")
        for variant in VARIANTS:
            cfg = ablation_variant(micro_cfg(), variant)
            state = init_model_state(cfg)
            opt = AdamState(learning_rate=cfg.learning_rate)
            first = None
            for step in range(300):
                b = train_step(training_episode(ep, cfg, 0), state, opt, cfg)
                if first is None:
                    first = b.total
            assert b.total <= 0.5 * first, variant


class TestInference:
    def test_untrained_high_threshold_empty(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        assert run_inference(ep, state, cfg, 0.999) == []

    def test_threshold_zero_emits_all_queries(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        dets = run_inference(ep, state, cfg, 0.0)
        assert len(dets) == cfg.num_object_queries

    def test_single_class_mode_emits_per_class(self):
        spec = micro_spec()
        cfg = ablation_variant(micro_cfg(), "baseline")
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        dets = run_inference(ep, state, cfg, 0.0)
        assert len(dets) == cfg.num_object_queries * spec.class_count


class TestAblationVariants:
    def test_baseline_single_class(self):
        cfg = ablation_variant(micro_cfg(), "baseline")
        assert cfg.single_class_mode and cfg.ood_weight == 0.0
        spec = micro_spec()
        ep = training_episode(generate_episode(spec, 0, "train"), cfg, 0)
        _, seq = extract_features(ep, init_model_state(cfg), cfg)
        assert len(seq) == 1 and seq.placeholder_positions == ()

    def test_obd_only_zeroes_ood(self):
        cfg = ablation_variant(micro_cfg(), "+OBD")
        assert not cfg.single_class_mode and cfg.ood_weight == 0.0

    def test_full_is_identity(self):
        cfg = micro_cfg()
        assert ablation_variant(cfg, "+OBD+OOD") == cfg

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ablation_variant(micro_cfg(), "nonsense")


def test_full_loss_gradient_matches_finite_differences():
    """Reverse-mode through the whole pipeline equals the oracle (micro
    config, matching frozen); this is the same check the CLI gate runs."""
    from fewdet.gradcheck import full_loss_check

    results = full_loss_check(seed=0)
    failures = [r for r in results if not r.ok]
    assert not failures, [f"{r.name}: {r.max_rel_error}" for r in failures]


def test_default_train_step_graph_node_budget(monkeypatch):
    """One default +OBD+OOD train step records fewer than 250 autodiff graph
    nodes: attention and layer norm are one node per call."""
    from fewdet import tensor as T
    from fewdet.config import RunConfig

    run = RunConfig()
    cfg = ablation_variant(run.resolved_model(), "+OBD+OOD")
    state = init_model_state(cfg)
    episode = generate_episode(run.benchmark, 0, "train")
    result = T.Tensor._result
    nodes = []

    def counting(data, parents, backward):
        out = result(data, parents, backward)
        nodes.append(out._backward is not None)
        return out

    monkeypatch.setattr(T.Tensor, "_result", staticmethod(counting))
    train_step(episode, state, AdamState(learning_rate=cfg.learning_rate), cfg)
    assert 0 < sum(nodes) < 250
