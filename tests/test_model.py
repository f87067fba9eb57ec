import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewdet import obd, ood, set_head, tensor as T
from fewdet.config import RunConfig
from fewdet.episodes import BenchmarkSpec, generate_episode, single_class_view
from fewdet.errors import ConfigError, NumericError, ShapeError
from fewdet.model import (ModelConfig, VARIANTS, ablation_variant, compute_loss,
                          extract_features, forward, init_model_state,
                          run_inference, train_step, training_episode,
                          variant_of, zero_model_state)
from fewdet.optim import AdamState
from fewdet.set_head import decode_detections
from fewdet.tensor import Tensor, no_grad


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
        with pytest.raises(ConfigError, match="d=12 not divisible by heads=8"):
            ModelConfig(d=12, heads=8)

    def test_d_multiple_of_four(self):
        with pytest.raises(ConfigError, match="positive multiple of 4"):
            ModelConfig(d=10, heads=2)

    def test_n_max_minimum(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_max=1)


class TestInit:
    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(seed=104729),
                                     micro_cfg(encoder_layers=3)],
                             ids=["default", "seed-104729", "three-layers"])
    def test_projections_are_stored_as_the_transpose_of_their_draw(self, cfg):
        """Replaying ``default_rng(cfg.seed)`` over ``parameter_layout``, with
        every parameter drawn as the (out, in) matrix of ``x @ w^T`` where it
        is a projection: the OBD query, key and value projections and
        ``head.class.support_proj`` hold the transpose of their draw, every
        other parameter its draw, bit for bit."""
        from fewdet.model import parameter_layout

        rng = np.random.default_rng(cfg.seed)
        state = init_model_state(cfg)
        projections = {"head.class.support_proj"} | {
            f"obd.layer{i}.{w}" for i in range(cfg.encoder_layers)
            for w in ("w1", "w2", "w3")}
        transposed = set()
        for name, shape in parameter_layout(cfg):
            got = state.params[name].data
            if name == "obd.background_token":
                want = rng.normal(0.0, 0.02, size=shape)
            elif name in ("ood.embeddings", "queries.embed"):
                want = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=shape)
            elif name == "queries.ref" or name.endswith(
                    (".gamma", ".bias", ".beta", ".b1", ".b2")):
                continue
            else:
                want = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
            if name in projections:
                assert not np.array_equal(want, want.T)
                want = want.T
                transposed.add(name)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert transposed == projections
        assert len(projections) == 3 * cfg.encoder_layers + 1


class TestExtractFeatures:
    def test_padding_appends_placeholders(self):
        spec = micro_spec(class_count=1, capacity=3)
        cfg = micro_cfg(n_max=3)
        ep = generate_episode(spec, 0, "train")
        state = init_model_state(cfg)
        _, seq = extract_features(ep, state, cfg)
        assert seq.class_ids == (int(ep.class_ids[0]),) and len(seq) == 3

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
        rows, cols = ep.grid
        assert diag["query_attention"].shape == (cfg.heads, rows * cols, cfg.n_max)
        assert set(diag) == {"sequence", "query_attention"}

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

    def test_in_place_weight_edit_reaches_the_next_forward(self):
        """The gradient spot checks and finite differences edit one element
        of a weight's ``.data`` in place between forwards; the next forward
        must see the edit, bit for bit as a fresh state holding the same
        values, so nothing derived from the weights may outlive such an
        edit."""
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(micro_spec(), 0, "train")
        with no_grad():
            before, _, _ = forward(ep, state, cfg)
        state.params["obd.layer0.w2"].data[1, 2] += 0.25
        fresh = init_model_state(cfg)
        for name, p in fresh.params.items():
            p.data[...] = state.params[name].data
        with no_grad():
            edited, _, _ = forward(ep, state, cfg)
            expected, _, _ = forward(ep, fresh, cfg)
        assert edited.position_logits.data.tobytes() != before.position_logits.data.tobytes()
        for field in ("boxes", "position_probs", "position_logits"):
            assert (getattr(edited, field).data.tobytes()
                    == getattr(expected, field).data.tobytes()), field

    @pytest.mark.parametrize("seed", [0, 7, 104729])
    def test_forward_without_detection_stops_with_the_same_diagnostics(self, seed):
        """``detect=False`` returns no detections, and support features and
        diagnostics equal the full forward's bit for bit."""
        run = RunConfig(seed=seed, benchmark=BenchmarkSpec(seed=seed))
        cfg = run.resolved_model()
        state = init_model_state(cfg)
        for index in range(2):
            ep = generate_episode(run.benchmark, index, "test")
            with no_grad():
                _, feats, diag = forward(ep, state, cfg)
                out, short_feats, short_diag = forward(ep, state, cfg, detect=False)
            assert out is None
            assert set(short_diag) == set(diag)
            assert np.array_equal(short_feats.features.data, feats.features.data)
            seq, short_seq = diag["sequence"], short_diag["sequence"]
            assert np.array_equal(short_seq.features.data, seq.features.data)
            assert (short_seq.class_ids, short_seq.length) == (seq.class_ids, seq.length)
            assert np.array_equal(short_diag["query_attention"], diag["query_attention"])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_without_detection_skips_the_last_fusion(self, layers, monkeypatch):
        """A full forward fuses every query-OBD layer's output, one Conv1D
        (``concat_linear``) and one FFN (``ffn_apply``) each; ``detect=False``
        stops at the last layer's attention, so it skips that layer's (all
        of them at one layer), and its diagnostics still equal the full
        forward's bit for bit."""
        calls = {"concat_linear": 0, "ffn_apply": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(obd, name, counting(name, getattr(obd, name)))
        cfg = micro_cfg(encoder_layers=layers)
        state = init_model_state(cfg)
        ep = generate_episode(micro_spec(), 0, "test")
        with no_grad():
            _, feats, diag = forward(ep, state, cfg)
            assert calls == {"concat_linear": layers, "ffn_apply": layers}
            out, short_feats, short_diag = forward(ep, state, cfg, detect=False)
        assert calls == {"concat_linear": 2 * layers - 1, "ffn_apply": 2 * layers - 1}
        assert out is None and set(short_diag) == set(diag)
        assert np.array_equal(short_feats.features.data, feats.features.data)
        seq, short_seq = diag["sequence"], short_diag["sequence"]
        assert np.array_equal(short_seq.features.data, seq.features.data)
        assert (short_seq.class_ids, short_seq.length) == (seq.class_ids, seq.length)
        assert np.array_equal(short_diag["query_attention"], diag["query_attention"])

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

    @pytest.mark.parametrize("seed", [0, 7, 104729])
    def test_reordering_support_classes_permutes_only_their_columns(self, seed):
        """The sequence puts the classes first in episode order; attention
        over it is permutation-equivariant, so reversing the classes (support
        rows and ids, ground truths unchanged) reverses the class columns and
        leaves the placeholder columns, the boxes and the loss as they
        were."""
        run = RunConfig(seed=seed, benchmark=BenchmarkSpec(seed=seed))
        cfg = run.resolved_model()
        state = init_model_state(cfg)
        ep = generate_episode(run.benchmark, 0, "train")
        flipped = dataclasses.replace(ep, class_ids=ep.class_ids[::-1],
                                      support=ep.support[::-1])
        c = len(ep.class_ids)
        out_a, _, diag_a = forward(ep, state, cfg)
        out_b, _, diag_b = forward(flipped, state, cfg)
        assert diag_b["sequence"].class_ids == diag_a["sequence"].class_ids[::-1]
        probs_a, probs_b = out_a.position_probs.data, out_b.position_probs.data
        np.testing.assert_allclose(probs_b[:, :c], probs_a[:, c - 1::-1],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs_b[:, c:], probs_a[:, c:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out_b.boxes.data, out_a.boxes.data,
                                   rtol=0, atol=1e-12)
        loss_a = compute_loss(ep, state, cfg)[1].total
        loss_b = compute_loss(flipped, state, cfg)[1].total
        assert abs(loss_b - loss_a) <= 1e-12


class TestTrainStep:
    def test_loss_breakdown_fields(self):
        spec = micro_spec()
        cfg = micro_cfg()
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        b = train_step(ep, state, AdamState(), cfg)
        assert set(b.as_dict()) == {"cls", "box", "giou", "ood", "total"}

    def test_episode_without_ground_truth_matches_no_query(self):
        cfg = micro_cfg()
        ep = generate_episode(micro_spec(objects_min=1, objects_max=1), 0, "train")
        absent = next(c for c in ep.class_ids if c not in ep.labels)
        view = single_class_view(ep, absent)
        assert len(view.labels) == 0
        loss, b, diag = compute_loss(view, init_model_state(cfg), cfg)
        rows, cols = diag["match"]
        assert list(zip(rows.tolist(), cols.tolist())) == []
        assert b.box == b.giou == 0.0 and np.isfinite(b.total)

    def test_non_finite_loss_raises_before_any_update(self):
        """A NaN row of the class embeddings reaches only the InfoNCE term:
        the step raises with a diagnostics snapshot and leaves the
        parameters, both Adam moments and the step count as they were."""
        cfg = micro_cfg()
        state, opt = init_model_state(cfg), AdamState()
        train_step(generate_episode(micro_spec(), 0, "train"), state, opt, cfg)
        ep = generate_episode(micro_spec(), 1, "train")
        state.params["ood.embeddings"].data[ep.class_ids[0]] = np.nan

        def snapshot():
            return [{n: p.data.copy() for n, p in state.params.items()},
                    {n: a.copy() for n, a in opt.first_moment.items()},
                    {n: a.copy() for n, a in opt.second_moment.items()}]

        before = snapshot()
        with pytest.raises(NumericError, match="non-finite loss at step 2") as exc:
            train_step(ep, state, opt, cfg)
        diagnostics = exc.value.diagnostics
        assert set(diagnostics) == {"episode_index", "breakdown"}
        assert diagnostics["episode_index"] == 1
        breakdown = diagnostics["breakdown"]
        assert set(breakdown) == {"cls", "box", "giou", "ood", "total"}
        assert np.isnan(breakdown["ood"]) and np.isnan(breakdown["total"])
        assert all(np.isfinite(breakdown[k]) for k in ("cls", "box", "giou"))
        assert opt.step_count == 1
        for now, then in zip(snapshot(), before):
            assert now.keys() == then.keys()
            for name in then:
                np.testing.assert_array_equal(now[name], then[name], strict=True)

    def test_box_extent_underflow_is_a_numeric_error(self):
        """Extent offsets of -1e3 decode to widths and heights of
        sigmoid(-1e3) = 0: forward and inference raise NumericError naming
        the count and the first box, before matching or scoring reads them;
        a training step raises it again naming the step and the episode."""
        cfg = micro_cfg()
        state = init_model_state(cfg)
        state.params["head.box.b2"].data[2:] = -1e3
        ep = generate_episode(micro_spec(), 0, "train")
        message = (r"^predicted box extent underflowed to 0: 4 of 4 boxes, "
                   r"the first at index \[0\]: \[.*, 0\.0, 0\.0\]$")
        with pytest.raises(NumericError, match=message):
            forward(ep, state, cfg)
        with pytest.raises(NumericError, match=message):
            run_inference(ep, state, cfg, 0.0)
        # A training step names itself and the episode, like a non-finite loss.
        opt = AdamState()
        with pytest.raises(NumericError, match=message[:-1] + r" \(at step 1\)$") as exc:
            train_step(ep, state, opt, cfg)
        assert exc.value.diagnostics == {"episode_index": 0}
        assert opt.step_count == 0

    def test_ood_weight_zero_means_no_embedding_gradient(self):
        spec = micro_spec()
        cfg = micro_cfg(ood_weight=0.0)
        state = init_model_state(cfg)
        ep = generate_episode(spec, 0, "train")
        opt = AdamState()
        b = train_step(ep, state, opt, cfg)
        assert b.ood == 0.0
        # A parameter without a gradient keeps its zero moments.
        assert not opt.first_moment["ood.embeddings"].any()
        assert not opt.second_moment["ood.embeddings"].any()
        assert opt.second_moment["embed.weight"].any()

    def test_single_class_mode_never_touches_background_token(self):
        spec = micro_spec()
        cfg = ablation_variant(micro_cfg(), "baseline")
        state = init_model_state(cfg)
        token_before = state.params["obd.background_token"].data.copy()
        opt = AdamState()
        for step in range(4):
            ep = training_episode(generate_episode(spec, step, "train"), cfg, step)
            train_step(ep, state, opt, cfg)
            assert not opt.first_moment["obd.background_token"].any()
            assert not opt.second_moment["obd.background_token"].any()
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

    def test_single_class_mode_concatenates_each_view_in_class_order(self):
        """Baseline inference is, exactly, the decoded no_grad forward of
        each single-class view, in episode.class_ids order."""
        cfg = ablation_variant(micro_cfg(), "baseline")
        state = init_model_state(cfg)
        ep = generate_episode(micro_spec(), 0, "test")
        want = []
        with no_grad():
            for cid in ep.class_ids:
                view = single_class_view(ep, int(cid))
                out, _, diag = forward(view, state, cfg)
                want.extend(decode_detections(out, diag["sequence"], 0.0))
        got = run_inference(ep, state, cfg, 0.0)
        assert [c for c, _, _ in got] == [c for c, _, _ in want] == [
            cid for cid in ep.class_ids for _ in range(cfg.num_object_queries)]
        assert [s for _, s, _ in got] == [s for _, s, _ in want]
        for (_, _, box), (_, _, want_box) in zip(got, want):
            np.testing.assert_array_equal(box.view(np.uint64),
                                          want_box.view(np.uint64))


class TestAblationVariants:
    def test_baseline_single_class(self):
        cfg = ablation_variant(micro_cfg(), "baseline")
        assert cfg.single_class_mode and cfg.ood_weight == 0.0
        spec = micro_spec()
        ep = training_episode(generate_episode(spec, 0, "train"), cfg, 0)
        _, seq = extract_features(ep, init_model_state(cfg), cfg)
        assert len(seq) == 1 and len(seq.class_ids) == 1

    def test_obd_only_zeroes_ood(self):
        cfg = ablation_variant(micro_cfg(), "+OBD")
        assert not cfg.single_class_mode and cfg.ood_weight == 0.0

    def test_full_is_identity(self):
        cfg = micro_cfg()
        assert ablation_variant(cfg, "+OBD+OOD") == cfg

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ablation_variant(micro_cfg(), "nonsense")

    def test_variant_of_inverts_ablation_variant(self):
        """Each variant of a base config maps back to its name; with
        ``ood_weight`` 0 the first of the two equal configs, ``+OBD``, is
        named for both; a config no variant gives is a ConfigError."""
        base = micro_cfg()
        for variant in VARIANTS:
            assert variant_of(base, ablation_variant(base, variant)) == variant
        base = dataclasses.replace(base, ood_weight=0.0)
        for variant in ("+OBD", "+OBD+OOD"):
            assert variant_of(base, ablation_variant(base, variant)) == "+OBD"
        other = dataclasses.replace(base, temperature=2 * base.temperature)
        with pytest.raises(ConfigError, match="none of the run's variants "
                                              "baseline, \\+OBD, \\+OBD\\+OOD"):
            variant_of(base, ablation_variant(other, "+OBD"))

    def test_configs_hash_and_their_weights_are_frozen(self):
        """A frozen config holds frozen weights: it hashes, and no variant
        can change the loss weights the others share."""
        cfgs = [ablation_variant(ModelConfig(), v) for v in VARIANTS]
        assert len(set(cfgs)) == len(VARIANTS)
        assert hash(ModelConfig()) == hash(ModelConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfgs[0].weights.cls = 0.0
        assert all(cfg.weights.cls == 2.0 for cfg in cfgs)


def _rows(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, error, message", [
    (lambda: extract_features(generate_episode(micro_spec(), 0, "train"),
                              init_model_state(micro_cfg(single_class_mode=True)),
                              micro_cfg(single_class_mode=True)),
     ConfigError, "episode has 2 classes but sequence capacity is 1"),
    (lambda: set_head.DetectionOutput(_rows(2, 3), _rows(2, 2), _rows(2, 2)),
     ShapeError, r"boxes must be \(M, 4\), got \(2, 3\)"),
    (lambda: set_head.DetectionOutput(_rows(2, 4), _rows(2, 2), _rows(2, 3)),
     ShapeError, "position probability/logit shapes disagree"),
    (lambda: set_head.GroundTruth(np.zeros((2, 4)), [0]),
     ShapeError, "2 boxes but 1 labels"),
    (lambda: set_head.hungarian_match(np.zeros(3)),
     ShapeError, r"cost must be 2-d, got \(3,\)"),
    (lambda: decode_detections(
        set_head.DetectionOutput(_rows(1, 4), _rows(1, 2), _rows(1, 2)),
        obd.SupportSequence((0,), 2, _rows(1, 4)), 1.5),
     ValueError, r"score threshold must lie in \[0, 1\], got 1.5"),
    (lambda: T.add(_rows(2, 3), _rows(4)),
     ShapeError, r"add: shapes \(2, 3\) and \(4,\) do not broadcast"),
    (lambda: T.matmul(_rows(3), _rows(3, 2)),
     ShapeError, r"matmul requires 2-d operands, got \(3,\) and \(3, 2\)"),
    (lambda: T.layer_norm(_rows(2, 3), _rows(4), _rows(3)),
     ShapeError, r"layer_norm: input \(2, 3\) does not match gamma \(4,\)"),
    # The patch rows are checked before any other argument is read.
    (lambda: obd.ofe_query(_rows(0, 4), *[None] * 8),
     ShapeError, r"ofe_query: need at least one patch row, got \(0, 4\)"),
    (lambda: ood.ClassFeatureSpace(_rows(4)),
     ShapeError, r"embeddings must be 2-d, got \(4,\)"),
    (lambda: ood.SupportClassFeatures(_rows(4)),
     ShapeError, r"class features must be 2-d, got \(4,\)"),
], ids=["model-capacity", "head-boxes", "head-probs-logits", "gt-labels",
        "match-cost", "decode-threshold", "tensor-broadcast", "tensor-matmul",
        "tensor-layer-norm", "obd-query-rows", "ood-embeddings", "ood-features"])
def test_malformed_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_full_loss_gradient_matches_finite_differences():
    """Reverse-mode through the whole pipeline equals the oracle (micro
    config, matching frozen); this is the same check the CLI gate runs."""
    from fewdet.gradcheck import full_loss_check

    results = full_loss_check(seed=0)
    failures = [r for r in results if not r.ok]
    assert not failures, [f"{r.name}: {r.max_rel_error}" for r in failures]


def recorded_train_step_nodes(monkeypatch, variant: str, step: int = 0):
    """The autodiff graph nodes one default train step of ``variant``
    records on train episode ``step`` (its view at that step in
    single-class mode), held past the step, the name of the function that
    created each, and that episode."""
    from fewdet import tensor as T
    from fewdet.config import RunConfig

    run = RunConfig()
    cfg = ablation_variant(run.resolved_model(), variant)
    state = init_model_state(cfg)
    episode = training_episode(generate_episode(run.benchmark, step, "train"),
                               cfg, step)
    result = T.Tensor._result
    nodes, creators = [], []

    def recording(data, parents, backward):
        out = result(data, parents, backward)
        if out._backward is not None:
            nodes.append(out)
            creators.append(sys._getframe(1).f_code.co_name)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(T.Tensor, "_result", staticmethod(recording))
        train_step(episode, state, AdamState(learning_rate=cfg.learning_rate), cfg)
    return nodes, creators, episode


def test_default_train_step_graph_node_budget(monkeypatch):
    """One default +OBD+OOD train step records at most 76 autodiff graph
    nodes: attention, layer norm, each loss term (``bce_with_logits``,
    ``box_loss`` and ``infonce_loss``), every FFN block, affine map
    (``linear``, and ``concat_linear`` for the query layers' fusion),
    projection with its filler rows (``project_rows``: the OBD queries,
    keys and values, the class head's support keys and its logits) and the
    transpose of those keys (``transpose``) are one node per call, and the
    class probabilities are values outside the graph."""
    nodes, _, _ = recorded_train_step_nodes(monkeypatch, "+OBD+OOD")
    assert 0 < len(nodes) <= 76


@pytest.mark.parametrize("variant, step, nodes_recorded", [
    *((variant, 0, None) for variant in VARIANTS),
    ("baseline", 4, 67),
], ids=[*VARIANTS, "baseline-view-without-ground-truth"])
def test_train_step_backward_walks_every_recorded_node(monkeypatch, variant, step,
                                                       nodes_recorded):
    """Backward consumes every node the step recorded: no node is built for
    a value that no gradient flows through. Step 0's episode has ground
    truth; the baseline's view at step 4 has none, so its box loss is a
    constant and the box head records no nodes."""
    from fewdet.tensor import _consumed

    nodes, _, episode = recorded_train_step_nodes(monkeypatch, variant, step)
    assert (len(episode.labels) == 0) == (step == 4)
    assert nodes_recorded in (None, len(nodes))
    assert nodes and [n.shape for n in nodes if n._backward is not _consumed] == []


def test_gradcheck_covers_every_node_a_train_step_records(monkeypatch):
    """``fewdet gradcheck`` has a check named after the function that
    created each node of a default +OBD+OOD step and of a baseline step
    (``attention.q`` covers ``attention``): a new node type must come with
    its gradient check. The full-loss checks, named after the parameters,
    cover no node type and are left out here for time."""
    from fewdet import gradcheck

    creators = set()
    for variant in ("+OBD+OOD", "baseline"):
        creators.update(recorded_train_step_nodes(monkeypatch, variant)[1])
    monkeypatch.setattr(gradcheck, "full_loss_check", lambda seed: [])
    results, ok = gradcheck.run_gradcheck()
    assert ok
    assert creators
    assert creators - {r.name.split(".")[0] for r in results} == set()


def test_backward_frees_the_graph_it_walks():
    """After one default-config forward and backward, all that stays live
    beyond the parameters' gradients is the loss and the diagnostics: the
    forward intermediates, closures and interior gradients are freed by the
    pass itself, not when the caller drops the loss."""
    from fewdet.config import RunConfig

    run = RunConfig()
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    episode = generate_episode(run.benchmark, 0, "train")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _, diag = compute_loss(episode, state, cfg)
        loss.backward()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in state.params.values())
    assert live <= grad_bytes + 256 * 1024


def test_train_step_releases_its_gradients():
    """After a default train step no parameter holds a gradient, and all
    that stays live beyond the parameters and Adam's moment buffers, bound
    at a warm-up step, is at most 64 KiB."""
    from fewdet.config import RunConfig

    run = RunConfig()
    cfg = run.resolved_model()
    state = init_model_state(cfg)
    opt = AdamState(learning_rate=cfg.learning_rate)
    train_step(generate_episode(run.benchmark, 0, "train"), state, opt, cfg)
    episode = generate_episode(run.benchmark, 1, "train")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_step(episode, state, opt, cfg)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(p.grad is None for p in state.params.values())
    assert live <= 64 * 1024
