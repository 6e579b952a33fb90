"""Model construction, masks, structural pruning, and checkpoint files."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import tiny_config, tiny_model, token_batch
from spikeprune import (SUBLAYERS, CheckpointError, InvalidInputError, MaskSet,
                        ModelConfig, RandomStream, TimestepPlan, apply_masks,
                        binarize_weights, init_model, load_checkpoint,
                        rate_proxy_forward, run_unrolled, save_checkpoint)


class TestModelConfig:
    def test_head_dim_is_derived(self):
        cfg = ModelConfig(num_layers=1, hidden_size=12, num_heads=3,
                          intermediate_size=4, seq_len=2, vocab_size=5)
        assert cfg.head_dim == 4

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(num_layers=1, hidden_size=10, num_heads=3,
                        intermediate_size=4, seq_len=2, vocab_size=5)

    @pytest.mark.parametrize("field,value", [
        ("num_layers", 0), ("hidden_size", -4), ("num_heads", 0),
        ("seq_len", 0), ("vocab_size", 0), ("num_classes", 0),
        ("leak", 1.5), ("leak", -0.1), ("t_conv", 0),
        ("variance_threshold", 0.0), ("variance_threshold", 1.1),
        ("pca_base", 0.9), ("initial_vth", 0.0),
    ])
    def test_field_validation(self, field, value):
        kwargs = dict(num_layers=1, hidden_size=8, num_heads=2,
                      intermediate_size=4, seq_len=2, vocab_size=5)
        kwargs[field] = value
        with pytest.raises(InvalidInputError):
            ModelConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_and_missing(self):
        cfg = tiny_config().to_dict()
        cfg["surprise"] = 1
        with pytest.raises(CheckpointError, match="unknown"):
            ModelConfig.from_dict(cfg)
        with pytest.raises(CheckpointError, match="missing"):
            ModelConfig.from_dict({"num_layers": 2})


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = tiny_model(5)
        b = tiny_model(5)
        assert np.array_equal(a.embedding, b.embedding)
        for la, lb in zip(a.layers, b.layers):
            for f in dataclasses.fields(la):
                assert np.array_equal(getattr(la, f.name), getattr(lb, f.name))
        assert np.array_equal(a.cls_w, b.cls_w)
        assert a.input_scale == b.input_scale

    def test_different_seeds_differ(self):
        assert not np.array_equal(tiny_model(0).embedding, tiny_model(1).embedding)

    def test_initial_values(self):
        model = tiny_model(0, initial_vth=0.8)
        layer = model.layers[0]
        assert np.array_equal(layer.vth, np.full(len(SUBLAYERS), 0.8))
        assert np.array_equal(layer.b_k, np.zeros(8))
        # norm affine starts centered in the firing window
        assert np.array_equal(layer.ln1_scale, np.full(8, 0.2))
        assert np.array_equal(layer.ln1_shift, np.full(8, 0.4))
        assert model.input_scale == np.abs(model.embedding).max()

    def test_weight_scale(self):
        model = tiny_model(3)
        assert np.abs(model.layers[0].w_k).max() <= 1 / np.sqrt(8)

    def test_counts(self):
        model = tiny_model(0)
        assert model.head_counts() == [2]
        assert model.neuron_counts() == [6]


class TestMaskSet:
    def test_all_ones(self):
        masks = MaskSet.all_ones(tiny_model(0))
        assert masks.active_counts() == ([2], [6])

    def test_binary_enforced(self):
        with pytest.raises(InvalidInputError):
            MaskSet([np.array([0.5, 1.0])], [np.ones(3)])

    def test_non_empty_enforced(self):
        with pytest.raises(InvalidInputError):
            MaskSet([np.ones(0)], [np.ones(3)])

    def test_relaxed_range_enforced(self):
        with pytest.raises(InvalidInputError):
            MaskSet([np.ones(2)], [np.ones(3)],
                    relaxed_heads=[np.array([1.2, 0.5])],
                    relaxed_neurons=[np.full(3, 0.5)])

    def test_harden_thresholds_at_half(self):
        masks = MaskSet([np.ones(3)], [np.ones(2)],
                        relaxed_heads=[np.array([0.49, 0.5, 0.51])],
                        relaxed_neurons=[np.array([0.1, 0.9])])
        hard = masks.harden()
        assert np.array_equal(hard.heads[0], np.array([0.0, 1.0, 1.0]))
        assert np.array_equal(hard.neurons[0], np.array([0.0, 1.0]))

    def test_harden_without_relaxed_copies(self):
        masks = MaskSet([np.ones(2)], [np.ones(3)])
        hard = masks.harden()
        hard.heads[0][0] = 0.0
        assert masks.heads[0][0] == 1.0

    def test_validate_for_catches_wrong_lengths(self):
        model = tiny_model(0)
        with pytest.raises(InvalidInputError):
            MaskSet([np.ones(3)], [np.ones(6)]).validate_for(model)
        with pytest.raises(InvalidInputError):
            MaskSet([np.ones(2)], [np.ones(5)]).validate_for(model)
        with pytest.raises(InvalidInputError):
            MaskSet([np.ones(2), np.ones(2)],
                    [np.ones(6), np.ones(6)]).validate_for(model)


class TestApplyMasks:
    def test_sliced_model_computes_the_masked_function(self):
        """Deleting pruned rows/columns must not change any prediction."""
        model = tiny_model(1, num_layers=2, intermediate_size=5)
        masks = MaskSet([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        [np.array([1, 0, 1, 1, 0.0]), np.array([0, 1, 1, 0, 1.0])])
        tokens, _ = token_batch(model.config, 3, RandomStream(9))
        logits_masked, rates_masked = rate_proxy_forward(model, masks, tokens)

        sliced = apply_masks(model, masks)
        assert sliced.head_counts() == [1, 1]
        assert sliced.neuron_counts() == [3, 3]
        logits_sliced, _ = rate_proxy_forward(sliced, MaskSet.all_ones(sliced),
                                              tokens)
        assert np.allclose(logits_masked, logits_sliced, rtol=1e-12, atol=1e-12)
        # the simulators size each sublayer's state from the layer's own widths
        sim_masked, _ = run_unrolled(model, masks, tokens, 12)
        sim_sliced, _ = run_unrolled(sliced, MaskSet.all_ones(sliced), tokens, 12)
        assert np.allclose(sim_masked, sim_sliced, rtol=1e-12, atol=1e-12)

    def test_all_ones_is_identity(self):
        model = tiny_model(2)
        out = apply_masks(model, MaskSet.all_ones(model))
        assert np.array_equal(out.layers[0].w_k, model.layers[0].w_k)
        assert out is not model

    def test_refuses_to_empty_a_layer(self):
        model = tiny_model(0)
        with pytest.raises(InvalidInputError, match="every head"):
            apply_masks(model, MaskSet([np.zeros(2)], [np.ones(6)]))
        with pytest.raises(InvalidInputError, match="every neuron"):
            apply_masks(model, MaskSet([np.ones(2)], [np.zeros(6)]))

    def test_does_not_mutate_input(self):
        model = tiny_model(0)
        before = model.layers[0].w_inter.copy()
        apply_masks(model, MaskSet([np.ones(2)], [np.array([1, 0, 1, 1, 1, 1.0])]))
        assert np.array_equal(model.layers[0].w_inter, before)


def test_binarize_weights_sign_times_mean_abs():
    model = tiny_model(4)
    w = model.layers[0].w_v
    alpha = np.abs(w).mean()
    out = binarize_weights(model)
    assert np.array_equal(out.layers[0].w_v, alpha * np.sign(w))
    assert set(np.unique(np.abs(out.layers[0].w_v))) == {alpha}
    # only the six projection matrices are quantized
    assert np.array_equal(out.embedding, model.embedding)
    assert np.array_equal(out.layers[0].b_v, model.layers[0].b_v)
    assert np.array_equal(out.layers[0].ln1_scale, model.layers[0].ln1_scale)


class TestCheckpoint:
    def _roundtrip(self, tmp_path, model, masks, plan):
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, model, masks, plan)
        return load_checkpoint(path)

    def test_bit_exact_round_trip(self, tmp_path):
        model = tiny_model(7, num_layers=2)
        masks = MaskSet([np.array([1.0, 0.0]), np.ones(2)],
                        [np.array([1, 1, 0, 1, 0, 1.0]), np.ones(6)],
                        relaxed_heads=[np.array([0.9, 0.2]), np.full(2, 0.8)],
                        relaxed_neurons=[np.linspace(0.1, 0.9, 6), np.full(6, 0.6)])
        plan = TimestepPlan(np.arange(1, 13).reshape(2, 6))
        m2, k2, p2 = self._roundtrip(tmp_path, model, masks, plan)
        assert m2.config == model.config
        assert m2.input_scale == model.input_scale
        assert np.array_equal(m2.embedding, model.embedding)
        for la, lb in zip(model.layers, m2.layers):
            for f in dataclasses.fields(la):
                assert np.array_equal(getattr(la, f.name), getattr(lb, f.name)), f.name
        assert np.array_equal(m2.cls_w, model.cls_w)
        for a, b in zip(masks.heads, k2.heads):
            assert np.array_equal(a, b)
        for a, b in zip(masks.relaxed_neurons, k2.relaxed_neurons):
            assert np.array_equal(a, b)
        assert p2 == plan

    def test_absent_relaxed_masks_stay_absent(self, tmp_path):
        model = tiny_model(0)
        _, masks, _ = self._roundtrip(tmp_path, model, MaskSet.all_ones(model),
                                      TimestepPlan.uniform(1, 10))
        assert masks.relaxed_heads is None
        assert masks.relaxed_neurons is None

    def test_pruned_shapes_round_trip(self, tmp_path):
        model = tiny_model(1)
        sliced = apply_masks(model, MaskSet([np.array([0.0, 1.0])],
                                            [np.array([1, 0, 1, 0, 1, 1.0])]))
        m2, k2, _ = self._roundtrip(tmp_path, sliced, MaskSet.all_ones(sliced),
                                    TimestepPlan.uniform(1, 5))
        assert m2.head_counts() == [1]
        assert m2.neuron_counts() == [4]
        assert np.array_equal(m2.layers[0].w_o, sliced.layers[0].w_o)

    def test_expected_config_mismatch(self, tmp_path):
        model = tiny_model(0)
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, model, MaskSet.all_ones(model),
                        TimestepPlan.uniform(1, 10))
        other = tiny_config(t_conv=99)
        with pytest.raises(CheckpointError, match="t_conv"):
            load_checkpoint(path, expected_config=other)
        load_checkpoint(path, expected_config=model.config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "spikeprune/v1",\nnot json\n}')
        with pytest.raises(CheckpointError, match="line 2"):
            load_checkpoint(str(path))

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/v2"}))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(str(path))

    def _doc(self, model):
        import os
        import tempfile
        fd, path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        save_checkpoint(path, model, MaskSet.all_ones(model),
                        TimestepPlan.uniform(model.config.num_layers, 4))
        with open(path) as fh:
            doc = json.load(fh)
        os.unlink(path)
        return doc

    def _expect_error(self, tmp_path, doc, pattern):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=pattern):
            load_checkpoint(str(path))

    def test_error_messages_name_the_key_path(self, tmp_path):
        model = tiny_model(0)
        doc = self._doc(model)
        missing = dict(doc)
        del missing["embedding"]
        self._expect_error(tmp_path, missing, "embedding")

        bad_shape = json.loads(json.dumps(doc))
        bad_shape["layers"][0]["WK"] = [[1.0] * 8] * 4
        self._expect_error(tmp_path, bad_shape, r"WK")

        bad_vth = json.loads(json.dumps(doc))
        bad_vth["layers"][0]["vth"] = [0.0] + [1.0] * 5
        self._expect_error(tmp_path, bad_vth, "vth")

        nonfinite = json.loads(json.dumps(doc))
        nonfinite["classifier"]["bias"] = [1.0, None]
        self._expect_error(tmp_path, nonfinite, "classifier.bias")

        bad_plan = json.loads(json.dumps(doc))
        bad_plan["timestep_plan"]["key"] = [0]
        self._expect_error(tmp_path, bad_plan, "timestep_plan.key")

        bad_scale = json.loads(json.dumps(doc))
        bad_scale["input_scale"] = -1.0
        self._expect_error(tmp_path, bad_scale, "input_scale")

    def test_mask_shape_errors(self, tmp_path):
        doc = self._doc(tiny_model(0))
        doc["masks"]["heads"] = [[1.0, 1.0, 1.0]]
        self._expect_error(tmp_path, doc, r"masks.heads\[0\]")
