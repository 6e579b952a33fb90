"""Model construction, masks, and checkpoint files."""

import base64
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest

from conftest import (V1_TAG, reference_load_checkpoint, reference_save_checkpoint,
                      tiny_config, tiny_model, traced)
from hypothesis import given, settings, strategies as st
from spikeprune import (SUBLAYERS, CheckpointError, InvalidInputError, MaskSet,
                        ModelConfig, RandomStream, TimestepPlan, TrainConfig,
                        cli, gen_keyword_task, init_model, load_checkpoint,
                        save_checkpoint, train)
from spikeprune.model import FORMAT_TAG, LayerParams, _model_arrays, slice_columns


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
        ("pca_base", 1.0), ("pca_base", float("nan")), ("initial_vth", float("nan")),
        ("leak", float("nan")), ("variance_threshold", float("nan")),
        ("leak", "0.5"), ("pca_base", None), ("num_layers", True), ("leak", True),
        ("hidden_size", 8.0),
        ("pca_base", float("inf")), ("initial_vth", float("inf")),
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

    @pytest.mark.parametrize("kwargs", [dict(relaxed_heads=[np.full(2, 0.7)]),
                                        dict(relaxed_neurons=[np.full(6, 0.7)])])
    def test_relaxed_values_come_in_pairs(self, kwargs):
        """One relaxed list without the other would reach training half-built."""
        with pytest.raises(InvalidInputError, match="together"):
            MaskSet([np.ones(2)], [np.ones(6)], **kwargs)

    def test_harden_thresholds_at_half(self):
        masks = MaskSet([np.ones(3)], [np.ones(2)],
                        relaxed_heads=[np.array([0.49, 0.5, 0.51])],
                        relaxed_neurons=[np.array([0.1, 0.9])])
        hard = masks.harden()
        assert np.array_equal(hard.heads[0], np.array([0.0, 1.0, 1.0]))
        assert np.array_equal(hard.neurons[0], np.array([0.0, 1.0]))

    def test_constructor_copies_its_inputs(self):
        """Changing a caller's array afterwards does not change the masks."""
        heads, neurons = np.ones(2), np.ones(3)
        rel_h, rel_n = np.full(2, 0.7), np.full(3, 0.7)
        masks = MaskSet([heads], [neurons], [rel_h], [rel_n])
        for arr in (heads, neurons, rel_h, rel_n):
            arr[0] = 0.0
        assert masks.active_counts() == ([2], [3])
        assert masks.relaxed_heads[0][0] == 0.7 and masks.relaxed_neurons[0][0] == 0.7

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


    def test_validate_for_catches_wrong_relaxed_lengths(self):
        model = tiny_model(0)
        masks = MaskSet([np.ones(2)], [np.ones(6)],
                        relaxed_heads=[np.full(3, 0.5)],
                        relaxed_neurons=[np.full(6, 0.5)])
        with pytest.raises(InvalidInputError, match=r"relaxed_heads\[0\]"):
            masks.validate_for(model)
        data = gen_keyword_task(8, 4, 8, RandomStream(1))
        with pytest.raises(InvalidInputError, match=r"relaxed_heads\[0\]"):
            train(model, masks, TimestepPlan.uniform(1, 10), data,
                  TrainConfig(epochs=1))
        with pytest.raises(InvalidInputError, match="relaxed_neurons"):
            MaskSet([np.ones(2)], [np.ones(6)], relaxed_neurons=[np.full(6, 0.5)] * 2
                    ).validate_for(model)


def _saved_doc(model) -> dict:
    """The JSON document save_checkpoint writes for model under all-ones
    masks and a uniform 4-step plan."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ck.json")
        save_checkpoint(path, model, MaskSet.all_ones(model),
                        TimestepPlan.uniform(model.config.num_layers, 4))
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _record(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"shape": list(arr.shape),
            "f8": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decoded(record) -> np.ndarray:
    return np.frombuffer(base64.b64decode(record["f8"]), "<f8").reshape(record["shape"]).copy()


def _redigest(doc: dict) -> dict:
    """doc with "sha256" recomputed over its records' payloads, so that an
    edited array reaches the checks after the digest (a malformed record is
    refused before the digest is compared)."""
    if isinstance(doc.get("arrays"), dict):
        digest = hashlib.sha256()
        for key in sorted(doc["arrays"]):
            try:
                digest.update(base64.b64decode(doc["arrays"][key]["f8"], validate=True))
            except (KeyError, TypeError, ValueError):
                pass
        doc["sha256"] = digest.hexdigest()
    return doc


class TestSliceColumns:
    def test_an_unpruned_slice_shares_every_array(self):
        """All-ones masks cut nothing: every sliced array is a view of the
        model's."""
        model = tiny_model(2, num_layers=2)
        layers = slice_columns(model, MaskSet.all_ones(model).kept_columns(
            model.config.head_dim))
        for layer, sliced in zip(model.layers, layers):
            for f in dataclasses.fields(LayerParams):
                assert np.shares_memory(getattr(sliced, f.name), getattr(layer, f.name))

    def test_an_unpruned_slice_allocates_no_arrays(self):
        """With all-ones masks the traced peak of slice_columns stays under
        5% of the layers' array bytes; it reads 0.014. Copying every array
        an axis cuts read 1.01."""
        model = tiny_model(2, num_layers=2, hidden_size=64, num_heads=4,
                           intermediate_size=128)
        keeps = MaskSet.all_ones(model).kept_columns(model.config.head_dim)
        layer_bytes = sum(getattr(layer, f.name).nbytes for layer in model.layers
                          for f in dataclasses.fields(LayerParams))
        _, _, peak = traced(lambda: slice_columns(model, keeps))
        assert peak < 0.05 * layer_bytes


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

    def test_writes_the_bytes_of_the_pure_python_encoder(self, tmp_path):
        """The one-shot C encoder writes what json.dump's encoder wrote."""
        model = tiny_model(7, num_layers=2)
        masks = MaskSet([np.array([1.0, 0.0]), np.ones(2)], [np.ones(6), np.ones(6)],
                        relaxed_heads=[np.array([0.9, 0.2]), np.full(2, 1 / 3)],
                        relaxed_neurons=[np.linspace(0.1, 0.9, 6), np.full(6, 5e-324)])
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, model, masks, TimestepPlan(np.arange(1, 13).reshape(2, 6)))
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert written == "".join(json.JSONEncoder(sort_keys=True).iterencode(doc))

    def test_absent_relaxed_masks_stay_absent(self, tmp_path):
        model = tiny_model(0)
        _, masks, _ = self._roundtrip(tmp_path, model, MaskSet.all_ones(model),
                                      TimestepPlan.uniform(1, 10))
        assert masks.relaxed_heads is None
        assert masks.relaxed_neurons is None

    def test_a_narrowed_checkpoint_is_refused(self, tmp_path, capsys):
        """Pruning lives in the masks: layers sliced to the kept heads or
        neurons, saved as they are, are refused by the first narrowed key."""
        model = tiny_model(1)  # hidden 8, two heads of width 4, 6 neurons
        for cut, error in [
            (MaskSet([np.array([0.0, 1.0])], [np.ones(6)]),
             "L0.w_k: shape [8, 4], expected [8, 8]"),
            (MaskSet([np.ones(2)], [np.array([1, 0, 1, 0, 1, 1.0])]),
             "L0.w_inter: shape [8, 4], expected [8, 6]"),
        ]:
            layers = slice_columns(model, cut.kept_columns(model.config.head_dim))
            assert all(isinstance(layer, LayerParams) for layer in layers)
            path = str(tmp_path / "narrow.json")
            save_checkpoint(path, dataclasses.replace(model, layers=layers),
                            MaskSet.all_ones(model), TimestepPlan.uniform(1, 5))
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            assert str(err.value) == error
            assert cli.main(["eval", "--checkpoint", path, "--data", "2"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.splitlines() == [f"error: {error}"]

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        """os.replace onto a directory fails; the temp file goes with it."""
        model = tiny_model(0)
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            save_checkpoint(str(tmp_path / "taken"), model, MaskSet.all_ones(model),
                            TimestepPlan.uniform(1, 10))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

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

    def test_v1_file_is_refused_naming_both_tags(self, tmp_path):
        model = tiny_model(0)
        path = str(tmp_path / "v1.json")
        reference_save_checkpoint(path, model, MaskSet.all_ones(model),
                                  TimestepPlan.uniform(1, 4))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).split(": ")[0] == "checkpoint.format"
        assert repr(V1_TAG) in str(err.value) and repr(FORMAT_TAG) in str(err.value)

    def _expect_error(self, tmp_path, doc, pattern=None, redigest=True):
        """doc, with its digest recomputed, is refused with a message matching
        pattern; returns the message's first ": " segment, the rejected key."""
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(_redigest(doc) if redigest else doc))
        with pytest.raises(CheckpointError, match=pattern) as err:
            load_checkpoint(str(path))
        return str(err.value).split(": ")[0]

    @pytest.mark.parametrize("field,value", [
        ("leak", "0.5"), ("num_layers", True), ("pca_base", 1.0),
        ("pca_base", float("inf")), ("initial_vth", float("inf")),
        pytest.param("pca_base", 10 ** 400, id="pca_base-10**400"),
    ])
    def test_bad_config_value_is_a_checkpoint_error(self, tmp_path, field, value):
        doc = _saved_doc(tiny_model(0))
        doc["config"][field] = value
        self._expect_error(tmp_path, doc, f"config: {field}")

    def test_half_relaxed_masks_are_a_checkpoint_error(self, tmp_path):
        doc = _saved_doc(tiny_model(0))
        doc["arrays"]["masks.relaxed_heads[0]"] = _record([0.7, 0.7])
        self._expect_error(tmp_path, doc, "masks: relaxed_heads and relaxed_neurons")

    def test_config_must_be_an_object(self, tmp_path):
        doc = _saved_doc(tiny_model(0))
        doc["config"] = 7
        self._expect_error(tmp_path, doc, "config: expected an object")

    def test_every_config_key_is_required(self, tmp_path):
        """A deleted key with a default does not load as that default."""
        doc = _saved_doc(tiny_model(0))
        del doc["config"]["t_conv"]
        self._expect_error(tmp_path, doc, r"config: .*missing keys \['t_conv'\]")

    def test_error_messages_name_the_key_path(self, tmp_path):
        model = tiny_model(0)
        doc = _saved_doc(model)

        def edited(edit):
            copy = json.loads(json.dumps(doc))
            edit(copy)
            return copy

        for key, edit in [
            ("embedding", lambda c: c["arrays"].pop("embedding")),
            ("L0.w_k", lambda c: c["arrays"].update({"L0.w_k": _record(np.ones((4, 8)))})),
            ("L0.vth", lambda c: c["arrays"].update({"L0.vth": _record([0.0] + [1.0] * 5)})),
            ("cls_b", lambda c: c["arrays"].update({"cls_b": _record([1.0, np.nan])})),
            ("checkpoint.arrays", lambda c: c.update(arrays=[])),
            ("L2.vth", lambda c: c["arrays"].update({"L2.vth": _record(np.ones(6))})),
        ]:
            assert self._expect_error(tmp_path, edited(edit)) == key
        no_digest = edited(lambda c: c.pop("sha256"))
        assert self._expect_error(tmp_path, no_digest, redigest=False) == "checkpoint.sha256"

        bad_plan = json.loads(json.dumps(doc))
        bad_plan["timestep_plan"]["key"] = [0]
        self._expect_error(tmp_path, bad_plan, "timestep_plan.key")

        for scale in (-1.0, 10 ** 400):
            bad_scale = json.loads(json.dumps(doc))
            bad_scale["input_scale"] = scale
            self._expect_error(tmp_path, bad_scale, "input_scale")

        # JSON true is a bool, not the number 1
        bool_scale = json.loads(json.dumps(doc))
        bool_scale["input_scale"] = True
        self._expect_error(tmp_path, bool_scale, "input_scale")

        bool_plan = json.loads(json.dumps(doc))
        bool_plan["timestep_plan"]["key"] = [True] * len(bool_plan["timestep_plan"]["key"])
        self._expect_error(tmp_path, bool_plan, r"timestep_plan\.key\[0\]")

    def test_mask_shape_errors(self, tmp_path):
        doc = _saved_doc(tiny_model(0))
        doc["arrays"]["masks.heads[0]"] = _record([1.0, 1.0, 1.0])
        assert self._expect_error(tmp_path, doc, r"masks.heads\[0\]") == "masks.heads[0]"

    @pytest.mark.parametrize("heads,key,value", [
        (2, "masks.heads[0]", [True, True]),
        (2, "cls_b", [True, False]),
        (1, "masks.heads[0]", {"shape": [True], "f8": _record([1.0])["f8"]}),
        (2, "cls_b", {"shape": [2], "f8": True}),
    ])
    def test_json_bools_are_not_numbers(self, tmp_path, heads, key, value):
        """A mask of true/true or a bias of true/false (the decimal layout's
        spelling) is refused, not read as 1.0 and 0.0; so is a shape [true]
        where the layer's one head would make it [1]."""
        doc = _saved_doc(tiny_model(0, num_heads=heads))
        doc["arrays"][key] = value
        assert self._expect_error(tmp_path, doc) == key

    def test_a_changed_payload_fails_the_digest(self, tmp_path):
        doc = _saved_doc(tiny_model(0))
        weights = _decoded(doc["arrays"]["L0.w_out"])
        weights[0, 0] = np.nextafter(weights[0, 0], np.inf)
        doc["arrays"]["L0.w_out"] = _record(weights)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="^checkpoint.sha256: "):
            load_checkpoint(str(path))


def _same_arrays(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_models(got, want):
    assert got.config == want.config
    assert got.input_scale == want.input_scale
    for name in ("embedding", "cls_w", "cls_b"):
        _same_arrays(getattr(got, name), getattr(want, name))
    assert len(got.layers) == len(want.layers)
    for la, lb in zip(got.layers, want.layers):
        for f in dataclasses.fields(LayerParams):
            _same_arrays(getattr(la, f.name), getattr(lb, f.name))


class TestLayoutTable:
    """Checkpoint loading that walks LayerParams' layout table, against the
    hand-written spikeprune/v1 decimal round trip kept in conftest, the value
    oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_bytes_arrays_as_the_reference(self, data):
        layers = data.draw(st.integers(1, 2))
        heads = data.draw(st.sampled_from([1, 2, 4]))
        inter = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 1000))
        model = tiny_model(seed, num_layers=layers, num_heads=heads,
                           intermediate_size=inter)
        # non-trivial biases, norm affines and thresholds (vth stays > 0)
        stream = RandomStream(seed + 1)
        for layer in model.layers:
            for f in dataclasses.fields(LayerParams):
                value = getattr(layer, f.name)
                setattr(layer, f.name, value + stream.uniform(value.shape))
        # a signed zero and the smallest subnormal in every array (vth stays > 0)
        for key, value in _model_arrays(model).items():
            value.flat[-1] = 5e-324
            if not key.endswith(".vth"):
                value.flat[0] = -0.0

        def binary(n):
            m = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -0.0]),
                                            min_size=n, max_size=n)))
            m[data.draw(st.integers(0, n - 1))] = 1.0
            return m

        def relaxed(counts, present=False):
            if not (present or data.draw(st.booleans())):
                return None
            values = st.one_of(st.sampled_from([-0.0, 5e-324]), st.floats(0.0, 1.0))
            return [np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
                    for n in counts]

        hc, nc = model.head_counts(), model.neuron_counts()
        rel_h, rel_n = relaxed(hc), relaxed(nc)
        if (rel_h is None) != (rel_n is None):
            # masks carry both relaxed lists or neither: refuse, then draw the other
            with pytest.raises(InvalidInputError, match="together"):
                MaskSet([np.ones(h) for h in hc], [np.ones(n) for n in nc], rel_h, rel_n)
            rel_h = relaxed(hc, present=True) if rel_h is None else rel_h
            rel_n = relaxed(nc, present=True) if rel_n is None else rel_n
        masks = MaskSet([binary(h) for h in hc], [binary(n) for n in nc], rel_h, rel_n)
        steps = data.draw(st.lists(st.integers(1, 60), min_size=6 * layers,
                                   max_size=6 * layers))
        plan = TimestepPlan(np.array(steps, dtype=np.int64).reshape(layers, 6))
        with tempfile.TemporaryDirectory() as root:
            got_path = os.path.join(root, "got.json")
            want_path = os.path.join(root, "want.json")
            save_checkpoint(got_path, model, masks, plan)
            reference_save_checkpoint(want_path, model, masks, plan)
            m_got, k_got, p_got = load_checkpoint(got_path)
            m_want, k_want, p_want = reference_load_checkpoint(want_path)
        _same_models(m_got, m_want)
        _same_models(m_got, model)
        assert p_got == p_want == plan
        for group in ("heads", "neurons", "relaxed_heads", "relaxed_neurons"):
            got, want = getattr(k_got, group), getattr(k_want, group)
            assert (got is None) == (want is None) == (getattr(masks, group) is None)
            for a, b in zip(got or [], want or []):
                _same_arrays(a, b)

    # Each case replays one corruption of a decimal-layout (v1) layer on the
    # v2 records; the first column is the v1 key path that case was refused
    # at, the last the array key the v2 error must name.
    @pytest.mark.parametrize("key_path,corrupt,key", [
        ("layers[0].biases.k", lambda a: a.pop("L0.b_k"), "L0.b_k"),
        ("layers[0].ln", lambda a: [a.pop(f"L0.ln{i}_{p}") for i in (1, 2)
                                    for p in ("scale", "shift")], "L0.ln1_scale"),
        ("layers[0].biases", lambda a: a.update({"L0.b_k": [1.0]}), "L0.b_k"),
        ("layers[0].vth", lambda a: a.pop("L0.vth"), "L0.vth"),
        ("layers[0].WK", lambda a: a.update({"L0.w_k": 5}), "L0.w_k"),
        ("layers[0].WK", lambda a: a.update({"L0.w_k": _record(np.ones((8, 3)))}), "L0.w_k"),
        ("layers[0].WK", lambda a: a.update({"L0.w_k": _record(np.ones((8, 12)))}), "L0.w_k"),
        ("layers[0].Winter", lambda a: a.update({"L0.w_inter": _record(np.ones((8, 0)))}),
         "L0.w_inter"),
        ("layers[0].Winter", lambda a: a.update({"L0.w_inter": _record(np.ones((8, 7)))}),
         "L0.w_inter"),
        ("layers[0].WO", lambda a: a.update({"L0.w_o": _record(np.ones((4, 8)))}), "L0.w_o"),
        ("layers[0].Wout", lambda a: a.update({"L0.w_out": _record(np.ones((5, 8)))}),
         "L0.w_out"),
        ("layers[0].biases.out", lambda a: a["L0.b_out"].update(f8="x"), "L0.b_out"),
        ("layers[0].ln.shift2", lambda a: a.update(
            {"L0.ln2_shift": _record([np.nan] + [0.5] * 7)}), "L0.ln2_shift"),
        ("layers[0].vth", lambda a: a.update({"L0.vth": _record([1, 1, 0, 1, 1, 1])}),
         "L0.vth"),
    ])
    def test_layer_errors_name_the_key_path_as_before(self, tmp_path, key_path,
                                                      corrupt, key):
        doc = _saved_doc(tiny_model(0))
        corrupt(doc["arrays"])
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            json.dump(_redigest(doc), fh)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).split(": ")[0] == key

    def test_width_probe_rejects_a_json_object(self, tmp_path):
        """A layer matrix stored as some other object is refused by its key,
        not a KeyError."""
        doc = _saved_doc(tiny_model(0))
        doc["arrays"]["L0.w_k"] = {"0": [1.0] * 8}
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            json.dump(_redigest(doc), fh)
        with pytest.raises(CheckpointError, match=r"^L0\.w_k: expected an object with keys"):
            load_checkpoint(path)


@functools.lru_cache(maxsize=None)
def _fuzz_base() -> bytes:
    """A saved tiny_model checkpoint with one pruned head, relaxed masks and
    a mixed plan, so every kind of record is present."""
    model = tiny_model(3)
    masks = MaskSet([np.array([1.0, 0.0])], [np.array([1, 1, 0, 1, 1, 1.0])],
                    relaxed_heads=[np.array([0.9, -0.0])],
                    relaxed_neurons=[np.array([0.6, 0.7, 5e-324, 0.8, 1.0, 0.55])])
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ck.json")
        save_checkpoint(path, model, masks, TimestepPlan(np.arange(1, 7).reshape(1, 6)))
        with open(path, "rb") as fh:
            return fh.read()


def _arrays_of(loaded) -> dict:
    model, masks, _ = loaded
    arrays = dict(_model_arrays(model))
    for group in ("heads", "neurons", "relaxed_heads", "relaxed_neurons"):
        arrays.update((f"masks.{group}[{i}]", m) for i, m in enumerate(getattr(masks, group) or ()))
    return arrays


class TestCheckpointFuzz:
    """Damaged checkpoints: load_checkpoint raises CheckpointError and nothing
    else, and a command reading one exits 1 with a single `error:` line."""

    def _load(self, data: bytes):
        """What loading data gives: (model, masks, plan), or the CheckpointError."""
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "ck.json")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                return load_checkpoint(path)
            except CheckpointError as e:
                err = e
            out, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
                rc = cli.main(["eval", "--checkpoint", path, "--data", "2"])
        assert rc == 1 and out.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0] == f"error: {err}"
        return err

    def _doc_bytes(self, doc: dict) -> bytes:
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cut=st.integers(0, 10 ** 9))
    def test_truncated_at_any_byte(self, cut):
        base = _fuzz_base()
        assert isinstance(self._load(base[:cut % len(base)]), CheckpointError)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(where=st.integers(0, 10 ** 9), bit=st.integers(0, 7))
    def test_any_flipped_bit(self, where, bit):
        """A flip either is refused or leaves every array's bytes as saved; a
        flip inside a payload that still decodes to other bytes is the
        digest's to catch."""
        base = _fuzz_base()
        pos = where % len(base)
        flipped = bytearray(base)
        flipped[pos] ^= 1 << bit
        got = self._load(bytes(flipped))
        for span in re.finditer(rb'"f8": "([A-Za-z0-9+/=]*)"', base):
            if span.start(1) <= pos < span.end(1):
                try:
                    changed = (base64.b64decode(bytes(flipped[span.start(1):span.end(1)]),
                                                validate=True)
                               != base64.b64decode(span.group(1)))
                except ValueError:
                    changed = False     # not base64 any more: any CheckpointError will do
                if changed:
                    assert str(got).startswith("checkpoint.sha256: "), str(got)
        if not isinstance(got, CheckpointError):
            want = _arrays_of(self._load(base))
            have = _arrays_of(got)
            assert have.keys() == want.keys()
            for key in want:
                assert have[key].tobytes() == want[key].tobytes(), key

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_deleted_key(self, data):
        """With the digest left as saved or recomputed, a deleted key is refused."""
        doc = json.loads(_fuzz_base())
        paths = [(k,) for k in doc]
        paths += [(k, sub) for k in ("config", "timestep_plan", "arrays") for sub in doc[k]]
        paths += [("arrays", k, field) for k in doc["arrays"] for field in ("shape", "f8")]
        path = data.draw(st.sampled_from(paths))
        node = doc
        for part in path[:-1]:
            node = node[part]
        del node[path[-1]]
        if path != ("sha256",) and data.draw(st.booleans()):
            _redigest(doc)
        assert isinstance(self._load(self._doc_bytes(doc)), CheckpointError)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_record_lying_about_its_shape(self, data):
        doc = json.loads(_fuzz_base())
        key = data.draw(st.sampled_from(sorted(doc["arrays"])))
        true_shape = doc["arrays"][key]["shape"]
        shape = data.draw(st.lists(st.integers(0, 64), max_size=3).filter(
            lambda s: s != true_shape))
        doc["arrays"][key]["shape"] = shape
        err = self._load(self._doc_bytes(doc))
        assert isinstance(err, CheckpointError)
        assert str(err).split(": ")[0] == key
