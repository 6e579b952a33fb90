"""Fisher-times-rate importance scores and their independent checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_backward, tiny_model, token_batch, traced
from spikeprune import (InvalidInputError, MaskSet, RandomStream,
                        asr_factors, combine, fisher_diagonal,
                        rate_proxy_forward, run_unrolled)
from spikeprune import AsrTrace, Dataset, ImportanceScores
from spikeprune import autodiff as ad
from spikeprune.cli import _importance_scores
from spikeprune.engine import cross_entropy, proxy_graph
from spikeprune.model import _model_arrays
from spikeprune.numerics import finite_difference_gradient


def _loss_of_masks(model, tokens, labels, head_vals, neuron_vals):
    """Mean CE at explicit (possibly fractional) mask values.

    Only the forward value is used, so finite differences of this function
    are independent evidence for the mask gradients fisher_diagonal squares.
    """
    params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
    hm = [ad.Var(np.asarray(h, dtype=float)) for h in head_vals]
    nm = [ad.Var(np.asarray(n, dtype=float)) for n in neuron_vals]
    logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                               tokens, hm, nm)
    return float(cross_entropy(logits, labels).value)


class TestFisherDiagonal:
    def test_matches_squared_finite_difference_gradient(self):
        """Fisher entries are (dL/dm)^2 at m=1; check against central FD."""
        model = tiny_model(3)
        stream = RandomStream(11)
        tokens, labels = token_batch(model.config, 4, stream)
        head_f, neuron_f = fisher_diagonal(model, [(tokens, labels)])

        def loss_at(flat):
            hv = [flat[:2]]
            nv = [flat[2:]]
            return _loss_of_masks(model, tokens, labels, hv, nv)

        x0 = np.ones(2 + 6)
        grad = finite_difference_gradient(loss_at, x0, eps=1e-6)
        expected = grad ** 2
        got = np.concatenate([head_f[0], neuron_f[0]])
        assert np.allclose(got, expected, rtol=1e-4, atol=1e-10)

    def test_mean_over_batches(self):
        model = tiny_model(4)
        s = RandomStream(7)
        b1 = token_batch(model.config, 3, s.derive(0))
        b2 = token_batch(model.config, 3, s.derive(1))
        h1, n1 = fisher_diagonal(model, [b1])
        h2, n2 = fisher_diagonal(model, [b2])
        hb, nb = fisher_diagonal(model, [b1, b2])
        assert np.allclose(hb[0], (h1[0] + h2[0]) / 2)
        assert np.allclose(nb[0], (n1[0] + n2[0]) / 2)

    def test_nonnegative_and_shaped(self):
        model = tiny_model(5, num_layers=2)
        tokens, labels = token_batch(model.config, 4, RandomStream(2))
        head_f, neuron_f = fisher_diagonal(model, [(tokens, labels)])
        assert len(head_f) == 2 and len(neuron_f) == 2
        for h, n in zip(head_f, neuron_f):
            assert h.shape == (2,) and n.shape == (6,)
            assert (h >= 0).all() and (n >= 0).all()

    def test_mask_grads_equal_the_reference_sweep(self):
        """Weights as constants change no byte of the squared mask grads:
        the reference differentiates every weight too, as a graph leaf."""
        model = tiny_model(6, num_layers=2)
        s = RandomStream(13)
        batches = [token_batch(model.config, 4, s.derive(i)) for i in range(3)]
        head_acc = [np.zeros(c) for c in model.head_counts()]
        neuron_acc = [np.zeros(c) for c in model.neuron_counts()]
        for tokens, labels in batches:
            hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
            nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]
            params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
            logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                                       tokens, hm, nm)
            reference_backward(cross_entropy(logits, labels))
            for l in range(2):
                head_acc[l] += hm[l].grad ** 2
                neuron_acc[l] += nm[l].grad ** 2
        head_f, neuron_f = fisher_diagonal(model, batches)
        for got, acc in zip(head_f + neuron_f, head_acc + neuron_acc):
            assert got.tobytes() == (acc * (1.0 / len(batches))).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), layers=st.integers(1, 4),
           sizes=st.lists(st.sampled_from([1, 2, 5]), min_size=1, max_size=3))
    def test_layer_sweeps_equal_one_reference_sweep(self, seed, layers, sizes):
        """Sweeping one layer's graph at a time, each seeded by the gradient
        the layer above handed down, squares to the mask gradients of one
        reference sweep over the whole graph, byte for byte."""
        model = tiny_model(seed, num_layers=layers)
        s = RandomStream(seed + 1)
        batches = [token_batch(model.config, b, s.derive(i)) for i, b in enumerate(sizes)]
        head_acc = [np.zeros(c) for c in model.head_counts()]
        neuron_acc = [np.zeros(c) for c in model.neuron_counts()]
        for tokens, labels in batches:
            hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
            nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]
            params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
            logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                                       tokens, hm, nm)
            reference_backward(cross_entropy(logits, labels))
            for l in range(layers):
                head_acc[l] += hm[l].grad ** 2
                neuron_acc[l] += nm[l].grad ** 2
        head_f, neuron_f = fisher_diagonal(model, batches)
        for got, acc in zip(head_f + neuron_f, head_acc + neuron_acc):
            assert got.tobytes() == (acc * (1.0 / len(batches))).tobytes()

    def test_peak_is_a_fraction_of_the_whole_graph_tape(self):
        """Fisher holds one layer's tape at a time, plus every layer's input
        rates: on 4 layers its traced peak stays under half of one
        whole-graph proxy_graph's tape, before any backward; it reads 0.34.
        A sweep of the whole graph held that tape and more: 1.08."""
        model = tiny_model(9, num_layers=4, hidden_size=32, num_heads=4,
                           intermediate_size=64, seq_len=16, vocab_size=12)
        tokens, labels = token_batch(model.config, 16, RandomStream(19))
        params = {n: ad.Var(a, requires_grad=False) for n, a in _model_arrays(model).items()}
        hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
        nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]
        _, tape, _ = traced(lambda: proxy_graph(params, model.config, model.input_scale,
                                                tokens, hm, nm))
        _, _, peak = traced(lambda: fisher_diagonal(model, [(tokens, labels)]))
        assert peak < 0.5 * tape

    def test_backward_peak_is_a_fraction_of_the_forward_tape(self):
        """Fisher's backward frees each interior gradient once passed on, so
        what it adds to the traced memory at its peak stays under 0.3 of
        the forward tape's own size. Keeping every adjoint until the graph
        died read 0.64 on this model."""
        model = tiny_model(9, num_layers=2, hidden_size=32, num_heads=4,
                           intermediate_size=64, seq_len=16, vocab_size=12)
        tokens, labels = token_batch(model.config, 16, RandomStream(19))
        params = {n: ad.Var(a, requires_grad=False) for n, a in _model_arrays(model).items()}
        hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
        nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]

        def sweep():
            loss, tape, _ = traced(lambda: cross_entropy(proxy_graph(
                params, model.config, model.input_scale, tokens, hm, nm)[0], labels))
            _, _, peak = traced(lambda: ad.backward(loss))
            return tape, peak

        (tape, peak), _, _ = traced(sweep)
        assert all(m.grad is not None for m in hm + nm)
        assert peak < 0.3 * tape

    def test_forward_tape_bytes(self):
        """Tripwire on what one proxy_graph holds in memory: with each rate,
        linear map and layer norm one node, a batch of 16 on this model
        keeps about 4.1 MiB of arrays (counted by hand), under the 4.5 MiB
        bound. Chains of two and twelve nodes kept about 5.8 MiB."""
        model = tiny_model(9, num_layers=2, hidden_size=32, num_heads=4,
                           intermediate_size=64, seq_len=16, vocab_size=12)
        tokens, labels = token_batch(model.config, 16, RandomStream(19))
        params = {n: ad.Var(a, requires_grad=False) for n, a in _model_arrays(model).items()}
        hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
        nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]
        (logits, _, _), tape, _ = traced(lambda: proxy_graph(
            params, model.config, model.input_scale, tokens, hm, nm))
        assert logits.shape == (16, model.config.num_classes)
        assert tape < 4.5 * 2 ** 20

    def test_empty_calibration_rejected(self):
        model = tiny_model(0)
        with pytest.raises(InvalidInputError):
            fisher_diagonal(model, [])


class TestAsrFactors:
    def test_synthetic_traces_recover_per_unit_means(self):
        class T:
            def __init__(self, name, converged):
                self.name = name
                self.converged = np.asarray(converged, dtype=float)

        # N=2, hd=2, 2 heads; attn flat layout is (N, h*hd)
        attn = np.array([[0.1, 0.3, 0.5, 0.7],
                         [0.2, 0.4, 0.6, 0.8]]).ravel()
        inter = np.array([[0.0, 1.0, 0.25],
                          [0.5, 1.0, 0.75]]).ravel()
        traces = [T("L0.attn", attn), T("L0.inter", inter)]
        cfg = tiny_model(0, hidden_size=4, num_heads=2, intermediate_size=3,
                         seq_len=2).config
        heads, neurons = asr_factors(traces, cfg)
        assert np.allclose(heads[0], [0.25, 0.65])
        assert np.allclose(neurons[0], [0.25, 1.0, 0.5])

    def test_silent_unit_scores_zero(self):
        model = tiny_model(1)
        nm = np.ones(6)
        nm[3] = 0.0
        masks = MaskSet([np.ones(2)], [nm])
        tokens, _ = token_batch(model.config, 3, RandomStream(5))
        _, traces = run_unrolled(model, masks, tokens, 30)
        heads, neurons = asr_factors(traces, model.config)
        assert neurons[0][3] == 0.0
        assert (neurons[0][:3] > 0).any()

    def test_rates_bounded(self):
        model = tiny_model(2, num_layers=2)
        tokens, _ = token_batch(model.config, 4, RandomStream(6))
        _, traces = run_unrolled(model, MaskSet.all_ones(model), tokens, 20)
        heads, neurons = asr_factors(traces, model.config)
        for arr in heads + neurons:
            assert (arr >= 0).all() and (arr <= 1).all()

    def test_missing_traces_rejected(self):
        model = tiny_model(0)
        with pytest.raises(InvalidInputError):
            asr_factors([], model.config)
        attn = AsrTrace("L0.attn", np.ones((1, 32)))
        with pytest.raises(InvalidInputError, match="^no L0.inter trace$"):
            asr_factors([attn], model.config)

    def test_bad_width_rejected(self):
        cfg = tiny_model(0).config   # N=4, 2 heads of hd=4, 6 neurons
        for attn, inter, name in (
                (7, 24, "L0.attn"),       # not a whole number of heads
                (16, 24, "L0.attn"),      # a whole number, but not the config's 2 heads
                (32, 22, "L0.inter"),     # not a multiple of seq_len
                (32, 20, "L0.inter")):    # a whole number, but not the config's 6 neurons
            traces = [AsrTrace("L0.attn", np.ones((1, attn))),
                      AsrTrace("L0.inter", np.ones((1, inter)))]
            with pytest.raises(InvalidInputError, match=f"^{name} trace size"):
                asr_factors(traces, cfg)


class TestCombine:
    def test_elementwise_product(self):
        fisher = ([np.array([1.0, 2.0])], [np.array([3.0, 0.0, 5.0])])
        asr = ([np.array([0.5, 0.5])], [np.array([1.0, 9.0, 0.2])])
        scores = combine(fisher, asr)
        assert np.allclose(scores.head_scores[0], [0.5, 1.0])
        assert np.allclose(scores.neuron_scores[0], [3.0, 0.0, 1.0])
        assert np.allclose(scores.head_fisher[0], [1.0, 2.0])
        assert np.allclose(scores.neuron_asr[0], [1.0, 9.0, 0.2])

    def test_zero_rate_kills_high_fisher(self):
        scores = combine(([np.array([100.0])], [np.array([7.0])]),
                         ([np.array([0.0])], [np.array([1.0])]))
        assert scores.head_scores[0][0] == 0.0

    def test_layer_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            combine(([np.ones(2)], [np.ones(3)]),
                    ([np.ones(2), np.ones(2)], [np.ones(3), np.ones(3)]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="head factor"):
            combine(([np.ones(2)], [np.ones(3)]),
                    ([np.ones(4)], [np.ones(3)]))
        with pytest.raises(InvalidInputError, match="neuron factor"):
            combine(([np.ones(2)], [np.ones(3)]),
                    ([np.ones(2)], [np.ones(5)]))


def test_scores_from_the_converged_row_alone_are_the_same():
    """_importance_scores' calibration run keeps only the converged rows by
    default; the scores equal those of an every-step run byte for byte."""
    model = tiny_model(6, num_layers=2)
    masks = MaskSet([np.array([1.0, 1.0]), np.array([0.0, 1.0])],
                    [np.array([1, 1, 0, 1, 1, 1.0]), np.array([0, 1, 0, 0, 1, 0.0])])
    tokens, labels = token_batch(model.config, 9, RandomStream(7))
    calib = Dataset(tokens, labels)
    got, got_traces = _importance_scores(model, masks, calib, 4)
    want, want_traces = _importance_scores(model, masks, calib, 4, converged_only=False)
    for field in dataclasses.fields(ImportanceScores):
        for a, b in zip(getattr(got, field.name), getattr(want, field.name)):
            assert a.tobytes() == b.tobytes(), field.name
    assert all(len(t.asr) == 1 for t in got_traces)
    assert all(len(t.asr) == model.config.t_conv for t in want_traces)
    for a, b in zip(got_traces, want_traces):
        assert a.converged.tobytes() == b.converged.tobytes()
