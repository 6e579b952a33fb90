"""LIF dynamics, the two simulators, the rate proxy, and their agreement."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from types import SimpleNamespace

from conftest import (reference_run_sequential, reference_run_unrolled, tiny_config,
                      tiny_model, token_batch)
from spikeprune import (InvalidInputError, MaskSet, RandomStream, TimestepPlan,
                        evaluate_proxy, fisher_diagonal, init_model,
                        rate_proxy_forward, run_sequential, run_unrolled)
from spikeprune import SUBLAYERS, engine, numerics
from spikeprune import autodiff as ad
from spikeprune.engine import LifState, cross_entropy, lif_step, proxy_graph
from spikeprune.model import _model_arrays


def _simulate_rate(current: float, v_th: float, steps: int, leak: float = 1.0):
    state = LifState.zeros((1,))
    total = 0.0
    cur = np.array([current])
    for _ in range(steps):
        state, s = lif_step(state, cur, v_th, leak)
        total += float(s[0])
    return total / steps


class TestLifStep:
    def test_half_threshold_current_fires_half_the_time(self):
        assert _simulate_rate(0.5, 1.0, 200) == 0.5

    def test_current_at_threshold_fires_every_step(self):
        assert _simulate_rate(1.0, 1.0, 50) == 1.0
        assert _simulate_rate(1.7, 1.0, 50) == 1.0

    def test_non_positive_current_never_fires(self):
        assert _simulate_rate(0.0, 1.0, 50) == 0.0
        assert _simulate_rate(-0.3, 1.0, 50) == 0.0

    def test_three_quarter_current_worked_sequence(self):
        """I=0.75, vth=1: spikes land at steps 2,3,4 then every 4/3 steps."""
        state = LifState.zeros((1,))
        cur = np.array([0.75])
        seen = []
        for _ in range(8):
            state, s = lif_step(state, cur, 1.0, 1.0)
            seen.append(int(s[0]))
        assert seen == [0, 1, 1, 1, 0, 1, 1, 1]
        assert _simulate_rate(0.75, 1.0, 400) == 0.75

    def test_subtractive_reset_arithmetic(self):
        state = LifState.zeros((1,))
        state, s = lif_step(state, np.array([2.5]), 1.0, 1.0)
        assert s[0] == 1.0 and state.membrane[0] == 2.5
        # next step subtracts one threshold for the spike just emitted
        state, s = lif_step(state, np.array([0.0]), 1.0, 1.0)
        assert state.membrane[0] == 1.5 and s[0] == 1.0

    def test_membrane_exactly_at_threshold_fires(self):
        state, s = lif_step(LifState.zeros((1,)), np.array([1.0]), 1.0, 1.0)
        assert s[0] == 1.0

    def test_constant_current_fires_floor_t_times(self):
        """Membrane from 0, leak 1, vth 1, I = k/64: floor(t * I) spikes in t
        steps, so a short run's rate sits up to 1/t below I, never above."""
        k = np.arange(65)
        state, counts = LifState.zeros(k.shape), np.zeros(k.shape)
        for t in range(1, 17):
            state, s = lif_step(state, k / 64, 1.0, 1.0)
            counts += s
            assert np.array_equal(counts, (t * k) // 64), t

    def test_leak_decays_memory(self):
        # leak 0.5: u_t = 0.5 u_{t-1} + 0.4 converges to 0.8, never fires
        assert _simulate_rate(0.4, 1.0, 100, leak=0.5) == 0.0
        # the same current fires with full memory
        assert _simulate_rate(0.4, 1.0, 100, leak=1.0) == pytest.approx(0.4, abs=0.01)


class TestTimestepPlan:
    def test_uniform_and_accessors(self):
        plan = TimestepPlan.uniform(2, 7)
        assert plan.num_layers == 2
        assert plan.get(1, "inter") == 7
        assert plan.mean_timesteps() == 7.0
        assert plan.max_timesteps() == 7

    def test_flat_is_trace_order(self):
        plan = TimestepPlan(np.arange(1, 13).reshape(2, 6))
        assert plan.flat().tolist() == list(range(1, 13))
        assert plan.get(0, "key") == 1
        assert plan.get(1, "output") == 12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TimestepPlan(np.ones((2, 5), dtype=np.int64))
        with pytest.raises(InvalidInputError):
            TimestepPlan(np.ones((2, 6)))          # float entries
        with pytest.raises(InvalidInputError):
            TimestepPlan(np.zeros((2, 6), dtype=np.int64))

    def test_copy_and_eq(self):
        plan = TimestepPlan.uniform(1, 4)
        other = plan.copy()
        assert plan == other
        other.steps[0, 0] = 2
        assert plan != other


class TestRunUnrolled:
    def test_zeroed_projection_silences_its_sublayer(self):
        model = tiny_model(0)
        model.layers[0].w_k[:] = 0.0
        model.layers[0].b_k[:] = 0.0
        tokens, _ = token_batch(model.config, 2, RandomStream(1))
        _, traces = run_unrolled(model, MaskSet.all_ones(model), tokens, 6)
        key = {t.name: t for t in traces}["L0.key"]
        assert np.array_equal(key.converged, np.zeros_like(key.converged))
        assert np.array_equal(key.asr, np.zeros_like(key.asr))

    def test_trace_names_and_shapes(self):
        model = tiny_model(0, num_layers=2)
        tokens, _ = token_batch(model.config, 3, RandomStream(2))
        logits, traces = run_unrolled(model, MaskSet.all_ones(model), tokens, 5)
        assert logits.shape == (3, 2)
        names = [t.name for t in traces]
        assert names[:6] == ["L0.key", "L0.value", "L0.attn", "L0.fc",
                             "L0.inter", "L0.output"]
        assert names[6] == "L1.key"
        assert traces[0].asr.shape == (5, 4 * 8)
        assert all(0.0 <= t.converged.min() and t.converged.max() <= 1.0
                   for t in traces)

    def test_masked_head_is_silent_downstream(self):
        model = tiny_model(1)
        masks = MaskSet([np.array([0.0, 1.0])], [np.ones(6)])
        tokens, _ = token_batch(model.config, 2, RandomStream(4))
        _, traces = run_unrolled(model, masks, tokens, 8)
        by_name = {t.name: t for t in traces}
        for name in ("L0.key", "L0.value", "L0.attn"):
            per_head = by_name[name].asr.reshape(8, model.config.seq_len, 2, 4)
            assert np.array_equal(per_head[:, :, 0, :], np.zeros((8, 4, 4))), name

    # every path from token ids to rates: (model, masks, tokens) -> result
    ENTRY_POINTS = {
        "run_unrolled": lambda m, k, t: run_unrolled(m, k, t, 5),
        "run_sequential": lambda m, k, t: run_sequential(
            m, k, TimestepPlan.uniform(1, 3), t, RandomStream(0)),
        "rate_proxy_forward": rate_proxy_forward,
        "proxy_graph": lambda m, k, t: proxy_graph(
            {n: ad.Var(a) for n, a in _model_arrays(m).items()}, m.config,
            m.input_scale, t, k.heads, k.neurons),
        "evaluate_proxy": lambda m, k, t: evaluate_proxy(
            m, k, SimpleNamespace(tokens=t, labels=np.zeros(len(t), dtype=np.int64))),
        "fisher_diagonal": lambda m, k, t: fisher_diagonal(
            m, [(t, np.zeros(len(t), dtype=np.int64))]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_input_validation(self, entry):
        model = tiny_model(0)
        masks = MaskSet.all_ones(model)
        run = self.ENTRY_POINTS[entry]
        with pytest.raises(InvalidInputError):
            run(model, masks, np.zeros((2, 3), dtype=np.int64))
        for token in (99, model.config.vocab_size, -1):
            bad = np.zeros((2, 4), dtype=np.int64)
            bad[0, 1] = token
            with pytest.raises(InvalidInputError):
                run(model, masks, bad)
        if entry == "run_unrolled":
            with pytest.raises(InvalidInputError):
                run_unrolled(model, masks, np.zeros((2, 4), dtype=np.int64), 0)


class TestProxyAgreement:
    def test_unrolled_converges_to_the_rate_proxy(self):
        """Cumulative simulated rates approach the fixed point as T grows."""
        model = tiny_model(6)
        masks = MaskSet.all_ones(model)
        tokens, _ = token_batch(model.config, 4, RandomStream(5))
        _, rates = rate_proxy_forward(model, masks, tokens)
        _, traces = run_unrolled(model, masks, tokens, 2000)
        worst = 0.0
        for tr in traces:
            target = rates[tr.name].mean(axis=0).ravel()
            worst = max(worst, float(np.abs(tr.converged - target).max()))
        assert worst < 0.02

    def test_sequential_tracks_the_proxy_at_long_budgets(self):
        model = tiny_model(6)
        masks = MaskSet.all_ones(model)
        tokens, _ = token_batch(model.config, 4, RandomStream(5))
        logits_p, _ = rate_proxy_forward(model, masks, tokens)
        plan = TimestepPlan.uniform(1, 1500)
        logits_s, _ = run_sequential(model, masks, plan, tokens, RandomStream(77))
        assert np.abs(logits_s - logits_p).max() < 0.05


def _without_pruned_units(trace, masks: MaskSet, config):
    """A masked run's trace rows with the units the sliced model lacks set
    to 0.0: a pruned head's key, value and attn columns, a pruned neuron's
    inter column."""
    layer, name = trace.name[1:].split(".")
    asr = trace.asr.copy()
    if name in ("key", "value", "attn"):
        per_head = asr.reshape(len(asr), config.seq_len, config.num_heads, config.head_dim)
        per_head[:, :, masks.heads[int(layer)] == 0.0, :] = 0.0
    elif name == "inter":
        per_neuron = asr.reshape(len(asr), config.seq_len, config.intermediate_size)
        per_neuron[:, :, masks.neurons[int(layer)] == 0.0] = 0.0
    return asr


class TestRunUnrolledCompressed:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sliced_run_equals_the_masked_reference(self, data):
        """Logits and kept units of the sliced model equal the masked run."""
        layers = data.draw(st.integers(1, 2))
        leak = data.draw(st.sampled_from([1.0, 0.9]))
        seed = data.draw(st.integers(0, 1000))
        batch = data.draw(st.integers(1, 5))
        timesteps = data.draw(st.integers(1, 12))
        model = tiny_model(seed, num_layers=layers, leak=leak)

        def binary(n):
            return np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                               min_size=n, max_size=n)))

        masks = MaskSet([binary(2) for _ in range(layers)],
                        [binary(6) for _ in range(layers)])
        tokens, _ = token_batch(model.config, batch, RandomStream(seed + 1))
        logits, traces = run_unrolled(model, masks, tokens, timesteps)
        want_logits, want_traces = reference_run_unrolled(model, masks, tokens, timesteps)
        assert logits.tobytes() == want_logits.tobytes()
        assert [tr.name for tr in traces] == [tr.name for tr in want_traces]
        for got, want in zip(traces, want_traces):
            assert got.asr.shape == want.asr.shape
            if got.name.endswith((".key", ".value")):
                want_asr = _without_pruned_units(want, masks, model.config)
            else:
                want_asr = want.asr
            assert got.asr.tobytes() == want_asr.tobytes(), got.name

    def test_both_simulators_drop_the_same_columns(self):
        """Pruned units read exactly 0 in every trace of both simulators,
        in the columns MaskSet.kept_columns drops."""
        model = tiny_model(5, num_layers=2)
        masks = MaskSet([np.array([0.0, 1.0]), np.array([1.0, 0.0])],
                        [np.array([1, 0, 1, 1, 0, 1.0]), np.array([0, 1, 1, 1, 1, 0.0])])
        cfg = model.config
        tokens, _ = token_batch(cfg, 3, RandomStream(18))
        _, unrolled = run_unrolled(model, masks, tokens, 10)
        _, sequential = run_sequential(model, masks, TimestepPlan.uniform(2, 10), tokens,
                                       RandomStream(19))
        keeps = masks.kept_columns(cfg.head_dim)
        axes = {"key": "h", "value": "h", "attn": "h", "inter": "n"}
        for a, b in zip(unrolled, sequential):
            layer, name = a.name[1:].split(".")
            if name not in axes:
                continue
            dropped = ~keeps[int(layer)][axes[name]]
            for trace in (a, b):
                cols = trace.asr.reshape(len(trace.asr), cfg.seq_len, dropped.size)
                assert np.array_equal(cols[:, :, dropped],
                                      np.zeros((len(trace.asr), cfg.seq_len, dropped.sum()))), \
                    trace.name
        key = {t.name: t for t in unrolled}["L0.key"]
        assert key.asr.reshape(10, cfg.seq_len, 2, cfg.head_dim)[:, :, 1].any()


class TestRunSequential:
    def test_deterministic_given_stream(self):
        model = tiny_model(2)
        masks = MaskSet.all_ones(model)
        plan = TimestepPlan.uniform(1, 12)
        tokens, _ = token_batch(model.config, 3, RandomStream(6))
        a, _ = run_sequential(model, masks, plan, tokens, RandomStream(42))
        b, _ = run_sequential(model, masks, plan, tokens, RandomStream(42))
        assert np.array_equal(a, b)

    def test_sample_draws_depend_only_on_position(self):
        """Row i of a batch uses stream.derive(i), not its neighbors."""
        model = tiny_model(2)
        masks = MaskSet.all_ones(model)
        plan = TimestepPlan.uniform(1, 10)
        tokens, _ = token_batch(model.config, 3, RandomStream(7))
        full, _ = run_sequential(model, masks, plan, tokens, RandomStream(5))
        swapped = tokens[[0, 2, 1]]
        other, _ = run_sequential(model, masks, plan, swapped, RandomStream(5))
        assert np.array_equal(full[0], other[0])
        assert not np.array_equal(full[1], other[1])

    def test_split_batches_draw_as_the_whole_batch(self):
        """Sample i of a batch starting at first uses stream.derive(first + i),
        so any split of a dataset gives each example the same logits."""
        model = tiny_model(2)
        masks = MaskSet.all_ones(model)
        plan = TimestepPlan.uniform(1, 10)
        tokens, _ = token_batch(model.config, 5, RandomStream(7))
        whole, _ = run_sequential(model, masks, plan, tokens, RandomStream(5))
        head, _ = run_sequential(model, masks, plan, tokens[:2], RandomStream(5))
        tail, _ = run_sequential(model, masks, plan, tokens[2:], RandomStream(5), first=2)
        assert np.array_equal(whole, np.concatenate([head, tail]))
        shifted, _ = run_sequential(model, masks, plan, tokens[2:], RandomStream(5))
        assert not np.array_equal(whole[2:], shifted)

    def test_traces_follow_per_sublayer_budgets(self):
        """Each sublayer's one row is the reference's row after that
        sublayer's own budget, not after any other's."""
        model = tiny_model(3)
        masks = MaskSet.all_ones(model)
        steps = np.array([[3, 4, 5, 6, 7, 8]])
        plan = TimestepPlan(steps)
        tokens, _ = token_batch(model.config, 2, RandomStream(8))
        _, traces = run_sequential(model, masks, plan, tokens, RandomStream(9))
        _, want = reference_run_sequential(model, masks, plan, tokens, RandomStream(9))
        assert [len(t.asr) for t in want] == steps[0].tolist()
        for got, ref in zip(traces, want):
            assert got.asr.shape == (1, ref.asr.shape[1])
            assert got.asr.tobytes() == ref.asr[-1:].tobytes(), got.name

    def test_masked_neuron_never_spikes(self):
        model = tiny_model(4)
        nm = np.ones(6)
        nm[2] = 0.0
        masks = MaskSet([np.ones(2)], [nm])
        plan = TimestepPlan.uniform(1, 20)
        tokens, _ = token_batch(model.config, 2, RandomStream(10))
        _, traces = run_sequential(model, masks, plan, tokens, RandomStream(11))
        inter = {t.name: t for t in traces}["L0.inter"].converged
        assert np.array_equal(inter.reshape(4, 6)[:, 2], np.zeros(4))

    def test_plan_layer_count_checked(self):
        model = tiny_model(0)
        with pytest.raises(InvalidInputError):
            run_sequential(model, MaskSet.all_ones(model),
                           TimestepPlan.uniform(2, 5),
                           np.zeros((1, 4), dtype=np.int64), RandomStream(0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_streamed_draws_equal_the_materialised_reference(self, data):
        """Plane-per-timestep draws give the bytes of whole (B, t, ...) trains."""
        layers = data.draw(st.integers(1, 2))
        leak = data.draw(st.sampled_from([1.0, 0.9]))
        seed = data.draw(st.integers(0, 1000))
        batch = data.draw(st.integers(0, 5))
        model = tiny_model(seed, num_layers=layers, leak=leak)

        def binary(n):
            return np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                               min_size=n, max_size=n)))

        masks = MaskSet([binary(2) for _ in range(layers)],
                        [binary(6) for _ in range(layers)])
        t_max = data.draw(st.integers(1, 12))
        steps = np.array(data.draw(st.lists(st.integers(1, t_max), min_size=6 * layers,
                                            max_size=6 * layers)))
        steps[data.draw(st.integers(0, steps.size - 1))] = 1
        plan = TimestepPlan(steps.reshape(layers, 6))
        tokens, _ = token_batch(model.config, batch, RandomStream(seed + 1))

        if batch == 0:
            # a trace averages over the batch, so an empty one has no rows
            with pytest.raises(InvalidInputError, match="non-empty batch"):
                run_sequential(model, masks, plan, tokens, RandomStream(seed + 2))
            return
        logits, traces = run_sequential(model, masks, plan, tokens, RandomStream(seed + 2))
        want_logits, want_traces = reference_run_sequential(
            model, masks, plan, tokens, RandomStream(seed + 2))
        assert logits.tobytes() == want_logits.tobytes()
        assert [tr.name for tr in traces] == [tr.name for tr in want_traces]
        for got, want in zip(traces, want_traces):
            # the one row is the reference's last, after the sublayer's budget
            want_asr = _without_pruned_units(want, masks, model.config)[-1:]
            assert got.asr.shape == want_asr.shape
            assert got.asr.tobytes() == want_asr.tobytes(), got.name

    def test_pruned_units_are_not_drawn(self, monkeypatch):
        """Only kept units reach the Bernoulli kernel: fc reads attn's kept
        head columns, output reads inter's kept neurons; key, value and inter
        read full-width sources. Of those, only units with 0 < p < 1 mix a
        word, one per timestep."""
        model = tiny_model(3, num_layers=2)
        masks = MaskSet([np.array([1.0, 0.0]), np.zeros(2)],
                        [np.array([1, 0, 1, 1, 0, 0.0]), np.ones(6)])
        steps = np.arange(1, 13).reshape(2, 6)
        tokens, _ = token_batch(model.config, 3, RandomStream(16))
        offered, live, mixed = [], [], []

        def spying(p, t, streams, keep=None):
            offered.append(t * p.size)
            live.append(t * int(((p > 0.0) & (p < 1.0)).sum()))
            return real_planes(p, t, streams, keep)

        def counting(z, scratch=None):
            mixed.append(z.size)
            return real_mix(z, scratch)

        real_planes, real_mix = engine.bernoulli_planes, numerics._mix64
        monkeypatch.setattr(engine, "bernoulli_planes", spying)
        monkeypatch.setattr(numerics, "_mix64", counting)
        run_sequential(model, masks, TimestepPlan(steps), tokens, RandomStream(17))
        cfg = model.config
        want = 0
        for li in range(cfg.num_layers):
            t = dict(zip(SUBLAYERS, steps[li].tolist()))
            kept_attn = int(masks.heads[li].sum()) * cfg.head_dim
            kept_inter = int(masks.neurons[li].sum())
            want += 3 * cfg.seq_len * ((t["key"] + t["value"] + t["inter"]) * cfg.hidden_size
                                       + t["fc"] * kept_attn + t["output"] * kept_inter)
        assert sum(offered) == want
        # one word per sample's derived stream, then t words per live unit
        assert 0 < sum(live) < want
        assert sum(mixed) == 3 + sum(live)

    @pytest.mark.parametrize("simulate", [
        lambda m, k, t: run_unrolled(m, k, t, 3),
        lambda m, k, t: run_sequential(m, k, TimestepPlan.uniform(1, 3), t, RandomStream(0)),
    ], ids=["run_unrolled", "run_sequential"])
    def test_empty_batch(self, simulate):
        """A trace is a batch mean, so both simulators refuse no samples,
        with one message and no warning."""
        model = tiny_model(0)
        masks = MaskSet.all_ones(model)
        tokens = np.zeros((0, model.config.seq_len), dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match="^the simulators need a non-empty batch$"):
                simulate(model, masks, tokens)

    def test_memory_does_not_grow_with_the_plan(self):
        """Draws stream one timestep plane at a time: peak memory is O(batch x width)."""
        model = tiny_model(2)
        masks = MaskSet.all_ones(model)
        tokens, _ = token_batch(model.config, 8, RandomStream(3))

        def peak(t):
            plan = TimestepPlan.uniform(1, t)
            tracemalloc.start()
            try:
                run_sequential(model, masks, plan, tokens, RandomStream(4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) < 2 * peak(10)


class TestProxyGraph:
    def test_value_walk_equals_the_graph_exactly(self):
        """rate_proxy_forward and proxy_graph round identically.

        Widths 12 and 6 are not powers of two, so a mean taken as sum / n in
        one and sum * (1/n) in the other would show in the last bit.
        """
        model = tiny_model(7, hidden_size=12, num_layers=2)
        masks = MaskSet([np.array([1.0, 0.0]), np.ones(2)],
                        [np.ones(6), np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])])
        tokens, _ = token_batch(model.config, 5, RandomStream(15))
        logits, rates = rate_proxy_forward(model, masks, tokens)
        params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
        g_logits, g_rates, _ = proxy_graph(params, model.config, model.input_scale, tokens,
                                           [ad.Var(h) for h in masks.heads],
                                           [ad.Var(n) for n in masks.neurons])
        assert np.array_equal(logits, g_logits.value)
        assert list(rates) == [name for name, _ in g_rates]
        for name, var in g_rates:
            assert np.array_equal(rates[name], var.value), name

    def test_stage_noise_zeros_is_identity(self):
        model = tiny_model(5)
        tokens, labels = token_batch(model.config, 3, RandomStream(12))
        masks = MaskSet.all_ones(model)

        def run(noise):
            params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
            logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                                       tokens, masks.heads, masks.neurons, noise)
            loss = cross_entropy(logits, labels)
            ad.backward(loss)
            return logits.value.copy(), params["L0.w_k"].grad.copy()

        base_logits, base_grad = run(None)
        zero_logits, zero_grad = run(lambda l, n, v: np.zeros_like(v))
        assert np.array_equal(base_logits, zero_logits)
        assert np.array_equal(base_grad, zero_grad)

    def test_stage_noise_none_return_skips_the_stage(self):
        model = tiny_model(5)
        tokens, _ = token_batch(model.config, 2, RandomStream(13))
        masks = MaskSet.all_ones(model)
        calls = []

        def noise(layer, name, value):
            calls.append((layer, name))
            return None

        params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
        logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                                   tokens, masks.heads, masks.neurons, noise)
        params2 = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
        logits2, _, _ = proxy_graph(params2, model.config, model.input_scale,
                                    tokens, masks.heads, masks.neurons)
        assert np.array_equal(logits.value, logits2.value)
        assert calls == [(0, "key"), (0, "value"), (0, "attn"), (0, "fc"),
                         (0, "inter"), (0, "output")]

    def test_stage_noise_shifts_rates_as_constants(self):
        """An additive perturbation moves values but carries no gradient path."""
        model = tiny_model(5)
        tokens, labels = token_batch(model.config, 2, RandomStream(14))
        masks = MaskSet.all_ones(model)

        def noise(layer, name, value):
            return np.full_like(value, 0.01) if name == "fc" else None

        params = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
        logits, rates, _ = proxy_graph(params, model.config, model.input_scale,
                                       tokens, masks.heads, masks.neurons, noise)
        params2 = {n: ad.Var(a) for n, a in _model_arrays(model).items()}
        _, rates2, _ = proxy_graph(params2, model.config, model.input_scale,
                                   tokens, masks.heads, masks.neurons)
        fc = dict(rates)["L0.fc"].value
        fc_clean = dict(rates2)["L0.fc"].value
        assert np.allclose(fc - fc_clean, 0.01)
        loss = cross_entropy(logits, labels)
        ad.backward(loss)    # must not raise; the delta is a constant leaf


class TestCrossEntropy:
    def test_worked_value(self):
        logits = np.array([[2.0, 0.0], [0.0, 0.0]])
        labels = np.array([0, 1])
        expected = (np.log(1 + np.exp(-2.0)) + np.log(2.0)) / 2
        assert float(cross_entropy(logits, labels).value) == pytest.approx(
            expected, abs=1e-12)

    def test_uniform_logits(self):
        logits = np.zeros((5, 4))
        labels = np.arange(5) % 4
        assert float(cross_entropy(logits, labels).value) == pytest.approx(
            np.log(4.0), abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = ad.Var(np.array([[1.0, -1.0, 0.5]]))
        labels = np.array([2])
        loss = cross_entropy(logits, labels)
        ad.backward(loss)
        e = np.exp(logits.value)
        soft = e / e.sum()
        expected = soft.copy()
        expected[0, 2] -= 1.0
        assert np.allclose(logits.grad, expected)
