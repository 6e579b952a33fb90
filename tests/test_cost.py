"""ACs accounting: worked examples, linearity, and the normalized #C metric."""

import numpy as np
import pytest

from conftest import brute_force_acs, tiny_config, tiny_model
from spikeprune import (InvalidInputError, MaskSet, RandomStream, TimestepPlan,
                        acs_baseline, acs_total, cost_summary, gen_keyword_task,
                        normalized_c, per_sublayer_acs, rate_proxy_forward,
                        run_unrolled, unit_costs)
from spikeprune.cost import acs_value


def _all_ones(config):
    return MaskSet(
        [np.ones(config.num_heads) for _ in range(config.num_layers)],
        [np.ones(config.intermediate_size) for _ in range(config.num_layers)])


def _mask_from_counts(config, head_counts, neuron_counts):
    heads, neurons = [], []
    for h, n in zip(head_counts, neuron_counts):
        hm = np.zeros(config.num_heads)
        hm[:h] = 1.0
        nm = np.zeros(config.intermediate_size)
        nm[:n] = 1.0
        heads.append(hm)
        neurons.append(nm)
    return MaskSet(heads, neurons)


class TestWorkedExample:
    """One layer, N=2, D=4, 2 heads (hd=2), 3 neurons, all timesteps distinct."""

    CFG = dict(num_layers=1, hidden_size=4, num_heads=2, intermediate_size=3,
               seq_len=2, vocab_size=8, t_conv=10)
    # trace order: key=1 value=2 attn=3 fc=4 inter=5 output=6
    PLAN = TimestepPlan(np.array([[1, 2, 3, 4, 5, 6]]))

    def test_dense_total_by_hand(self):
        cfg = tiny_config(**self.CFG)
        # ndh = 2*4*2 = 16
        # qkv   = 2 heads * 16 * (3+1+2) = 192
        # attn  = 2 heads * 2*4*2 * 3    = 2 * 16 * 3 = 96
        # fc    = 2 heads * 16 * 4       = 128
        # neur  = 3 * 2*4 * (5+6)        = 264
        report = acs_total(cfg, _mask_from_counts(cfg, [2], [3]), self.PLAN)
        assert report.total == 192 + 96 + 128 + 264 == 680
        assert report.total == brute_force_acs(cfg, [2], [3], self.PLAN)

    def test_unit_costs_by_hand(self):
        cfg = tiny_config(**self.CFG)
        heads, neurons = unit_costs(cfg, self.PLAN)
        # head: 16*(3+1+2+4) + 2*2*2*2*3 = 160 + 48 = 208
        # neuron: 2*4*(5+6) = 88
        assert heads.tolist() == [208]
        assert neurons.tolist() == [88]

    def test_pruning_one_unit_removes_exactly_its_cost(self):
        cfg = tiny_config(**self.CFG)
        dense = acs_total(cfg, _mask_from_counts(cfg, [2], [3]), self.PLAN).total
        one_head = acs_total(cfg, _mask_from_counts(cfg, [1], [3]), self.PLAN).total
        one_neuron = acs_total(cfg, _mask_from_counts(cfg, [2], [2]), self.PLAN).total
        assert dense - one_head == 208
        assert dense - one_neuron == 88

    def test_per_sublayer_shares(self):
        cfg = tiny_config(**self.CFG)
        shares = per_sublayer_acs(cfg, _mask_from_counts(cfg, [2], [3]), self.PLAN)
        by_name = dict(shares)
        assert by_name["L0.key"] == 2 * 16 * 1
        assert by_name["L0.value"] == 2 * 16 * 2
        # attention sublayer carries the query projection plus both N^2 products
        assert by_name["L0.attn"] == 2 * (16 + 2 * 4 * 2) * 3
        assert by_name["L0.fc"] == 2 * 16 * 4
        assert by_name["L0.inter"] == 3 * 8 * 5
        assert by_name["L0.output"] == 3 * 8 * 6
        assert sum(v for _, v in shares) == 680


class TestLinearity:
    def test_total_is_baseline_minus_pruned_unit_costs(self):
        cfg = tiny_config(num_layers=2, hidden_size=6, num_heads=3,
                          intermediate_size=5, seq_len=3, t_conv=9)
        stream = RandomStream(21)
        plan = TimestepPlan(
            (stream.integers(9, (2, 6)) + 1).astype(np.int64))
        head_costs, neuron_costs = unit_costs(cfg, plan)
        for trial in range(25):
            s = stream.derive(trial)
            hm = [(s.derive(l).uniform((3,)) < 0.6).astype(float) for l in range(2)]
            nm = [(s.derive(10 + l).uniform((5,)) < 0.6).astype(float)
                  for l in range(2)]
            for l in range(2):
                if hm[l].sum() == 0:
                    hm[l][0] = 1.0
                if nm[l].sum() == 0:
                    nm[l][0] = 1.0
            masks = MaskSet(hm, nm)
            report = acs_total(cfg, masks, plan)
            pruned = sum(int(3 - hm[l].sum()) * head_costs[l]
                         + int(5 - nm[l].sum()) * neuron_costs[l]
                         for l in range(2))
            dense = acs_total(cfg, _all_ones(cfg), plan).total
            assert report.total == dense - pruned
            assert report.total == brute_force_acs(
                cfg, [int(m.sum()) for m in hm], [int(m.sum()) for m in nm],
                plan)

    def test_per_sublayer_sums_to_total(self):
        cfg = tiny_config(num_layers=3, hidden_size=8, num_heads=4,
                          intermediate_size=7, seq_len=5, t_conv=6)
        stream = RandomStream(9)
        plan = TimestepPlan((stream.integers(6, (3, 6)) + 1).astype(np.int64))
        masks = _mask_from_counts(cfg, [2, 4, 1], [3, 7, 2])
        report = acs_total(cfg, masks, plan)
        shares = per_sublayer_acs(cfg, masks, plan)
        assert sum(v for _, v in shares) == report.total
        assert len(shares) == 18
        assert [n for n, _ in shares][:3] == ["L0.key", "L0.value", "L0.attn"]

    def test_ratio_and_baseline(self):
        cfg = tiny_config()
        report = acs_total(cfg, _all_ones(cfg),
                           TimestepPlan.uniform(1, cfg.t_conv))
        assert report.total == report.baseline == acs_baseline(cfg)
        assert report.ratio == 1.0

    def test_acs_value_accepts_fractional_counts(self):
        cfg = tiny_config()
        plan = TimestepPlan.uniform(1, 4)
        lo = acs_value(cfg, [1.0], [3.0], plan)
        hi = acs_value(cfg, [2.0], [3.0], plan)
        mid = acs_value(cfg, [1.5], [3.0], plan)
        assert mid == pytest.approx((lo + hi) / 2)

    def test_acs_value_layer_count_checked(self):
        cfg = tiny_config()
        with pytest.raises(InvalidInputError):
            acs_value(cfg, [1, 1], [3], TimestepPlan.uniform(1, 4))

    def test_acs_total_plan_mismatch(self):
        cfg = tiny_config()
        with pytest.raises(InvalidInputError):
            acs_total(cfg, _all_ones(cfg), TimestepPlan.uniform(2, 4))


class TestNormalizedC:
    def test_uniform_rates_ten_sublayers(self):
        # middle 8 of 10 sublayers at full rate, equal costs: 8c/10c = 0.8
        assert normalized_c([1.0] * 10, [7.0] * 10) == 0.8

    def test_all_silent_is_zero(self):
        assert normalized_c([0.0] * 10, [3.0] * 10) == 0.0

    def test_boundary_sublayers_excluded(self):
        # only first and last active: numerator unaffected
        rates = [1.0, 0.0, 0.0, 1.0]
        assert normalized_c(rates, [5.0] * 4) == 0.0
        # a middle sublayer weights the *next* sublayer's cost
        rates = [0.0, 1.0, 0.0, 0.0]
        assert normalized_c(rates, [1.0, 2.0, 4.0, 8.0]) == 4.0 / 15.0

    def test_accepts_trace_objects_and_arrays(self):
        class FakeTrace:
            def __init__(self, arr):
                self.converged = np.asarray(arr)

        traces = [FakeTrace([0.5, 0.5]), FakeTrace([0.25, 0.75]),
                  np.array([1.0, 0.0]), 0.0]
        acs = [2.0, 2.0, 2.0, 2.0]
        # middle entries: mean 0.5 * acs[2] + mean 0.5 * acs[3]
        assert normalized_c(traces, acs) == pytest.approx(0.25, abs=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            normalized_c([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidInputError):
            normalized_c([1.0] * 3, [1.0] * 4)
        with pytest.raises(InvalidInputError):
            normalized_c([1.0] * 3, [0.0] * 3)


class TestCostSummary:
    """cost_summary against the summary written out by hand: rates listed in
    per_sublayer_acs order, ratio from acs_total, mean from the plan."""

    def _state(self):
        model = tiny_model(3, num_layers=2)
        masks = MaskSet([np.array([1.0, 0.0]), np.ones(2)],
                        [np.array([1, 1, 0, 1, 0, 1.0]), np.ones(6)])
        plan = TimestepPlan(np.array([[10, 7, 9, 4, 10, 2], [3, 10, 10, 6, 8, 5]]))
        tokens = gen_keyword_task(8, 4, 12, RandomStream(5)).tokens
        return model, masks, plan, tokens

    @staticmethod
    def _by_hand(config, masks, plan, means):
        acs_list = per_sublayer_acs(config, masks, plan)
        return {"acs_ratio": acs_total(config, masks, plan).ratio,
                "normalized_c": normalized_c(means, [v for _, v in acs_list]),
                "mean_timesteps": plan.mean_timesteps()}

    def test_proxy_rate_arrays_bit_for_bit(self):
        model, masks, plan, tokens = self._state()
        _, rates = rate_proxy_forward(model, masks, tokens)
        want = self._by_hand(model.config, masks, plan,
                             [r.mean() for r in rates.values()])
        got = cost_summary(model.config, masks, plan, rates)
        assert got == want and list(got) == list(want)
        assert all(type(v) is float for v in got.values())

    def test_scalar_means_bit_for_bit(self):
        model, masks, plan, tokens = self._state()
        _, traces = run_unrolled(model, masks, tokens, model.config.t_conv)
        means = {tr.name: float(tr.converged.mean()) for tr in traces}
        want = self._by_hand(model.config, masks, plan, list(means.values()))
        # lookup is by name, so the map's order does not matter
        shuffled = dict(reversed(list(means.items())))
        assert cost_summary(model.config, masks, plan, shuffled) == want
        assert cost_summary(model.config, masks, plan, {**means, "extra": 9.0}) == want

    def test_missing_sublayer_is_an_error(self):
        model, masks, plan, tokens = self._state()
        _, rates = rate_proxy_forward(model, masks, tokens)
        del rates["L1.attn"]
        with pytest.raises(InvalidInputError, match="L1.attn"):
            cost_summary(model.config, masks, plan, rates)
