"""Budgeted greedy selection plus hill-climb refinement for spatial masks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_refine_masks, reference_select_masks, tiny_config
from spikeprune import (ImportanceScores, InfeasibleBudgetError, InvalidInputError,
                        MaskSet, RandomStream, TimestepPlan, acs_baseline, acs_total,
                        combine, refine_masks, select_masks)
from spikeprune.spatial import pruned_importance


def _scores(config, stream, offset=0.01):
    """Random positive ImportanceScores, distinct with high probability."""
    hf, nf, ha, na = [], [], [], []
    for l in range(config.num_layers):
        hf.append(stream.derive(l).uniform((config.num_heads,)) + offset)
        nf.append(stream.derive(100 + l).uniform((config.intermediate_size,)) + offset)
        ha.append(stream.derive(200 + l).uniform((config.num_heads,)) + offset)
        na.append(stream.derive(300 + l).uniform((config.intermediate_size,)) + offset)
    return combine((hf, nf), (ha, na))


def _ratio(config, masks, t_uniform):
    plan = TimestepPlan.uniform(config.num_layers, t_uniform)
    return acs_total(config, masks, plan).ratio


def _exhaustive_best(scores, config, budget):
    """Minimum prunable-importance over all feasible keep patterns."""
    plan = TimestepPlan.uniform(config.num_layers, config.t_conv)
    cap = budget * acs_baseline(config) * (1 + 1e-12)
    layer_opts = []
    for l in range(config.num_layers):
        opts = []
        for hpat in itertools.product((0.0, 1.0), repeat=config.num_heads):
            if sum(hpat) == 0:
                continue
            for npat in itertools.product((0.0, 1.0), repeat=config.intermediate_size):
                if sum(npat) == 0:
                    continue
                opts.append((np.array(hpat), np.array(npat)))
        layer_opts.append(opts)
    best = None
    for combo in itertools.product(*layer_opts):
        masks = MaskSet([c[0] for c in combo], [c[1] for c in combo])
        if acs_total(config, masks, plan).total > cap:
            continue
        kept = pruned_importance(scores, masks)
        if best is None or kept < best - 1e-12:
            best = kept
    return best


class TestSelectMasks:
    def test_generous_budget_prunes_nothing(self):
        cfg = tiny_config()
        scores = _scores(cfg, RandomStream(0))
        masks = select_masks(scores, cfg, cfg.t_conv, 1.0)
        assert all((h == 1).all() for h in masks.heads)
        assert all((n == 1).all() for n in masks.neurons)

    def test_budget_respected(self):
        cfg = tiny_config(num_layers=2)
        for seed in range(5):
            scores = _scores(cfg, RandomStream(seed))
            masks = select_masks(scores, cfg, cfg.t_conv, 0.55)
            assert _ratio(cfg, masks, cfg.t_conv) <= 0.55 * (1 + 1e-12)

    def test_floors_survive_zero_scores(self):
        cfg = tiny_config()
        zero = combine(([np.zeros(2)], [np.zeros(6)]),
                       ([np.zeros(2)], [np.zeros(6)]))
        # the floor itself sits at ratio ~0.423 for this shape
        masks = select_masks(zero, cfg, cfg.t_conv, 0.45)
        assert masks.heads[0].sum() >= 1
        assert masks.neurons[0].sum() >= 1

    def test_infeasible_budget_raises_with_floor_ratio(self):
        cfg = tiny_config()
        scores = _scores(cfg, RandomStream(1))
        with pytest.raises(InfeasibleBudgetError, match="ratio"):
            select_masks(scores, cfg, cfg.t_conv, 1e-6)

    def test_t_uniform_does_not_change_the_choice(self):
        """Uniform plans scale every cost equally; the ranking is invariant."""
        cfg = tiny_config(num_layers=2)
        for seed in range(4):
            scores = _scores(cfg, RandomStream(10 + seed))
            a = select_masks(scores, cfg, 1, 0.6)
            b = select_masks(scores, cfg, 40, 0.6)
            for x, y in zip(a.heads + a.neurons, b.heads + b.neurons):
                assert np.array_equal(x, y)

    def test_prunes_cheapest_importance_first(self):
        cfg = tiny_config()
        # make neuron 5 clearly the least important unit
        ha = [np.full(2, 0.9)]
        na = [np.array([0.9, 0.9, 0.9, 0.9, 0.9, 1e-6])]
        scores = combine(([np.ones(2)], [np.ones(6)]), (ha, na))
        # budget just below 1.0 forces exactly one cheap removal
        from spikeprune.cost import unit_costs
        plan = TimestepPlan.uniform(1, cfg.t_conv)
        _, ncost = unit_costs(cfg, plan)
        budget = 1.0 - ncost[0] / (2 * acs_baseline(cfg))
        masks = select_masks(scores, cfg, cfg.t_conv, budget)
        assert masks.neurons[0][5] == 0.0
        assert masks.neurons[0].sum() == 5
        assert masks.heads[0].sum() == 2

    def test_permutation_equivariance(self):
        """Relabeling neurons permutes the mask the same way."""
        cfg = tiny_config()
        stream = RandomStream(33)
        scores = _scores(cfg, stream)
        masks = select_masks(scores, cfg, cfg.t_conv, 0.5)
        perm = stream.permutation(6)
        permuted = combine(
            ([scores.head_fisher[0]], [scores.neuron_fisher[0][perm]]),
            ([scores.head_asr[0]], [scores.neuron_asr[0][perm]]))
        masks_p = select_masks(permuted, cfg, cfg.t_conv, 0.5)
        assert np.array_equal(masks_p.neurons[0], masks.neurons[0][perm])
        assert np.array_equal(masks_p.heads[0], masks.heads[0])


class TestRefineMasks:
    def test_never_worse_and_still_feasible(self):
        cfg = tiny_config(num_layers=2)
        for seed in range(6):
            scores = _scores(cfg, RandomStream(seed))
            start = select_masks(scores, cfg, cfg.t_conv, 0.55)
            before = pruned_importance(scores, start)
            refined = refine_masks(start, scores, cfg, 0.55)
            after = pruned_importance(scores, refined)
            assert after <= before + 1e-12
            assert _ratio(cfg, refined, cfg.t_conv) <= 0.55 * (1 + 1e-12)

    def test_recovers_from_an_adversarial_feasible_start(self):
        """Start with the *most* important units pruned; refinement swaps back."""
        cfg = tiny_config()
        scores = _scores(cfg, RandomStream(3))
        good = select_masks(scores, cfg, cfg.t_conv, 0.5)
        # build the mirror image: prune top-scoring units instead
        heads = np.ones(2)
        heads[np.argmax(scores.head_scores[0])] = 0.0
        order = np.argsort(scores.neuron_scores[0])[::-1]
        neurons = np.ones(6)
        neurons[order[:int(6 - good.neurons[0].sum())]] = 0.0
        bad = MaskSet([heads], [neurons])
        if _ratio(cfg, bad, cfg.t_conv) > 0.5:
            pytest.skip("mirror start infeasible for this seed")
        refined = refine_masks(bad, scores, cfg, 0.5)
        assert pruned_importance(scores, refined) <= pruned_importance(scores, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("group", ["heads", "neurons"])
    def test_non_finite_scores_rejected(self, bad, group):
        cfg = tiny_config()
        hs, ns = [np.array([0.5, 0.7])], [np.linspace(0.1, 0.6, 6)]
        (hs if group == "heads" else ns)[0][1] = bad
        scores = ImportanceScores(hs, ns, hs, ns, hs, ns)
        with pytest.raises(InvalidInputError, match="finite"):
            select_masks(scores, cfg, cfg.t_conv, 0.8)
        with pytest.raises(InvalidInputError, match="finite"):
            refine_masks(MaskSet([np.ones(2)], [np.ones(6)]), scores, cfg, 1.0)

    def test_infeasible_start_rejected(self):
        cfg = tiny_config()
        scores = _scores(cfg, RandomStream(4))
        with pytest.raises(InvalidInputError):
            refine_masks(MaskSet([np.ones(2)], [np.ones(6)]), scores, cfg, 0.3)

    def test_generous_budget_unprunes_everything(self):
        cfg = tiny_config()
        scores = _scores(cfg, RandomStream(5))
        start = MaskSet([np.array([1.0, 0.0])],
                        [np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])])
        refined = refine_masks(start, scores, cfg, 1.0)
        assert refined.heads[0].sum() == 2
        assert refined.neurons[0].sum() == 6


def _same_masks(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.heads + a.neurons,
                                                     b.heads + b.neurons))


def _draw_scores(rng, size, kind):
    if kind == "distinct":
        return rng.random(size)
    if kind == "tied":
        return rng.integers(0, 3, size) / 2.0
    if kind == "sparse":
        return np.where(rng.random(size) < 0.3, 0.0, rng.random(size))
    return np.zeros(size)


class TestAgainstReference:
    """The array search returns the reference search's masks exactly."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(layers=st.integers(1, 4), heads=st.sampled_from([1, 2, 4]),
           neurons=st.integers(1, 24), seq_len=st.integers(2, 5),
           kind=st.sampled_from(["distinct", "tied", "sparse", "zero"]),
           head_range=st.sampled_from([(0.0, 1.0), (0.0, 10.0), (1.0, 2.0)]),
           start=st.sampled_from(["select", (0.5, 0.5), (1.0, 0.3), (0.0, 1.0)]),
           budget=st.floats(0.3, 1.0), max_iters=st.sampled_from([1, 2, 100]),
           seed=st.integers(0, 10_000))
    def test_same_masks_as_the_reference(self, layers, heads, neurons, seq_len, kind,
                                         head_range, start, budget, max_iters, seed):
        """Head scores span [low, low + span): heads just above every neuron
        make head-for-neurons trades pay. A start is either the selection at
        `budget` or random masks keeping a (head, neuron) share, refined at
        0 to 21% above their own ratio; 1-head layers and the forced one kept
        unit per layer put layers at their floor."""
        cfg = tiny_config(num_layers=layers, hidden_size=4 * heads,
                          num_heads=heads, intermediate_size=neurons,
                          seq_len=seq_len)
        rng = np.random.default_rng(seed)
        low, span = head_range
        hs = [low + _draw_scores(rng, heads, kind) * span for _ in range(layers)]
        ns = [_draw_scores(rng, neurons, kind) for _ in range(layers)]
        scores = ImportanceScores(hs, ns, hs, ns, hs, ns)
        if start == "select":
            try:
                begin = reference_select_masks(scores, cfg, cfg.t_conv, budget)
            except InfeasibleBudgetError:
                with pytest.raises(InfeasibleBudgetError):
                    select_masks(scores, cfg, cfg.t_conv, budget)
                return
            assert _same_masks(select_masks(scores, cfg, cfg.t_conv, budget), begin)
        else:
            head_share, neuron_share = start
            hm = [(rng.random(heads) < head_share).astype(float) for _ in range(layers)]
            nm = [(rng.random(neurons) < neuron_share).astype(float) for _ in range(layers)]
            for l in range(layers):
                hm[l][rng.integers(heads)] = 1.0
                nm[l][rng.integers(neurons)] = 1.0
            begin = MaskSet(hm, nm)
            slack = 1.0 + 0.3 * (1.0 - budget)
            budget = min(1.0, _ratio(cfg, begin, cfg.t_conv) * slack)
        want = reference_refine_masks(begin, scores, cfg, budget, max_iters)
        got = refine_masks(begin, scores, cfg, budget, max_iters)
        assert _same_masks(got, want)

    def test_trade_gain_is_a_running_sum(self):
        """A head worth 1.0 against pruned neurons [1.0, 2**-53 x 20]: the
        left-to-right sum stays 1.0, so the head stays; a pairwise sum would
        exceed 1.0 and trade it away."""
        cfg = tiny_config(hidden_size=32, num_heads=2, intermediate_size=40)
        hs = [np.array([1.0, 5.0])]
        ns = [np.concatenate(([1.0], np.full(20, 2.0**-53), np.full(19, 10.0)))]
        scores = ImportanceScores(hs, ns, hs, ns, hs, ns)
        begin = MaskSet([np.ones(2)], [(ns[0] == 10.0).astype(float)])
        budget = _ratio(cfg, begin, cfg.t_conv)
        want = reference_refine_masks(begin, scores, cfg, budget)
        assert _same_masks(want, begin)
        assert _same_masks(refine_masks(begin, scores, cfg, budget), want)


class TestAgainstExhaustive:
    def test_small_configs_reach_the_optimum(self):
        configs = [
            tiny_config(num_layers=1, hidden_size=8, num_heads=2,
                        intermediate_size=6, seq_len=4),
            tiny_config(num_layers=2, hidden_size=4, num_heads=2,
                        intermediate_size=3, seq_len=4),
        ]
        for ci, cfg in enumerate(configs):
            for trial in range(5):
                scores = _scores(cfg, RandomStream(60 + ci).derive(trial))
                got = refine_masks(
                    select_masks(scores, cfg, cfg.t_conv, 0.6),
                    scores, cfg, 0.6)
                best = _exhaustive_best(scores, cfg, 0.6)
                assert pruned_importance(scores, got) == pytest.approx(
                    best, abs=1e-12)


class TestPrunedImportance:
    def test_sums_removed_scores(self):
        scores = combine(
            ([np.array([2.0, 3.0])], [np.array([1.0, 4.0, 8.0])]),
            ([np.ones(2)], [np.ones(3)]))
        masks = MaskSet([np.array([0.0, 1.0])], [np.array([1.0, 0.0, 1.0])])
        assert pruned_importance(scores, masks) == 6.0

    def test_all_kept_is_zero(self):
        scores = combine(([np.ones(2)], [np.ones(3)]),
                         ([np.ones(2)], [np.ones(3)]))
        masks = MaskSet([np.ones(2)], [np.ones(3)])
        assert pruned_importance(scores, masks) == 0.0
