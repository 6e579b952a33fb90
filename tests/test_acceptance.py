"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each test prints `criterion NN: PASS/FAIL - <measured numbers>` before
asserting, so a -s run reads as a checklist. The toy-scale baseline
trainings that several criteria share are built once per seed through the
`toy` fixture; everything else derives from fixed seeds, so verdicts are
reproducible bit for bit.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import brute_force_acs, tiny_config, tiny_model, token_batch
from spikeprune import (MaskSet, ModelConfig, RandomStream, TimestepPlan,
                        TrainConfig, acs_baseline, acs_total,
                        allocate_timesteps, asr_factors, combine,
                        fisher_diagonal, gen_keyword_task, gradcheck,
                        init_model, normalized_c, per_sublayer_acs,
                        refine_masks, run_sequential, run_unrolled,
                        scale_plan, select_masks, timestep_allocation, train)
from spikeprune.cli import _seq_accuracy
from spikeprune.cli import main as cli_main
from spikeprune.config import resolve_config
from spikeprune.spatial import pruned_importance
from spikeprune.temporal import layer_importance


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


class _ToyRun:
    """One trained toy-scale baseline: model, data, and its test accuracy."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = resolve_config("sst2_toy")
        self.mcfg = self.cfg.model_config()
        master = RandomStream(seed)
        model0 = init_model(self.mcfg, master.derive(0))
        self.train_data = gen_keyword_task(
            self.mcfg.vocab_size, self.mcfg.seq_len,
            self.cfg.train_examples, master.derive(1))
        self.test_data = gen_keyword_task(
            self.mcfg.vocab_size, self.mcfg.seq_len,
            self.cfg.test_examples, master.derive(2))
        plan = TimestepPlan.uniform(self.mcfg.num_layers, self.mcfg.t_conv)
        self.model, self.masks, self.plan, self.history = train(
            model0, MaskSet.all_ones(model0), plan, self.train_data,
            self.cfg.train_config(seed=seed), eval_data=self.test_data)
        self.base_acc = _seq_accuracy(self.model, self.masks, self.plan,
                                      self.test_data, self.eval_lane(0))

    def eval_lane(self, k: int) -> RandomStream:
        return RandomStream(self.seed).derive(4).derive(k)

    def fisher_batches(self):
        return [(self.train_data.tokens[i:i + 32],
                 self.train_data.labels[i:i + 32]) for i in range(0, 256, 32)]


@pytest.fixture(scope="module")
def toy():
    cache = {}

    def get(seed: int) -> _ToyRun:
        if seed not in cache:
            cache[seed] = _ToyRun(seed)
        return cache[seed]

    return get


def test_criterion_01():
    """Analytic gradients of the full objective agree with finite differences."""
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        model = tiny_model(seed)
        batch = token_batch(model.config, 3, RandomStream(1000 + seed))
        # first half: default config, cost and activity penalties both active
        cfg = None if seed < 5 else TrainConfig(lam=0.0, eta=0.0, epochs=1)
        worst = max(worst, gradcheck(model, batch, cfg))
    _verdict(1, worst <= 1e-4,
             f"max relative gradient error {worst:.3e} over 10 seeded models "
             f"(tolerance 1e-4; penalties active on 5) [{time.time()-t0:.0f}s]")


def test_criterion_02():
    """The ACs formulas equal a brute-force MAC count of the masked dataflow."""
    t0 = time.time()
    checked = 0
    for n, d, dn in itertools.product(range(1, 9), repeat=3):
        divisors = [h for h in range(1, d + 1) if d % h == 0]
        heads = divisors[(n + dn) % len(divisors)]
        cfg = ModelConfig(num_layers=2, hidden_size=d, num_heads=heads,
                          intermediate_size=dn, seq_len=n, vocab_size=8,
                          num_classes=2, t_conv=8)
        stream = RandomStream(n * 100 + d * 10 + dn)
        for trial in range(100):
            s = stream.derive(trial)
            plan = TimestepPlan(
                (s.derive(0).integers(8, (2, 6)) + 1).astype(np.int64))
            hm, nm, hc, nc = [], [], [], []
            for l in range(2):
                h = s.derive(1 + l).uniform((heads,)) < 0.5
                m = s.derive(3 + l).uniform((dn,)) < 0.5
                if not h.any():
                    h[0] = True
                if not m.any():
                    m[0] = True
                hm.append(h.astype(np.float64))
                nm.append(m.astype(np.float64))
                hc.append(int(h.sum()))
                nc.append(int(m.sum()))
            got = acs_total(cfg, MaskSet(hm, nm), plan).total
            want = brute_force_acs(cfg, hc, nc, plan)
            if got != want:
                _verdict(2, False,
                         f"N={n} D={d} d_n={dn} trial {trial}: "
                         f"formula {got} != counted {want}")
            checked += 1
    _verdict(2, True, f"exact match on {checked} random mask/plan combos "
                      f"across all N,D,d_n <= 8 [{time.time()-t0:.0f}s]")


def _exhaustive_best(scores, config, budget):
    """Minimum pruned importance over every feasible keep pattern."""
    plan = TimestepPlan.uniform(config.num_layers, config.t_conv)
    cap = budget * acs_baseline(config) * (1 + 1e-12)
    layer_opts = []
    for _ in range(config.num_layers):
        opts = []
        for hpat in itertools.product((0.0, 1.0), repeat=config.num_heads):
            if sum(hpat) == 0:
                continue
            for npat in itertools.product((0.0, 1.0),
                                          repeat=config.intermediate_size):
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
        if best is None or kept < best:
            best = kept
    return best


def test_criterion_03():
    """Greedy selection plus refinement reaches the exhaustive optimum."""
    t0 = time.time()
    configs = [
        tiny_config(num_layers=1, hidden_size=8, num_heads=2,
                    intermediate_size=6, seq_len=4),
        tiny_config(num_layers=2, hidden_size=4, num_heads=2,
                    intermediate_size=3, seq_len=4),
        tiny_config(num_layers=1, hidden_size=6, num_heads=3,
                    intermediate_size=9, seq_len=5),
    ]
    budget = 0.6
    trials = 0
    mismatches = []
    for ci, cfg in enumerate(configs):
        for trial in range(20):
            s = RandomStream(40 + ci).derive(trial)
            hf = [s.derive(l).uniform((cfg.num_heads,)) + 0.01
                  for l in range(cfg.num_layers)]
            nf = [s.derive(100 + l).uniform((cfg.intermediate_size,)) + 0.01
                  for l in range(cfg.num_layers)]
            ha = [s.derive(200 + l).uniform((cfg.num_heads,)) + 0.01
                  for l in range(cfg.num_layers)]
            na = [s.derive(300 + l).uniform((cfg.intermediate_size,)) + 0.01
                  for l in range(cfg.num_layers)]
            scores = combine((hf, nf), (ha, na))
            masks = refine_masks(
                select_masks(scores, cfg, cfg.t_conv, budget),
                scores, cfg, budget)
            got = pruned_importance(scores, masks)
            best = _exhaustive_best(scores, cfg, budget)
            trials += 1
            if abs(got - best) > 1e-12:
                mismatches.append((ci, trial, got, best))
    _verdict(3, not mismatches,
             f"{trials - len(mismatches)}/{trials} importance vectors reach "
             f"the enumerated optimum at budget {budget} "
             f"[{time.time()-t0:.0f}s]"
             + (f"; first miss {mismatches[0]}" if mismatches else ""))


def test_criterion_04():
    """Geometric allocation: worked values, max at full budget, invariances."""
    worked = timestep_allocation([3, 5], 1.02, 100)
    ok_worked = worked.tolist() == [96, 100]
    peak = timestep_allocation([2, 9, 4], 1.37, 83)
    ok_peak = peak[1] == 83 and peak.max() == 83
    mono = timestep_allocation([1, 2, 5, 5, 9], 1.2, 64)
    ok_mono = bool((np.diff(mono) >= 0).all())
    ok_shift = np.array_equal(timestep_allocation([4, 6, 11], 1.11, 57),
                              timestep_allocation([1004, 1006, 1011], 1.11, 57))
    _verdict(4, ok_worked and ok_peak and ok_mono and ok_shift,
             f"c=[3,5] base=1.02 T=100 -> {worked.tolist()} (want [96, 100]); "
             f"max-complexity at T_conv: {bool(ok_peak)}; monotone: {ok_mono}; "
             f"shift-invariant: {bool(ok_shift)}")


def test_criterion_05():
    """Event-driven simulation converges to the unrolled rates, per unit."""
    t0 = time.time()
    cfg = ModelConfig(num_layers=1, hidden_size=32, num_heads=4,
                      intermediate_size=64, seq_len=16, vocab_size=12,
                      num_classes=2, t_conv=40)
    batch = 16
    t_seq = 1000
    worst = 0.0
    for seed in range(5):
        master = RandomStream(100 + seed)
        model = init_model(cfg, master.derive(0))
        tokens = np.zeros((batch, cfg.seq_len), dtype=np.int64)
        tokens[:, 1:] = master.derive(1).integers(11, (batch, 15)) + 1
        ones = MaskSet.all_ones(model)
        _, tr1 = run_unrolled(model, ones, tokens, 3000)
        _, tr2 = run_unrolled(model, ones, tokens, 6000)
        plan = TimestepPlan.uniform(1, t_seq)
        _, trs = run_sequential(model, ones, plan, tokens, master.derive(7))
        for a, b, sq in zip(tr1, tr2, trs):
            # startup bias decays like 1/T: extrapolate the true fixed point
            ref = 2.0 * b.converged - a.converged
            band = np.abs(b.converged - a.converged)
            p = np.clip(ref, 0.0, 1.0)
            sigma = np.sqrt(2.0 * np.maximum(p * (1 - p), 0.0475)
                            / (t_seq * batch))
            tol = 3.0 * sigma + 2.0 * band + 2.0 / t_seq
            ratio = np.abs(sq.converged - ref) / tol
            worst = max(worst, float(ratio.max()))
    _verdict(5, worst <= 1.0,
             f"largest per-unit deviation {worst:.3f} of its 3-sigma bound "
             f"over 5 seeds x 6 sublayers [{time.time()-t0:.0f}s]")


def test_criterion_06(toy):
    """Toy pipeline: accurate baseline, cheap spatial prune, short timesteps."""
    t0 = time.time()
    rows = []
    for seed in (0, 1, 2):
        run = toy(seed)
        cfg, mcfg = run.cfg, run.mcfg
        fisher = fisher_diagonal(run.model, run.fisher_batches())
        _, traces = run_unrolled(run.model, run.masks,
                                 run.train_data.tokens[:32], mcfg.t_conv)
        scores = combine(fisher, asr_factors(traces, mcfg))
        pruned = refine_masks(
            select_masks(scores, mcfg, mcfg.t_conv, 0.6), scores, mcfg, 0.6)
        ratio = acs_total(mcfg, pruned, run.plan).ratio
        m_sp, k_sp, p_sp, _ = train(run.model, pruned, run.plan,
                                    run.train_data,
                                    cfg.train_config(seed=seed, epochs=4),
                                    eval_data=run.test_data)
        acc_spatial = _seq_accuracy(m_sp, k_sp, p_sp, run.test_data,
                                    run.eval_lane(1))
        _, traces2 = run_unrolled(m_sp, k_sp, run.train_data.tokens[:32],
                                  mcfg.t_conv)
        plan_t = allocate_timesteps(
            layer_importance(traces2, mcfg.variance_threshold),
            cfg.pca_base, mcfg.t_conv)
        m_t, k_t, p_t, _ = train(m_sp, k_sp, plan_t, run.train_data,
                                 cfg.train_config(seed=seed, epochs=4,
                                                  learning_rate=0.01),
                                 eval_data=run.test_data)
        acc_temporal = _seq_accuracy(m_t, k_t, p_t, run.test_data,
                                     run.eval_lane(2))
        good = (run.base_acc >= 0.90
                and run.base_acc - acc_spatial <= 0.05
                and ratio <= 0.60 + 1e-9
                and p_t.mean_timesteps() <= 0.8 * mcfg.t_conv
                and acc_spatial - acc_temporal <= 0.05)
        rows.append((seed, run.base_acc, acc_spatial, ratio, acc_temporal,
                     p_t.mean_timesteps(), good))
    passes = sum(r[-1] for r in rows)
    detail = "; ".join(
        f"seed {r[0]}: base={r[1]:.3f} spatial={r[2]:.3f}@ratio {r[3]:.3f} "
        f"temporal={r[4]:.3f}@t={r[5]:.1f} {'ok' if r[6] else 'MISS'}"
        for r in rows)
    _verdict(6, passes >= 2,
             f"{passes}/3 seeds meet every bar ({detail}) "
             f"[{time.time()-t0:.0f}s]")


def test_criterion_07(toy):
    """The activity loss lowers spiking rates and the normalized #C metric."""
    t0 = time.time()
    run = toy(0)
    cfg, mcfg = run.cfg, run.mcfg
    master = RandomStream(0)
    model0 = init_model(mcfg, master.derive(0))
    m_no, k_no, p_no, _ = train(
        model0, MaskSet.all_ones(model0),
        TimestepPlan.uniform(mcfg.num_layers, mcfg.t_conv),
        run.train_data, cfg.train_config(seed=0, eta=0.0),
        eval_data=run.test_data)

    groups = {"key_value": ("key", "value"), "attn": ("attn",),
              "fc": ("fc",), "inter_output": ("inter", "output")}

    def stats(model, masks, plan):
        _, traces = run_unrolled(model, masks, run.train_data.tokens[:64],
                                 mcfg.t_conv)
        conv = {t.name: t.converged for t in traces}
        means = {g: float(np.mean([conv[f"L{i}.{n}"].mean()
                                   for i in range(mcfg.num_layers)
                                   for n in names]))
                 for g, names in groups.items()}
        acs_list = per_sublayer_acs(mcfg, masks, plan)
        nc = normalized_c([float(conv[name].mean()) for name, _ in acs_list],
                          [v for _, v in acs_list])
        return means, nc

    g_eta, nc_eta = stats(run.model, run.masks, run.plan)
    g_no, nc_no = stats(m_no, k_no, p_no)
    lower = sorted(g for g in groups if g_eta[g] < g_no[g])
    ok = len(lower) >= 3 and nc_eta < nc_no
    _verdict(7, ok,
             f"rates lower with activity loss in {len(lower)}/4 groups "
             f"({', '.join(lower) or 'none'}); normalized #C "
             f"{nc_eta:.4f} vs {nc_no:.4f} without [{time.time()-t0:.0f}s]")


def test_criterion_08(toy):
    """Threshold-adaptive retraining recovers a quarter-timestep model."""
    t0 = time.time()
    rows = []
    for seed in (0, 1, 2):
        run = toy(seed)
        small = scale_plan(run.plan, 0.25)
        acc_scaled = _seq_accuracy(run.model, run.masks, small,
                                   run.test_data, run.eval_lane(1))
        rcfg = run.cfg.train_config(seed=seed + 1, epochs=4,
                                    learning_rate=0.01, adaptive_vth=True)
        m, k, p, _ = train(run.model, run.masks, small, run.train_data, rcfg,
                           eval_data=run.test_data)
        acc_adapt = _seq_accuracy(m, k, p, run.test_data, run.eval_lane(2))
        lost = run.base_acc - acc_scaled
        good = acc_adapt - acc_scaled >= 0.5 * lost
        rows.append((seed, run.base_acc, acc_scaled, acc_adapt, good))
    passes = sum(r[-1] for r in rows)
    detail = "; ".join(
        f"seed {r[0]}: full={r[1]:.3f} quarter={r[2]:.3f} "
        f"retrained={r[3]:.3f} {'ok' if r[4] else 'MISS'}" for r in rows)
    _verdict(8, passes >= 2,
             f"{passes}/3 seeds recover at least half the lost accuracy "
             f"({detail}) [{time.time()-t0:.0f}s]")


_PIPELINE_ARTIFACTS = (
    "model.json", "hist.csv", "spatial.json", "temporal.json",
    "retrain.json", "rhist.csv", "eval.json", "report/asr_layers.csv",
    "report/constraint_sweep.csv", "report/report.json", "ablate.json",
)


def _run_pipeline(root: str) -> None:
    steps = [
        ["train", "--config", "sst2_toy", "--out", f"{root}/model.json",
         "--epochs", "2", "--history", f"{root}/hist.csv"],
        ["prune-spatial", "--checkpoint", f"{root}/model.json",
         "--out", f"{root}/spatial.json"],
        ["prune-temporal", "--checkpoint", f"{root}/spatial.json",
         "--out", f"{root}/temporal.json"],
        ["retrain", "--checkpoint", f"{root}/temporal.json",
         "--config", "sst2_toy", "--out", f"{root}/retrain.json",
         "--epochs", "2", "--lr", "0.01", "--history", f"{root}/rhist.csv"],
        ["eval", "--checkpoint", f"{root}/retrain.json", "--data", "100",
         "--out", f"{root}/eval.json"],
        ["report", "--checkpoint", f"{root}/retrain.json",
         "--out-dir", f"{root}/report"],
        ["ablate", "--study", "activity", "--config", "sst2_toy",
         "--epochs", "1", "--out", f"{root}/ablate.json"],
    ]
    for argv in steps:
        rc = cli_main(argv)
        assert rc == 0, f"pipeline step failed: {argv}"


def test_criterion_09(tmp_path):
    """Re-running every CLI stage with the same seed reproduces each byte."""
    t0 = time.time()
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    a.mkdir()
    b.mkdir()
    _run_pipeline(str(a))
    _run_pipeline(str(b))
    diffs = [name for name in _PIPELINE_ARTIFACTS
             if (a / name).read_bytes() != (b / name).read_bytes()]
    _verdict(9, not diffs,
             f"{len(_PIPELINE_ARTIFACTS) - len(diffs)}/"
             f"{len(_PIPELINE_ARTIFACTS)} artifacts byte-identical across "
             f"reruns [{time.time()-t0:.0f}s]"
             + (f"; differing: {', '.join(diffs)}" if diffs else ""))


def test_criterion_10():
    """Normalized #C worked values: uniform middle rates 0.8, silence 0."""
    uniform = normalized_c([1.0] * 10, [7.0] * 10)
    silent = normalized_c([0.0] * 10, [3.0] * 10)
    ok = uniform == 0.8 and silent == 0.0
    _verdict(10, ok, f"uniform 10-sublayer value {uniform!r} (want 0.8 "
                     f"exactly); all-silent {silent!r} (want 0.0)")
