"""The benchmark's three workloads.

Each workload has
  prepare(seed, out_dir, tiny)  set-up, run in a child process: writes inputs;
  Workload(seed, setup_dir, work_dir, tiny, manifest_path)  the timed side,
  in the run's process (min_ops: operations a run makes at least; setups:
  set-ups a run makes, whose median is setup_s):
    .op(i, tracer)   one closed-loop operation, returning an OpResult;
    .check(result)   the output checks, a list of failures (empty: passed);
    .stages(results) workload-specific stage figures for the report;
    .costs(result)   the exact cost counts (ACs ratio, normalized #C);
    .final_checkpoint(result)  the checkpoint the sublayer table describes.

Why these three:
  toy-pipeline    the documented user path: all seven CLI commands on the
                  sst2_toy preset. Training and autodiff dominate; every other
                  layer runs a little, including run_sequential under a
                  shortened timestep plan.
  mid-prune-eval  the mid-size config: prune-spatial then eval. Both
                  simulators, Fisher scoring and large JSON checkpoints
                  dominate; the trainer does nothing in the timed phase.
  prune-search    library calls only: mask search over report's budget
                  sweep and timestep allocation, on scores and rate traces
                  resampled from what mid checkpoints produce
                  (measured_inputs.json). Spatial and temporal/PCA do all the
                  work; simulators and trainer none.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from spikeprune import cli, cost, spatial, temporal
from spikeprune.config import resolve_config
from spikeprune.data import gen_keyword_task, save_jsonl
from spikeprune.engine import TimestepPlan
from spikeprune.importance import ImportanceScores
from spikeprune.model import MaskSet, ModelConfig
from spikeprune.numerics import RandomStream

from env import HERE

TINY_CFG = os.path.join(HERE, "tiny.cfg")
MID_CFG = os.path.join(HERE, "mid.cfg")
# lane of the benchmark's own eval set, clear of the CLI's lanes 0..4
_EVAL_LANE = 99


@dataclasses.dataclass
class OpResult:
    index: int
    stages: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)


def _cli(argv, log_path, tracer, stages) -> int:
    """One CLI command in this process, timed at the call boundary."""
    out = io.StringIO()
    name = argv[0]
    with tracer.span(f"cli.{name}"):
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        stages[name] = time.perf_counter() - start
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    return rc


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _eval_costs(result) -> dict:
    ev = result.outputs["eval"]
    return {"cost.acs_ratio": ev["acs_ratio"], "cost.normalized_c": ev["normalized_c"]}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- toy-pipeline ------------------------------------------------------------

TOY_ARTIFACTS = ("model.json", "hist.csv", "spatial.json", "temporal.json",
                 "retrain.json", "rhist.csv", "eval.json",
                 "report/asr_layers.csv", "report/constraint_sweep.csv",
                 "report/report.json", "ablate.json")


def _toy_sizes(tiny: bool) -> dict:
    if tiny:
        return {"config": TINY_CFG, "eval_examples": 40, "max_timesteps_share": 1.0}
    return {"config": "sst2_toy", "eval_examples": 400, "max_timesteps_share": 0.8}


def prepare_toy(seed: int, out_dir: str, tiny: bool) -> None:
    sizes = _toy_sizes(tiny)
    mcfg = resolve_config(sizes["config"]).model_config()
    data = gen_keyword_task(mcfg.vocab_size, mcfg.seq_len, sizes["eval_examples"],
                            RandomStream(seed).derive(_EVAL_LANE))
    save_jsonl(os.path.join(out_dir, "eval.jsonl"), data)


class ToyPipeline:
    constraint = 0.6
    quality_trained, quality_final = 0.95, 0.60
    # set-up is Python start and imports, about 0.3 s: seven of them steady
    # the median
    setups = 7
    # Which seed trains well changes the timestep plan and with it the
    # retrain and eval time by up to 1.7x; two pipelines, with CLI seeds
    # 2 * seed and 2 * seed + 1, halve that seed-to-seed variance.
    min_ops = 2

    def __init__(self, seed, setup_dir, work_dir, tiny, manifest_path):
        self.seed = seed
        self.sizes = _toy_sizes(tiny)
        self.cfg = resolve_config(self.sizes["config"])
        self.eval_data = os.path.join(setup_dir, "eval.jsonl")
        self.work_dir = work_dir
        self.manifest_path = manifest_path

    def op(self, i, tracer) -> OpResult:
        d = os.path.join(self.work_dir, f"op{i}")
        os.makedirs(d)
        c, s = self.sizes["config"], str(2 * self.seed + i)
        steps = [
            ["train", "--config", c, "--out", f"{d}/model.json", "--epochs", "2",
             "--history", f"{d}/hist.csv", "--seed", s],
            ["prune-spatial", "--checkpoint", f"{d}/model.json",
             "--out", f"{d}/spatial.json", "--seed", s],
            ["prune-temporal", "--checkpoint", f"{d}/spatial.json",
             "--out", f"{d}/temporal.json", "--seed", s],
            ["retrain", "--checkpoint", f"{d}/temporal.json", "--config", c,
             "--out", f"{d}/retrain.json", "--epochs", "2", "--lr", "0.01",
             "--history", f"{d}/rhist.csv", "--seed", s],
            ["eval", "--checkpoint", f"{d}/retrain.json", "--data", self.eval_data,
             "--out", f"{d}/eval.json", "--seed", s],
            ["report", "--checkpoint", f"{d}/retrain.json",
             "--out-dir", f"{d}/report", "--seed", s],
            ["ablate", "--study", "activity", "--config", c, "--epochs", "1",
             "--out", f"{d}/ablate.json", "--seed", s],
        ]
        result = OpResult(i, outputs={"dir": d, "rc": {}})
        for argv in steps:
            result.outputs["rc"][argv[0]] = _cli(argv, f"{d}/{argv[0]}.log",
                                                 tracer, result.stages)
        return result

    def check(self, result) -> list:
        d = result.outputs["dir"]
        bad = [f"{cmd} exited {rc}" for cmd, rc in result.outputs["rc"].items() if rc]
        if bad:
            return bad
        with open(f"{d}/eval.json", encoding="utf-8") as fh:
            ev = json.load(fh)
        histories = {}
        for name in ("hist", "rhist"):
            with open(f"{d}/{name}.csv", encoding="utf-8", newline="") as fh:
                histories[name] = list(csv.DictReader(fh))
        first_loss = float(histories["hist"][0]["loss"])
        last_loss = float(histories["rhist"][-1]["loss"])
        trained = float(histories["hist"][-1]["accuracy"])
        t_conv = self.cfg.t_conv
        # criterion 06's cost bars
        if not ev["acs_ratio"] <= self.constraint + 1e-9:
            bad.append(f"acs_ratio {ev['acs_ratio']} > {self.constraint}")
        if not ev["mean_timesteps"] <= self.sizes["max_timesteps_share"] * t_conv:
            bad.append(f"mean_timesteps {ev['mean_timesteps']} > "
                       f"{self.sizes['max_timesteps_share']} * {t_conv}")
        # Model quality. Two epochs leave some CLI seeds at chance, so the
        # failing bars are ones all 60 pipelines of CLI seeds 0 to 59 met
        # with a margin: over train and retrain the training loss fell
        # (retrain's last epoch below train's first, by 0.016 at least), and
        # a model that trained to 0.95 or more scored 0.75 or more after
        # pruning and retraining. A broken gradient fails the first; a
        # pruning or simulator path that leaves eval at chance the second.
        if not last_loss < first_loss:
            bad.append(f"training loss did not fall: train's first epoch {first_loss}, "
                       f"retrain's last {last_loss}")
        if trained >= self.quality_trained and not ev["accuracy"] >= self.quality_final:
            bad.append(f"trained to {trained} but final accuracy {ev['accuracy']} "
                       f"< {self.quality_final}")
        # criterion 06's accuracy bars (trained >= 0.90, two pruning stages
        # losing <= 0.05 each) are reported, not failed
        if not (trained >= 0.90 and ev["accuracy"] >= trained - 0.10):
            result.outputs["notes"] = [
                f"criterion 06 accuracy bars missed: trained {trained}, "
                f"final {ev['accuracy']} (CLI seed {2 * self.seed + result.index})"]
        digests = {name: _sha256(os.path.join(d, name)) for name in TOY_ARTIFACTS}
        path = f"{self.manifest_path}.op{result.index}.json"
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                first = json.load(fh)
            bad += [f"{name} sha256 differs from the first run with this seed"
                    for name in TOY_ARTIFACTS if digests[name] != first.get(name)]
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
            os.replace(path + ".tmp", path)
        result.outputs["eval"] = ev
        return bad

    def stages(self, results) -> dict:
        trained = 2 * 2 * self.cfg.train_examples      # train + retrain, 2 epochs each
        return {
            "train_examples_per_s": ("1/s", [trained / (r.stages["train"] + r.stages["retrain"])
                                             for r in results]),
            "eval_examples_per_s": ("1/s", [self.sizes["eval_examples"] / r.stages["eval"]
                                            for r in results]),
            "eval_accuracy": ("ratio", [r.outputs["eval"]["accuracy"] for r in results]),
        }

    def costs(self, result) -> dict:
        return _eval_costs(result)

    def final_checkpoint(self, result):
        return os.path.join(result.outputs["dir"], "retrain.json")


# -- mid-prune-eval ----------------------------------------------------------

def _mid_cfg(tiny: bool) -> str:
    return TINY_CFG if tiny else MID_CFG


def prepare_mid(seed: int, out_dir: str, tiny: bool) -> None:
    """Train the mid-size checkpoint briefly: one epoch of one batch."""
    argv = ["train", "--config", _mid_cfg(tiny), "--out",
            os.path.join(out_dir, "model.json"), "--epochs", "1", "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"set-up training exited {rc}")


class MidPruneEval:
    min_ops = 1
    setups = 3      # each trains and saves a 17.6 MB checkpoint, about 4 s
    constraint = 0.6
    # calibration and eval batch: 16 keeps a run near 35 s (32 took about 60 s)
    examples = 16

    def __init__(self, seed, setup_dir, work_dir, tiny, manifest_path):
        self.seed = seed
        self.checkpoint = os.path.join(setup_dir, "model.json")
        self.work_dir = work_dir

    def op(self, i, tracer) -> OpResult:
        d = os.path.join(self.work_dir, f"op{i}")
        os.makedirs(d)
        s, n = str(self.seed), str(self.examples)
        steps = [
            ["prune-spatial", "--checkpoint", self.checkpoint, "--out", f"{d}/spatial.json",
             "--calib", n, "--batch", n, "--constraint", str(self.constraint), "--seed", s],
            ["eval", "--checkpoint", f"{d}/spatial.json", "--data", n, "--batch", n,
             "--out", f"{d}/eval.json", "--seed", s],
        ]
        result = OpResult(i, outputs={"dir": d, "rc": {}})
        for argv in steps:
            result.outputs["rc"][argv[0]] = _cli(argv, f"{d}/{argv[0]}.log",
                                                 tracer, result.stages)
        return result

    def check(self, result) -> list:
        bad = [f"{cmd} exited {rc}" for cmd, rc in result.outputs["rc"].items() if rc]
        if bad:
            return bad
        with open(os.path.join(result.outputs["dir"], "eval.json"), encoding="utf-8") as fh:
            ev = json.load(fh)
        bad += [f"eval {k} = {v!r} is not finite" for k, v in ev.items() if not _finite(v)]
        if not ev.get("acs_ratio", math.inf) <= self.constraint + 1e-9:
            bad.append(f"acs_ratio {ev.get('acs_ratio')} > {self.constraint}")
        result.outputs["eval"] = ev
        return bad

    def stages(self, results) -> dict:
        return {"eval_examples_per_s": ("1/s", [self.examples / r.stages["eval"]
                                                for r in results])}

    def costs(self, result) -> dict:
        return _eval_costs(result)

    def final_checkpoint(self, result):
        return os.path.join(result.outputs["dir"], "spatial.json")


# -- prune-search ------------------------------------------------------------

# the sst2 preset's 12 layers x 12 heads; 32 neurons a layer keeps the model
# at 528 units, so that a run averages the search over seven or eight models
SEARCH_CONFIG = ModelConfig(num_layers=12, hidden_size=768, num_heads=12,
                            intermediate_size=32, seq_len=128, vocab_size=30522,
                            t_conv=85)
# one encoder layer whose traces are 768 (key, value, attn, fc, output) and
# 1536 (inter) columns wide: seq 8 x hidden 96, seq 8 x intermediate 192
ALLOC_CONFIG = ModelConfig(num_layers=1, hidden_size=96, num_heads=4,
                           intermediate_size=192, seq_len=8, vocab_size=64, t_conv=40)
TINY_SEARCH = ModelConfig(num_layers=2, hidden_size=8, num_heads=4,
                          intermediate_size=12, seq_len=4, vocab_size=8, t_conv=10)
TINY_ALLOC = ModelConfig(num_layers=1, hidden_size=8, num_heads=4,
                         intermediate_size=8, seq_len=4, vocab_size=8, t_conv=10)
# report's constraint sweep; refine_masks runs to convergence as every CLI
# command calls it, which takes 1 to 12 sweeps per budget
BUDGETS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
VARIANCE = 0.99999
BASE = 1.3
POOL = 16          # resampled models; operation i uses model i % POOL
MEASURED = os.path.join(HERE, "measured_inputs.json")


def _search_configs(tiny: bool):
    return (TINY_SEARCH, TINY_ALLOC) if tiny else (SEARCH_CONFIG, ALLOC_CONFIG)


def _trace_widths(cfg: ModelConfig):
    """Columns of each sublayer's trace, as run_unrolled would record them."""
    n, d, inter = cfg.seq_len, cfg.hidden_size, cfg.intermediate_size
    return [n * d, n * d, n * d, n * d, n * inter, n * d] * cfg.num_layers


def _trace(rng, measured: dict, width: int, t: int) -> np.ndarray:
    """A (t x width) trace with a measured sublayer's covariance spectrum.

    The active units vary along random orthonormal temporal and unit
    directions scaled by the measured eigenvalue shares and variance per
    unit, so the PCA count is the measured one wherever t and the width allow
    it. Each active unit is offset to the measured mean rate, or higher where
    that keeps it from going negative (an offset leaves the covariance
    unchanged); the measured share of silent units stays at zero.
    """
    active = rng.random(width) >= measured["silent_share"]
    n = int(active.sum())
    shares = np.asarray(measured["eigen_shares"])[:min(t - 1, n)]
    shares /= shares.sum()
    k = len(shares)
    temporal = rng.standard_normal((t, k))
    temporal, _ = np.linalg.qr(temporal - temporal.mean(axis=0))
    units, _ = np.linalg.qr(rng.standard_normal((n, k)))
    scale = np.sqrt(shares * measured["unit_variance"] * n * (t - 1))
    varying = (temporal * scale) @ units.T
    out = np.zeros((t, width))
    out[:, active] = varying + np.maximum(measured["mean_rate"], -varying.min(axis=0))
    return out


def prepare_search(seed: int, out_dir: str, tiny: bool) -> None:
    """Resample the measured mid-checkpoint scores and spectra into POOL models.

    Each model takes one measured checkpoint; each of its layers draws heads
    and neurons, with replacement, from one measured layer. Head scores are
    scaled by the ratio of head widths, since a head's mask gates head_dim
    channels.
    """
    search_cfg, alloc_cfg = _search_configs(tiny)
    with open(MEASURED, encoding="utf-8") as fh:
        sources = json.load(fh)["mid"]
    rng = np.random.default_rng(seed)
    arrays = {}
    for k in range(POOL):
        src = sources[rng.integers(len(sources))]
        head_scale = search_cfg.head_dim / src["head_dim"]
        for l in range(search_cfg.num_layers):
            j = rng.integers(len(src["heads"]))
            arrays[f"m{k}.h{l}"] = rng.choice(src["heads"][j], search_cfg.num_heads) * head_scale
            arrays[f"m{k}.n{l}"] = rng.choice(src["neurons"][j], search_cfg.intermediate_size)
        layers = rng.integers(len(src["heads"]), size=alloc_cfg.num_layers)
        for j, width in enumerate(_trace_widths(alloc_cfg)):
            measured = src["sublayers"][6 * layers[j // 6] + j % 6]
            arrays[f"m{k}.t{j}"] = _trace(rng, measured, width, alloc_cfg.t_conv)
    np.savez(os.path.join(out_dir, "inputs.npz"), **arrays)


class PruneSearch:
    min_ops = 1
    setups = 7

    def __init__(self, seed, setup_dir, work_dir, tiny, manifest_path):
        self.search_cfg, self.alloc_cfg = _search_configs(tiny)
        with np.load(os.path.join(setup_dir, "inputs.npz")) as z:
            arrays = {k: z[k] for k in z.files}
        self.models = []
        for k in range(POOL):
            heads = [arrays[f"m{k}.h{l}"] for l in range(self.search_cfg.num_layers)]
            neurons = [arrays[f"m{k}.n{l}"] for l in range(self.search_cfg.num_layers)]
            scores = ImportanceScores(heads, neurons, heads, neurons, heads, neurons)
            traces = [arrays[f"m{k}.t{j}"]
                      for j in range(len(_trace_widths(self.alloc_cfg)))]
            self.models.append((scores, traces))

    def op(self, i, tracer) -> OpResult:
        scores, traces = self.models[i % POOL]
        cfg = self.search_cfg
        searches = []
        t0 = time.perf_counter()
        for budget in BUDGETS:
            selected = spatial.select_masks(scores, cfg, cfg.t_conv, budget)
            refined = spatial.refine_masks(selected, scores, cfg, budget)
            searches.append((budget, selected, refined))
        t1 = time.perf_counter()
        c = temporal.layer_importance(traces, VARIANCE)
        plan = temporal.allocate_timesteps(c, BASE, self.alloc_cfg.t_conv)
        t2 = time.perf_counter()
        return OpResult(i, stages={"search": t1 - t0, "allocate": t2 - t1},
                        outputs={"scores": scores, "traces": traces,
                                 "searches": searches, "plan": plan})

    def check(self, result) -> list:
        out = result.outputs
        cfg = self.search_cfg
        dense_plan = TimestepPlan.uniform(cfg.num_layers, cfg.t_conv)
        bad = []
        for budget, selected, refined in out["searches"]:
            ratio = cost.acs_total(cfg, refined, dense_plan).ratio
            if not ratio <= budget * (1 + 1e-9):
                bad.append(f"masks use ACs ratio {ratio} over budget {budget}")
            before = spatial.pruned_importance(out["scores"], selected)
            after = spatial.pruned_importance(out["scores"], refined)
            # refinement only takes strictly improving moves; the slack covers
            # summation order in the recomputed totals
            if not after <= before + 1e-12 * max(1.0, abs(before)):
                bad.append(f"budget {budget}: refine raised pruned importance "
                           f"{before} -> {after}")
            heads, neurons = refined.active_counts()
            if min(heads) < 1 or min(neurons) < 1:
                bad.append(f"budget {budget}: a layer lost every head or neuron")
        steps = out["plan"].flat()
        t_conv = self.alloc_cfg.t_conv
        if steps.min() < 1 or steps.max() != t_conv:
            bad.append(f"plan entries span [{steps.min()}, {steps.max()}], "
                       f"want [1, {t_conv}] with max {t_conv}")
        return bad

    def stages(self, results) -> dict:
        return {"search_s": ("s", [r.stages["search"] for r in results]),
                "allocate_s": ("s", [r.stages["allocate"] for r in results])}

    def costs(self, result) -> dict:
        out = result.outputs
        cfg = self.search_cfg
        _, _, refined = out["searches"][BUDGETS.index(0.6)]
        ratio = cost.acs_total(cfg, refined, TimestepPlan.uniform(
            cfg.num_layers, cfg.t_conv)).ratio
        ones = MaskSet([np.ones(self.alloc_cfg.num_heads)],
                       [np.ones(self.alloc_cfg.intermediate_size)])
        acs = cost.per_sublayer_acs(self.alloc_cfg, ones, out["plan"])
        rates = [float(t[-1].mean()) for t in out["traces"]]
        return {"cost.acs_ratio": ratio,
                "cost.normalized_c": cost.normalized_c(rates, acs)}

    def final_checkpoint(self, result):
        return None


WORKLOADS = {
    "toy-pipeline": (prepare_toy, ToyPipeline),
    "mid-prune-eval": (prepare_mid, MidPruneEval),
    "prune-search": (prepare_search, PruneSearch),
}
