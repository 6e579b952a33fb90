"""Command-line pipeline over checkpoints: train, prune, retrain, eval, report.

Every command is deterministic for a given --seed: model init, synthetic
data, batch order, and the sequential simulator's spike draws all come from
counter-based streams, and output files are written with stable key order:
checkpoints (spikeprune/v2 JSON) hold every float array as its exact
little-endian bytes, CSV histories and eval reports repr-exact floats. So
reruns produce byte-identical files.

Exit codes: 0 success, 1 runtime failure (bad checkpoint, infeasible
budget, diverged training, I/O), 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, resolve_config
from .cost import acs_total, cost_summary
from .data import Dataset, gen_keyword_task, iter_batches, load_jsonl
from .engine import rate_proxy_forward, run_sequential, run_unrolled
from .errors import InvalidInputError, SpikePruneError
from .importance import asr_factors, combine, fisher_diagonal
from .model import (MaskSet, ModelConfig, TimestepPlan, _plan_to_dict, init_model,
                    load_checkpoint, save_checkpoint)
from .numerics import RandomStream
from .spatial import refine_masks, select_masks
from .temporal import allocate_timesteps, layer_importance, scale_plan
from .trainer import evaluate_proxy, train

HISTORY_COLUMNS = ("epoch", "loss", "accuracy", "acs_ratio", "normalized_c",
                   "mean_timesteps")

# stream lanes off the master seed, so commands sharing a seed share data
_LANE_INIT = 0
_LANE_TRAIN = 1
_LANE_TEST = 2
_LANE_CALIB = 3
_LANE_EVAL = 4


def _write_history_csv(path: str, history: list) -> None:
    cols = list(HISTORY_COLUMNS)
    if history:
        cols += [k for k in history[0] if k not in HISTORY_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in history:
            writer.writerow([row[c] for c in cols])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _gen_dataset(mcfg: ModelConfig, count: int, stream: RandomStream) -> Dataset:
    return gen_keyword_task(mcfg.vocab_size, mcfg.seq_len, count, stream)


def _synthetic_run(cfg: RunConfig, seed: int):
    """Fresh model plus synthetic train and test sets from one master seed."""
    mcfg = cfg.model_config()
    master = RandomStream(seed)
    return (master, init_model(mcfg, master.derive(_LANE_INIT)),
            _gen_dataset(mcfg, cfg.train_examples, master.derive(_LANE_TRAIN)),
            _gen_dataset(mcfg, cfg.test_examples, master.derive(_LANE_TEST)))


def _write_result(result: dict, path) -> None:
    """Print a JSON result and, when path is given, also write it there."""
    print(json.dumps(result, indent=2, sort_keys=True))
    if path:
        _write_json(path, result)


def _dataset_arg(spec: str, mcfg: ModelConfig, stream: RandomStream) -> Dataset:
    """A dataset argument is either a JSONL path or a synthetic example count."""
    if os.path.exists(spec):
        data = load_jsonl(spec, mcfg.seq_len, mcfg.vocab_size, mcfg.num_classes)
        if len(data) == 0:
            raise InvalidInputError(f"{spec}: no examples")
        return data
    try:
        count = int(spec)
    except ValueError:
        raise InvalidInputError(
            f"{spec!r} is neither a file nor an example count") from None
    if count < 1:
        raise InvalidInputError("example count must be positive")
    return _gen_dataset(mcfg, count, stream)


def _print_history(history: list) -> None:
    for row in history:
        print(f"epoch {row['epoch']}: loss={row['loss']:.4f} "
              f"accuracy={row['accuracy']:.4f} acs_ratio={row['acs_ratio']:.4f} "
              f"mean_timesteps={row['mean_timesteps']:.2f}")


def _unpruned(model):
    """All-ones masks and a uniform T_conv plan: the state before pruning."""
    return MaskSet.all_ones(model), TimestepPlan.uniform(model.config.num_layers,
                                                         model.config.t_conv)


def _importance_scores(model, masks, calib: Dataset, batch_size: int):
    """Importance scores on calib, and the calibration traces that weight them."""
    fisher = fisher_diagonal(model, iter_batches(calib, batch_size))
    _, traces = run_unrolled(model, masks, calib.tokens, model.config.t_conv)
    return combine(fisher, asr_factors(traces, model.config)), traces


def _group_asr(rates: dict, num_layers: int) -> dict:
    groups = {"key_value": ("key", "value"), "attn": ("attn",), "fc": ("fc",),
              "inter_output": ("inter", "output")}
    out = {}
    for label, names in groups.items():
        vals = [rates[f"L{i}.{n}"].mean() for i in range(num_layers) for n in names]
        out[label] = float(np.mean(vals))
    return out


def _unrolled_group_stats(model, masks, plan, tokens):
    """Converged simulated rates: (per-group means, normalized #C)."""
    _, traces = run_unrolled(model, masks, tokens, model.config.t_conv)
    conv = {tr.name: tr.converged for tr in traces}
    summary = cost_summary(model.config, masks, plan, conv)
    return _group_asr(conv, model.config.num_layers), summary["normalized_c"]


def _prune(scores, config: ModelConfig, budget: float) -> MaskSet:
    """Masks under the ACs budget: greedy selection, then swap refinement."""
    return refine_masks(select_masks(scores, config, config.t_conv, budget),
                        scores, config, budget)


def _sequential_eval(model, masks, plan, data: Dataset, stream: RandomStream, batch: int):
    """(accuracy, {trace name: mean converged rate}) of run_sequential over data.
    Example j draws from stream.derive(j), so batch sets only memory and speed."""
    hits, sums = 0, {}
    for first in range(0, len(data), batch):
        tokens, labels = data.tokens[first:first + batch], data.labels[first:first + batch]
        logits, traces = run_sequential(model, masks, plan, tokens, stream, first)
        hits += int((logits.argmax(axis=1) == labels).sum())
        for t in traces:
            sums[t.name] = sums.get(t.name, 0.0) + t.converged.mean() * len(labels)
    return hits / len(data), {name: total / len(data) for name, total in sums.items()}


def _seq_accuracy(model, masks, plan, data: Dataset, stream: RandomStream,
                  batch: int = 50) -> float:
    return _sequential_eval(model, masks, plan, data, stream.derive(0), batch)[0]


def _train_and_save(args, cfg: RunConfig, seed: int, model, masks, plan,
                    overrides: dict) -> int:
    """Shared tail of train and retrain: data, overrides, train, save, report."""
    mcfg = model.config
    master = RandomStream(seed)

    def data(spec, count, lane):
        stream = master.derive(lane)
        return _dataset_arg(spec, mcfg, stream) if spec else _gen_dataset(mcfg, count, stream)

    train_data = data(args.data, cfg.train_examples, _LANE_TRAIN)
    test_data = data(args.test_data, cfg.test_examples, _LANE_TEST)
    overrides.update(seed=seed, epochs=_epochs(args, cfg))
    for key, value in (("eta", args.eta), ("learning_rate", args.lr)):
        if value is not None:
            overrides[key] = value
    tcfg = cfg.train_config(**overrides)
    model, masks, plan, history = train(model, masks, plan, train_data, tcfg,
                                        eval_data=test_data)
    save_checkpoint(args.out, model, masks, plan)
    if args.history:
        _write_history_csv(args.history, history)
    _print_history(history)
    print(f"saved {args.out} (test accuracy {history[-1]['accuracy']:.4f})")
    return 0


def _epochs(args, cfg: RunConfig) -> int:
    """--epochs, else the config's epochs; training needs at least one."""
    epochs = args.epochs if args.epochs is not None else cfg.epochs
    if epochs < 1:
        raise InvalidInputError(
            f"{args.command} needs at least one epoch, got epochs = {epochs}")
    return epochs


def cmd_train(args) -> int:
    cfg = resolve_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    model = init_model(cfg.model_config(), RandomStream(seed).derive(_LANE_INIT))
    return _train_and_save(args, cfg, seed, model, *_unpruned(model), {})


def cmd_prune_spatial(args) -> int:
    model, masks, plan = load_checkpoint(args.checkpoint)
    master = RandomStream(args.seed)
    calib = _dataset_arg(args.calib, model.config, master.derive(_LANE_CALIB))
    scores, _ = _importance_scores(model, masks, calib, args.batch)
    refined = _prune(scores, model.config, args.constraint)
    save_checkpoint(args.out, model, refined, plan)
    report = acs_total(model.config, refined, plan)
    heads, neurons = refined.active_counts()
    print(f"acs_ratio={report.ratio:.6f} budget={args.constraint}")
    for i, (h, n) in enumerate(zip(heads, neurons)):
        print(f"layer {i}: heads {h}/{model.config.num_heads} "
              f"neurons {n}/{model.config.intermediate_size}")
    print(f"saved {args.out}")
    return 0


def _checked(what: str, parse, ok, rule: str):
    """argparse type: parse(value) must succeed ("invalid <what>") and pass ok,
    written so that NaN fails it (else the usage error `rule`)."""
    def check(value: str):
        try:
            parsed = parse(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {value!r}") from None
        if not ok(parsed):
            raise argparse.ArgumentTypeError(rule)
        return parsed
    return check


_batch_arg = _checked("batch", int, lambda n: n >= 1, "batch must be a positive integer")
_epochs_arg = _checked("epochs", int, lambda n: n >= 1, "epochs must be a positive integer")
_base_arg = _checked("base", float, lambda b: 1 < b < math.inf,
                     "base must be finite and greater than 1")
_rho_arg = _checked("rho", float, lambda r: 0 < r <= 1, "rho must be in (0, 1]")
_constraint_arg = _checked("constraint", float, lambda c: 0 < c <= 1,
                           "constraint must be in (0, 1]")
_variance_arg = _checked("variance", float, lambda v: 0 < v <= 1,
                         "variance must be in (0, 1]")


def cmd_prune_temporal(args) -> int:
    model, masks, plan = load_checkpoint(args.checkpoint)
    cfg = model.config
    base = args.base if args.base is not None else cfg.pca_base
    variance = args.variance if args.variance is not None else cfg.variance_threshold
    master = RandomStream(args.seed)
    calib = _dataset_arg(args.calib, cfg, master.derive(_LANE_CALIB))
    _, traces = run_unrolled(model, masks, calib.tokens, cfg.t_conv)
    c = layer_importance(traces, variance)
    new_plan = allocate_timesteps(c, base, cfg.t_conv)
    if args.rho < 1.0:
        new_plan = scale_plan(new_plan, args.rho)
    save_checkpoint(args.out, model, masks, new_plan)
    for tr, ci, ti in zip(traces, c, new_plan.flat()):
        print(f"{tr.name}: c={int(ci)} t={int(ti)}")
    print(f"mean timesteps: {plan.mean_timesteps():.2f} -> "
          f"{new_plan.mean_timesteps():.2f} (max {new_plan.max_timesteps()})")
    print(f"saved {args.out}")
    return 0


def cmd_retrain(args) -> int:
    model, masks, plan = load_checkpoint(args.checkpoint)
    cfg = resolve_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    overrides = {"adaptive_vth": not args.fixed_vth}
    if args.penalty_epochs is not None:
        overrides["penalty_epochs"] = args.penalty_epochs
    return _train_and_save(args, cfg, seed, model, masks, plan, overrides)


def cmd_eval(args) -> int:
    model, masks, plan = load_checkpoint(args.checkpoint)
    cfg = model.config
    master = RandomStream(args.seed)
    data = _dataset_arg(args.data, cfg, master.derive(_LANE_TEST))
    accuracy, rates = _sequential_eval(model, masks, plan, data,
                                       master.derive(_LANE_EVAL).derive(0), args.batch)
    _write_result({"accuracy": accuracy, **cost_summary(cfg, masks, plan, rates),
                   "examples": len(data)}, args.out)
    return 0


def cmd_report(args) -> int:
    model, masks, plan = load_checkpoint(args.checkpoint)
    cfg = model.config
    master = RandomStream(args.seed)
    calib = _dataset_arg(args.calib, cfg, master.derive(_LANE_CALIB))
    os.makedirs(args.out_dir, exist_ok=True)

    # rate-convergence curves from the scores' calibration traces: mean
    # cumulative firing rate per encoder layer
    scores, traces = _importance_scores(model, masks, calib, args.batch)
    per_layer = len(traces) // cfg.num_layers
    curve_path = os.path.join(args.out_dir, "asr_layers.csv")
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestep"] + [f"layer_{i}" for i in range(cfg.num_layers)])
        for t in range(cfg.t_conv):
            row = [t + 1]
            for i in range(cfg.num_layers):
                chunk = traces[i * per_layer:(i + 1) * per_layer]
                row.append(float(np.mean([tr.asr[t].mean() for tr in chunk])))
            writer.writerow(row)

    # accuracy and cost across spatial budgets, from one set of scores
    sweep_path = os.path.join(args.out_dir, "constraint_sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["constraint", "acs_ratio", "accuracy"])
        for constraint in [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
            swept = _prune(scores, cfg, constraint)
            ratio = acs_total(cfg, swept, plan).ratio
            acc = evaluate_proxy(model, swept, calib, args.batch)
            writer.writerow([constraint, ratio, acc])

    heads, neurons = masks.active_counts()
    _, rates = rate_proxy_forward(model, masks, calib.tokens)
    payload = {
        "config": cfg.to_dict(),
        "active_heads": heads,
        "active_neurons": neurons,
        "timestep_plan": _plan_to_dict(plan),
        "acs_total": acs_total(cfg, masks, plan).total,
        **cost_summary(cfg, masks, plan, rates),
        "proxy_accuracy": evaluate_proxy(model, masks, calib, args.batch),
    }
    _write_json(os.path.join(args.out_dir, "report.json"), payload)
    print(f"wrote {curve_path}, {sweep_path}, report.json")
    return 0


def _ablate_activity(cfg: RunConfig, seed: int, epochs: int) -> dict:
    results = {}
    for label, eta in (("with_activity", cfg.eta), ("without_activity", 0.0)):
        _, model, train_data, test_data = _synthetic_run(cfg, seed)
        tcfg = cfg.train_config(seed=seed, eta=eta, epochs=epochs)
        model, masks, plan, history = train(model, *_unpruned(model), train_data, tcfg,
                                            eval_data=test_data)
        groups, nc = _unrolled_group_stats(model, masks, plan,
                                           test_data.tokens[:64])
        results[label] = {
            "eta": eta,
            "accuracy": history[-1]["accuracy"],
            "group_asr": groups,
            "normalized_c": nc,
        }
    with_a = results["with_activity"]
    without = results["without_activity"]
    lower = [g for g in with_a["group_asr"]
             if with_a["group_asr"][g] < without["group_asr"][g]]
    results["asr_lower_groups"] = sorted(lower)
    results["normalized_c_lower"] = bool(
        with_a["normalized_c"] < without["normalized_c"])
    return results


def _ablate_adaptive_vth(cfg: RunConfig, seed: int, epochs: int) -> dict:
    master, model, train_data, test_data = _synthetic_run(cfg, seed)
    eval_lane = master.derive(_LANE_EVAL)
    masks, plan = _unpruned(model)
    tcfg = cfg.train_config(seed=seed, epochs=epochs)
    model, masks, plan, _ = train(model, masks, plan, train_data, tcfg,
                                  eval_data=test_data)
    base_acc = _seq_accuracy(model, masks, plan, test_data, eval_lane.derive(0))
    short = scale_plan(plan, cfg.rho if cfg.rho < 1 else 0.25)
    scaled_acc = _seq_accuracy(model, masks, short, test_data, eval_lane.derive(1))
    # retraining at a shortened plan runs against sampling noise; a gentler
    # step keeps the threshold updates from oscillating
    retrain_lr = min(cfg.learning_rate, 0.01)
    results = {"baseline_accuracy": base_acc,
               "scaled_accuracy": scaled_acc,
               "scaled_mean_timesteps": short.mean_timesteps(),
               "retrain_learning_rate": retrain_lr}
    lost = base_acc - scaled_acc
    for lane, (label, adaptive) in enumerate(
            (("adaptive_vth", True), ("fixed_vth", False)), start=2):
        rcfg = cfg.train_config(seed=seed + 1, adaptive_vth=adaptive,
                                learning_rate=retrain_lr, epochs=epochs)
        m, k, p, _ = train(model, masks, short, train_data, rcfg,
                           eval_data=test_data)
        acc = _seq_accuracy(m, k, p, test_data, eval_lane.derive(lane))
        results[label] = {
            "accuracy": acc,
            "recovered": acc - scaled_acc,
            "recovered_at_least_half": bool(acc - scaled_acc >= 0.5 * lost),
        }
    return results


def _ablate_joint(cfg: RunConfig, seed: int, epochs: int) -> dict:
    mcfg = cfg.model_config()
    _, model0, train_data, test_data = _synthetic_run(cfg, seed)
    ones, plan = _unpruned(model0)
    results = {}

    # two-stage: train, importance-prune to the budget, recover
    tcfg = cfg.train_config(seed=seed, epochs=epochs)
    model, masks, _, _ = train(model0, ones, plan, train_data, tcfg,
                               eval_data=test_data)
    calib = Dataset(train_data.tokens[:cfg.train_batch * 4],
                    train_data.labels[:cfg.train_batch * 4])
    scores, _ = _importance_scores(model, masks, calib, cfg.train_batch)
    pruned = _prune(scores, mcfg, cfg.acs_constraint)
    rcfg = cfg.train_config(seed=seed + 1, epochs=max(1, epochs // 2))
    model_a, masks_a, _, _ = train(model, pruned, plan, train_data, rcfg,
                                   eval_data=test_data)
    results["two_stage"] = {
        "accuracy": evaluate_proxy(model_a, masks_a, test_data, cfg.test_batch),
        "acs_ratio": acs_total(mcfg, masks_a, plan).ratio,
    }

    # joint: soft masks trained with the cost penalty from the start
    soft = MaskSet(ones.heads, ones.neurons,
                   [0.7 * h for h in ones.heads], [0.7 * n for n in ones.neurons])
    jcfg = cfg.train_config(seed=seed, epochs=epochs,
                            penalty_epochs=max(1, epochs // 2))
    model_b, masks_b, _, _ = train(model0, soft, plan, train_data, jcfg,
                                   eval_data=test_data)
    results["joint"] = {
        "accuracy": evaluate_proxy(model_b, masks_b, test_data, cfg.test_batch),
        "acs_ratio": acs_total(mcfg, masks_b, plan).ratio,
    }
    return results


def cmd_ablate(args) -> int:
    cfg = resolve_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    runners = {"activity": _ablate_activity,
               "adaptive-vth": _ablate_adaptive_vth,
               "joint": _ablate_joint}
    results = runners[args.study](cfg, seed, _epochs(args, cfg))
    results["study"] = args.study
    results["seed"] = seed
    _write_result(results, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeprune",
        description="Build, prune, and evaluate spiking transformer encoders.")
    sub = parser.add_subparsers(dest="command", required=True)

    # arguments shared by train/retrain, by checkpoint stages, by calibrating stages
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--config", required=True, help="config file or preset name")
    training.add_argument("--out", required=True, help="checkpoint path to write")
    training.add_argument("--seed", type=int, default=None)
    training.add_argument("--epochs", type=_epochs_arg, default=None)
    training.add_argument("--lr", type=float, default=None,
                          help="override the config learning rate")
    training.add_argument("--eta", type=float, default=None,
                          help="override the activity-loss weight")
    training.add_argument("--data", default=None,
                          help="training JSONL path or example count (default: config's count)")
    training.add_argument("--test-data", default=None)
    training.add_argument("--history", default=None, help="write per-epoch metrics CSV")
    stage = argparse.ArgumentParser(add_help=False)
    stage.add_argument("--checkpoint", required=True)
    stage.add_argument("--seed", type=int, default=0)
    calib = argparse.ArgumentParser(add_help=False)
    calib.add_argument("--calib", default="256",
                       help="calibration JSONL path or synthetic example count")

    p = sub.add_parser("train", parents=[training], help="train a model from scratch")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune-spatial", parents=[stage, calib],
                       help="mask heads and neurons to a budget")
    p.add_argument("--out", required=True)
    p.add_argument("--constraint", type=_constraint_arg, default=0.6,
                   help="ACs budget as a fraction of the dense cost")
    p.add_argument("--batch", type=_batch_arg, default=32)
    p.set_defaults(func=cmd_prune_spatial)

    p = sub.add_parser("prune-temporal", parents=[stage, calib],
                       help="allocate per-sublayer timesteps")
    p.add_argument("--out", required=True)
    p.add_argument("--base", type=_base_arg, default=None,
                   help="allocation base, must be > 1 (default: checkpoint value)")
    p.add_argument("--variance", type=_variance_arg, default=None,
                   help="explained-variance threshold (default: checkpoint value)")
    p.add_argument("--rho", type=_rho_arg, default=1.0,
                   help="extra uniform timestep scaling in (0, 1]")
    p.set_defaults(func=cmd_prune_temporal)

    p = sub.add_parser("retrain", parents=[training], help="continue training a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--penalty-epochs", type=int, default=None)
    p.add_argument("--fixed-vth", action="store_true",
                   help="freeze thresholds instead of training them")
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("eval", parents=[stage],
                       help="run the event-driven simulator on a test set")
    p.add_argument("--data", default="500",
                   help="test JSONL path or synthetic example count")
    p.add_argument("--batch", type=_batch_arg, default=128)
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[stage, calib],
                       help="write rate curves, budget sweep, and summary")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--batch", type=_batch_arg, default=32)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ablate", help="paired comparison studies")
    p.add_argument("--study", required=True,
                   choices=["activity", "adaptive-vth", "joint"])
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=_epochs_arg, default=None,
                   help="override epochs for quicker studies")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpikePruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
