"""Measure the importance scores and rate traces the program produces.

  python3 perfbench/measure_inputs.py      # about a minute

Trains three checkpoints of mid.cfg exactly as the mid-prune-eval set-up does
(seeds 0, 1, 2) and three of the sst2_toy preset as toy-pipeline's `train`
does, computes Fisher x ASR scores and cumulative-rate traces the way
`prune-spatial` does (16 calibration examples in one batch for mid, as the
workload passes; the CLI defaults of 256 in batches of 32 for toy), and writes measured_inputs.json:

  mid       per seed: every head and neuron score by layer, the head width,
            and per sublayer the trace's covariance eigenvalue shares,
            variance per active unit, mean converged rate of the active
            units and share of silent (all-zero) units. prune-search builds
            its inputs from these by resampling.
  figures   summary figures for mid and toy: share of exact-zero scores,
            neuron-score quantiles over the median, and PCA component counts
            at the presets' variance threshold.

The JSON is committed; the benchmark only reads it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import env

env.pin_threads()
env.use_checkout_source()

import numpy as np  # noqa: E402

from spikeprune import cli  # noqa: E402
from spikeprune.engine import run_unrolled  # noqa: E402
from spikeprune.importance import asr_factors, combine, fisher_diagonal  # noqa: E402
from spikeprune.model import load_checkpoint  # noqa: E402
from spikeprune.numerics import RandomStream  # noqa: E402

import workloads  # noqa: E402

OUT = os.path.join(env.HERE, "measured_inputs.json")
SEEDS = (0, 1, 2)
VARIANCE = 0.99999


def _eigen_shares(asr: np.ndarray) -> np.ndarray:
    """Covariance eigenvalues of a (T x units) trace over their sum, descending.

    Computed from the singular values of the centred trace: the units x units
    covariance of a 32768-unit sublayer would not fit in memory.
    """
    centred = asr - asr.mean(axis=0)
    ev = np.linalg.svd(centred, compute_uv=False) ** 2
    return ev / ev.sum()


def _pca_count(shares: np.ndarray) -> int:
    # numerics.pca_component_count's rule, on precomputed shares
    return int(np.nonzero(np.cumsum(shares) + 1e-12 >= VARIANCE)[0][0]) + 1


def _measure(checkpoint: str, seed: int, calib: int, batch: int) -> dict:
    model, masks, _ = load_checkpoint(checkpoint)
    cfg = model.config
    data = cli._dataset_arg(str(calib), cfg, RandomStream(seed).derive(cli._LANE_CALIB))
    fisher = fisher_diagonal(model, cli._batches(data, batch))
    _, traces = run_unrolled(model, masks, data.tokens, cfg.t_conv)
    scores = combine(fisher, asr_factors(traces, cfg))
    sublayers = []
    for tr in traces:
        active = np.abs(tr.asr).max(axis=0) > 0
        shares = _eigen_shares(tr.asr)
        sublayers.append({
            "name": tr.name,
            "eigen_shares": [float(f"{s:.9g}") for s in shares[:cfg.t_conv - 1]],
            "unit_variance": float(tr.asr[:, active].var(axis=0, ddof=1).mean()),
            "mean_rate": float(tr.converged[active].mean()),
            "silent_share": float(1.0 - active.mean()),
            "pca_count": _pca_count(shares),
        })
    return {"seed": seed, "head_dim": cfg.head_dim,
            "heads": [[float(f"{v:.9g}") for v in h] for h in scores.head_scores],
            "neurons": [[float(f"{v:.9g}") for v in n] for n in scores.neuron_scores],
            "sublayers": sublayers}


def _figures(models: list) -> dict:
    heads = np.concatenate([np.ravel(h) for m in models for h in m["heads"]])
    neurons = np.concatenate([np.ravel(n) for m in models for n in m["neurons"]])
    median = np.median(neurons[neurons > 0])
    counts = [s["pca_count"] for m in models for s in m["sublayers"]]
    return {
        "head_zero_share": float(np.mean(heads == 0)),
        "neuron_zero_share": float(np.mean(neurons == 0)),
        "nonzero_neuron_quantiles_over_median": {
            q: float(np.quantile(neurons[neurons > 0], float(q)) / median)
            for q in ("0.1", "0.9", "0.99", "1.0")},
        "median_head_over_median_nonzero_neuron": float(np.median(heads) / median),
        "pca_counts": [min(counts), max(counts)],
        "silent_unit_share": [min(s["silent_share"] for m in models for s in m["sublayers"]),
                              max(s["silent_share"] for m in models for s in m["sublayers"])],
    }


def main() -> None:
    mid, toy = [], []
    os.makedirs(env.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.WORK) as tmp:
        for seed in SEEDS:
            workloads.prepare_mid(seed, tmp, tiny=False)
            mid.append(_measure(os.path.join(tmp, "model.json"), seed, 16, 16))
            path = os.path.join(tmp, "toy.json")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["train", "--config", "sst2_toy", "--out", path,
                               "--epochs", "2", "--seed", str(seed)])
            if rc != 0:
                raise SystemExit(f"toy training exited {rc}")
            toy.append(_measure(path, seed, 256, 32))
    figures = {"mid": _figures(mid), "toy": _figures(toy)}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"figures": figures, "mid": mid}, fh, separators=(",", ":"))
        fh.write("\n")
    print(json.dumps(figures, indent=1))
    print(f"wrote {OUT} ({os.path.getsize(OUT)} bytes)")


if __name__ == "__main__":
    main()
