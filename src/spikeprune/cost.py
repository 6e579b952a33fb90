"""Accumulation-operation (ACs) cost model and the normalized #C metric.

Costs count multiply-accumulate slots in the matrix products of one forward
pass, scaled by each sublayer's timestep budget. Per-head costs multiply by
the active head count, the feed-forward part by active intermediate
neurons, so the total is a function of (masks, plan) that pruning can push
below a budget. Embedding lookup and the classifier are outside the masks'
reach and are excluded.

Counts are computed in exact integer arithmetic when unit counts are
integers; fractional (or autodiff) unit counts flow through the same
formulas, which is how the trainer gets a differentiable cost penalty.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InvalidInputError
from .model import SUBLAYERS, MaskSet, ModelConfig, TimestepPlan

__all__ = [
    "AcsReport",
    "acs_total",
    "acs_value",
    "acs_baseline",
    "per_sublayer_acs",
    "unit_costs",
    "normalized_c",
    "cost_summary",
]


@dataclasses.dataclass
class AcsReport:
    total: float
    baseline: float
    ratio: float


def _plan_acs(config: ModelConfig, plan: TimestepPlan) -> list:
    """The cost formula paired with a plan, the one walk every count below
    reads: per layer, per sublayer in SUBLAYERS order, the unit kind it
    scales with and the ACs of one active unit of that kind over the
    sublayer's budget, as exact integers.

    A head costs its share of the key, value and query projections (the
    query runs inside the attention sublayer, on its timesteps), the two
    N x N attention products, and its W_O rows in fc. A neuron costs one
    column of W_inter and one row of W_out.
    """
    if plan.num_layers != config.num_layers:
        raise InvalidInputError("plan layer count does not match config")
    seq, d, hd = config.seq_len, config.hidden_size, config.head_dim
    ndh = seq * d * hd
    formula = (("heads", ndh), ("heads", ndh), ("heads", ndh + 2 * seq * seq * hd),
               ("heads", ndh), ("neurons", seq * d), ("neurons", seq * d))
    return [[(kind, acs * t) for (kind, acs), t in zip(formula, steps)]
            for steps in plan.steps.tolist()]


def _per_unit(config: ModelConfig, plan: TimestepPlan) -> list:
    """Per layer, (ACs of one head, ACs of one neuron) under the plan: each
    kind's sublayers summed, as exact integers."""
    return [tuple(sum(acs for k, acs in row if k == kind) for kind in ("heads", "neurons"))
            for row in _plan_acs(config, plan)]


def unit_costs(config: ModelConfig, plan: TimestepPlan):
    """Marginal ACs of one head / one neuron per layer under `plan`.

    Returns (head_costs, neuron_costs) as int64 arrays of length num_layers.
    """
    per_unit = _per_unit(config, plan)
    if max(max(row) for row in per_unit) >= 2 ** 63:
        raise InvalidInputError("one unit's ACs under the plan exceed int64")
    return tuple(np.array(kind, dtype=np.int64) for kind in zip(*per_unit))


def acs_value(config: ModelConfig, head_counts, neuron_counts, plan: TimestepPlan):
    """Total ACs M for given per-layer active unit counts (may be fractional)."""
    if len(head_counts) != config.num_layers or len(neuron_counts) != config.num_layers:
        raise InvalidInputError("unit counts must have one entry per layer")
    total = 0
    for (hc, nc), h, n in zip(_per_unit(config, plan), head_counts, neuron_counts):
        total = total + h * hc + n * nc
    return total


def acs_baseline(config: ModelConfig) -> int:
    """M(1, 1, T_conv): every unit active, every sublayer at T_conv."""
    plan = TimestepPlan.uniform(config.num_layers, config.t_conv)
    return acs_value(config, [config.num_heads] * config.num_layers,
                     [config.intermediate_size] * config.num_layers, plan)


def acs_total(config: ModelConfig, masks: MaskSet, plan: TimestepPlan) -> AcsReport:
    """Full cost report for binary masks under a timestep plan."""
    heads, neurons = masks.active_counts()
    if len(heads) != config.num_layers:
        raise InvalidInputError("mask layer count does not match config")
    total = acs_value(config, heads, neurons, plan)
    baseline = acs_baseline(config)
    return AcsReport(total, baseline, total / baseline)


def per_sublayer_acs(config: ModelConfig, masks: MaskSet, plan: TimestepPlan) -> list:
    """ACs attributed to each sublayer, in trace order (L0.key, L0.value, ...).

    The attention sublayer's share includes the query projection, which
    runs on its timesteps. Sums to acs_total().total exactly.
    """
    heads, neurons = masks.active_counts()
    out = []
    for l, row in enumerate(_plan_acs(config, plan)):
        active = {"heads": heads[l], "neurons": neurons[l]}
        for name, (kind, acs) in zip(SUBLAYERS, row):
            out.append((f"L{l}.{name}", active[kind] * acs))
    return out


def _mean_asr(entry) -> float:
    conv = getattr(entry, "converged", entry)
    return float(np.mean(np.asarray(conv, dtype=np.float64)))


def normalized_c(traces, layer_acs) -> float:
    """Activity-weighted fraction of operations relative to a dense pass.

    traces: per-sublayer AsrTrace objects (or plain rate arrays/scalars);
    layer_acs: matching per-sublayer ACs counts. The first sublayer (fed by
    the encoder input) and the last (nothing downstream) are excluded from
    the numerator: sum_{l=2}^{S-1} a_l * acs_{l+1} / sum_l acs_l in 1-based
    indexing.
    """
    acs = [float(a[1]) if isinstance(a, tuple) else float(a) for a in layer_acs]
    a_means = [_mean_asr(t) for t in traces]
    if len(acs) != len(a_means):
        raise InvalidInputError("traces and ACs lists must have equal length")
    s = len(acs)
    if s < 3:
        raise InvalidInputError("normalized_c needs at least 3 sublayers")
    denom = sum(acs)
    if denom <= 0:
        raise InvalidInputError("total ACs must be positive")
    num = sum(a_means[i] * acs[i + 1] for i in range(1, s - 1))
    return num / denom


def cost_summary(config: ModelConfig, masks: MaskSet, plan: TimestepPlan, rates) -> dict:
    """The run summary: ACs ratio, normalized #C and mean timesteps. rates maps
    each trace name (L0.key, L0.value, ...) to its rates or their mean."""
    acs_list = per_sublayer_acs(config, masks, plan)
    missing = [name for name, _ in acs_list if name not in rates]
    if missing:
        raise InvalidInputError(f"no rates for sublayers {missing}")
    return {
        "acs_ratio": acs_total(config, masks, plan).ratio,
        "normalized_c": normalized_c([rates[name] for name, _ in acs_list], acs_list),
        "mean_timesteps": plan.mean_timesteps(),
    }
