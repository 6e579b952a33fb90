"""Timestep allocation from the temporal complexity of rate traces.

A sublayer whose running average rates trace out a low-dimensional curve
settles quickly and can afford fewer timesteps. Complexity is measured as
the number of principal components needed to explain a variance fraction of
the trace matrix (timesteps x units); budgets decay geometrically with the
complexity gap to the most complex sublayer, which keeps its full T_conv.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .model import SUBLAYERS, TimestepPlan
from .numerics import pca_component_count

__all__ = ["layer_importance", "timestep_allocation", "allocate_timesteps",
           "scale_plan"]


def layer_importance(traces, variance_threshold: float) -> np.ndarray:
    """Per-sublayer PCA component counts of the cumulative-rate traces."""
    out = []
    for tr in traces:
        mat = np.asarray(tr.asr if hasattr(tr, "asr") else tr, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 2:
            name = getattr(tr, "name", "trace")
            raise InvalidInputError(f"{name}: need >= 2 timesteps for PCA")
        out.append(pca_component_count(mat, variance_threshold))
    if not out:
        raise InvalidInputError("no traces given")
    return np.array(out, dtype=np.int64)


def timestep_allocation(c, base: float, t_conv: int) -> np.ndarray:
    """Geometric timestep budgets: t_i = floor(base^(c_i - max c) * t_conv).

    Entries are clamped to >= 1; the largest-complexity entry gets exactly
    t_conv. Invariant to adding a constant to every c.
    """
    if not 1.0 < base < np.inf:
        raise InvalidInputError("base must be finite and greater than 1")
    if t_conv < 1:
        raise InvalidInputError("t_conv must be >= 1")
    carr = np.asarray(c, dtype=np.float64)
    if carr.size == 0:
        raise InvalidInputError("complexity list is empty")
    ratios = np.exp((carr - carr.max()) * np.log(base))
    return np.maximum(1, np.floor(ratios * t_conv)).astype(np.int64)


def allocate_timesteps(c, base: float, t_conv: int) -> TimestepPlan:
    """Allocation reshaped into a plan: c in trace order, 6 entries per layer.

    The attention entry also covers the query projection's timesteps, so
    nothing is allocated separately for queries.
    """
    values = timestep_allocation(c, base, t_conv)
    if values.size % len(SUBLAYERS) != 0:
        raise InvalidInputError(
            f"need a multiple of {len(SUBLAYERS)} sublayer entries, got {values.size}")
    return TimestepPlan(values.reshape(-1, len(SUBLAYERS)))


def scale_plan(plan: TimestepPlan, rho: float) -> TimestepPlan:
    """Uniformly shrink a plan: each t becomes max(1, floor(rho * t))."""
    if not (0.0 < rho <= 1.0):
        raise InvalidInputError("rho must be in (0, 1]")
    return TimestepPlan(np.maximum(1, np.floor(rho * plan.steps)).astype(np.int64))
