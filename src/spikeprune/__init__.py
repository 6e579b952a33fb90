"""Spiking transformer encoders with spatial and temporal pruning.

Build a model, train it on the differentiable rate proxy, mask attention
heads and hidden neurons to an accumulation-operation budget, shorten
per-sublayer timestep budgets from principal-component counts, and check
everything against the event-driven simulators.
"""

from .config import RunConfig, load_config, parse_config, resolve_config
from .cost import (AcsReport, acs_baseline, acs_total, cost_summary, normalized_c,
                   per_sublayer_acs, unit_costs)
from .data import Dataset, gen_keyword_task, iter_batches, label_for, load_jsonl, save_jsonl
from .engine import AsrTrace, rate_proxy_forward, run_sequential, run_unrolled
from .errors import (CheckpointError, InfeasibleBudgetError, InvalidInputError,
                     SpikePruneError, TrainingDivergedError)
from .importance import ImportanceScores, asr_factors, combine, fisher_diagonal
from .model import (SUBLAYERS, MaskSet, ModelConfig, SpikingModel, TimestepPlan,
                    init_model, load_checkpoint, save_checkpoint)
from .numerics import RandomStream, bernoulli_matrix, finite_difference_gradient, pca_component_count
from .spatial import pruned_importance, refine_masks, select_masks
from .temporal import allocate_timesteps, layer_importance, scale_plan, timestep_allocation
from .trainer import TrainConfig, evaluate_proxy, gradcheck, train

__version__ = "0.1.0"

__all__ = [
    "AcsReport", "AsrTrace", "CheckpointError", "Dataset", "ImportanceScores",
    "InfeasibleBudgetError", "InvalidInputError", "MaskSet",
    "ModelConfig", "RandomStream", "RunConfig", "SUBLAYERS", "SpikePruneError",
    "SpikingModel", "TimestepPlan", "TrainConfig", "TrainingDivergedError",
    "acs_baseline", "acs_total", "allocate_timesteps",
    "asr_factors", "bernoulli_matrix", "combine", "cost_summary",
    "evaluate_proxy", "finite_difference_gradient", "fisher_diagonal",
    "gen_keyword_task", "gradcheck", "init_model", "iter_batches", "label_for",
    "layer_importance", "load_checkpoint", "load_config",
    "load_jsonl", "normalized_c", "parse_config", "pca_component_count",
    "per_sublayer_acs", "pruned_importance", "rate_proxy_forward",
    "refine_masks", "resolve_config", "run_sequential", "run_unrolled",
    "save_checkpoint", "save_jsonl", "scale_plan", "select_masks",
    "timestep_allocation", "train", "unit_costs",
]
