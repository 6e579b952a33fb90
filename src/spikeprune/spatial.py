"""Budget-constrained mask search: greedy selection plus hill-climb refinement.

Choosing which heads and neurons to prune under an ACs budget is a knapsack:
each unit has an importance (keep value) and a marginal ACs cost. Selection
prunes the worst importance-per-AC units until the budget holds; refinement
then walks swap moves that strictly shrink the total pruned importance while
keeping the budget. Both stages keep at least one head and one neuron alive
in every layer, since an emptied layer would sever the forward pass.

At uniform timesteps every cost scales by the same t, so rankings and the
budget ratio are independent of t.
"""

from __future__ import annotations

import math

import numpy as np

from .cost import unit_costs
from .errors import InfeasibleBudgetError, InvalidInputError
from .importance import ImportanceScores
from .model import MaskSet, ModelConfig, TimestepPlan

__all__ = ["select_masks", "refine_masks", "pruned_importance"]

_HEAD, _NEURON = 0, 1


class _Search:
    """Mutable kept/pruned state shared by selection and refinement.

    Units are laid out layer by layer, each layer's heads before its neurons;
    a unit's id is its position in that order and indexes every array here.
    """

    def __init__(self, scores: ImportanceScores, config: ModelConfig, t_uniform: int,
                 budget: float):
        if not (0.0 < budget <= 1.0):
            raise InvalidInputError("budget must be in (0, 1]")
        if len(scores.head_scores) != config.num_layers:
            raise InvalidInputError("scores layer count does not match config")
        plan = TimestepPlan.uniform(config.num_layers, max(1, int(t_uniform)))
        head_cost, neuron_cost = unit_costs(config, plan)
        # a uniform plan gives every head one cost and every neuron one cost;
        # the rebalance sweep's prefix scans depend on it
        assert (head_cost == head_cost[0]).all() and (neuron_cost == neuron_cost[0]).all()
        self.kind_cost = (int(head_cost[0]), int(neuron_cost[0]))
        groups = [np.asarray(g, dtype=np.float64)
                  for pair in zip(scores.head_scores, scores.neuron_scores) for g in pair]
        self.sizes = [len(g) for g in groups]
        self.score = np.concatenate(groups)
        if not np.all(np.isfinite(self.score)):
            raise InvalidInputError("importance scores must be finite")
        if np.any(self.score < 0):
            raise InvalidInputError("importance scores must be non-negative")
        num_layers = config.num_layers
        self.layer = np.repeat(np.repeat(np.arange(num_layers), 2), self.sizes)
        self.kind = np.repeat(np.tile([_HEAD, _NEURON], num_layers), self.sizes)
        self.cost = np.array(self.kind_cost, dtype=np.int64)[self.kind]
        self.kept = np.ones(len(self.score), dtype=bool)
        self.total = int(self.cost.sum())
        self.baseline = self.total
        # relative slack absorbs float rounding in budget * baseline
        self.cap = budget * self.baseline * (1.0 + 1e-12)
        self.count = np.array(self.sizes, dtype=np.int64).reshape(num_layers, 2)

    def fits(self, new_total: int) -> bool:
        return new_total <= self.cap

    def floor(self) -> np.ndarray:
        """Units that are the last kept one of their (layer, kind) group."""
        return self.count[self.layer, self.kind] <= 1

    def set_kept(self, uids, keep: bool) -> None:
        """Flip `uids` (an id or an id array, all currently the other state)."""
        sign = 1 if keep else -1
        self.kept[uids] = keep
        self.total += sign * int(self.cost[uids].sum())
        np.add.at(self.count, (self.layer[uids], self.kind[uids]), sign)

    def removable(self, uids: np.ndarray) -> np.ndarray:
        """`uids` less the last of each (layer, kind) group among them.

        When `uids` holds every kept unit of its groups, pruning any prefix of
        the result in order leaves a unit alive in every group.
        """
        group = self.layer[uids] * 2 + self.kind[uids]
        last = np.full(self.count.size, -1)
        np.maximum.at(last, group, np.arange(len(uids)))
        keep = np.ones(len(uids), dtype=bool)
        keep[last[last >= 0]] = False
        return uids[keep]

    def to_masks(self) -> MaskSet:
        parts = np.split(self.kept.astype(np.float64), np.cumsum(self.sizes)[:-1])
        return MaskSet(parts[0::2], parts[1::2])

    def load_masks(self, masks: MaskSet) -> None:
        groups = [g for pair in zip(masks.heads, masks.neurons) for g in pair]
        if [len(g) for g in groups] != self.sizes:
            raise InvalidInputError("masks do not match the scores' shapes")
        self.set_kept(np.flatnonzero(np.concatenate(groups) == 0.0), False)


def _first(mask: np.ndarray, start: int) -> int:
    """Index of the first True of `mask` at or after `start`, or -1."""
    hits = np.flatnonzero(mask[start:])
    return start + int(hits[0]) if hits.size else -1


def select_masks(scores: ImportanceScores, config: ModelConfig, t_uniform: int,
                 budget: float) -> MaskSet:
    """Prune lowest importance-per-AC units until ACs ratio <= budget.

    Candidates are sorted ascending by score/cost (ties: lower layer, heads
    before neurons, lower unit index). Raises InfeasibleBudgetError when
    even one head plus one neuron per layer exceeds the budget.
    """
    st = _Search(scores, config, t_uniform, budget)
    # unit ids already run in (layer, kind, index) order, so a stable sort
    # breaks ties as documented
    cands = st.removable(np.argsort(st.score / st.cost, kind="stable"))
    freed = np.concatenate(([0], np.cumsum(st.cost[cands])))
    fitting = np.flatnonzero(st.total - freed <= math.floor(st.cap))
    st.set_kept(cands[:int(fitting[0]) if fitting.size else cands.size], False)
    if not st.fits(st.total):
        floor = st.total / st.baseline
        raise InfeasibleBudgetError(
            f"budget {budget} infeasible: keeping one head and one neuron per "
            f"layer already needs ratio {floor:.6f}")
    return st.to_masks()


def _sweep_unprune(st: _Search) -> bool:
    changed = False
    for uid in np.flatnonzero(~st.kept & (st.score > 0.0)).tolist():
        if st.fits(st.total + int(st.cost[uid])):
            st.set_kept(uid, True)
            changed = True
    return changed


def _sweep_swaps(st: _Search) -> bool:
    """1-for-1 swaps, any layer or kind: keep the more important unit.

    Kept units are visited in id order; each swaps with the first pruned unit
    of higher score that fits in its place. Whether a swap fits depends only
    on the two kinds, so between moves one scan finds the next unit to move.
    """
    changed, start = False, 0
    while True:
        pruned = ~st.kept
        fit = np.array([[st.fits(st.total - cu + cv) for cv in st.kind_cost]
                        for cu in st.kind_cost])
        best = np.array([st.score[pruned & (st.kind == k)].max(initial=-np.inf)
                         for k in (_HEAD, _NEURON)])
        # highest score a unit of each kind could be swapped for
        reach = np.where(fit, best, -np.inf).max(axis=1)
        uid = _first(st.kept & ~st.floor() & (st.score < reach[st.kind]), start)
        if uid < 0:
            return changed
        vid = _first(pruned & (st.score > st.score[uid]) & fit[st.kind[uid]][st.kind], 0)
        st.set_kept(uid, False)
        st.set_kept(vid, True)
        changed, start = True, uid + 1


def _sweep_rebalance(st: _Search, ascending: np.ndarray, descending: np.ndarray) -> bool:
    """Trade one head against the ACs-equivalent set of neurons, both ways.

    `ascending`/`descending` hold the neuron ids by (score, layer, index) and
    (-score, layer, index). A head goes when the best pruned neurons that fit
    in its place sum to more than its score; a pruned head returns when the
    worst kept neurons that free its cost sum to less. All neurons cost the
    same, so both sets are prefixes of one order, and they change only when a
    move is made. Sums are taken left to right, as a running total would.
    """
    head_cost, neuron_cost = st.kind_cost
    heads = st.kind == _HEAD
    changed = False
    # head out, neurons in
    start = 0
    while True:
        take = descending[~st.kept[descending] & (st.score[descending] > 0.0)]
        slack = st.cap - (st.total - head_cost)
        # k neurons fit iff k * cost <= slack, i.e. k <= floor(slack) // cost
        take = take[:max(0, math.floor(slack) // neuron_cost)]
        if not take.size:
            break
        gain = np.cumsum(st.score[take])[-1]
        uid = _first(heads & st.kept & ~st.floor() & (st.score < gain), start)
        if uid < 0:
            break
        st.set_kept(uid, False)
        st.set_kept(take, True)
        changed, start = True, uid + 1
    # neurons out, head in
    start = 0
    while True:
        drop = st.removable(ascending[st.kept[ascending]])
        needed = (st.total + head_cost) - st.cap
        # fewest neurons with count * cost >= needed, in exact integers
        count = max(0, -(-math.ceil(needed) // neuron_cost))
        if count > drop.size:
            break
        drop = drop[:count]
        lost = np.cumsum(st.score[drop])[-1] if count else 0.0
        vid = _first(heads & ~st.kept & (st.score > lost), start)
        if vid < 0:
            break
        st.set_kept(drop, False)
        st.set_kept(vid, True)
        changed, start = True, vid + 1
    return changed


def refine_masks(masks: MaskSet, scores: ImportanceScores, config: ModelConfig,
                 budget: float, max_iters: int = 100) -> MaskSet:
    """Hill-climb from feasible masks, strictly decreasing pruned importance.

    Neighborhood per sweep: re-add pruned units that now fit, 1-for-1 swaps
    (same kind or across kinds and layers), and head-versus-neuron-set
    rebalances. Each sweep recomputes its candidates once per move, not once
    per unit visited. Stops at a local optimum or after max_iters sweeps;
    output never violates the budget and never has higher pruned importance
    than the input.
    """
    st = _Search(scores, config, 1, budget)
    st.load_masks(masks)
    if not st.fits(st.total):
        raise InvalidInputError("input masks do not satisfy the budget")
    neurons = np.flatnonzero(st.kind == _NEURON)
    ascending = neurons[np.argsort(st.score[neurons], kind="stable")]
    descending = neurons[np.argsort(-st.score[neurons], kind="stable")]
    for _ in range(max_iters):
        changed = _sweep_unprune(st)
        changed = _sweep_swaps(st) or changed
        changed = _sweep_rebalance(st, ascending, descending) or changed
        if not changed:
            break
    return st.to_masks()


def pruned_importance(scores: ImportanceScores, masks: MaskSet) -> float:
    """Sum of importance over pruned units (the refinement objective)."""
    total = 0.0
    for group, score_group in ((masks.heads, scores.head_scores),
                               (masks.neurons, scores.neuron_scores)):
        for m, s in zip(group, score_group):
            total += float(np.asarray(s)[np.asarray(m) == 0.0].sum())
    return total
