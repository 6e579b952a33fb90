"""Shared helpers: tiny model factories, an instrumented MAC counter, a
reference mask search and `traced`, a call's traced memory.

The counter is the independent route for checking the closed-form ACs
formulas: it walks the per-timestep dataflow and tallies multiply-accumulate
slots for every matrix product the masked forward pass would execute.

The reference search is the plain-Python selection and refinement, one
object per unit and one candidate scan per unit visited; `spatial`'s array
search must return the same masks.

The reference simulators run the full-width model under masks: pruned
heads zeroed inside the attention current, pruned neurons in the inter
spike sum, so a pruned head's key and value units still integrate and
spike. They step LIF themselves, with `reference_lif_step`, a copy of the
update kept apart from `engine._Population`, the one the simulators use.
The reference sequential simulator also materialises every sublayer's
whole spike train, (batch, t, seq, units), one reference_bernoulli_matrix
call per sample, and takes running means with a cumsum over the time axis.
`engine`'s simulators, which run the model sliced to its kept units, must
return the same logits and the same traces with pruned units read as 0.

The reference Bernoulli sampler is the float-compare matrix sampler that
predates `numerics`' kernel: it builds every draw's counter offset, mixes
every unit, p 0 and 1 included, and compares `bits >> 11 < p * 2**53` in
float. It is kept verbatim with its own word helpers, so the kernel, its
planes and its counts are never checked only against themselves.

The reference checkpoint functions write and read the decimal-text
spikeprune/v1 layout with every LayerParams field spelled out by hand; they
are the value oracle for `model`'s spikeprune/v2 files, whose round trip must
give every array the same bytes as theirs.

The reference backward sweeps the whole graph, constants included, and
starts every node's gradient from zeros; `autodiff.backward`, which visits
only nodes that need a gradient and borrows first contributions, must give
every trainable leaf the same bytes.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np

from spikeprune import (SUBLAYERS, AsrTrace, CheckpointError, ImportanceScores,
                        InfeasibleBudgetError, InvalidInputError, MaskSet,
                        ModelConfig, RandomStream, SpikingModel, TimestepPlan,
                        init_model)
from spikeprune.model import LayerParams, _need, _plan_to_dict
from spikeprune.cost import unit_costs
from spikeprune.engine import (_MEAN, _NP_OPS, _RATES, _SPIKES, _input_currents,
                               _layer_stages)
from spikeprune.numerics import _GAMMA, _mix64


def traced(call) -> tuple:
    """(call(), net, peak): the traced bytes the call left allocated and
    the most it held at once, both over what was traced when it began.

    Tracing starts and stops around the call unless it is already on; a
    traced call may so trace another, whose figures then count what it
    frees of the outer call's allocations, and which resets the peak.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return value, current - start, peak - start


def tiny_config(**overrides) -> ModelConfig:
    """1-layer model small enough for finite-difference sweeps."""
    kwargs = dict(num_layers=1, hidden_size=8, num_heads=2,
                  intermediate_size=6, seq_len=4, vocab_size=8,
                  num_classes=2, t_conv=10)
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def tiny_model(seed: int = 0, **overrides):
    cfg = tiny_config(**overrides)
    return init_model(cfg, RandomStream(seed))


def _words(seeds: np.ndarray, counters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Unmixed words of draws counter+k, k in offsets, of each (seed, counter)
    stream: (rows, offsets.size) uint64."""
    steps = np.multiply(offsets, _GAMMA, out=offsets)
    z = np.empty((seeds.size, steps.size), dtype=np.uint64)
    np.add((seeds + counters * _GAMMA)[:, None], steps, out=z)
    return z


def _splitmix(seeds: np.ndarray, counters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Draws counter+k, k in offsets, of each (seed, counter) stream: (rows, offsets.size) uint64."""
    return _mix64(_words(seeds, counters, offsets))


def reference_bernoulli_matrix(p, t: int, stream, *, keep=None) -> np.ndarray:
    """Sample a (t x units) binary matrix, column j ~ Bernoulli(p[j]) i.i.d.

    p may have any shape; it is flattened to the unit axis. p == 0 and
    p == 1 are exact (never / always spike), not merely almost sure. Entry
    (tau, j) is 1.0 where draw tau * units + j of the stream, as a uniform
    u in [0, 1), is below p[j]; the stream advances by t * units.

    stream may also be a sequence of streams, one per row of p: p is then
    (rows, ...) and the result (rows, t, units), row i equal to
    bernoulli_matrix(p[i], t, stream[i]), drawn in one pass.

    keep, a boolean vector, says that p's last axis holds only the kept
    columns of a wider array whose last axis keep spans. Each kept unit
    takes the draw it has in the wider array and the stream advances as far
    as the wider array's draws take it, so
    bernoulli_matrix(q[..., keep], t, s, keep=keep) equals
    bernoulli_matrix(q, t, s) at the kept units; no other unit is drawn.
    """
    single = isinstance(stream, RandomStream)
    streams = [stream] if single else list(stream)
    probs = np.asarray(p, dtype=np.float64)
    if single:
        probs = probs[None]
    elif probs.ndim < 1 or probs.shape[0] != len(streams):
        raise InvalidInputError(
            f"need one stream per row of p, got {len(streams)} for shape {probs.shape}")
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    t = int(t)
    # offsets: the 1-based draw index of each (timestep, unit) in its stream
    if keep is None:
        width = units = math.prod(probs.shape[1:])
        offsets = np.arange(1, t * units + 1, dtype=np.uint64)
    else:
        keep = np.asarray(keep, dtype=bool)
        kept = np.flatnonzero(keep).astype(np.uint64)
        if keep.ndim != 1 or probs.ndim < 2 or probs.shape[-1] != kept.size:
            raise InvalidInputError(
                f"p's last axis must hold the {kept.size} kept units, got shape {probs.shape}")
        planes = math.prod(probs.shape[1:-1])
        width, units = planes * keep.size, planes * kept.size
        columns = (np.arange(planes, dtype=np.uint64)[:, None] * np.uint64(keep.size)
                   + kept).ravel()
        offsets = (np.arange(t, dtype=np.uint64)[:, None] * np.uint64(width)
                   + columns + np.uint64(1)).ravel()
    rows = len(streams)
    probs = probs.reshape(rows, units)
    # min and max propagate NaN, which fails both comparisons
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise InvalidInputError("probabilities must be finite and lie in [0, 1]")
    bits = _splitmix(np.array([s.seed for s in streams], dtype=np.uint64),
                     np.array([s.counter for s in streams], dtype=np.uint64),
                     offsets).reshape(rows, t, units)
    for s in streams:
        s.counter += t * width
    bits >>= np.uint64(11)
    out = np.empty((rows, t, units))
    # u = bits * 2**-53 < p  <=>  bits < p * 2**53: both scalings are exact
    np.less(bits, probs[:, None, :] * 2.0 ** 53, out=out)
    return out[0] if single else out


def token_batch(config: ModelConfig, batch: int, stream: RandomStream):
    """Random token rows with the reserved zero slot at position 0."""
    tokens = np.zeros((batch, config.seq_len), dtype=np.int64)
    tokens[:, 1:] = stream.integers(config.vocab_size - 1,
                                    (batch, config.seq_len - 1)) + 1
    labels = stream.integers(config.num_classes, (batch,))
    return tokens, labels


class MacCounter:
    """Tallies multiply-accumulate slots of declared matrix products."""

    def __init__(self):
        self.total = 0

    def matmul(self, rows: int, inner: int, cols: int) -> None:
        self.total += rows * inner * cols


def brute_force_acs(config: ModelConfig, head_keep, neuron_keep, plan) -> int:
    """Walk the masked forward pass timestep by timestep, counting MACs.

    head_keep/neuron_keep are per-layer kept-unit counts. Pruned heads and
    neurons execute nothing; the query projection runs once per attention
    timestep. Mirrors the dataflow, not the cost formulas.
    """
    n = config.seq_len
    d = config.hidden_size
    hd = config.head_dim
    counter = MacCounter()
    for l in range(config.num_layers):
        h = int(head_keep[l])
        dn = int(neuron_keep[l])
        for _ in range(plan.get(l, "key")):
            for _ in range(h):
                counter.matmul(n, d, hd)
        for _ in range(plan.get(l, "value")):
            for _ in range(h):
                counter.matmul(n, d, hd)
        for _ in range(plan.get(l, "attn")):
            for _ in range(h):
                counter.matmul(n, d, hd)      # query projection
                counter.matmul(n, hd, n)      # scores
                counter.matmul(n, n, hd)      # context
        for _ in range(plan.get(l, "fc")):
            counter.matmul(n, h * hd, d)
        for _ in range(plan.get(l, "inter")):
            counter.matmul(n, d, dn)
        for _ in range(plan.get(l, "output")):
            counter.matmul(n, dn, d)
    return counter.total


# --- reference mask search ---------------------------------------------------

_HEAD, _NEURON = 0, 1


@dataclasses.dataclass
class _RefUnit:
    layer: int
    kind: int
    index: int
    score: float
    cost: int


class _RefSearch:
    """Kept/pruned state of the reference search, one object per unit."""

    def __init__(self, scores: ImportanceScores, config: ModelConfig, t_uniform: int,
                 budget: float):
        if not (0.0 < budget <= 1.0):
            raise InvalidInputError("budget must be in (0, 1]")
        if len(scores.head_scores) != config.num_layers:
            raise InvalidInputError("scores layer count does not match config")
        plan = TimestepPlan.uniform(config.num_layers, max(1, int(t_uniform)))
        head_cost, neuron_cost = unit_costs(config, plan)
        self.units = []
        for l in range(config.num_layers):
            for i, s in enumerate(np.asarray(scores.head_scores[l], dtype=np.float64)):
                self.units.append(_RefUnit(l, _HEAD, i, float(s), int(head_cost[l])))
            for j, s in enumerate(np.asarray(scores.neuron_scores[l], dtype=np.float64)):
                self.units.append(_RefUnit(l, _NEURON, j, float(s), int(neuron_cost[l])))
        if any(u.score < 0 for u in self.units):
            raise InvalidInputError("importance scores must be non-negative")
        self.kept = np.ones(len(self.units), dtype=bool)
        self.total = sum(u.cost for u in self.units)
        self.baseline = self.total
        # relative slack absorbs float rounding in budget * baseline
        self.cap = budget * self.baseline * (1.0 + 1e-12)
        self.kept_count = {}
        for u in self.units:
            key = (u.layer, u.kind)
            self.kept_count[key] = self.kept_count.get(key, 0) + 1

    def fits(self, new_total: float) -> bool:
        return new_total <= self.cap

    def is_floor(self, u: _RefUnit) -> bool:
        return self.kept_count[(u.layer, u.kind)] <= 1

    def prune(self, uid: int) -> None:
        u = self.units[uid]
        self.kept[uid] = False
        self.total -= u.cost
        self.kept_count[(u.layer, u.kind)] -= 1

    def unprune(self, uid: int) -> None:
        u = self.units[uid]
        self.kept[uid] = True
        self.total += u.cost
        self.kept_count[(u.layer, u.kind)] += 1

    def to_masks(self, scores: ImportanceScores) -> MaskSet:
        heads = [np.ones(len(h)) for h in scores.head_scores]
        neurons = [np.ones(len(n)) for n in scores.neuron_scores]
        for uid, u in enumerate(self.units):
            if not self.kept[uid]:
                (heads if u.kind == _HEAD else neurons)[u.layer][u.index] = 0.0
        return MaskSet(heads, neurons)

    def load_masks(self, masks: MaskSet) -> None:
        for uid, u in enumerate(self.units):
            group = masks.heads if u.kind == _HEAD else masks.neurons
            if group[u.layer][u.index] == 0.0:
                self.prune(uid)


def reference_select_masks(scores: ImportanceScores, config: ModelConfig,
                           t_uniform: int, budget: float) -> MaskSet:
    """Prune lowest importance-per-AC units until ACs ratio <= budget.

    Candidates are sorted ascending by score/cost (ties: lower layer, heads
    before neurons, lower unit index). Raises InfeasibleBudgetError when
    even one head plus one neuron per layer exceeds the budget.
    """
    st = _RefSearch(scores, config, t_uniform, budget)
    order = sorted(range(len(st.units)),
                   key=lambda uid: (st.units[uid].score / st.units[uid].cost,
                                    st.units[uid].layer, st.units[uid].kind,
                                    st.units[uid].index))
    for uid in order:
        if st.fits(st.total):
            break
        if st.is_floor(st.units[uid]):
            continue
        st.prune(uid)
    if not st.fits(st.total):
        floor = st.total / st.baseline
        raise InfeasibleBudgetError(
            f"budget {budget} infeasible: keeping one head and one neuron per "
            f"layer already needs ratio {floor:.6f}")
    return st.to_masks(scores)


def _ref_sweep_unprune(st: _RefSearch) -> bool:
    changed = False
    for uid, u in enumerate(st.units):
        if not st.kept[uid] and u.score > 0.0 and st.fits(st.total + u.cost):
            st.unprune(uid)
            changed = True
    return changed


def _ref_sweep_swaps(st: _RefSearch) -> bool:
    """1-for-1 swaps, any layer or kind: keep the more important unit."""
    changed = False
    for uid, u in enumerate(st.units):
        if not st.kept[uid] or st.is_floor(u):
            continue
        for vid, v in enumerate(st.units):
            if st.kept[vid] or v.score <= u.score:
                continue
            if st.fits(st.total - u.cost + v.cost):
                st.prune(uid)
                st.unprune(vid)
                changed = True
                break
    return changed


def _ref_sweep_rebalance(st: _RefSearch) -> bool:
    """Trade one head against the ACs-equivalent set of neurons, both ways."""
    changed = False
    # head out, neurons in
    for uid, u in enumerate(st.units):
        if u.kind != _HEAD or not st.kept[uid] or st.is_floor(u):
            continue
        slack = st.cap - (st.total - u.cost)
        cands = sorted((vid for vid, v in enumerate(st.units)
                        if v.kind == _NEURON and not st.kept[vid] and v.score > 0.0),
                       key=lambda vid: (-st.units[vid].score, st.units[vid].layer,
                                        st.units[vid].index))
        take, gain, used = [], 0.0, 0
        for vid in cands:
            if used + st.units[vid].cost <= slack:
                take.append(vid)
                gain += st.units[vid].score
                used += st.units[vid].cost
        if take and gain > u.score:
            st.prune(uid)
            for vid in take:
                st.unprune(vid)
            changed = True
    # neurons out, head in
    for vid, v in enumerate(st.units):
        if v.kind != _HEAD or st.kept[vid]:
            continue
        needed = (st.total + v.cost) - st.cap
        cands = sorted((uid for uid, u in enumerate(st.units)
                        if u.kind == _NEURON and st.kept[uid]),
                       key=lambda uid: (st.units[uid].score, st.units[uid].layer,
                                        st.units[uid].index))
        drop, lost, freed = [], 0.0, 0
        dropped_per_layer = {}
        for uid in cands:
            if freed >= needed:
                break
            u = st.units[uid]
            would_drop = dropped_per_layer.get(u.layer, 0) + 1
            if st.kept_count[(u.layer, _NEURON)] - would_drop < 1:
                continue
            drop.append(uid)
            dropped_per_layer[u.layer] = would_drop
            lost += u.score
            freed += u.cost
        if freed >= needed and lost < v.score:
            for uid in drop:
                st.prune(uid)
            st.unprune(vid)
            changed = True
    return changed


def reference_refine_masks(masks: MaskSet, scores: ImportanceScores,
                           config: ModelConfig, budget: float,
                           max_iters: int = 100) -> MaskSet:
    """Hill-climb from feasible masks, strictly decreasing pruned importance.

    Neighborhood per sweep: re-add pruned units that now fit, 1-for-1 swaps
    (same kind or across kinds and layers), and head-versus-neuron-set
    rebalances. Stops at a local optimum or after max_iters sweeps; output
    never violates the budget and never has higher pruned importance than
    the input.
    """
    st = _RefSearch(scores, config, 1, budget)
    st.load_masks(masks)
    if not st.fits(st.total):
        raise InvalidInputError("input masks do not satisfy the budget")
    for _ in range(max_iters):
        changed = _ref_sweep_unprune(st)
        changed = _ref_sweep_swaps(st) or changed
        changed = _ref_sweep_rebalance(st) or changed
        if not changed:
            break
    return st.to_masks(scores)


# --- reference backward ------------------------------------------------------


def graph_nodes(root) -> list:
    """Every node of root's graph, root first, each once (walked by parents)."""
    nodes, seen = [root], {id(root)}
    for node in nodes:
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    return nodes


def reference_backward(root) -> None:
    """autodiff.backward over every node, each grad started from zeros.

    Every node of the graph is first marked as needing a gradient, so each
    vjp computes every parent's contribution, constants' included.
    """
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    for node in topo:
        node.requires_grad = True
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad += g


# --- reference simulators ----------------------------------------------------


def reference_lif_step(state, input_current, v_th, leak: float):
    """One integrate-and-fire update with subtractive reset.

    state is (membrane, previous spikes), both zero at the start. u' = leak
    * u + I - s_prev * v_th, spike where u' - v_th >= 0 (so a membrane
    exactly at threshold fires). Returns (new_state, spikes).
    """
    membrane, prev = state
    u = leak * membrane + input_current - prev * v_th
    spikes = (u - v_th >= 0.0).astype(np.float64)
    return (u, spikes), spikes


def _stage_tables(model: SpikingModel, masks: MaskSet) -> list:
    """Per layer, (stage, spike mask) in SUBLAYERS order: the head mask acts
    inside the attention current, the neuron mask on the inter spikes."""
    return [[(stage, masks.neurons[li] if stage.axis == "n" else None)
             for stage in _layer_stages(layer, masks.heads[li], model.config.head_dim,
                                        _NP_OPS)]
            for li, layer in enumerate(model.layers)]


class _MaskedPopulation:
    """One sublayer's LIF state, its spike sum under the stage's spike mask,
    and its ASR trace rows."""

    def __init__(self, name: str, stage, spike_mask, vth: float, leak: float):
        self.name, self.stage, self.spike_mask = name, stage, spike_mask
        self.vth, self.leak = vth, leak
        self.state = self.total = None
        self.rows = []

    def step(self, current: np.ndarray, t: int) -> np.ndarray:
        if self.state is None:
            self.state = (np.zeros(current.shape), np.zeros(current.shape))
            self.total = np.zeros(current.shape)
        self.state, s = reference_lif_step(self.state, current, self.vth, self.leak)
        mask = self.spike_mask
        self.total += s if mask is None else s * mask
        self.rows.append((self.total.sum(axis=0) / (t * len(self.total))).ravel())
        return s

    def trace(self) -> AsrTrace:
        return AsrTrace(self.name, np.asarray(self.rows))


def reference_run_unrolled(model, masks: MaskSet, tokens, timesteps: int):
    """run_unrolled on the full-width model under masks.

    Returns (logits, traces) as engine.run_unrolled does; a pruned head's
    key and value columns hold the spikes of units the sliced model lacks.
    """
    if timesteps < 1:
        raise InvalidInputError("timesteps must be >= 1")
    masks.validate_for(model)
    cur_in = _input_currents(model.embedding, model.config, model.input_scale, tokens)
    if cur_in.shape[0] == 0:
        raise InvalidInputError("the simulators need a non-empty batch")
    tables = _stage_tables(model, masks)
    pops = [[_MaskedPopulation(f"L{li}.{st.name}", st, mask, model.layers[li].vth[st.col],
                               model.config.leak)
             for st, mask in stages] for li, stages in enumerate(tables)]
    state_in = (np.zeros(cur_in.shape), np.zeros(cur_in.shape))
    sum_in = np.zeros_like(cur_in)

    for t in range(1, timesteps + 1):
        state_in, s_in = reference_lif_step(state_in, cur_in, 1.0, model.config.leak)
        sum_in += s_in
        spikes, rates = {"in": s_in}, {"in": sum_in / t}
        for stages, layer_pops in zip(tables, pops):
            for (stage, _), pop in zip(stages, layer_pops):
                x = (None if stage.entry == _RATES else
                     (spikes if stage.entry == _SPIKES else rates)[stage.source])
                spikes[stage.name] = pop.step(stage.current(x, rates), t)
                rates[stage.name] = pop.total / t
            spikes, rates = {"in": spikes["output"]}, {"in": rates["output"]}

    logits = rates["in"][:, 0, :] @ model.cls_w + model.cls_b
    traces = [pop.trace() for layer_pops in pops for pop in layer_pops]
    return logits, traces


def _regen(rates: np.ndarray, t: int, streams) -> np.ndarray:
    """Fresh Bernoulli spike trains, one substream per sample: (B, t, ...)."""
    b = rates.shape[0]
    out = np.empty((b, t) + rates.shape[1:])
    flat = rates.reshape(b, -1)
    for i in range(b):
        out[i] = reference_bernoulli_matrix(flat[i], t, streams[i]).reshape((t,) + rates.shape[1:])
    return out


def reference_run_sequential(model, masks: MaskSet, plan: TimestepPlan,
                             tokens, stream: RandomStream):
    """run_sequential on the full-width model under masks, with each
    sublayer's spike train drawn whole up front.

    Returns (logits, traces) like engine.run_sequential, but each trace
    holds a row per timestep of the sublayer's budget; engine's one row is
    the last. A pruned head's key and value columns hold the spikes of
    units the sliced model lacks.
    """
    masks.validate_for(model)
    cfg = model.config
    if plan.num_layers != cfg.num_layers:
        raise InvalidInputError("plan layer count does not match model")
    cur_in = _input_currents(model.embedding, model.config, model.input_scale, tokens)
    streams = [stream.derive(i) for i in range(cur_in.shape[0])]
    a_x = np.clip(cur_in, 0.0, 1.0)
    traces = []

    for li, stages in enumerate(_stage_tables(model, masks)):
        rates = {"in": a_x}
        for j, (stage, mask) in enumerate(stages):
            t = int(plan.steps[li, j])
            pop = _MaskedPopulation(f"L{li}.{stage.name}", stage, mask,
                                    model.layers[li].vth[stage.col], cfg.leak)
            if stage.entry == _RATES:
                fixed = stage.current(None, rates)
                currents = (fixed for _ in range(t))
            else:
                drawn = _regen(rates[stage.source], t, streams)
                if stage.entry == _MEAN:
                    drawn = np.cumsum(drawn, axis=1) / np.arange(1, t + 1).reshape(1, -1, 1, 1)
                currents = (stage.current(drawn[:, tau], rates) for tau in range(t))
            for tau, current in enumerate(currents, start=1):
                pop.step(current, tau)
            rates[stage.name] = pop.total / t
            traces.append(pop.trace())
        a_x = rates["output"]

    logits = a_x[:, 0, :] @ model.cls_w + model.cls_b
    return logits, traces


# --- reference checkpoint layout ---------------------------------------------
# The spikeprune/v1 save_checkpoint and load_checkpoint (every float a
# shortest round-tripping decimal), with every LayerParams field spelled out
# by hand; `model`'s versions walk the layout table instead.

V1_TAG = "spikeprune/v1"


def _arr(value, shape: tuple, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: not numeric ({e})") from e
    if arr.shape != shape:
        raise CheckpointError(f"{path}: shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"{path}: non-finite entries")
    return arr


def reference_save_checkpoint(path: str, model: SpikingModel, masks: MaskSet, plan) -> None:
    """Write model + masks + timestep plan as one spikeprune/v1 JSON file.

    Floats are serialized as shortest round-tripping decimals, so a
    save/load cycle reproduces every array bit for bit.
    """
    masks.validate_for(model)
    doc = {
        "format": V1_TAG,
        "config": model.config.to_dict(),
        "input_scale": model.input_scale,
        "embedding": model.embedding.tolist(),
        "layers": [],
        "classifier": {"weight": model.cls_w.tolist(), "bias": model.cls_b.tolist()},
        "masks": {
            "heads": [h.tolist() for h in masks.heads],
            "neurons": [n.tolist() for n in masks.neurons],
            "relaxed_heads": (None if masks.relaxed_heads is None
                              else [h.tolist() for h in masks.relaxed_heads]),
            "relaxed_neurons": (None if masks.relaxed_neurons is None
                                else [n.tolist() for n in masks.relaxed_neurons]),
        },
        "timestep_plan": _plan_to_dict(plan),
    }
    for layer in model.layers:
        doc["layers"].append({
            "WK": layer.w_k.tolist(), "WV": layer.w_v.tolist(),
            "WQ": layer.w_q.tolist(), "WO": layer.w_o.tolist(),
            "Winter": layer.w_inter.tolist(), "Wout": layer.w_out.tolist(),
            "biases": {"k": layer.b_k.tolist(), "v": layer.b_v.tolist(),
                       "q": layer.b_q.tolist(), "o": layer.b_o.tolist(),
                       "inter": layer.b_inter.tolist(), "out": layer.b_out.tolist()},
            "ln": {"scale1": layer.ln1_scale.tolist(), "shift1": layer.ln1_shift.tolist(),
                   "scale2": layer.ln2_scale.tolist(), "shift2": layer.ln2_shift.tolist()},
            "vth": layer.vth.tolist(),
        })
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    os.replace(tmp, path)


def reference_load_checkpoint(path: str):
    """Read a spikeprune/v1 checkpoint; returns (model, masks, plan).

    Malformed files raise CheckpointError naming the offending key path.
    """

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: invalid JSON at line {e.lineno}") from e
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint: top level must be an object")
    tag = _need(doc, "format", "checkpoint")
    if tag != V1_TAG:
        raise CheckpointError(f"checkpoint.format: {tag!r} is not {V1_TAG!r}")
    config = ModelConfig.from_dict(_need(doc, "config", "checkpoint"), "config")

    d = config.hidden_size
    scale = _need(doc, "input_scale", "checkpoint")
    if not isinstance(scale, (int, float)) or not np.isfinite(scale) or scale < 0:
        raise CheckpointError("input_scale: must be a finite non-negative number")
    emb = _arr(_need(doc, "embedding", "checkpoint"), (config.vocab_size, d), "embedding")

    raw_layers = _need(doc, "layers", "checkpoint")
    if not isinstance(raw_layers, list) or len(raw_layers) != config.num_layers:
        raise CheckpointError(f"layers: expected {config.num_layers} entries")
    layers = []
    for i, rl in enumerate(raw_layers):
        p = f"layers[{i}]"
        kn = config.intermediate_size
        biases = _need(rl, "biases", p)
        ln = _need(rl, "ln", p)
        layers.append(LayerParams(
            w_k=_arr(_need(rl, "WK", p), (d, d), f"{p}.WK"),
            b_k=_arr(_need(biases, "k", f"{p}.biases"), (d,), f"{p}.biases.k"),
            w_v=_arr(_need(rl, "WV", p), (d, d), f"{p}.WV"),
            b_v=_arr(_need(biases, "v", f"{p}.biases"), (d,), f"{p}.biases.v"),
            w_q=_arr(_need(rl, "WQ", p), (d, d), f"{p}.WQ"),
            b_q=_arr(_need(biases, "q", f"{p}.biases"), (d,), f"{p}.biases.q"),
            w_o=_arr(_need(rl, "WO", p), (d, d), f"{p}.WO"),
            b_o=_arr(_need(biases, "o", f"{p}.biases"), (d,), f"{p}.biases.o"),
            w_inter=_arr(_need(rl, "Winter", p), (d, kn), f"{p}.Winter"),
            b_inter=_arr(_need(biases, "inter", f"{p}.biases"), (kn,), f"{p}.biases.inter"),
            w_out=_arr(_need(rl, "Wout", p), (kn, d), f"{p}.Wout"),
            b_out=_arr(_need(biases, "out", f"{p}.biases"), (d,), f"{p}.biases.out"),
            ln1_scale=_arr(_need(ln, "scale1", f"{p}.ln"), (d,), f"{p}.ln.scale1"),
            ln1_shift=_arr(_need(ln, "shift1", f"{p}.ln"), (d,), f"{p}.ln.shift1"),
            ln2_scale=_arr(_need(ln, "scale2", f"{p}.ln"), (d,), f"{p}.ln.scale2"),
            ln2_shift=_arr(_need(ln, "shift2", f"{p}.ln"), (d,), f"{p}.ln.shift2"),
            vth=_arr(_need(rl, "vth", p), (len(SUBLAYERS),), f"{p}.vth"),
        ))
        if np.any(layers[-1].vth <= 0.0):
            raise CheckpointError(f"{p}.vth: thresholds must be positive")

    cls = _need(doc, "classifier", "checkpoint")
    cls_w = _arr(_need(cls, "weight", "classifier"), (d, config.num_classes),
                 "classifier.weight")
    cls_b = _arr(_need(cls, "bias", "classifier"), (config.num_classes,),
                 "classifier.bias")
    model = SpikingModel(config, emb, layers, cls_w, cls_b, float(scale))

    raw_masks = _need(doc, "masks", "checkpoint")
    def mask_group(key, counts, optional=False):
        vals = _need(raw_masks, key, "masks")
        if vals is None and optional:
            return None
        if not isinstance(vals, list) or len(vals) != len(counts):
            raise CheckpointError(f"masks.{key}: expected {len(counts)} layer entries")
        return [_arr(v, (c,), f"masks.{key}[{i}]")
                for i, (v, c) in enumerate(zip(vals, counts))]
    hc, nc = model.head_counts(), model.neuron_counts()
    try:
        masks = MaskSet(mask_group("heads", hc), mask_group("neurons", nc),
                        mask_group("relaxed_heads", hc, optional=True),
                        mask_group("relaxed_neurons", nc, optional=True))
    except InvalidInputError as e:
        raise CheckpointError(f"masks: {e}") from e

    raw_plan = _need(doc, "timestep_plan", "checkpoint")
    cols = []
    for name in SUBLAYERS:
        vals = _need(raw_plan, name, "timestep_plan")
        if not isinstance(vals, list) or len(vals) != config.num_layers:
            raise CheckpointError(
                f"timestep_plan.{name}: expected {config.num_layers} entries")
        for j, v in enumerate(vals):
            if not isinstance(v, int) or v < 1:
                raise CheckpointError(
                    f"timestep_plan.{name}[{j}]: must be a positive integer")
        cols.append(vals)
    plan = TimestepPlan(np.array(cols, dtype=np.int64).T)
    return model, masks, plan
