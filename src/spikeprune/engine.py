"""Spike dynamics and the steady-state rate proxy.

Each encoder layer is one stage table (`_layer_stages`): its six spiking
sublayers in SUBLAYERS order, each with its source, how that input enters
(this step's spikes, their running mean, or averaged rates only), its
input current, its column (in the layer's thresholds and in a
TimestepPlan) and the layout axis its units span. The table and its walks
are written with operators plus five primitives (clip, rate, softmax,
linear, layernorm) passed in by the walker, so they compute on numpy
arrays and on autodiff Vars alike: `_NP_OPS` holds autodiff's numpy
kernels, `_AD_OPS` the graph nodes whose values those kernels compute.
Three walks read the same tables:

* `run_unrolled`, time-major: every sublayer advances together for T
  timesteps, so the nonlinear stages (attention softmax, layer norm),
  which read running average rates, settle as T grows and the averaged
  rates converge to the rate proxy's fixed point. Its traces hold one row
  per timestep, or with converged_only just the final row: Fisher-times-
  rate scoring and the activity ablation read only that row, while
  temporal pruning's PCA and report's convergence curves read every row.
* `run_sequential`, layer-major: each sublayer runs for its own budget
  from a TimestepPlan on a fresh Bernoulli spike train regenerated from
  its source's converged rates, which is what makes per-sublayer timestep
  budgets independent knobs. One numerics.bernoulli_planes call per
  sublayer draws the train a batch-wide plane at a time as it is consumed
  (memory O(batch x width) whatever the plan), and only kept units with
  0 < rate < 1, each at its masked-run counter. Its traces hold one row:
  the converged rates the next sublayer reads.
* the rate walk, where each LIF sublayer is replaced by its steady-state
  rate clip(current / v_th, 0, 1), one `rate` primitive (on a graph, one
  node per stage): `proxy_graph` runs it on graph leaves
  (training and Fisher importance differentiate it), `rate_proxy_forward`
  on the model's plain arrays.

Both simulators run the compressed model (`_compressed`: the model sliced
by MaskSet.kept_columns, no masks), so a pruned head or neuron is never
multiplied, integrated or drawn and reads 0 in every trace. A trace is
a batch mean, so both refuse an empty batch. Only the rate walk masks:
training and Fisher scoring differentiate through the masks.

Every stage of both walks is row-independent, so both split the batch
rows over worker threads (`_split_rows`); numpy releases the GIL inside
ufuncs and BLAS. A worker holds its own rates and LIF state, and shares
only the trace rows: it adds its rows' sums of each sublayer's spike
counts into them under one lock (`_add_counts`), and once the workers
are joined each row is divided once by timesteps x batch (`_traces`).
Integer sums below 2**53 are exact in float64 whatever order they are
added in, so no trace depends on the worker count or the order of the
batch rows. The readout runs once, on the whole batch.
Both simulators refuse more than MAX_TIMESTEPS steps.

Rates are float64 arrays shaped (batch, seq, units). A population holds
a float64 membrane, bool spikes and int32 spike counts (`_Population`);
run_unrolled turns into float64, once a step, only the spikes a matrix
product reads.
"""

from __future__ import annotations

import collections
import ctypes
import dataclasses
import functools
import glob
import os
import threading

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .model import LayerParams, MaskSet, SpikingModel, TimestepPlan, _model_arrays, slice_columns
from .numerics import RandomStream, bernoulli_planes

__all__ = [
    "LN_EPS",
    "TimestepPlan",
    "AsrTrace",
    "run_unrolled",
    "run_sequential",
    "rate_proxy_forward",
    "proxy_graph",
]

# Shared by the simulator and the proxy; they must normalize identically.
LN_EPS = 1e-5


@dataclasses.dataclass
class AsrTrace:
    """Running average spike rate of one sublayer, batch-averaged.

    Each row is the per-unit cumulative rate, flattened over (seq, units):
    run_unrolled's asr[t] after t+1 timesteps (with converged_only, its
    single row after the last), run_sequential's single row after the
    sublayer's whole budget. `converged` is the final row.
    """

    name: str
    asr: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.asr[-1]


def _input_currents(embedding, config, input_scale: float, tokens):
    """Embedding rows of the tokens over input_scale (zero when it is not positive).

    The one token check of every path: (batch, seq_len) integer ids (bool
    is not an integer type), each inside the vocabulary.
    """
    tokens = np.asarray(tokens)
    if not np.issubdtype(tokens.dtype, np.integer):
        raise InvalidInputError(f"token ids must be integers, got dtype {tokens.dtype}")
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[1] != config.seq_len:
        raise InvalidInputError(
            f"tokens must be (batch, {config.seq_len}), got {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab_size):
        raise InvalidInputError("token ids out of vocabulary range")
    factor = 1.0 / input_scale if input_scale > 0.0 else 0.0
    return embedding[tokens] * factor


def _split_heads(x: np.ndarray, kh: int, hd: int) -> np.ndarray:
    b, n = x.shape[0], x.shape[1]
    return x.reshape(b, n, kh, hd).swapaxes(1, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, kh, n, hd = x.shape
    return x.swapaxes(1, 2).reshape(b, n, kh * hd)


# The primitives a stage table and the rate walk call: numpy kernels, and the
# autodiff nodes whose values they are. All else is an operator or method arrays
# and Vars share, rounded alike (means as sum * (1/n), scores times 1/sqrt(hd)).
_Ops = collections.namedtuple("_Ops", "clip rate softmax linear layernorm")
_NP_OPS = _Ops(ad._clip01, ad._rate, ad._softmax, ad._linear, ad._layernorm)
_AD_OPS = _Ops(ad.clip01, ad.rate, ad.softmax, ad.linear, ad.layernorm)


def _readout(a, cls_w, cls_b, ops):
    """Class logits from the first token of the last layer's output rates a."""
    return ops.linear(a[:, 0, :], cls_w, cls_b)


def _attention_current(layer, a_in, a_k, a_v, head_mask, head_dim, ops):
    """Per-head softmax attention over rate-domain K/V; queries are analog.
    head_mask, when given, multiplies each head's output."""
    q = ops.linear(a_in, layer.w_q, layer.b_q)
    kh = layer.num_heads(head_dim)
    qh = _split_heads(q, kh, head_dim)
    kh_ = _split_heads(a_k, kh, head_dim)
    vh = _split_heads(a_v, kh, head_dim)
    scores = ops.softmax(qh @ kh_.swapaxes(-1, -2) * (1.0 / np.sqrt(head_dim)))
    heads = scores @ vh
    return _merge_heads(heads if head_mask is None else heads * head_mask.reshape(1, kh, 1, 1))


# How a sublayer's driving input enters. _SPIKES: the source's spikes of this
# step (unrolled) or a fresh Bernoulli train drawn from its converged rates
# (sequential). _MEAN: the running mean of those same spikes. _RATES: no spike
# train of its own; the current reads averaged rates only.
_SPIKES, _MEAN, _RATES = "spikes", "mean", "rates"


@dataclasses.dataclass(frozen=True)
class _Stage:
    """One spiking sublayer of an encoder layer.

    current(x, rates) is its input current: x is the driving input in the
    form `entry` names (None for _RATES), rates maps "in" (the layer input)
    and every earlier sublayer's name to its averaged rates. col is its
    column in the layer's thresholds (its firing threshold is
    layer.vth[col]) and in a TimestepPlan; axis is the layout axis its
    units span (d, h or n, as in LayerParams).
    """

    name: str
    source: str
    entry: str
    col: int
    axis: str
    current: object


def _layer_stages(layer, head_mask, head_dim, ops) -> tuple:
    """The six sublayers of one encoder layer in SUBLAYERS order.

    The stage at position j has col j. head_mask, when not None, zeroes
    pruned heads inside the attention current; the simulators pass None
    and run a sliced layer instead.
    """
    return (
        _Stage("key", "in", _SPIKES, 0, "h", lambda x, r: ops.linear(x, layer.w_k, layer.b_k)),
        _Stage("value", "in", _SPIKES, 1, "h",
               lambda x, r: ops.linear(x, layer.w_v, layer.b_v)),
        _Stage("attn", None, _RATES, 2, "h", lambda x, r: _attention_current(
            layer, r["in"], r["key"], r["value"], head_mask, head_dim, ops)),
        _Stage("fc", "attn", _MEAN, 3, "d", lambda x, r: ops.layernorm(
            ops.linear(x, layer.w_o, layer.b_o) + r["in"], layer.ln1_scale,
            layer.ln1_shift, LN_EPS)),
        _Stage("inter", "fc", _SPIKES, 4, "n",
               lambda x, r: ops.linear(x, layer.w_inter, layer.b_inter)),
        _Stage("output", "inter", _MEAN, 5, "d", lambda x, r: ops.layernorm(
            ops.linear(x, layer.w_out, layer.b_out) + r["fc"], layer.ln2_scale,
            layer.ln2_shift, LN_EPS)),
    )


def _compressed(model: SpikingModel, masks: MaskSet, tokens):
    """Both simulators' prologue: (input currents, kept columns, stage
    tables, units), units holding per layer each sublayer's kept units.

    The tables are those of the layers sliced to MaskSet.kept_columns, with
    no masks; a layer may keep no head or no neuron. A trace averages over
    the batch, so the batch must not be empty.
    """
    masks.validate_for(model)
    cur_in = _input_currents(model.embedding, model.config, model.input_scale, tokens)
    if cur_in.shape[0] == 0:
        raise InvalidInputError("the simulators need a non-empty batch")
    keeps = masks.kept_columns(model.config.head_dim)
    tables = [_layer_stages(layer, None, model.config.head_dim, _NP_OPS)
              for layer in slice_columns(model, keeps)]
    units = [[int(keep[stage.axis].sum()) if stage.axis in keep
              else model.config.hidden_size for stage in stages]
             for stages, keep in zip(tables, keeps)]
    return cur_in, keeps, tables, units


class _Population:
    """LIF state of one population (a sublayer, or the input encoder at
    threshold 1), all shaped by its first input current, so sliced layers
    need no sizing: a float64 membrane updated in place, bool spikes and
    int32 spike counts, 13 bytes a unit (int32 holds MAX_TIMESTEPS)."""

    def __init__(self, vth, leak: float):
        self.vth, self.leak = vth, leak
        self.membrane = self.spikes = self.total = None

    def step(self, current: np.ndarray) -> np.ndarray:
        """One integrate-and-fire update with subtractive reset; returns its
        spikes, a bool array this population overwrites at its next step.

        u' = leak * u + I - s_prev * v_th, spike where u' >= v_th (so a
        membrane exactly at threshold fires). s_prev * v_th is exactly 0.0
        or v_th, and u' >= v_th is u' - v_th >= 0 for any finite v_th.
        """
        if self.membrane is None:
            self.membrane = np.zeros(current.shape)
            self.spikes = np.zeros(current.shape, dtype=bool)
            self.total = np.zeros(current.shape, dtype=np.int32)
        u = self.membrane
        u *= self.leak
        u += current
        u -= self.spikes * self.vth
        np.greater_equal(u, self.vth, out=self.spikes)
        self.total += self.spikes
        return self.spikes


def _traces(tables, keeps, sums, samples, seq_len: int) -> list:
    """One AsrTrace per sublayer in trace order from its rows of spike-count
    sums over the batch and its kept columns (sums, per layer and sublayer),
    each divided once by its samples[li][j] (timesteps x batch, one per row
    or for all rows): the columns its keep drops are inserted reading 0."""
    traces = []
    for li, (stages, keep, layer_sums) in enumerate(zip(tables, keeps, sums)):
        for j, (stage, asr) in enumerate(zip(stages, layer_sums)):
            asr /= samples[li][j]
            cols = keep.get(stage.axis)
            if cols is not None and not cols.all():
                steps = asr.shape[0]
                full = np.zeros((steps, seq_len, cols.size))
                full[:, :, cols] = asr.reshape(steps, seq_len, int(cols.sum()))
                asr = full.reshape(steps, -1)
            traces.append(AsrTrace(f"L{li}.{stage.name}", asr))
    return traces


def _add_counts(lock, row: np.ndarray, total: np.ndarray) -> None:
    """Add the spike counts total, summed over its batch rows (outside the
    lock), into the shared trace row under it. The sums are exact while
    timesteps x batch < 2**53, so the order workers add in changes no bit."""
    counts = total.sum(axis=0, dtype=np.float64).ravel()
    with lock:
        row += counts


def _rate_buffers(batch: int, units: list, seq: int) -> list:
    """Per layer, one (batch, seq, units) rate array per sublayer, for one
    worker's batch rows. Layer l's arrays are views of one (batch, seq x
    widest units) buffer per SUBLAYERS position, so a walk holds one
    layer's rates; a layer's output overwrites the previous layer's, its
    input, only after every stage that reads the input has run."""
    flat = [np.empty((batch, seq * max(widths))) for widths in zip(*units)]
    return [[buf[:, :seq * w].reshape(batch, seq, w) for buf, w in zip(flat, widths)]
            for widths in units]


@functools.cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count getter, or None when numpy's BLAS is
    not an OpenBLAS this can find."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter
    return None


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None. Each worker thread allocates from a
    malloc arena of its own, and what it frees stays there, out of the
    calling thread's reach, until trimmed."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _row_workers() -> int:
    """Workers a simulator may split its batch over: the cores this process
    may run on over BLAS's own threads, so the two do not take each other's
    cores; 1 when BLAS's thread count is unknown (it may use every core)."""
    getter = _openblas_threads()
    if getter is None:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, cores // max(1, getter()))


# The fewest elements of a (batch, seq, hidden) rate array a worker takes.
# Below it the interpreter's time, which the GIL serializes, outweighs the
# numpy work threads overlap, and two workers run slower than one.
_MIN_WORKER_SIZE = 16384


def _split_rows(rows: int, row_size: int, walk) -> list:
    """Run walk(rows) on n = min(rows, _row_workers(), rows * row_size //
    _MIN_WORKER_SIZE) workers (at least 1), worker k taking the row slice
    [k * rows // n, (k + 1) * rows // n); returns their results in worker
    order.

    Worker 0 runs in the calling thread, so one worker starts no thread.
    Once all are joined, the lowest worker's exception is re-raised. The
    threads' malloc arenas are trimmed after the join: without it, what
    they freed stays resident and raises the process's peak RSS.
    """
    n = max(1, min(rows, _row_workers(), rows * row_size // _MIN_WORKER_SIZE))
    if n == 1:
        return [walk(slice(0, rows))]
    results, errors = [None] * n, [None] * n

    def run(k):
        try:
            results[k] = walk(slice(k * rows // n, (k + 1) * rows // n))
        except BaseException as exc:  # re-raised in the caller
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(1, n)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# The most timesteps either simulator runs a sublayer for, checked before
# either allocates or steps, and the largest t_conv a run config may ask
# for; a population's int32 spike count holds it. It lies far above any run
# the tests make, and a larger request, which could neither finish in good
# time nor hold its every-step traces, is refused before any work.
MAX_TIMESTEPS = 100_000


def _check_timesteps(timesteps: int, name: str = "timesteps") -> None:
    if not 1 <= timesteps <= MAX_TIMESTEPS:
        raise InvalidInputError(f"{name} must be in [1, {MAX_TIMESTEPS}], got {timesteps}")


def run_unrolled(model: SpikingModel, masks: MaskSet, tokens, timesteps: int, *,
                 converged_only: bool = False):
    """Simulate all sublayers jointly for `timesteps` steps.

    Time-major walk of the compressed model's stage tables: at every step
    each sublayer reads its source's spikes of that step or the averaged
    rates so far. Returns (logits, traces): logits read the converged rate
    of the final layer's first token; traces hold one AsrTrace per
    sublayer in layer-major SUBLAYERS order, over the full (seq x units)
    width, where pruned units read 0, with one row per timestep. With
    converged_only, a trace holds only the final (converged) row, the
    bytes of the every-step run's last row; the walk then adds spike
    counts into no trace row before the last step.
    """
    _check_timesteps(timesteps)
    cur_in, keeps, tables, units = _compressed(model, masks, tokens)
    cfg, batch = model.config, cur_in.shape[0]
    kept = 1 if converged_only else timesteps
    sums = [[np.zeros((kept, cfg.seq_len * w)) for w in widths] for widths in units]
    skipped, lock = timesteps - kept, threading.Lock()
    # the spikes a matrix product reads (the layer input's and fc's) turn
    # float64 once a step, as the product of a bool array is several times
    # slower than a float one; the others stay bool
    fed = {stage.source for stage in tables[0] if stage.entry == _SPIKES}

    def walk(rows):
        x_in = cur_in[rows]
        bufs = _rate_buffers(len(x_in), units, cfg.seq_len)
        encoder = _Population(1.0, cfg.leak)
        pops = [[_Population(layer.vth[stage.col], cfg.leak) for stage in stages]
                for layer, stages in zip(model.layers, tables)]
        for t in range(1, timesteps + 1):
            spiked, rates = encoder.step(x_in), {"in": encoder.total / t}
            for stages, layer_pops, layer_bufs, layer_sums in zip(tables, pops, bufs, sums):
                spikes = {"in": spiked.astype(np.float64)}
                for stage, pop, buf, asr in zip(stages, layer_pops, layer_bufs, layer_sums):
                    x = (None if stage.entry == _RATES else
                         (spikes if stage.entry == _SPIKES else rates)[stage.source])
                    s = pop.step(stage.current(x, rates))
                    spikes[stage.name] = s.astype(np.float64) if stage.name in fed else s
                    rates[stage.name] = np.divide(pop.total, t, out=buf)
                    if t > skipped:
                        _add_counts(lock, asr[t - 1 - skipped], pop.total)
                spiked, rates = spikes["output"], {"in": rates["output"]}
        return rates["in"][:, :1]

    first = _split_rows(batch, cfg.seq_len * cfg.hidden_size, walk)
    logits = _readout(np.concatenate(first), model.cls_w, model.cls_b, _NP_OPS)
    samples = (np.arange(skipped + 1, timesteps + 1) * batch)[:, None]
    return logits, _traces(tables, keeps, sums, [[samples] * len(stages) for stages in tables],
                           cfg.seq_len)


def _sublayer_currents(stage: _Stage, rates: dict, t: int, streams, keep):
    """Input current of each of a sublayer's t timesteps, drawn as it is used.

    A spike input takes the planes of one bernoulli_planes call (sample i
    from streams[i]; keep, when the source is sliced, its kept columns), a
    mean input their running sum, and a rates-only input is constant.
    """
    if stage.entry == _RATES:
        fixed = stage.current(None, rates)
        for _ in range(t):
            yield fixed
        return
    source = rates[stage.source]
    total = np.zeros_like(source) if stage.entry == _MEAN else None
    for tau, plane in enumerate(bernoulli_planes(source, t, streams, keep), start=1):
        x = plane.reshape(source.shape)
        if total is not None:
            total += x
            x = total / tau
        yield stage.current(x, rates)


def run_sequential(model: SpikingModel, masks: MaskSet, plan: TimestepPlan,
                   tokens, stream: RandomStream, first: int = 0):
    """Simulate sublayer by sublayer under a per-sublayer timestep plan.

    Layer-major walk of the compressed model's stage tables. Each sublayer
    runs for its own budget on the converged rates of the stages before
    it. A spike input (or its running mean) is a Bernoulli train
    regenerated from its source's converged rates (clipped rates are valid
    probabilities by construction), drawn in SUBLAYERS order as it is
    used; a rates-only input is constant. Sample i draws from
    stream.derive(first + i), first being the dataset index of sample 0,
    so no batch split changes an example's draws. A kept unit of a sliced
    source draws at its counter in the full-width plane, so logits and
    kept units equal the masked model's run.

    Returns (logits, traces); traces hold one AsrTrace per sublayer with a
    single row, its spike counts after its own budget summed over the
    batch and divided once by budget x batch, over the full (seq x units)
    width, where pruned units read 0.
    """
    _check_timesteps(plan.max_timesteps())
    cur_in, keeps, tables, units = _compressed(model, masks, tokens)
    cfg, batch = model.config, cur_in.shape[0]
    if plan.num_layers != cfg.num_layers:
        raise InvalidInputError("plan layer count does not match model")
    streams = [stream.derive(first + i) for i in range(batch)]
    sums = [[np.zeros((1, cfg.seq_len * w)) for w in widths] for widths in units]
    lock = threading.Lock()

    def walk(rows):
        a_x, mine = _NP_OPS.clip(cur_in[rows]), streams[rows]
        bufs = _rate_buffers(len(a_x), units, cfg.seq_len)
        for li, (stages, keep, layer_bufs) in enumerate(zip(tables, keeps, bufs)):
            axes = {"in": "d", **{stage.name: stage.axis for stage in stages}}
            rates = {"in": a_x}
            for stage, buf, asr, t in zip(stages, layer_bufs, sums[li], plan.steps[li].tolist()):
                pop = _Population(model.layers[li].vth[stage.col], cfg.leak)
                for current in _sublayer_currents(stage, rates, t, mine,
                                                  keep.get(axes.get(stage.source))):
                    pop.step(current)
                rates[stage.name] = np.divide(pop.total, t, out=buf)
                _add_counts(lock, asr[0], pop.total)
            a_x = rates["output"]
        return a_x[:, :1]

    first = _split_rows(batch, cfg.seq_len * cfg.hidden_size, walk)
    logits = _readout(np.concatenate(first), model.cls_w, model.cls_b, _NP_OPS)
    return logits, _traces(tables, keeps, sums, plan.steps * batch, cfg.seq_len)


# --- differentiable rate proxy -----------------------------------------------


def _layer_params(params: dict, i: int) -> LayerParams:
    """Encoder layer i of params, a map from the names of _model_arrays."""
    return LayerParams(**{f.name: params[f"L{i}.{f.name}"]
                          for f in dataclasses.fields(LayerParams)})


def _rate_layer(layer, a, head_mask, neuron_mask, head_dim: int, ops, noise=None) -> dict:
    """One encoder layer of the rate walk on input rates a.

    Returns {"in": a, then each sublayer's name: its rates} in SUBLAYERS
    order; "output" is the layer's output. noise(sublayer_name, rate),
    when given, returns an additive perturbation or None; it applies
    before the inter stage's neuron mask.
    """
    r = {"in": a}
    for stage in _layer_stages(layer, head_mask, head_dim, ops):
        x = None if stage.entry == _RATES else r[stage.source]
        rate = ops.rate(stage.current(x, r), layer.vth, stage.col)
        delta = None if noise is None else noise(stage.name, rate)
        if delta is not None:
            rate = rate + delta
        if stage.axis == "n":
            rate = rate * neuron_mask
        r[stage.name] = rate
    return r


def _rate_walk(params: dict, config, input_scale: float, tokens, head_masks,
               neuron_masks, ops, noise=None):
    """Walk the stage tables with every sublayer at rate clip(current / vth).

    params maps the names of _model_arrays to numpy arrays or graph leaves,
    and ops holds the matching primitives. noise(layer_idx, sublayer_name,
    rate), when given, returns an additive perturbation or None; it applies
    before the inter stage's neuron mask. Returns what proxy_graph returns.
    """
    a = ops.clip(_input_currents(params["embedding"], config, input_scale, tokens))
    rates, layer_outputs = [], []
    for i in range(len(head_masks)):
        r = _rate_layer(_layer_params(params, i), a, head_masks[i], neuron_masks[i],
                        config.head_dim, ops,
                        None if noise is None else functools.partial(noise, i))
        rates += [(f"L{i}.{name}", rate) for name, rate in r.items() if name != "in"]
        a = r["output"]
        layer_outputs.append(a)
    logits = _readout(a, params["cls_w"], params["cls_b"], ops)
    return logits, rates, layer_outputs


def proxy_graph(params: dict, config, input_scale: float, tokens: np.ndarray,
                head_masks, neuron_masks, stage_noise=None):
    """Steady-state rate forward pass as an autodiff graph.

    head_masks/neuron_masks are per-layer Vars (or arrays) multiplying the
    per-head attention outputs before spike conversion and the intermediate
    activations after it. Returns (logits, rates, layer_outputs): rates is
    a list of (name, Var) per sublayer in trace order, layer_outputs the
    final rate Var of each encoder layer.

    stage_noise, when given, is called as (layer_idx, sublayer_name,
    rate_array) after each spiking stage and may return an additive
    perturbation of the same shape (or None). The perturbation enters the
    graph as a constant, so gradients pass through it unchanged. Training
    passes the zero-mean noise of a short Bernoulli train
    (trainer._stage_noise), which leaves out the simulator's floor bias.
    """
    noise = (None if stage_noise is None else
             lambda layer_idx, name, rate: stage_noise(layer_idx, name, rate.value))
    return _rate_walk(params, config, input_scale, tokens, head_masks, neuron_masks,
                      _AD_OPS, noise)


def cross_entropy(logits, labels) -> "ad.Var":
    """Mean negative log-likelihood; logits may be a Var or an array."""
    if not isinstance(logits, ad.Var):
        logits = ad.Var(logits)
    labels = np.asarray(labels)
    lse = ad.logsumexp(logits, axis=-1)
    picked = ad.take_labels(logits, labels)
    return (lse - picked).mean()


def rate_proxy_forward(model: SpikingModel, masks: MaskSet, tokens):
    """Value-level rate forward: returns (logits, {sublayer name: rates}).

    The rate walk of proxy_graph on the model's plain arrays, with no
    graph. Rates are (batch, seq, units) arrays; the converged unrolled
    simulation approaches them as timesteps grow.
    """
    masks.validate_for(model)
    logits, rates, _ = _rate_walk(_model_arrays(model), model.config, model.input_scale,
                                  tokens, masks.heads, masks.neurons, _NP_OPS)
    return logits, dict(rates)
