"""Spike dynamics and the steady-state rate proxy.

Each encoder layer is one stage table (`_layer_stages`): its six spiking
sublayers in SUBLAYERS order, each with its source, how that input enters
(this step's spikes, their running mean, or averaged rates only), its
input current, its threshold column and the layout axis its units span.
The table is written with operators plus four primitives (clip, softmax,
sqrt, square) passed in by its walker, so it computes on numpy arrays and
on autodiff Vars alike. Three walks read the same tables:

* `run_unrolled`, time-major: every sublayer advances together for T
  timesteps, so the nonlinear stages (attention softmax, layer norm),
  which read running average rates, settle as T grows and the averaged
  rates converge to the rate proxy's fixed point. Its traces hold one row
  per timestep.
* `run_sequential`, layer-major: each sublayer runs for its own budget
  from a TimestepPlan on a fresh Bernoulli spike train regenerated from
  its source's converged rates, which is what makes per-sublayer timestep
  budgets independent knobs. One numerics.bernoulli_planes call per
  sublayer draws the train a batch-wide plane at a time as it is consumed
  (memory O(batch x width) whatever the plan), and only kept units with
  0 < rate < 1, each at its masked-run counter. Its traces hold one row:
  the converged rates the next sublayer reads.
* the rate walk, where each LIF sublayer is replaced by its steady-state
  rate clip(current / v_th, 0, 1): `proxy_graph` runs it on graph leaves
  (training and Fisher importance differentiate it), `rate_proxy_forward`
  on the model's plain arrays.

Both simulators run the compressed model (`_compressed`: the model sliced
by MaskSet.kept_columns, no masks), so a pruned head or neuron is never
multiplied, integrated or drawn and reads 0 in every trace. A trace is
a batch mean, so both refuse an empty batch. Only the rate walk masks:
training and Fisher scoring differentiate through the masks.

Rates and spikes are float64 arrays shaped (batch, seq, units).
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .model import (SUBLAYERS, LayerParams, MaskSet, SpikingModel, TimestepPlan, _model_arrays,
                    slice_columns)
from .numerics import RandomStream, bernoulli_planes

__all__ = [
    "LN_EPS",
    "LifState",
    "TimestepPlan",
    "AsrTrace",
    "lif_step",
    "run_unrolled",
    "run_sequential",
    "rate_proxy_forward",
    "proxy_graph",
]

# Shared by the simulator and the proxy; they must normalize identically.
LN_EPS = 1e-5


@dataclasses.dataclass
class LifState:
    """Membrane potentials and the previous step's spikes, same shape."""

    membrane: np.ndarray
    spikes: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "LifState":
        return cls(np.zeros(shape), np.zeros(shape))


def lif_step(state: LifState, input_current: np.ndarray, v_th, leak: float):
    """One integrate-and-fire update with subtractive reset.

    u' = leak * u + I - s_prev * v_th, spike where u' - v_th >= 0 (so a
    membrane exactly at threshold fires). Returns (new_state, spikes).
    """
    u = leak * state.membrane + input_current - state.spikes * v_th
    spikes = (u - v_th >= 0.0).astype(np.float64)
    return LifState(u, spikes), spikes


@dataclasses.dataclass
class AsrTrace:
    """Running average spike rate of one sublayer, batch-averaged.

    Each row is the per-unit cumulative rate, flattened over (seq, units):
    run_unrolled's asr[t] after t+1 timesteps, run_sequential's single row
    after the sublayer's whole budget. `converged` is the final row.
    """

    name: str
    asr: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.asr[-1]


def _input_currents(embedding, config, input_scale: float, tokens):
    """Embedding rows of the tokens over input_scale (zero when it is not positive).

    The one token check of every path: (batch, seq_len) ids, each inside
    the vocabulary.
    """
    tokens = np.asarray(tokens)
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


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# The primitives a stage table calls; everything else in it is an operator
# or a method numpy arrays and autodiff Vars share, and every rounding
# (means as sum * (1/n), attention scaled by 1/sqrt(hd)) is the same on both.
_Ops = collections.namedtuple("_Ops", "clip softmax sqrt square")
_NP_OPS = _Ops(lambda x: np.clip(x, 0.0, 1.0), _softmax, np.sqrt, np.square)
_AD_OPS = _Ops(ad.clip01, ad.softmax, ad.sqrt, ad.square)


def _layernorm(x, scale, shift, ops):
    inv_n = 1.0 / x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = ops.square(xc).sum(axis=-1, keepdims=True) * inv_n
    return xc / ops.sqrt(var + LN_EPS) * scale + shift


def _attention_current(layer, a_in, a_k, a_v, head_mask, head_dim, ops):
    """Per-head softmax attention over rate-domain K/V; queries are analog.
    head_mask, when given, multiplies each head's output."""
    q = a_in @ layer.w_q + layer.b_q
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
    and every earlier sublayer's name to its averaged rates. vth is its
    firing threshold; axis is the layout axis its units span (d, h or n, as
    in LayerParams).
    """

    name: str
    source: str
    entry: str
    vth: float
    axis: str
    current: object


def _layer_stages(layer, head_mask, head_dim, ops) -> tuple:
    """The six sublayers of one encoder layer in SUBLAYERS order.

    Position j is also the sublayer's column in vth and in a TimestepPlan.
    head_mask, when not None, zeroes pruned heads inside the attention
    current; the simulators pass None and run a sliced layer instead.
    """
    vth = layer.vth
    return (
        _Stage("key", "in", _SPIKES, vth[0], "h", lambda x, r: x @ layer.w_k + layer.b_k),
        _Stage("value", "in", _SPIKES, vth[1], "h", lambda x, r: x @ layer.w_v + layer.b_v),
        _Stage("attn", None, _RATES, vth[2], "h", lambda x, r: _attention_current(
            layer, r["in"], r["key"], r["value"], head_mask, head_dim, ops)),
        _Stage("fc", "attn", _MEAN, vth[3], "d", lambda x, r: _layernorm(
            x @ layer.w_o + layer.b_o + r["in"], layer.ln1_scale, layer.ln1_shift, ops)),
        _Stage("inter", "fc", _SPIKES, vth[4], "n",
               lambda x, r: x @ layer.w_inter + layer.b_inter),
        _Stage("output", "inter", _MEAN, vth[5], "d", lambda x, r: _layernorm(
            x @ layer.w_out + layer.b_out + r["fc"], layer.ln2_scale, layer.ln2_shift, ops)),
    )


def _compressed(model: SpikingModel, masks: MaskSet, tokens):
    """Both simulators' prologue: (input currents, kept columns, stage tables).

    The tables are those of the model sliced to MaskSet.kept_columns, with
    no masks; a layer may keep no head or no neuron. A trace averages over
    the batch, so the batch must not be empty.
    """
    masks.validate_for(model)
    cur_in = _input_currents(model.embedding, model.config, model.input_scale, tokens)
    if cur_in.shape[0] == 0:
        raise InvalidInputError("the simulators need a non-empty batch")
    keeps = masks.kept_columns(model.config.head_dim)
    tables = [_layer_stages(layer, None, model.config.head_dim, _NP_OPS)
              for layer in slice_columns(model, keeps).layers]
    return cur_in, keeps, tables


class _Population:
    """LIF state and spike sum of one population: a sublayer, or the input
    encoder at threshold 1.

    State and sum take their shape from the first input current, so a
    sliced model's narrower layers need no separate sizing.
    """

    def __init__(self, vth, leak: float):
        self.vth, self.leak = vth, leak
        self.state = self.total = None

    def step(self, current: np.ndarray) -> np.ndarray:
        """Advance one timestep; returns its spikes."""
        if self.state is None:
            self.state, self.total = LifState.zeros(current.shape), np.zeros(current.shape)
        self.state, s = lif_step(self.state, current, self.vth, self.leak)
        self.total += s
        return s


def _trace(name: str, rows: list, keep, seq_len: int) -> AsrTrace:
    """Rows of batch-mean rates over the full width, columns keep drops
    reading 0; the rows as they are when keep is None or keeps every column."""
    asr = np.asarray(rows)
    if keep is not None and not keep.all():
        steps = asr.shape[0]
        full = np.zeros((steps, seq_len, keep.size))
        full[:, :, keep] = asr.reshape(steps, seq_len, int(keep.sum()))
        asr = full.reshape(steps, -1)
    return AsrTrace(name, asr)


def run_unrolled(model: SpikingModel, masks: MaskSet, tokens, timesteps: int):
    """Simulate all sublayers jointly for `timesteps` steps.

    Time-major walk of the compressed model's stage tables: at every step
    each sublayer reads its source's spikes of that step or the averaged
    rates so far. Returns (logits, traces): logits read the converged rate
    of the final layer's first token; traces hold one AsrTrace per
    sublayer in layer-major SUBLAYERS order, one row per timestep, over
    the full (seq x units) width, where pruned units read 0.
    """
    if timesteps < 1:
        raise InvalidInputError("timesteps must be >= 1")
    cur_in, keeps, tables = _compressed(model, masks, tokens)
    leak = model.config.leak
    encoder = _Population(1.0, leak)
    pops = [[_Population(stage.vth, leak) for stage in stages] for stages in tables]
    rows = [[[] for _ in stages] for stages in tables]

    for t in range(1, timesteps + 1):
        spikes = {"in": encoder.step(cur_in)}
        rates = {"in": encoder.total / t}
        for stages, layer_pops, layer_rows in zip(tables, pops, rows):
            for stage, pop, stage_rows in zip(stages, layer_pops, layer_rows):
                x = (None if stage.entry == _RATES else
                     (spikes if stage.entry == _SPIKES else rates)[stage.source])
                spikes[stage.name] = pop.step(stage.current(x, rates))
                rates[stage.name] = rate = pop.total / t
                stage_rows.append(rate.mean(axis=0).ravel())
            spikes, rates = {"in": spikes["output"]}, {"in": rates["output"]}

    logits = rates["in"][:, 0, :] @ model.cls_w + model.cls_b
    traces = [_trace(f"L{li}.{stage.name}", stage_rows, keep.get(stage.axis),
                     model.config.seq_len)
              for li, (stages, layer_rows, keep) in enumerate(zip(tables, rows, keeps))
              for stage, stage_rows in zip(stages, layer_rows)]
    return logits, traces


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
    single row, the batch mean of its converged rates after its own
    budget, over the full (seq x units) width, where pruned units read 0.
    """
    cur_in, keeps, tables = _compressed(model, masks, tokens)
    cfg = model.config
    if plan.num_layers != cfg.num_layers:
        raise InvalidInputError("plan layer count does not match model")
    streams = [stream.derive(first + i) for i in range(cur_in.shape[0])]
    a_x = np.clip(cur_in, 0.0, 1.0)
    traces = []

    for li, (stages, keep) in enumerate(zip(tables, keeps)):
        axes = {"in": "d", **{stage.name: stage.axis for stage in stages}}
        rates = {"in": a_x}
        for j, stage in enumerate(stages):
            t = int(plan.steps[li, j])
            pop = _Population(stage.vth, cfg.leak)
            for current in _sublayer_currents(stage, rates, t, streams,
                                              keep.get(axes.get(stage.source))):
                pop.step(current)
            rates[stage.name] = rate = pop.total / t
            traces.append(_trace(f"L{li}.{stage.name}", [rate.mean(axis=0).ravel()],
                                 keep.get(stage.axis), cfg.seq_len))
        a_x = rates["output"]

    logits = a_x[:, 0, :] @ model.cls_w + model.cls_b
    return logits, traces


# --- differentiable rate proxy -----------------------------------------------


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
        layer = LayerParams(**{f.name: params[f"L{i}.{f.name}"]
                               for f in dataclasses.fields(LayerParams)})
        r = {"in": a}
        for stage in _layer_stages(layer, head_masks[i], config.head_dim, ops):
            x = None if stage.entry == _RATES else r[stage.source]
            rate = ops.clip(stage.current(x, r) / stage.vth)
            delta = None if noise is None else noise(i, stage.name, rate)
            if delta is not None:
                rate = rate + delta
            if stage.axis == "n":
                rate = rate * neuron_masks[i]
            r[stage.name] = rate
            rates.append((f"L{i}.{stage.name}", rate))
        a = r["output"]
        layer_outputs.append(a)
    logits = a[:, 0, :] @ params["cls_w"] + params["cls_b"]
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
