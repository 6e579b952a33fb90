"""Spike dynamics and the steady-state rate proxy.

Each encoder layer is one stage table (`_layer_stages`): its six spiking
sublayers in SUBLAYERS order, each with its source, how that input enters
(this step's spikes, their running mean, or averaged rates only), its
input current, its threshold column and its mask. The table is written
with operators plus four primitives (clip, softmax, sqrt, square) passed
in by its walker, so it computes on numpy arrays and on autodiff Vars
alike. Three walks read the same tables:

* `run_unrolled`, time-major: every sublayer advances together for T
  timesteps, so the nonlinear stages (attention softmax, layer norm),
  which read running average rates, settle as T grows and the averaged
  rates converge to the rate proxy's fixed point.
* `run_sequential`, layer-major: each sublayer runs for its own budget
  from a TimestepPlan on a fresh Bernoulli spike train regenerated from
  its source's converged rates, which is what makes per-sublayer timestep
  budgets independent knobs.
* the rate walk, where each LIF sublayer is replaced by its steady-state
  rate clip(current / v_th, 0, 1): `proxy_graph` runs it on graph leaves
  (training and Fisher importance differentiate it), `rate_proxy_forward`
  on the model's plain arrays.

Rates and spikes are float64 arrays shaped (batch, seq, units).
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .model import SUBLAYERS, LayerParams, MaskSet, SpikingModel
from .numerics import RandomStream, bernoulli_matrix

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
    "build_param_vars",
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


class TimestepPlan:
    """Per-sublayer timestep budgets: integer array (num_layers, 6).

    Columns follow SUBLAYERS order. Every entry is at least 1.
    """

    def __init__(self, steps):
        arr = np.asarray(steps)
        if arr.ndim != 2 or arr.shape[1] != len(SUBLAYERS):
            raise InvalidInputError(
                f"plan must be (layers, {len(SUBLAYERS)}), got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError("plan entries must be integers")
        if arr.min() < 1:
            raise InvalidInputError("plan entries must be >= 1")
        self.steps = arr.astype(np.int64)

    @classmethod
    def uniform(cls, num_layers: int, t: int) -> "TimestepPlan":
        return cls(np.full((num_layers, len(SUBLAYERS)), int(t), dtype=np.int64))

    def get(self, layer: int, name: str) -> int:
        return int(self.steps[layer, SUBLAYERS.index(name)])

    @property
    def num_layers(self) -> int:
        return self.steps.shape[0]

    def mean_timesteps(self) -> float:
        return float(self.steps.mean())

    def max_timesteps(self) -> int:
        return int(self.steps.max())

    def flat(self) -> np.ndarray:
        """Budgets in trace order: L0.key, L0.value, ..., L1.key, ..."""
        return self.steps.ravel()

    def copy(self) -> "TimestepPlan":
        return TimestepPlan(self.steps.copy())

    def __eq__(self, other):
        return isinstance(other, TimestepPlan) and np.array_equal(self.steps, other.steps)


@dataclasses.dataclass
class AsrTrace:
    """Running average spike rate of one sublayer, batch-averaged.

    asr[t] is the per-unit cumulative rate after t+1 timesteps, flattened
    over (seq, units); `converged` is the final row.
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
    """Per-head softmax attention over rate-domain K/V; queries are analog."""
    q = a_in @ layer.w_q + layer.b_q
    kh = layer.num_heads(head_dim)
    qh = _split_heads(q, kh, head_dim)
    kh_ = _split_heads(a_k, kh, head_dim)
    vh = _split_heads(a_v, kh, head_dim)
    scores = ops.softmax(qh @ kh_.swapaxes(-1, -2) * (1.0 / np.sqrt(head_dim)))
    return _merge_heads(scores @ vh * head_mask.reshape(1, kh, 1, 1))


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
    firing threshold; spike_mask, when set, multiplies its spikes before
    they are averaged.
    """

    name: str
    source: str
    entry: str
    vth: float
    current: object
    spike_mask: np.ndarray = None


def _layer_stages(layer, head_mask, neuron_mask, head_dim, ops) -> tuple:
    """The six sublayers of one encoder layer in SUBLAYERS order.

    Position j is also the sublayer's column in vth and in a TimestepPlan.
    Pruned heads are zeroed inside the attention current; pruned neurons
    are zeroed in the intermediate spike average.
    """
    vth = layer.vth
    return (
        _Stage("key", "in", _SPIKES, vth[0], lambda x, r: x @ layer.w_k + layer.b_k),
        _Stage("value", "in", _SPIKES, vth[1], lambda x, r: x @ layer.w_v + layer.b_v),
        _Stage("attn", None, _RATES, vth[2], lambda x, r: _attention_current(
            layer, r["in"], r["key"], r["value"], head_mask, head_dim, ops)),
        _Stage("fc", "attn", _MEAN, vth[3], lambda x, r: _layernorm(
            x @ layer.w_o + layer.b_o + r["in"], layer.ln1_scale, layer.ln1_shift, ops)),
        _Stage("inter", "fc", _SPIKES, vth[4],
               lambda x, r: x @ layer.w_inter + layer.b_inter, neuron_mask),
        _Stage("output", "inter", _MEAN, vth[5], lambda x, r: _layernorm(
            x @ layer.w_out + layer.b_out + r["fc"], layer.ln2_scale, layer.ln2_shift, ops)),
    )


def _stage_tables(model: SpikingModel, masks: MaskSet) -> list:
    return [_layer_stages(layer, masks.heads[li], masks.neurons[li],
                          model.config.head_dim, _NP_OPS)
            for li, layer in enumerate(model.layers)]


class _Population:
    """One sublayer's LIF state, spike sum and ASR trace rows.

    State and sum take their shape from the first input current, so a
    sliced model's narrower layers need no separate sizing.
    """

    def __init__(self, name: str, stage: _Stage, leak: float, record: bool):
        self.name, self.stage, self.leak = name, stage, leak
        self.state = self.total = None
        self.rows = [] if record else None

    def step(self, current: np.ndarray, t: int) -> np.ndarray:
        """Advance to timestep t (1-based); returns this step's spikes."""
        if self.state is None:
            self.state, self.total = LifState.zeros(current.shape), np.zeros(current.shape)
        self.state, s = lif_step(self.state, current, self.stage.vth, self.leak)
        mask = self.stage.spike_mask
        self.total += s if mask is None else s * mask
        if self.rows is not None:
            self.rows.append((self.total / t).mean(axis=0).ravel())
        return s

    def trace(self) -> AsrTrace:
        return AsrTrace(self.name, np.asarray(self.rows))


def run_unrolled(model: SpikingModel, masks: MaskSet, tokens, timesteps: int,
                 record_traces: bool = True):
    """Simulate all sublayers jointly for `timesteps` steps.

    Time-major walk of the stage tables: at every step each sublayer reads
    its source's spikes of that step or the averaged rates so far. Returns
    (logits, traces): logits read the converged rate of the final layer's
    first token; traces hold one AsrTrace per sublayer in layer-major
    SUBLAYERS order (empty list when record_traces is False).
    """
    if timesteps < 1:
        raise InvalidInputError("timesteps must be >= 1")
    masks.validate_for(model)
    cur_in = _input_currents(model.embedding, model.config, model.input_scale, tokens)
    tables = _stage_tables(model, masks)
    pops = [[_Population(f"L{li}.{st.name}", st, model.config.leak, record_traces)
             for st in stages] for li, stages in enumerate(tables)]
    state_in = LifState.zeros(cur_in.shape)
    sum_in = np.zeros_like(cur_in)

    for t in range(1, timesteps + 1):
        state_in, s_in = lif_step(state_in, cur_in, 1.0, model.config.leak)
        sum_in += s_in
        spikes, rates = {"in": s_in}, {"in": sum_in / t}
        for stages, layer_pops in zip(tables, pops):
            for stage, pop in zip(stages, layer_pops):
                x = (None if stage.entry == _RATES else
                     (spikes if stage.entry == _SPIKES else rates)[stage.source])
                spikes[stage.name] = pop.step(stage.current(x, rates), t)
                rates[stage.name] = pop.total / t
            spikes, rates = {"in": spikes["output"]}, {"in": rates["output"]}

    logits = rates["in"][:, 0, :] @ model.cls_w + model.cls_b
    traces = [pop.trace() for layer_pops in pops for pop in layer_pops] if record_traces else []
    return logits, traces


def _regen(rates: np.ndarray, t: int, streams) -> np.ndarray:
    """Fresh Bernoulli spike trains, one substream per sample: (B, t, ...)."""
    b = rates.shape[0]
    out = np.empty((b, t) + rates.shape[1:])
    flat = rates.reshape(b, -1)
    for i in range(b):
        out[i] = bernoulli_matrix(flat[i], t, streams[i]).reshape((t,) + rates.shape[1:])
    return out


def run_sequential(model: SpikingModel, masks: MaskSet, plan: TimestepPlan,
                   tokens, stream: RandomStream, record_traces: bool = False):
    """Simulate sublayer by sublayer under a per-sublayer timestep plan.

    Layer-major walk of the stage tables: each sublayer runs for its own
    budget on the converged rates of the stages before it. A spike input
    (or its running mean) is a Bernoulli train regenerated from its
    source's converged rates (clipped rates are valid probabilities by
    construction), drawn in SUBLAYERS order; a rates-only input is constant.
    Sample i draws from stream.derive(i), so results do not depend on batch
    splitting as long as sample indices are stable.

    Returns (logits, traces); traces are per-sublayer cumulative rates of
    length equal to that sublayer's own budget.
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
        for j, stage in enumerate(stages):
            t = int(plan.steps[li, j])
            pop = _Population(f"L{li}.{stage.name}", stage, cfg.leak, record_traces)
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
            if record_traces:
                traces.append(pop.trace())
        a_x = rates["output"]

    logits = a_x[:, 0, :] @ model.cls_w + model.cls_b
    return logits, traces


# --- differentiable rate proxy -----------------------------------------------


def _model_arrays(model: SpikingModel) -> dict:
    """Every trainable array, keyed by stable names (L{i}.{LayerParams field})."""
    arrays = {"embedding": model.embedding, "cls_w": model.cls_w,
              "cls_b": model.cls_b}
    for i, layer in enumerate(model.layers):
        for f in dataclasses.fields(layer):
            arrays[f"L{i}.{f.name}"] = getattr(layer, f.name)
    return arrays


def build_param_vars(model: SpikingModel) -> dict:
    """Graph leaves for every trainable array, keyed by stable names."""
    return {name: ad.Var(arr) for name, arr in _model_arrays(model).items()}


def _rate_walk(params: dict, config, input_scale: float, tokens, head_masks,
               neuron_masks, ops, noise=None):
    """Walk the stage tables with every sublayer at rate clip(current / vth).

    params maps the names of _model_arrays to numpy arrays or graph leaves,
    and ops holds the matching primitives. noise(layer_idx, sublayer_name,
    rate), when given, returns an additive perturbation or None; it applies
    before the stage's spike mask. Returns what proxy_graph returns.
    """
    a = ops.clip(_input_currents(params["embedding"], config, input_scale, tokens))
    rates, layer_outputs = [], []
    for i in range(len(head_masks)):
        layer = LayerParams(**{f.name: params[f"L{i}.{f.name}"]
                               for f in dataclasses.fields(LayerParams)})
        r = {"in": a}
        for stage in _layer_stages(layer, head_masks[i], neuron_masks[i],
                                   config.head_dim, ops):
            x = None if stage.entry == _RATES else r[stage.source]
            rate = ops.clip(stage.current(x, r) / stage.vth)
            delta = None if noise is None else noise(i, stage.name, rate)
            if delta is not None:
                rate = rate + delta
            if stage.spike_mask is not None:
                rate = rate * stage.spike_mask
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
    graph as a constant, so gradients pass through it unchanged; it exists
    to expose finite-timestep sampling error to training.
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
