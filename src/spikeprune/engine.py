"""Spike dynamics and the steady-state rate proxy.

Each encoder layer is one stage table (`_layer_stages`): its six spiking
sublayers in SUBLAYERS order, each with its source, how that input enters
(this step's spikes, their running mean, or averaged rates only), its
input current, its threshold column and its mask. Both simulators walk
the same tables:

* `run_unrolled`, time-major: every sublayer advances together for T
  timesteps, so the nonlinear stages (attention softmax, layer norm),
  which read running average rates, settle as T grows and the averaged
  rates converge to the rate proxy's fixed point.
* `run_sequential`, layer-major: each sublayer runs for its own budget
  from a TimestepPlan on a fresh Bernoulli spike train regenerated from
  its source's converged rates, which is what makes per-sublayer timestep
  budgets independent knobs.

`rate_proxy_forward` / `proxy_graph` is one differentiable pass where each
LIF sublayer is replaced by rate = clip(current / v_th, 0, 1); training
and Fisher importance differentiate it. It keeps its own autodiff form of
the layer: its attention multiplies by 1/sqrt(hd) where the simulators
divide by sqrt(hd), which rounds differently in the last bit.

Rates and spikes are float64 arrays shaped (batch, seq, units).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .model import SUBLAYERS, MaskSet, SpikingModel
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


def _input_currents(model: SpikingModel, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[1] != model.config.seq_len:
        raise InvalidInputError(
            f"tokens must be (batch, {model.config.seq_len}), got {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= model.config.vocab_size:
        raise InvalidInputError("token ids out of vocabulary range")
    emb = model.embedding[tokens]
    if model.input_scale <= 0.0:
        return np.zeros_like(emb)
    return emb / model.input_scale


def _split_heads(x: np.ndarray, kh: int, hd: int) -> np.ndarray:
    b, n = x.shape[0], x.shape[1]
    return x.reshape(b, n, kh, hd).swapaxes(1, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, kh, n, hd = x.shape
    return x.swapaxes(1, 2).reshape(b, n, kh * hd)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layernorm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + LN_EPS) * scale + shift


def _attention_current(layer, a_in, a_k, a_v, head_mask, head_dim):
    """Per-head softmax attention over rate-domain K/V; queries are analog."""
    q = a_in @ layer.w_q + layer.b_q
    kh = layer.num_heads(head_dim)
    qh = _split_heads(q, kh, head_dim)
    kh_ = _split_heads(a_k, kh, head_dim)
    vh = _split_heads(a_v, kh, head_dim)
    scores = _softmax(qh @ kh_.swapaxes(-1, -2) / np.sqrt(head_dim))
    ctx = scores @ vh
    ctx = ctx * head_mask.reshape(1, kh, 1, 1)
    return _merge_heads(ctx)


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


def _layer_stages(layer, head_mask, neuron_mask, head_dim) -> tuple:
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
            layer, r["in"], r["key"], r["value"], head_mask, head_dim)),
        _Stage("fc", "attn", _MEAN, vth[3], lambda x, r: _layernorm(
            x @ layer.w_o + layer.b_o + r["in"], layer.ln1_scale, layer.ln1_shift)),
        _Stage("inter", "fc", _SPIKES, vth[4],
               lambda x, r: x @ layer.w_inter + layer.b_inter, neuron_mask),
        _Stage("output", "inter", _MEAN, vth[5], lambda x, r: _layernorm(
            x @ layer.w_out + layer.b_out + r["fc"], layer.ln2_scale, layer.ln2_shift)),
    )


def _stage_tables(model: SpikingModel, masks: MaskSet) -> list:
    return [_layer_stages(layer, masks.heads[li], masks.neurons[li], model.config.head_dim)
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
    cur_in = _input_currents(model, tokens)
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
    cur_in = _input_currents(model, tokens)
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


def _ln_graph(x, scale, shift):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = ad.square(xc).mean(axis=-1, keepdims=True)
    return xc / ad.sqrt(var + LN_EPS) * scale + shift


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
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    hd = config.head_dim
    factor = 1.0 / input_scale if input_scale > 0.0 else 0.0
    a = ad.clip01(ad.gather_rows(params["embedding"], tokens) * factor)
    rates = []
    layer_outputs = []
    b, n = tokens.shape

    def noised(var, layer_idx, name):
        if stage_noise is None:
            return var
        delta = stage_noise(layer_idx, name, var.value)
        if delta is None:
            return var
        return var + ad.Var(delta)

    for i in range(len(head_masks)):
        w_k, b_k = params[f"L{i}.w_k"], params[f"L{i}.b_k"]
        vth = params[f"L{i}.vth"]
        kh = w_k.shape[1] // hd
        hm = head_masks[i] if isinstance(head_masks[i], ad.Var) else ad.Var(head_masks[i])
        nm = (neuron_masks[i] if isinstance(neuron_masks[i], ad.Var)
              else ad.Var(neuron_masks[i]))

        a_k = noised(ad.clip01((a @ w_k + b_k) / vth[0]), i, "key")
        a_v = noised(ad.clip01((a @ params[f"L{i}.w_v"] + params[f"L{i}.b_v"])
                               / vth[1]), i, "value")
        q = a @ params[f"L{i}.w_q"] + params[f"L{i}.b_q"]
        qh = q.reshape(b, n, kh, hd).swapaxes(1, 2)
        kh_ = a_k.reshape(b, n, kh, hd).swapaxes(1, 2)
        vh = a_v.reshape(b, n, kh, hd).swapaxes(1, 2)
        scores = ad.softmax(qh @ kh_.swapaxes(2, 3) * (1.0 / np.sqrt(hd)), axis=-1)
        ctx = (scores @ vh) * hm.reshape(1, kh, 1, 1)
        ctx = ctx.swapaxes(1, 2).reshape(b, n, kh * hd)
        a_att = noised(ad.clip01(ctx / vth[2]), i, "attn")

        pre4 = a_att @ params[f"L{i}.w_o"] + params[f"L{i}.b_o"] + a
        ln1 = _ln_graph(pre4, params[f"L{i}.ln1_scale"], params[f"L{i}.ln1_shift"])
        a_4 = noised(ad.clip01(ln1 / vth[3]), i, "fc")

        inter = noised(ad.clip01((a_4 @ params[f"L{i}.w_inter"]
                                  + params[f"L{i}.b_inter"]) / vth[4]), i, "inter")
        a_5 = inter * nm

        pre6 = a_5 @ params[f"L{i}.w_out"] + params[f"L{i}.b_out"] + a_4
        ln2 = _ln_graph(pre6, params[f"L{i}.ln2_scale"], params[f"L{i}.ln2_shift"])
        a_6 = noised(ad.clip01(ln2 / vth[5]), i, "output")

        rates.extend([(f"L{i}.key", a_k), (f"L{i}.value", a_v),
                      (f"L{i}.attn", a_att), (f"L{i}.fc", a_4),
                      (f"L{i}.inter", a_5), (f"L{i}.output", a_6)])
        layer_outputs.append(a_6)
        a = a_6

    logits = a[:, 0, :] @ params["cls_w"] + params["cls_b"]
    return logits, rates, layer_outputs


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

    Rates are (batch, seq, units) arrays; the converged unrolled simulation
    approaches them as timesteps grow.
    """
    masks.validate_for(model)
    params = build_param_vars(model)
    logits, rates, _ = proxy_graph(params, model.config, model.input_scale,
                                   tokens, masks.heads, masks.neurons)
    return logits.value, {name: var.value for name, var in rates}
