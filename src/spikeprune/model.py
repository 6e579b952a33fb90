"""Model state: configuration, weights, masks, and checkpoint files.

A model is a token embedding, a stack of encoder layers, and a linear
classifier head. Each encoder layer owns six spiking sublayers in a fixed
order (key, value, attn, fc, inter, output); the simulator and the rate
proxy in `engine` both read the weights defined here.

Pruning state lives outside the weights: a MaskSet holds binary head and
neuron masks (plus optional relaxed values used while mask variables are
being trained), a TimestepPlan the per-sublayer timestep budgets. So a
SpikingModel always has its config's widths; narrowed layers exist only
inside the simulators, which slice to the kept columns (`slice_columns`).

A checkpoint (spikeprune/v2) is one JSON object: config, input_scale and
the timestep plan as plain JSON, and under "arrays" every float array (keyed
by its _model_arrays name, masks as masks.{group}[layer]) as a record
{"shape": [...], "f8": base64 of its little-endian float64 bytes}. "sha256"
digests those bytes in key order, so a flipped payload bit never loads as
another float. spikeprune/v1 (decimal text) files are refused; rerunning the
command that wrote one writes v2.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math

import numpy as np

from .data import write_replacing
from .errors import CheckpointError, InvalidInputError
from .numerics import RandomStream

__all__ = [
    "SUBLAYERS",
    "ModelConfig",
    "LayerParams",
    "SpikingModel",
    "MaskSet",
    "TimestepPlan",
    "init_model",
    "save_checkpoint",
    "load_checkpoint",
]

# Sublayer order inside one encoder layer. Everything indexed per sublayer
# (thresholds, timestep plans, cost breakdowns, traces) uses this order.
SUBLAYERS = ("key", "value", "attn", "fc", "inter", "output")

FORMAT_TAG = "spikeprune/v2"


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Architecture plus the simulation/pruning constants tied to it.

    head_dim is derived (hidden_size // num_heads), not a field.
    leak is the membrane decay per timestep; 1.0 keeps full memory.
    """

    num_layers: int
    hidden_size: int
    num_heads: int
    intermediate_size: int
    seq_len: int
    vocab_size: int
    num_classes: int = 2
    leak: float = 1.0
    t_conv: int = 100
    variance_threshold: float = 0.99999
    pca_base: float = 1.02
    initial_vth: float = 1.0

    def __post_init__(self):
        # bool is an int subclass; float fields must be finite (compared: huge ints overflow)
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise InvalidInputError(f"{f.name} must be a positive integer, got {v!r}")
            elif (isinstance(v, bool) or not isinstance(v, (int, float))
                  or not abs(v) <= float(np.finfo(np.float64).max)):
                raise InvalidInputError(f"{f.name} must be a finite number, got {v!r}")
        if self.hidden_size % self.num_heads != 0:
            raise InvalidInputError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}")
        if not (0.0 <= self.leak <= 1.0):
            raise InvalidInputError("leak must lie in [0, 1]")
        if not (0.0 < self.variance_threshold <= 1.0):
            raise InvalidInputError("variance_threshold must be in (0, 1]")
        if not self.pca_base > 1.0:
            raise InvalidInputError("pca_base must be greater than 1")
        if not self.initial_vth > 0.0:
            raise InvalidInputError("initial_vth must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, path: str = "config") -> "ModelConfig":
        if not isinstance(d, dict):
            raise CheckpointError(f"{path}: expected an object")
        fields = {f.name for f in dataclasses.fields(cls)}
        if set(d) != fields:
            raise CheckpointError(f"{path}: unknown keys {sorted(set(d) - fields)}, "
                                  f"missing keys {sorted(fields - set(d))}")
        try:
            return cls(**d)
        except InvalidInputError as e:
            raise CheckpointError(f"{path}: {e}") from e


def _axes(axes: str):
    """A LayerParams field with its layout: one letter per axis (d hidden
    size, h heads x head_dim, n intermediate neurons, s sublayers)."""
    return dataclasses.field(metadata={"axes": axes})


@dataclasses.dataclass
class LayerParams:
    """Weights of one encoder layer, and the layout table that checkpoint
    loading and the simulators' slicing walk.

    A model's layers have the config's widths; only slice_columns makes
    narrower ones, which the simulators run. vth holds one threshold per
    sublayer in SUBLAYERS order.
    """

    w_k: np.ndarray = _axes("dh")
    b_k: np.ndarray = _axes("h")
    w_v: np.ndarray = _axes("dh")
    b_v: np.ndarray = _axes("h")
    w_q: np.ndarray = _axes("dh")
    b_q: np.ndarray = _axes("h")
    w_o: np.ndarray = _axes("hd")
    b_o: np.ndarray = _axes("d")
    w_inter: np.ndarray = _axes("dn")
    b_inter: np.ndarray = _axes("n")
    w_out: np.ndarray = _axes("nd")
    b_out: np.ndarray = _axes("d")
    ln1_scale: np.ndarray = _axes("d")
    ln1_shift: np.ndarray = _axes("d")
    ln2_scale: np.ndarray = _axes("d")
    ln2_shift: np.ndarray = _axes("d")
    vth: np.ndarray = _axes("s")

    def num_heads(self, head_dim: int) -> int:
        return self.w_k.shape[1] // head_dim

    def copy(self) -> "LayerParams":
        return LayerParams(**{f.name: getattr(self, f.name).copy()
                              for f in dataclasses.fields(self)})


# field name -> axes, in LayerParams field order
_LAYOUT = {f.name: f.metadata["axes"] for f in dataclasses.fields(LayerParams)}


@dataclasses.dataclass
class SpikingModel:
    config: ModelConfig
    embedding: np.ndarray
    layers: list
    cls_w: np.ndarray
    cls_b: np.ndarray
    # Fixed input-current scale captured at init (max |embedding| then);
    # kept constant afterwards so encoding does not drift as weights train.
    input_scale: float

    def copy(self) -> "SpikingModel":
        return SpikingModel(self.config, self.embedding.copy(),
                            [l.copy() for l in self.layers],
                            self.cls_w.copy(), self.cls_b.copy(),
                            self.input_scale)

    def head_counts(self) -> list:
        return [self.config.num_heads] * self.config.num_layers

    def neuron_counts(self) -> list:
        return [self.config.intermediate_size] * self.config.num_layers


class MaskSet:
    """Binary head and neuron masks per layer, with optional relaxed values.

    heads[l] has one 0/1 entry per head of layer l, neurons[l] one per
    intermediate neuron. relaxed_heads/relaxed_neurons, both present or
    both absent, hold the sigmoid-relaxed values in (0, 1) that mask
    training maintains; the binary masks are their 0.5 thresholding.
    """

    def __init__(self, heads, neurons, relaxed_heads=None, relaxed_neurons=None):
        self.heads = [np.array(h, dtype=np.float64) for h in heads]
        self.neurons = [np.array(n, dtype=np.float64) for n in neurons]
        self.relaxed_heads = (None if relaxed_heads is None
                              else [np.array(h, dtype=np.float64) for h in relaxed_heads])
        self.relaxed_neurons = (None if relaxed_neurons is None
                                else [np.array(n, dtype=np.float64) for n in relaxed_neurons])
        if (self.relaxed_heads is None) != (self.relaxed_neurons is None):
            raise InvalidInputError("relaxed_heads and relaxed_neurons go together")
        for name, groups in (("heads", self.heads), ("neurons", self.neurons)):
            for l, m in enumerate(groups):
                if m.ndim != 1 or m.size == 0:
                    raise InvalidInputError(f"{name}[{l}] must be a non-empty vector")
                if not np.all((m == 0.0) | (m == 1.0)):
                    raise InvalidInputError(f"{name}[{l}] must be binary")
        for name, groups in (("relaxed_heads", self.relaxed_heads),
                             ("relaxed_neurons", self.relaxed_neurons)):
            if groups is None:
                continue
            for l, m in enumerate(groups):
                if not np.all((m >= 0.0) & (m <= 1.0)):
                    raise InvalidInputError(f"{name}[{l}] must lie in [0, 1]")

    @classmethod
    def all_ones(cls, model: SpikingModel) -> "MaskSet":
        return cls([np.ones(h) for h in model.head_counts()],
                   [np.ones(n) for n in model.neuron_counts()])

    def copy(self) -> "MaskSet":
        return MaskSet(self.heads, self.neurons, self.relaxed_heads, self.relaxed_neurons)

    def validate_for(self, model: SpikingModel) -> None:
        for name, counts in (("heads", model.head_counts()),
                             ("neurons", model.neuron_counts())):
            for key in (name, "relaxed_" + name):
                groups = getattr(self, key)
                if groups is not None and len(groups) != len(counts):
                    raise InvalidInputError(f"{key}: mask layer count does not match model")
                for l, (m, n_units) in enumerate(zip(groups or [], counts)):
                    if m.shape != (n_units,):
                        raise InvalidInputError(
                            f"{key}[{l}] has shape {m.shape}, layer has {n_units} {name}")

    def harden(self) -> "MaskSet":
        """Binary masks from the relaxed values (>= 0.5 survives)."""
        if self.relaxed_heads is None:
            return self.copy()
        return MaskSet([h >= 0.5 for h in self.relaxed_heads],
                       [n >= 0.5 for n in self.relaxed_neurons],
                       self.relaxed_heads, self.relaxed_neurons)

    def active_counts(self) -> tuple:
        return ([int(h.sum()) for h in self.heads],
                [int(n.sum()) for n in self.neurons])

    def kept_columns(self, head_dim: int) -> list:
        """The survivor rule: per layer, which columns of each cut layout axis stay.

        {"h": each head's head_dim columns follow its mask, "n": one column
        per neuron}. Both simulators' slicing, the sequential simulator's draw
        counters and the trace columns all read this one rule.
        """
        return [{"h": np.repeat(h.astype(bool), head_dim), "n": n.astype(bool)}
                for h, n in zip(self.heads, self.neurons)]


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


def _draw(stream: RandomStream, rows: int, cols: int, scale: float) -> np.ndarray:
    return (stream.uniform((rows, cols)) * 2.0 - 1.0) * scale


def init_model(config: ModelConfig, stream: RandomStream) -> SpikingModel:
    """Fresh model with scaled-uniform weights and zero biases.

    Weight entries are U(-s, s) with s = 1/sqrt(fan_in). Thresholds start
    at config.initial_vth for every sublayer. The norm affines start at
    scale vth/4, shift vth/2: the firing nonlinearity only passes gradient
    for inputs in (0, vth), and a zero-mean unit-variance normalized signal
    would leave nearly every unit dead or saturated, so the affine is
    initialized to center that window instead. Draw order is fixed
    (embedding, layers in order, classifier), so a given seed always
    produces bitwise the same model.
    """
    d = config.hidden_size
    dn = config.intermediate_size
    s_d = 1.0 / np.sqrt(d)
    vth0 = float(config.initial_vth)
    emb = _draw(stream, config.vocab_size, d, s_d)
    layers = []
    for _ in range(config.num_layers):
        layers.append(LayerParams(
            w_k=_draw(stream, d, d, s_d), b_k=np.zeros(d),
            w_v=_draw(stream, d, d, s_d), b_v=np.zeros(d),
            w_q=_draw(stream, d, d, s_d), b_q=np.zeros(d),
            w_o=_draw(stream, d, d, s_d), b_o=np.zeros(d),
            w_inter=_draw(stream, d, dn, s_d), b_inter=np.zeros(dn),
            w_out=_draw(stream, dn, d, 1.0 / np.sqrt(dn)), b_out=np.zeros(d),
            ln1_scale=np.full(d, vth0 / 4), ln1_shift=np.full(d, vth0 / 2),
            ln2_scale=np.full(d, vth0 / 4), ln2_shift=np.full(d, vth0 / 2),
            vth=np.full(len(SUBLAYERS), vth0),
        ))
    cls_w = _draw(stream, d, config.num_classes, s_d)
    cls_b = np.zeros(config.num_classes)
    scale = float(np.abs(emb).max())
    return SpikingModel(config, emb, layers, cls_w, cls_b, scale)


def slice_columns(model: SpikingModel, keeps: list) -> list:
    """model's layers with every layout axis of layer l cut to keeps[l] (see
    MaskSet.kept_columns). An axis may keep nothing; one that keeps all is not
    cut, so an array no axis cuts is a view of model's, which no simulator writes."""
    cuts = [{a: slice(None) if cols.all() else cols for a, cols in keep.items()}
            for keep in keeps]
    return [LayerParams(**{name: getattr(layer, name)[tuple(cut.get(a, slice(None))
                                                            for a in axes)]
                           for name, axes in _LAYOUT.items()})
            for layer, cut in zip(model.layers, cuts)]


# --- checkpoint files --------------------------------------------------------


def _model_arrays(model: SpikingModel) -> dict:
    """Every trainable array, keyed by stable names (L{i}.{LayerParams field})."""
    arrays = {"embedding": model.embedding, "cls_w": model.cls_w, "cls_b": model.cls_b}
    for i, layer in enumerate(model.layers):
        for f in dataclasses.fields(layer):
            arrays[f"L{i}.{f.name}"] = getattr(layer, f.name)
    return arrays


def _plan_to_dict(plan) -> dict:
    return {name: [int(v) for v in plan.steps[:, i]] for i, name in enumerate(SUBLAYERS)}


def save_checkpoint(path: str, model: SpikingModel, masks: MaskSet, plan) -> None:
    """Write model + masks + timestep plan as one spikeprune/v2 JSON file
    (layout in the module docstring); a save/load cycle reproduces every
    array bit for bit."""
    masks.validate_for(model)
    arrays = _model_arrays(model)
    for g in ("heads", "neurons", "relaxed_heads", "relaxed_neurons"):
        arrays.update((f"masks.{g}[{i}]", m) for i, m in enumerate(getattr(masks, g) or ()))
    digest, records = hashlib.sha256(), {}
    for key in sorted(arrays):
        raw = np.asarray(arrays[key], dtype="<f8").tobytes()
        digest.update(raw)
        records[key] = {"shape": list(arrays[key].shape),
                        "f8": base64.b64encode(raw).decode("ascii")}
    doc = {"format": FORMAT_TAG, "config": model.config.to_dict(),
           "input_scale": model.input_scale, "timestep_plan": _plan_to_dict(plan),
           "arrays": records, "sha256": digest.hexdigest()}
    # one dumps call takes the C encoder; json.dump never does
    write_replacing(path, json.dumps(doc, sort_keys=True))


def _need(doc: dict, key: str, path: str):
    """doc's value at the dotted key path `key`; `path` names doc in errors."""
    for part in key.split("."):
        if not isinstance(doc, dict):
            raise CheckpointError(f"{path}: expected an object")
        if part not in doc:
            raise CheckpointError(f"{path}.{part}: missing")
        doc, path = doc[part], f"{path}.{part}"
    return doc


def _payload(key: str, record) -> tuple:
    """(bytes, shape) of one array record, its shape checked against its bytes."""
    if not isinstance(record, dict) or set(record) != {"shape", "f8"}:
        raise CheckpointError(f"{key}: expected an object with keys shape and f8")
    shape, text = record["shape"], record["f8"]
    # type, not isinstance: JSON true is a bool, which isinstance takes for an int
    if (not isinstance(shape, list) or len(shape) > 2
            or any(type(n) is not int or n < 0 for n in shape)):
        raise CheckpointError(f"{key}: shape must list at most 2 non-negative integers")
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{key}: f8 is not a base64 string ({e})") from e
    if len(raw) != 8 * math.prod(shape):
        raise CheckpointError(f"{key}: {len(raw)} bytes do not hold float64 shape {shape}")
    return raw, shape


def load_checkpoint(path: str):
    """Read a spikeprune/v2 checkpoint; returns (model, masks, plan).

    Malformed files raise CheckpointError naming the offending key (an
    array's own key, a dotted path for the rest).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, deep nesting
        raise CheckpointError(f"{path}: not a JSON document ({e})") from e
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint: top level must be an object")
    tag = _need(doc, "format", "checkpoint")
    if tag != FORMAT_TAG:
        raise CheckpointError(f"checkpoint.format: {tag!r} is not {FORMAT_TAG!r}; "
                              "rerun the command that wrote it")
    config = ModelConfig.from_dict(_need(doc, "config", "checkpoint"), "config")

    d = config.hidden_size
    scale = _need(doc, "input_scale", "checkpoint")
    if type(scale) not in (int, float) or not 0 <= scale <= float(np.finfo(np.float64).max):
        raise CheckpointError("input_scale: must be a finite non-negative number")

    records = _need(doc, "arrays", "checkpoint")
    if not isinstance(records, dict):
        raise CheckpointError("checkpoint.arrays: expected an object")
    digest, arrays = hashlib.sha256(), {}
    for key in sorted(records):
        if not key.isprintable():  # every message names its key on one line
            raise CheckpointError(f"checkpoint.arrays: key {key!r} is not printable")
        raw, shape = _payload(key, records[key])
        digest.update(raw)
        arrays[key] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if _need(doc, "sha256", "checkpoint") != digest.hexdigest():
        raise CheckpointError("checkpoint.sha256: does not match the arrays' bytes")

    def take(key, shape):
        if key not in arrays:
            raise CheckpointError(f"{key}: missing")
        arr = arrays.pop(key)
        if arr.shape != shape:
            raise CheckpointError(f"{key}: shape {list(arr.shape)}, expected {list(shape)}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{key}: non-finite entries")
        return arr

    emb = take("embedding", (config.vocab_size, d))
    sizes = {"d": d, "h": d, "n": config.intermediate_size, "s": len(SUBLAYERS)}
    layers = []
    for i in range(config.num_layers):
        layers.append(LayerParams(**{
            name: take(f"L{i}.{name}", tuple(sizes[a] for a in axes))
            for name, axes in _LAYOUT.items()}))
        if np.any(layers[-1].vth <= 0.0):
            raise CheckpointError(f"L{i}.vth: thresholds must be positive")
    cls_w = take("cls_w", (d, config.num_classes))
    cls_b = take("cls_b", (config.num_classes,))
    model = SpikingModel(config, emb, layers, cls_w, cls_b, float(scale))

    def mask_group(group, counts):  # a relaxed group may be absent
        return (None if group.startswith("relaxed") and f"masks.{group}[0]" not in arrays
                else [take(f"masks.{group}[{i}]", (c,)) for i, c in enumerate(counts)])
    hc, nc = model.head_counts(), model.neuron_counts()
    try:
        masks = MaskSet(mask_group("heads", hc), mask_group("neurons", nc),
                        mask_group("relaxed_heads", hc), mask_group("relaxed_neurons", nc))
    except InvalidInputError as e:
        raise CheckpointError(f"masks: {e}") from e
    if arrays:
        raise CheckpointError(f"{min(arrays)}: unknown array")

    raw_plan = _need(doc, "timestep_plan", "checkpoint")
    cols = [_need(raw_plan, name, "timestep_plan") for name in SUBLAYERS]
    for name, vals in zip(SUBLAYERS, cols):
        if not isinstance(vals, list) or len(vals) != config.num_layers:
            raise CheckpointError(f"timestep_plan.{name}: expected {config.num_layers} entries")
        for j, v in enumerate(vals):
            if type(v) is not int or not 1 <= v < 2 ** 63:
                raise CheckpointError(f"timestep_plan.{name}[{j}]: must be a positive integer")
    plan = TimestepPlan(np.array(cols, dtype=np.int64).T)
    return model, masks, plan
