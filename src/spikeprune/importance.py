"""Unit importance for spatial pruning: Fisher diagonal times spike rate.

The Fisher part is the mean squared gradient of the prediction loss with
respect to a mask variable, evaluated at all-ones masks through the rate
proxy. The rate part is the unit's converged average spiking rate from a
calibration simulation. Their product ranks heads and neurons: a unit is
expendable when the loss is insensitive to it or it barely spikes.

The mask gradients come one encoder layer at a time: each layer's graph
is rebuilt on its input rates and swept once, top layer first, so at its
peak the sweep holds every layer's input rates and one layer's tape.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .engine import (_AD_OPS, _NP_OPS, _input_currents, _layer_params, _rate_layer,
                     _readout, cross_entropy)
from .errors import InvalidInputError
from .model import SpikingModel, _model_arrays

__all__ = ["ImportanceScores", "fisher_diagonal", "asr_factors", "combine"]


@dataclasses.dataclass
class ImportanceScores:
    """Per-layer head/neuron scores plus the two factors they combine."""

    head_scores: list
    neuron_scores: list
    head_fisher: list
    neuron_fisher: list
    head_asr: list
    neuron_asr: list


def _layer_inputs(model: SpikingModel, arrays: dict, tokens) -> list:
    """Each encoder layer's input rates at all-ones masks, from the numpy
    rate walk; nothing else it computes is kept."""
    inputs = [_NP_OPS.clip(_input_currents(arrays["embedding"], model.config,
                                           model.input_scale, tokens))]
    for i, (h, n) in enumerate(zip(model.head_counts()[:-1], model.neuron_counts())):
        inputs.append(_rate_layer(_layer_params(arrays, i), inputs[-1], np.ones(h),
                                  np.ones(n), model.config.head_dim, _NP_OPS)["output"])
    return inputs


def _layer_grads(model: SpikingModel, consts: dict, i: int, a, seed, labels):
    """Layer i's graph on its input rates a, swept once: (head mask grad,
    neuron mask grad, input grad).

    With labels (the top layer) the sweep starts from the mean
    cross-entropy of the logits, else from seed, the gradient the layer
    above handed to its input. Layer 0's input is a constant, so its grad
    is None. Nothing of the graph outlives the call.
    """
    x = ad.Var(a, requires_grad=i > 0)
    hm = ad.Var(np.ones(model.head_counts()[i]))
    nm = ad.Var(np.ones(model.neuron_counts()[i]))
    out = _rate_layer(_layer_params(consts, i), x, hm, nm, model.config.head_dim,
                      _AD_OPS)["output"]
    if labels is None:
        ad.backward(out, seed)
    else:
        logits = _readout(out, consts["cls_w"], consts["cls_b"], _AD_OPS)
        ad.backward(cross_entropy(logits, labels))
    return hm.grad, nm.grad, x.grad


def fisher_diagonal(model: SpikingModel, calibration_batches):
    """Mean squared mask gradients over batches: (head_fisher, neuron_fisher).

    Mask variables are attached at value 1 (the unpruned operating point);
    the gradient of the mean cross-entropy is taken through the rate proxy.
    The weights enter as constants, so backward computes only what reaches
    the masks.
    The mean over batches (not the sum) keeps scores invariant to how many
    calibration batches are supplied.

    A batch is swept one layer at a time, top layer first: a numpy rate
    walk keeps each layer's input rates, and each layer's graph is rebuilt
    on its input and swept once, seeded by the gradient the layer above
    handed to that input. At its peak the sweep holds every layer's input
    rates and one layer's tape; the squared mask gradients are the
    whole-graph sweep's, byte for byte.
    """
    batches = list(calibration_batches)
    if not batches:
        raise InvalidInputError("need at least one calibration batch")
    arrays = _model_arrays(model)
    consts = {name: ad.Var(arr, requires_grad=False) for name, arr in arrays.items()}
    head_acc = [np.zeros(c) for c in model.head_counts()]
    neuron_acc = [np.zeros(c) for c in model.neuron_counts()]
    for tokens, labels in batches:
        inputs = _layer_inputs(model, arrays, tokens)
        top, seed = len(inputs) - 1, None
        for l in range(top, -1, -1):
            head_grad, neuron_grad, seed = _layer_grads(
                model, consts, l, inputs.pop(), seed, labels if l == top else None)
            if head_grad is not None:
                head_acc[l] += head_grad ** 2
            if neuron_grad is not None:
                neuron_acc[l] += neuron_grad ** 2
            if seed is None:
                break
    scale = 1.0 / len(batches)
    return ([h * scale for h in head_acc], [n * scale for n in neuron_acc])


def asr_factors(traces, config):
    """Converged-rate factors from a calibration run's traces.

    Head i's factor is the mean converged rate of its spike-converted
    attention output over the head's dims and all tokens; neuron j's is its
    mean converged rate over tokens. Traces are expected in layer-major
    sublayer order as produced by the simulators, each layer's attn and
    inter trace over the config's full (seq x units) width.
    """
    by_name = {t.name: t for t in traces}
    heads = []
    neurons = []
    n, kh, hd = config.seq_len, config.num_heads, config.head_dim

    def converged(name: str, width: int) -> np.ndarray:
        if name not in by_name:
            raise InvalidInputError(f"no {name} trace")
        conv = by_name[name].converged
        if conv.size != width:
            raise InvalidInputError(f"{name} trace size {conv.size} is not {width}")
        return conv

    li = 0
    while f"L{li}.attn" in by_name:
        heads.append(converged(f"L{li}.attn", n * kh * hd).reshape(n, kh, hd).mean(axis=(0, 2)))
        conv = converged(f"L{li}.inter", n * config.intermediate_size)
        neurons.append(conv.reshape(n, config.intermediate_size).mean(axis=0))
        li += 1
    if li == 0:
        raise InvalidInputError("no attention traces found")
    return heads, neurons


def combine(fisher, asr) -> ImportanceScores:
    """Elementwise product of the two factors; shapes must match."""
    groups = []  # per unit kind: (scores, fisher, asr), one array per layer
    for kind, fs, rs in zip(("head", "neuron"), fisher, asr):
        if len(fs) != len(rs):
            raise InvalidInputError("fisher and asr layer counts differ")
        fs, rs = [np.asarray(f) for f in fs], [np.asarray(a) for a in rs]
        for f, a in zip(fs, rs):
            if f.shape != a.shape:
                raise InvalidInputError(f"{kind} factor shapes differ: {f.shape} vs {a.shape}")
        groups.append(([f * a for f, a in zip(fs, rs)], fs, rs))
    (hs, hf, ha), (ns, nf, na) = groups
    return ImportanceScores(hs, ns, hf, nf, ha, na)
