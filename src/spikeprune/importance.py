"""Unit importance for spatial pruning: Fisher diagonal times spike rate.

The Fisher part is the mean squared gradient of the prediction loss with
respect to a mask variable, evaluated at all-ones masks through the rate
proxy. The rate part is the unit's converged average spiking rate from a
calibration simulation. Their product ranks heads and neurons: a unit is
expendable when the loss is insensitive to it or it barely spikes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .engine import cross_entropy, proxy_graph
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


def fisher_diagonal(model: SpikingModel, calibration_batches):
    """Mean squared mask gradients over batches: (head_fisher, neuron_fisher).

    Mask variables are attached at value 1 (the unpruned operating point);
    the gradient of the mean cross-entropy is taken through the rate proxy.
    The weights enter as constants, so backward computes only what reaches
    the masks.
    The mean over batches (not the sum) keeps scores invariant to how many
    calibration batches are supplied.
    """
    batches = list(calibration_batches)
    if not batches:
        raise InvalidInputError("need at least one calibration batch")
    head_acc = [np.zeros(c) for c in model.head_counts()]
    neuron_acc = [np.zeros(c) for c in model.neuron_counts()]
    for tokens, labels in batches:
        params = {name: ad.Var(arr, requires_grad=False)
                  for name, arr in _model_arrays(model).items()}
        hm = [ad.Var(np.ones(c)) for c in model.head_counts()]
        nm = [ad.Var(np.ones(c)) for c in model.neuron_counts()]
        logits, _, _ = proxy_graph(params, model.config, model.input_scale,
                                   tokens, hm, nm)
        loss = cross_entropy(logits, labels)
        ad.backward(loss)
        for l in range(len(hm)):
            if hm[l].grad is not None:
                head_acc[l] += hm[l].grad ** 2
            if nm[l].grad is not None:
                neuron_acc[l] += nm[l].grad ** 2
    scale = 1.0 / len(batches)
    return ([h * scale for h in head_acc], [n * scale for n in neuron_acc])


def asr_factors(traces, config):
    """Converged-rate factors from a calibration run's traces.

    Head i's factor is the mean converged rate of its spike-converted
    attention output over the head's dims and all tokens; neuron j's is its
    mean converged rate over tokens. Traces are expected in layer-major
    sublayer order as produced by the simulators.
    """
    by_name = {t.name: t for t in traces}
    heads = []
    neurons = []
    n, hd = config.seq_len, config.head_dim
    li = 0
    while f"L{li}.attn" in by_name:
        conv = by_name[f"L{li}.attn"].converged
        if conv.size % (n * hd) != 0:
            raise InvalidInputError(f"L{li}.attn trace size {conv.size} does not "
                                    f"factor into heads of width {hd}")
        kh = conv.size // (n * hd)
        heads.append(conv.reshape(n, kh, hd).mean(axis=(0, 2)))
        conv = by_name[f"L{li}.inter"].converged
        neurons.append(conv.reshape(n, conv.size // n).mean(axis=0))
        li += 1
    if li == 0:
        raise InvalidInputError("no attention traces found")
    return heads, neurons


def combine(fisher, asr) -> ImportanceScores:
    """Elementwise product of the two factors; shapes must match."""
    head_fisher, neuron_fisher = fisher
    head_asr, neuron_asr = asr
    if len(head_fisher) != len(head_asr) or len(neuron_fisher) != len(neuron_asr):
        raise InvalidInputError("fisher and asr layer counts differ")
    head_scores = []
    neuron_scores = []
    for f, a in zip(head_fisher, head_asr):
        if np.shape(f) != np.shape(a):
            raise InvalidInputError(f"head factor shapes differ: {np.shape(f)} vs {np.shape(a)}")
        head_scores.append(np.asarray(f) * np.asarray(a))
    for f, a in zip(neuron_fisher, neuron_asr):
        if np.shape(f) != np.shape(a):
            raise InvalidInputError(f"neuron factor shapes differ: {np.shape(f)} vs {np.shape(a)}")
        neuron_scores.append(np.asarray(f) * np.asarray(a))
    return ImportanceScores(head_scores, neuron_scores,
                            [np.asarray(f) for f in head_fisher],
                            [np.asarray(f) for f in neuron_fisher],
                            [np.asarray(a) for a in head_asr],
                            [np.asarray(a) for a in neuron_asr])
