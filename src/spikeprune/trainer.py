"""Training: cross-entropy plus cost and activity penalties over the rate proxy.

The full objective is

    L = L_pred + lam * M(fractional masks, plan) + eta * sum_l ||a*_l||_2

where M plugs the sigmoid-relaxed mask sums into the ACs formulas (keeping
the cost term differentiable) and a*_l is the converged rate of encoder
layer l's output, its norm taken per sample and averaged over the batch.
`_batch_graph` builds it over the rate-proxy graph; training and
`gradcheck` both differentiate that one graph. Mask variables train with straight-through semantics:
the forward pass uses the 0.5-thresholded binary masks, gradients flow
through the sigmoid relaxation. Thresholds can train jointly (adaptive) or
stay frozen. The penalty is staged: lam applies before `penalty_epochs`,
then switches off so accuracy recovers under the chosen masks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad
from . import temporal
from .cost import acs_baseline, acs_value, cost_summary
from .data import iter_batches
from .engine import cross_entropy, proxy_graph, rate_proxy_forward, run_unrolled
from .errors import InvalidInputError, TrainingDivergedError
from .model import SUBLAYERS, MaskSet, SpikingModel, TimestepPlan, _model_arrays
from .numerics import RandomStream, bernoulli_counts, finite_difference_gradient

__all__ = ["TrainConfig", "train", "gradcheck", "evaluate_proxy"]

# keeps the L2 activity gradient finite for an (improbable) all-silent layer
_NORM_EPS = 1e-30


@dataclasses.dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 1
    penalty_epochs: int = 0
    lam: float = 0.0
    eta: float = 0.0
    pca_interval: int = 2
    kappa: float = 10.0
    seed: int = 0
    train_batch: int = 32
    test_batch: int = 128
    momentum: float = 0.9
    adaptive_vth: bool = True

    def __post_init__(self):
        # floats must be finite, and each range check is written so that NaN fails it
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidInputError(f"{f.name} must be finite")
        if self.epochs < 0 or self.penalty_epochs < 0:
            raise InvalidInputError("epoch counts must be non-negative")
        if self.penalty_epochs > self.epochs:
            raise InvalidInputError("penalty_epochs must not exceed epochs")
        if not self.kappa > 0:
            raise InvalidInputError("kappa must be positive")
        if not self.learning_rate > 0:
            raise InvalidInputError("learning_rate must be positive")
        if not (self.lam >= 0 and self.eta >= 0):
            raise InvalidInputError("lam and eta must be non-negative")
        if not 0 <= self.momentum < 1:
            raise InvalidInputError("momentum must be in [0, 1)")
        if self.train_batch < 1 or self.test_batch < 1:
            raise InvalidInputError("batch sizes must be positive")
        if self.pca_interval < 0:
            raise InvalidInputError("pca_interval must be non-negative")


def _straight_through(sig: ad.Var) -> ad.Var:
    """Binary forward (>= 0.5), identity backward onto the sigmoid value."""
    out = ad.Var((sig.value >= 0.5).astype(np.float64), (sig,))
    out.vjp = lambda g: (g,)
    return out


def _activity_graph(layer_outputs) -> ad.Var:
    total = None
    for a in layer_outputs:
        b = a.shape[0]
        flat = a.reshape(b, -1)
        norm = ad.sqrt(ad.square(flat).sum(axis=1) + _NORM_EPS).mean()
        total = norm if total is None else total + norm
    return total


def _logits_relaxed(z) -> np.ndarray:
    # inverse sigmoid, clipped away from the saturated ends
    p = np.clip(z, 1e-6, 1.0 - 1e-6)
    return np.log(p / (1.0 - p))


def _stage_noise(plan: TimestepPlan, t_conv: int, stream: RandomStream):
    """Finite-timestep sampling noise for sublayers running below t_conv.

    Replaces a stage's rate p with the empirical mean of t Bernoulli(p)
    draws: the noise Binomial(t, p)/t - p has mean 0. The sequential
    simulator's error is not zero-mean: a LIF unit whose membrane starts at
    0, with leak 1, fires floor(t * I / vth) times in t steps under a
    constant current 0 <= I <= vth, so its rate sits up to 1/t below the
    proxy's, a bias this noise leaves out.
    Stages still at t_conv are left untouched; a fresh child stream per
    stage keeps the draws independent of array shapes. Saturated units
    (rate 0 or 1) get no noise and draw nothing (bernoulli_counts).
    """
    state = {"calls": 0}

    def fn(layer, name, value):
        t = plan.get(layer, name)
        if t >= t_conv:
            return None
        sub = stream.derive(state["calls"])
        state["calls"] += 1
        return bernoulli_counts(value, t, sub) / t - value

    return fn


def _batch_graph(model, arrays, binary_masks, tokens, labels, plan, tcfg, lam_now,
                 mask_mode, stage_noise=None, frozen=()):
    """Loss Var over the rate proxy for one batch; returns (loss, params).

    The loss is the module docstring's objective with lam_now as lam,
    assembled here and nowhere else; M takes the sigmoid sums of the mask
    logits, or the binary masks' sums without them. params holds one graph
    leaf per entry of arrays; the names in frozen enter as constants and
    get no gradient. When arrays carries mask logits (zh{l}, zn{l}), masks
    are sigmoid(kappa * z): mask_mode "hard" thresholds them in the
    forward pass with the sigmoid backward (training), "relaxed" uses the
    sigmoid values directly (smooth, for gradcheck). Without logits the
    binary masks enter as constants.
    """
    params = {name: ad.Var(arr, requires_grad=name not in frozen)
              for name, arr in arrays.items()}
    layers = range(model.config.num_layers)
    frac_h = frac_n = None
    if "zh0" in params:
        frac_h = [ad.sigmoid(params[f"zh{l}"] * tcfg.kappa) for l in layers]
        frac_n = [ad.sigmoid(params[f"zn{l}"] * tcfg.kappa) for l in layers]
        if mask_mode == "hard":
            hm = [_straight_through(s) for s in frac_h]
            nm = [_straight_through(s) for s in frac_n]
        else:
            hm, nm = frac_h, frac_n
    else:
        hm, nm = binary_masks.heads, binary_masks.neurons
    logits, _, layer_outs = proxy_graph(params, model.config, model.input_scale,
                                        tokens, hm, nm, stage_noise)
    loss = cross_entropy(logits, labels)
    if lam_now:
        sums = (([float(np.sum(h)) for h in hm], [float(np.sum(n)) for n in nm])
                if frac_h is None else ([s.sum() for s in frac_h], [s.sum() for s in frac_n]))
        loss = loss + lam_now * acs_value(model.config, *sums, plan)
    if tcfg.eta:
        loss = loss + tcfg.eta * _activity_graph(layer_outs)
    return loss, params


def evaluate_proxy(model: SpikingModel, masks: MaskSet, dataset,
                   batch_size: int = 128) -> float:
    """Classification accuracy of the rate proxy over a dataset."""
    n = len(dataset.labels)
    if n == 0:
        raise InvalidInputError("empty dataset")
    hits = 0
    for tokens, labels in iter_batches(dataset, batch_size):
        logits, _ = rate_proxy_forward(model, masks, tokens)
        hits += int((logits.argmax(axis=1) == labels).sum())
    return hits / n


def _epoch_metrics(model, hard, plan, dataset, eval_data, tcfg, mean_loss, epoch):
    acc_data = eval_data if eval_data is not None else dataset
    accuracy = evaluate_proxy(model, hard, acc_data, tcfg.test_batch)
    calib = dataset.tokens[:min(tcfg.train_batch, len(dataset.labels))]
    _, rates = rate_proxy_forward(model, hard, calib)
    row = {
        "epoch": epoch,
        "loss": mean_loss,
        "accuracy": accuracy,
        **cost_summary(model.config, hard, plan, rates),
    }
    for li in range(model.config.num_layers):
        row[f"asr_layer_{li}"] = float(np.mean([rates[f"L{li}.{n}"].mean() for n in SUBLAYERS]))
    return row


def train(model: SpikingModel, masks: MaskSet, plan: TimestepPlan, data,
          config: TrainConfig, eval_data=None):
    """Momentum-SGD training of weights, mask logits, and thresholds.

    Mask variables are trained only when `masks` carries relaxed values.
    Epochs before config.penalty_epochs apply the lam * M cost penalty;
    later epochs run without it. When config.pca_interval > 0, the plan is
    refreshed every that many epochs from fresh simulation traces, with the
    current plan's maximum as the allocation ceiling so the latency
    envelope never grows. Sublayers scheduled below t_conv train against
    seeded zero-mean sampling noise with the variance of their planned
    timestep count (see _stage_noise). Returns
    (model', masks', plan', history); inputs are not mutated. epochs=0
    returns copies of the inputs and an empty history.
    """
    masks.validate_for(model)
    work = model.copy()
    masks_out = masks.copy()
    plan = plan.copy()
    history = []
    if config.epochs == 0:
        return work, masks_out, plan, history

    n = len(data.labels)
    if n == 0:
        raise InvalidInputError("empty training set")
    # mask logits are parameters like any weight: keyed zh{l} / zn{l}
    arrays = _model_arrays(work)
    train_masks = masks_out.relaxed_heads is not None
    z_heads = z_neurons = None
    if train_masks:
        z_heads = [_logits_relaxed(h) / config.kappa for h in masks_out.relaxed_heads]
        z_neurons = [_logits_relaxed(m) / config.kappa for m in masks_out.relaxed_neurons]
        arrays.update({f"zh{l}": z for l, z in enumerate(z_heads)})
        arrays.update({f"zn{l}": z for l, z in enumerate(z_neurons)})
    frozen = set() if config.adaptive_vth else {n for n in arrays if n.endswith(".vth")}
    trainables = [name for name in arrays if name not in frozen]
    velocity = {name: np.zeros_like(arrays[name]) for name in trainables}
    stream = RandomStream(config.seed)

    def current_masks() -> MaskSet:
        if not train_masks:
            return masks_out
        sig_h = [1.0 / (1.0 + np.exp(-config.kappa * z)) for z in z_heads]
        sig_n = [1.0 / (1.0 + np.exp(-config.kappa * z)) for z in z_neurons]
        return MaskSet(masks_out.heads, masks_out.neurons, sig_h, sig_n).harden()

    for epoch in range(config.epochs):
        lam_now = config.lam if epoch < config.penalty_epochs else 0.0
        shortened = bool(np.any(plan.steps < work.config.t_conv))
        noise_lane = stream.derive(2000 + epoch) if shortened else None
        losses = []
        batches = iter_batches(data, config.train_batch, stream.derive(1000 + epoch))
        for k, (tokens, labels) in enumerate(batches):
            noise = (_stage_noise(plan, work.config.t_conv, noise_lane.derive(k))
                     if shortened else None)
            loss, params = _batch_graph(work, arrays, masks_out, tokens, labels,
                                        plan, config, lam_now, "hard", noise, frozen)
            value = float(loss.value)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {k}")
            losses.append(value)
            ad.backward(loss)
            for name in trainables:
                g = params[name].grad
                if g is None:
                    continue
                v = velocity[name]
                v *= config.momentum
                v += g
                arrays[name] -= config.learning_rate * v
            if config.adaptive_vth:
                for layer in work.layers:
                    np.maximum(layer.vth, 1e-3, out=layer.vth)

        masks_now = current_masks()
        history.append(_epoch_metrics(work, masks_now, plan, data, eval_data,
                                      config, float(np.mean(losses)), epoch))
        if config.pca_interval > 0 and (epoch + 1) % config.pca_interval == 0:
            ceiling = plan.max_timesteps()
            calib = data.tokens[:min(config.train_batch, n)]
            _, traces = run_unrolled(work, masks_now, calib, ceiling)
            c = temporal.layer_importance(traces, work.config.variance_threshold)
            plan = temporal.allocate_timesteps(c, work.config.pca_base, ceiling)

    return work, current_masks(), plan, history


def gradcheck(model: SpikingModel, batch, config: TrainConfig = None) -> float:
    """Max relative error between analytic and finite-difference gradients.

    Differentiates the full objective (cross-entropy + cost penalty +
    activity loss) with respect to every weight, threshold, and mask logit,
    using the smooth relaxed-mask forward (the straight-through estimator
    is deliberately not the true gradient of the thresholded forward, so
    the check runs where analytic and numeric derivatives are comparable).
    Coordinates sitting within eps of a clip kink are detected by
    disagreeing one-sided differences and excluded.
    """
    tokens, labels = batch
    if config is None:
        config = TrainConfig(lam=1.0 / acs_baseline(model.config), eta=0.01,
                             epochs=1)
    plan = TimestepPlan.uniform(model.config.num_layers, model.config.t_conv)
    arrays = _model_arrays(model.copy())
    names = sorted(arrays)
    # smooth evaluation point for the relaxed masks, away from 0.5
    rel_h = [0.3 + 0.4 * ((np.arange(c) % 2 == 0).astype(float))
             for c in model.head_counts()]
    rel_n = [0.35 + 0.4 * ((np.arange(c) % 2 == 1).astype(float))
             for c in model.neuron_counts()]
    for prefix, rel in (("zh", rel_h), ("zn", rel_n)):
        for l, r in enumerate(rel):
            arrays[f"{prefix}{l}"] = _logits_relaxed(r) / config.kappa
            names.append(f"{prefix}{l}")

    sizes = [(name, arrays[name].shape, arrays[name].size) for name in names]
    vec0 = np.concatenate([arrays[n].ravel() for n in names])

    def build(vec):
        arrs = {}
        pos = 0
        for name, shape, size in sizes:
            arrs[name] = vec[pos:pos + size].reshape(shape)
            pos += size
        return _batch_graph(model, arrs, None, tokens, labels, plan, config,
                            config.lam, "relaxed")

    def f(vec):
        return float(build(vec)[0].value)

    loss, params = build(vec0)
    ad.backward(loss)
    grads = []
    for name in names:
        g = params[name].grad
        grads.append((g if g is not None else np.zeros_like(params[name].value)).ravel())
    analytic = np.concatenate(grads)

    eps = 1e-5
    f0 = f(vec0)
    fd = finite_difference_gradient(f, vec0, eps=eps)
    # central differences cannot resolve gradients much below ulp(f0)/eps,
    # so the relative-error denominator is floored at that noise scale:
    # coordinates whose true gradient sits under it are unmeasurable by FD
    floor = max(1e-6, 1e-5 * abs(f0))
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
    rel = np.abs(fd - analytic) / denom
    worst = 0.0
    for i in np.argsort(rel)[::-1]:
        if rel[i] <= worst:
            break
        step = np.zeros_like(vec0)
        step[i] = eps
        d1 = (f(vec0 + step) - f0) / eps - (f0 - f(vec0 - step)) / eps
        if abs(d1) <= 1e-9:
            # one-sided slopes agree: smooth here, the discrepancy is real
            worst = max(worst, float(rel[i]))
            continue
        # shrink the probe: a kink's one-sided disagreement persists at any
        # scale, smooth curvature shrinks linearly with the step
        e2 = eps / 16
        step[i] = e2
        fwd2 = (f(vec0 + step) - f0) / e2
        bwd2 = (f0 - f(vec0 - step)) / e2
        if abs(fwd2 - bwd2) > 0.25 * abs(d1):
            continue
        # smooth at the smaller scale: re-judge against its central difference
        # (the wide probe may have straddled a nearby kink)
        fd2 = 0.5 * (fwd2 + bwd2)
        r2 = abs(fd2 - analytic[i]) / max(abs(fd2), abs(analytic[i]), floor)
        worst = max(worst, float(r2))
    return worst
