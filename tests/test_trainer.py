"""Training loop, loss assembly, gradcheck, and the finite-timestep noise hook."""

import dataclasses

import numpy as np
import pytest

from conftest import reference_backward, reference_bernoulli_matrix, tiny_model, token_batch
from spikeprune import (Dataset, InvalidInputError, MaskSet, RandomStream,
                        TimestepPlan, TrainConfig, TrainingDivergedError,
                        allocate_timesteps, gradcheck, layer_importance,
                        run_unrolled, train)
from spikeprune import autodiff as ad
from spikeprune.cost import acs_value
from spikeprune.engine import cross_entropy, rate_proxy_forward
from spikeprune.model import _model_arrays
from spikeprune.trainer import (_activity_graph, _batch_graph, _logits_relaxed, _stage_noise,
                                _straight_through, evaluate_proxy)


def _dataset(config, n, seed):
    tokens, labels = token_batch(config, n, RandomStream(seed))
    return Dataset(tokens, labels)


def _ones(model):
    return MaskSet.all_ones(model)


def _uniform(model, t=None):
    return TimestepPlan.uniform(model.config.num_layers,
                                t if t is not None else model.config.t_conv)


def _loss(model, tokens, labels, masks, plan, cfg, arrays=None):
    """The training objective's value for one batch, as train() builds it."""
    arrays = _model_arrays(model) if arrays is None else arrays
    loss, _ = _batch_graph(model, arrays, masks, tokens, labels, plan, cfg, cfg.lam, "hard")
    return float(loss.value)


class TestTotalLoss:
    """The loss _batch_graph returns: L_pred + lam * M + eta * activity."""

    def test_reduces_to_cross_entropy(self):
        model = tiny_model(0)
        tokens, labels = token_batch(model.config, 4, RandomStream(1))
        logits, _ = rate_proxy_forward(model, _ones(model), tokens)
        cfg = TrainConfig(lam=0.0, eta=0.0)
        got = _loss(model, tokens, labels, _ones(model), _uniform(model), cfg)
        assert got == float(cross_entropy(logits, labels).value)

    def test_cost_term_arithmetic(self):
        """Binary masks enter the ACs formula as their unit counts."""
        model = tiny_model(0)
        tokens, labels = token_batch(model.config, 4, RandomStream(2))
        logits, _ = rate_proxy_forward(model, _ones(model), tokens)
        plan = _uniform(model, 6)
        lam = 1e-7
        got = _loss(model, tokens, labels, _ones(model), plan, TrainConfig(lam=lam))
        ce = float(cross_entropy(logits, labels).value)
        m = acs_value(model.config, [2.0], [6.0], plan)
        assert got == pytest.approx(ce + lam * m, rel=1e-15)

    def test_cost_term_uses_relaxed_sums_when_present(self):
        """With mask logits, M reads the sigmoid sums (1.5 heads, 3 neurons
        here), while the forward pass runs the thresholded masks (all ones)."""
        model = tiny_model(0)
        tokens, labels = token_batch(model.config, 3, RandomStream(3))
        logits, _ = rate_proxy_forward(model, _ones(model), tokens)
        plan = _uniform(model)
        lam = 1e-6
        cfg = TrainConfig(lam=lam)
        z = {"zh0": _logits_relaxed(np.array([0.9, 0.6])) / cfg.kappa,
             "zn0": _logits_relaxed(np.full(6, 0.5)) / cfg.kappa}
        got = _loss(model, tokens, labels, None, plan, cfg, {**_model_arrays(model), **z})
        sums = [float((1.0 / (1.0 + np.exp(-(z[k] * cfg.kappa)))).sum()) for k in ("zh0", "zn0")]
        assert sums == [pytest.approx(1.5, rel=1e-15), 3.0]
        ce = float(cross_entropy(logits, labels).value)
        m = acs_value(model.config, [sums[0]], [sums[1]], plan)
        assert got == pytest.approx(ce + lam * m, rel=1e-15)

    def test_activity_term_arithmetic(self):
        """eta times the sum over layers of the batch-mean L2 norm of each
        layer's output rates."""
        model = tiny_model(0, num_layers=2)
        tokens, labels = token_batch(model.config, 2, RandomStream(4))
        logits, rates = rate_proxy_forward(model, _ones(model), tokens)
        eta = 0.5
        got = _loss(model, tokens, labels, _ones(model), _uniform(model), TrainConfig(eta=eta))
        ce = float(cross_entropy(logits, labels).value)
        norms = sum(float(np.linalg.norm(rates[f"L{i}.output"].reshape(2, -1), axis=1).mean())
                    for i in range(2))
        assert got == pytest.approx(ce + eta * norms, rel=1e-9)

    def test_batched_activity_averages_per_sample_norms(self):
        batched = np.zeros((2, 2, 2))
        batched[0] = [[0.3, 0.4], [0.0, 0.0]]       # norm 0.5
        batched[1] = [[0.0, 0.0], [0.6, 0.8]]       # norm 1.0
        assert float(_activity_graph([ad.Var(batched)]).value) == pytest.approx(0.75, rel=1e-9)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(epochs=-1),
        dict(epochs=1, penalty_epochs=2),
        dict(kappa=0.0),
        dict(learning_rate=0.0),
        dict(lam=-1e-9),
        dict(eta=-0.1),
        dict(train_batch=0),
        dict(test_batch=0),
        dict(penalty_epochs=-1),
        dict(epochs=0, penalty_epochs=1),
        dict(kappa=-1.0),
        dict(learning_rate=-0.05),
        dict(train_batch=-3),
        dict(pca_interval=-1),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(kappa=float("inf")),
        dict(kappa=float("nan")),
        dict(lam=float("inf")),
        dict(eta=float("nan")),
        dict(momentum=float("nan")),
        dict(momentum=-1.0),
        dict(momentum=1.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError):
            TrainConfig(**kwargs)

    def test_defaults_construct(self):
        cfg = TrainConfig()
        assert cfg.epochs == 1 and cfg.adaptive_vth


class TestStraightThrough:
    def test_binary_forward_identity_backward(self):
        sig = ad.Var(np.array([0.1, 0.5, 0.49, 0.51, 0.9]))
        out = _straight_through(sig)
        assert out.value.tolist() == [0.0, 1.0, 0.0, 1.0, 1.0]
        loss = (out * np.array([1.0, 2.0, 3.0, 4.0, 5.0])).sum()
        ad.backward(loss)
        assert sig.grad.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestStageNoise:
    def _plan(self):
        return TimestepPlan(np.array([[4, 10, 3, 10, 10, 2]]))

    def test_full_budget_stages_return_none(self):
        fn = _stage_noise(self._plan(), 10, RandomStream(0))
        value = np.full((2, 4), 0.5)
        assert fn(0, "value", value) is None
        assert fn(0, "fc", value) is None
        assert fn(0, "inter", value) is None

    def test_shortened_stages_get_in_range_deltas(self):
        fn = _stage_noise(self._plan(), 10, RandomStream(1))
        value = RandomStream(2).uniform((3, 5))
        delta = fn(0, "key", value)
        assert delta.shape == value.shape
        noisy = value + delta
        assert (noisy >= 0).all() and (noisy <= 1).all()
        # t=4 draws: empirical means are multiples of 1/4
        assert np.allclose((noisy * 4) % 1, 0.0, atol=1e-12)

    def test_deterministic_and_call_order_sensitive(self):
        value = RandomStream(5).uniform((2, 3))
        a = _stage_noise(self._plan(), 10, RandomStream(9))
        b = _stage_noise(self._plan(), 10, RandomStream(9))
        assert np.array_equal(a(0, "key", value), b(0, "key", value))
        # full-budget calls do not advance the counter, shortened ones do
        c = _stage_noise(self._plan(), 10, RandomStream(9))
        c(0, "value", value)            # t = t_conv: no draw consumed
        first = c(0, "output", value)   # first shortened call: child 0
        d = _stage_noise(self._plan(), 10, RandomStream(9))
        d(0, "key", value)              # shortened: consumes child 0
        second = d(0, "output", value)  # child 1
        assert not np.array_equal(first, second)

    def test_zero_rate_stays_silent(self):
        fn = _stage_noise(self._plan(), 10, RandomStream(3))
        delta = fn(0, "attn", np.zeros((2, 2)))
        assert np.array_equal(delta, np.zeros((2, 2)))

    def test_delta_is_the_mean_of_the_drawn_matrix_minus_the_rate(self):
        """The counts kernel gives the bytes of the mean over the whole
        (t, units) Bernoulli matrix of the stage's child stream."""
        value = RandomStream(6).uniform((3, 4, 5))
        value[0] = 0.0
        value[1, :2] = 1.0
        fn = _stage_noise(self._plan(), 10, RandomStream(4))
        ref = RandomStream(4)
        for k, (name, t) in enumerate([("key", 4), ("attn", 3), ("output", 2)]):
            mean = reference_bernoulli_matrix(value, t, ref.derive(k)).mean(axis=0)
            want = mean.reshape(value.shape) - value
            assert fn(0, name, value).tobytes() == want.tobytes()


class TestBackwardPruning:
    """Training graphs give every trainable leaf the reference sweep's bytes
    and give frozen leaves and constants no gradient."""

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("adaptive_vth", [True, False])
    @pytest.mark.parametrize("masks", ["binary", "hard", "relaxed"])
    def test_leaf_grads_equal_the_reference(self, masks, adaptive_vth, noise):
        model = tiny_model(7, num_layers=2)
        tokens, labels = token_batch(model.config, 5, RandomStream(70))
        plan = TimestepPlan(np.array([[4, 10, 3, 10, 7, 2], [10, 5, 10, 1, 10, 6]]))
        tcfg = TrainConfig(lam=0.002, eta=0.01, adaptive_vth=adaptive_vth)
        arrays = _model_arrays(model)
        binary = MaskSet([np.array([1.0, 0.0]), np.ones(2)],
                         [np.array([1.0, 0, 1, 1, 0, 1]), np.ones(6)])
        if masks != "binary":
            for l in range(2):
                arrays[f"zh{l}"] = _logits_relaxed(np.array([0.3, 0.8])) / tcfg.kappa
                arrays[f"zn{l}"] = _logits_relaxed(
                    0.2 + 0.12 * np.arange(6) - 0.05 * l) / tcfg.kappa
        frozen = set() if adaptive_vth else {n for n in arrays if n.endswith(".vth")}

        def build():
            fn = _stage_noise(plan, model.config.t_conv, RandomStream(71)) if noise else None
            return _batch_graph(model, arrays, binary, tokens, labels, plan, tcfg,
                                tcfg.lam, "relaxed" if masks == "relaxed" else "hard",
                                fn, frozen)

        loss, params = build()
        ad.backward(loss)
        ref_loss, ref_params = build()
        reference_backward(ref_loss)
        assert loss.value.tobytes() == ref_loss.value.tobytes()
        for name in arrays:
            if name in frozen:
                assert params[name].grad is None
            else:
                assert params[name].grad.tobytes() == ref_params[name].grad.tobytes(), name

    def test_binary_masks_and_frozen_thresholds_enter_as_constants(self):
        model = tiny_model(8)
        tokens, labels = token_batch(model.config, 3, RandomStream(80))
        arrays = _model_arrays(model)
        masks = _ones(model)
        loss, params = _batch_graph(model, arrays, masks, tokens, labels, _uniform(model),
                                    TrainConfig(), 0.0, "hard", frozen={"L0.vth"})
        assert not params["L0.vth"].requires_grad and params["L0.w_k"].requires_grad
        ad.backward(loss)
        assert params["L0.vth"].grad is None and params["L0.w_k"].grad is not None
        # the masks are the graph's only other leaves; they need no gradient
        leaves, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if not node.parents and node not in params.values():
                leaves.append(node)
        assert leaves and all(not v.requires_grad and v.grad is None for v in leaves)


class TestTrain:
    def test_epochs_zero_returns_copies(self):
        model = tiny_model(1)
        data = _dataset(model.config, 8, 0)
        masks, plan = _ones(model), _uniform(model)
        m2, k2, p2, hist = train(model, masks, plan, data, TrainConfig(epochs=0))
        assert hist == []
        assert m2 is not model and k2 is not masks and p2 is not plan
        assert np.array_equal(m2.embedding, model.embedding)

    def test_inputs_not_mutated(self):
        model = tiny_model(2)
        data = _dataset(model.config, 16, 1)
        before = model.embedding.copy()
        vth_before = model.layers[0].vth.copy()
        masks, plan = _ones(model), _uniform(model)
        train(model, masks, plan, data,
              TrainConfig(epochs=1, learning_rate=0.05, seed=3))
        assert np.array_equal(model.embedding, before)
        assert np.array_equal(model.layers[0].vth, vth_before)

    def test_deterministic_same_seed(self):
        model = tiny_model(3)
        data = _dataset(model.config, 24, 2)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, seed=7, train_batch=8)
        a, _, _, ha = train(model, _ones(model), _uniform(model), data, cfg)
        b, _, _, hb = train(model, _ones(model), _uniform(model), data, cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.layers[0].w_k, b.layers[0].w_k)
        assert ha == hb

    def test_shortened_plan_trains_deterministically(self):
        model = tiny_model(4)
        data = _dataset(model.config, 16, 3)
        plan = _uniform(model, 4)     # below t_conv: sampling noise active
        cfg = TrainConfig(epochs=2, learning_rate=0.02, seed=5, train_batch=8)
        a, _, _, _ = train(model, _ones(model), plan, data, cfg)
        b, _, _, _ = train(model, _ones(model), plan, data, cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.layers[0].vth, b.layers[0].vth)
        # a different seed takes a different path
        c, _, _, _ = train(model, _ones(model), plan, data,
                           dataclasses.replace(cfg, seed=6))
        assert not np.array_equal(a.embedding, c.embedding)

    def test_noise_hook_only_fires_below_t_conv(self):
        """A full-budget plan must train identically to one with a higher ceiling."""
        model = tiny_model(5)
        data = _dataset(model.config, 16, 4)
        cfg = TrainConfig(epochs=1, learning_rate=0.03, seed=2, train_batch=8)
        a, _, _, _ = train(model, _ones(model), _uniform(model), data, cfg)
        # same steps, stated as an explicit per-sublayer plan
        explicit = TimestepPlan(
            np.full((1, 6), model.config.t_conv, dtype=np.int64))
        b, _, _, _ = train(model, _ones(model), explicit, data, cfg)
        assert np.array_equal(a.embedding, b.embedding)

    def test_history_rows_have_metrics(self):
        model = tiny_model(6)
        data = _dataset(model.config, 16, 5)
        _, _, _, hist = train(model, _ones(model), _uniform(model), data,
                              TrainConfig(epochs=2, seed=0, train_batch=8))
        assert len(hist) == 2
        for row in hist:
            assert set(row) >= {"epoch", "loss", "accuracy", "acs_ratio",
                                "normalized_c", "mean_timesteps",
                                "asr_layer_0"}
            assert 0.0 <= row["accuracy"] <= 1.0
            assert np.isfinite(row["loss"])

    def test_vth_floor_enforced(self):
        model = tiny_model(7)
        data = _dataset(model.config, 16, 6)
        cfg = TrainConfig(epochs=3, learning_rate=0.5, seed=1, train_batch=4,
                          adaptive_vth=True)
        try:
            out, _, _, _ = train(model, _ones(model), _uniform(model), data, cfg)
        except TrainingDivergedError:
            pytest.skip("lr 0.5 diverged before any vth update mattered")
        for layer in out.layers:
            assert (layer.vth >= 1e-3).all()

    def test_frozen_vth_untouched(self):
        model = tiny_model(8)
        data = _dataset(model.config, 16, 7)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, seed=1, train_batch=8,
                          adaptive_vth=False)
        out, _, _, _ = train(model, _ones(model), _uniform(model), data, cfg)
        assert np.array_equal(out.layers[0].vth, model.layers[0].vth)
        assert not np.array_equal(out.layers[0].w_k, model.layers[0].w_k)

    def test_divergence_raises(self):
        model = tiny_model(9)
        model.embedding[:] = np.nan
        data = _dataset(model.config, 8, 8)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train(model, _ones(model), _uniform(model), data,
                  TrainConfig(epochs=1, seed=0))

    def test_empty_dataset_rejected(self):
        model = tiny_model(0)
        data = Dataset(np.zeros((0, 4), dtype=np.int64),
                       np.zeros(0, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="empty"):
            train(model, _ones(model), _uniform(model), data,
                  TrainConfig(epochs=1))

    def test_relaxed_masks_train_and_harden(self):
        model = tiny_model(10)
        data = _dataset(model.config, 16, 9)
        masks = MaskSet([np.ones(2)], [np.ones(6)],
                        [np.full(2, 0.7)], [np.full(6, 0.7)])
        cfg = TrainConfig(epochs=2, learning_rate=0.05, seed=4, train_batch=8,
                          lam=1e-5, penalty_epochs=2)
        _, masks_out, _, _ = train(model, masks, plan=_uniform(model),
                                   data=data, config=cfg)
        for m in masks_out.heads + masks_out.neurons:
            assert np.all((m == 0.0) | (m == 1.0))
        # relaxed values survive hardening (so training can resume) and moved
        assert not np.allclose(masks_out.relaxed_heads[0], 0.7)

    def test_pca_interval_refreshes_plan_within_ceiling(self):
        model = tiny_model(11, pca_base=1.3)
        data = _dataset(model.config, 16, 10)
        cfg = TrainConfig(epochs=2, pca_interval=1, seed=0,
                          train_batch=8, learning_rate=0.02)
        _, _, plan_out, _ = train(model, _ones(model), _uniform(model), data, cfg)
        assert plan_out.max_timesteps() <= model.config.t_conv
        assert plan_out.steps.min() >= 1

    def test_plan_refresh_reads_the_model_config(self):
        """The refresh allocates with the model's own PCA threshold and base."""
        model = tiny_model(11, pca_base=1.3, variance_threshold=0.9)
        data = _dataset(model.config, 16, 10)
        cfg = TrainConfig(epochs=1, pca_interval=1, seed=0, train_batch=8,
                          learning_rate=0.02)
        ceiling = model.config.t_conv
        model_out, masks_out, plan_out, _ = train(model, _ones(model), _uniform(model),
                                                  data, cfg)
        _, traces = run_unrolled(model_out, masks_out, data.tokens[:8], ceiling)
        want = allocate_timesteps(layer_importance(traces, 0.9), 1.3, ceiling)
        assert plan_out == want
        assert plan_out != _uniform(model)


class TestEvaluateProxy:
    def test_perfect_on_self_labels(self):
        model = tiny_model(12)
        tokens, _ = token_batch(model.config, 10, RandomStream(11))
        logits, _ = rate_proxy_forward(model, _ones(model), tokens)
        data = Dataset(tokens, logits.argmax(axis=1))
        assert evaluate_proxy(model, _ones(model), data, batch_size=3) == 1.0

    def test_empty_rejected(self):
        model = tiny_model(0)
        data = Dataset(np.zeros((0, 4), dtype=np.int64),
                       np.zeros(0, dtype=np.int64))
        with pytest.raises(InvalidInputError):
            evaluate_proxy(model, _ones(model), data)


class TestGradcheck:
    def test_full_objective_gradients_match(self):
        model = tiny_model(0)
        batch = token_batch(model.config, 3, RandomStream(100))
        assert gradcheck(model, batch) <= 1e-4

    def test_detects_a_corrupted_vjp(self, monkeypatch):
        """Scaling one op's backward by 5% must blow past the tolerance."""
        model = tiny_model(0)
        batch = token_batch(model.config, 3, RandomStream(100))
        orig = ad.sigmoid

        def crooked(x):
            out = orig(x)
            inner = out.vjp
            out.vjp = lambda g: tuple(1.05 * gi for gi in inner(g))
            return out

        monkeypatch.setattr(ad, "sigmoid", crooked)
        assert gradcheck(model, batch) > 1e-3
