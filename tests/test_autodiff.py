"""Every primitive's vector-Jacobian product against central differences.

Each check builds a scalar by contracting the op's output with a fixed
random weight array, takes the analytic gradient via backward(), and
compares against finite_difference_gradient of the same scalar viewed as a
function of one input at a time.
"""

import gc
import operator

import numpy as np
import pytest

from spikeprune import RandomStream, finite_difference_gradient
from spikeprune import autodiff as ad


def _rand(shape, seed, low=-1.0, high=1.0):
    u = RandomStream(seed).uniform(shape)
    return low + (high - low) * u


def _grad_vs_fd(build, inputs, atol=1e-7):
    """build(list_of_Vars) -> scalar Var; checks d/d(input_i) for every i."""
    varz = [ad.Var(x.copy()) for x in inputs]
    out = build(varz)
    ad.backward(out)
    for i, x in enumerate(inputs):
        def f(xi, i=i):
            vs = [ad.Var(inp.copy()) for inp in inputs]
            vs[i] = ad.Var(xi)
            return float(build(vs).value)

        fd = finite_difference_gradient(f, x)
        analytic = varz[i].grad
        if analytic is None:
            analytic = np.zeros_like(x)
        assert np.allclose(analytic, fd, atol=atol), f"input {i} mismatch"


def _contract(v, seed):
    w = _rand(v.shape, seed)
    return (v * ad.Var(w)).sum()


class TestArithmetic:
    def test_add_broadcast(self):
        a, b = _rand((3, 1), 0), _rand((1, 4), 1)
        _grad_vs_fd(lambda vs: _contract(vs[0] + vs[1], 7), [a, b])

    def test_sub_and_neg(self):
        a, b = _rand((2, 3), 2), _rand((2, 3), 3)
        _grad_vs_fd(lambda vs: _contract(vs[0] - vs[1], 8), [a, b])
        _grad_vs_fd(lambda vs: _contract(-vs[0], 9), [a])

    def test_mul_broadcast(self):
        a, b = _rand((2, 3), 4), _rand((3,), 5)
        _grad_vs_fd(lambda vs: _contract(vs[0] * vs[1], 10), [a, b])

    def test_div(self):
        a = _rand((2, 3), 6)
        b = _rand((2, 3), 7, low=0.5, high=2.0)
        _grad_vs_fd(lambda vs: _contract(vs[0] / vs[1], 11), [a, b])

    def test_scalar_operands(self):
        a = _rand((2, 2), 8)
        _grad_vs_fd(lambda vs: _contract(2.0 * vs[0] + 1.0, 12), [a])
        _grad_vs_fd(lambda vs: _contract(1.0 / (vs[0] + 3.0), 13), [a])

    def test_matmul(self):
        a, b = _rand((3, 4), 9), _rand((4, 2), 10)
        _grad_vs_fd(lambda vs: _contract(vs[0] @ vs[1], 14), [a, b])

    def test_matmul_batched(self):
        a, b = _rand((2, 3, 4), 11), _rand((2, 4, 5), 12)
        _grad_vs_fd(lambda vs: _contract(vs[0] @ vs[1], 15), [a, b])

    def test_matmul_broadcast_rhs(self):
        # batch on the left only; gradient must reduce back to (4, 2)
        a, b = _rand((2, 3, 4), 13), _rand((4, 2), 14)
        _grad_vs_fd(lambda vs: _contract(vs[0] @ vs[1], 16), [a, b])

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.matmul])
    def test_array_on_the_left_defers_to_var(self, op):
        """`array <op> var` is one Var node, never an object array of Vars."""
        left = _rand((3, 3), 17)
        b = _rand((3, 3), 18, low=0.5, high=2.0)
        out = op(left, ad.Var(b))
        assert isinstance(out, ad.Var)
        assert np.array_equal(out.value, op(left, b))
        _grad_vs_fd(lambda vs: _contract(op(left, vs[0]), 19), [b])


class TestShapeOps:
    def test_reshape(self):
        a = _rand((2, 6), 15)
        _grad_vs_fd(lambda vs: _contract(vs[0].reshape(3, 4), 17), [a])
        _grad_vs_fd(lambda vs: _contract(vs[0].reshape((4, 3)), 18), [a])

    def test_swapaxes(self):
        a = _rand((2, 3, 4), 16)
        _grad_vs_fd(lambda vs: _contract(vs[0].swapaxes(1, 2), 19), [a])

    def test_getitem(self):
        a = _rand((4, 5), 17)
        _grad_vs_fd(lambda vs: _contract(vs[0][1:3, :], 20), [a])


class TestReductions:
    def test_sum_all(self):
        a = _rand((3, 4), 20)
        _grad_vs_fd(lambda vs: vs[0].sum(), [a])

    def test_sum_axis_keepdims(self):
        a = _rand((3, 4), 21)
        _grad_vs_fd(lambda vs: _contract(vs[0].sum(axis=1, keepdims=True), 22), [a])
        _grad_vs_fd(lambda vs: _contract(vs[0].sum(axis=0), 23), [a])

    def test_mean(self):
        a = _rand((3, 4), 22)
        _grad_vs_fd(lambda vs: _contract(vs[0].mean(axis=-1, keepdims=True), 24), [a])


class TestNonlinearities:
    def test_exp_log_sqrt_square(self):
        a = _rand((2, 3), 23, low=0.2, high=2.0)
        _grad_vs_fd(lambda vs: _contract(ad.sqrt(vs[0]), 27), [a])
        _grad_vs_fd(lambda vs: _contract(ad.square(vs[0]), 28), [a])

    def test_sigmoid(self):
        a = _rand((3, 3), 24, low=-3, high=3)
        _grad_vs_fd(lambda vs: _contract(ad.sigmoid(vs[0]), 29), [a])

    def test_softmax(self):
        a = _rand((2, 5), 25, low=-2, high=2)
        _grad_vs_fd(lambda vs: _contract(ad.softmax(vs[0], axis=-1), 30), [a])

    def test_logsumexp(self):
        a = _rand((3, 4), 26, low=-2, high=2)
        _grad_vs_fd(lambda vs: _contract(ad.logsumexp(vs[0], axis=-1), 31), [a])

    def test_clip01_gradient_gates_on_the_interval(self):
        x = np.array([-0.5, 0.2, 0.8, 1.5])
        v = ad.Var(x)
        out = (ad.clip01(v) * ad.Var(np.ones(4))).sum()
        ad.backward(out)
        assert np.array_equal(v.grad, np.array([0.0, 1.0, 1.0, 0.0]))
        assert np.array_equal(out.parents[0].parents[0].value,
                              np.array([0.0, 0.2, 0.8, 1.0]))

    def test_clip01_fd_inside_interval(self):
        a = _rand((2, 3), 27, low=0.1, high=0.9)
        _grad_vs_fd(lambda vs: _contract(ad.clip01(vs[0]), 32), [a])


class TestGathers:
    def test_gather_rows_with_repeats(self):
        """Repeated ids must scatter-add, not overwrite."""
        table = _rand((5, 3), 29)
        ids = np.array([[0, 2, 2], [4, 0, 1]])
        _grad_vs_fd(lambda vs: _contract(vs[0][ids], 33), [table])

    def test_take_labels(self):
        logits = _rand((4, 3), 30)
        labels = np.array([0, 2, 1, 1])
        _grad_vs_fd(lambda vs: _contract(ad.take_labels(vs[0], labels), 34),
                    [logits])


class TestGraphStructure:
    def test_dropped_graph_needs_no_cycle_collector(self):
        """No node is reachable from its own vjp, so dropping the root frees
        the whole graph, arrays included, by reference counting alone."""
        x = ad.Var(_rand((3, 4), 35, low=0.5, high=2.0))
        labels = np.array([0, 3, 1])
        gc.collect()
        gc.disable()
        try:
            h = ad.sqrt(ad.square(x) + 1.0) @ ad.Var(_rand((4, 4), 36))
            h = ad.clip01(ad.sigmoid(h[:, :2].reshape(3, 2).swapaxes(0, 1)))
            out = (ad.softmax(h, axis=0).mean() + ad.logsumexp(h).sum()
                   + ad.take_labels(ad.Var(_rand((3, 4), 37)) / x, labels).sum())
            ad.backward(out)
            del h, out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_subexpression_accumulates(self):
        x = ad.Var(np.array([2.0, 3.0]))
        y = x * x + x
        out = y.sum()
        ad.backward(out)
        assert np.allclose(x.grad, 2 * x.value + 1)

    def test_diamond_graph(self):
        x = ad.Var(np.array([0.5, -0.25]))
        a = ad.square(x)
        out = (a * x + a).sum()   # x^3 + x^2
        ad.backward(out)
        assert np.allclose(x.grad, 3 * x.value**2 + 2 * x.value)

    def test_backward_twice_resets_grads(self):
        x = ad.Var(np.array([1.0, 2.0]))
        out = ad.square(x).sum()
        ad.backward(out)
        first = x.grad.copy()
        ad.backward(out)
        assert np.array_equal(x.grad, first)

    def test_composition_matches_fd(self):
        """A layernorm-shaped composite: centered, scaled, clipped."""
        x = _rand((3, 6), 31)
        g = _rand((6,), 32, low=0.5, high=1.5)

        def build(vs):
            xv, gv = vs
            mu = xv.mean(axis=-1, keepdims=True)
            xc = xv - mu
            var = ad.square(xc).mean(axis=-1, keepdims=True)
            normed = xc / ad.sqrt(var + 1e-5) * gv
            return _contract(ad.sigmoid(normed), 35)

        _grad_vs_fd(build, [x, g], atol=1e-6)


def test_var_shapes_and_lift():
    v = ad.Var(np.ones((2, 3)))
    assert v.shape == (2, 3)
    out = v + 1.0
    assert isinstance(out.parents[1], ad.Var)
    with pytest.raises(AttributeError):
        ad.Var(np.ones(2)).bad_attribute = 1   # __slots__ rejects strays
