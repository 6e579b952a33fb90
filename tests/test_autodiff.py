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

from conftest import reference_backward
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

    @pytest.mark.parametrize("axis, keepdims", [((0, 2), False), ((-1, 0), True),
                                                ((1,), False), ((), False)])
    def test_mean_over_a_tuple_of_axes(self, axis, keepdims):
        """The count is the product of the reduced axes' sizes, as in numpy."""
        a = _rand((2, 3, 5), 23)
        x = ad.Var(a)
        out = x.mean(axis=axis, keepdims=keepdims)
        assert np.allclose(out.value, a.mean(axis=axis, keepdims=keepdims), rtol=1e-15)
        ad.backward(out.sum())
        count = int(np.prod([a.shape[i] for i in axis]))
        assert np.array_equal(x.grad, np.full(a.shape, 1.0 / count))
        _grad_vs_fd(lambda vs: _contract(vs[0].mean(axis=axis, keepdims=keepdims), 25), [a])


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

    def test_constants_get_no_gradient(self):
        """Lifted arrays and numbers, explicit constants and every node built
        from constants alone keep grad None; leaves get their gradient."""
        x = ad.Var(np.array([1.0, -2.0, 3.0]))
        c = ad.Var(np.array([0.5, 0.25, 2.0]), requires_grad=False)
        const_only = c * 3.0 + np.ones(3)
        assert not const_only.requires_grad
        shifted = x + 1.0
        lifted = shifted.parents[1]
        out = (shifted * c + const_only).sum()
        assert out.requires_grad and not lifted.requires_grad
        ad.backward(out)
        assert np.array_equal(x.grad, c.value)
        for node in (c, lifted, const_only, *const_only.parents):
            assert node.grad is None

    def test_all_constant_root_fills_nothing_else(self):
        c = ad.Var(np.array([1.0, 2.0]), requires_grad=False)
        out = ad.square(c).sum()
        ad.backward(out)
        assert out.grad == 1.0 and c.grad is None

    def test_shared_operands_and_views_leave_held_arrays_alone(self):
        """a + a passes one array to both operands, and reshape/swapaxes pass
        views: backward must build sums in new arrays, so every node's grad
        and every array the caller holds keeps its value."""
        a_val = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.5]])
        w = np.arange(6.0).reshape(3, 2) - 2.5
        held = [a_val.copy(), w.copy()]
        a = ad.Var(a_val)
        s = a + a
        chain = [s.reshape(3, 2)]
        chain.append(chain[-1].swapaxes(0, 1))
        chain.append(chain[-1].reshape(6))
        sq = a * a
        out = (chain[-1] * w.T.ravel()).sum() + sq.sum() + s.sum()
        ad.backward(out)
        assert np.array_equal(a_val, held[0]) and np.array_equal(w, held[1])
        # d out / d chain is w in each view's layout; d out / d s adds the 1
        assert np.array_equal(chain[2].grad, w.T.ravel())
        assert np.array_equal(chain[1].grad, w.T)
        assert np.array_equal(chain[0].grad, w)
        assert np.array_equal(s.grad, w.reshape(2, 3) + 1.0)
        assert np.array_equal(sq.grad, np.ones((2, 3)))
        assert np.array_equal(a.grad, 2.0 * (w.reshape(2, 3) + 1.0) + 2.0 * a_val)
        # a node reached twice through borrowed arrays: a + a hands it the
        # sum's grad twice, two views hand it their owners' grads
        b = a * 2.0
        doubled = b + b
        u, v = b.reshape(6), b.swapaxes(0, 1)
        w2 = w.T.ravel()
        ad.backward((doubled * a_val).sum() + (u * w2).sum() + (v * w).sum())
        assert np.array_equal(doubled.grad, a_val)
        assert np.array_equal(u.grad, w2) and np.array_equal(v.grad, w)
        assert np.array_equal(b.grad, 2.0 * a_val + w2.reshape(2, 3) + w.T)
        # a leaf's grad is its own array: a caller's earlier grad survives
        # a second sweep in which the leaf takes several contributions
        first = a.grad
        snapshot = first.copy()
        ad.backward((a + a).sum() + (a * a).sum())
        assert np.array_equal(first, snapshot)
        assert np.array_equal(a.grad, 2.0 + 2.0 * a_val)

    def test_matches_the_reference_sweep_on_signed_zeros(self):
        """Contributions of -0.0 (a negated zero gradient) reach the leaves
        with the bytes a zeros-started sum gives them."""
        def build():
            x = ad.Var(np.array([0.5, 2.0, -3.0]))
            y = ad.Var(np.array([1.0, 0.0, -1.0]))
            gate = ad.clip01(x)
            out = (-(gate * y)).sum() + (y * 0.0).sum()
            return out, (x, y)

        out, leaves = build()
        ad.backward(out)
        ref_out, ref_leaves = build()
        reference_backward(ref_out)
        for got, want in zip(leaves, ref_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()

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
