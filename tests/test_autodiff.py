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
from hypothesis import given, settings, strategies as st

from conftest import graph_nodes, reference_backward
from spikeprune import RandomStream, finite_difference_gradient
from spikeprune import autodiff as ad
from spikeprune.engine import _NP_OPS, LN_EPS


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
        """`array <op> var` is one Var node, never an object array of Vars:
        add and mul reflect, and the operators Var does not reflect raise."""
        left = _rand((3, 3), 17)
        b = _rand((3, 3), 18, low=0.5, high=2.0)
        if op not in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(left, ad.Var(b))
            return
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


def _bytes(x):
    return None if x is None else np.asarray(x).tobytes()


class TestRate:
    """rate(current, vth, j) is one node for the chain clip01(current / vth[j])
    and runs the chain's operations in its order, so it reads the chain's
    bytes: its value and both vjp outputs, and the leaves' grads."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_value_and_vjps_equal_the_chain_bit_for_bit(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), max_size=3)))
        size = int(np.prod(shape))
        vth_val = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6)))
        j = data.draw(st.integers(0, 5))
        # currents as multiples of vth[j]: exactly 0 (either sign), exactly at
        # the threshold, beyond it, negative, and anything in between
        factors = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.5, 4.0, -1.0]),
                            st.floats(-2.0, 3.0))
        cur_val = (np.array(data.draw(st.lists(factors, min_size=size, max_size=size)))
                   .reshape(shape) * vth_val[j])
        g = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                                        max_size=size))).reshape(shape)
        trainable = data.draw(st.sampled_from([(True, True), (True, False), (False, True)]))

        def leaves():
            return (ad.Var(cur_val.copy(), requires_grad=trainable[0]),
                    ad.Var(vth_val.copy(), requires_grad=trainable[1]))

        current, vth = leaves()
        fused = ad.rate(current, vth, j)
        ch_current, ch_vth = leaves()
        picked = ch_vth[j]
        quotient = ch_current / picked
        chain = ad.clip01(quotient)
        assert fused.value.tobytes() == chain.value.tobytes()
        assert fused.parents == (current, vth)

        got_current, got_vth = fused.vjp(g)
        (g_quotient,) = chain.vjp(g)
        want_current, g_picked = quotient.vjp(g_quotient)
        want_vth = None if g_picked is None else picked.vjp(g_picked)[0]
        assert _bytes(got_current) == _bytes(want_current)
        assert _bytes(got_vth) == _bytes(want_vth)

        weights = _rand(shape, 40)
        ad.backward((fused * weights).sum())
        ad.backward((chain * weights).sum())
        assert _bytes(current.grad) == _bytes(ch_current.grad)
        assert _bytes(vth.grad) == _bytes(ch_vth.grad)

        assert _NP_OPS.rate(cur_val, vth_val, j).tobytes() == fused.value.tobytes()
        assert (_NP_OPS.rate(cur_val, vth_val, j).tobytes()
                == _NP_OPS.clip(cur_val / vth_val[j]).tobytes())

    def test_fd_inside_the_interval(self):
        cur = _rand((2, 3), 41, low=0.1, high=0.9)
        vth = _rand((6,), 42, low=1.0, high=2.0)
        _grad_vs_fd(lambda vs: _contract(ad.rate(vs[0], vs[1], 4), 43), [cur, vth])


def _handed(value, requires_grad, log):
    """An interior operand node that logs the gradient backward hands it.

    backward gives an interior node its first contribution as is and sums
    later ones in sweep order, so after a sweep through a chain, log holds
    what a fused node's vjp must return for this operand (nothing when it
    needs no gradient).
    """
    node = ad.Var(value, (ad.Var(np.zeros(()), requires_grad=requires_grad),))

    def vjp(g):
        log.append(g)
        return (None,)

    node.vjp = vjp
    return node


def _assert_fused_is_the_chain(fused_op, chain_op, values, trainable, g, weights):
    """fused_op and chain_op over the same operands read the same bytes:
    the value, each vjp output against what a sweep of the chain hands
    that operand, and every leaf's grad after backward."""
    def leaves():
        return [ad.Var(v.copy(), requires_grad=t) for v, t in zip(values, trainable)]

    fused_leaves, chain_leaves = leaves(), leaves()
    fused, chain = fused_op(*fused_leaves), chain_op(*chain_leaves)
    assert fused.value.tobytes() == chain.value.tobytes()
    assert fused.parents == tuple(fused_leaves)

    logs = [[] for _ in values]
    handed = chain_op(*[_handed(v.copy(), t, log)
                        for v, t, log in zip(values, trainable, logs)])
    ad.backward((handed * g).sum())
    for got, log in zip(fused.vjp(g), logs):
        assert len(log) <= 1
        assert _bytes(got) == _bytes(log[0] if log else None)

    ad.backward((fused * weights).sum())
    ad.backward((chain * weights).sum())
    for got, want in zip(fused_leaves, chain_leaves):
        assert _bytes(got.grad) == _bytes(want.grad)


def _floats(shape, data, low, high, special):
    """An array of shape drawn from [low, high] and the special values."""
    size = int(np.prod(shape))
    elements = st.one_of(st.sampled_from(special), st.floats(low, high))
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)


def _layernorm_chain(x, scale, shift, eps):
    """The operator chain ad.layernorm replaces (numpy arrays or Vars)."""
    square, sqrt = (ad.square, ad.sqrt) if isinstance(x, ad.Var) else (np.square, np.sqrt)
    inv_n = 1.0 / x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = square(xc).sum(axis=-1, keepdims=True) * inv_n
    return xc / sqrt(var + eps) * scale + shift


class TestLinear:
    """linear(x, w, b) is one node for the chain x @ w + b, and runs the
    chain's operations, so it reads the chain's bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_value_and_vjps_equal_the_chain_bit_for_bit(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
        k, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        special = [0.0, -0.0, 1.0, -1.0]
        x = _floats(lead + (k,), data, -3.0, 3.0, special)
        w = _floats((k, m), data, -2.0, 2.0, special)
        b = _floats(data.draw(st.sampled_from([(m,), ()])), data, -2.0, 2.0, special)
        g = _floats(lead + (m,), data, -2.0, 2.0, special)
        trainable = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        _assert_fused_is_the_chain(ad.linear, lambda x, w, b: x @ w + b, [x, w, b],
                                   trainable, g, _rand(g.shape, 50))
        copies = [x.copy(), w.copy(), b.copy()]
        assert _NP_OPS.linear(x, w, b).tobytes() == (x @ w + b).tobytes()
        assert _NP_OPS.linear(x, w, b).tobytes() == ad.linear(x, w, b).value.tobytes()
        assert all(a.tobytes() == c.tobytes() for a, c in zip((x, w, b), copies))

    def test_fd(self):
        x, w, b = _rand((2, 3, 4), 51), _rand((4, 5), 52), _rand((5,), 53)
        _grad_vs_fd(lambda vs: _contract(ad.linear(*vs), 54), [x, w, b])


class TestLayernorm:
    """layernorm(x, scale, shift, eps) is one node for the chain
    (x - mean) / sqrt(var + eps) * scale + shift, whose vjp runs the
    chain's operations in backward's order, so it reads the chain's bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_value_and_vjps_equal_the_chain_bit_for_bit(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        d = data.draw(st.integers(1, 5))
        eps = data.draw(st.sampled_from([LN_EPS, 1e-3, 0.25]))
        special = [0.0, -0.0, 1.0, -1.0]
        if data.draw(st.booleans()):
            # rows that are one value throughout: centred exactly 0, root sqrt(eps)
            x = np.repeat(_floats(lead + (1,), data, -3.0, 3.0, special), d, axis=-1)
        else:
            x = _floats(lead + (d,), data, -3.0, 3.0, special)
        scale = _floats((d,), data, -2.0, 2.0, special)
        shift = _floats((d,), data, -2.0, 2.0, special)
        g = _floats(lead + (d,), data, -2.0, 2.0, special)
        trainable = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))

        def fused(x, scale, shift):
            return ad.layernorm(x, scale, shift, eps)

        def chain(x, scale, shift):
            return _layernorm_chain(x, scale, shift, eps)

        _assert_fused_is_the_chain(fused, chain, [x, scale, shift], trainable, g,
                                   _rand(g.shape, 55))
        copies = [x.copy(), scale.copy(), shift.copy()]
        want = _layernorm_chain(x, scale, shift, eps).tobytes()
        assert _NP_OPS.layernorm(x, scale, shift, eps).tobytes() == want
        assert ad.layernorm(x, scale, shift, eps).value.tobytes() == want
        assert all(a.tobytes() == c.tobytes() for a, c in zip((x, scale, shift), copies))

    def test_fd(self):
        x = _rand((2, 3, 5), 56)
        scale, shift = _rand((5,), 57, low=0.5, high=1.5), _rand((5,), 58)
        _grad_vs_fd(lambda vs: _contract(ad.layernorm(*vs, LN_EPS), 59), [x, scale, shift],
                    atol=1e-6)


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
        views: backward must build sums in new arrays, so every leaf's grad
        and every array the caller holds keeps its value. Interior grads are
        dropped once passed on; the leaf reads the bytes of the reference
        sweep, which keeps every grad."""
        a_val = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.5]])
        w = np.arange(6.0).reshape(3, 2) - 2.5
        held = [a_val.copy(), w.copy()]
        w2 = w.T.ravel()

        def views(a):
            s = a + a
            chain = s.reshape(3, 2).swapaxes(0, 1).reshape(6)
            return (chain * w2).sum() + (a * a).sum() + s.sum()

        def borrowed(a):
            # a node reached twice through borrowed arrays: a + a hands it the
            # sum's grad twice, two views hand it their owners' grads
            b = a * 2.0
            doubled = b + b
            return ((doubled * a_val).sum() + (b.reshape(6) * w2).sum()
                    + (b.swapaxes(0, 1) * w).sum())

        # d out / d chain is w in each view's layout; d out / d s adds the 1
        expected = {views: 2.0 * (w.reshape(2, 3) + 1.0) + 2.0 * a_val,
                    borrowed: 2.0 * (2.0 * a_val + w2.reshape(2, 3) + w.T)}
        a = ad.Var(a_val)
        for build in (views, borrowed):
            out = build(a)
            ad.backward(out)
            assert np.array_equal(a_val, held[0]) and np.array_equal(w, held[1])
            assert out.grad == 1.0
            interior = [node for node in graph_nodes(out)[1:] if node.parents]
            assert interior and all(node.grad is None for node in interior)
            ref = ad.Var(a_val.copy())
            reference_backward(build(ref))
            assert a.grad.tobytes() == ref.grad.tobytes(), build.__name__
            assert np.array_equal(a.grad, expected[build])
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
