"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery to differentiate the steady-state rate forward pass:
broadcasted arithmetic, matmul with batch dims, softmax, clipping,
reductions, and indexing (an embedding lookup is `table[ids]`, with a
scatter-add backward). Three chains the rate walk repeats are one node
each: the LIF rate clip(current / vth[j]) (`rate`), the affine map
x @ w + b (`linear`) and layer normalization (`layernorm`). Each fused vjp
runs its chain's array operations in the chain's order, so gradients keep
the chain's bytes while the tape holds one node and fewer arrays. These
three, `clip01`, `softmax` and `sigmoid` take their values from numpy
kernels named for them (`rate` from `_rate`), and the simulators and the
trainer call those kernels on plain arrays. Values are eagerly computed;
each Var remembers a vector-Jacobian closure so a single `backward` sweep
fills `.grad` fields. The sweep keeps the gradients of leaves and of the
root; an interior node's gradient is freed once its vjp has passed it on,
so a graph's peak memory is its forward tape, not the tape plus every adjoint.

Only nodes that reach a trainable leaf take part in that sweep. A leaf made
with `Var(x)` requires a gradient; a constant (`Var(x, requires_grad=False)`,
or a plain array or number lifted into an operation) does not, and a node
requires one exactly when one of its parents does. A vjp returns None for a
parent that needs no gradient, and such nodes keep `grad is None`.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["Var", "backward"]


_needs_grad = operator.attrgetter("requires_grad")


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """Node in the computation graph; wraps a float64 ndarray value."""

    __slots__ = ("value", "grad", "parents", "vjp", "requires_grad")
    # numpy operators defer to the reflected Var method, so `array * var`
    # builds a graph node instead of an object array of per-element Vars;
    # with no reflected method (sub, truediv, matmul) they raise TypeError
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, *, requires_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        # a leaf says so itself; any other node needs a gradient iff a parent does
        self.requires_grad = any(map(_needs_grad, parents)) if parents else requires_grad

    @property
    def shape(self):
        return self.value.shape

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        out = Var(self.value + other.value, (self, other))
        out.vjp = lambda g: (_sum_to_shape(g, self.shape) if self.requires_grad else None,
                             _sum_to_shape(g, other.shape) if other.requires_grad else None)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.value, (self,))
        out.vjp = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-_lift(other))

    def __mul__(self, other):
        other = _lift(other)
        out = Var(self.value * other.value, (self, other))
        out.vjp = lambda g: (
            _sum_to_shape(g * other.value, self.shape) if self.requires_grad else None,
            _sum_to_shape(g * self.value, other.shape) if other.requires_grad else None,
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        out = Var(self.value / other.value, (self, other))
        out.vjp = lambda g: (
            _sum_to_shape(g / other.value, self.shape) if self.requires_grad else None,
            (_sum_to_shape(-g * self.value / (other.value ** 2), other.shape)
             if other.requires_grad else None),
        )
        return out

    def __matmul__(self, other):
        other = _lift(other)
        out = Var(self.value @ other.value, (self, other))

        def vjp(g):
            ga = (_sum_to_shape(g @ np.swapaxes(other.value, -1, -2), self.shape)
                  if self.requires_grad else None)
            gb = (_sum_to_shape(np.swapaxes(self.value, -1, -2) @ g, other.shape)
                  if other.requires_grad else None)
            return ga, gb

        out.vjp = vjp
        return out

    # --- shape ops --------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.shape
        out = Var(self.value.reshape(shape), (self,))
        out.vjp = lambda g: (g.reshape(orig),)
        return out

    def swapaxes(self, a, b):
        out = Var(np.swapaxes(self.value, a, b), (self,))
        out.vjp = lambda g: (np.swapaxes(g, a, b),)
        return out

    def __getitem__(self, key):
        out = Var(self.value[key], (self,))

        def vjp(g):
            full = np.zeros_like(self.value)
            np.add.at(full, key, g)
            return (full,)

        out.vjp = vjp
        return out

    # --- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Var(self.value.sum(axis=axis, keepdims=keepdims), (self,))

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        out.vjp = vjp
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.value.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.value.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def _lift(x) -> Var:
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


# --- free functions; a node f with a numpy kernel _f takes its value from it


def _clip01(x):
    return np.clip(x, 0.0, 1.0)


def _rate(current, vth, j: int):
    return _clip01(current / vth[j])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x, axis: int = -1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _linear(x, w, b):
    out = x @ w
    out += b
    return out


def _layernorm_parts(x, eps: float):
    """(x - mean, sqrt(var + eps)) over the last axis; means are sums times 1/n."""
    inv_n = 1.0 / x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) * inv_n
    return centred, np.sqrt(np.square(centred).sum(axis=-1, keepdims=True) * inv_n + eps)


def _layernorm(x, scale, shift, eps: float):
    out, root = _layernorm_parts(x, eps)
    out /= root
    out *= scale
    out += shift
    return out


def clip01(x: Var) -> Var:
    """Clip to [0, 1]; gradient passes only strictly inside the interval."""
    out = Var(_clip01(x.value), (x,))
    inside = (x.value > 0.0) & (x.value < 1.0)
    out.vjp = lambda g: (g * inside,)
    return out


def rate(current: Var, vth: Var, j: int) -> Var:
    """clip01(current / vth[j]) as one node: a LIF unit's steady-state rate.

    The vjp runs that chain's array operations in its order, so both
    gradients carry its bytes. Its mask is read off the clipped value,
    strictly inside (0, 1) exactly where the quotient is, so the tape holds
    neither the quotient nor the mask.
    """
    v = vth.value[j]
    value = _rate(current.value, vth.value, j)
    out = Var(value, (current, vth))

    def vjp(g):
        masked = g * ((value > 0.0) & (value < 1.0))
        g_vth = None
        if vth.requires_grad:
            g_vth = np.zeros_like(vth.value)
            g_vth[j] += _sum_to_shape(-masked * current.value / v ** 2, ())
        return (masked / v if current.requires_grad else None), g_vth

    out.vjp = vjp
    return out


def linear(x, w, b) -> Var:
    """x @ w + b as one node; b broadcasts into the product's shape.

    The vjp runs that chain's array operations (add's, then matmul's), so
    every gradient carries its bytes, and the tape holds one node where
    the chain held two.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    out = Var(_linear(x.value, w.value, b.value), (x, w, b))

    def vjp(g):
        return ((_sum_to_shape(g @ np.swapaxes(w.value, -1, -2), x.shape)
                 if x.requires_grad else None),
                (_sum_to_shape(np.swapaxes(x.value, -1, -2) @ g, w.shape)
                 if w.requires_grad else None),
                _sum_to_shape(g, b.shape) if b.requires_grad else None)

    out.vjp = vjp
    return out


def layernorm(x, scale, shift, eps: float) -> Var:
    """(x - mean) / sqrt(var + eps) * scale + shift over the last axis, one node.

    The vjp recomputes the centred input and the root from x, then runs the
    array operations of the chain this replaces (sum, mul, sub, square, sum,
    mul, add, sqrt, truediv, mul, add) in the order backward would run
    their vjps, so every gradient carries the chain's bytes and the tape
    keeps none of the chain's eleven intermediates.
    """
    x, scale, shift = _lift(x), _lift(scale), _lift(shift)
    out = Var(_layernorm(x.value, scale.value, shift.value, eps), (x, scale, shift))

    def vjp(g):
        centred, root = _layernorm_parts(x.value, eps)
        g_x = g_scale = None
        if scale.requires_grad:
            g_scale = _sum_to_shape(g * (centred / root), scale.shape)
        if x.requires_grad:
            inv_n = 1.0 / x.shape[-1]
            g_normed = g * scale.value
            g_root = _sum_to_shape(-g_normed * centred / (root ** 2), root.shape)
            # centred's two shares, through the quotient and through the square
            g_centred = g_normed / root + g_root * 0.5 / root * inv_n * 2.0 * centred
            g_mean = -_sum_to_shape(g_centred, root.shape)
            g_x = g_centred + g_mean * inv_n
        return g_x, g_scale, (_sum_to_shape(g, shift.shape) if shift.requires_grad else None)

    out.vjp = vjp
    return out


def sqrt(x: Var) -> Var:
    root = np.sqrt(x.value)
    out = Var(root, (x,))
    # the closure holds the value, not `out`: a node reachable from its own
    # vjp is a reference cycle, which keeps the whole graph (and its arrays)
    # alive until the cyclic garbage collector happens to run
    out.vjp = lambda g: (g * 0.5 / root,)
    return out


def square(x: Var) -> Var:
    out = Var(x.value ** 2, (x,))
    out.vjp = lambda g: (g * 2.0 * x.value,)
    return out


def sigmoid(x: Var) -> Var:
    s = _sigmoid(x.value)
    out = Var(s, (x,))
    out.vjp = lambda g: (g * s * (1.0 - s),)
    return out


def softmax(x: Var, axis: int = -1) -> Var:
    s = _softmax(x.value, axis)
    out = Var(s, (x,))

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    out.vjp = vjp
    return out


def logsumexp(x: Var, axis: int = -1) -> Var:
    m = x.value.max(axis=axis, keepdims=True)
    e = np.exp(x.value - m)
    se = e.sum(axis=axis, keepdims=True)
    out = Var(np.squeeze(m + np.log(se), axis=axis), (x,))
    soft = e / se

    def vjp(g):
        return (np.expand_dims(g, axis) * soft,)

    out.vjp = vjp
    return out


def take_labels(logits: Var, labels: np.ndarray) -> Var:
    """Pick logits[i, labels[i]] for each row i."""
    rows = np.arange(logits.value.shape[0])
    out = Var(logits.value[rows, labels], (logits,))

    def vjp(g):
        full = np.zeros_like(logits.value)
        full[rows, labels] = g
        return (full,)

    out.vjp = vjp
    return out


def backward(root: Var, grad=None) -> None:
    """Accumulate grad times d(root)/d(leaf) into each leaf's .grad.

    grad has root's shape and defaults to ones, the gradient of a scalar
    root; one passed in seeds the sweep as root's .grad and is not changed.

    Only nodes that require a gradient are visited. Leaves and the root
    keep their .grad; every other node's .grad is dropped (None) as soon as
    its vjp has handed it to the parents, since nothing the sweep visits
    later reads it. Values, vjps and parent links stay until the caller
    drops the root, so the graph can be swept again. A node's first
    contribution is stored as the vjp returned it, which may be an array
    another node holds as its grad (add passes g on to both parents, reshape
    returns a view). So backward changes in place only the arrays it made
    itself: a second contribution makes a new sum, later ones add into it.
    A leaf starts from +0.0 plus its first contribution, so it owns its grad
    and reads exactly what a zero-initialised sum reads, signed zeros
    included.
    """
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)] if root.requires_grad else []
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    for node in topo:
        node.grad = None
    root.grad = np.ones_like(root.value) if grad is None else grad
    owned: set[int] = {id(root)} if grad is None else set()
    for node in reversed(topo):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None:
                continue
            if parent.grad is None and parent.parents:
                parent.grad = g
            elif parent.grad is not None and id(parent) in owned:
                parent.grad += g
            else:
                # a leaf's first contribution or a borrowed grad's second
                start = 0.0 if parent.grad is None else parent.grad
                parent.grad = np.add(start, g, out=np.empty_like(parent.value))
                owned.add(id(parent))
        if node is not root:
            node.grad = None
