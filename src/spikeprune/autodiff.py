"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery to differentiate the steady-state rate forward pass:
broadcasted arithmetic, matmul with batch dims, softmax, clipping, reductions,
and indexing (an embedding lookup is `table[ids]`, with a scatter-add
backward). Values are eagerly computed; each Var remembers a vector-Jacobian
closure so a single `backward` sweep fills `.grad` fields.

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
    # builds a graph node instead of an object array of per-element Vars
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

    def __rsub__(self, other):
        return _lift(other) + (-self)

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

    def __rtruediv__(self, other):
        return _lift(other) / self

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

    def __rmatmul__(self, other):
        return _lift(other) @ self

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


# --- free functions ---------------------------------------------------------


def clip01(x: Var) -> Var:
    """Clip to [0, 1]; gradient passes only strictly inside the interval."""
    out = Var(np.clip(x.value, 0.0, 1.0), (x,))
    inside = (x.value > 0.0) & (x.value < 1.0)
    out.vjp = lambda g: (g * inside,)
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
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = Var(s, (x,))
    out.vjp = lambda g: (g * s * (1.0 - s),)
    return out


def softmax(x: Var, axis: int = -1) -> Var:
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
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


def backward(root: Var) -> None:
    """Accumulate d(root)/d(node) into .grad over the whole graph (root scalar).

    Only nodes that require a gradient are visited. A node's first
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
    root.grad = np.ones_like(root.value)
    owned: set[int] = {id(root)}
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
