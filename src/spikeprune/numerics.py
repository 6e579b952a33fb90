"""Dense numerics shared by every other module.

Matrices are plain 2-D float64 numpy arrays (row-major). Randomness goes
through :class:`RandomStream`, a counter-based generator whose output is a
pure function of (seed, counter), so identical seeds and draw sequences give
identical results on every platform regardless of numpy version.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "InvalidInputError",
    "RandomStream",
    "as_matrix",
    "bernoulli_matrix",
    "finite_difference_gradient",
    "pca_component_count",
]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising InvalidInputError otherwise."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


# SplitMix64 constants (Steele, Lea & Flood 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays (wraps mod 2^64)."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class RandomStream:
    """Counter-based deterministic RNG (SplitMix64 over a 64-bit counter).

    Draw i of a stream with seed s is _mix64(s + (i+1)*GAMMA); the stream
    only tracks how many draws have been consumed, so sequences are
    reproducible and independent of batching. Instances are not safe to
    share across concurrent callers; use :meth:`derive` to split
    independent child streams.
    """

    algorithm = "splitmix64"

    def __init__(self, seed: int, counter: int = 0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = int(counter)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64(self.seed + idx * _GAMMA)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 draws in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        bits = self._raw(n) >> np.uint64(11)
        u = bits.astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape) if shape else float(u[0])

    def integers(self, bound: int, shape=()) -> np.ndarray:
        """Integer draws in [0, bound). Modulo bias is < bound/2^64."""
        if bound <= 0:
            raise InvalidInputError("bound must be positive")
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        vals = (self._raw(n) % np.uint64(bound)).astype(np.int64)
        return vals.reshape(shape) if shape else int(vals[0])

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) via stable argsort of uniforms."""
        return np.argsort(self.uniform((n,)), kind="stable")

    def derive(self, index: int) -> "RandomStream":
        """Independent child stream; children of distinct indices never collide."""
        tag = np.array([(index + 1) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) * _MIX1
        child = _mix64(self.seed ^ tag)[0]
        return RandomStream(int(child))


def pca_component_count(x, variance_threshold: float) -> int:
    """Number of principal components explaining `variance_threshold` of variance.

    Columns are mean-centered (not standardized); eigenvalues of the column
    covariance are taken in descending order and the smallest k with
    cumulative explained ratio >= threshold is returned. Zero total variance
    counts as one component (a constant signal still spans one dimension).
    The eigenvalues come from the smaller of the two Gram matrices of the
    centered data (rows x rows for a wide input): both share the nonzero
    spectrum, and a trace is usually far wider than it is long.
    """
    mat = as_matrix(x, "pca input")
    if mat.shape[0] < 2:
        raise InvalidInputError("pca input needs at least 2 rows")
    if not (0.0 < variance_threshold <= 1.0):
        raise InvalidInputError("variance_threshold must be in (0, 1]")
    centered = mat - mat.mean(axis=0)
    rows, cols = mat.shape
    gram = centered @ centered.T if rows < cols else centered.T @ centered
    eigvals = np.linalg.eigvalsh(gram / (rows - 1))[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    if total <= 0.0:
        return 1
    ratios = np.cumsum(eigvals) / total
    # 1e-12 slack absorbs round-off when the data is exactly low-rank
    hits = np.nonzero(ratios + 1e-12 >= variance_threshold)[0]
    return int(hits[0]) + 1


def bernoulli_matrix(p, t: int, stream: RandomStream) -> np.ndarray:
    """Sample a (t x units) binary matrix, column j ~ Bernoulli(p[j]) i.i.d.

    p may have any shape; it is flattened to the unit axis. p == 0 and
    p == 1 are exact (never / always spike), not merely almost sure.
    """
    probs = np.asarray(p, dtype=np.float64).ravel()
    if not np.all(np.isfinite(probs)):
        raise InvalidInputError("probabilities contain non-finite entries")
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    u = stream.uniform((int(t), probs.size))
    return (u < probs).astype(np.float64)


def finite_difference_gradient(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    base = np.array(x, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(base))
        flat[i] = orig - eps
        fm = float(f(base))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise InvalidInputError(f"function not finite near entry {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad
