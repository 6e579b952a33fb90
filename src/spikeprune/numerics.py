"""Dense numerics shared by every other module.

Matrices are plain 2-D float64 numpy arrays (row-major). Randomness goes
through :class:`RandomStream`, a counter-based generator whose output is a
pure function of (seed, counter), so identical seeds and draw sequences give
identical results on every platform regardless of numpy version.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "InvalidInputError",
    "RandomStream",
    "as_matrix",
    "bernoulli_counts",
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


def _mix64(z: np.ndarray, scratch: np.ndarray = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (wraps mod 2^64); returns z.

    scratch, a uint64 array of z's shape, saves allocating one per call.
    """
    shifted = np.empty_like(z) if scratch is None else scratch
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mult is not None:
            z *= mult
    return z


def _words(seeds: np.ndarray, counters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Unmixed words of draws counter+k, k in offsets, of each (seed, counter)
    stream: (rows, offsets.size) uint64.

    Draw k of the stream with seed s is _mix64(s + k * GAMMA); this is the
    one place that formula is written. offsets, 1-based uint64 draw
    indices, is scaled in place.
    """
    steps = np.multiply(offsets, _GAMMA, out=offsets)
    z = np.empty((seeds.size, steps.size), dtype=np.uint64)
    np.add((seeds + counters * _GAMMA)[:, None], steps, out=z)
    return z


def _splitmix(seeds: np.ndarray, counters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Draws counter+k, k in offsets, of each (seed, counter) stream: (rows, offsets.size) uint64."""
    return _mix64(_words(seeds, counters, offsets))


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
        bits = _splitmix(np.array([self.seed]), np.array([self.counter], dtype=np.uint64),
                         np.arange(1, n + 1, dtype=np.uint64))
        self.counter += n
        return bits[0]

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 draws in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        bits = self._raw(n)
        bits >>= np.uint64(11)
        u = bits * (2.0 ** -53)
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


def bernoulli_matrix(p, t: int, stream, *, keep=None) -> np.ndarray:
    """Sample a (t x units) binary matrix, column j ~ Bernoulli(p[j]) i.i.d.

    p may have any shape; it is flattened to the unit axis. p == 0 and
    p == 1 are exact (never / always spike), not merely almost sure. Entry
    (tau, j) is 1.0 where draw tau * units + j of the stream, as a uniform
    u in [0, 1), is below p[j]; the stream advances by t * units.

    stream may also be a sequence of streams, one per row of p: p is then
    (rows, ...) and the result (rows, t, units), row i equal to
    bernoulli_matrix(p[i], t, stream[i]), drawn in one pass.

    keep, a boolean vector, says that p's last axis holds only the kept
    columns of a wider array whose last axis keep spans. Each kept unit
    takes the draw it has in the wider array and the stream advances as
    far as the wider array's draws take it, so
    bernoulli_matrix(q[..., keep], t, s, keep=keep) equals
    bernoulli_matrix(q, t, s) at the kept units; no other unit is drawn.
    """
    single = isinstance(stream, RandomStream)
    streams = [stream] if single else list(stream)
    probs = np.asarray(p, dtype=np.float64)
    if single:
        probs = probs[None]
    elif probs.ndim < 1 or probs.shape[0] != len(streams):
        raise InvalidInputError(
            f"need one stream per row of p, got {len(streams)} for shape {probs.shape}")
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    t = int(t)
    # offsets: the 1-based draw index of each (timestep, unit) in its stream
    if keep is None:
        width = units = math.prod(probs.shape[1:])
        offsets = np.arange(1, t * units + 1, dtype=np.uint64)
    else:
        keep = np.asarray(keep, dtype=bool)
        kept = np.flatnonzero(keep).astype(np.uint64)
        if keep.ndim != 1 or probs.ndim < 2 or probs.shape[-1] != kept.size:
            raise InvalidInputError(
                f"p's last axis must hold the {kept.size} kept units, got shape {probs.shape}")
        planes = math.prod(probs.shape[1:-1])
        width, units = planes * keep.size, planes * kept.size
        columns = (np.arange(planes, dtype=np.uint64)[:, None] * np.uint64(keep.size)
                   + kept).ravel()
        offsets = (np.arange(t, dtype=np.uint64)[:, None] * np.uint64(width)
                   + columns + np.uint64(1)).ravel()
    rows = len(streams)
    probs = probs.reshape(rows, units)
    # min and max propagate NaN, which fails both comparisons
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise InvalidInputError("probabilities must be finite and lie in [0, 1]")
    bits = _splitmix(np.array([s.seed for s in streams], dtype=np.uint64),
                     np.array([s.counter for s in streams], dtype=np.uint64),
                     offsets).reshape(rows, t, units)
    for s in streams:
        s.counter += t * width
    bits >>= np.uint64(11)
    out = np.empty((rows, t, units))
    # u = bits * 2**-53 < p  <=>  bits < p * 2**53: both scalings are exact
    np.less(bits, probs[:, None, :] * 2.0 ** 53, out=out)
    return out[0] if single else out


def bernoulli_counts(p, t: int, stream: RandomStream) -> np.ndarray:
    """Per unit, how many of t Bernoulli(p) draws spike: int64, in p's shape.

    Exactly bernoulli_matrix(p, t, stream).sum(axis=0), and the stream
    advances by t * units as that call advances it, but only the units with
    0 < p < 1 are drawn, each at the counters bernoulli_matrix gives it; a
    unit with p == 0 or p == 1 counts 0 or t with no draw. The draws are
    compared one timestep plane at a time against integer thresholds, in
    buffers of the live units' width.
    """
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    t = int(t)
    probs = np.asarray(p, dtype=np.float64)
    flat = probs.ravel()
    # min and max propagate NaN, which fails both comparisons
    if flat.size and not (flat.min() >= 0.0 and flat.max() <= 1.0):
        raise InvalidInputError("probabilities must be finite and lie in [0, 1]")
    counts = np.where(flat == 1.0, t, 0).astype(np.int64)
    live = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    if t and live.size:
        # (bits >> 11) < p * 2**53  <=>  bits < ceil(p * 2**53) << 11, and
        # p < 1 keeps the threshold below 2**64
        thresholds = np.ceil(flat[live] * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
        # at timestep tau unit j takes draw tau * units + j + 1: its plane-0
        # word advanced by the word of draw tau * units of a zero seed
        zero = np.zeros(1, dtype=np.uint64)
        lanes = _words(np.array([stream.seed]), np.array([stream.counter], dtype=np.uint64),
                       live.astype(np.uint64) + np.uint64(1))[0]
        advance = _words(zero, zero, np.arange(t, dtype=np.uint64) * np.uint64(flat.size))[0]
        z, scratch = np.empty_like(lanes), np.empty_like(lanes)
        hits = np.empty(live.size, dtype=bool)
        live_counts = np.zeros(live.size, dtype=np.int64)
        for step in advance:
            np.add(lanes, step, out=z)
            np.less(_mix64(z, scratch), thresholds, out=hits)
            live_counts += hits
        counts[live] = live_counts
    stream.counter += t * flat.size
    return counts.reshape(probs.shape)


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
