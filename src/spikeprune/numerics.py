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
    "bernoulli_planes",
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


def _words(seeds, counters, offsets) -> np.ndarray:
    """Unmixed words of draws counter+k, k in offsets, of (seed, counter)
    streams, broadcast together (uint64 arrays, wrapping mod 2^64).

    Draw k of the stream with seed s is _mix64(s + k * GAMMA); this is the
    one place that formula is written.
    """
    return seeds + (counters + offsets) * _GAMMA


class RandomStream:
    """Counter-based deterministic RNG (SplitMix64 over a 64-bit counter).

    Draw i of a stream with seed s is _mix64(s + (i+1)*GAMMA); the stream
    only tracks how many draws have been consumed, so sequences are
    reproducible and independent of batching. Instances are not safe to
    share across concurrent callers; use :meth:`derive` to split
    independent child streams.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = int(counter)

    def _raw(self, n: int) -> np.ndarray:
        # words repeat with period 2^64 in the counter
        bits = _mix64(_words(self.seed, np.uint64(self.counter % 2 ** 64),
                             np.arange(1, n + 1, dtype=np.uint64)))
        self.counter += n
        return bits

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


def _bernoulli_hits(p, t: int, streams, keep=None):
    """The one Bernoulli kernel: bernoulli_planes' checks, stream advance
    and draws, as (probs, live, hits).

    probs is p as a C-ordered (rows, units) float array, live the flat
    indices of its units with 0 < p < 1, the only units drawn, and hits
    yields per timestep a boolean vector over live (one buffer, reused).
    """
    streams, probs = list(streams), np.asarray(p, dtype=np.float64)
    if probs.ndim < 1 or probs.shape[0] != len(streams):
        raise InvalidInputError(
            f"need one stream per row of p, got {len(streams)} for shape {probs.shape}")
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    t = int(t)
    rows, units = len(streams), math.prod(probs.shape[1:])
    columns, width = None, units
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        kept = np.flatnonzero(keep)
        if keep.ndim != 1 or probs.ndim < 2 or probs.shape[-1] != kept.size:
            raise InvalidInputError(
                f"p's last axis must hold the {kept.size} kept units, got shape {probs.shape}")
        groups = math.prod(probs.shape[1:-1])
        width = groups * keep.size
        columns = (np.arange(groups)[:, None] * keep.size + kept).ravel()
    probs = np.ascontiguousarray(probs.reshape(rows, units))
    flat = probs.reshape(-1)
    # min and max propagate NaN, which fails both comparisons
    if flat.size and not (flat.min() >= 0.0 and flat.max() <= 1.0):
        raise InvalidInputError("probabilities must be finite and lie in [0, 1]")
    live = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    seeds = np.array([s.seed for s in streams], dtype=np.uint64)
    counters = np.array([s.counter % 2 ** 64 for s in streams], dtype=np.uint64)
    for s in streams:
        s.counter += t * width

    # (w >> 11) < p * 2**53  <=>  w < ceil(p * 2**53) << 11, and p < 1
    # keeps the threshold below 2**64
    thresholds = np.ceil(flat[live] * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    # a live unit's lane starts at draw counter + column + 1 of its row's stream
    row, unit = (0, live) if rows == 1 else np.divmod(live, units)
    if columns is not None:
        unit = columns[unit]
    lanes = _words(seeds[row], counters[row], unit.astype(np.uint64) + np.uint64(1))
    # timestep tau adds the word of draw tau * width of a zero seed
    advance = _words(np.uint64(0), np.uint64(0), np.arange(t, dtype=np.uint64) * np.uint64(width))

    def hits():
        z, scratch = np.empty_like(lanes), np.empty_like(lanes)
        out = np.empty(live.size, dtype=bool)
        for step in advance:
            np.add(lanes, step, out=z)
            np.less(_mix64(z, scratch), thresholds, out=out)
            yield out

    return probs, live, hits()


def bernoulli_planes(p, t: int, streams, keep=None):
    """The t timesteps of Bernoulli(p) spikes, one float (rows, units) plane each.

    p is (rows, ...) with one RandomStream per row in streams. The call
    checks its arguments and advances every stream by t * width; each plane
    is drawn as it is iterated, a fresh C-ordered array. Unit j of row i
    spikes at timestep tau where draw tau * width + j + 1 of stream i, as a
    uniform u in [0, 1), is below p[i, j]; p == 0 and p == 1 are exact
    (never / always spike) and take no draw. width is the row's unit count,
    or, when keep is given, that of the wider row whose last axis keep
    spans, p's last axis then holding only its kept columns:
    bernoulli_planes(q[..., keep], t, s, keep) is bernoulli_planes(q, t, s)
    at the kept units, and no other unit is drawn.
    """
    probs, live, hits = _bernoulli_hits(p, t, streams, keep)
    fixed = (probs == 1.0).astype(np.float64)

    def planes():
        for h in hits:
            plane = fixed.copy()
            plane.reshape(-1)[live] = h
            yield plane

    return planes()


def bernoulli_matrix(p, t: int, stream: RandomStream) -> np.ndarray:
    """Sample a (t x units) binary matrix, column j ~ Bernoulli(p[j]) i.i.d.

    p may have any shape; it is flattened to the unit axis. Row tau is
    plane tau of bernoulli_planes(p[None], t, [stream]). No package code
    calls it; it stays as the public sampler that perfbench traces.
    """
    planes = bernoulli_planes(np.asarray(p)[None], t, [stream])
    return np.array([plane[0] for plane in planes]).reshape(t, np.size(p))


def bernoulli_counts(p, t: int, stream: RandomStream) -> np.ndarray:
    """Per unit, how many of t Bernoulli(p) draws spike: int64, in p's shape.

    Exactly bernoulli_matrix(p, t, stream).sum(axis=0), with the stream
    advanced alike, from the kernel's hits over the live units (0 < p < 1)
    without a float plane; p == 0 or p == 1 counts 0 or t with no draw.
    """
    probs, live, hits = _bernoulli_hits(np.asarray(p)[None], t, [stream])
    counts = np.where(probs.reshape(-1) == 1.0, t, 0).astype(np.int64)
    live_counts = np.zeros(live.size, dtype=np.int64)
    for h in hits:
        live_counts += h
    counts[live] = live_counts
    return counts.reshape(np.shape(p))


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
