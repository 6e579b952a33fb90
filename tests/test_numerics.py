"""Deterministic RNG, PCA component counting, Bernoulli sampling, FD gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikeprune import (InvalidInputError, RandomStream, bernoulli_matrix,
                        finite_difference_gradient, pca_component_count)
from spikeprune import numerics
from spikeprune.numerics import as_matrix, bernoulli_counts, bernoulli_planes

from conftest import reference_bernoulli_matrix


# scalar-integer reference implementation of the same generator; the
# production path is vectorized numpy uint64, so agreement is a real check
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _ref_splitmix(seed: int, n: int):
    out = []
    state = seed & _MASK
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


class TestRandomStream:
    def test_matches_scalar_reference(self):
        """Vectorized draws equal the scalar splitmix64 reference bit for bit."""
        for seed in (0, 1, 1234567, 2**63 + 11):
            raw = _ref_splitmix(seed, 16)
            expected = np.array([(r >> 11) * 2.0**-53 for r in raw])
            got = RandomStream(seed).uniform((16,))
            assert np.array_equal(got, expected)

    def test_same_seed_same_sequence(self):
        a = RandomStream(99).uniform((50,))
        b = RandomStream(99).uniform((50,))
        assert np.array_equal(a, b)

    def test_batching_does_not_change_the_stream(self):
        """Draw 10 at once or 3+7: the counter advances identically."""
        one = RandomStream(7).uniform((10,))
        s = RandomStream(7)
        two = np.concatenate([s.uniform((3,)), s.uniform((7,))])
        assert np.array_equal(one, two)

    def test_uniform_range_and_shape(self):
        u = RandomStream(3).uniform((100, 4))
        assert u.shape == (100, 4)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert isinstance(RandomStream(3).uniform(), float)

    def test_integers_range(self):
        v = RandomStream(5).integers(7, (1000,))
        assert v.min() >= 0 and v.max() < 7
        assert isinstance(RandomStream(5).integers(7), int)

    def test_integers_bound_validation(self):
        with pytest.raises(InvalidInputError):
            RandomStream(0).integers(0)

    def test_permutation_is_a_permutation(self):
        p = RandomStream(11).permutation(40)
        assert sorted(p.tolist()) == list(range(40))

    def test_derive_is_pure(self):
        """derive neither consumes the parent stream nor depends on it."""
        s = RandomStream(1)
        before = s.derive(4).uniform((5,))
        s.uniform((100,))
        after = s.derive(4).uniform((5,))
        assert np.array_equal(before, after)

    def test_derived_streams_differ(self):
        s = RandomStream(1)
        a = s.derive(0).uniform((20,))
        b = s.derive(1).uniform((20,))
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomStream(0).uniform((20,)),
                                  RandomStream(1).uniform((20,)))


def _svd_count(mat, theta):
    """Explained-variance component count from singular values."""
    centered = mat - mat.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    var = sv**2 / (mat.shape[0] - 1)
    ratios = np.cumsum(var) / var.sum()
    return int(np.nonzero(ratios + 1e-12 >= theta)[0][0]) + 1


class TestPcaComponentCount:
    def test_matches_svd_oracle(self):
        """Eigendecomposition route equals SVD explained-variance counting."""
        for seed in range(8):
            stream = RandomStream(seed)
            mat = stream.uniform((30, 6)) * stream.uniform((6,)) * 5.0
            for theta in (0.5, 0.9, 0.99, 0.99999, 1.0):
                assert pca_component_count(mat, theta) == _svd_count(mat, theta)

    @pytest.mark.parametrize("rows, cols", [(8, 40), (40, 1536)])
    def test_wide_inputs_match_svd_oracle(self, rows, cols):
        """Fewer rows than columns, as a T x units trace has: the row-side
        Gram matrix gives the same count as the SVD."""
        for seed in range(8):
            stream = RandomStream(seed)
            mat = stream.uniform((rows, cols)) * stream.uniform((cols,)) * 5.0
            for theta in (0.5, 0.9, 0.99, 0.99999, 1.0):
                assert pca_component_count(mat, theta) == _svd_count(mat, theta)

    def test_rank_one_needs_one_component(self):
        u = np.linspace(-1, 1, 20).reshape(-1, 1)
        v = np.array([[2.0, -1.0, 0.5]])
        assert pca_component_count(u @ v, 0.99999) == 1

    def test_constant_matrix_counts_as_one(self):
        assert pca_component_count(np.full((10, 4), 3.0), 0.9) == 1

    def test_known_two_axis_split(self):
        # two independent axes with variance ratio 4:1 -> 80% explained by one
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        mat = np.stack([2.0 * np.cos(t), np.sin(t)], axis=1)
        assert pca_component_count(mat, 0.79) == 1
        assert pca_component_count(mat, 0.81) == 2

    def test_exact_low_rank_at_threshold_one(self):
        stream = RandomStream(2)
        basis = stream.uniform((3, 8))
        coeffs = stream.uniform((40, 3)) * 2 - 1
        assert pca_component_count(coeffs @ basis, 1.0) <= 3

    def test_wide_exact_low_rank_at_threshold_one(self):
        stream = RandomStream(3)
        basis = stream.uniform((3, 200))
        coeffs = stream.uniform((12, 3)) * 2 - 1
        assert pca_component_count(coeffs @ basis, 1.0) <= 3

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            pca_component_count(np.ones((1, 3)), 0.9)
        with pytest.raises(InvalidInputError):
            pca_component_count(np.ones((5, 3)), 0.0)
        with pytest.raises(InvalidInputError):
            pca_component_count(np.ones((5, 3)), 1.5)
        with pytest.raises(InvalidInputError):
            pca_component_count(np.ones(5), 0.9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000),
           rows=st.integers(2, 12), cols=st.integers(1, 6),
           lo=st.floats(0.05, 0.95))
    def test_count_bounds_and_monotonicity(self, seed, rows, cols, lo):
        mat = RandomStream(seed).uniform((rows, cols))
        k_lo = pca_component_count(mat, lo)
        k_hi = pca_component_count(mat, 1.0)
        assert 1 <= k_lo <= k_hi <= cols


_EDGE_PROBS = [0.0, 1.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 5e-324]


def _stacked(planes, rows: int, units: int) -> np.ndarray:
    """bernoulli_planes' planes as one (rows, t, units) array."""
    planes = list(planes)
    for plane in planes:
        assert plane.shape == (rows, units) and plane.flags.c_contiguous
    return np.stack(planes, axis=1) if planes else np.empty((rows, 0, units))


class TestBernoulliMatrix:
    def test_shape_and_binary_values(self):
        out = bernoulli_matrix(np.full(5, 0.5), 7, RandomStream(0))
        assert out.shape == (7, 5)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_endpoints_are_exact(self):
        p = np.array([0.0, 1.0, 0.0, 1.0])
        out = bernoulli_matrix(p, 500, RandomStream(1))
        assert np.array_equal(out.min(axis=0), p)
        assert np.array_equal(out.max(axis=0), p)

    def test_mean_tracks_probability(self):
        # seeded draw, so the 4-sigma band is a fixed fact, not a flaky one
        p = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        t = 4000
        mean = bernoulli_matrix(p, t, RandomStream(12)).mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / t)
        assert np.all(np.abs(mean - p) < 4 * sigma)

    def test_input_shape_is_flattened(self):
        p = np.full((2, 3), 0.5)
        out = bernoulli_matrix(p, 4, RandomStream(3))
        assert out.shape == (4, 6)

    def test_determinism(self):
        a = bernoulli_matrix(np.full(4, 0.4), 9, RandomStream(8))
        b = bernoulli_matrix(np.full(4, 0.4), 9, RandomStream(8))
        assert np.array_equal(a, b)

    def test_validation(self):
        s = RandomStream(0)
        with pytest.raises(InvalidInputError):
            bernoulli_matrix(np.array([1.1]), 3, s)
        with pytest.raises(InvalidInputError):
            bernoulli_matrix(np.array([-0.1]), 3, s)
        with pytest.raises(InvalidInputError):
            bernoulli_matrix(np.array([np.nan]), 3, s)
        with pytest.raises(InvalidInputError):
            bernoulli_matrix(np.array([0.5]), -1, s)

    @pytest.mark.parametrize("t", [0, 1, 3, 8])
    def test_equals_uniform_below_p_at_the_edges(self, t):
        """The integer-threshold kernel is exactly u < p, also at p's edges."""
        edges = [0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 5e-324]
        # at timestep 0, p[j] equal to draw j itself, or the double just
        # below or above it
        u = RandomStream(21).uniform((23,))
        p = np.concatenate([edges, u[5:11], np.nextafter(u[11:17], 0.0),
                            np.nextafter(u[17:], 1.0)])
        a, b = RandomStream(21), RandomStream(21)
        got = bernoulli_matrix(p, t, a)
        want = (b.uniform((t, p.size)) < p).astype(np.float64)
        assert got.tobytes() == want.tobytes()
        assert a.counter == b.counter == t * p.size

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(probs=st.lists(st.one_of(st.sampled_from(_EDGE_PROBS),
                                    st.floats(0.0, 1.0, allow_nan=False)),
                          max_size=24),
           t=st.integers(0, 12),
           seed=st.integers(0, 2 ** 64 - 1),
           counter=st.integers(0, 2 ** 40))
    def test_equals_the_reference(self, probs, t, seed, counter):
        """Same bytes and stream advance as the float-compare reference."""
        p = np.array(probs, dtype=np.float64)
        a, b = RandomStream(seed, counter=counter), RandomStream(seed, counter=counter)
        got = bernoulli_matrix(p, t, a)
        assert got.tobytes() == reference_bernoulli_matrix(p, t, b).tobytes()
        assert a.counter == b.counter == counter + t * p.size
        assert a.uniform() == b.uniform()

    # per-row streams and keep are bernoulli_planes' now; the reference
    # matrix sampler still takes both
    @pytest.mark.parametrize("rows, t", [(0, 3), (1, 1), (3, 1), (4, 5)])
    def test_per_row_streams_equal_row_by_row_calls(self, rows, t):
        p = RandomStream(4).uniform((rows, 2, 3))
        p[:, 0, 0] = 0.0
        p[:, 1, 2] = 1.0
        streams, refs, singles = ([RandomStream(40 + i, counter=7 * i) for i in range(rows)]
                                  for _ in range(3))
        got = _stacked(bernoulli_planes(p, t, streams), rows, 6)
        assert got.tobytes() == reference_bernoulli_matrix(p, t, refs).tobytes()
        for i in range(rows):
            assert np.array_equal(got[i], reference_bernoulli_matrix(p[i], t, singles[i]))
            assert streams[i].counter == refs[i].counter == singles[i].counter
        # a second call continues every stream where the first left off
        again = _stacked(bernoulli_planes(p, t, streams), rows, 6)
        for i in range(rows):
            assert np.array_equal(again[i], reference_bernoulli_matrix(p[i], t, singles[i]))

    @pytest.mark.parametrize("keep", [[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1],
                                      [0, 0, 0, 0, 1]])
    @pytest.mark.parametrize("t", [1, 3])
    def test_kept_columns_draw_what_the_full_array_draws(self, keep, t):
        """keep draws only the kept units, at their counters in the full array."""
        keep = np.array(keep, dtype=bool)
        kept = int(keep.sum())
        p = RandomStream(5).uniform((3, 5))
        p[:, 0] = 1.0
        streams, refs, full_streams = ([RandomStream(60 + i, counter=3 * i) for i in range(3)]
                                       for _ in range(3))
        # p[:, keep] is Fortran-ordered; the planes still come out C-ordered
        got = _stacked(bernoulli_planes(p[:, keep], t, streams, keep), 3, kept)
        assert got.tobytes() == reference_bernoulli_matrix(
            p[:, keep], t, refs, keep=keep).tobytes()
        want = reference_bernoulli_matrix(p, t, full_streams)[..., keep]
        assert got.tobytes() == want.tobytes()
        assert ([s.counter for s in streams] == [s.counter for s in refs]
                == [s.counter for s in full_streams])
        # the kept axis is p's last; the axes before it are whole planes
        q = RandomStream(6).uniform((2, 4, 5))
        one, whole = RandomStream(9), RandomStream(9)
        got = _stacked(bernoulli_planes(q[None, ..., keep], t, [one], keep), 1, 8 * kept)
        want = reference_bernoulli_matrix(q, t, whole).reshape(t, 2, 4, 5)[..., keep]
        assert got.tobytes() == want.reshape(1, t, -1).tobytes()
        assert one.counter == whole.counter == t * q.size

    def test_keep_must_match_the_last_axis(self):
        with pytest.raises(InvalidInputError, match="2 kept units"):
            bernoulli_planes(np.full((3, 3), 0.5), 1, [RandomStream(i) for i in range(3)],
                             keep=np.array([True, False, True]))

    def test_per_row_streams_need_one_stream_per_row(self):
        with pytest.raises(InvalidInputError):
            bernoulli_planes(np.full((3, 2), 0.5), 1, [RandomStream(0), RandomStream(1)])
        with pytest.raises(InvalidInputError):
            bernoulli_planes(np.array([[0.5, 1.5]]), 1, [RandomStream(0)])


class TestBernoulliPlanes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(probs=st.lists(st.one_of(st.sampled_from(_EDGE_PROBS),
                                    st.floats(0.0, 1.0, allow_nan=False)),
                          min_size=12, max_size=12),
           rows=st.integers(1, 3),
           keep=st.one_of(st.none(), st.lists(st.booleans(), min_size=4, max_size=4)),
           t=st.integers(0, 6),
           seed=st.integers(0, 2 ** 64 - 1),
           counter=st.integers(0, 2 ** 40))
    def test_equals_the_reference(self, probs, rows, keep, t, seed, counter):
        """Edge probabilities, per-row streams and keep give the reference's
        bytes, and every stream ends where the reference leaves it."""
        p = np.array(probs[:rows * 4]).reshape(rows, 1, 4)
        if keep is not None:
            keep = np.array(keep)
            p = p[..., keep]
        streams, refs = ([RandomStream(seed + i, counter=counter + i) for i in range(rows)]
                         for _ in range(2))
        got = _stacked(bernoulli_planes(p, t, streams, keep), rows, p.shape[-1])
        want = reference_bernoulli_matrix(p, t, refs, keep=keep)
        assert got.tobytes() == want.tobytes()
        assert [s.uniform() for s in streams] == [s.uniform() for s in refs]

    def test_checks_and_advances_when_called(self):
        """Bad input raises before the first plane; a good call advances the
        streams before any plane is drawn; each plane is a fresh array."""
        s = RandomStream(2, counter=3)
        with pytest.raises(InvalidInputError):
            bernoulli_planes(np.array([[0.5, 1.5]]), 2, [s])
        assert s.counter == 3
        planes = bernoulli_planes(np.full((1, 2, 3), 0.5), 4, [s])
        assert s.counter == 3 + 4 * 6
        first, second = next(planes), next(planes)
        assert first is not second and not np.shares_memory(first, second)


class TestBernoulliCounts:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(probs=st.lists(st.one_of(st.sampled_from(_EDGE_PROBS),
                                    st.floats(0.0, 1.0, allow_nan=False)),
                          max_size=24),
           saturated=st.booleans(),
           shape2=st.booleans(),
           t=st.integers(1, 40),
           seed=st.integers(0, 2 ** 64 - 1),
           counter=st.integers(0, 2 ** 40))
    def test_equals_the_summed_matrix(self, probs, saturated, shape2, t, seed, counter):
        """Counts equal the reference matrix summed over time and leave the
        stream where that call leaves it, with only 0 < p < 1 drawn."""
        p = np.array(probs, dtype=np.float64)
        if saturated:
            p = np.round(p)
        if shape2 and p.size % 2 == 0:
            p = p.reshape(2, -1)
        a, b = RandomStream(seed, counter=counter), RandomStream(seed, counter=counter)
        got = bernoulli_counts(p, t, a)
        want = reference_bernoulli_matrix(p, t, b).sum(axis=0)
        assert got.shape == p.shape and got.dtype == np.int64
        assert np.array_equal(got.ravel(), want)
        assert a.counter == b.counter == counter + t * p.size
        # the streams continue in step
        assert a.uniform() == b.uniform()

    @pytest.mark.parametrize("t", [1, 4])
    def test_equals_uniform_below_p_at_the_edges(self, t):
        """The integer threshold is exactly u < p where p sits on a draw of
        the first plane or on the doubles either side of it."""
        u = RandomStream(22).uniform((24,))
        u[18:] *= 2.0 ** -20   # small draws: p's neighbours fall between multiples of 2**-53
        p = np.concatenate([u[:6], np.nextafter(u[6:12], 0.0), np.nextafter(u[12:], 1.0)])
        a, b = RandomStream(22), RandomStream(22)
        want = (b.uniform((t, p.size)) < p).sum(axis=0)
        assert np.array_equal(bernoulli_counts(p, t, a), want)

    def test_saturated_units_count_without_drawing(self):
        p = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        s = RandomStream(3, counter=11)
        assert bernoulli_counts(p, 7, s).tolist() == [[0, 7, 7], [0, 0, 7]]
        assert s.counter == 11 + 7 * 6
        assert bernoulli_counts(np.zeros((0, 4)), 5, s).shape == (0, 4)
        assert s.counter == 11 + 7 * 6
        assert bernoulli_counts(np.full(3, 0.5), 0, s).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("p, t", [([1.1], 3), ([-0.1], 3), ([np.nan], 3),
                                      ([0.5, np.inf], 2), ([0.5], -1)])
    def test_rejects_what_bernoulli_matrix_rejects(self, p, t):
        s = RandomStream(0, counter=4)
        with pytest.raises(InvalidInputError):
            bernoulli_counts(np.array(p), t, s)
        with pytest.raises(InvalidInputError):
            bernoulli_matrix(np.array(p), t, RandomStream(0))
        with pytest.raises(InvalidInputError):
            reference_bernoulli_matrix(np.array(p), t, RandomStream(0))
        assert s.counter == 4


_DRAWS = {
    "matrix": bernoulli_matrix,
    "counts": bernoulli_counts,
    "planes": lambda p, t, s: list(bernoulli_planes(p[None], t, [s])),
}


class TestDrawRule:
    @pytest.mark.parametrize("draw", _DRAWS.values(), ids=list(_DRAWS))
    def test_units_at_p_0_or_1_mix_no_word(self, monkeypatch, draw):
        """Only units with 0 < p < 1 are mixed: t words each, none for the rest."""
        mixed = []

        def counting(z, scratch=None):
            mixed.append(z.size)
            return real(z, scratch)

        real = numerics._mix64
        monkeypatch.setattr(numerics, "_mix64", counting)
        p = np.array([0.0, 0.3, 1.0, 1.0, 0.0, 0.9, 2.0 ** -53, 1.0])
        draw(p, 5, RandomStream(1))
        assert sum(mixed) == 5 * 3
        mixed.clear()
        draw(np.round(p), 5, RandomStream(1))
        assert sum(mixed) == 0

    @pytest.mark.parametrize("draw", _DRAWS.values(), ids=list(_DRAWS))
    def test_counters_wrap_mod_2_64(self, draw):
        """Draw k's word is seed + k * GAMMA mod 2^64, so counter 2^64 + 5
        draws what counter 5 draws."""
        p = np.array([0.0, 0.3, 1.0, 0.5, 0.7])
        far, near = RandomStream(8, counter=2 ** 64 + 5), RandomStream(8, counter=5)
        assert np.array_equal(np.asarray(draw(p, 3, far)), np.asarray(draw(p, 3, near)))
        assert far.counter == 2 ** 64 + near.counter
        assert far.uniform((4,)).tobytes() == near.uniform((4,)).tobytes()
        assert far.integers(9, (4,)).tolist() == near.integers(9, (4,)).tolist()


class TestFiniteDifference:
    def test_quadratic(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return float(x @ A @ x)

        x0 = np.array([0.3, -0.7])
        grad = finite_difference_gradient(f, x0)
        assert np.allclose(grad, 2 * A @ x0, atol=1e-8)

    def test_trig(self):
        x0 = np.array([0.1, 1.2, -0.4])
        grad = finite_difference_gradient(lambda x: float(np.sin(x).sum()), x0)
        assert np.allclose(grad, np.cos(x0), atol=1e-9)

    def test_preserves_shape(self):
        x0 = np.ones((2, 3))
        grad = finite_difference_gradient(lambda x: float((x**2).sum()), x0)
        assert grad.shape == (2, 3)
        assert np.allclose(grad, 2 * x0)

    def test_eps_validation(self):
        with pytest.raises(InvalidInputError):
            finite_difference_gradient(lambda x: 0.0, np.ones(2), eps=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_detection(self):
        # np.log of a negative probe warns on purpose: that is the non-finite value
        with pytest.raises(InvalidInputError):
            finite_difference_gradient(lambda x: float(np.log(x).sum()),
                                       np.array([1e-9]))


def test_as_matrix_validation():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones(3))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf, 1.0]]))
    assert as_matrix([[1, 2]]).dtype == np.float64
