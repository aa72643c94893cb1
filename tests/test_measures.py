import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from mfglab import (
    CrowdRadialKernel,
    DimensionError,
    GridDensity,
    GridError,
    MeasurePath,
    ParticleEnsemble,
    TrajectoryEnsemble,
    moment2,
    wasserstein1_1d,
    wasserstein1_particles,
)
from mfglab.measures import EXACT_W1_SIZE_CAP


def _w1_exact_lp(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """Oracle: W1 as the transport LP over all N_a * N_b couplings, any sizes and weights."""
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.sqrt(np.sum(diff**2, axis=2))
    na, nb = a.n, b.n
    # row marginals then column marginals of the transport plan
    rows_i = np.repeat(np.arange(na), nb)
    cols_j = np.tile(np.arange(nb), na)
    var = np.arange(na * nb)
    A = sparse.coo_matrix(
        (
            np.ones(2 * na * nb),
            (np.concatenate([rows_i, na + cols_j]), np.concatenate([var, var])),
        ),
        shape=(na + nb, na * nb),
    ).tocsr()
    rhs = np.concatenate([a.weights, b.weights])
    res = linprog(cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def delta_on_grid(x0, origin=-4.0, dx=0.01, n=800):
    """Grid density concentrating all mass in the cell containing x0."""
    vals = np.zeros(n)
    vals[int((x0 - origin) / dx)] = 1.0 / dx
    return GridDensity(origin, dx, vals)


class TestGridDensity:
    def test_mass_invariant_enforced(self):
        with pytest.raises(ValueError, match="mass"):
            GridDensity(0.0, 0.1, 2.0 * np.ones(10))  # mass 2, not a probability

    def test_negative_values_rejected(self):
        vals = np.full(10, 1.0)
        vals[3] = -0.5
        vals[4] = 2.5
        with pytest.raises(ValueError, match="nonnegative"):
            GridDensity(0.0, 0.1, vals)

    def test_gaussian_normalized(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        assert abs(m.dx * m.values.sum() - 1.0) < 1e-12

    def test_csv_round_trip(self):
        m = GridDensity.gaussian(0.3, 0.7, -4.0, 0.05, 160)
        m2 = GridDensity.from_csv(m.to_csv())
        assert np.allclose(m2.values, m.values, rtol=0, atol=0)
        assert m2.origin == pytest.approx(m.origin)

    def test_values_read_only(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        with pytest.raises(ValueError):
            m.values[0] = 1.0


class TestParticleEnsemble:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            ParticleEnsemble(np.zeros((3, 1)), np.array([0.5, 0.5, 0.5]), 1)

    def test_phase_space_split(self):
        e = ParticleEnsemble.equal_weights(np.arange(4.0).reshape(2, 2), 1)
        assert e.is_phase_space
        assert np.array_equal(e.positions, [[0.0], [2.0]])
        assert np.array_equal(e.velocities, [[1.0], [3.0]])

    def test_velocity_on_position_only_raises(self):
        e = ParticleEnsemble.equal_weights(np.zeros((3, 1)), 1)
        with pytest.raises(DimensionError):
            e.velocities

    def test_bad_dimension_rejected(self):
        """Atoms live on the line, the one check for every solver downstream: the d = 2
        position and phase layouts, spatial_dim 2, three coordinates, a 3D array and a
        scalar raise at construction; (N,) points are N positions, not one (x, v) atom."""
        for shape, spatial_dim in [((3, 2), 2), ((3, 4), 2), ((3, 1), 2), ((3, 3), 1), ((3, 1, 1), 1), ((), 1)]:
            with pytest.raises(DimensionError, match="atoms live on the line"):
                ParticleEnsemble.equal_weights(np.zeros(shape), spatial_dim)
        e = ParticleEnsemble.equal_weights(np.array([1.0, 2.0]), 1)
        assert e.n == 2 and not e.is_phase_space
        assert np.array_equal(e.points, [[1.0], [2.0]])

    def test_csv_round_trip_phase_space(self, rng):
        e = ParticleEnsemble.equal_weights(rng.standard_normal((5, 2)), 1)
        text = e.to_csv()
        assert text.startswith("x1,v1,w\n")
        e2 = ParticleEnsemble.from_csv(text)
        assert e2.spatial_dim == 1
        assert np.allclose(e2.points, e.points, rtol=0, atol=0)


class TestMeasurePath:
    def test_must_start_at_zero(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        with pytest.raises(ValueError, match="t=0"):
            MeasurePath(np.array([0.5, 1.0]), [m, m])

    def test_mixed_representations_rejected(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        e = ParticleEnsemble.equal_weights(np.zeros((2, 1)), 1)
        with pytest.raises(ValueError, match="mixed"):
            MeasurePath(np.array([0.0, 1.0]), [m, e])

    def test_at_picks_nearest_node(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        e = GridDensity.gaussian(1.0, 0.5, -4.0, 0.05, 160)
        path = MeasurePath(np.array([0.0, 1.0]), [m, e])
        assert path.at(0.9) is e


def _caller_arrays():
    """Each value type that stores arrays, built from float arrays of the caller's: (value, {field: array})."""
    values, times, weights = np.full(4, 1.0), np.array([0.0, 1.0]), np.full(2, 0.5)
    grid = GridDensity(0.0, 0.25, values)
    column, vector = np.zeros((2, 1)), np.zeros(2)
    x0, v0, controls, w = np.zeros(2), np.array([1.0, -1.0]), np.zeros((2, 3)), np.full(2, 0.5)
    knots, phi = np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.2, 0.1])
    return {
        "GridDensity": (grid, {"values": values}),
        "ParticleEnsemble (N, 1)": (ParticleEnsemble(column, weights, 1), {"points": column, "weights": weights}),
        "ParticleEnsemble (N,)": (ParticleEnsemble(vector, np.full(2, 0.5), 1), {"points": vector}),
        "MeasurePath": (MeasurePath(times, [grid, grid]), {"times": times}),
        "TrajectoryEnsemble": (
            TrajectoryEnsemble(x0, v0, controls, 1.0, w),
            {"x0": x0, "v0": v0, "controls": controls, "weights": w},
        ),
        "CrowdRadialKernel": (CrowdRadialKernel(knots, phi), {"r_knots": knots, "phi_values": phi}),
    }


@pytest.mark.parametrize("kind", list(_caller_arrays()))
def test_value_types_store_a_read_only_copy(kind):
    """The caller's arrays stay writable and theirs: writing to them changes no stored field."""
    value, given_arrays = _caller_arrays()[kind]
    stored = {name: getattr(value, name).copy() for name in given_arrays}
    for name, arr in given_arrays.items():
        arr[...] = 7.0
        assert np.array_equal(getattr(value, name), stored[name]), name
        assert not getattr(value, name).flags.writeable, name


class TestMoment2:
    def test_dirac_velocity_block(self):
        e = ParticleEnsemble(np.array([[0.0, 2.0]]), np.array([1.0]), 1)
        assert moment2(e, "velocity") == pytest.approx(4.0)

    def test_two_symmetric_atoms(self):
        e = ParticleEnsemble.equal_weights(np.array([[1.0], [-1.0]]), 1)
        assert moment2(e) == pytest.approx(1.0)

    def test_uniform_grid_second_moment(self):
        dx = 2.0**-10
        n = int(2.0 / dx)
        m = GridDensity.uniform(-1.0, 1.0, -1.0, dx, n)
        assert moment2(m) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_velocity_selector_needs_phase_space(self):
        e = ParticleEnsemble.equal_weights(np.zeros((2, 1)), 1)
        with pytest.raises(DimensionError):
            moment2(e, "velocity")

    def test_permutation_and_zero_weight_invariance(self, rng):
        pts = rng.standard_normal((6, 2))
        w = rng.uniform(0.1, 1.0, 6)
        w /= w.sum()
        base = moment2(ParticleEnsemble(pts, w, 1))
        perm = rng.permutation(6)
        shuffled = moment2(ParticleEnsemble(pts[perm], w[perm], 1))
        padded = moment2(
            ParticleEnsemble(np.vstack([pts, [[9.0, 9.0]]]), np.append(w, 0.0), 1)
        )
        assert shuffled == pytest.approx(base, rel=1e-14)
        assert padded == pytest.approx(base, rel=1e-14)


class TestWasserstein1Grid:
    def test_identity(self, gauss_m0):
        assert wasserstein1_1d(gauss_m0, gauss_m0) == 0.0

    def test_translated_diracs(self):
        a = delta_on_grid(0.0)
        b = delta_on_grid(1.0)
        assert wasserstein1_1d(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_stretch(self):
        dx = 0.005
        a = GridDensity.uniform(0.0, 1.0, -0.5, dx, 600)
        b = GridDensity.uniform(0.0, 2.0, -0.5, dx, 600)
        # quantile-map oracle: int_0^1 |q - 2q| dq = 1/2
        assert wasserstein1_1d(a, b) == pytest.approx(0.5, abs=dx)

    @pytest.mark.parametrize("origin, dx, n", [(-1.5, 0.01, 300), (-1.0, 0.015, 300), (-1.0, 0.01, 301)])
    def test_mismatched_grids_refused(self, origin, dx, n):
        a = GridDensity.uniform(0.0, 1.0, -1.0, 0.01, 300)
        b = GridDensity.uniform(0.0, 1.0, origin, dx, n)
        with pytest.raises(GridError, match=f"origin {origin}, dx {dx}, n {n}"):
            wasserstein1_1d(a, b)
        with pytest.raises(GridError, match="origin -1.0, dx 0.01, n 300"):
            wasserstein1_1d(b, a)

    def test_symmetry_and_triangle_inequality(self, rng):
        ms = []
        for _ in range(6):
            vals = rng.uniform(0.0, 1.0, 64)
            ms.append(GridDensity.from_unnormalized(-2.0, 0.0625, vals))
        for a, b, c in itertools.permutations(ms, 3):
            dab = wasserstein1_1d(a, b)
            assert dab == pytest.approx(wasserstein1_1d(b, a), abs=1e-14)
            assert dab <= wasserstein1_1d(a, c) + wasserstein1_1d(c, b) + 1e-9


class TestWasserstein1Particles:
    def test_identical(self, rng):
        e = ParticleEnsemble.equal_weights(rng.standard_normal((8, 2)), 1)
        assert wasserstein1_particles(e, e) == pytest.approx(0.0, abs=1e-12)

    def test_single_atoms(self):
        a = ParticleEnsemble.equal_weights(np.array([[0.0, 0.0]]), 1)
        b = ParticleEnsemble.equal_weights(np.array([[3.0, 4.0]]), 1)
        assert wasserstein1_particles(a, b) == pytest.approx(5.0, abs=1e-9)

    def test_matches_brute_force_assignment(self, rng):
        xa = rng.standard_normal(4)
        xb = rng.standard_normal(4)
        a = ParticleEnsemble.equal_weights(xa[:, None], 1)
        b = ParticleEnsemble.equal_weights(xb[:, None], 1)
        best = min(
            sum(abs(xa[i] - xb[p[i]]) for i in range(4)) / 4.0
            for p in itertools.permutations(range(4))
        )
        assert wasserstein1_particles(a, b) == pytest.approx(best, abs=1e-12)

    def test_exact_lp_matches_sorted_formula_1d(self, rng):
        # the phase-space LP and the 1D CDF formula must agree on atoms at rest
        xa, xb = rng.standard_normal(6), rng.standard_normal(7)
        a1 = ParticleEnsemble.equal_weights(xa[:, None], 1)
        b1 = ParticleEnsemble.equal_weights(xb[:, None], 1)
        a2 = ParticleEnsemble.equal_weights(np.column_stack([xa, np.zeros(6)]), 1)
        b2 = ParticleEnsemble.equal_weights(np.column_stack([xb, np.zeros(7)]), 1)
        d1 = wasserstein1_particles(a1, b1)
        d2 = _w1_exact_lp(a2, b2)
        assert d2 == pytest.approx(d1, abs=1e-8)

    def test_method_follows_dimension_and_size(self, rng):
        # 600 * 600 > EXACT_W1_SIZE_CAP: exact in position space at any size; in phase space
        # the assignment up to the cap, refused above it
        assert 600 * 600 > EXACT_W1_SIZE_CAP
        x = rng.standard_normal((600, 2))
        line = ParticleEnsemble.equal_weights(x[:, :1], 1)
        assert wasserstein1_particles(line, ParticleEnsemble(line.points + 0.25, line.weights, 1)) == pytest.approx(
            0.25, abs=1e-12
        )
        with pytest.raises(ValueError, match="EXACT_W1_SIZE_CAP"):
            wasserstein1_particles(ParticleEnsemble.equal_weights(x, 1), ParticleEnsemble.equal_weights(x + 1.0, 1))
        small_a = ParticleEnsemble.equal_weights(x[:20], 1)
        small_b = ParticleEnsemble.equal_weights(x[20:40], 1)
        assert wasserstein1_particles(small_a, small_b) == pytest.approx(_w1_exact_lp(small_a, small_b), rel=1e-12)

    def test_dimension_mismatch(self):
        a = ParticleEnsemble.equal_weights(np.zeros((2, 1)), 1)
        b = ParticleEnsemble.equal_weights(np.zeros((2, 2)), 1)
        with pytest.raises(DimensionError):
            wasserstein1_particles(a, b)


class TestPhaseSpaceW1Refusals:
    """Phase-space W1 is an assignment between flocks of one size and equal weights, or nothing."""

    def test_unequal_sizes_refused(self, rng):
        a = ParticleEnsemble.equal_weights(rng.standard_normal((3, 2)), 1)
        b = ParticleEnsemble.equal_weights(rng.standard_normal((4, 2)), 1)
        for x, y, sizes in ((a, b, "3 and 4"), (b, a, "4 and 3")):
            with pytest.raises(ValueError, match=sizes):
                wasserstein1_particles(x, y)

    def test_unequal_weights_refused(self, rng):
        pts = rng.standard_normal((3, 2))
        even = ParticleEnsemble.equal_weights(pts, 1)
        uneven = ParticleEnsemble(pts, [0.5, 0.25, 0.25], 1)
        for x, y in ((even, uneven), (uneven, even)):
            with pytest.raises(ValueError, match="equal weights, not weights 0.25 to 0.5 on 3 atoms"):
                wasserstein1_particles(x, y)

    def test_past_the_cap_refused_before_allocating(self, rng):
        n = int(np.sqrt(EXACT_W1_SIZE_CAP)) + 1
        a = ParticleEnsemble.equal_weights(rng.standard_normal((n, 2)), 1)
        b = ParticleEnsemble.equal_weights(rng.standard_normal((n, 2)), 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} \\* {n} costs"):
                wasserstein1_particles(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # the (N, N) cost would take 8 N^2 bytes

    def test_at_the_cap_solved(self):
        n = int(np.sqrt(EXACT_W1_SIZE_CAP))
        assert n * n == EXACT_W1_SIZE_CAP
        x = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        a = ParticleEnsemble.equal_weights(x, 1)
        b = ParticleEnsemble.equal_weights(x[::-1] + [0.0, 0.5], 1)
        assert wasserstein1_particles(a, b) == pytest.approx(0.5, rel=1e-12)


@st.composite
def grid_densities(draw):
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda v: max(v) > 1e-3))
    return GridDensity.from_unnormalized(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 1.0)), values)


class TestWasserstein1GridProperties:
    @given(grid_densities(), st.integers(0, 10))
    def test_w1_of_a_shift_is_the_shift(self, m, cells):
        padded = np.concatenate([m.values, np.zeros(cells)])
        shifted = np.concatenate([np.zeros(cells), m.values])
        a = GridDensity(m.origin, m.dx, padded)
        b = GridDensity(m.origin, m.dx, shifted)
        assert wasserstein1_1d(a, b) == pytest.approx(cells * m.dx, abs=1e-12)


@st.composite
def line_ensembles(draw, max_atoms=6):
    """Small weighted 1D ensembles, coincident atoms allowed."""
    n = draw(st.integers(1, max_atoms))
    x = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return ParticleEnsemble(np.array(x)[:, None], w / w.sum(), 1)


@st.composite
def flock_pairs(draw, max_atoms=10):
    """Two equal-weight phase-space flocks of one size; coordinates from a few shared values
    or anywhere, so atoms coincide within and across flocks."""
    n = draw(st.integers(1, max_atoms))
    coord = st.one_of(st.sampled_from([-1.5, 0.0, 2.0]), st.floats(-10.0, 10.0))
    flocks = (np.array(draw(st.lists(coord, min_size=2 * n, max_size=2 * n))).reshape(n, 2) for _ in range(2))
    return tuple(ParticleEnsemble.equal_weights(x, 1) for x in flocks)


class TestWasserstein1ParticleProperties:
    @given(flock_pairs())
    def test_phase_space_equals_transport_lp(self, pair):
        a, b = pair
        assert wasserstein1_particles(a, b) == pytest.approx(_w1_exact_lp(a, b), rel=1e-12, abs=1e-12)

    @given(line_ensembles(), line_ensembles())
    def test_1d_equals_transport_lp(self, a, b):
        assert wasserstein1_particles(a, b) == pytest.approx(_w1_exact_lp(a, b), rel=1e-12, abs=1e-12)

    @given(line_ensembles(), line_ensembles())
    def test_symmetric(self, a, b):
        assert wasserstein1_particles(a, b) == pytest.approx(wasserstein1_particles(b, a), rel=1e-13, abs=1e-13)

    @given(line_ensembles(), st.floats(-50.0, 50.0))
    def test_shift_costs_its_length(self, a, s):
        shifted = ParticleEnsemble(a.points + s, a.weights, 1)
        assert wasserstein1_particles(a, shifted) == pytest.approx(abs(s), abs=1e-12 * (1.0 + abs(s)))
