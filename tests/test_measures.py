import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
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
from mfglab.acceleration import ANDERSON_DEPTH
from mfglab.errors import ParameterError
from mfglab.measures import EXACT_W1_SIZE_CAP, _anderson, _exp_trapezoid_weights


def uniform_density(lo: float, hi: float, origin: float, dx: float, n: int) -> GridDensity:
    """The uniform density on [lo, hi) over the n cells of width dx from origin, each cell by its centre."""
    x = origin + (np.arange(n) + 0.5) * dx
    return GridDensity.from_unnormalized(origin, dx, ((x >= lo) & (x < hi)).astype(float))


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
    # HiGHS's default dual feasibility tolerance, 1e-7, accepts a vertex whose reduced costs are off by
    # up to that much: on two flocks whose costs differ by 3e-8 it stopped 4.2e-9 above the optimum
    res = linprog(
        cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs", options={"dual_feasibility_tolerance": 1e-10}
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _assignment_minimum(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """Oracle: the least mean cost over all permutations between two flocks of n equal-weight atoms, exact
    by a DP over subsets: best[S] is the least cost of sending the first |S| atoms of a onto the set S of
    atoms of b.  It takes 2^n n steps, for the n <= 10 that flock_pairs draws."""
    cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2).tolist()
    n = len(cost)
    best = [0.0] + [math.inf] * ((1 << n) - 1)
    for subset in range(1, 1 << n):
        row = cost[subset.bit_count() - 1]
        best[subset] = min(best[subset & ~(1 << j)] + row[j] for j in range(n) if subset >> j & 1)
    return best[-1] / n


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
        """The writer is lossless: every cell centre and value reads back bit for bit."""
        m = GridDensity.gaussian(0.3, 0.7, -4.0, 0.05, 160)
        text = m.to_csv()
        assert text.startswith("x,value\n")
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], m.cell_centers)
        assert np.array_equal(data[:, 1], m.values)

    def test_values_read_only(self):
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        with pytest.raises(ValueError):
            m.values[0] = 1.0

    @pytest.mark.parametrize("dx", [np.nan, np.inf, 0.0, -0.1])
    def test_cell_width_positive_and_finite(self, dx):
        """A NaN cell width compares false with 0 and a NaN mass with the tolerance; the grid
        itself is checked first, by name."""
        with pytest.raises(ParameterError, match=r"^dx must be positive and finite") as info:
            GridDensity(0.0, dx, [1.0])
        assert info.value.name == "dx"

    @pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf])
    def test_origin_finite(self, origin):
        with pytest.raises(ParameterError, match=r"^origin must be finite") as info:
            GridDensity(origin, 1.0, [1.0])
        assert info.value.name == "origin"


class TestParticleEnsemble:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            ParticleEnsemble(np.zeros((3, 1)), np.array([0.5, 0.5, 0.5]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_finite(self, bad):
        """A NaN weight is not negative and its sum compares false with the tolerance either way:
        the sum check is written to fail on it, and on an infinite weight."""
        with pytest.raises(ValueError, match=f"weights must be finite and sum to 1, got sum {bad}"):
            ParticleEnsemble([[0.0], [1.0]], [bad, 1.0], 1)

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

    def test_equal_weights_of_no_points_raise(self):
        for points in (np.zeros(0), np.zeros((0, 1)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="equal_weights needs at least one point"):
                ParticleEnsemble.equal_weights(points, 1)

    def test_csv_round_trip_phase_space(self, rng):
        e = ParticleEnsemble.equal_weights(rng.standard_normal((5, 2)), 1)
        text = e.to_csv()
        assert text.startswith("x1,v1,w\n")
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(data[:, :2], e.points)
        assert np.array_equal(data[:, 2], e.weights)


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

    def test_at_off_node_raises(self):
        """at(t) reads the kept node within 1e-9 max(1, |t|) of t; any other t raises, naming t and the
        nearest kept time."""
        m = GridDensity.gaussian(0.0, 0.5, -4.0, 0.05, 160)
        e = GridDensity.gaussian(1.0, 0.5, -4.0, 0.05, 160)
        path = MeasurePath(np.array([0.0, 1.0]), [m, e])
        assert path.at(1.0 + 1e-10) is e and path.at(-1e-10) is m
        for t, nearest in ((0.9, "1.0"), (1.0 + 1e-8, "1.0"), (0.3, "0.0"), (float("nan"), "0.0")):
            message = f"^t = {t} is not a kept node of this path; the nearest kept time is {nearest}$"
            with pytest.raises(ValueError, match=message):
                path.at(t)


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
        m = uniform_density(-1.0, 1.0, -1.0, dx, n)
        assert moment2(m) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_velocity_selector_needs_phase_space(self):
        e = ParticleEnsemble.equal_weights(np.zeros((2, 1)), 1)
        with pytest.raises(DimensionError):
            moment2(e, "velocity")

    def test_unknown_selector_raises_on_both_representations(self):
        grid = uniform_density(-1.0, 1.0, -1.0, 0.25, 8)
        atoms = ParticleEnsemble.equal_weights(np.zeros((2, 2)), 1)
        for m in (grid, atoms):
            with pytest.raises(ValueError, match="unknown selector 'bogus'"):
                moment2(m, "bogus")

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
        a = uniform_density(0.0, 1.0, -0.5, dx, 600)
        b = uniform_density(0.0, 2.0, -0.5, dx, 600)
        # quantile-map oracle: int_0^1 |q - 2q| dq = 1/2
        assert wasserstein1_1d(a, b) == pytest.approx(0.5, abs=dx)

    @pytest.mark.parametrize("origin, dx, n", [(-1.5, 0.01, 300), (-1.0, 0.015, 300), (-1.0, 0.01, 301)])
    def test_mismatched_grids_refused(self, origin, dx, n):
        a = uniform_density(0.0, 1.0, -1.0, 0.01, 300)
        b = uniform_density(0.0, 1.0, origin, dx, n)
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
    # atoms that coincide within and across the flocks; the transport LP (HiGHS) ends 1.8e-11 above this minimum
    @example(
        pair=(
            ParticleEnsemble.equal_weights(np.array([[-1.5, -1.5], [-1.5, -1.5], [-1.5, -1.5], [-1.5, 0.0]]), 1),
            ParticleEnsemble.equal_weights(np.array([[-1.5, -1.5], [-1.5, -1.5], [0.0, 0.0], [0.0, -1e-10]]), 1),
        )
    )
    # nearly coincident atoms (two cost columns 4e-15 apart), on which scipy 1.17.1's sparse
    # Jonker-Volgenant solver (min_weight_full_bipartite_matching) never returns
    @example(
        pair=(
            ParticleEnsemble.equal_weights(
                np.array([[0.0, -10.0], [-1.5, -1.5], [-2.0, 2.0], [6.604509555080827e-94, 0.0],
                          [-1.799454330827432, 5e-324], [-1.5, -4.42029091250259]]), 1
            ),
            ParticleEnsemble.equal_weights(
                np.array([[-4.5853401766943034e-104, 6.526774299845531], [0.0, -3.107278141839246],
                          [7.696883369407491, -1.8990896709258646e-137], [6.604509555080827e-94, 2.0],
                          [1e-14, 2.0], [0.0, 7.703834708923768]]), 1
            ),
        )
    )
    def test_phase_space_equals_assignment_minimum(self, pair):
        a, b = pair
        assert wasserstein1_particles(a, b) == pytest.approx(_assignment_minimum(a, b), rel=1e-12, abs=1e-12)

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


class TestExpTrapezoidWeights:
    """The product-trapezoid weights of int e^(-lam t) f(t) dt: the piecewise-linear interpolant of
    f is integrated exactly against the exponential."""

    @staticmethod
    def exact_linear(p, q, lam, T):
        """int_0^T e^(-lam t) (p + q t) dt."""
        return p * -np.expm1(-lam * T) / lam + q * (1.0 - np.exp(-lam * T) * (1.0 + lam * T)) / lam**2

    @pytest.mark.parametrize("lam", [1.0, 10.0, 80.0, 700.0])
    def test_exact_on_linear_integrands(self, lam, rng):
        """Exact, up to roundoff, for f linear in t, on uniform and on uneven nodes: steps below
        and above the series switch at lam h = 1/2 are both met.  (Below lam = 1 the closed form
        of the oracle itself cancels; test_accurate_as_the_step_shrinks covers small lam h.)"""
        for times in (np.linspace(0.0, 1.0, 9), np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]])):
            w = _exp_trapezoid_weights(times, lam)
            for p, q in ((1.0, 0.0), (0.3, -2.0)):
                exact = self.exact_linear(p, q, lam, 1.0)
                assert w @ (p + q * times) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_second_order_on_a_curved_integrand(self):
        """On f = cos(3 t), lam = 10, each halving of the step divides the error by 4."""
        lam = 10.0
        exact = (lam - lam * np.exp(-lam) * np.cos(3.0) + 3.0 * np.exp(-lam) * np.sin(3.0)) / (lam**2 + 9.0)
        errs = []
        for K in (32, 64, 128, 256):
            times = np.linspace(0.0, 1.0, K + 1)
            errs.append(abs(_exp_trapezoid_weights(times, lam) @ np.cos(3.0 * times) - exact))
        assert errs[0] < 2e-4
        assert np.allclose(np.array(errs[:-1]) / errs[1:], 4.0, rtol=0.02)

    @pytest.mark.parametrize("z", [1e-12, 1e-8, 1e-4, 0.1, 0.4999, 0.5, 0.5001, 2.0])
    def test_accurate_as_the_step_shrinks(self, z):
        """i1 = (1 - e^-z (1 + z)) / lam^2 cancels as z = lam h -> 0, where the closed form loses
        about 2e-16 / z; the weights of one step keep 1e-15 relative against their series
        h (1/2 - z/6 + z^2/24 - z^3/120 + ...) and h (1/2 - z/3 + z^2/8 - z^3/30 + ...), summed here
        to 30 terms, and meet the closed form on both sides of the switch."""
        h = 0.01
        left, right = _exp_trapezoid_weights(np.array([0.0, h]), z / h)
        k = np.arange(30)
        factorial = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 32.0)]))  # 0! .. 31!
        series_right = h * np.sum((-z) ** k * (k + 1) / factorial[k + 2])
        series_left = h * np.sum((-z) ** k / factorial[k + 2])
        assert right == pytest.approx(series_right, rel=1e-15, abs=0.0)
        assert left == pytest.approx(series_left, rel=1e-15, abs=0.0)


def affine_map(rng, n, contraction):
    """x -> M x + c on R^n: M symmetric with eigenvalues spread over [-0.6, 0.95], or nonnormal with spectral
    radius below 1; returns (M, c, the fixed point (I - M)^-1 c)."""
    if contraction == "symmetric":
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = Q @ np.diag(np.linspace(-0.6, 0.95, n)) @ Q.T
    else:
        M = 0.9 * rng.standard_normal((n, n)) / np.sqrt(n)
        assert np.abs(np.linalg.eigvals(M)).max() < 1.0
    c = rng.standard_normal(n)
    return M, c, np.linalg.solve(np.eye(n) - M, c)


def affine_evaluate(M, c, aliased=False):
    """The driver's evaluate for x -> M x + c: the size is max |f|, and x is kept; aliased writes f into x."""

    def evaluate(x):
        g = M @ x + c
        kept = x.copy()
        f = np.subtract(g, x, out=x) if aliased else g - x
        return f, g, float(np.abs(f).max()), kept

    return evaluate


def scripted_evaluate(sizes, calls):
    """An evaluate whose sizes are scripted: it records each x it gets, and keeps the evaluation's index."""

    def evaluate(x):
        calls.append(x.copy())
        g = np.array([len(calls), -1.0])
        return g - x, g, sizes[len(calls) - 1], len(calls) - 1

    return evaluate


class TestAnderson:
    """The fixed-point driver of both MFG systems (measures._anderson)."""

    def test_affine_contraction_beats_picard(self, rng):
        """On x -> M x + c, whose slowest mode contracts by 0.95, the driver reaches the fixed point in
        fewer than a third of the evaluations plain Picard takes to the same stop rule (measured 110
        against 537); the kept x is within the stop's residual 1e-12 times |(I - M)^-1| <= 20 of it."""
        M, c, fixed = affine_map(rng, 12, "symmetric")
        kept, sizes, _ = _anderson(np.zeros(12), affine_evaluate(M, c), 1e-12, 1000)
        assert sizes[-1] <= 1e-12 and all(size > 1e-12 for size in sizes[:-1])
        assert np.abs(kept - fixed).max() <= 20 * 1e-12
        x, picard = np.zeros(12), 1
        while np.abs((g := M @ x + c) - x).max() > 1e-12:
            x, picard = g, picard + 1
        assert 3 * len(sizes) < picard

    def test_a_rising_size_takes_one_half_step(self):
        """Sizes 4, 2, 3, 1, 0: only the 3 rises, and it takes the half step g - f/2, which drops the
        history, so the step after it is plain (to g); the zero stops the driver."""
        calls = []
        kept, sizes, half_steps = _anderson(np.zeros(2), scripted_evaluate([4.0, 2.0, 3.0, 1.0, 0.0], calls), 0.0, 10)
        assert half_steps == 1 and sizes == [4.0, 2.0, 3.0, 1.0, 0.0] and kept == 4
        g3, f3 = np.array([3.0, -1.0]), np.array([3.0, -1.0]) - calls[2]
        assert np.array_equal(calls[3], g3 - f3 / 2)
        assert np.array_equal(calls[4], [4.0, -1.0])

    def test_cap_keeps_the_first_smallest(self):
        """At the cap the driver returns what it kept at the first of two equal smallest sizes."""
        calls = []
        kept, sizes, _ = _anderson(np.zeros(2), scripted_evaluate([3.0, 1.0, 2.0, 1.0, 5.0, 0.0], calls), 0.5, 5)
        assert len(calls) == 5 and sizes == [3.0, 1.0, 2.0, 1.0, 5.0] and kept == 1

    def test_a_nan_size_stops(self):
        calls = []
        kept, sizes, _ = _anderson(np.zeros(2), scripted_evaluate([3.0, np.nan, 1.0], calls), 0.5, 5)
        assert len(sizes) == 2 and kept == 0

    @pytest.mark.parametrize("depth", [3, ANDERSON_DEPTH])
    def test_a_deeper_history_takes_fewer_evaluations(self, rng, depth):
        """On the map of test_affine_contraction_beats_picard a history of the last 3 or 4 differences
        reaches the stop rule in fewer evaluations than depth 1 (measured 78 and 72 against 110), and
        keeps an x as close to the fixed point."""
        M, c, fixed = affine_map(rng, 12, "symmetric")
        shallow = _anderson(np.zeros(12), affine_evaluate(M, c), 1e-12, 1000)[1]
        kept, sizes, _ = _anderson(np.zeros(12), affine_evaluate(M, c), 1e-12, 1000, depth)
        assert sizes[-1] <= 1e-12 and all(size > 1e-12 for size in sizes[:-1])
        assert np.abs(kept - fixed).max() <= 20 * 1e-12
        assert len(sizes) < len(shallow)

    def test_a_rising_size_drops_the_whole_history(self):
        """Sizes 5, 4, 3, 2, 3, 1, 0.5, 0 at depth 3: the history holds three differences when the 3
        rises, which takes the half step g - f/2 and drops all of them; the step after it is plain (to
        g), and the next uses the one difference made since, gamma = <f, df> / <df, df>."""
        calls = []
        sizes = [5.0, 4.0, 3.0, 2.0, 3.0, 1.0, 0.5, 0.0]
        kept, got, half_steps = _anderson(np.zeros(2), scripted_evaluate(sizes, calls), 0.0, 10, depth=3)
        assert half_steps == 1 and got == sizes and kept == 7
        g = [np.array([k + 1.0, -1.0]) for k in range(len(calls))]
        f = [gk - x for gk, x in zip(g, calls)]
        assert np.array_equal(calls[5], g[4] - f[4] / 2)
        assert np.array_equal(calls[6], g[5])
        df = f[6] - f[5]
        assert np.allclose(calls[7], g[6] - np.vdot(f[6], df) / np.vdot(df, df) * (g[6] - g[5]), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("contraction", ["symmetric", "nonnormal"])
    def test_evaluate_may_write_f_into_x(self, rng, contraction):
        """An evaluate that writes f into x's buffer gives the sizes, bit for bit, and the fixed point of one
        that does not: the driver steps in its own buffers and in those f came in, never in a g, and its
        plain step copies g.  The nonnormal map takes half steps (measured 20 in 132 evaluations)."""
        M, c, _ = affine_map(rng, 12, contraction)
        runs = [_anderson(np.zeros(12), affine_evaluate(M, c, aliased), 1e-12, 1000) for aliased in (False, True)]
        (kept, sizes, half_steps), (kept_aliased, sizes_aliased, half_steps_aliased) = runs
        assert sizes_aliased == sizes and half_steps_aliased == half_steps
        assert np.array_equal(kept_aliased, kept)
        assert half_steps > 0 or contraction == "symmetric"
