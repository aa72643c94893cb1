import numpy as np
import pytest

from mfglab import cucker_smale, kernels
from mfglab import (
    CuckerSmaleKernel,
    DimensionError,
    ParticleEnsemble,
    TrajectoryEnsemble,
    minimize_energy,
    moment2,
    richardson_order_ratio,
    run_lambda_sweep_acceleration,
    solve_cs,
)
from test_pair_sums import cs_rhs


def phase_atoms(xs, vs):
    return ParticleEnsemble.equal_weights(np.column_stack([xs, vs]), 1)


class TestCsRhs:
    def test_single_atom_zero(self):
        m = phase_atoms([0.0], [3.0])
        assert np.all(cs_rhs(m, CuckerSmaleKernel(1.0, 0.5)) == 0.0)

    def test_two_body_flat_weight(self, cs_flat, two_body_phase):
        a = cs_rhs(two_body_phase, cs_flat)
        # a1 = -1/2 * 2 * (1 - (-1)) = -2
        assert a[0] == pytest.approx(-2.0)
        assert a[1] == pytest.approx(2.0)

    def test_weighted_sum_vanishes(self, rng):
        pts = rng.standard_normal((12, 2))
        w = rng.uniform(0.1, 1.0, 12)
        w /= w.sum()
        m = ParticleEnsemble(pts, w, 1)
        a = cs_rhs(m, CuckerSmaleKernel(1.0, 0.7))
        assert abs(float(w @ a)) < 1e-12

    def test_position_only_rejected(self):
        m = ParticleEnsemble.equal_weights(np.zeros((3, 1)), 1)
        with pytest.raises(DimensionError):
            cs_rhs(m, CuckerSmaleKernel())

    def test_one_g_call(self, rng, monkeypatch):
        """One right-hand side evaluates g once, through CuckerSmaleKernel.g, on the staircase buffer:
        the benchmark traces that method as its kernels.cs_g span.  12 atoms take one block, the
        144 weights of the full matrix; 192 take two, 96 * 192 + 96 * 96 weights."""
        calls = []
        g = CuckerSmaleKernel.g
        monkeypatch.setattr(CuckerSmaleKernel, "g", lambda self, x: calls.append(x.shape) or g(self, x))
        for n in (12, 192):
            cs_rhs(phase_atoms(rng.standard_normal(n), rng.standard_normal(n)), CuckerSmaleKernel(1.0, 0.5))
        assert calls == [(144,), (27_648,)]

    def test_pair_array_cap(self, rng, monkeypatch):
        # 12 atoms: the one-block staircase, the (12, 12) weight matrix, takes 1152 bytes
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 1000)
        m = phase_atoms(rng.standard_normal(12), rng.standard_normal(12))
        for call in (lambda: cs_rhs(m, CuckerSmaleKernel()), lambda: solve_cs(m, CuckerSmaleKernel(), 0.1, 0.05)):
            with pytest.raises(ValueError, match="1152 bytes each exceed the cap of 1000 bytes"):
                call()

    def test_pair_array_cap_bounds_the_staircase(self, monkeypatch):
        """The cap bounds the buffer really allocated: at 192 atoms the staircase holds 27,648
        weights, 221,184 bytes, not the 294,912 of the full matrix.  A cap of that many bytes
        passes; one byte less raises before any array is allocated."""
        w, kernel = np.full(192, 1.0 / 192), CuckerSmaleKernel()
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 221_184)
        kernels._cs_alignment(kernel, w)
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 221_183)
        allocations = []
        for name in ("empty", "ones", "zeros", "column_stack", "cumsum"):
            made = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, made=made, name=name, **k: allocations.append(name) or made(*a, **k))
        with pytest.raises(ValueError, match="221184 bytes each exceed the cap of 221183 bytes"):
            kernels._cs_alignment(kernel, w)
        assert allocations == []


class TestSolveCs:
    def test_two_body_exponential_decay(self, cs_flat, two_body_phase):
        # with g == 1 the two-body system is linear: v1(t) = e^{-2t}
        path = solve_cs(two_body_phase, cs_flat, 1.0, 1e-3)
        v1 = path.measures[-1].velocities[0, 0]
        assert v1 == pytest.approx(np.exp(-2.0), abs=1e-6)

    def test_mean_velocity_conserved(self, rng):
        m0 = phase_atoms(rng.standard_normal(64), rng.standard_normal(64))
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, range(0, 5001, 100))
        vbar0 = float(m0.weights @ m0.velocities[:, 0])
        for m in path.measures:
            assert abs(float(m.weights @ m.velocities[:, 0]) - vbar0) <= 1e-9

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    def test_mean_velocity_conserved_on_two_blocks(self, rng, beta):
        """192 atoms of unequal weights take two blocks: each weight enters both sums it belongs to,
        so the weighted mean velocity stays at 0 within 1e-15 over 100 RK4 steps."""
        w = rng.uniform(0.2, 1.0, 192)
        w /= w.sum()
        v = rng.standard_normal(192)
        m0 = ParticleEnsemble(np.column_stack([rng.standard_normal(192), v - w @ v]), w, 1)
        path = solve_cs(m0, CuckerSmaleKernel(0.7, beta), 1.0, 1e-2, range(101))
        assert len(path.measures) == 101
        for m in path.measures:
            assert abs(float(w @ m.velocities[:, 0])) <= 1e-15

    def test_velocity_moment_dissipates(self, rng):
        m0 = phase_atoms(rng.standard_normal(32), rng.standard_normal(32))
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, range(0, 5001, 10))
        m2v = np.array([moment2(m, "velocity") for m in path.measures])
        assert np.all(np.diff(m2v) <= 1e-12)

    def test_rk4_order_check(self, cs_flat, two_body_phase):
        ratio = richardson_order_ratio(two_body_phase, cs_flat, 1.0, 0.05)
        assert 8.0 <= ratio <= 32.0

    def test_order_check_saves_its_marches_at_equal_nodes(self, rng):
        """nodes 0, 2, 4 and 6 of 6 steps of 0.1: the three solve_cs marches meet at t = 0, 0.2, 0.4 and 0.6,
        the ratio is max |z_dt - z_dt/2| / max |z_dt/2 - z_dt/4| over those nodes, and finest receives
        the dt/4 march of those nodes with the estimate max |z_dt/4 - z_dt/2| / 15, and the ladder from
        this level on."""
        m0, kernel = phase_atoms(rng.standard_normal(5), rng.standard_normal(5)), CuckerSmaleKernel(1.0, 0.5)
        finest = []
        ratio = richardson_order_ratio(m0, kernel, 0.6, 0.1, range(0, 7, 2), finest)
        z1, z2, z4 = (
            np.stack([m.points for m in solve_cs(m0, kernel, 0.6, dt, range(0, n + 1, n // 3)).measures])
            for dt, n in ((0.1, 6), (0.05, 12), (0.025, 24))
        )
        assert ratio == np.max(np.abs(z1 - z2)) / np.max(np.abs(z2 - z4))
        (path, estimate, levels), = finest
        assert np.allclose(path.times, [0.0, 0.2, 0.4, 0.6], rtol=0.0, atol=1e-15)
        assert np.array_equal(np.stack([m.points for m in path.measures]), z4)
        assert estimate == np.max(np.abs(z4 - z2)) / 15.0
        first = next(levels)
        assert first[0] is path and first[1:] == (estimate, ratio, 42)

    def test_order_check_keeps_its_bits(self):
        """Called as the limit-particles benchmark calls it (8 dt over [0, T], node 0 and T compared), the
        probe equals three fresh solve_cs marches of 125, 250 and 500 steps bit for bit, on the 24-atom
        flock of seed 0."""
        rng = np.random.default_rng(0)
        x, v = rng.standard_normal(24), rng.standard_normal(24)
        m0, kernel = phase_atoms(x, v - v.mean()), CuckerSmaleKernel(1.0, 0.5)
        z1, z2, z4 = (
            np.stack([m.points for m in solve_cs(m0, kernel, 1.0, 1.0 / n).measures])
            for n in (125, 250, 500)
        )
        ratio = richardson_order_ratio(m0, kernel, 1.0, 8e-3)
        assert ratio == float(np.max(np.abs(z1 - z2)) / np.max(np.abs(z2 - z4)))

    def test_ladder_level_marches_one_new_clock(self, rng, monkeypatch):
        """The level after dt = 0.1 (6 steps) reuses the marches at 0.05 and 0.025 and marches 48 steps of
        0.0125 alone; its finest march, estimate and ratio are those of a fresh probe at dt = 0.05, and its
        RK4 steps count every march once: 6 + 12 + 24 + 48."""
        m0, kernel = phase_atoms(rng.standard_normal(5), rng.standard_normal(5)), CuckerSmaleKernel(1.0, 0.5)
        fresh = []
        fresh_ratio = richardson_order_ratio(m0, kernel, 0.6, 0.05, range(0, 13, 4), fresh)
        finest, solve, dts = [], cucker_smale.solve_cs, []
        monkeypatch.setattr(cucker_smale, "solve_cs", lambda *a, **k: dts.append(a[3]) or solve(*a, **k))
        richardson_order_ratio(m0, kernel, 0.6, 0.1, range(0, 7, 2), finest)
        (_, _, levels), = finest
        next(levels)
        path, estimate, ratio, steps = next(levels)
        assert dts == [0.6 / 6, 0.6 / 12, 0.6 / 24, 0.6 / 48]
        assert (estimate, ratio, steps) == (fresh[0][1], fresh_ratio, 90)
        assert np.array_equal(path.times, fresh[0][0].times)
        assert all(np.array_equal(a.points, b.points) for a, b in zip(path.measures, fresh[0][0].measures))

    @pytest.mark.parametrize(
        "T, dt, name",
        [(-1.0, 0.01, "T"), (0.0, 0.01, "T"), (float("nan"), 0.01, "T"), (float("inf"), 0.01, "T"), (1.0, 0.0, "dt")],
    )
    def test_order_check_rejects_bad_times(self, cs_flat, two_body_phase, T, dt, name):
        """A backward, empty, NaN or infinite horizon, or a zero step, has no order to probe."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            richardson_order_ratio(two_body_phase, cs_flat, T, dt)

    def test_order_check_rejects_a_horizon_shorter_than_half_a_step(self, cs_flat, two_body_phase):
        """T / dt = 0.375 rounds to no step: the probe raises as every march does, rather than
        halving one step of size T."""
        with pytest.raises(ValueError, match=r"T / dt must round to at least one step .* T = 0\.003, dt = 0\.008"):
            richardson_order_ratio(two_body_phase, cs_flat, 0.003, 0.008)

    def test_velocity_diameter_contracts(self, rng):
        m0 = phase_atoms(rng.standard_normal(16), rng.standard_normal(16))
        path = solve_cs(m0, CuckerSmaleKernel(2.0, 0.2), 3.0, 1e-2)
        diam = [np.max(m.velocities) - np.min(m.velocities) for m in path.measures]
        assert np.all(np.diff(diam) <= 1e-12)

    def test_position_only_rejected(self):
        m = ParticleEnsemble.equal_weights(np.zeros((3, 1)), 1)
        with pytest.raises(DimensionError):
            solve_cs(m, CuckerSmaleKernel(), 1.0, 1e-2)


class TestSampling:
    def test_two_resolution_consistency(self):
        # two 96-atom samples of one law: the flow moves their W1 by a bounded factor, not more
        from mfglab.measures import wasserstein1_particles

        def flock(seed, n=96):
            rng = np.random.default_rng(seed)
            x, v = 0.5 * rng.standard_normal(n), rng.standard_normal(n)
            return ParticleEnsemble.equal_weights(np.column_stack([x, v]), 1)

        kernel = CuckerSmaleKernel(1.0, 0.4)
        mA, mB = flock(1), flock(2)
        d0 = wasserstein1_particles(mA, mB)
        pA = solve_cs(mA, kernel, 1.0, 1e-2)
        pB = solve_cs(mB, kernel, 1.0, 1e-2)
        d1 = wasserstein1_particles(pA.measures[-1], pB.measures[-1])
        assert d1 <= 2.0 * d0 + 0.1


# every place a phase-space ensemble enters the Cucker-Smale side
ENTRIES = {
    "solve_cs": lambda m, k: solve_cs(m, k, 0.1, 0.05),
    "richardson_order_ratio": lambda m, k: richardson_order_ratio(m, k, 0.1, 0.05),
    "cs_rhs": cs_rhs,
    "minimize_energy": lambda m, k: minimize_energy(m, k, 10.0, 1.0, 8),
    "free_flight": lambda m, k: TrajectoryEnsemble.free_flight(m, 1.0, 8),
    "run_lambda_sweep_acceleration": lambda m, k: run_lambda_sweep_acceleration(k, m, [10.0], n_intervals=8),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_flock_without_velocities_raises(entry):
    """Every entry of the Cucker-Smale side takes (x, v) atoms: a position-only ensemble raises.
    No flock off the line can be built (test_measures checks the construction)."""
    m = ParticleEnsemble.equal_weights(np.linspace(-1.0, 1.0, 4), 1)
    with pytest.raises(DimensionError, match="needs a phase-space ensemble"):
        ENTRIES[entry](m, CuckerSmaleKernel(1.0, 0.5))
