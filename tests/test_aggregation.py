import numpy as np
import pytest

from mfglab import aggregation, kernels
from mfglab import (
    CflError,
    DivergenceError,
    DriftField,
    ExponentialKernel,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    ZeroKernel,
    solve_aggregation_fv,
    solve_aggregation_particles,
)
from mfglab.measures import wasserstein1_1d


def atoms(*xs):
    return ParticleEnsemble.equal_weights(np.array(xs)[:, None], 1)


class TestLimitDrift:
    """The drift b(x, m) = v(x) - (Dk * m)(x) of the limit equation, as the solvers take it: the particle
    solver from the drift field and the flock's self sum, the FV solver from its interface matrix."""

    def test_no_coupling_reduces_to_drift(self):
        """Under the zero kernel each atom follows x' = 2 sin x alone, solved by tan(x/2) = tan(x0/2) e^{2t}."""
        ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=2.0))
        x0 = np.array([0.3, 1.1])
        path = solve_aggregation_particles(ham, ZeroKernel(), atoms(*x0), 0.5, 1e-3)
        exact = 2.0 * np.arctan(np.tan(x0 / 2) * np.exp(2.0 * 0.5))
        assert np.allclose(path.measures[-1].positions[:, 0], exact, rtol=0.0, atol=1e-12)

    def test_single_atom_gives_minus_dk(self, exp_kernel):
        y, x = 0.4, np.array([1.4])
        out = -kernels._dense_pair_sum(exp_kernel, x, np.array([y]), np.ones(1), True)
        # -Dk(x - y) = -d/dx e^{-|x-y|} = +e^{-1}
        assert out[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_two_atom_repulsion_outward(self):
        d = 0.8
        m = atoms(-d / 2, d / 2)
        out = -kernels._self_pair_sum(ExponentialKernel(1.0, 1.0), m.weights, gradient=True)(m.positions[:, 0])
        assert out[1] == pytest.approx(0.5 * np.exp(-d), abs=1e-12) and out[0] == -out[1]

    def test_grid_and_particle_measures_agree(self, exp_kernel, gauss_m0):
        from mfglab.convergence import sample_grid_to_atoms

        m_part = sample_grid_to_atoms(gauss_m0, 4000)
        xq = np.array([-1.0, 0.0, 0.7])
        dg = kernels._grid_sum(exp_kernel, xq, gauss_m0, gradient=True)
        dp = kernels._dense_pair_sum(exp_kernel, xq, m_part.positions[:, 0], m_part.weights, True)
        assert np.allclose(dg, dp, atol=5e-3)


class TestParticleSolver:
    def test_single_particle_stationary(self, zero_ham):
        for kernel in (ExponentialKernel(1.0, 1.0), MorseKernel(0.5, 2.0)):
            path = solve_aggregation_particles(zero_ham, kernel, atoms(0.3), 1.0, 1e-2)
            assert path.measures[-1].positions[0, 0] == pytest.approx(0.3, abs=1e-14)

    def test_exponential_two_body_gap_oracle(self, zero_ham):
        # gap ODE d' = alpha a e^{-a d} integrates to
        # d(t) = (1/a) ln(e^{a d0} + a^2 alpha t)
        alpha, a, d0, T = 1.0, 1.0, 1.0, 1.0
        path = solve_aggregation_particles(
            zero_ham, ExponentialKernel(alpha, a), atoms(-d0 / 2, d0 / 2), T, 1e-3
        )
        pos = path.measures[-1].positions[:, 0]
        exact = (1.0 / a) * np.log(np.exp(a * d0) + a**2 * alpha * T)
        assert pos[1] - pos[0] == pytest.approx(exact, abs=1e-4)

    def test_morse_two_body_equilibrium(self):
        # the integration to this gap is test_acceptance's test_morse_two_particle_equilibrium_gap
        assert MorseKernel(0.5, 2.0).equilibrium_gap() == pytest.approx(2.0 * np.log(4.0), abs=1e-14)

    def test_center_of_mass_conserved(self, zero_ham, rng):
        pts = rng.standard_normal((20, 1))
        w = rng.uniform(0.5, 1.0, 20)
        w /= w.sum()
        m0 = ParticleEnsemble(pts, w, 1)
        path = solve_aggregation_particles(zero_ham, MorseKernel(0.5, 2.0), m0, 2.0, 1e-2)
        com0 = float(w @ pts[:, 0])
        for m in path.measures:
            assert float(m.weights @ m.positions[:, 0]) == pytest.approx(com0, abs=1e-12)

    @pytest.mark.parametrize("kernel", [MorseKernel(0.5, 2.0), ZeroKernel()], ids=["morse", "zero"])
    def test_zero_drift_is_skipped_bit_for_bit(self, zero_ham, kernel, rng, monkeypatch):
        """A drift whose sup_norm is 0 is never evaluated, and the positions are bit for bit those of
        the right-hand side that subtracts the pair force from the drift's zeros (a zero force stays +0.0)."""
        m0 = ParticleEnsemble.equal_weights(np.append(rng.standard_normal(15), -0.0)[:, None], 1)  # a +0.0 and a -0.0 step move -0.0 to different bits
        calls = []
        drift = DriftField.__call__
        monkeypatch.setattr(DriftField, "__call__", lambda self, x: calls.append(1) or drift(self, x))
        new = solve_aggregation_particles(zero_ham, kernel, m0, 0.5, 1e-2)
        assert calls == []
        monkeypatch.setattr(DriftField, "sup_norm", property(lambda self: 1.0))  # the drift path
        old = solve_aggregation_particles(zero_ham, kernel, m0, 0.5, 1e-2)
        assert len(calls) == 4 * 50
        for a, b in zip(new.measures, old.measures):
            assert np.array_equal(a.points.view(np.int64), b.points.view(np.int64))

    def test_escape_past_blowup_radius_raises(self, zero_ham, rng, monkeypatch):
        # strong repulsion drives the gap like ln(t): eventually some
        # particle leaves the monitored ball and the solver reports it
        monkeypatch.setattr(aggregation, "BLOWUP_RADIUS", 5.0)
        m0 = ParticleEnsemble.equal_weights(rng.uniform(-1, 1, (16, 1)), 1)
        with pytest.raises(DivergenceError, match="ExponentialKernel"):
            solve_aggregation_particles(zero_ham, ExponentialKernel(1e4, 1.0), m0, 5.0, 1e-2)


class TestFvSolver:
    def test_translation_with_pure_drift(self, gauss_m0):
        ham = QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.0))
        path = solve_aggregation_fv(ham, ZeroKernel(), gauss_m0, 0.5, 1e-3)
        target = GridDensity.gaussian(0.5, 0.5, gauss_m0.origin, gauss_m0.dx, gauss_m0.n)
        assert wasserstein1_1d(path.measures[-1], target) < 2 * gauss_m0.dx

    def test_symmetry_preserved(self, zero_ham, gauss_m0, exp_kernel):
        path = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.5, 1e-3)
        final = path.measures[-1].values
        assert np.max(np.abs(final - final[::-1])) <= 1e-12

    def test_mass_and_nonnegativity(self, zero_ham, gauss_m0, exp_kernel):
        path = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 1.0, 1e-3)
        for m in path.measures:
            assert abs(m.dx * m.values.sum() - 1.0) <= 1e-10
            assert np.min(m.values) >= 0.0

    def test_cross_validation_against_particles(self, zero_ham, gauss_m0, exp_kernel):
        from mfglab.convergence import sample_grid_to_atoms, w1_grid_vs_particles

        fv = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 1.0, 1e-3)
        pp = solve_aggregation_particles(
            zero_ham, exp_kernel, sample_grid_to_atoms(gauss_m0, 400), 1.0, 5e-3
        )
        assert w1_grid_vs_particles(fv.measures[-1], pp.measures[-1]) < 0.02

    def test_kept_nodes_are_the_full_paths(self, zero_ham, gauss_m0, exp_kernel, monkeypatch):
        """nodes = 0, 7, 50: the path keeps those three of the 51 nodes, bit for bit the full path's
        (node 0 is m0 itself), and wraps two densities; every node computed is still checked, as one
        (51, n_x) stack."""
        full = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.05, 1e-3, nodes=range(51))
        check, checked, made = aggregation._check_densities, [], []
        monkeypatch.setattr(aggregation, "_check_densities", lambda v, dx: checked.append(v.shape) or check(v, dx))
        init = GridDensity.__post_init__
        monkeypatch.setattr(GridDensity, "__post_init__", lambda self: made.append(1) or init(self))
        kept = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.05, 1e-3, nodes=[0, 7, 50])
        assert checked == [(51, gauss_m0.n)] and len(made) == 2
        assert np.array_equal(kept.times, full.times[[0, 7, 50]]) and kept.measures[0] is gauss_m0
        for m, j in zip(kept.measures, (0, 7, 50)):
            assert np.array_equal(m.values, full.measures[j].values)

    def test_long_solve_checks_every_node_in_blocks(self, zero_ham, gauss_m0, exp_kernel, monkeypatch):
        """201 nodes: checked in blocks of 64 rows as they fill, m0 first, each node once, so the check holds
        64 rows whatever the step count; the densities are bit for bit those of the path keeping every node."""
        check, checked = aggregation._check_densities, []
        full = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.2, 1e-3, nodes=range(201))
        monkeypatch.setattr(aggregation, "_check_densities", lambda v, dx: checked.append(v.copy()) or check(v, dx))
        solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.2, 1e-3)
        assert [len(v) for v in checked] == [64, 64, 64, 9]
        assert np.array_equal(np.concatenate(checked), [m.values for m in full.measures])

    def test_default_builds_one_density(self, zero_ham, gauss_m0, exp_kernel, monkeypatch):
        """By default the path keeps m0 itself and the density at T, the one GridDensity the solve
        builds; the 51 nodes computed are checked once, as one stack."""
        check, checked, made = aggregation._check_densities, [], []
        monkeypatch.setattr(aggregation, "_check_densities", lambda v, dx: checked.append(v.shape) or check(v, dx))
        init = GridDensity.__post_init__
        monkeypatch.setattr(GridDensity, "__post_init__", lambda self: made.append(1) or init(self))
        path = solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.05, 1e-3)
        assert len(made) == 1 and checked == [(51, gauss_m0.n)]
        assert np.array_equal(path.times, [0.0, 0.05]) and path.measures[0] is gauss_m0

    def test_diverging_cell_outflow_raises(self, gauss_m0):
        # repulsion from one full cell: its interface drifts are -+max|b|, with max|b| dt/dx = 0.9,
        # so it would lose 1.8 of its mass in one explicit step
        kernel = ExponentialKernel(alpha=1.0, a=1.0)
        dx, values = gauss_m0.dx, np.zeros(gauss_m0.n)
        values[128] = 1.0 / dx
        m0 = GridDensity(gauss_m0.origin, dx, values)
        b = -kernels._grid_sum(kernel, m0.cell_edges[1:-1], m0, gradient=True)
        assert b[127] < 0.0 < b[128] and np.max(np.abs(b)) == max(-b[127], b[128])
        dt = 0.9 * dx / np.max(np.abs(b))
        with pytest.raises(CflError, match="outflow"):
            solve_aggregation_fv(QuadraticDriftHamiltonian(), kernel, m0, 10 * dt, dt)

    def test_translation_allowed_up_to_one(self, gauss_m0):
        # a translating drift loses through one interface per cell: dt/dx = 0.95 is stable
        ham = QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.0))
        dt = 0.95 * gauss_m0.dx
        path = solve_aggregation_fv(ham, ZeroKernel(), gauss_m0, 20 * dt, dt)
        assert np.min(path.measures[-1].values) >= 0.0

    def test_cfl_cap_enforced(self, gauss_m0):
        ham = QuadraticDriftHamiltonian(DriftField("constant", amplitude=5.0))
        with pytest.raises(CflError):
            solve_aggregation_fv(ham, ZeroKernel(), gauss_m0, 0.5, 0.02)
