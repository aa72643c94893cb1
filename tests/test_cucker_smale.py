import numpy as np
import pytest

from mfglab import kernels
from mfglab import (
    CuckerSmaleKernel,
    DimensionError,
    ParticleEnsemble,
    TrajectoryEnsemble,
    cs_rhs,
    eval_coupling,
    grad_coupling,
    minimize_energy,
    moment2,
    richardson_order_ratio,
    solve_cs,
)


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
        """One right-hand side evaluates g once, through CuckerSmaleKernel.g: the benchmark
        traces that method as its kernels.cs_g span."""
        calls = []
        g = CuckerSmaleKernel.g
        monkeypatch.setattr(CuckerSmaleKernel, "g", lambda self, x: calls.append(x.shape) or g(self, x))
        cs_rhs(phase_atoms(rng.standard_normal(12), rng.standard_normal(12)), CuckerSmaleKernel(1.0, 0.5))
        assert calls == [(12, 12)]

    def test_pair_array_cap(self, rng, monkeypatch):
        # 12 atoms: the (12, 12) weight matrix takes 1152 bytes
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 1000)
        m = phase_atoms(rng.standard_normal(12), rng.standard_normal(12))
        for call in (lambda: cs_rhs(m, CuckerSmaleKernel()), lambda: solve_cs(m, CuckerSmaleKernel(), 0.1, 0.05)):
            with pytest.raises(ValueError, match="1152 bytes each exceed the cap of 1000 bytes"):
                call()


class TestSolveCs:
    def test_two_body_exponential_decay(self, cs_flat, two_body_phase):
        # with g == 1 the two-body system is linear: v1(t) = e^{-2t}
        path = solve_cs(two_body_phase, cs_flat, 1.0, 1e-3)
        v1 = path.measures[-1].velocities[0, 0]
        assert v1 == pytest.approx(np.exp(-2.0), abs=1e-6)

    def test_mean_velocity_conserved(self, rng):
        m0 = phase_atoms(rng.standard_normal(64), rng.standard_normal(64))
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, save_every=100)
        vbar0 = float(m0.weights @ m0.velocities[:, 0])
        for m in path.measures:
            assert abs(float(m.weights @ m.velocities[:, 0]) - vbar0) <= 1e-9

    def test_velocity_moment_dissipates(self, rng):
        m0 = phase_atoms(rng.standard_normal(32), rng.standard_normal(32))
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, save_every=10)
        m2v = np.array([moment2(m, "velocity") for m in path.measures])
        assert np.all(np.diff(m2v) <= 1e-12)

    def test_rk4_order_check(self, cs_flat, two_body_phase):
        ratio = richardson_order_ratio(two_body_phase, cs_flat, 1.0, 0.05)
        assert 8.0 <= ratio <= 32.0

    @pytest.mark.parametrize(
        "T, dt, name",
        [(-1.0, 0.01, "T"), (0.0, 0.01, "T"), (float("nan"), 0.01, "T"), (float("inf"), 0.01, "T"), (1.0, 0.0, "dt")],
    )
    def test_order_check_rejects_bad_times(self, cs_flat, two_body_phase, T, dt, name):
        """A backward, empty, NaN or infinite horizon, or a zero step, has no order to probe."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            richardson_order_ratio(two_body_phase, cs_flat, T, dt)

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
    "eval_coupling": lambda m, k: eval_coupling(k, 0.0, m, v=0.0),
    "grad_coupling": lambda m, k: grad_coupling(k, 0.0, m, v=0.0),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_flock_without_velocities_raises(entry):
    """Every entry of the Cucker-Smale side takes (x, v) atoms: a position-only ensemble raises.
    No flock off the line can be built (test_measures checks the construction)."""
    m = ParticleEnsemble.equal_weights(np.linspace(-1.0, 1.0, 4), 1)
    with pytest.raises(DimensionError, match="needs a phase-space ensemble"):
        ENTRIES[entry](m, CuckerSmaleKernel(1.0, 0.5))
