"""End-to-end acceptance suite.

Each test pins one of the headline guarantees of the package: exact
conservation, closed-form oracles, the lambda-scaling of the value
function, the large-discount limits of both model families, and the
kernel positivity verdicts.  Tolerances are part of the contract and
deliberately hard-coded.
"""

import time

import numpy as np
import pytest

from mfglab import (
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    PdeConfig,
    QuadraticDriftHamiltonian,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    cs_rhs,
    fp_forward,
    hjb_backward,
    minimize_energy,
    moment2,
    psd_check,
    richardson_order_ratio,
    run_lambda_sweep_acceleration,
    run_lambda_sweep_classic,
    solve_aggregation_fv,
    solve_aggregation_particles,
    solve_cs,
    solve_mfg_fixed_point,
)
from mfglab.convergence import sample_grid_to_atoms, w1_grid_vs_particles
from mfglab.kernels import CrowdRadialKernel
from mfglab.measures import wasserstein1_particles

ZERO_HAM = QuadraticDriftHamiltonian(DriftField("zero"))
EXP_KERNEL = ExponentialKernel(1.0, 1.0)
CS_FLAT = CuckerSmaleKernel(1.0, 0.0)


def gauss_m0(cfg):
    return GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)


def two_body():
    return ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)


@pytest.fixture(scope="module")
def classic_sweep():
    cfg = PdeConfig(lam=5.0)
    return run_lambda_sweep_classic(
        ZERO_HAM, EXP_KERNEL, gauss_m0(cfg), [5.0, 20.0, 80.0],
        base_config=cfg, n_cross_particles=400, seed=0,
    )


@pytest.fixture(scope="module")
def accel_sweep():
    return run_lambda_sweep_acceleration(
        CS_FLAT, two_body(), [10.0, 20.0, 40.0], T=1.0, n_intervals=128, seed=0
    )


def test_conservation_suite():
    t0 = time.perf_counter()
    cfg = PdeConfig(lam=10.0, T=1.0, n_x=256, dt=2e-4)
    m0 = gauss_m0(cfg)
    frozen = np.tile(m0.values, (cfg.n_steps + 1, 1))
    u = hjb_backward(cfg, ZERO_HAM, EXP_KERNEL, frozen)
    fp = fp_forward(cfg, ZERO_HAM, u, m0)
    agg = solve_aggregation_fv(ZERO_HAM, EXP_KERNEL, m0, 1.0, 2e-4)
    for values in [*fp, *(m.values for m in agg.measures)]:
        assert abs(cfg.dx * values.sum() - 1.0) <= 1e-10
        assert np.min(values) >= 0.0
    assert time.perf_counter() - t0 < 10.0


def test_hjb_closed_form_oracle():
    c, lam = 0.7, 10.0
    cfg = PdeConfig(lam=lam, nu=0.0)
    knots = np.array([0.0, 5.0, 10.0, 100.0])
    kernel = CrowdRadialKernel(knots, np.full(4, c))
    m0 = gauss_m0(cfg)
    frozen = np.tile(m0.values, (cfg.n_steps + 1, 1))
    u = hjb_backward(cfg, ZERO_HAM, kernel, frozen)
    t = cfg.times[:, None]
    exact = (c / lam) * (1.0 - np.exp(-lam * (cfg.T - t))) * np.ones((1, cfg.n_x))
    assert np.max(np.abs(u - exact)) <= 1e-6


def test_value_gradient_lambda_scaling():
    # lam * sup|Du| stays bounded by a multiple of the coupling constant
    # and is non-increasing across the sweep up to 25% scheme slack
    t0 = time.perf_counter()
    c0 = 1.0  # Lipschitz constant of e^{-|x|}
    vals = []
    for lam in (20.0, 40.0, 80.0):
        cfg = PdeConfig(lam=lam)
        sol = solve_mfg_fixed_point(cfg, ZERO_HAM, EXP_KERNEL, gauss_m0(cfg))
        assert sol.converged
        du = np.gradient(sol.u_path, cfg.dx, axis=1)
        vals.append(lam * np.max(np.abs(du)))
    assert max(vals) < 5.0 * c0
    for prev, nxt in zip(vals, vals[1:]):
        assert nxt <= 1.25 * prev
    assert time.perf_counter() - t0 < 300.0


def test_residuals_decrease_and_w1_halves(classic_sweep):
    res_u = classic_sweep.column("residual_lam_u")
    res_du = classic_sweep.column("residual_lam_du_l1")
    w1 = classic_sweep.column("w1_sup")
    assert np.all(np.diff(res_u) < 0)
    assert np.all(np.diff(res_du) < 0)
    assert w1[-1] < 0.5 * w1[0]
    assert np.all(classic_sweep.column("converged") == 1.0)


class TestAggregationOracles:
    def test_exponential_two_particle_gap(self):
        alpha, a, d0, T = 1.0, 1.0, 1.0, 1.0
        m0 = ParticleEnsemble.equal_weights(np.array([[-d0 / 2], [d0 / 2]]), 1)
        path = solve_aggregation_particles(ZERO_HAM, ExponentialKernel(alpha, a), m0, T, 1e-3)
        pos = path.measures[-1].positions[:, 0]
        exact = (1.0 / a) * np.log(np.exp(a * d0) + a**2 * alpha * T)
        assert pos[1] - pos[0] == pytest.approx(exact, abs=1e-4)

    def test_morse_two_particle_equilibrium_gap(self):
        m0 = ParticleEnsemble.equal_weights(np.array([[-1.0], [1.0]]), 1)
        path = solve_aggregation_particles(ZERO_HAM, MorseKernel(0.5, 2.0), m0, 300.0, 2e-2)
        pos = path.measures[-1].positions[:, 0]
        assert pos[1] - pos[0] == pytest.approx(2.0 * np.log(4.0), abs=1e-3)

    def test_fv_particle_cross_validation(self):
        cfg = PdeConfig(lam=10.0, n_x=256)
        m0 = gauss_m0(cfg)
        fv = solve_aggregation_fv(ZERO_HAM, EXP_KERNEL, m0, 1.0, 1e-3)
        pp = solve_aggregation_particles(
            ZERO_HAM, EXP_KERNEL, sample_grid_to_atoms(m0, 2000), 1.0, 5e-3
        )
        assert w1_grid_vs_particles(fv.measures[-1], pp.measures[-1]) <= 0.02


class TestFlockingSuite:
    def test_two_body_exponential_decay(self):
        path = solve_cs(two_body(), CS_FLAT, 1.0, 1e-3)
        assert path.measures[-1].velocities[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-6)

    def test_mean_velocity_drift(self):
        rng = np.random.default_rng(7)
        m0 = ParticleEnsemble.equal_weights(
            np.column_stack([rng.standard_normal(64), rng.standard_normal(64)]), 1
        )
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, save_every=100)
        vbar0 = float(m0.weights @ m0.velocities[:, 0])
        drift = max(
            abs(float(m.weights @ m.velocities[:, 0]) - vbar0) for m in path.measures
        )
        assert drift <= 1e-9

    def test_velocity_moment_monotone(self):
        rng = np.random.default_rng(11)
        m0 = ParticleEnsemble.equal_weights(
            np.column_stack([rng.standard_normal(32), rng.standard_normal(32)]), 1
        )
        path = solve_cs(m0, CuckerSmaleKernel(1.0, 0.5), 5.0, 1e-3, save_every=10)
        m2v = np.array([moment2(m, "velocity") for m in path.measures])
        assert np.all(np.diff(m2v) <= 1e-12)

    def test_rk4_order_ratio(self):
        ratio = richardson_order_ratio(two_body(), CS_FLAT, 1.0, 0.05)
        assert 8.0 <= ratio <= 32.0


def test_energy_gradient_vs_central_differences():
    from mfglab import TrajectoryEnsemble, discrete_energy, energy_gradient

    rng = np.random.default_rng(3)
    kernel = CuckerSmaleKernel(1.0, 0.5)
    for n, K in ((2, 8), (4, 16)):
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((n, 2)), 1)
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, K).with_controls(
            0.5 * rng.standard_normal((n, K))
        )
        g = energy_gradient(ens, kernel, 7.0)[1]
        fd = np.zeros_like(g)
        eps = 1e-6
        for idx in np.ndindex(*g.shape):
            up, dn = ens.controls.copy(), ens.controls.copy()
            up[idx] += eps
            dn[idx] -= eps
            fd[idx] = (
                discrete_energy(ens.with_controls(up), kernel, 7.0).total
                - discrete_energy(ens.with_controls(dn), kernel, 7.0).total
            ) / (2 * eps)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(g - fd)) / denom <= 1e-6


def test_energy_bound_and_equilibrium_certificate(accel_sweep):
    # every converged minimizer obeys the cheap-control energy bound
    # 2 c0 M_{2,v}(m0) / lam with 5% quadrature slack, and its
    # Euler-Lagrange residual certifies the equilibrium to 1e-4
    for row in accel_sweep.rows:
        assert row["converged"]
        assert row["energy_bound_ok"]
        assert row["energy_total"] <= 1.05 * row["energy_bound"]
        assert row["el_residual"] <= 1e-4


def test_flocking_limit_trend(accel_sweep):
    t0 = time.perf_counter()
    w1 = accel_sweep.column("w1_at_half_T")
    assert np.all(np.diff(w1) < 0)
    assert time.perf_counter() - t0 < 600.0


def linear_quadratic_velocity(u0, lam, T, t):
    """Centred velocity of the flat-weight (beta = 0, g = 1) acceleration MFG.

    With g = 1 the coupling is the velocity variance, so each centred velocity u minimizes
    int e^{-lam t} (u'^2 / (2 lam) + u^2) dt: u'' - lam u' - 2 lam u = 0, u(0) = u0, u'(T) = 0.
    The roots are r_pm = (lam +- sqrt(lam^2 + 8 lam)) / 2; the growing mode is written as
    e^{r_+ (t - T)} so that no exponent is positive (e^{r_+ T} overflows for large lam).
    """
    disc = np.sqrt(lam * lam + 8.0 * lam)
    r_plus, r_minus = 0.5 * (lam + disc), 0.5 * (lam - disc)
    b = u0 / (1.0 - (r_minus / r_plus) * np.exp((r_minus - r_plus) * T))
    return b * (np.exp(r_minus * t) - (r_minus / r_plus) * np.exp(r_minus * T + r_plus * (t - T)))


@pytest.mark.parametrize("lam", [10.0, 20.0, 40.0])
def test_linear_quadratic_flock_oracle(lam):
    # at K = 64 lam the discretization error is O((lam dt)^2) with lam dt = 1/64: measured
    # 7.8e-6, 7.6e-6 and 8.6e-6 on t <= T/2 at lam = 10, 20, 40 (1.9e-6 at K = 128 lam)
    T = 1.0
    ens = minimize_energy(two_body(), CS_FLAT, lam, T, int(64 * lam)).ensemble
    u0 = ens.v0 - ens.weights @ ens.v0
    u = ens.velocities - ens.weights @ ens.velocities
    keep = ens.times <= 0.5 * T
    exact = linear_quadratic_velocity(u0[:, None], lam, T, ens.times[None, keep])
    assert np.max(np.abs(u[:, keep] - exact)) <= 2e-5


class TestPsdVerdicts:
    def test_repulsive_attractive_two_point_not_psd(self):
        # Gram matrix on {0, 1} is [[0, -e^-1], [-e^-1, 0]]: eigenvalues
        # are exactly +-e^-1, so the verdict is unambiguous
        verdict = psd_check(RepulsiveAttractiveKernel(1.0), points=np.array([[0.0], [1.0]]))
        assert verdict.label == "NOT-PSD"
        assert verdict.min_eigenvalue == pytest.approx(-np.exp(-1.0), abs=1e-12)

    def test_exponential_psd_consistent(self):
        verdict = psd_check(ExponentialKernel(1.0, 1.0), n_points=64, seed=0)
        assert verdict.label == "PSD-consistent"

    def test_deterministic_under_seed(self):
        a = psd_check(ExponentialKernel(1.0, 1.0), n_points=64, seed=9)
        b = psd_check(ExponentialKernel(1.0, 1.0), n_points=64, seed=9)
        assert a.min_eigenvalue == b.min_eigenvalue
