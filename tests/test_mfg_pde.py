import numpy as np
import pytest

from mfglab import (
    CflError,
    DriftField,
    ExponentialKernel,
    GridDensity,
    GridError,
    MeasurePath,
    MorseKernel,
    PdeConfig,
    QuadraticDriftHamiltonian,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    eval_coupling,
    fp_forward,
    grad_coupling,
    hjb_backward,
    limit_drift,
    solve_mfg_fixed_point,
)
from mfglab.kernels import CrowdRadialKernel
from mfglab.measures import moment2, wasserstein1_1d
from mfglab.mfg_pde import coupling_grad_on_grid, coupling_on_grid


def constant_kernel(c):
    """k identically c, so F(x, m) = c for every probability measure m."""
    knots = np.array([0.0, 5.0, 10.0, 100.0])
    return CrowdRadialKernel(knots, np.full(4, c))


class LinearGrowthKernel:
    """k(x) = |x|: the coupling F = k*m grows linearly at infinity."""

    def phi(self, r):
        return np.asarray(r, dtype=float)

    def dphi(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) if x.ndim <= 1 else np.sqrt(np.sum(x**2, axis=-1))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        r = self.value(x)
        if x.ndim <= 1:
            return np.sign(x)
        with np.errstate(invalid="ignore"):
            return np.where(r[..., None] > 0, x / np.maximum(r, 1e-300)[..., None], 0.0)


def frozen_path(cfg, m0):
    return MeasurePath(cfg.times, [m0] * (cfg.n_steps + 1))


RADIAL_KERNELS = [
    ExponentialKernel(1.0, 1.0),
    RepulsiveAttractiveKernel(1.0),
    MorseKernel(0.5, 2.0),
    CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0])),
    ZeroKernel(),
]


def dense_coupling(kernel, values, origin, dx, xq, gradient=False):
    """Oracle: one quadrature sum per node and query point, through the kernel's 1D branch."""
    y = origin + (np.arange(values.shape[1]) + 0.5) * dx
    out = np.empty((len(values), len(xq)))
    for j, row in enumerate(values):
        for i, xi in enumerate(xq):
            k = kernel.gradient(xi - y) if gradient else kernel.value(xi - y)
            out[j, i] = dx * np.sum(row * k)
    return out


class TestGridCoupling:
    origin, dx, n = -3.0, 0.125, 48

    def stack(self, rng, n_nodes=5):
        raw = rng.random((n_nodes, self.n)) + 0.1
        return raw / (raw.sum(axis=1, keepdims=True) * self.dx)

    @pytest.mark.parametrize("kernel", RADIAL_KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("grad", [False, True], ids=["F", "DF"])
    def test_batched_stack_at_centres(self, kernel, grad, rng):
        values = self.stack(rng)
        x = self.origin + (np.arange(self.n) + 0.5) * self.dx
        batched = (coupling_grad_on_grid if grad else coupling_on_grid)(kernel, values, x)
        expected = dense_coupling(kernel, values, self.origin, self.dx, x, grad)
        assert batched.shape == (len(values), self.n)
        np.testing.assert_allclose(batched, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kernel", RADIAL_KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("grad", [False, True], ids=["F", "DF"])
    def test_density_at_interfaces(self, kernel, grad, rng):
        # interfaces are where the FV limit solver evaluates the drift
        values = self.stack(rng, n_nodes=2)
        x_int = self.origin + np.arange(1, self.n) * self.dx
        expected = dense_coupling(kernel, values, self.origin, self.dx, x_int, grad)
        for row, exp_row in zip(values, expected):
            m = GridDensity(self.origin, self.dx, row)
            got = (coupling_grad_on_grid if grad else coupling_on_grid)(kernel, m, x_int)
            np.testing.assert_allclose(got, exp_row, rtol=0.0, atol=1e-12)
            pointwise = [(grad_coupling if grad else eval_coupling)(kernel, xi, m) for xi in x_int[::7]]
            np.testing.assert_allclose(pointwise, exp_row[::7], rtol=0.0, atol=1e-12)
            if grad:
                drift = limit_drift(QuadraticDriftHamiltonian(), kernel, x_int, m)
                np.testing.assert_allclose(drift, -exp_row, rtol=0.0, atol=1e-12)


# Golden fixed point: lam=20, n_x=64, dt=4e-3, sinusoidal drift, exponential
# kernel, m0 = N(0.25, 0.5^2).  Recorded with the per-node coupling and the
# MeasurePath-valued fixed-point loop that the batched array loop replaced.
GOLDEN_HISTORY = [
    0.13010194661808255, 0.05505983003421915, 0.0232400293811099, 0.009775992834151015,
    0.004096435342888829, 0.0017115962110255036, 0.0007121709505087023, 0.0002947055828502936,
    0.00012118682553349569, 4.9469502130161076e-05, 2.00200634270131e-05, 8.018548676302441e-06,
    3.1712354704082025e-06, 1.2656986876315605e-06, 5.158604250762092e-07,
]
# u_path[::50, 3::8] and m_path[::50, 3::8]
GOLDEN_U = [
    [0.00022333894267345525, 0.0009940671223312685, 0.004299849876407936, 0.018587011043804388,
     0.03053637030296183, 0.008608427667916113, 0.001992351591447429, 0.0004508847957822329],
    [0.0002449544664937645, 0.001090197599774218, 0.004711952567034341, 0.018912129730805558,
     0.028368487714452842, 0.00977132118035075, 0.00227975314410807, 0.0005160005953404682],
    [0.00027261981088113317, 0.0012132365499644138, 0.005226280171508395, 0.01876072498975562,
     0.026312691830422022, 0.010975219193463738, 0.002625641238625712, 0.0005944036897677953],
    [0.00030638703801770317, 0.0013634606113415416, 0.005815019422730513, 0.018312468245992683,
     0.024453087999767507, 0.012068561092461938, 0.003025861318264895, 0.0006852382489918731],
    [0.0003383988146114503, 0.0015071737706660489, 0.0063190435103262135, 0.017421445203651954,
     0.022427980920043628, 0.012750038454424843, 0.003399634053341951, 0.0007693512054771193],
    [0.0] * 8,
]
GOLDEN_M = [
    [5.293677194341061e-28, 2.215342274440398e-15, 1.1441260612871128e-06, 0.07292166635238427,
     0.5735733351328288, 0.0005567637931967242, 6.669644400845562e-11, 9.860161701477889e-22],
    [1.0512257591085796e-17, 3.4394384307187184e-10, 0.00022261212563090755, 0.16221037983557687,
     0.49349907511463176, 0.010825259739262181, 1.787496728653188e-07, 2.355176717066985e-14],
    [3.659898953641871e-14, 6.49058887007902e-08, 0.002381840968802142, 0.20409386905862834,
     0.41800206317742145, 0.04039977528292073, 8.944164158421997e-06, 1.6442876304328045e-11],
    [6.385779142965551e-12, 1.6681852021362635e-06, 0.009216287693497374, 0.21565653890325795,
     0.3594719410250117, 0.08000041688779894, 0.00010278121602282265, 1.1307450121486235e-09],
    [2.4502118095463253e-10, 1.5565613420291614e-05, 0.021456911584588463, 0.21292422711689635,
     0.31399007195504597, 0.11741855496811691, 0.00054016562172686, 2.281042941788417e-08],
    [3.755384444175913e-09, 7.846096114030832e-05, 0.03684187349638743, 0.2040696139226468,
     0.27928626483366953, 0.1462568754401408, 0.0017368166685903614, 2.1448021854475e-07],
]


class TestPdeConfig:
    def test_viscosity_schedule(self):
        assert PdeConfig(lam=16.0).viscosity == pytest.approx(0.25)
        assert PdeConfig(lam=16.0, nu=0.1).viscosity == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            PdeConfig(lam=-1.0)
        with pytest.raises(ValueError):
            PdeConfig(lam=1.0, nu=-0.1)
        with pytest.raises(ValueError):
            PdeConfig(lam=1.0, mode="newton")
        with pytest.raises(ValueError):
            PdeConfig(lam=1.0, T=-1.0)

    @pytest.mark.parametrize("name", ["lam", "T", "dt", "half_width", "nu", "tolerance"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PdeConfig(**{"lam": 1.0, name: bad})


class TestHjbBackward:
    def test_no_coupling_no_drift_gives_zero(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0)
        u = hjb_backward(cfg, zero_ham, ZeroKernel(), frozen_path(cfg, gauss_m0))
        assert np.all(u == 0.0)

    def test_constant_coupling_oracle(self, zero_ham, gauss_m0):
        # F = c: the scalar ODE u' = lam u - c with u(T)=0 has the
        # closed form u(t) = (c/lam)(1 - e^{-lam(T-t)}), and the
        # integrating-factor step reproduces it to roundoff
        c, lam = 0.7, 10.0
        cfg = PdeConfig(lam=lam, nu=0.0)
        u = hjb_backward(cfg, zero_ham, constant_kernel(c), frozen_path(cfg, gauss_m0))
        t = cfg.times[:, None]
        exact = (c / lam) * (1.0 - np.exp(-lam * (cfg.T - t))) * np.ones((1, cfg.n_x))
        assert np.max(np.abs(u - exact)) < 1e-6

    def test_linear_growth_scaling(self, zero_ham, gauss_m0):
        # F with linear growth: lam * max |u| / (1+|x|) stays O(1) in lam
        ratios = []
        for lam in (20.0, 40.0, 80.0):
            cfg = PdeConfig(lam=lam)
            u = hjb_backward(cfg, zero_ham, LinearGrowthKernel(), frozen_path(cfg, gauss_m0))
            x = cfg.cell_centers
            ratios.append(lam * np.max(np.abs(u) / (1.0 + np.abs(x))[None, :]))
        assert max(ratios) < 10.0
        assert max(ratios) < 1.5 * min(ratios)

    def test_positive_coupling_gives_positive_u(self, zero_ham, gauss_m0, exp_kernel):
        cfg = PdeConfig(lam=20.0)
        u = hjb_backward(cfg, zero_ham, exp_kernel, frozen_path(cfg, gauss_m0))
        assert np.min(u) >= 0.0

    def test_wrong_time_grid_rejected(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0)
        bad = MeasurePath(np.array([0.0, cfg.T]), [gauss_m0, gauss_m0])
        with pytest.raises(ValueError, match="time grid"):
            hjb_backward(cfg, zero_ham, ZeroKernel(), bad)

    def test_path_off_the_config_grid_rejected(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0)
        shifted = GridDensity(gauss_m0.origin + 0.5 * gauss_m0.dx, gauss_m0.dx, gauss_m0.values)
        with pytest.raises(GridError, match="grid"):
            hjb_backward(cfg, zero_ham, ZeroKernel(), frozen_path(cfg, shifted))

    def test_raw_stack_matches_measure_path(self, zero_ham, gauss_m0, exp_kernel):
        cfg = PdeConfig(lam=20.0, T=0.2)
        stack = np.tile(gauss_m0.values, (cfg.n_steps + 1, 1))
        u_path = hjb_backward(cfg, zero_ham, exp_kernel, frozen_path(cfg, gauss_m0))
        assert np.array_equal(hjb_backward(cfg, zero_ham, exp_kernel, stack), u_path)


class TestFpForward:
    def test_zero_drift_zero_viscosity_stationary(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0, nu=0.0)
        u = np.zeros((cfg.n_steps + 1, cfg.n_x))
        m = fp_forward(cfg, zero_ham, u, gauss_m0)
        assert np.array_equal(m[-1], gauss_m0.values)

    def test_constant_drift_translates(self, zero_ham, gauss_m0):
        # u = -x/lam makes the transport drift b = -lam Du = 1
        cfg = PdeConfig(lam=10.0, T=0.5, nu=0.0)
        u = np.tile(-cfg.cell_centers / cfg.lam, (cfg.n_steps + 1, 1))
        m = fp_forward(cfg, zero_ham, u, gauss_m0)
        translated = GridDensity.gaussian(0.5, 0.5, gauss_m0.origin, gauss_m0.dx, gauss_m0.n)
        m_T = GridDensity(gauss_m0.origin, gauss_m0.dx, m[-1])
        assert wasserstein1_1d(m_T, translated) <= gauss_m0.dx + 0.05 * cfg.dt / cfg.dx

    def test_pure_diffusion_variance_growth(self, zero_ham, gauss_m0):
        nu = 0.1
        cfg = PdeConfig(lam=10.0, T=1.0, nu=nu)
        u = np.zeros((cfg.n_steps + 1, cfg.n_x))
        m = fp_forward(cfg, zero_ham, u, gauss_m0)
        var0 = moment2(gauss_m0)
        var1 = moment2(GridDensity(gauss_m0.origin, gauss_m0.dx, m[-1]))
        assert var1 == pytest.approx(var0 + 2 * nu * cfg.T, rel=0.02)

    def test_mass_and_nonnegativity_every_node(self, zero_ham, gauss_m0, exp_kernel):
        cfg = PdeConfig(lam=20.0)
        u = hjb_backward(cfg, zero_ham, exp_kernel, frozen_path(cfg, gauss_m0))
        m = fp_forward(cfg, zero_ham, u, gauss_m0)
        assert m.shape == (cfg.n_steps + 1, cfg.n_x)
        for values in m:
            assert abs(cfg.dx * values.sum() - 1.0) <= 1e-10
            assert np.min(values) >= 0.0

    def test_cfl_violation_raises(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0, dt=0.05, nu=0.0)
        u = np.tile(-10.0 * cfg.cell_centers / cfg.lam, (cfg.n_steps + 1, 1))
        with pytest.raises(CflError, match="CFL"):
            fp_forward(cfg, zero_ham, u, gauss_m0)


class TestFixedPoint:
    def test_uncoupled_converges_immediately(self, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0)
        sol = solve_mfg_fixed_point(cfg, zero_ham, ZeroKernel(), gauss_m0)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.residual == 0.0

    def test_exponential_model_converges(self, zero_ham, gauss_m0, exp_kernel):
        cfg = PdeConfig(lam=20.0)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, gauss_m0)
        assert sol.converged
        assert sol.residual < 1e-6
        assert np.all(np.isfinite(sol.u_path))

    def test_fictitious_play_monotone_after_burn_in(self, zero_ham, exp_kernel):
        cfg = PdeConfig(
            lam=20.0, n_x=128, dt=2e-3, mode="fictitious-play", max_iterations=25, tolerance=1e-10
        )
        m0 = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        hist = np.array(sol.residual_history[4:])
        assert np.all(np.diff(hist) <= 1e-12)

    def test_non_convergence_flagged_not_raised(self, zero_ham, exp_kernel):
        cfg = PdeConfig(lam=20.0, n_x=128, dt=2e-3, max_iterations=2, tolerance=1e-14)
        m0 = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        assert not sol.converged
        assert sol.iterations <= 2
        assert np.isfinite(sol.residual)

    def test_golden_fixed_point(self, exp_kernel):
        cfg = PdeConfig(lam=20.0, n_x=64, dt=4e-3)
        ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=0.5, frequency=1.0))
        m0 = GridDensity.gaussian(0.25, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, ham, exp_kernel, m0)
        assert sol.converged
        assert sol.iterations == 15
        np.testing.assert_allclose(sol.residual_history, GOLDEN_HISTORY, rtol=0.0, atol=1e-12)
        m_path = np.stack([m.values for m in sol.m_path.measures])
        assert sol.u_path.shape == m_path.shape == (cfg.n_steps + 1, cfg.n_x)
        np.testing.assert_allclose(sol.u_path[::50, 3::8], GOLDEN_U, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(m_path[::50, 3::8], GOLDEN_M, rtol=0.0, atol=1e-10)
        assert sol.u_path.sum() == pytest.approx(125.6801492271315, rel=0.0, abs=1e-10)
        assert (m_path * cfg.cell_centers).sum() == pytest.approx(407.4424377971889, rel=0.0, abs=1e-10)
