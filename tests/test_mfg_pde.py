import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from mfglab import (
    CflError,
    DriftField,
    ExponentialKernel,
    GridDensity,
    GridError,
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
from mfglab import kernels, mfg_pde
from mfglab.errors import StabilityError
from mfglab.kernels import CrowdRadialKernel
from mfglab.measures import _check_densities, moment2, wasserstein1_1d
from mfglab.mfg_pde import _check_cfl, _w1_sup, coupling_on_grid


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
    return np.tile(m0.values, (cfg.n_steps + 1, 1))


def w1_nodes(a, b, dx):
    """W1 distance between two (n_nodes, n_x) density stacks, one value per time node."""
    return dx * np.sum(np.abs(np.cumsum(a, axis=1) - np.cumsum(b, axis=1)), axis=1) * dx


def damped_picard(cfg, ham, kernel, m0):
    """Oracle: the damped Picard loop that Anderson mixing replaced, stopping on every node."""
    m = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, frozen_path(cfg, m0)), m0)
    for it in range(1, cfg.max_iterations + 1):
        m_plus = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, m), m0)
        if np.max(w1_nodes(m, m_plus, cfg.dx)) < cfg.tolerance:
            return m_plus, it
        m = 0.5 * m + 0.5 * m_plus
        m /= m.sum(axis=1, keepdims=True) * cfg.dx
    raise AssertionError("damped Picard did not converge")


class SparseLuDiffusion:
    """Oracle: the sparse LU of I - dt nu Lap that the LAPACK pttrf/pttrs solver replaced, in place."""

    def __init__(self, n, dx, dt, nu):
        self.active = nu > 0
        if self.active:
            main = np.full(n, -2.0)
            main[0] = main[-1] = -1.0
            off = np.ones(n - 1)
            lap = sparse.diags([off, main, off], [-1, 0, 1], format="csc") / dx**2
            self._lu = splu((sparse.identity(n, format="csc") - dt * nu * lap).tocsc())

    def __call__(self, rhs):
        if self.active:
            rhs[:] = self._lu.solve(rhs)
        return rhs


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
        batched = kernels._grid_sum(kernel, x, values, gradient=grad)
        expected = dense_coupling(kernel, values, self.origin, self.dx, x, grad)
        assert batched.shape == (len(values), self.n)
        np.testing.assert_allclose(batched, expected, rtol=0.0, atol=1e-12)
        if not grad:
            assert np.array_equal(coupling_on_grid(kernel, values, x), batched)

    @pytest.mark.parametrize("kernel", RADIAL_KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("grad", [False, True], ids=["F", "DF"])
    def test_density_at_interfaces(self, kernel, grad, rng):
        # interfaces are where the FV limit solver evaluates the drift
        values = self.stack(rng, n_nodes=2)
        x_int = self.origin + np.arange(1, self.n) * self.dx
        expected = dense_coupling(kernel, values, self.origin, self.dx, x_int, grad)
        for row, exp_row in zip(values, expected):
            m = GridDensity(self.origin, self.dx, row)
            got = kernels._grid_sum(kernel, x_int, m, gradient=grad)
            np.testing.assert_allclose(got, exp_row, rtol=0.0, atol=1e-12)
            pointwise = [(grad_coupling if grad else eval_coupling)(kernel, xi, m) for xi in x_int[::7]]
            np.testing.assert_allclose(pointwise, exp_row[::7], rtol=0.0, atol=1e-12)
            if grad:
                drift = limit_drift(QuadraticDriftHamiltonian(), kernel, x_int, m)
                np.testing.assert_allclose(drift, -exp_row, rtol=0.0, atol=1e-12)


# Golden fixed point: lam=20, n_x=64, dt=4e-3, sinusoidal drift, exponential
# kernel, m0 = N(0.25, 0.5^2).  Recorded with the Anderson-accelerated loop
# and its every-node residual.
GOLDEN_HISTORY = [
    0.13011254286031682, 0.019986273036870287, 0.0002860334031539303, 2.697851736453174e-05,
    3.613073828316517e-07,
]
# u_path[::50, 3::8] and m_path[::50, 3::8]
GOLDEN_U = [
    [0.00022333893931073809, 0.0009940671075194553, 0.004299849815012751, 0.01858701091875232,
     0.03053637067081396, 0.008608427473682208, 0.001992351544021108, 0.0004508847848564621],
    [0.00024495444806780305, 0.0010901975179006334, 0.004711952216224719, 0.01891212969843536,
     0.028368489506372267, 0.009771320143796914, 0.002279752891757834, 0.0005160005380849744],
    [0.0002726197816991217, 0.0012132364202133946, 0.005226279626105793, 0.018760725559553288,
     0.026312693473271153, 0.010975218012038018, 0.0026256408801833575, 0.0005944036085481242],
    [0.0003063869996667413, 0.0013634604408332368, 0.0058150187663969675, 0.018312468206662,
     0.024453090051153578, 0.012068560311092097, 0.0030258609468657364, 0.0006852381646800797],
    [0.00033839876733044686, 0.0015071735603280495, 0.006319042795913663, 0.01742144444328966,
     0.022427983753356306, 0.012750037728524502, 0.003399633736958629, 0.0007693511329669888],
    [0.0] * 8,
]
GOLDEN_M = [
    [5.293677194341061e-28, 2.215342274440398e-15, 1.1441260612871128e-06, 0.07292166635238427,
     0.5735733351328288, 0.0005567637931967242, 6.669644400845562e-11, 9.860161701477889e-22],
    [1.051225755203506e-17, 3.439438398495421e-10, 0.0002226121234543042, 0.16221038593754303,
     0.4934990694114147, 0.010825259760346794, 1.7874966951722825e-07, 2.355176703211015e-14],
    [3.6598989063276094e-14, 6.490588729588671e-08, 0.0023818409803822043, 0.20409387591664227,
     0.4180020543484971, 0.04039977743255023, 8.944163823890295e-06, 1.6442875930348804e-11],
    [6.385779004419281e-12, 1.6681851625137339e-06, 0.00921628808105948, 0.21565654418925442,
     0.3594719297099282, 0.08000042275737976, 0.00010278121312433143, 1.1307449704174979e-09],
    [2.4502117473776385e-10, 1.556561321528938e-05, 0.02145691291352011, 0.2129242369146681,
     0.3139900532064625, 0.11741856134968919, 0.0005401656230655798, 2.281042854447459e-08],
    [3.755384361254147e-09, 7.8460961500861e-05, 0.036841875541866256, 0.2040696242828772,
     0.27928624290068876, 0.14625688396399586, 0.0017368167227794576, 2.1448021300383442e-07],
]
# The same samples as the damped Picard loop (15 iterations, 9-node residual) recorded them.
PICARD_U = [
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
PICARD_M = [
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
        with pytest.raises(ValueError, match="max_iterations"):
            PdeConfig(lam=1.0, max_iterations=0)
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
        with pytest.raises(ValueError, match=r"\(1001, 256\) stack on the solver's time grid, got shape \(2, 256\)"):
            hjb_backward(cfg, zero_ham, ZeroKernel(), np.tile(gauss_m0.values, (2, 1)))

    @pytest.mark.parametrize(
        "shape", [(1001, 255), (1001, 257), (256,), (1001 * 256,)], ids=["narrow", "wide", "one-node", "flat"]
    )
    def test_stack_of_the_wrong_shape_rejected(self, zero_ham, exp_kernel, shape):
        cfg = PdeConfig(lam=10.0)
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
            hjb_backward(cfg, zero_ham, exp_kernel, np.full(shape, 1.0 / (cfg.n_x * cfg.dx)))

    def test_finite_but_not_monotone_sweep_raises(self, gauss_m0, exp_kernel):
        # dt |v| / dx = 2.1: the upwinded drift step is not monotone, yet 4 steps stay finite
        cfg = PdeConfig(lam=10.0, T=0.2, dt=0.05, nu=0.0)
        ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=2.0, frequency=1.0))
        with pytest.raises(StabilityError, match=r"not monotone: dt max\|lam Du - v\| / dx = 2\.3"):
            hjb_backward(cfg, ham, exp_kernel, frozen_path(cfg, gauss_m0))

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_non_finite_sweep_raises_naming_the_step(self, zero_ham, exp_kernel):
        # densities of 1e308 make k*m overflow to inf, so the first backward step (j = 9) blows up
        cfg = PdeConfig(lam=10.0, T=0.01)
        huge = np.full((cfg.n_steps + 1, cfg.n_x), 1e308)
        with pytest.raises(StabilityError, match=r"non-finite values at step 9; advective CFL requires dt <="):
            hjb_backward(cfg, zero_ham, exp_kernel, huge)


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

    def test_diverging_cell_outflow_raises(self, zero_ham, gauss_m0):
        # a tent u makes b = -lam Du = -c left of cell 100 and +c right of it: max|b| dt/dx = 0.9,
        # yet that cell loses 1.8 of its mass per step and an explicit step would leave it negative
        cfg = PdeConfig(lam=10.0, nu=0.0)
        c = 0.9 * cfg.dx / cfg.dt
        u = np.zeros((cfg.n_steps + 1, cfg.n_x))
        u[:, 100] = c * cfg.dx / cfg.lam
        with pytest.raises(CflError, match="outflow"):
            fp_forward(cfg, zero_ham, u, gauss_m0)

    def test_cfl_checked_before_the_first_step(self, monkeypatch, zero_ham, gauss_m0):
        # only the last step's drift violates the CFL; no transport step may run before it is caught
        cfg = PdeConfig(lam=10.0, dt=0.05, nu=0.0)
        u = np.zeros((cfg.n_steps + 1, cfg.n_x))
        u[-2] = -10.0 * cfg.cell_centers / cfg.lam
        steps = []
        step = mfg_pde.transport_step
        monkeypatch.setattr(mfg_pde, "transport_step", lambda *args: steps.append(1) or step(*args))
        with pytest.raises(CflError, match="CFL"):
            fp_forward(cfg, zero_ham, u, gauss_m0)
        assert steps == []

    def test_nan_drift_raises_before_the_first_step(self, monkeypatch, zero_ham, gauss_m0):
        cfg = PdeConfig(lam=10.0, T=0.1)
        u = np.zeros((cfg.n_steps + 1, cfg.n_x))
        u[50, 100] = np.nan
        steps = []
        step = mfg_pde.transport_step
        monkeypatch.setattr(mfg_pde, "transport_step", lambda *args: steps.append(1) or step(*args))
        with pytest.raises(CflError, match=r"dt/dx = nan, not <= 1"):
            fp_forward(cfg, zero_ham, u, gauss_m0)
        assert steps == []

    def test_mass_correction_logged(self, zero_ham, gauss_m0, exp_kernel):
        cfg = PdeConfig(lam=20.0, T=0.2)
        u = hjb_backward(cfg, zero_ham, exp_kernel, frozen_path(cfg, gauss_m0))
        log = []
        m = fp_forward(cfg, zero_ham, u, gauss_m0, log)
        assert np.array_equal(m, fp_forward(cfg, zero_ham, u, gauss_m0))
        assert len(log) == 1 and 0.0 <= log[0] <= 1e-13


class TestDiffusionSolver:
    @pytest.mark.parametrize("ratio", [1e-4, 0.01, 0.2, 1.0, 10.0])
    def test_matches_sparse_lu(self, rng, ratio):
        # ratio = dt nu / dx^2, the weight of the Laplacian against the identity (about 0.2 in
        # the default sweep); the condition number is about 1 + 4 ratio
        n, dx, dt = 256, 12.0 / 256, 1e-3
        nu = ratio * dx**2 / dt
        rhs = rng.random(n)
        expected = SparseLuDiffusion(n, dx, dt, nu)(rhs.copy())
        got = rhs.copy()
        assert mfg_pde._DiffusionSolver(n, dx, dt, nu)(got) is got
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        assert got.sum() == pytest.approx(rhs.sum(), rel=1e-14)  # zero row sums: mass kept
        strided = np.repeat(rhs, 2)[::2]  # not contiguous: LAPACK solves a copy
        assert mfg_pde._DiffusionSolver(n, dx, dt, nu)(strided) is strided
        assert np.array_equal(strided, got)

    def test_zero_viscosity_is_the_identity(self, rng):
        rhs = rng.random(64)
        kept = rhs.copy()
        assert mfg_pde._DiffusionSolver(64, 0.1, 1e-3, 0.0)(rhs) is rhs
        assert np.array_equal(rhs, kept)

    @pytest.mark.parametrize("lam", [5.0, 80.0])
    def test_fixed_point_matches_sparse_lu(self, monkeypatch, zero_ham, exp_kernel, lam):
        cfg = PdeConfig(lam=lam, half_width=8.0, n_x=64, dt=4e-3)
        m0 = GridDensity.gaussian(0.1, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        monkeypatch.setattr(mfg_pde, "_DiffusionSolver", SparseLuDiffusion)
        oracle = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        assert sol.iterations == oracle.iterations and sol.converged and oracle.converged
        np.testing.assert_allclose(sol.u_path, oracle.u_path, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sol.m_path, oracle.m_path, rtol=0.0, atol=1e-12)


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
        assert sol.iterations == 5
        assert sol.fallbacks == 0
        np.testing.assert_allclose(sol.residual_history, GOLDEN_HISTORY, rtol=0.0, atol=1e-12)
        m_path = sol.m_path
        assert sol.u_path.shape == m_path.shape == (cfg.n_steps + 1, cfg.n_x)
        assert not m_path.flags.writeable
        np.testing.assert_allclose(sol.u_path[::50, 3::8], GOLDEN_U, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(m_path[::50, 3::8], GOLDEN_M, rtol=0.0, atol=1e-10)
        assert sol.u_path.sum() == pytest.approx(125.68014910564075, rel=0.0, abs=1e-10)
        assert (m_path * cfg.cell_centers).sum() == pytest.approx(407.44244116877684, rel=0.0, abs=1e-10)
        # both loops stop within the solve tolerance 1e-6 of the same fixed point
        np.testing.assert_allclose(sol.u_path[::50, 3::8], PICARD_U, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(m_path[::50, 3::8], PICARD_M, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("lam", [5.0, 20.0, 80.0])
    def test_anderson_matches_damped_picard_every_node(self, zero_ham, exp_kernel, lam):
        cfg = PdeConfig(lam=lam, half_width=8.0, n_x=64, dt=4e-3)
        m0 = GridDensity.gaussian(0.1, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        picard, picard_iterations = damped_picard(cfg, zero_ham, exp_kernel, m0)
        assert sol.converged and sol.fallbacks == 0
        assert sol.iterations < picard_iterations
        # each path is within about the solve tolerance 1e-6 of the fixed point, at every node
        assert np.max(w1_nodes(sol.m_path, picard, cfg.dx)) < 1e-6

    def test_mass_correction_reported(self, zero_ham, exp_kernel):
        cfg = PdeConfig(lam=20.0, n_x=64, dt=4e-3)
        m0 = GridDensity.gaussian(0.1, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        forward, logs = mfg_pde.fp_forward, []

        def spy(*args):
            logs.append(args[4])
            return forward(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mfg_pde, "fp_forward", spy)
            sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        # one shared log, one entry per FP sweep: the warm start and each iteration
        assert all(log is logs[0] for log in logs) and len(logs[0]) == sol.iterations + 1
        assert sol.fp_mass_correction == max(logs[0])
        assert 0.0 < sol.fp_mass_correction < 1e-13

    def test_m0_off_the_config_grid_rejected(self, zero_ham, exp_kernel, gauss_m0):
        cfg = PdeConfig(lam=10.0, T=0.1)
        shifted = GridDensity(gauss_m0.origin + 0.5 * gauss_m0.dx, gauss_m0.dx, gauss_m0.values)
        coarse = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, 2 * cfg.dx, cfg.n_x // 2)
        for m0 in (shifted, coarse):
            with pytest.raises(GridError, match="initial density is not on the config's grid"):
                fp_forward(cfg, zero_ham, np.zeros((cfg.n_steps + 1, cfg.n_x)), m0)
            with pytest.raises(GridError, match="initial density is not on the config's grid"):
                solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)

    def test_residual_reads_every_node(self, gauss_m0):
        cfg = PdeConfig(lam=10.0)
        base = np.tile(gauss_m0.values, (cfg.n_steps + 1, 1))
        other = base.copy()
        other[1] = np.roll(base[1], 3)  # node 1 moved by three cells, every other node equal
        nodes = np.unique(np.linspace(0, cfg.n_steps, 9).astype(int))  # the former 9-node sample
        cdf_gap = np.cumsum(base[nodes], axis=1) * cfg.dx - np.cumsum(other[nodes], axis=1) * cfg.dx
        assert np.max(cfg.dx * np.sum(np.abs(cdf_gap), axis=1)) == 0.0
        assert _w1_sup(base - other, cfg.dx) == pytest.approx(3 * cfg.dx, rel=1e-9)

    def test_safeguard_step_counted(self, monkeypatch, zero_ham, exp_kernel):
        cfg = PdeConfig(lam=20.0, n_x=64, dt=4e-3)
        m0 = GridDensity.gaussian(0.1, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        forward, calls = mfg_pde.fp_forward, []

        def perturbed(*args):
            # call 1 is the warm start; the FP output of loop iteration 2 is shifted by 5 cells
            calls.append(1)
            m = forward(*args)
            return np.roll(m, 5, axis=1) if len(calls) == 3 else m

        monkeypatch.setattr(mfg_pde, "fp_forward", perturbed)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        history = np.array(sol.residual_history)
        assert np.count_nonzero(np.diff(history) > 0) == 1
        assert sol.fallbacks == 1
        assert sol.converged
        _check_densities(sol.m_path, cfg.dx)



def interface_drifts(*pairs, n=7):
    b = np.zeros(n)
    for i, value in pairs:
        b[i] = value
    return b


@pytest.mark.parametrize(
    "b, stable",
    [
        (np.ones(6), True),  # translation: one outflow interface per cell, dt/dx = 1 is allowed
        (-np.ones(6), True),
        (interface_drifts((2, -0.5), (3, 0.5)), True),  # cell 3 loses 0.5 through each side
        (interface_drifts((2, -0.55), (3, 0.55)), False),  # no drift above 0.55, yet 1.1 out of cell 3
        (interface_drifts((2, 1.0), (3, -1.0)), True),  # cell 3 converges; cells 2 and 4 lose 1 each
        (interface_drifts((0, 1.01)), False),  # the wall cells have one interface each
        (interface_drifts((6, -1.01)), False),
    ],
)
def test_cfl_bounds_each_cells_outflow(b, stable):
    """The rule: dt/dx (max(b_right, 0) + max(-b_left, 0)) <= 1 in every cell; here dt/dx = 1."""
    stack = np.zeros((70, len(b)))
    stack[-1] = b  # the second 64-row block
    for drifts in (b, stack):
        if stable:
            _check_cfl(drifts, 0.1, 0.1)
        else:
            with pytest.raises(CflError, match="outflow"):
                _check_cfl(drifts, 0.1, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cfl_rejects_a_non_finite_drift(bad):
    with pytest.raises(CflError):
        _check_cfl(np.array([[0.1, bad, 0.2]]), 1e-3, 0.05)
    stack = np.zeros((70, 3))
    stack[66, 1] = bad  # in the second 64-row block, after a block whose worst outflow is 0
    with pytest.raises(CflError):
        _check_cfl(stack, 1e-3, 0.05)
