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
    fp_forward,
    hjb_backward,
    solve_aggregation_fv,
    solve_mfg_fixed_point,
)
from mfglab import kernels, mfg_pde
from mfglab.errors import BoundaryLeakError, StabilityError
from mfglab.kernels import CrowdRadialKernel
from mfglab.measures import _check_densities, _exp_trapezoid_weights, moment2, wasserstein1_1d
from mfglab.mfg_pde import _check_cfl, _w1_sup, coupling_on_grid


def constant_kernel(c):
    """k identically c, so F(x, m) = c for every probability measure m."""
    knots = np.array([0.0, 5.0, 10.0, 100.0])
    return CrowdRadialKernel(knots, np.full(4, c))


class LinearGrowthKernel:
    """k(x) = |x|: the coupling F = k*m grows linearly at infinity.  Like the
    radial kernels it acts elementwise on 1D offsets of any shape."""

    def value(self, x):
        return np.abs(np.asarray(x, dtype=float))

    def gradient(self, x):
        return np.sign(np.asarray(x, dtype=float))


def frozen_path(cfg, m0):
    return np.tile(m0.values, (cfg.n_steps + 1, 1))


def w1_nodes(a, b, dx):
    """W1 distance between two (n_nodes, n_x) density stacks, one value per time node."""
    return dx * np.sum(np.abs(np.cumsum(a, axis=1) - np.cumsum(b, axis=1)), axis=1) * dx


def damped_picard(cfg, ham, kernel, m0):
    """Oracle: the damped Picard loop that Anderson mixing replaced, stopping on every node."""
    m = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, frozen_path(cfg, m0)), m0)
    for it in range(1, mfg_pde.MAX_FIXED_POINT_EVALUATIONS + 1):
        m_plus = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, m), m0)
        if np.max(w1_nodes(m, m_plus, cfg.dx)) <= mfg_pde.FIXED_POINT_TOLERANCE:
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
            # the FV solver's own product: its interface matrix against the cell values
            fv = kernels._grid_matrix(kernel, x_int, m.cell_centers, m.dx, gradient=grad) @ row
            np.testing.assert_allclose(fv, exp_row, rtol=0.0, atol=1e-12)


# Golden fixed point: lam=20, n_x=64, dt=4e-3, sinusoidal drift, exponential
# kernel, m0 = N(0.25, 0.5^2).  Recorded with the Anderson-accelerated loop,
# its every-node residual and the product-trapezoid source of the HJB step.
GOLDEN_HISTORY = [
    0.1296365238086909, 0.019792696196104683, 0.00028640847821032847,
    2.683438109958038e-05, 3.659565206017826e-07,
]
# u_path[::50, 3::8] and m_path[::50, 3::8]
GOLDEN_U = [
    [0.00022315431233453677, 0.000993245900813706, 0.004296312393684276, 0.018580954971771,
     0.03055738429597246, 0.008597652972708267, 0.001989798353031496, 0.00045030654009724756],
    [0.0002447267325123972, 0.0010891846365973642, 0.00470764105125993, 0.01891215860920583,
     0.028387853993827785, 0.009760188230941389, 0.002276819628554586, 0.0005153360356182166],
    [0.0002723490291989212, 0.001212032220016276, 0.005221395754968381, 0.018764284217132866,
     0.026328844185817005, 0.010965311170297932, 0.002622351793290332, 0.0005936576928748825],
    [0.0003060745628952264, 0.001362071307145519, 0.005809944061212073, 0.01831758389905635,
     0.02446640487565253, 0.012060778622609567, 0.0030222745601684474, 0.0006844218321641156],
    [0.0003380602092082385, 0.0015056682147862196, 0.006314334099033726, 0.017426944179912855,
     0.022438693977873955, 0.012744572915268947, 0.003395952788837874, 0.0007685074672457909],
    [0.0] * 8,
]
GOLDEN_M = [
    [5.293677194341061e-28, 2.215342274440398e-15, 1.1441260612871128e-06, 0.07292166635238427,
     0.5735733351328288, 0.0005567637931967242, 6.669644400845562e-11, 9.860161701477889e-22],
    [1.0511017386831986e-17, 3.43868340951505e-10, 0.00022259026872278672, 0.16230517687337356,
     0.49342565670298716, 0.010827598263971557, 1.7868203746748242e-07, 2.354770502433623e-14],
    [3.6589918545207136e-14, 6.48887814456767e-08, 0.0023824897775664654, 0.20419734881641355,
     0.4178656696967776, 0.04042919474865294, 8.940964072278314e-06, 1.6436390389725076e-11],
    [6.384063734792137e-12, 1.6679841529410198e-06, 0.009222017000208908, 0.2157236252923863,
     0.3593215740708695, 0.08007198937658139, 0.00010277378336389398, 1.1302807253735301e-09],
    [2.4497420317195845e-10, 1.5567070792909192e-05, 0.021474338468015983, 0.21295398646681948,
     0.3138448619873628, 0.11751774798401012, 0.0005402950070186962, 2.2804138612158656e-08],
    [3.75516830646233e-09, 7.848521908352898e-05, 0.03687345596399525, 0.20407259203537007,
     0.27915476602712486, 0.14635910233841276, 0.0017376795293900646, 2.1446399660707544e-07],
]
# The same samples as the damped Picard loop (15 iterations, 9-node residual) recorded them.
PICARD_U = [
    [0.00022315431561385453, 0.0009932459152516547, 0.004296312453424916, 0.018580955094421373,
     0.030557383940633974, 0.00859765316166162, 0.001989798399246752, 0.0004503065507523773],
    [0.0002447267512256059, 0.001089184719746628, 0.004707641407568243, 0.018912158659874997,
     0.02838785215084886, 0.009760189287807815, 0.0022768198853106757, 0.0005153360938757983],
    [0.000272349058830006, 0.0012120323517668978, 0.005221396309269176, 0.018764283608338737,
     0.026328842520454095, 0.010965312387536048, 0.0026223521601789392, 0.0005936577760068973],
    [0.00030607460155270976, 0.0013620714790201758, 0.005809944723166427, 0.018317583878155595,
     0.024466402853175934, 0.012060779416083854, 0.0030222749403911375, 0.000684421918471503],
    [0.00033806025661383467, 0.0015056684256822147, 0.0063143348116440935, 0.017426944951822124,
     0.022438691121924162, 0.012744573627340036, 0.003395953114415308, 0.000768507541836421],
    [0.0] * 8,
]
PICARD_M = [
    [5.293677194341061e-28, 2.215342274440398e-15, 1.1441260612871128e-06, 0.07292166635238427,
     0.5735733351328288, 0.0005567637931967242, 6.669644400845562e-11, 9.860161701477889e-22],
    [1.0511017425556376e-17, 3.438683441747103e-10, 0.00022259027094557126, 0.16230517062911587,
     0.4934256625321422, 0.010827598249293576, 1.786820408267452e-07, 2.3547705161949974e-14],
    [3.6589919021112847e-14, 6.48887828735958e-08, 0.002382489767378407, 0.20419734169880524,
     0.4178656788882638, 0.040429192577446676, 8.940964415045832e-06, 1.6436390766844033e-11],
    [6.384063875503487e-12, 1.6679841937321368e-06, 0.009222016606918643, 0.21572362026717726,
     0.35932158536688813, 0.08007198328186747, 0.0001027737864108624, 1.130280767981148e-09],
    [2.449742095343235e-10, 1.556707100676452e-05, 0.0214743370879154, 0.21295397708394737,
     0.31384488068054867, 0.11751774137977372, 0.0005402950060714864, 2.2804139514923285e-08],
    [3.755168391821342e-09, 7.848521871085625e-05, 0.036873453827846146, 0.2040725817575289,
     0.27915478819764006, 0.1463590938015432, 0.0017376794738536696, 2.1446400243131308e-07],
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
            PdeConfig(lam=1.0, T=-1.0)

    @pytest.mark.parametrize("name", ["lam", "T", "dt", "half_width", "nu"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PdeConfig(**{"lam": 1.0, name: bad})


def old_hjb_sweep(cfg, ham, kernel, m_path):
    """The backward sweep of hjb_backward as it was before its step took max(p_minus, -p_plus, 0)
    and squared it once, and before it skipped a zero drift: two squares, their max, and the
    upwinded drift terms added at every step.  The oracle of its bit-identity.  Its source takes the
    product-trapezoid weights of one step, as hjb_backward does, in a stack of its own."""
    lam, dt, dx = cfg.lam, cfg.dt, cfg.dx
    v = ham.drift(cfg.cell_centers)
    diffuse = mfg_pde._DiffusionSolver(cfg.n_x, dx, dt, cfg.viscosity)
    decay = np.exp(-lam * dt)
    source_gain = (1.0 - decay) / lam
    F_nodes = coupling_on_grid(kernel, m_path, cfg.cell_centers)
    w_start, w_end = _exp_trapezoid_weights(np.array([0.0, dt]), lam)
    source = w_end * F_nodes[1:] + w_start * F_nodes[:-1]
    a_plus, a_minus = np.maximum(-v, 0.0), np.minimum(-v, 0.0)
    u = np.zeros((cfg.n_steps + 1, cfg.n_x))
    grad = np.zeros(cfg.n_x + 1)
    p_minus, p_plus, inner = grad[:-1], grad[1:], grad[1:-1]
    ham_term, drift_term, work = np.empty(cfg.n_x), np.empty(cfg.n_x), np.empty(cfg.n_x)
    for j in range(cfg.n_steps - 1, -1, -1):
        un = u[j + 1]
        np.divide(np.subtract(un[1:], un[:-1], out=inner), dx, out=inner)
        np.square(np.maximum(p_minus, 0.0, out=ham_term), out=ham_term)
        np.maximum(ham_term, np.square(np.minimum(p_plus, 0.0, out=work), out=work), out=ham_term)
        ham_term *= 0.5 * lam
        np.multiply(a_plus, p_minus, out=drift_term)
        drift_term += np.multiply(a_minus, p_plus, out=work)
        ham_term += drift_term
        rhs = source[j] - source_gain * ham_term
        u_new = np.multiply(un, decay, out=u[j])
        u_new += rhs
        diffuse(u_new)
    return u


class TestHjbBackward:
    @pytest.mark.parametrize(
        "drift",
        [DriftField("zero"), DriftField("constant", 0.3), DriftField("sinusoidal", 0.5, 2.0)],
        ids=["zero", "constant", "sinusoidal"],
    )
    @pytest.mark.parametrize("kernel", [ExponentialKernel(1.0, 1.0), MorseKernel(0.5, 2.0)], ids=["exp", "morse"])
    def test_step_bit_identical_to_old_sweep(self, drift, kernel):
        """One square of max(p_minus, -p_plus, 0) instead of the max of two squares, and no drift
        terms under a zero drift, leave every value of u as it was, bit for bit, on a density
        moving across the grid (u has slopes of both signs, so both Godunov branches act)."""
        cfg = PdeConfig(lam=10.0, T=0.5, n_x=128, dt=2e-3)
        centres = np.linspace(-1.0, 1.0, cfg.n_steps + 1)
        m_path = np.stack([GridDensity.gaussian(c, 0.5, -6.0, cfg.dx, cfg.n_x).values for c in centres])
        ham = QuadraticDriftHamiltonian(drift)
        u = hjb_backward(cfg, ham, kernel, m_path)
        assert np.any(np.diff(u, axis=1) > 0) and np.any(np.diff(u, axis=1) < 0)
        assert np.array_equal(u, old_hjb_sweep(cfg, ham, kernel, m_path))

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


def old_transport_step(m, b, dt, dx, diffuse):
    """The transport step as it was before it took the drift's two signs from its caller: it split
    b into max(b, 0) and min(b, 0) at every step.  The oracle of its bit-identity."""
    flux = np.maximum(b, 0.0) * m[:-1]
    flux += np.minimum(b, 0.0) * m[1:]
    flux *= dt / dx
    out = m.copy()
    out[:-1] -= flux
    out[1:] += flux
    return np.maximum(diffuse(out), 0.0)


def old_fp_forward(cfg, ham, u_path, m0):
    """fp_forward with the per-step split of old_transport_step, one drift row at a time."""
    lam, dt, dx = cfg.lam, cfg.dt, cfg.dx
    v_int = ham.drift(cfg.cell_centers[:-1] + 0.5 * dx)
    diffuse = mfg_pde._DiffusionSolver(cfg.n_x, dx, dt, cfg.viscosity)
    m = np.empty((cfg.n_steps + 1, cfg.n_x))
    m[0] = m0.values
    for j in range(cfg.n_steps):
        b = v_int - (u_path[j, 1:] - u_path[j, :-1]) / dx * lam
        step = old_transport_step(m[j], b, dt, dx, diffuse)
        m[j + 1] = step / (step.sum() * dx)
    return m


def old_fv_path(ham, kernel, m0, n_steps, dt):
    """The FV limit solve's nodes with the per-step split of old_transport_step."""
    x_int = m0.cell_edges[1:-1]
    v_int = ham.drift(x_int)
    Dk = kernels._grid_matrix(kernel, x_int, m0.cell_centers, m0.dx, gradient=True)
    identity = mfg_pde._DiffusionSolver(m0.n, m0.dx, dt, 0.0)
    m = [m0.values]
    for _ in range(n_steps):
        step = old_transport_step(m[-1], v_int - Dk @ m[-1], dt, m0.dx, identity)
        m.append(step / (step.sum() * m0.dx))
    return np.array(m)


class TestFpForward:
    def test_block_split_bit_identical_to_per_step_split(self):
        """150 steps, two full 64-step blocks and a partial one, under a drift of both signs, a
        nonzero v and nu > 0: every node equals the per-step split's, bit for bit."""
        cfg = PdeConfig(lam=10.0, T=0.3, n_x=128, dt=2e-3)
        assert cfg.n_steps == 150 and cfg.viscosity > 0
        ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
        centres = np.linspace(-1.0, 1.0, cfg.n_steps + 1)
        m_path = np.stack([GridDensity.gaussian(c, 0.5, -6.0, cfg.dx, cfg.n_x).values for c in centres])
        u = hjb_backward(cfg, ham, ExponentialKernel(1.0, 1.0), m_path)
        b = ham.drift(cfg.cell_centers[:-1] + 0.5 * cfg.dx) - cfg.lam * np.diff(u[:-1], axis=1) / cfg.dx
        assert np.any(b > 0) and np.any(b < 0)
        m0 = GridDensity.gaussian(0.2, 0.5, -6.0, cfg.dx, cfg.n_x)
        assert np.array_equal(fp_forward(cfg, ham, u, m0), old_fp_forward(cfg, ham, u, m0))

    def test_fv_bit_identical_to_per_step_split(self, exp_kernel):
        """The FV limit solve splits its own drift at each step, which its k*m refreshes."""
        dx, dt = 12.0 / 128, 2e-3
        ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
        m0 = GridDensity.gaussian(0.2, 0.5, -6.0, dx, 128)
        path = solve_aggregation_fv(ham, exp_kernel, m0, 150 * dt, dt, nodes=range(151))
        assert np.array_equal(np.array([m.values for m in path.measures]), old_fv_path(ham, exp_kernel, m0, 150, dt))

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

    def test_non_convergence_flagged_not_raised(self, zero_ham, exp_kernel, monkeypatch):
        monkeypatch.setattr(mfg_pde, "MAX_FIXED_POINT_EVALUATIONS", 2)
        monkeypatch.setattr(mfg_pde, "FIXED_POINT_TOLERANCE", 1e-14)
        cfg = PdeConfig(lam=20.0, n_x=128, dt=2e-3)
        m0 = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        assert not sol.converged
        assert sol.iterations <= 2
        assert np.isfinite(sol.residual)

    def test_stops_at_a_residual_equal_to_the_tolerance(self, zero_ham, exp_kernel, monkeypatch):
        """The stop rule is residual <= FIXED_POINT_TOLERANCE, the acceleration side's rule: a tolerance
        equal to the third residual stops the solve there, converged, on the same residuals."""
        cfg = PdeConfig(lam=20.0, n_x=64, dt=4e-3)
        m0 = GridDensity.gaussian(0.1, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        history = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0).residual_history
        monkeypatch.setattr(mfg_pde, "FIXED_POINT_TOLERANCE", history[2])
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0)
        assert sol.converged and sol.iterations == 3 and sol.residual_history == history[:3]

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
        assert sol.u_path.sum() == pytest.approx(125.67908769899638, rel=0.0, abs=1e-10)
        assert (m_path * cfg.cell_centers).sum() == pytest.approx(407.48118972106494, rel=0.0, abs=1e-10)
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

    @pytest.mark.parametrize("start", [False, True])
    def test_a_raised_solve_states_what_it_spent(self, zero_ham, exp_kernel, start):
        """On [-1, 1] the density reaches the walls: the first FP march raises BoundaryLeakError after its
        n_steps steps, and the error states that sweep and those steps; from a given start stack the first
        evaluation's sweep is the one that raises."""
        cfg = PdeConfig(lam=5.0, half_width=1.0, n_x=32, dt=1e-2)
        m0 = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        with pytest.raises(BoundaryLeakError) as raised:
            solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, m0, frozen_path(cfg, m0) if start else None)
        assert raised.value.spent == (1, cfg.n_steps)

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


def cfl_verdict(b):
    """None if _check_cfl passes b at dt/dx = 1, else the CflError message."""
    try:
        _check_cfl(b, 0.1, 0.1)
    except CflError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "row",
    [
        interface_drifts((2, -0.5), (3, 0.5)),
        interface_drifts((2, -0.55), (3, 0.55)),
        interface_drifts((0, 1.01)),
        interface_drifts((6, -1.01)),  # the last (wall) cell's outflow is the worst
        interface_drifts((6, -1.0)),  # on the bound
        interface_drifts((0, -2.0)),  # the first cell only gains
        np.array([-1.5]),  # two cells, one interface
        np.array([0.75]),
        *(interface_drifts((i, bad)) for i in (0, 3, 6) for bad in (np.nan, np.inf, -np.inf)),
        *np.random.default_rng(65).uniform(-1.0, 1.0, (8, 255)) * np.linspace(0.45, 0.65, 8)[:, None],
    ],
)
def test_cfl_row_and_stack_verdicts_agree(row):
    """One row takes its own pass and a stack its 64-row blocks: the two give the same verdict on
    the row, with the same message, NaN drifts and wall cells included."""
    stack = np.zeros((70, len(row)))
    stack[-1] = row
    assert cfl_verdict(row) == cfl_verdict(row[None]) == cfl_verdict(stack)
