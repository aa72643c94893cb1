from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from mfglab import (
    CrowdRadialKernel,
    CuckerSmaleKernel,
    ExponentialKernel,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    psd_check,
    solve_aggregation_fv,
    validate_coupling,
)
from mfglab import kernels
from mfglab.kernels import _dense_pair_sum, _exp_phi, _exp_transform_inf
from test_measures import uniform_density

ALL_RADIAL = [
    ExponentialKernel(1.0, 1.0),
    ExponentialKernel(-1.0, 2.0),
    RepulsiveAttractiveKernel(1.0),
    MorseKernel(0.5, 2.0),
    CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0])),
    ZeroKernel(),
]


class TestEvalKernel:
    def test_exponential_at_origin(self):
        assert ExponentialKernel(1.0, 1.0).value(0.0) == pytest.approx(1.0)

    def test_morse_at_origin(self):
        assert MorseKernel(0.5, 2.0).value(0.0) == pytest.approx(0.5)

    def test_cucker_smale_flat(self):
        """k(x, v) = v^2 / g(x) elementwise on the line; g == 1 at beta = 0."""
        k = CuckerSmaleKernel(1.0, 0.0)
        assert np.array_equal(k.value(np.array([3.7, -1.0]), np.array([2.0, 0.0])), [4.0, 0.0])

    @pytest.mark.parametrize("kernel", ALL_RADIAL, ids=lambda k: type(k).__name__)
    def test_evenness(self, kernel, rng):
        x = rng.standard_normal(20)
        assert np.array_equal(kernel.value(x), kernel.value(-x))

    @pytest.mark.parametrize("kernel", ALL_RADIAL, ids=lambda k: type(k).__name__)
    def test_elementwise_on_the_line(self, kernel, rng):
        """value and gradient act on each 1D offset alone: any shape in, the same shape out,
        the same bits whatever the shape, and Dk(0) = 0."""
        x = np.append(rng.uniform(-5.0, 5.0, 9999), 0.0)
        for f in (kernel.value, kernel.gradient):
            flat = f(x)
            assert flat.shape == x.shape
            assert np.array_equal(f(x[:, None]), flat[:, None])
            assert np.array_equal(f(x.reshape(100, 100)), flat.reshape(100, 100))
        assert kernel.gradient(0.0) == 0.0

    @pytest.mark.parametrize(
        "kernel",
        [ExponentialKernel(1.0, 1.0), ExponentialKernel(-1.0, 2.0), ExponentialKernel(1.5, 0.8),
         MorseKernel(0.5, 2.0), MorseKernel(0.3, 2.0), ZeroKernel()],
        ids=repr,
    )
    def test_exp_sum_profiles_match_closed_forms(self, kernel):
        """phi and phi' taken from the exponential terms alone are the closed forms bit for bit:
        alpha e^{-a r} and -a alpha e^{-a r}; at L = 2, where 1/L is exact, e^{-r} - G e^{-r/L}
        and -e^{-r} + (G/L) e^{-r/L}; and +0.0 for the zero kernel's empty sum."""
        r = np.linspace(0.0, 30.0, 100_001)
        if isinstance(kernel, ExponentialKernel):
            alpha, a = kernel.alpha, kernel.a
            phi, dphi = alpha * np.exp(-a * r), -a * alpha * np.exp(-a * r)
        elif isinstance(kernel, MorseKernel):
            G, L = kernel.G, kernel.L
            phi, dphi = np.exp(-r) - G * np.exp(-r / L), -np.exp(-r) + (G / L) * np.exp(-r / L)
        else:
            phi = dphi = np.zeros_like(r)
        assert kernel.phi(r).tobytes() == phi.tobytes()
        assert kernel.dphi(r).tobytes() == dphi.tobytes()

    def test_cs_evenness_joint(self, rng):
        k = CuckerSmaleKernel(2.0, 0.7)
        x, v = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        assert np.allclose(k.value(x, v), k.value(-x, -v), rtol=0, atol=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialKernel(1.0, 0.0)
        with pytest.raises(ValueError):
            MorseKernel(1.5, 2.0)
        with pytest.raises(ValueError):
            MorseKernel(0.5, 1.0)
        with pytest.raises(ValueError):
            CuckerSmaleKernel(0.0, 1.0)


def coupling(kernel, x, m, gradient=False):
    """F(x, m) = (k * m)(x), or D_xF, of a radial kernel at one point x against the atoms of m, by the dense body."""
    return _dense_pair_sum(kernel, np.array([x], dtype=float), m.positions[:, 0], m.weights, gradient).item()


def cs_coupling(kernel, x, v, m):
    """F(x, v, m) = sum_j w_j k(x - x_j, v - v_j) of the Cucker-Smale kernel at one state, pointwise."""
    return float(np.sum(m.weights * kernel.value(x - m.points[:, 0], v - m.points[:, 1])))


class TestEvalCoupling:
    def test_single_atom_is_kernel(self, exp_kernel, rng):
        y = 0.7
        m = ParticleEnsemble.equal_weights(np.array([[y]]), 1)
        for x in rng.standard_normal(5):
            assert coupling(exp_kernel, x, m) == pytest.approx(float(exp_kernel.value(x - y)))

    def test_exponential_dirac_at_origin(self):
        m = ParticleEnsemble.equal_weights(np.array([[0.0]]), 1)
        assert coupling(ExponentialKernel(2.0, 1.0), 0.0, m) == pytest.approx(2.0)

    def test_cucker_smale_two_atoms(self, cs_flat):
        """Opposite unit velocities at one point, g = 1: F = 2 at each atom, so the flock's pair
        energy sum_pq w_p w_q k is 2 too."""
        x, v = np.zeros((2, 1)), np.array([[1.0], [-1.0]])
        assert kernels._cs_pair_energy(cs_flat, x, v, np.full(2, 0.5)) == pytest.approx([2.0])

    def test_grid_quadrature_matches_particles(self, exp_kernel):
        m_grid = uniform_density(-1.0, 1.0, -2.0, 0.001, 4000)
        n = 4000
        atoms = np.linspace(-1.0 + 1.0 / n, 1.0 - 1.0 / n, n)[:, None]
        m_part = ParticleEnsemble.equal_weights(atoms, 1)
        fg = kernels._grid_sum(exp_kernel, np.array([0.3]), m_grid).item()
        fp = coupling(exp_kernel, 0.3, m_part)
        assert fg == pytest.approx(fp, abs=1e-5)

    def test_linearity_in_m(self, exp_kernel, rng):
        pts = rng.standard_normal((6, 1))
        w1 = rng.uniform(0.1, 1.0, 6)
        w1 /= w1.sum()
        w2 = rng.uniform(0.1, 1.0, 6)
        w2 /= w2.sum()
        theta = 0.3
        f1 = coupling(exp_kernel, 0.5, ParticleEnsemble(pts, w1, 1))
        f2 = coupling(exp_kernel, 0.5, ParticleEnsemble(pts, w2, 1))
        fmix = coupling(exp_kernel, 0.5, ParticleEnsemble(pts, theta * w1 + (1 - theta) * w2, 1))
        assert fmix == pytest.approx(theta * f1 + (1 - theta) * f2, abs=1e-12)

    def test_cs_growth_bound(self, rng):
        from mfglab.measures import moment2

        k = CuckerSmaleKernel(1.5, 0.8)
        pts = rng.standard_normal((10, 2))
        m = ParticleEnsemble.equal_weights(pts, 1)
        for _ in range(20):
            x, v = rng.standard_normal(), rng.standard_normal()
            F = cs_coupling(k, x, v, m)
            assert 0.0 <= F <= k.c0 * (1.0 + v**2 + moment2(m, "velocity"))


class TestGradCoupling:
    def test_self_query_is_zero(self, rng):
        """A lone atom feels no force from itself, on the self body its kernel chooses (Dk(0) = 0)."""
        for kernel in ALL_RADIAL:
            x = float(rng.standard_normal())
            assert kernels._self_pair_sum(kernel, np.ones(1), gradient=True)(np.array([x])).item() == 0.0

    def test_cs_dvf_two_atoms(self, cs_flat):
        """D_vF at the atom (0, 1) of the flock (0, 1), (0, -1): w 2 (1 - (-1)) / g = 2, from the pair pass."""
        _, _, dvf = kernels._cs_pair_pass(cs_flat, np.zeros(2), np.array([1.0, -1.0]), np.full(2, 0.5))
        assert dvf[0] == pytest.approx(2.0)

    def test_exponential_dirac_derivative(self):
        m = ParticleEnsemble.equal_weights(np.array([[0.0]]), 1)
        g = coupling(ExponentialKernel(1.0, 1.0), 1.0, m, gradient=True)
        assert g == pytest.approx(-np.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("kernel", ALL_RADIAL, ids=lambda k: type(k).__name__)
    def test_matches_finite_differences(self, kernel, rng):
        pts = rng.standard_normal((5, 1))
        m = ParticleEnsemble.equal_weights(pts, 1)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-3, 3)
            if np.min(np.abs(x - pts)) < 10 * h:  # stay away from kinks
                continue
            g = coupling(kernel, x, m, gradient=True)
            fd = (coupling(kernel, x + h, m) - coupling(kernel, x - h, m)) / (2 * h)
            assert g == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))

    def test_cs_weighted_dvf_sums_to_zero(self, rng):
        k = CuckerSmaleKernel(1.0, 0.6)
        pts = rng.standard_normal((8, 2))
        w = rng.uniform(0.1, 1.0, 8)
        w /= w.sum()
        _, _, dvf = kernels._cs_pair_pass(k, pts[:, 0], pts[:, 1], w)
        assert abs(float(w @ dvf)) < 1e-12

    def test_cs_gradient_bounds(self, rng):
        """|D_xF| <= c0 F and |D_vF| <= c0 sqrt(F) at every atom of a flock, the gradients from its pair pass."""
        k = CuckerSmaleKernel(1.2, 0.9)
        m = ParticleEnsemble.equal_weights(rng.standard_normal((20, 2)), 1)
        _, gx, gv = kernels._cs_pair_pass(k, m.points[:, 0], m.points[:, 1], m.weights)
        for (x, v), dxf, dvf in zip(m.points, gx, gv):
            F = cs_coupling(k, x, v, m)
            assert abs(dxf) <= k.c0 * F + 1e-12
            assert abs(dvf) <= k.c0 * np.sqrt(F) + 1e-12


#: every radial kernel a config builds, and a few more parameters: stated constants against the oracle
STATED = ALL_RADIAL + [
    ExponentialKernel(-1.0, 1.0),
    ExponentialKernel(0.7, 3.0),
    RepulsiveAttractiveKernel(2.5),
    MorseKernel(0.9, 1.5),
]


def dense_profile_sups(kernel):
    """Oracle: sup|phi|, sup|phi'| and phi'(0+) from phi and phi' on a dense r-grid of [0, 60] (step 1e-5 up
    to 10, 1e-3 beyond), and the sup of phi'' on r > 0 from central differences of phi' (steps below r near
    0, so they stay on r > 0)."""
    r = np.concatenate([np.geomspace(1e-7, 1e-2, 2001), np.linspace(1e-2, 10.0, 999_001), np.linspace(10, 60, 50_001)])
    h = np.minimum(r / 2, 1e-6)
    d2phi = (kernel.dphi(r + h) - kernel.dphi(r - h)) / (2 * h)
    r0 = np.append(0.0, r)
    return np.max(np.abs(kernel.phi(r0))), np.max(np.abs(kernel.dphi(r0))), np.max(d2phi), float(kernel.dphi(0.0))


class TestStatedConstants:
    @pytest.mark.parametrize("kernel", STATED, ids=repr)
    def test_match_dense_oracle(self, kernel):
        """Each stated constant matches the dense r-grid within 1e-5 (it misses a spline knot by up to 5e-6,
        and phi'' at the knot by 1.2e-6 relative); sup|phi| and sup|phi'| are never below it."""
        stated = kernel.constants
        oracle = dense_profile_sups(kernel)
        for name, got, want in zip(stated._fields, stated, oracle):
            assert got == pytest.approx(want, rel=1e-5, abs=1e-9), name
        assert oracle[0] <= stated.sup_phi + 1e-15 and oracle[1] <= stated.sup_dphi + 1e-15

    def test_exact_table(self):
        """c0 and the Lipschitz, growth and semiconcavity constants of F = k * m, in closed form."""
        table = {
            ExponentialKernel(1.0, 1.0): (1.0, 1.0, 1.0, 1.0),
            ExponentialKernel(-1.0, 1.0): (1.0, 1.0, 1.0, np.inf),
            RepulsiveAttractiveKernel(1.0): (2.0, 1.0, 1.0 / np.e, 2.0),
            MorseKernel(0.5, 2.0): (1.0, 0.75, 0.5, 0.875),
            ZeroKernel(): (1.0, 0.0, 0.0, 0.0),
        }
        for kernel, expected in table.items():
            rep = validate_coupling(kernel)
            got = (rep.c0, rep.lipschitz_constant, rep.growth_constant, rep.semiconcavity_constant)
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0), repr(kernel)
        # the clamped spline through (0, 1), (1, 0.5), (2, 0.1), (3, 0): phi'' reads -1.76, 0.52, 0.28 and
        # 0.16 at the knots, and |phi'| peaks at 968/1425, where phi'' changes sign at r = 44/57
        crowd = validate_coupling(ALL_RADIAL[4])
        assert crowd.c0 == crowd.growth_constant == 1.0
        assert crowd.semiconcavity_constant == pytest.approx(0.52, rel=1e-13)
        assert crowd.lipschitz_constant == pytest.approx(968 / 1425, rel=1e-13)

    def test_point_mass_attains_lipschitz(self):
        """|F(h, delta_0) - F(0, delta_0)| / h -> 1 for the exponential kernel: the stated constant is sharp."""
        kernel, m = ExponentialKernel(1.0, 1.0), ParticleEnsemble.equal_weights(np.array([0.0]), 1)
        lip = validate_coupling(kernel).lipschitz_constant
        for h in (1e-2, 1e-4, 1e-6):
            ratio = abs(coupling(kernel, h, m) - coupling(kernel, 0.0, m)) / h
            assert ratio <= lip
            assert ratio == pytest.approx(lip, abs=h)

    def test_point_mass_attains_semiconcavity(self):
        """The second difference of F(., delta_0) next to the concave kink of the repulsive-attractive kernel
        approaches the stated 2 a."""
        kernel, m = RepulsiveAttractiveKernel(1.0), ParticleEnsemble.equal_weights(np.array([0.0]), 1)
        x, h = 1e-3, 1e-4
        f = [coupling(kernel, q, m) for q in (x - h, x, x + h)]
        ratio = (f[0] + f[2] - 2 * f[1]) / h**2
        assert validate_coupling(kernel).semiconcavity_constant == 2.0
        assert 1.99 < ratio <= 2.0


class TestValidateCoupling:
    def test_exponential_repulsive_semiconcave(self):
        rep = validate_coupling(ExponentialKernel(1.0, 1.0))
        assert rep.semiconcave_ok
        assert rep.lipschitz_ok
        assert rep.c0 >= 1.0

    def test_exponential_attractive_not_semiconcave(self):
        """phi'(0+) = a > 0 is a convex kink: the semiconcavity constant is infinite."""
        rep = validate_coupling(ExponentialKernel(-1.0, 1.0))
        assert not rep.semiconcave_ok
        assert rep.semiconcavity_constant == np.inf
        assert rep.lipschitz_ok and rep.growth_ok

    def test_morse_lipschitz(self):
        kernel = MorseKernel(0.5, 2.0)
        rep = validate_coupling(kernel)
        rs = np.linspace(0.0, 10.0, 20001)
        max_dphi = np.max(np.abs(kernel.dphi(rs)))
        assert rep.lipschitz_ok
        assert rep.c0 >= max_dphi - 1e-3

    def test_deterministic_under_seed(self, monkeypatch):
        """The report takes no seed and draws nothing, so it is the same whatever the global state."""
        a = validate_coupling(ExponentialKernel(1.0, 1.0))
        monkeypatch.setattr(np.random, "default_rng", None)
        assert validate_coupling(ExponentialKernel(1.0, 1.0)) == a

    def test_cs_kernel_rejected(self):
        with pytest.raises(TypeError):
            validate_coupling(CuckerSmaleKernel())


def transform_by_quadrature(kernel, xi):
    """k^(xi) = int k(x) e^{-i x xi} dx = 2 int_0^inf phi(r) cos(xi r) dr by adaptive quadrature, the
    Fourier weight taken by QAWF at xi > 0."""
    f = lambda r: 2.0 * float(kernel.phi(r))  # noqa: E731
    return quad(f, 0.0, np.inf, weight="cos", wvar=xi)[0] if xi > 0 else quad(f, 0.0, np.inf)[0]


def gram_oracle_is_psd(kernel):
    """The wide-window Gram probe: PSD when the smallest eigenvalue of k(x_i - x_j) on 400 points of
    [-60, 60] is at least -1e-10 of the largest in modulus.  Its spacing and width resolve the negative
    band |xi| < 0.08 of the Morse kernel at G = 0.505, L = 2, which a window of width 10 misses."""
    x = np.linspace(-60.0, 60.0, 400)
    eigs = np.linalg.eigvalsh(kernel.value(x[:, None] - x[None, :]))
    return bool(eigs.min() >= -1e-10 * np.abs(eigs).max())


PSD_CASES = [
    ExponentialKernel(1.0, 1.0),
    ExponentialKernel(1.0, 0.05),
    ExponentialKernel(-1.0, 2.0),
    RepulsiveAttractiveKernel(1.0),
    RepulsiveAttractiveKernel(2.0),
    MorseKernel(0.3, 2.0),
    MorseKernel(0.5, 2.0),
    MorseKernel(0.505, 2.0),
    MorseKernel(0.52, 2.0),
    MorseKernel(0.55, 2.0),
    MorseKernel(0.9, 3.0),
    MorseKernel(0.99, 1.5),
    ZeroKernel(),
]


class TestPsdCheck:
    def test_repulsive_attractive_two_points(self):
        """-|x| e^{-a|x|} transforms to 2 (xi^2 - a^2) / (a^2 + xi^2)^2, least at xi = 0: -2/a^2, which
        quadrature reads too.  The two-point Gram matrix on {0, 1}, [[0, -e^-1], [-e^-1, 0]], has the
        eigenvalue -e^-1 and agrees."""
        for a, least in ((1.0, -2.0), (2.0, -0.5)):
            verdict = psd_check(RepulsiveAttractiveKernel(a))
            assert verdict.label == "NOT-PSD" and not verdict.is_psd
            assert (verdict.min_transform, verdict.xi_min) == (least, 0.0)
            assert transform_by_quadrature(RepulsiveAttractiveKernel(a), 0.0) == pytest.approx(least, abs=1e-8)
        gram = RepulsiveAttractiveKernel(1.0).value(np.subtract.outer([0.0, 1.0], [0.0, 1.0]))
        assert np.linalg.eigvalsh(gram).min() == pytest.approx(-np.exp(-1.0), abs=1e-15)

    def test_exponential_psd_consistent(self):
        """alpha > 0: 2 alpha a / (a^2 + xi^2) > 0 only approaches its infimum 0 (xi_min inf); alpha = -1,
        a = 2 is least at xi = 0, -2/a = -1."""
        verdict = psd_check(ExponentialKernel(1.0, 1.0))
        assert verdict.label == "PSD"
        assert (verdict.is_psd, verdict.min_transform, verdict.xi_min) == (True, 0.0, np.inf)
        verdict = psd_check(ExponentialKernel(-1.0, 2.0))
        assert (verdict.label, verdict.min_transform, verdict.xi_min) == ("NOT-PSD", -1.0, 0.0)

    def test_morse_gl_above_one_not_psd(self):
        """k^(0) = 2 (1 - G L) < 0 once G L > 1: -3.4 at G L = 2.7, and -0.02 just past the border at
        G = 0.505, L = 2, inside a negative band |xi| < 0.08."""
        for kernel, least in ((MorseKernel(0.9, 3.0), -3.4), (MorseKernel(0.505, 2.0), -0.02)):
            verdict = psd_check(kernel)
            assert verdict.label == "NOT-PSD"
            assert verdict.min_transform == pytest.approx(least, abs=1e-14)
            assert verdict.xi_min == 0.0

    def test_morse_border_is_psd(self):
        """At G L = 1 (the default G = 0.5, L = 2, and G = 0.25, L = 4) the transform
        2 / (1 + xi^2) - 2 G L / (1 + L^2 xi^2) is 0 at xi = 0 and positive beyond: PSD, with the
        infimum 0.0 attained at xi = 0."""
        for kernel in (MorseKernel(0.5, 2.0), MorseKernel(0.25, 4.0)):
            verdict = psd_check(kernel)
            assert (verdict.label, verdict.is_psd, verdict.min_transform, verdict.xi_min) == ("PSD", True, 0.0, 0.0)

    def test_zero_kernel_psd(self):
        verdict = psd_check(ZeroKernel())
        assert (verdict.label, verdict.min_transform, verdict.xi_min) == ("PSD", 0.0, 0.0)

    def test_no_closed_form_raises(self):
        crowd = CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0]))
        for kernel in (crowd, CuckerSmaleKernel()):
            with pytest.raises(TypeError, match="closed-form Fourier transform"):
                psd_check(kernel)

    def test_deterministic_under_seed(self, monkeypatch):
        """The verdict takes no seed and draws nothing, so it is the same whatever the global state."""
        verdicts = [psd_check(kernel) for kernel in PSD_CASES]
        monkeypatch.setattr(np.random, "default_rng", None)
        assert [psd_check(kernel) for kernel in PSD_CASES] == verdicts

    @pytest.mark.parametrize("kernel", PSD_CASES, ids=repr)
    def test_verdict_agrees_with_the_gram_oracle(self, kernel):
        assert psd_check(kernel).is_psd == gram_oracle_is_psd(kernel)

    @pytest.mark.parametrize("kernel", PSD_CASES, ids=repr)
    def test_infimum_matches_quadrature(self, kernel):
        """The stated infimum is the transform by quadrature at xi_min, and no frequency of a grid
        over [0, 20] goes below it."""
        verdict = psd_check(kernel)
        if np.isfinite(verdict.xi_min):
            assert transform_by_quadrature(kernel, verdict.xi_min) == pytest.approx(verdict.min_transform, abs=1e-8)
        for xi in np.linspace(0.0, 20.0, 41):
            assert transform_by_quadrature(kernel, xi) >= verdict.min_transform - 1e-8

    def test_critical_point_minimum(self):
        """Two terms of opposite signs whose infimum is interior: e^{-r/2} - e^{-2r} transforms to
        1 / (1/4 + s) - 4 / (4 + s) in s = xi^2, least at s* = (A1 - rho A2) / (rho - 1) = 3.5
        (rho = 1/2), -4/15.  No config builds it: Morse's slower term is the negative one."""
        kernel = SimpleNamespace(_exp_terms=((1.0, 0.5), (-1.0, 2.0)))
        kernel.phi = lambda r: _exp_phi(kernel, r)
        least, xi = _exp_transform_inf(kernel)
        assert least == pytest.approx(-4.0 / 15.0, abs=1e-15) and xi == pytest.approx(np.sqrt(3.5), abs=1e-15)
        assert transform_by_quadrature(kernel, xi) == pytest.approx(least, abs=1e-8)
        s = np.linspace(0.0, 50.0, 500_001)
        assert np.min(1.0 / (0.25 + s) - 4.0 / (4.0 + s)) >= least - 1e-15


class TestCrowdKernel:
    def test_constant_beyond_last_knot(self):
        k = CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0]))
        assert float(k.value(10.0)) == 0.0
        assert float(k.gradient(10.0)) == 0.0

    def test_knots_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CrowdRadialKernel(np.array([0.5, 1.0, 2.0, 3.0]), np.zeros(4))


class TestGridMatrixMemo:
    """_grid_matrix keeps its last few matrices, read-only, keyed by the kernel and the exact grid."""

    X = (np.arange(16) + 0.5) * 0.25 - 2.0

    def test_memoized_matrix_is_read_only(self, monkeypatch):
        monkeypatch.setattr(kernels, "_grid_memo", {})
        matrix = kernels._grid_matrix(ExponentialKernel(), self.X, self.X, 0.25)
        assert kernels._grid_matrix(ExponentialKernel(1.0, 1.0), self.X.copy(), self.X, 0.25) is matrix
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    def test_key_tells_kernels_grids_and_zero_signs_apart(self, monkeypatch):
        monkeypatch.setattr(kernels, "_grid_memo", {})
        x = self.X
        value = kernels._grid_matrix(ExponentialKernel(), x, x, 0.25)
        others = [
            kernels._grid_matrix(ExponentialKernel(), x, x, 0.25, gradient=True),
            kernels._grid_matrix(ExponentialKernel(), x + 0.25, x, 0.25),
            kernels._grid_matrix(ExponentialKernel(), x, x, 0.5),
            kernels._grid_matrix(ExponentialKernel(2.0, 1.0), x, x, 0.25),
        ]
        assert all(m is not value for m in others)
        # alpha = -0.0 and 0.0 compare equal, but their matrices differ in the sign of every zero
        pos = kernels._grid_matrix(ExponentialKernel(0.0), x, x, 0.25)
        neg = kernels._grid_matrix(ExponentialKernel(-0.0), x, x, 0.25)
        assert not np.signbit(pos).any() and np.signbit(neg).all()
        assert len(kernels._grid_memo) == kernels._GRID_MEMO_SIZE

    def test_fv_solve_leaves_the_memo_as_it_found_it(self, monkeypatch, zero_ham, exp_kernel, gauss_m0):
        """Only the cell-centre matrices are kept: the FV solver's interface gradient matrix
        (n_x - 1, n_x), formed once a solve, is built afresh each time and leaves the memo alone."""
        monkeypatch.setattr(kernels, "_grid_memo", {})
        kept = kernels._grid_matrix(ExponentialKernel(), self.X, self.X, 0.25)
        memo = list(kernels._grid_memo.items())
        paths = [solve_aggregation_fv(zero_ham, exp_kernel, gauss_m0, 0.01, 1e-3) for _ in range(2)]
        assert list(kernels._grid_memo.items()) == memo and memo[0][1] is kept
        assert np.array_equal(paths[0].measures[-1].values, paths[1].measures[-1].values)

    def test_unhashable_kernel_sums_without_the_memo(self):
        """CrowdRadialKernel holds its tables as arrays, so it cannot be hashed: its grid sums are built
        every time, leave the memo as it was, and match the quadrature sum."""
        crowd = CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0]))
        m = GridDensity.gaussian(0.0, 0.5, -3.0, 0.05, 120)
        x, keys = m.cell_centers, list(kernels._grid_memo)
        for gradient, k in ((False, crowd.value), (True, crowd.gradient)):
            expected = [np.sum(m.dx * m.values * k(xi - x)) for xi in x]
            assert kernels._grid_sum(crowd, x, m, gradient) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert list(kernels._grid_memo) == keys


class TestCuckerSmaleConstants:
    def test_c0_flat_weight(self):
        assert CuckerSmaleKernel(1.0, 0.0).c0 == pytest.approx(2.0)

    def test_g_lower_bound(self, rng):
        k = CuckerSmaleKernel(0.5, 1.2)
        x = rng.standard_normal((50, 1))
        assert np.all(k.g(x) >= 1.0 / k.c0 - 1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    def test_g_is_the_closed_form_bit_for_bit(self, rng, beta):
        """g squares into one temporary and adds alpha in place: bit for bit (alpha + x^2)^beta, on a
        scalar and on arrays below and above numpy's 256 KiB temporary-elision size."""
        k = CuckerSmaleKernel(0.7, beta)
        for x in (0.3, rng.standard_normal(24), rng.standard_normal((96, 400))):
            expected = (k.alpha + np.asarray(x) ** 2) ** k.beta
            assert np.shape(k.g(x)) == np.shape(x)
            assert np.array_equal(np.asarray(k.g(x)).view(np.int64), np.asarray(expected).view(np.int64))
