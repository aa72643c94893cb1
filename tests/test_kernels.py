import numpy as np
import pytest

from mfglab import (
    CrowdRadialKernel,
    CuckerSmaleKernel,
    DimensionError,
    ExponentialKernel,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    eval_coupling,
    grad_coupling,
    psd_check,
    validate_coupling,
)

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

    def test_velocity_argument_policing(self):
        positions = ParticleEnsemble.equal_weights(np.array([[0.5], [-0.5]]), 1)
        phase = ParticleEnsemble.equal_weights(np.array([[0.5, 1.0], [-0.5, -1.0]]), 1)
        with pytest.raises(DimensionError):
            eval_coupling(ExponentialKernel(), 0.0, positions, v=1.0)
        with pytest.raises(DimensionError):
            eval_coupling(CuckerSmaleKernel(), 0.0, phase)

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


class TestEvalCoupling:
    def test_single_atom_is_kernel(self, exp_kernel, rng):
        y = 0.7
        m = ParticleEnsemble.equal_weights(np.array([[y]]), 1)
        for x in rng.standard_normal(5):
            assert eval_coupling(exp_kernel, x, m) == pytest.approx(
                float(exp_kernel.value(x - y))
            )

    def test_exponential_dirac_at_origin(self):
        m = ParticleEnsemble.equal_weights(np.array([[0.0]]), 1)
        assert eval_coupling(ExponentialKernel(2.0, 1.0), 0.0, m) == pytest.approx(2.0)

    def test_cucker_smale_two_atoms(self, cs_flat):
        m = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
        assert eval_coupling(cs_flat, np.array([0.0]), m, v=np.array([1.0])) == pytest.approx(2.0)

    def test_grid_quadrature_matches_particles(self, exp_kernel):
        m_grid = GridDensity.uniform(-1.0, 1.0, -2.0, 0.001, 4000)
        n = 4000
        atoms = np.linspace(-1.0 + 1.0 / n, 1.0 - 1.0 / n, n)[:, None]
        m_part = ParticleEnsemble.equal_weights(atoms, 1)
        fg = eval_coupling(exp_kernel, 0.3, m_grid)
        fp = eval_coupling(exp_kernel, np.array([0.3]), m_part)
        assert fg == pytest.approx(fp, abs=1e-5)

    def test_linearity_in_m(self, exp_kernel, rng):
        pts = rng.standard_normal((6, 1))
        w1 = rng.uniform(0.1, 1.0, 6)
        w1 /= w1.sum()
        w2 = rng.uniform(0.1, 1.0, 6)
        w2 /= w2.sum()
        theta = 0.3
        f1 = eval_coupling(exp_kernel, 0.5, ParticleEnsemble(pts, w1, 1))
        f2 = eval_coupling(exp_kernel, 0.5, ParticleEnsemble(pts, w2, 1))
        fmix = eval_coupling(
            exp_kernel, 0.5, ParticleEnsemble(pts, theta * w1 + (1 - theta) * w2, 1)
        )
        assert fmix == pytest.approx(theta * f1 + (1 - theta) * f2, abs=1e-12)

    def test_cs_growth_bound(self, rng):
        from mfglab.measures import moment2

        k = CuckerSmaleKernel(1.5, 0.8)
        pts = rng.standard_normal((10, 2))
        m = ParticleEnsemble.equal_weights(pts, 1)
        for _ in range(20):
            x, v = rng.standard_normal(), rng.standard_normal()
            F = eval_coupling(k, np.array([x]), m, v=np.array([v]))
            assert 0.0 <= F <= k.c0 * (1.0 + v**2 + moment2(m, "velocity"))

    @pytest.mark.parametrize("branch", ["grid", "particles", "cucker-smale"])
    def test_multi_point_query_raises(self, branch, gauss_m0):
        """The couplings take one query point: two raise DimensionError on every measure branch."""
        kernel, m, v = {
            "grid": (ExponentialKernel(), gauss_m0, None),
            "particles": (ExponentialKernel(), ParticleEnsemble.equal_weights(np.array([0.5, -0.5]), 1), None),
            "cucker-smale": (CuckerSmaleKernel(), ParticleEnsemble.equal_weights(np.eye(2), 1), 0.0),
        }[branch]
        for call in (eval_coupling, grad_coupling):
            with pytest.raises(DimensionError, match="one query point"):
                call(kernel, np.array([0.1, 0.2]), m, v)
            if v is not None:
                with pytest.raises(DimensionError, match="one query point"):
                    call(kernel, 0.1, m, np.array([0.0, 1.0]))


class TestGradCoupling:
    def test_self_query_is_zero(self, rng):
        for kernel in ALL_RADIAL:
            x = float(rng.standard_normal())
            m = ParticleEnsemble.equal_weights(np.array([[x]]), 1)
            assert grad_coupling(kernel, np.array([x]), m) == 0.0

    def test_cs_dvf_two_atoms(self, cs_flat):
        m = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
        _, dvf = grad_coupling(cs_flat, np.array([0.0]), m, v=np.array([1.0]))
        assert dvf == pytest.approx(2.0)

    def test_exponential_dirac_derivative(self):
        m = ParticleEnsemble.equal_weights(np.array([[0.0]]), 1)
        g = grad_coupling(ExponentialKernel(1.0, 1.0), np.array([1.0]), m)
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
            g = grad_coupling(kernel, np.array([x]), m)
            fd = (
                eval_coupling(kernel, np.array([x + h]), m)
                - eval_coupling(kernel, np.array([x - h]), m)
            ) / (2 * h)
            assert g == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))

    def test_cs_weighted_dvf_sums_to_zero(self, rng):
        k = CuckerSmaleKernel(1.0, 0.6)
        pts = rng.standard_normal((8, 2))
        w = rng.uniform(0.1, 1.0, 8)
        w /= w.sum()
        m = ParticleEnsemble(pts, w, 1)
        total = 0.0
        for i in range(8):
            _, dvf = grad_coupling(k, pts[i, :1], m, v=pts[i, 1:])
            total += w[i] * dvf
        assert abs(total) < 1e-12

    def test_cs_gradient_bounds(self, rng):
        k = CuckerSmaleKernel(1.2, 0.9)
        m = ParticleEnsemble.equal_weights(rng.standard_normal((6, 2)), 1)
        for _ in range(20):
            x, v = rng.standard_normal(1), rng.standard_normal(1)
            F = eval_coupling(k, x, m, v=v)
            gx, gv = grad_coupling(k, x, m, v=v)
            assert abs(gx) <= k.c0 * F + 1e-12
            assert abs(gv) <= k.c0 * np.sqrt(F) + 1e-12


def single_query_validation(kernel, budget, seed, span=5.0):
    """Oracle: the validator's loop before its queries were batched, one eval_coupling per query."""
    rng = np.random.default_rng(seed)
    ensembles = [
        ParticleEnsemble.equal_weights(rng.uniform(-span, span, size=(rng.integers(1, 8), 1)), 1)
        for _ in range(8)
    ]
    lip = growth = sc = -np.inf
    witness = None
    for _ in range(budget):
        m = ensembles[rng.integers(len(ensembles))]
        if rng.random() < 0.25:
            x = m.positions[rng.integers(m.n)].copy()
        else:
            x = rng.uniform(-2 * span, 2 * span, size=1)
        y = rng.uniform(-2 * span, 2 * span, size=1)
        h = rng.choice([1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0]) * rng.choice([-1.0, 1.0])
        fx, fy = eval_coupling(kernel, x, m), eval_coupling(kernel, y, m)
        fp, fm = eval_coupling(kernel, x + h, m), eval_coupling(kernel, x - h, m)
        if abs(x[0] - y[0]) > 1e-9:
            lip = max(lip, abs(fx - fy) / abs(x[0] - y[0]))
        growth = max(growth, abs(fx) / (1.0 + abs(x[0])))
        ratio = (fp + fm - 2.0 * fx) / h**2
        if ratio > sc:
            sc = ratio
            if ratio > 1e3:
                witness = {"x": float(x[0]), "h": float(h), "second_difference_ratio": float(ratio)}
    return lip, growth, sc, witness


class TestValidateCoupling:
    @pytest.mark.parametrize("kernel", ALL_RADIAL, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_queries_bit_identical(self, kernel, seed):
        rep = validate_coupling(kernel, budget=1000, seed=seed)
        got = (rep.lipschitz_constant, rep.growth_constant, rep.semiconcavity_constant, rep.witness)
        assert got == single_query_validation(kernel, 1000, seed)

    def test_exponential_repulsive_semiconcave(self):
        rep = validate_coupling(ExponentialKernel(1.0, 1.0), seed=0)
        assert rep.semiconcave_ok
        assert rep.lipschitz_ok
        assert rep.c0 >= 1.0

    def test_exponential_attractive_not_semiconcave(self):
        rep = validate_coupling(ExponentialKernel(-1.0, 1.0), seed=0)
        assert not rep.semiconcave_ok
        assert rep.witness is not None
        assert abs(rep.witness["h"]) < 0.5  # counterexample lives near the kink

    def test_morse_lipschitz(self):
        kernel = MorseKernel(0.5, 2.0)
        rep = validate_coupling(kernel, seed=1)
        rs = np.linspace(0.0, 10.0, 20001)
        max_dphi = np.max(np.abs(kernel.dphi(rs)))
        assert rep.lipschitz_ok
        assert rep.c0 >= max_dphi - 1e-3

    def test_deterministic_under_seed(self):
        a = validate_coupling(ExponentialKernel(1.0, 1.0), seed=5)
        b = validate_coupling(ExponentialKernel(1.0, 1.0), seed=5)
        assert a == b

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            validate_coupling(ExponentialKernel(), budget=100)

    def test_cs_kernel_rejected(self):
        with pytest.raises(TypeError):
            validate_coupling(CuckerSmaleKernel())


class TestPsdCheck:
    def test_repulsive_attractive_two_points(self):
        pts = np.array([[0.0], [1.0]])
        verdict = psd_check(RepulsiveAttractiveKernel(1.0), points=pts)
        assert verdict.label == "NOT-PSD"
        c = -np.exp(-1.0)  # k(1) = -1*e^-1
        # Gram [[0, c], [c, 0]] has eigenvalues +-|c|
        assert verdict.min_eigenvalue == pytest.approx(-abs(c), abs=1e-12)

    def test_exponential_psd_consistent(self):
        verdict = psd_check(ExponentialKernel(1.0, 1.0), n_points=64, seed=0)
        assert verdict.label == "PSD-consistent"

    def test_morse_gl_above_one_not_psd(self):
        # G*L = 2.7 > 1: the zero-frequency Fourier mass 2(1 - G L) is negative
        verdict = psd_check(MorseKernel(0.9, 3.0), n_points=128, seed=0)
        assert verdict.label == "NOT-PSD"

    def test_deterministic_under_seed(self):
        a = psd_check(ExponentialKernel(1.0, 1.0), n_points=32, seed=9)
        b = psd_check(ExponentialKernel(1.0, 1.0), n_points=32, seed=9)
        assert a.min_eigenvalue == b.min_eigenvalue
        assert np.array_equal(a.points, b.points)

    def test_n_points_range(self):
        with pytest.raises(ValueError):
            psd_check(ExponentialKernel(), n_points=1)
        with pytest.raises(ValueError):
            psd_check(ExponentialKernel(), n_points=1000)


class TestCrowdKernel:
    def test_constant_beyond_last_knot(self):
        k = CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0]))
        assert float(k.value(10.0)) == 0.0
        assert float(k.gradient(10.0)) == 0.0

    def test_knots_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CrowdRadialKernel(np.array([0.5, 1.0, 2.0, 3.0]), np.zeros(4))


class TestCuckerSmaleConstants:
    def test_c0_flat_weight(self):
        assert CuckerSmaleKernel(1.0, 0.0).c0 == pytest.approx(2.0)

    def test_g_lower_bound(self, rng):
        k = CuckerSmaleKernel(0.5, 1.2)
        x = rng.standard_normal((50, 1))
        assert np.all(k.g(x) >= 1.0 / k.c0 - 1e-12)
