import numpy as np
import pytest

from mfglab import DriftField, QuadraticDriftHamiltonian, validate_hamiltonian
from mfglab.kernels import VALIDATOR_BUDGET, VALIDATOR_SPAN


def scalar_validation(h, budget=2000, seed=0):
    """Oracle: the per-sample loop of scalar H and D_pH calls that the vectorised validator replaced."""
    H, DpH = h.value, h.grad_p
    rng = np.random.default_rng(seed)
    convexity, growth, x_lip = np.inf, 1.0, 0.0
    for _ in range(budget):
        p, q = rng.uniform(-VALIDATOR_SPAN, VALIDATOR_SPAN, 2)
        x, y = rng.uniform(-VALIDATOR_SPAN, VALIDATOR_SPAN, 2)
        hp = 1e-3
        d2 = (float(H(p + hp, x)) - 2 * float(H(p, x)) + float(H(p - hp, x))) / hp**2
        convexity = min(convexity, d2)
        growth = max(growth, abs(float(H(p, x))) / (1.0 + p**2))
        if abs(x - y) > 1e-9:
            num = abs(float(H(p, x)) - float(H(p, y))) + abs(float(DpH(p, x)) - float(DpH(p, y)))
            x_lip = max(x_lip, num / (abs(x - y) * (1.0 + abs(p))))
    return float(convexity), float(growth), float(x_lip)


VALIDATED_HAMILTONIANS = {
    "zero": QuadraticDriftHamiltonian(DriftField("zero")),
    "constant": QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.5)),
    "sinusoidal": QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=0.7, frequency=2.0)),
}


class TestDriftField:
    def test_variants(self):
        assert DriftField("zero")(1.7) == 0.0
        assert DriftField("constant", amplitude=2.0)(-3.0) == 2.0
        assert DriftField("sinusoidal", amplitude=0.5, frequency=2.0)(np.pi / 4) == pytest.approx(0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            DriftField("quadratic")


class TestEvalH:
    def test_zero_momentum(self, rng):
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=1.0))
        for x in rng.standard_normal(5):
            assert h.value(0.0, x) == 0.0

    def test_free_hamiltonian(self, zero_ham):
        assert zero_ham.value(1.0, 0.3) == pytest.approx(0.5)

    def test_unit_drift(self):
        h = QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.0))
        assert h.value(2.0, 0.0) == pytest.approx(0.0)  # 2 - 2

    def test_growth_bound(self, rng):
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=2.0))
        c0 = 0.5 + 2.0**2  # |p^2/2 - v p| <= (1/2 + |v|^2) (1 + p^2)
        for _ in range(50):
            p, x = rng.uniform(-10, 10, 2)
            val = h.value(p, x)
            assert -c0 <= val <= c0 * (1.0 + p**2)


class TestGradPH:
    def test_vanishes_at_drift(self):
        h = QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.5))
        assert h.grad_p(1.5, 0.0) == pytest.approx(0.0)

    def test_identity_for_zero_drift(self, zero_ham, rng):
        p = rng.standard_normal(10)
        assert np.allclose(zero_ham.grad_p(p, 0.0), p, rtol=0, atol=0)

    def test_unit_drift_shift(self):
        h = QuadraticDriftHamiltonian(DriftField("constant", amplitude=1.0))
        assert h.grad_p(2.0, 0.0) == pytest.approx(1.0)

    def test_matches_finite_differences(self, rng):
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=1.0, frequency=3.0))
        eps = 1e-6
        for _ in range(20):
            p, x = rng.uniform(-5, 5, 2)
            fd = (h.value(p + eps, x) - h.value(p - eps, x)) / (2 * eps)
            assert h.grad_p(p, x) == pytest.approx(fd, abs=1e-8 * max(1, abs(fd)))

    def test_bregman_identity_quadratic(self, rng):
        # H(p) - H(q) - DH(q)(p-q) = |p-q|^2 / 2 exactly for the quadratic family
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=1.0))
        for _ in range(20):
            p, q, x = rng.uniform(-5, 5, 3)
            lhs = h.value(p, x) - h.value(q, x) - h.grad_p(q, x) * (p - q)
            assert lhs == pytest.approx(0.5 * (p - q) ** 2, abs=1e-10)


class TestValidateHamiltonian:
    def test_quadratic_modulus_is_one(self, zero_ham):
        rep = validate_hamiltonian(zero_ham, seed=0)
        assert rep.convexity_ok
        assert rep.convexity_modulus == pytest.approx(1.0, abs=1e-6)

    def test_sinusoidal_x_lipschitz(self):
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=1.0, frequency=1.0))
        rep = validate_hamiltonian(h, seed=0)
        # |H(p,x)-H(p,y)| = |v(x)-v(y)||p| <= |x-y||p|, plus the D_pH part: constant <= 2
        assert rep.x_lipschitz_constant <= 2.0 + 1e-6

    def test_concave_injection_fails(self):
        """Only the quadratic-drift family is validated: a plain callable, concave or not, or
        any other object raises TypeError naming its type."""
        with pytest.raises(TypeError, match="not function"):
            validate_hamiltonian(lambda p, x: -(p**2), seed=0)
        with pytest.raises(TypeError, match="not DriftField"):
            validate_hamiltonian(DriftField("zero"), seed=0)

    def test_budget_floor(self, zero_ham):
        """Every validation draws VALIDATOR_BUDGET = 2000 samples, at least 1000, and records the count."""
        assert VALIDATOR_BUDGET == 2000
        assert validate_hamiltonian(zero_ham, seed=4).budget == VALIDATOR_BUDGET

    def test_deterministic(self, zero_ham):
        assert validate_hamiltonian(zero_ham, seed=3) == validate_hamiltonian(zero_ham, seed=3)

    @pytest.mark.parametrize("name", VALIDATED_HAMILTONIANS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_scalar_loop_bit_for_bit(self, name, seed):
        h = VALIDATED_HAMILTONIANS[name]
        rep = validate_hamiltonian(h, seed=seed)
        got = (rep.convexity_modulus, rep.growth_constant, rep.x_lipschitz_constant)
        assert got == scalar_validation(h, seed=seed)
