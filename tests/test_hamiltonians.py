import numpy as np
import pytest

from mfglab import DriftField, QuadraticDriftHamiltonian, validate_hamiltonian

DRIFTS = [
    DriftField("zero"),
    DriftField("constant", amplitude=1.5),
    DriftField("constant", amplitude=-2.0),
    DriftField("sinusoidal", amplitude=0.7, frequency=2.0),
    DriftField("sinusoidal", amplitude=-1.3, frequency=0.5),
    DriftField("sinusoidal", amplitude=1.0, frequency=0.0),
]


def H(p, v):
    """H(p, x) = p^2/2 - v(x) p at v = v(x), written out for the oracle."""
    return 0.5 * p**2 - v * p


def dense_hamiltonian_constants(drift):
    """Oracle on dense grids: the smallest second difference of H in p (|p| <= 20), the largest
    |H| / (1 + p^2) (p up to 1e4), and the largest (|H(p, x) - H(p, y)| + |D_pH(p, x) - D_pH(p, y)|) /
    (|x - y| (1 + |p|)) over neighbours y of x on a fine grid, with D_pH = p - v(x); x covers two periods
    of the slowest sinusoid below, and the coarse x-grid holds every peak of each."""
    p = np.concatenate([-np.geomspace(1e4, 20.0, 200), np.linspace(-20.0, 20.0, 8001), np.geomspace(20.0, 1e4, 200)])
    near, hp = p[np.abs(p) <= 20.0], 1e-3
    convexity, growth = np.inf, 0.0
    for v in drift(np.linspace(-4 * np.pi, 4 * np.pi, 1601)):
        convexity = min(convexity, np.min((H(near + hp, v) - 2 * H(near, v) + H(near - hp, v)) / hp**2))
        growth = max(growth, np.max(np.abs(H(p, v)) / (1.0 + p**2)))
    y = np.linspace(-4 * np.pi, 4 * np.pi, 160_001)
    v, dy = drift(y), y[1] - y[0]
    x_lip = max(
        np.max((np.abs(np.diff(H(q, v))) + np.abs(np.diff(q - v))) / (dy * (1.0 + abs(q))))
        for q in np.linspace(-20.0, 20.0, 41)
    )
    return convexity, growth, x_lip


class TestDriftField:
    def test_variants(self):
        assert DriftField("zero")(1.7) == 0.0
        assert DriftField("constant", amplitude=2.0)(-3.0) == 2.0
        assert DriftField("sinusoidal", amplitude=0.5, frequency=2.0)(np.pi / 4) == pytest.approx(0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            DriftField("quadratic")

    @pytest.mark.parametrize("drift", DRIFTS, ids=repr)
    def test_stated_bounds_match_dense_grid(self, drift):
        x = np.linspace(-50.0, 50.0, 200_001)
        v = drift(x)
        assert drift.sup_norm == pytest.approx(np.max(np.abs(v)), rel=1e-8, abs=0.0)
        assert drift.lipschitz == pytest.approx(np.max(np.abs(np.diff(v)) / (x[1] - x[0])), rel=1e-6, abs=0.0)


class TestValidateHamiltonian:
    def test_quadratic_modulus_is_one(self, zero_ham):
        rep = validate_hamiltonian(zero_ham)
        assert rep.convexity_ok
        assert rep.convexity_modulus == 1.0

    def test_sinusoidal_x_lipschitz(self):
        h = QuadraticDriftHamiltonian(DriftField("sinusoidal", amplitude=1.0, frequency=1.0))
        # |H(p,x)-H(p,y)| + |D_pH(p,x)-D_pH(p,y)| = |v(x)-v(y)| (1 + |p|): the constant is Lip(v) = |A omega|
        assert validate_hamiltonian(h).x_lipschitz_constant == 1.0

    @pytest.mark.parametrize("drift", DRIFTS, ids=repr)
    def test_stated_constants_match_dense_grid(self, drift):
        """Each stated constant matches the dense (p, x)-grid; growth to 1e-5, which the zero drift's
        sup 1/2, reached only as |p| -> inf, sets."""
        rep = validate_hamiltonian(QuadraticDriftHamiltonian(drift))
        convexity, growth, x_lip = dense_hamiltonian_constants(drift)
        assert rep.convexity_modulus == pytest.approx(convexity, rel=1e-6)
        assert rep.growth_constant == pytest.approx(growth, rel=1e-5)
        assert growth <= rep.growth_constant
        assert rep.x_lipschitz_constant == pytest.approx(x_lip, rel=1e-5, abs=1e-12)

    def test_constant_drift_growth(self):
        """At |c| = 2 the growth constant is (1 + sqrt(17)) / 4."""
        rep = validate_hamiltonian(QuadraticDriftHamiltonian(DriftField("constant", amplitude=2.0)))
        assert rep.growth_constant == pytest.approx((1.0 + np.sqrt(17.0)) / 4.0, rel=1e-15)

    def test_concave_injection_fails(self):
        """Only the quadratic-drift family is validated: a plain callable, concave or not, or
        any other object raises TypeError naming its type."""
        with pytest.raises(TypeError, match="not function"):
            validate_hamiltonian(lambda p, x: -(p**2))
        with pytest.raises(TypeError, match="not DriftField"):
            validate_hamiltonian(DriftField("zero"))

    def test_deterministic(self, zero_ham, monkeypatch):
        """The report takes no seed and makes no random generator."""
        rep = validate_hamiltonian(zero_ham)
        monkeypatch.setattr(np.random, "default_rng", None)
        assert validate_hamiltonian(zero_ham) == rep
