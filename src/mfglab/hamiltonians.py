"""Hamiltonians H(p, x) = |p|^2/2 - v(x).p with smooth bounded drifts.

The quadratic-plus-drift family, with a zero, constant or sinusoidal
drift field, covers every experiment in the lab.  The solvers read only
its drift, which states the bounds ``validate_hamiltonian`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .measures import _finite


@dataclass(frozen=True)
class DriftField:
    """Smooth bounded vector field v(x) on the line.

    Variants: zero, constant c, or sinusoidal A sin(omega x); it states
    its bounds, ``sup_norm`` and ``lipschitz``.
    """

    variant: str = "zero"
    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        if self.variant not in ("zero", "constant", "sinusoidal"):
            raise ParameterError("variant", f"unknown drift variant {self.variant!r}")
        _finite(amplitude=self.amplitude, frequency=self.frequency)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "zero":
            return np.zeros_like(x)
        if self.variant == "constant":
            return np.full_like(x, self.amplitude)
        return self.amplitude * np.sin(self.frequency * x)

    @property
    def sup_norm(self) -> float:
        """sup|v|: 0, |c|, or |A| (0 at omega = 0, where A sin(0 x) vanishes)."""
        vanishes = self.variant == "zero" or (self.variant == "sinusoidal" and self.frequency == 0)
        return 0.0 if vanishes else abs(float(self.amplitude))

    @property
    def lipschitz(self) -> float:
        """Lip(v): 0, 0, or |A omega|."""
        return abs(float(self.amplitude * self.frequency)) if self.variant == "sinusoidal" else 0.0


@dataclass(frozen=True)
class QuadraticDriftHamiltonian:
    """H(p, x) = |p|^2 / 2 - v(x) . p."""

    drift: DriftField = DriftField("zero")


@dataclass(frozen=True)
class HamiltonianValidationReport:
    convexity_modulus: float
    convexity_ok: bool
    growth_constant: float
    x_lipschitz_constant: float


def validate_hamiltonian(h: QuadraticDriftHamiltonian) -> HamiltonianValidationReport:
    """Convexity, growth and x-regularity of H from the drift's stated sup|v| = s and Lip(v).

    D_pp H = 1, so the convexity modulus is 1.  The growth constant, the
    sup of |H| / (1 + p^2) over p and x, is (1 + sqrt(1 + 4 s^2)) / 4,
    reached where |v| = s.  The x-Lipschitz constant, the sup of
    (|H(p, x) - H(p, y)| + |D_pH(p, x) - D_pH(p, y)|) / (|x - y| (1 + |p|)),
    is Lip(v).
    """
    if not isinstance(h, QuadraticDriftHamiltonian):
        raise TypeError(f"validate_hamiltonian takes a QuadraticDriftHamiltonian, not {type(h).__name__}")
    s = h.drift.sup_norm
    return HamiltonianValidationReport(
        convexity_modulus=1.0,
        convexity_ok=True,
        growth_constant=float(1.0 + np.sqrt(1.0 + 4.0 * s**2)) / 4.0,
        x_lipschitz_constant=h.drift.lipschitz,
    )
