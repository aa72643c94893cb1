"""Hamiltonians H(p, x) = |p|^2/2 - v(x).p with smooth bounded drifts.

The quadratic-plus-drift family, with a zero, constant or sinusoidal
drift field, covers every experiment in the lab, and it is the only
family the validator takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .kernels import VALIDATOR_BUDGET, VALIDATOR_SPAN
from .measures import _finite


@dataclass(frozen=True)
class DriftField:
    """Smooth bounded vector field v(x) on the line.

    Variants: zero, constant c, or sinusoidal A sin(omega x); its bounds
    are measured by validate_hamiltonian, not declared.
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


@dataclass(frozen=True)
class QuadraticDriftHamiltonian:
    """H(p, x) = |p|^2 / 2 - v(x) . p."""

    drift: DriftField = DriftField("zero")

    def value(self, p, x):
        p = np.asarray(p, dtype=float)
        return 0.5 * p**2 - self.drift(x) * p

    def grad_p(self, p, x):
        return np.asarray(p, dtype=float) - self.drift(x)


@dataclass(frozen=True)
class HamiltonianValidationReport:
    convexity_modulus: float
    convexity_ok: bool
    growth_constant: float
    x_lipschitz_constant: float
    seed: int
    budget: int


def validate_hamiltonian(h: QuadraticDriftHamiltonian, seed: int = 0) -> HamiltonianValidationReport:
    """Sampled verification of convexity, growth and x-regularity.

    Each of VALIDATOR_BUDGET samples draws p, an unused q, x and y, in
    that order, from [-VALIDATOR_SPAN, VALIDATOR_SPAN]; the report
    records the seed and the budget.
    """
    if not isinstance(h, QuadraticDriftHamiltonian):
        raise TypeError(f"validate_hamiltonian takes a QuadraticDriftHamiltonian, not {type(h).__name__}")
    H, DpH = h.value, h.grad_p
    p, _, x, y = np.random.default_rng(seed).uniform(-VALIDATOR_SPAN, VALIDATOR_SPAN, (VALIDATOR_BUDGET, 4)).T
    hp = 1e-3
    h_px = H(p, x)
    d2 = (H(p + hp, x) - 2 * h_px + H(p - hp, x)) / hp**2  # one-dimensional convexity modulus
    growth = np.abs(h_px) / (1.0 + p**2)
    far = np.abs(x - y) > 1e-9
    p, x, y, h_px = p[far], x[far], y[far], h_px[far]
    lip = (np.abs(h_px - H(p, y)) + np.abs(DpH(p, x) - DpH(p, y))) / (np.abs(x - y) * (1.0 + np.abs(p)))
    # fmin/fmax skip a NaN sample instead of reporting NaN
    convexity = np.fmin.reduce(d2, initial=np.inf)
    return HamiltonianValidationReport(
        convexity_modulus=float(convexity),
        convexity_ok=bool(convexity > 0),
        growth_constant=float(np.fmax.reduce(growth, initial=1.0)),
        x_lipschitz_constant=float(np.fmax.reduce(lip, initial=0.0)),
        seed=seed,
        budget=VALIDATOR_BUDGET,
    )
