"""Hamiltonians H(p, x) = |p|^2/2 - v(x).p with smooth bounded drifts.

The quadratic-plus-drift family, with a zero, constant or sinusoidal
drift field, covers every experiment in the lab; the validator also
accepts externally supplied Hamiltonian callables so the failure paths
can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DriftField:
    """Smooth bounded vector field v(x) with declared derivative bounds.

    Variants: zero, constant c, or sinusoidal A sin(omega x)
    (componentwise on the first coordinate).
    """

    variant: str = "zero"
    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        if self.variant not in ("zero", "constant", "sinusoidal"):
            raise ValueError(f"unknown drift variant {self.variant!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "zero":
            return np.zeros_like(x)
        if self.variant == "constant":
            return np.full_like(x, self.amplitude)
        return self.amplitude * np.sin(self.frequency * x)

    @property
    def sup_norm(self) -> float:
        if self.variant == "zero":
            return 0.0
        return abs(self.amplitude)

    @property
    def lipschitz(self) -> float:
        if self.variant == "sinusoidal":
            return abs(self.amplitude * self.frequency)
        return 0.0


@dataclass(frozen=True)
class QuadraticDriftHamiltonian:
    """H(p, x) = |p|^2 / 2 - v(x) . p."""

    drift: DriftField = DriftField("zero")

    def value(self, p, x):
        p = np.asarray(p, dtype=float)
        return 0.5 * p**2 - self.drift(x) * p

    def grad_p(self, p, x):
        return np.asarray(p, dtype=float) - self.drift(x)

    @property
    def c0(self) -> float:
        """Growth constant: -c0 <= H <= c0 (1 + |p|^2)."""
        return max(1.0, 0.5 + self.drift.sup_norm**2)


@dataclass(frozen=True)
class HamiltonianValidationReport:
    convexity_modulus: float
    convexity_ok: bool
    growth_constant: float
    x_lipschitz_constant: float
    seed: int
    budget: int


def validate_hamiltonian(
    h,
    budget: int = 2000,
    seed: int = 0,
    grad_p: Callable | None = None,
    span: float = 5.0,
) -> HamiltonianValidationReport:
    """Sampled verification of convexity, growth and x-regularity.

    `h` is either a QuadraticDriftHamiltonian or a plain callable
    H(p, x); in the latter case grad_p may be supplied (finite
    differences otherwise).
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000 samples")
    if isinstance(h, QuadraticDriftHamiltonian):
        H, DpH = h.value, h.grad_p
    else:
        H = h
        if grad_p is None:
            def DpH(p, x, _H=H):
                eps = 1e-6 * max(1.0, abs(p))
                return (_H(p + eps, x) - _H(p - eps, x)) / (2 * eps)
        else:
            DpH = grad_p
    rng = np.random.default_rng(seed)
    convexity = np.inf
    growth = 1.0
    x_lip = 0.0
    for _ in range(budget):
        p, q = rng.uniform(-span, span, 2)
        x, y = rng.uniform(-span, span, 2)
        # one-dimensional convexity modulus: second difference in p
        hp = 1e-3
        d2 = (float(H(p + hp, x)) - 2 * float(H(p, x)) + float(H(p - hp, x))) / hp**2
        convexity = min(convexity, d2)
        growth = max(growth, abs(float(H(p, x))) / (1.0 + p**2))
        if abs(x - y) > 1e-9:
            num = abs(float(H(p, x)) - float(H(p, y))) + abs(float(DpH(p, x)) - float(DpH(p, y)))
            x_lip = max(x_lip, num / (abs(x - y) * (1.0 + abs(p))))
    return HamiltonianValidationReport(
        convexity_modulus=float(convexity),
        convexity_ok=bool(convexity > 0),
        growth_constant=float(growth),
        x_lipschitz_constant=float(x_lip),
        seed=seed,
        budget=budget,
    )
