"""Interaction kernels, the nonlocal coupling F(x,m)=k*m, and validators.

The radial kernels (exponential, repulsive-attractive, Morse, tabulated
crowd kernel) act on positions only; the Cucker-Smale kernel acts
jointly on position-velocity offsets, k(x,v) = |v|^2 / g(x) with
g(x) = (alpha + |x|^2)^beta.

Radial kernels with a kink at the origin use the symmetric selection
Dk(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DimensionError
from .measures import GridDensity, ParticleEnsemble


def _radial_value(kernel, x):
    """k at x; arrays of shape (..., d) are vectors, 0D/1D inputs are 1D positions."""
    x = np.asarray(x, dtype=float)
    r = np.abs(x) if x.ndim <= 1 else np.sqrt(np.sum(x**2, axis=-1))
    return kernel.phi(r)


def _radial_grad(kernel, x):
    """phi'(|x|) * x/|x|, with the Dk(0)=0 kink convention.

    Same shape convention as the value: (..., d) arrays are vectors,
    scalars and 1D arrays are 1D positions.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        r = np.abs(x)
        out = np.zeros_like(x, dtype=float)
        nz = r > 0
        if x.ndim == 0:
            return float(kernel.dphi(r) * np.sign(x)) if r > 0 else 0.0
        out[nz] = kernel.dphi(r[nz]) * np.sign(x[nz])
        return out
    r = np.sqrt(np.sum(x**2, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(r > 0, kernel.dphi(r) / r, 0.0)
    return coef[..., None] * x


@dataclass(frozen=True)
class ExponentialKernel:
    """k(x) = alpha * exp(-a |x|); repulsive for alpha > 0."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    def phi(self, r):
        return self.alpha * np.exp(-self.a * np.asarray(r, dtype=float))

    def dphi(self, r):
        return -self.a * self.alpha * np.exp(-self.a * np.asarray(r, dtype=float))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class RepulsiveAttractiveKernel:
    """k(x) = -|x| exp(-a |x|); repulsion near 0, attraction beyond 1/a."""

    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return -r * np.exp(-self.a * r)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return (self.a * r - 1.0) * np.exp(-self.a * r)

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class MorseKernel:
    """k(x) = exp(-|x|) - G exp(-|x|/L); short-range repulsion, mid-range attraction."""

    G: float = 0.5
    L: float = 2.0

    def __post_init__(self):
        if not 0 < self.G < 1:
            raise ValueError("Morse kernel requires 0 < G < 1")
        if self.L <= 1:
            raise ValueError("Morse kernel requires L > 1")

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r) - self.G * np.exp(-r / self.L)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return -np.exp(-r) + (self.G / self.L) * np.exp(-r / self.L)

    def equilibrium_gap(self) -> float:
        """Two-body equilibrium distance, the root of phi'."""
        return self.L / (self.L - 1.0) * np.log(self.L / self.G)

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class CrowdRadialKernel:
    """k(x) = phi(|x|) with phi tabulated; phi' clamped to 0 outside [0, R].

    The table is interpolated with a C^2 cubic spline; beyond the last
    knot the kernel is constant (no interaction at long range).
    """

    r_knots: np.ndarray
    phi_values: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.r_knots, dtype=float)
        p = np.asarray(self.phi_values, dtype=float)
        object.__setattr__(self, "r_knots", r)
        object.__setattr__(self, "phi_values", p)
        if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
            raise ValueError("need at least 4 strictly increasing knots")
        if r[0] != 0.0:
            raise ValueError("knots must start at r = 0")
        object.__setattr__(self, "_spline", CubicSpline(r, p, bc_type="clamped"))
        r.setflags(write=False)
        p.setflags(write=False)

    @property
    def R(self) -> float:
        return float(self.r_knots[-1])

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, self.phi_values[-1], self._spline(np.minimum(r, self.R)))

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, 0.0, self._spline(np.minimum(r, self.R), 1))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class ZeroKernel:
    """k = 0; switches off the coupling."""

    def phi(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def dphi(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class CuckerSmaleKernel:
    """k(x, v) = |v|^2 / g(x) with communication weight g(x) = (alpha + |x|^2)^beta."""

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @staticmethod
    def _coords(z):
        """Interpret input as an array of d-vectors: shape (..., d), scalar -> (1,)."""
        z = np.asarray(z, dtype=float)
        return z[None] if z.ndim == 0 else z

    def g(self, x):
        x = self._coords(x)
        return (self.alpha + np.sum(x**2, axis=-1)) ** self.beta

    def value(self, x, v):
        v = self._coords(v)
        return np.sum(v**2, axis=-1) / self.g(x)

    def grad_x(self, x, v):
        """D_x k = -|v|^2 g'(x) / g^2."""
        x = self._coords(x)
        v = self._coords(v)
        r2 = np.sum(x**2, axis=-1)
        vv = np.sum(v**2, axis=-1)
        # d/dx (alpha + |x|^2)^-beta = -2 beta x (alpha+|x|^2)^(-beta-1)
        coef = -vv * 2.0 * self.beta * (self.alpha + r2) ** (-self.beta - 1.0)
        return coef[..., None] * x

    def grad_v(self, x, v):
        """D_v k = 2 v / g(x)."""
        v = self._coords(v)
        return 2.0 * v / self.g(x)[..., None]

    @property
    def c0(self) -> float:
        """Certified constant: g >= 1/c0, F <= c0 (1+|v|^2+M2v),
        |D_x F| <= c0 F and |D_v F| <= c0 sqrt(F)."""
        inf_g = self.alpha**self.beta
        dg_over_g = self.beta / np.sqrt(self.alpha)
        return float(max(1.0, 2.0 / inf_g, dg_over_g, 2.0 / np.sqrt(inf_g)))


RADIAL_KERNELS = (
    ExponentialKernel,
    RepulsiveAttractiveKernel,
    MorseKernel,
    CrowdRadialKernel,
    ZeroKernel,
)


def _grid_matrix(kernel, xq, y, dx, gradient=False):
    """(len(xq), len(y)) quadrature matrix dx * k(xq_i - y_j), or dx * Dk(xq_i - y_j), in 1D."""
    diffs = (np.asarray(xq, dtype=float)[:, None] - y[None, :])[..., None]
    return dx * (kernel.gradient(diffs)[..., 0] if gradient else kernel.value(diffs))


def _require_velocity(kernel, v):
    if isinstance(kernel, CuckerSmaleKernel):
        if v is None:
            raise DimensionError("Cucker-Smale kernel needs a velocity argument")
    elif v is not None:
        raise DimensionError("velocity argument only valid for the Cucker-Smale kernel")


def eval_kernel(kernel, x, v=None):
    """Pointwise kernel evaluation k(x) or k(x, v)."""
    _require_velocity(kernel, v)
    if isinstance(kernel, CuckerSmaleKernel):
        return kernel.value(x, v)
    return kernel.value(x)


def eval_coupling(kernel, x, m, v=None):
    """F(x, m) = (k * m)(x), or F(x, v, m) for the Cucker-Smale kernel."""
    _require_velocity(kernel, v)
    if isinstance(m, GridDensity):
        if isinstance(kernel, CuckerSmaleKernel):
            raise DimensionError("Cucker-Smale coupling needs a phase-space ensemble")
        return float(_grid_matrix(kernel, np.reshape(x, 1), m.cell_centers, m.dx)[0] @ m.values)
    if not isinstance(m, ParticleEnsemble):
        raise TypeError(f"unsupported measure type {type(m)!r}")
    if isinstance(kernel, CuckerSmaleKernel):
        if not m.is_phase_space:
            raise DimensionError("Cucker-Smale coupling needs a phase-space ensemble")
        dx = np.atleast_1d(np.asarray(x, dtype=float)) - m.positions
        dv = np.atleast_1d(np.asarray(v, dtype=float)) - m.velocities
        return float(np.sum(m.weights * kernel.value(dx, dv)))
    pos = m.positions
    x = np.asarray(x, dtype=float)
    if np.ndim(x) == 0:
        x = x[None]
    if x.shape[-1] != pos.shape[1]:
        raise DimensionError(f"query has {x.shape[-1]} coordinates, ensemble has {pos.shape[1]}")
    return float(np.sum(m.weights * kernel.value(x[None, :] - pos)))


def grad_coupling(kernel, x, m, v=None):
    """Analytic gradient of the coupling.

    Returns D_x F for the radial kernels and the pair (D_x F, D_v F)
    for the Cucker-Smale kernel.
    """
    _require_velocity(kernel, v)
    if isinstance(m, GridDensity):
        if isinstance(kernel, CuckerSmaleKernel):
            raise DimensionError("Cucker-Smale coupling needs a phase-space ensemble")
        return float(_grid_matrix(kernel, np.reshape(x, 1), m.cell_centers, m.dx, gradient=True)[0] @ m.values)
    if isinstance(kernel, CuckerSmaleKernel):
        if not m.is_phase_space:
            raise DimensionError("Cucker-Smale coupling needs a phase-space ensemble")
        dx = np.atleast_1d(np.asarray(x, dtype=float))[None, :] - m.positions
        dv = np.atleast_1d(np.asarray(v, dtype=float))[None, :] - m.velocities
        gx = np.sum(m.weights[:, None] * kernel.grad_x(dx, dv), axis=0)
        gv = np.sum(m.weights[:, None] * kernel.grad_v(dx, dv), axis=0)
        return gx, gv
    pos = m.positions
    x = np.asarray(x, dtype=float)
    if np.ndim(x) == 0:
        x = x[None]
    if x.shape[-1] != pos.shape[1]:
        raise DimensionError(f"query has {x.shape[-1]} coordinates, ensemble has {pos.shape[1]}")
    return np.sum(m.weights[:, None] * kernel.gradient(x[None, :] - pos), axis=0)


@dataclass(frozen=True)
class CouplingValidationReport:
    """Sampled verification of the structural assumptions on F(x, m)."""

    c0: float
    lipschitz_ok: bool
    growth_ok: bool
    semiconcave_ok: bool
    lipschitz_constant: float
    growth_constant: float
    semiconcavity_constant: float
    witness: dict | None
    seed: int
    budget: int


#: a sampled constant above this cap is treated as "unbounded" (assumption fails)
VALIDATOR_CAP = 1e3


def validate_coupling(kernel, budget: int = 2000, seed: int = 0, span: float = 5.0) -> CouplingValidationReport:
    """Randomized sampling check of Lipschitz / growth / semiconcavity of F.

    A pass means "no counterexample at this budget"; the report records
    the seed and the tightest sampled constants.  Position-space kernels
    only (the Cucker-Smale coupling obeys different, quadratic bounds).
    """
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("validate_coupling applies to position-space kernels only")
    if budget < 1000:
        raise ValueError("budget must be at least 1000 sample triples")
    rng = np.random.default_rng(seed)
    # small random atomic measures in 1D; constants of radial kernels are
    # dimension-independent and extreme near coincident atoms
    ensembles = [
        ParticleEnsemble.equal_weights(rng.uniform(-span, span, size=(rng.integers(1, 8), 1)), 1)
        for _ in range(8)
    ]
    lip = growth = sc = -np.inf
    witness = None
    for _ in range(budget):
        m = ensembles[rng.integers(len(ensembles))]
        if rng.random() < 0.25:
            # center the second difference on an atom: radial kernels
            # attain their extreme curvature ratios exactly at the kink
            x = m.positions[rng.integers(m.n)].copy()
        else:
            x = rng.uniform(-2 * span, 2 * span, size=1)
        y = rng.uniform(-2 * span, 2 * span, size=1)
        h = rng.choice([1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0]) * rng.choice([-1.0, 1.0])
        fx = eval_coupling(kernel, x, m)
        fy = eval_coupling(kernel, y, m)
        fp = eval_coupling(kernel, x + h, m)
        fm = eval_coupling(kernel, x - h, m)
        if abs(x[0] - y[0]) > 1e-9:
            lip = max(lip, abs(fx - fy) / abs(x[0] - y[0]))
        growth = max(growth, abs(fx) / (1.0 + abs(x[0])))
        ratio = (fp + fm - 2.0 * fx) / h**2
        if ratio > sc:
            sc = ratio
            if ratio > VALIDATOR_CAP:
                witness = {"x": float(x[0]), "h": float(h), "second_difference_ratio": float(ratio)}
    lipschitz_ok = lip <= VALIDATOR_CAP
    growth_ok = growth <= VALIDATOR_CAP
    semiconcave_ok = sc <= VALIDATOR_CAP
    c0 = max(1.0, lip, growth, sc if semiconcave_ok else 0.0)
    return CouplingValidationReport(
        c0=float(c0),
        lipschitz_ok=bool(lipschitz_ok),
        growth_ok=bool(growth_ok),
        semiconcave_ok=bool(semiconcave_ok),
        lipschitz_constant=float(lip),
        growth_constant=float(growth),
        semiconcavity_constant=float(sc),
        witness=witness,
        seed=seed,
        budget=budget,
    )


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of the Gram-matrix positive semidefiniteness probe."""

    is_psd: bool
    min_eigenvalue: float
    threshold: float
    points: np.ndarray

    @property
    def label(self) -> str:
        return "PSD-consistent" if self.is_psd else "NOT-PSD"


def psd_check(kernel, n_points: int = 64, seed: int = 0, points=None, span: float = 5.0) -> PsdVerdict:
    """Eigenvalue test of the Gram matrix k(x_i - x_j) on random 1D points.

    A negative eigenvalue below -1e-10 * ||K|| certifies that k is not a
    positive semidefinite kernel (so the MFG uniqueness/monotonicity
    structure is absent); otherwise the result is consistent with PSD.
    """
    if points is None:
        if not 2 <= n_points <= 512:
            raise ValueError("n_points must be in [2, 512]")
        rng = np.random.default_rng(seed)
        points = rng.uniform(-span, span, size=(n_points, 1))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diff = points[:, None, :] - points[None, :, :]
    gram = kernel.value(diff.reshape(-1, points.shape[1])).reshape(len(points), len(points))
    eigs = np.linalg.eigvalsh(gram)
    threshold = -1e-10 * max(np.abs(eigs).max(), 1e-300)
    return PsdVerdict(
        is_psd=bool(eigs.min() >= threshold),
        min_eigenvalue=float(eigs.min()),
        threshold=float(threshold),
        points=points,
    )
