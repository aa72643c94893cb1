"""Probability measure representations and Wasserstein-1 diagnostics.

Two concrete representations are used throughout the lab:

* :class:`GridDensity` -- cell-averaged densities on a uniform 1D grid,
  the natural object for the finite-difference / finite-volume solvers;
* :class:`ParticleEnsemble` -- weighted atoms in position space (d
  coordinates) or phase space (2d coordinates), the natural object for
  the characteristic / variational solvers.

All types are immutable after construction; operations are pure.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import DimensionError, GridError, TransportModeError

MASS_TOL_GRID = 1e-10
MASS_TOL_PARTICLES = 1e-12

#: largest N_a * N_b for which the exact transport LP is attempted
EXACT_W1_SIZE_CAP = 2**18


def _check_densities(values: np.ndarray, dx: float) -> None:
    """Raise ValueError unless every row of values is a finite, nonnegative, unit-mass density."""
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if np.any(values < 0):
        raise ValueError("density values must be nonnegative")
    mass = dx * values.sum(axis=-1)
    if np.any(np.abs(mass - 1.0) > MASS_TOL_GRID):
        raise ValueError(f"density mass {mass} deviates from 1 beyond {MASS_TOL_GRID}")


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative cell-averaged density on a uniform 1D grid with unit mass."""

    origin: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1D array")
        _check_densities(values, self.dx)
        values.setflags(write=False)

    @classmethod
    def from_unnormalized(cls, origin: float, dx: float, values) -> "GridDensity":
        v = np.clip(np.asarray(values, dtype=float), 0.0, None)
        total = dx * v.sum()
        if total <= 0:
            raise ValueError("cannot normalize a zero profile")
        return cls(origin, dx, v / total)

    @classmethod
    def gaussian(cls, center: float, sigma: float, origin: float, dx: float, n: int) -> "GridDensity":
        x = origin + (np.arange(n) + 0.5) * dx
        return cls.from_unnormalized(origin, dx, np.exp(-0.5 * ((x - center) / sigma) ** 2))

    @classmethod
    def uniform(cls, lo: float, hi: float, origin: float, dx: float, n: int) -> "GridDensity":
        x = origin + (np.arange(n) + 0.5) * dx
        profile = ((x >= lo) & (x < hi)).astype(float)
        return cls.from_unnormalized(origin, dx, profile)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def cell_centers(self) -> np.ndarray:
        return self.origin + (np.arange(self.n) + 0.5) * self.dx

    @property
    def cell_edges(self) -> np.ndarray:
        return self.origin + np.arange(self.n + 1) * self.dx

    def cdf(self) -> np.ndarray:
        """CDF at the right cell edges."""
        return np.cumsum(self.values) * self.dx

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            self.n == other.n
            and abs(self.dx - other.dx) < 1e-14 * self.dx
            and abs(self.origin - other.origin) < 1e-12 * max(1.0, abs(self.origin))
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,value\n")
        for x, v in zip(self.cell_centers, self.values):
            buf.write(f"{float(x)!r},{float(v)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GridDensity":
        rows = [line for line in text.strip().splitlines()[1:] if line]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        x, v = data[:, 0], data[:, 1]
        dx = float(x[1] - x[0])
        return cls(float(x[0]) - 0.5 * dx, dx, v)


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted atoms in R^d (position space) or R^{2d} (phase space)."""

    points: np.ndarray
    weights: np.ndarray
    spatial_dim: int

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if not np.all(np.isfinite(points)):
            raise ValueError("all points must be finite")
        if weights.ndim != 1 or weights.size != points.shape[0]:
            raise ValueError("weights must be 1D and match the number of points")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > MASS_TOL_PARTICLES:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        d_total = points.shape[1]
        if d_total not in (self.spatial_dim, 2 * self.spatial_dim):
            raise DimensionError(
                f"points have {d_total} coordinates; expected {self.spatial_dim} or {2 * self.spatial_dim}"
            )
        points.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d_total(self) -> int:
        return self.points.shape[1]

    @property
    def is_phase_space(self) -> bool:
        return self.d_total == 2 * self.spatial_dim

    @property
    def positions(self) -> np.ndarray:
        return self.points[:, : self.spatial_dim]

    @property
    def velocities(self) -> np.ndarray:
        if not self.is_phase_space:
            raise DimensionError("ensemble carries no velocity block")
        return self.points[:, self.spatial_dim :]

    @classmethod
    def equal_weights(cls, points, spatial_dim: int) -> "ParticleEnsemble":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n), spatial_dim)

    def to_csv(self) -> str:
        d = self.spatial_dim
        cols = [f"x{i + 1}" for i in range(d)]
        if self.is_phase_space:
            cols += [f"v{i + 1}" for i in range(d)]
        cols.append("w")
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for p, w in zip(self.points, self.weights):
            buf.write(",".join(repr(float(c)) for c in p) + f",{float(w)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ParticleEnsemble":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        d = sum(1 for c in header if c.startswith("x"))
        data = np.array([[float(c) for c in row.split(",")] for row in lines[1:] if row])
        return cls(data[:, :-1], data[:, -1], d)


@dataclass(frozen=True)
class MeasurePath:
    """Time-indexed flow of measures, homogeneous in representation."""

    times: np.ndarray
    measures: tuple = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "measures", tuple(self.measures))
        if times.ndim != 1 or times.size != len(self.measures):
            raise ValueError("times must be 1D and match the number of measures")
        if times.size == 0:
            raise ValueError("empty path")
        if abs(times[0]) > 1e-14:
            raise ValueError("path must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time nodes must be strictly increasing")
        kinds = {type(m) for m in self.measures}
        if len(kinds) > 1:
            raise ValueError("mixed measure representations along a path")
        times.setflags(write=False)

    def __len__(self) -> int:
        return len(self.measures)

    def at(self, t: float):
        """Measure at the node closest to t."""
        return self.measures[int(np.argmin(np.abs(self.times - t)))]


def moment2(m, selector: str = "all") -> float:
    """Second moment of |selected coordinates|^2 under m.

    selector is "all" (every coordinate) or "velocity" (the velocity
    block of a phase-space ensemble).
    """
    if isinstance(m, GridDensity):
        if selector == "velocity":
            raise DimensionError("grid densities carry no velocity block")
        x = m.cell_centers
        return float(m.dx * np.sum(m.values * x**2))
    if selector == "velocity":
        coords = m.velocities
    elif selector == "all":
        coords = m.points
    else:
        raise ValueError(f"unknown selector {selector!r}")
    return float(np.sum(m.weights * np.sum(coords**2, axis=1)))


def rebin(m: GridDensity, origin: float, dx: float, n: int) -> GridDensity:
    """Mass-conservative rebinning onto a new uniform grid.

    Each old cell's mass is split among new cells in proportion to the
    overlap length, so total mass is preserved exactly.
    """
    new_vals = np.zeros(n)
    old_edges = m.cell_edges
    new_left = origin
    new_right = origin + n * dx
    for j in range(m.n):
        lo, hi = old_edges[j], old_edges[j + 1]
        mass = m.values[j] * m.dx
        if mass == 0.0:
            continue
        if hi <= new_left or lo >= new_right:
            raise GridError("old cell carries mass outside the new grid")
        i0 = max(int(np.floor((lo - origin) / dx)), 0)
        i1 = min(int(np.ceil((hi - origin) / dx)), n)
        for i in range(i0, i1):
            a = max(lo, origin + i * dx)
            b = min(hi, origin + (i + 1) * dx)
            if b > a:
                new_vals[i] += mass * (b - a) / (hi - lo)
    covered = new_vals.sum() * 1.0
    if abs(covered - m.values.sum() * m.dx) > 1e-9:
        raise GridError("rebinning lost mass; new grid does not cover the support")
    return GridDensity(origin, dx, new_vals / (new_vals.sum() * dx))


def _common_grid(a: GridDensity, b: GridDensity):
    dx = min(a.dx, b.dx)
    origin = min(a.origin, b.origin)
    right = max(a.cell_edges[-1], b.cell_edges[-1])
    n = int(np.ceil((right - origin) / dx - 1e-12))
    return origin, dx, n


def wasserstein1_1d(a: GridDensity, b: GridDensity) -> float:
    """W1 distance between two 1D grid densities, via the CDF formula."""
    if not a.same_grid(b):
        origin, dx, n = _common_grid(a, b)
        a = rebin(a, origin, dx, n)
        b = rebin(b, origin, dx, n)
    return float(a.dx * np.sum(np.abs(a.cdf() - b.cdf())))


def _w1_sorted_1d(xa, wa, xb, wb) -> float:
    """Exact W1 between two weighted atomic measures on the line."""
    order_a = np.argsort(xa, kind="stable")
    order_b = np.argsort(xb, kind="stable")
    xa, wa = xa[order_a], wa[order_a]
    xb, wb = xb[order_b], wb[order_b]
    # integrate |F_a - F_b| over the merged support
    xs = np.concatenate([xa, xb])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    deltas = np.concatenate([wa, -wb])[order]
    cdf_diff = np.cumsum(deltas)[:-1]
    return float(np.sum(np.abs(cdf_diff) * np.diff(xs)))


def _w1_exact_lp(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.sqrt(np.sum(diff**2, axis=2))
    na, nb = a.n, b.n
    # row marginals then column marginals of the transport plan
    rows_i = np.repeat(np.arange(na), nb)
    cols_j = np.tile(np.arange(nb), na)
    var = np.arange(na * nb)
    A = sparse.coo_matrix(
        (
            np.ones(2 * na * nb),
            (np.concatenate([rows_i, na + cols_j]), np.concatenate([var, var])),
        ),
        shape=(na + nb, na * nb),
    ).tocsr()
    rhs = np.concatenate([a.weights, b.weights])
    res = linprog(cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein1_particles(
    a: ParticleEnsemble,
    b: ParticleEnsemble,
    mode: str = "auto",
    seed: int = 0,
    n_slices: int = 64,
) -> float:
    """W1 distance between particle ensembles.

    Exact mode solves the discrete transport LP (size capped at
    2^18 coupling variables); sliced mode averages exact 1D distances
    over seeded random projections.
    """
    if a.d_total != b.d_total:
        raise DimensionError(f"dimension mismatch: {a.d_total} vs {b.d_total}")
    size = a.n * b.n
    if mode == "auto":
        mode = "exact" if size <= EXACT_W1_SIZE_CAP else "sliced"
    if mode == "exact":
        if size > EXACT_W1_SIZE_CAP:
            raise TransportModeError(
                f"exact mode capped at {EXACT_W1_SIZE_CAP} couplings, got {size}; use sliced mode"
            )
        if a.d_total == 1:
            return _w1_sorted_1d(a.points[:, 0], a.weights, b.points[:, 0], b.weights)
        return _w1_exact_lp(a, b)
    if mode != "sliced":
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_slices):
        u = rng.standard_normal(a.d_total)
        u /= np.linalg.norm(u)
        total += _w1_sorted_1d(a.points @ u, a.weights, b.points @ u, b.weights)
    return total / n_slices
