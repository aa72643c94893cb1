"""Probability measure representations and Wasserstein-1 diagnostics.

Two concrete representations are used throughout the lab:

* :class:`GridDensity` -- cell-averaged densities on a uniform 1D grid,
  the natural object for the finite-difference / finite-volume solvers;
* :class:`ParticleEnsemble` -- weighted atoms on the line, in position
  space (x) or phase space (x, v), the natural object for the
  characteristic / variational solvers.

All types are immutable after construction; operations are pure.
Query points on the line enter through ``_line_points``.
Particle W1 picks its method from the input alone: exact sorted on the
line, the transport LP up to EXACT_W1_SIZE_CAP couplings, sliced above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import DimensionError, GridError

MASS_TOL_GRID = 1e-10
MASS_TOL_PARTICLES = 1e-12

#: largest N_a * N_b for which wasserstein1_particles solves the exact transport LP (d > 1)
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


def _line_points(x, what: str) -> np.ndarray:
    """Query points on the line, a scalar, (n,) or (n, 1), as a float (n,) array;
    any other shape raises DimensionError naming ``what``."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2 or x.shape[1:] not in ((), (1,)):
        raise DimensionError(f"{what} takes points on the line, a scalar, (n,) or (n, 1), not {x.shape}")
    return x.reshape(-1)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_table(columns, rows) -> str:
    """CSV text: the header line, then one line per row (floats as repr, None as empty)."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (columns, *rows))


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
        return _csv_table(["x", "value"], zip(self.cell_centers.tolist(), self.values.tolist()))

    @classmethod
    def from_csv(cls, text: str) -> "GridDensity":
        rows = [line for line in text.strip().splitlines()[1:] if line]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        x, v = data[:, 0], data[:, 1]
        dx = float(x[1] - x[0])
        return cls(float(x[0]) - 0.5 * dx, dx, v)


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted atoms on the line: points (N,) or (N, 1) are positions, (N, 2) are (position,
    velocity) pairs, stored 2D; positions and velocities are (N, 1).  spatial_dim must be 1
    (the only valid value); any other layout raises DimensionError."""

    points: np.ndarray
    weights: np.ndarray
    spatial_dim: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        points = points[:, None] if points.ndim == 1 else points
        if self.spatial_dim != 1 or points.ndim != 2 or points.shape[1] not in (1, 2):
            raise DimensionError(
                f"atoms live on the line: points (N,), (N, 1) or (N, 2) at spatial_dim 1, "
                f"not {np.shape(self.points)} at spatial_dim {self.spatial_dim}"
            )
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
        return self.d_total == 2

    @property
    def positions(self) -> np.ndarray:
        return self.points[:, :1]

    @property
    def velocities(self) -> np.ndarray:
        if not self.is_phase_space:
            raise DimensionError("ensemble carries no velocity block")
        return self.points[:, 1:]

    @classmethod
    def equal_weights(cls, points, spatial_dim: int) -> "ParticleEnsemble":
        n = len(points) if np.ndim(points) else 1
        return cls(points, np.full(n, 1.0 / n), spatial_dim)

    def _csv_columns(self) -> list:
        """Column names of one atom: coordinates, then the weight."""
        return ["x1", "v1", "w"] if self.is_phase_space else ["x1", "w"]

    def to_csv(self) -> str:
        rows = (p + [w] for p, w in zip(self.points.tolist(), self.weights.tolist()))
        return _csv_table(self._csv_columns(), rows)

    @classmethod
    def from_csv(cls, text: str) -> "ParticleEnsemble":
        data = np.array([[float(c) for c in row.split(",")] for row in text.strip().splitlines()[1:] if row])
        return cls(data[:, :-1], data[:, -1], 1)


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

    A new cell takes the increment of the old CDF across its edges.  The
    density is piecewise constant, so that CDF is piecewise linear and
    each old cell's mass is split in proportion to the overlap length.
    """
    edges = m.cell_edges
    outside = (edges[1:] <= origin) | (edges[:-1] >= origin + n * dx)
    if np.any((m.values > 0) & outside):
        raise GridError("old cell carries mass outside the new grid")
    cdf = np.concatenate([[0.0], m.cdf()])
    mass = np.diff(np.interp(origin + np.arange(n + 1) * dx, edges, cdf))
    if abs(mass.sum() - cdf[-1]) > 1e-9:
        raise GridError("rebinning lost mass; new grid does not cover the support")
    return GridDensity(origin, dx, mass / (mass.sum() * dx))


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


def _w1_sliced(a: ParticleEnsemble, b: ParticleEnsemble, seed: int) -> float:
    """Mean of the exact 1D distances over 64 seeded random projections; a lower bound on W1."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(64):
        u = rng.standard_normal(a.d_total)
        u /= np.linalg.norm(u)
        total += _w1_sorted_1d(a.points @ u, a.weights, b.points @ u, b.weights)
    return total / 64


def wasserstein1_particles(a: ParticleEnsemble, b: ParticleEnsemble, seed: int = 0) -> float:
    """W1 distance between particle ensembles.

    Exact on the line at any size (sorted CDF formula).  Above one
    dimension: the exact transport LP up to EXACT_W1_SIZE_CAP coupling
    variables N_a * N_b, and above that the sliced estimate over 64
    projections drawn from seed.
    """
    if a.d_total != b.d_total:
        raise DimensionError(f"dimension mismatch: {a.d_total} vs {b.d_total}")
    if a.d_total == 1:
        return _w1_sorted_1d(a.points[:, 0], a.weights, b.points[:, 0], b.weights)
    if a.n * b.n <= EXACT_W1_SIZE_CAP:
        return _w1_exact_lp(a, b)
    return _w1_sliced(a, b, seed)
