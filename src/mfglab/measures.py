"""Probability measure representations and Wasserstein-1 diagnostics.

Two concrete representations are used throughout the lab:

* :class:`GridDensity` -- cell-averaged densities on a uniform 1D grid,
  the natural object for the finite-difference / finite-volume solvers;
* :class:`ParticleEnsemble` -- weighted atoms on the line, in position
  space (x) or phase space (x, v), the natural object for the
  characteristic / variational solvers.

All types hold read-only copies of their arrays (``_freeze``); operations
are pure.  Query points on the line enter through ``_line_points``.  The
limit solvers step in ``_march`` on ``_n_steps``, the clock of every march.
W1 is exact or refused: the CDF formula on one grid, the sorted formula
on the line, an optimal assignment between equal-weight phase-space flocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionError, GridError

MASS_TOL_GRID = 1e-10
MASS_TOL_PARTICLES = 1e-12

#: largest N * N cost matrix wasserstein1_particles builds for a phase-space assignment; larger flocks raise
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


def _freeze(obj, **arrays) -> tuple:
    """Store each array on the frozen dataclass obj as a read-only float copy, and return the copies:
    a value type never shares memory with its caller, so neither can change the other's array."""
    copies = tuple(np.array(value, dtype=float) for value in arrays.values())
    for name, copy in zip(arrays, copies):
        copy.setflags(write=False)
        object.__setattr__(obj, name, copy)
    return copies


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
        (values,) = _freeze(self, values=self.values)
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1D array")
        _check_densities(values, self.dx)

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
        points, weights = _freeze(self, points=points, weights=self.weights)
        if not np.all(np.isfinite(points)):
            raise ValueError("all points must be finite")
        if weights.ndim != 1 or weights.size != points.shape[0]:
            raise ValueError("weights must be 1D and match the number of points")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > MASS_TOL_PARTICLES:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")

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
        (times,) = _freeze(self, times=self.times)
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

    def __len__(self) -> int:
        return len(self.measures)

    def at(self, t: float):
        """Measure at the node closest to t."""
        return self.measures[int(np.argmin(np.abs(self.times - t)))]


def _positive_finite(**values) -> None:
    """Raises ValueError naming the first keyword value that is not positive and finite."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _n_steps(T: float, dt: float) -> int:
    """The clock of every time march: round(T / dt) steps of dt, node j at time j * dt; bad T or dt raise ValueError."""
    _positive_finite(T=T, dt=dt)
    if not 0.5 < T / dt < np.inf:  # round() takes 0.5 to 0 steps
        raise ValueError(f"T / dt must round to at least one step and stay finite, got T = {T}, dt = {dt}")
    return round(T / dt)


def _march(m0, state, step, snapshot, T: float, dt: float, save_every: int | None = None) -> MeasurePath:
    """The stepping loop of every limit solver: state = step(state, j * dt) for j = 1..n = _n_steps(T, dt); the
    path keeps node 0 (m0), every save_every-th node (about 512 by default) and the last, as snapshot(state)."""
    n = _n_steps(T, dt)
    save_every = max(1, n // 512) if save_every is None else save_every
    if not save_every >= 1:
        raise ValueError(f"save_every must be at least 1, got {save_every}")
    snaps = {0: m0}  # node -> measure
    for j in range(1, n + 1):
        state = step(state, j * dt)
        if j % save_every == 0 or j == n:
            snaps[j] = snapshot(state)
    return MeasurePath(dt * np.array(list(snaps)), list(snaps.values()))


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


def wasserstein1_1d(a: GridDensity, b: GridDensity) -> float:
    """W1 distance between two densities on one grid, via the CDF formula; grids that differ raise GridError."""
    if not a.same_grid(b):
        raise GridError(
            f"W1 compares densities on one grid, not (origin {a.origin}, dx {a.dx}, n {a.n}) "
            f"and (origin {b.origin}, dx {b.dx}, n {b.n})"
        )
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


def wasserstein1_particles(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """W1 distance between particle ensembles, exact or refused.

    On the line: the sorted CDF formula, for any weights and sizes.  In phase space: two flocks of
    the same N equal-weight atoms, whose optimal plan is a permutation, so W1 is the optimal
    assignment on the (N, N) Euclidean cost; other sizes or weights, or N * N above
    EXACT_W1_SIZE_CAP, raise ValueError.
    """
    if a.d_total != b.d_total:
        raise DimensionError(f"dimension mismatch: {a.d_total} vs {b.d_total}")
    if a.d_total == 1:
        return _w1_sorted_1d(a.points[:, 0], a.weights, b.points[:, 0], b.weights)
    n = a.n
    if b.n != n:
        raise ValueError(f"phase-space W1 compares flocks of one size, not {n} and {b.n} atoms")
    for m in (a, b):
        if np.any(m.weights != m.weights[0]):
            raise ValueError(
                f"phase-space W1 takes equal weights, not weights {m.weights.min()} to {m.weights.max()} on {n} atoms"
            )
    if n * n > EXACT_W1_SIZE_CAP:
        raise ValueError(
            f"phase-space W1 of {n} atoms needs {n} * {n} costs, above EXACT_W1_SIZE_CAP = {EXACT_W1_SIZE_CAP}"
        )
    cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)
