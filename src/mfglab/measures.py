"""Probability measure representations and Wasserstein-1 diagnostics.

Two concrete representations are used throughout the lab:

* :class:`GridDensity` -- cell-averaged densities on a uniform 1D grid,
  the natural object for the finite-difference / finite-volume solvers;
* :class:`ParticleEnsemble` -- weighted atoms on the line, in position
  space (x) or phase space (x, v), the natural object for the
  characteristic / variational solvers.

All types hold read-only copies of their arrays (``_freeze``); operations
are pure.  The limit solvers step in ``_march`` on ``_n_steps``, the clock
of every march, keeping the nodes their caller names, and both MFG fixed
points iterate in ``_anderson``;
``_exp_trapezoid_weights`` integrates against the discount e^(-lam t) on nodes.
W1 is exact or refused: the CDF formula on one grid, the sorted formula
on the line, an optimal assignment between equal-weight phase-space flocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GridError, ParameterError

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
        _finite(origin=self.origin)
        _positive_finite(dx=self.dx)
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
        return _on_grid(other, self.origin, self.dx, self.n)

    def to_csv(self) -> str:
        return _csv_table(["x", "value"], zip(self.cell_centers.tolist(), self.values.tolist()))


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
        if not abs(weights.sum() - 1.0) <= MASS_TOL_PARTICLES:  # false for a NaN or inf sum too
            raise ValueError(f"weights must be finite and sum to 1, got sum {float(weights.sum())!r}")

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
        if n == 0:
            raise ValueError("equal_weights needs at least one point")
        return cls(points, np.full(n, 1.0 / n), spatial_dim)

    def _csv_columns(self) -> list:
        """Column names of one atom: coordinates, then the weight."""
        return ["x1", "v1", "w"] if self.is_phase_space else ["x1", "w"]

    def to_csv(self) -> str:
        rows = (p + [w] for p, w in zip(self.points.tolist(), self.weights.tolist()))
        return _csv_table(self._csv_columns(), rows)


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
        """The measure at the kept node within 1e-9 max(1, |t|) of t; any other t raises ValueError."""
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t = {t} is not a kept node of this path; the nearest kept time is {self.times[i]}")
        return self.measures[i]


def _on_grid(m: GridDensity, origin: float, dx: float, n: int) -> bool:
    """Whether m has the n cells of width dx from origin, up to 1e-14 dx and 1e-12 max(1, |origin|) of that grid."""
    return m.n == n and abs(m.dx - dx) < 1e-14 * dx and abs(m.origin - origin) < 1e-12 * max(1.0, abs(origin))


def _finite(**values) -> None:
    """Raises ParameterError naming the first keyword value that is not finite."""
    for name, value in values.items():
        if not -np.inf < value < np.inf:
            raise ParameterError(name, f"{name} must be finite, got {value}")


def _positive_finite(**values) -> None:
    """Raises ParameterError naming the first keyword value that is not positive and finite."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ParameterError(name, f"{name} must be positive and finite, got {value}")


def _n_steps(T: float, dt: float) -> int:
    """The clock of every time march: round(T / dt) steps of dt, node j at time j * dt; bad T or dt raise ValueError."""
    _positive_finite(T=T, dt=dt)
    if not 0.5 < T / dt < np.inf:  # round() takes 0.5 to 0 steps
        raise ParameterError("dt", f"T / dt must round to at least one step and stay finite, got T = {T}, dt = {dt}")
    return round(T / dt)


#: Taylor coefficients of (1 - e^-z (1 + z)) / z^2 = sum_k (-1)^k (k+1)/(k+2)! z^k, highest power first
_I1_SERIES = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(15, -1, -1)]


def _exp_trapezoid_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Product-trapezoid weights w, (K+1,), of int e^(-lam t) f(t) dt over the nodes times: w @ f(times) integrates
    the piecewise-linear interpolant of f exactly against e^(-lam t), lam > 0.

    On a step [t_j, t_j + h], z = lam h, the moments i0 = (1 - e^-z) / lam and i1 = (1 - e^-z (1 + z)) / lam^2 of
    e^(-lam s) on [0, h] give node j the weight (i0 - i1/h) e^(-lam t_j) and node j+1 the weight (i1/h) e^(-lam t_j).
    i1 cancels as z -> 0, so below z = 1/2 i1/h = h (1/2 - z/3 + z^2/8 - ...) comes from 16 terms of its series
    (the first term left out is below 1e-19 of the sum; the closed form loses about 2e-16 / z relative above).
    """
    h = np.diff(times)
    z = lam * h
    small = z < 0.5
    zc = np.where(small, 1.0, z)  # the closed form, on the large steps only
    right = h * np.where(small, np.polyval(_I1_SERIES, z), (-np.expm1(-zc) - zc * np.exp(-zc)) / zc**2)
    left = -np.expm1(-z) / lam - right
    decay = np.exp(-lam * times[:-1])
    w = np.zeros(times.size)
    w[:-1] += left * decay
    w[1:] += right * decay
    return w


def _march(m0, state, step, snapshot, T: float, dt: float, nodes=None) -> MeasurePath:
    """The stepping loop of every limit solver: state = step(state, j * dt) for j = 1..n = _n_steps(T, dt); the
    path keeps node 0 (m0) and the node indices in nodes, each as snapshot(state); nodes = None keeps node 0 and
    node n.  nodes must be integers increasing strictly within [0, n]; any other entry raises ValueError."""
    n = _n_steps(T, dt)
    keep = [n] if nodes is None else list(nodes)
    for i, j in enumerate(keep):
        if not (isinstance(j, (int, np.integer)) and (keep[i - 1] if i else -1) < j <= n):
            raise ValueError(f"nodes must be integers increasing strictly from 0 to n = {n}, not {j!r} at position {i}")
    kept, snaps = set(keep), {0: m0}  # node -> measure
    for j in range(1, n + 1):
        state = step(state, j * dt)
        if j in kept:
            snaps[j] = snapshot(state)
    return MeasurePath(dt * np.array(list(snaps)), list(snaps.values()))


def _anderson(x, evaluate, tolerance: float, max_evaluations: int, depth: int = 1):
    """The fixed point of both MFG systems: Anderson type II (Walker & Ni, SINUM 2011), no damping.
    evaluate(x) returns (f, g, size, kept): the image g of x, f = g - x (it may write f into x's buffer), the size
    of f and what to keep of x.  At depth 1 the next x is g - gamma (g - g_prev), gamma = argmin |f - gamma (f -
    f_prev)|, formed in f_prev's buffer.  At depth m > 1 it is g - dG gamma over the last m differences dF, dG of
    the f and the g, gamma = argmin |f - dF gamma| from the Gram system dF^T dF gamma = dF^T f; the differences
    live in two (m, *shape) ring buffers.  Where the size rose the next x is the half step g - f/2, which drops the
    whole history, so the step after it is plain (to a copy of g).  Steps write into f buffers, the rings or a copy
    of g, never into a g.  Stops once size <= tolerance (or is NaN), or after max_evaluations evaluations; returns
    the kept value of the first smallest size, every size in order and the count of half steps."""
    sizes, best, half_steps, g_prev, spare = [], None, 0, None, None  # spare: the f of g_prev
    rings, count = None, 0  # depth > 1: the (dF, dG) ring buffers and the differences they hold
    while True:
        f, g, size, kept = evaluate(x)
        sizes.append(size)
        if best is None or size < best[0]:
            best = (size, kept)
        if not size > tolerance or len(sizes) >= max_evaluations:
            return best[1], sizes, half_steps
        if len(sizes) >= 2 and size > sizes[-2]:
            half_steps += 1
            x, g_prev, count = np.subtract(g, np.multiply(f, 0.5, out=f), out=f), None, 0
            continue
        if g_prev is None:
            spare = g.copy()  # no history: a plain step, to a copy of g, which evaluate may overwrite as x
        elif depth == 1:
            df = np.subtract(f, spare, out=spare)
            gamma = np.vdot(f, df) / (np.vdot(df, df) or 1.0)
            np.subtract(g, g_prev, out=spare)
            spare *= -gamma
            spare += g
        else:
            if rings is None:
                rings = np.empty((2, depth, *f.shape))
            dfs, dgs = rings
            np.subtract(f, spare, out=dfs[count % depth])
            np.subtract(g, g_prev, out=dgs[count % depth])
            count += 1
            k = min(count, depth)
            df = dfs[:k].reshape(k, -1)
            gram, fit = df @ df.T, df @ f.ravel()
            try:
                gamma = np.linalg.solve(gram, fit)
            except np.linalg.LinAlgError:  # linearly dependent differences: the least-norm gamma
                gamma = np.linalg.lstsq(gram, fit, rcond=None)[0]
            np.einsum("i,i...->...", gamma, dgs[:k], out=spare)  # dG gamma, into the f of g_prev
            np.subtract(g, spare, out=spare)
        x, spare, g_prev = spare, f, g


def moment2(m, selector: str = "all") -> float:
    """Second moment of |selected coordinates|^2 under m.

    selector is "all" (every coordinate) or "velocity" (the velocity
    block of a phase-space ensemble).
    """
    if selector not in ("all", "velocity"):
        raise ValueError(f"unknown selector {selector!r}")
    if isinstance(m, GridDensity):
        if selector == "velocity":
            raise DimensionError("grid densities carry no velocity block")
        x = m.cell_centers
        return float(m.dx * np.sum(m.values * x**2))
    coords = m.velocities if selector == "velocity" else m.points
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


def _check_exact_w1(m: ParticleEnsemble) -> None:
    """Admit flock m to the exact phase-space W1: equal weights, and an (n, n) cost matrix within EXACT_W1_SIZE_CAP."""
    w, n = m.weights, m.n
    if np.any(w != w[0]):
        raise ValueError(f"phase-space W1 takes equal weights, not weights {w.min()} to {w.max()} on {n} atoms")
    if n * n > EXACT_W1_SIZE_CAP:
        raise ValueError(f"phase-space W1 of {n} atoms needs {n} * {n} costs, above EXACT_W1_SIZE_CAP = "
                         f"{EXACT_W1_SIZE_CAP}")


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column matched to each row in a least-cost perfect matching of the square matrix cost.

    Shortest augmenting paths on reduced costs c_ij - u_i - v_j >= 0 (Jonker & Volgenant, Computing
    38, 1987, without their auction-like reduction phases).  The row reduction u_i = min_j c_ij matches
    each row to its least-cost column unless an earlier row took it; every other row then runs one
    Dijkstra search over the columns that stops at a free column (on a tie, a free one first), the
    duals move so that each matched pair stays tight, and the path flips.  Each step of a search
    settles one column, so a search ends within n steps whatever the rounding.  Near flocks (a flock
    and its limit at the same time) leave few rows to search.
    """
    n = len(cost)
    u = cost.min(axis=1)
    v = np.zeros(n)
    row_of = np.full(n, -1)
    col_of = np.full(n, -1)
    cols, rows = np.unique(cost.argmin(axis=1), return_index=True)
    row_of[cols] = rows
    col_of[rows] = cols
    for start in np.flatnonzero(col_of < 0):
        dist = np.full(n, np.inf)  # least reduced cost of a path from start to each column
        pred = np.zeros(n, dtype=np.intp)  # the row before each column on that path
        settled = np.zeros(n, dtype=bool)
        i, base = start, 0.0
        while True:
            reach = base + cost[i] - u[i] - v
            better = (reach < dist) & ~settled
            dist[better] = reach[better]
            pred[better] = i
            open_dist = np.where(settled, np.inf, dist)
            base = open_dist.min()
            ties = np.flatnonzero(open_dist == base)
            free = ties[row_of[ties] < 0]
            j = free[0] if free.size else ties[0]
            settled[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        done = np.flatnonzero(settled)
        reached = done[done != j]
        u[start] += base
        u[row_of[reached]] += base - dist[reached]
        v[done] -= base - dist[done]
        while True:  # flip the path that ends at the free column j
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def wasserstein1_particles(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """W1 distance between particle ensembles, exact or refused.

    On the line: the sorted CDF formula, for any weights and sizes.  In phase space: two flocks of
    the same N equal-weight atoms, whose optimal plan is a permutation, so W1 is the optimal
    assignment on the (N, N) Euclidean cost (``_assignment``); other sizes or weights, or N * N
    above EXACT_W1_SIZE_CAP, raise ValueError.
    """
    if a.d_total != b.d_total:
        raise DimensionError(f"dimension mismatch: {a.d_total} vs {b.d_total}")
    if a.d_total == 1:
        return _w1_sorted_1d(a.points[:, 0], a.weights, b.points[:, 0], b.weights)
    n = a.n
    if b.n != n:
        raise ValueError(f"phase-space W1 compares flocks of one size, not {n} and {b.n} atoms")
    for m in (a, b):
        _check_exact_w1(m)
    cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    return float(cost[np.arange(n), _assignment(cost)].sum() / n)
