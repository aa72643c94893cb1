"""1D solver for the discounted MFG system on a truncated domain.

Backward HJB with discount lambda and vanishing viscosity nu_lambda:

    -du/dt - nu Lap u + lam u + lam^-1 H(lam Du, x) = F(x, m(t)),  u(T) = 0,

coupled to the forward Fokker-Planck transport of the density

    dm/dt - nu Lap m - div(m D_pH(lam Du, x)) = 0,   m(0) = m0.

The infinite-horizon system is approximated on [0, T] with terminal
condition u(T) = 0; diagnostics downstream exclude the terminal layer.

Scheme
------
* discount term integrated exactly per step (integrating factor
  exp(-lam dt)), so dt is constrained by the advective CFL only;
* Godunov upwinding on the quadratic part of H, simple upwinding on the
  drift part: a monotone scheme selecting the viscosity solution;
* diffusion implicit (tridiagonal solves), homogeneous Neumann walls;
* conservative upwind finite volumes for the density: mass conserved to
  solver precision, nonnegativity preserved under the CFL bound;
* F = k*m for a whole HJB sweep is one product of the (n_steps+1, n_x)
  density stack with the matrix dx * k(x_i - x_j);
* the fixed-point loop runs on raw stacks: fp_forward returns one, checked
  once as a whole; GridDensity/MeasurePath are built only for MfgSolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import BoundaryLeakError, CflError, GridError, StabilityError
from .hamiltonians import QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, _grid_matrix
from .measures import GridDensity, MeasurePath, _check_densities

BOUNDARY_MASS_TOL = 1e-7


@dataclass(frozen=True)
class PdeConfig:
    """Discretization and fixed-point parameters for one MFG solve."""

    lam: float
    T: float = 1.0
    half_width: float = 6.0
    n_x: int = 256
    dt: float = 1e-3
    nu: float | None = None  # None -> schedule nu = lam**-0.5
    mode: str = "damped-picard"
    theta: float = 0.5
    max_iterations: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("lam", "T", "dt", "half_width", "nu", "tolerance"):
            if not np.isfinite(getattr(self, name) or 0.0):  # nu = None selects the schedule
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.T <= 0 or self.dt <= 0 or self.half_width <= 0 or self.n_x < 8:
            raise ValueError("invalid discretization parameters")
        if self.nu is not None and self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if self.mode not in ("damped-picard", "fictitious-play"):
            raise ValueError(f"unknown fixed-point mode {self.mode!r}")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")

    @property
    def viscosity(self) -> float:
        return self.lam**-0.5 if self.nu is None else self.nu

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_x

    @property
    def n_steps(self) -> int:
        return max(1, round(self.T / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @property
    def cell_centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.n_x) + 0.5) * self.dx


@dataclass(frozen=True)
class MfgSolution:
    """Solution pair of one fixed-point solve."""

    config: PdeConfig
    u_path: np.ndarray  # (n_steps+1, n_x)
    m_path: MeasurePath
    iterations: int
    residual: float
    converged: bool
    residual_history: tuple = field(default=(), repr=False)


def _neumann_laplacian(n: int, dx: float) -> sparse.csc_matrix:
    """FV Neumann Laplacian: symmetric, zero row sums (conservative)."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sparse.diags([off, main, off], [-1, 0, 1], format="csc") / dx**2


class _DiffusionSolver:
    """Cached LU factorization of (I - dt * nu * Lap)."""

    def __init__(self, n: int, dx: float, dt: float, nu: float):
        self.active = nu > 0
        if self.active:
            lap = _neumann_laplacian(n, dx)
            self._lu = splu((sparse.identity(n, format="csc") - dt * nu * lap).tocsc())

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs) if self.active else rhs


def _on_grid(kernel, m, x: np.ndarray, gradient: bool) -> np.ndarray:
    y, dx, values = (m.cell_centers, m.dx, m.values) if isinstance(m, GridDensity) else (x, x[1] - x[0], m)
    return values @ _grid_matrix(kernel, x, y, dx, gradient).T


def coupling_on_grid(kernel, m: GridDensity | np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x_i, m) = (k*m)(x_i) by grid quadrature, vectorized in x; m is a GridDensity, or
    an (n_nodes, n) stack of cell values on the grid whose centres are x (one row per node)."""
    return _on_grid(kernel, m, x, gradient=False)


def coupling_grad_on_grid(kernel, m: GridDensity | np.ndarray, x: np.ndarray) -> np.ndarray:
    """D_x F(x_i, m) = (Dk*m)(x_i) with the Dk(0)=0 kink convention; m as above."""
    return _on_grid(kernel, m, x, gradient=True)


def _grid_values(cfg: PdeConfig, m, what: str) -> np.ndarray:
    on_grid = isinstance(m, GridDensity) and m.n == cfg.n_x and abs(m.dx - cfg.dx) < 1e-14 * cfg.dx
    if not (on_grid and abs(m.origin + cfg.half_width) < 1e-12 * max(1.0, cfg.half_width)):
        raise GridError(f"{what} is not on the config's grid of {cfg.n_x} cells over +-{cfg.half_width}")
    return m.values


def _godunov_quadratic(p_minus: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    """Godunov flux for p -> p^2/2 (convex, minimum at 0)."""
    return 0.5 * np.maximum(np.maximum(p_minus, 0.0) ** 2, np.minimum(p_plus, 0.0) ** 2)


def hjb_backward(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    kernel,
    m_path: MeasurePath | np.ndarray,
) -> np.ndarray:
    """Backward semi-implicit sweep; returns u on the full (time, space) grid.
    m_path is a MeasurePath on the config's grid, or its raw (n_steps+1, n_x) stack."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the 1D MFG solver takes a position-space kernel")
    if isinstance(m_path, MeasurePath):
        m_path = np.stack([_grid_values(cfg, m, "m_path") for m in m_path.measures])
    if len(m_path) != cfg.n_steps + 1:
        raise ValueError("m_path must live on the solver's time grid")
    lam, dt, dx, nu = cfg.lam, cfg.dt, cfg.dx, cfg.viscosity
    x = cfg.cell_centers
    v = ham.drift(x)
    diffuse = _DiffusionSolver(cfg.n_x, dx, dt, nu)
    decay = np.exp(-lam * dt)
    source_gain = (1.0 - decay) / lam

    F_nodes = coupling_on_grid(kernel, m_path, x)

    u = np.zeros((cfg.n_steps + 1, cfg.n_x))
    for j in range(cfg.n_steps - 1, -1, -1):
        un = u[j + 1]
        # one-sided gradients with Neumann ghosts (zero slope at the walls)
        p_minus = np.empty_like(un)
        p_plus = np.empty_like(un)
        p_minus[1:] = (un[1:] - un[:-1]) / dx
        p_minus[0] = 0.0
        p_plus[:-1] = (un[1:] - un[:-1]) / dx
        p_plus[-1] = 0.0
        # lam^-1 H(lam Du, x) = (lam/2)|Du|^2 - v(x).Du, upwinded
        a = -v  # advection speed of the drift part
        ham_term = lam * _godunov_quadratic(p_minus, p_plus)
        ham_term += np.maximum(a, 0.0) * p_minus + np.minimum(a, 0.0) * p_plus
        rhs = F_nodes[j + 1] - ham_term
        u_new = decay * un + source_gain * rhs
        u_new = diffuse(u_new)
        if not np.all(np.isfinite(u_new)):
            speed = np.max(np.abs(lam * np.maximum(np.abs(p_minus), np.abs(p_plus)) + np.abs(v)))
            raise StabilityError(
                f"HJB sweep produced non-finite values at step {j}; "
                f"advective CFL requires dt <= dx/max|lam Du - v| = {dx / max(speed, 1e-300):.3e}"
            )
        u[j] = u_new
    return u


def gradient_centered(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered Du on cell centers, one-sided at the walls."""
    return np.gradient(u, dx, axis=-1)


def transport_step(
    m: np.ndarray,
    b_interface: np.ndarray,
    dt: float,
    dx: float,
    diffuse: _DiffusionSolver,
) -> np.ndarray:
    """One conservative upwind FV step with zero-flux walls.

    b_interface has n_x - 1 entries (interior interfaces).  Explicit
    upwind advection under CFL, then implicit diffusion; both stages
    conserve mass and keep the density nonnegative.
    """
    cfl = np.max(np.abs(b_interface)) * dt / dx if b_interface.size else 0.0
    if cfl > 1.0:
        raise CflError(f"advective CFL violated: max|b| dt/dx = {cfl:.3f} > 1")
    flux = np.maximum(b_interface, 0.0) * m[:-1] + np.minimum(b_interface, 0.0) * m[1:]
    out = m.copy()
    out[:-1] -= dt / dx * flux
    out[1:] += dt / dx * flux
    out = diffuse(out)
    # implicit diffusion is an M-matrix solve; clip pure roundoff noise
    np.clip(out, 0.0, None, out=out)
    return out


def fp_forward(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    u_path: np.ndarray,
    m0: GridDensity,
) -> np.ndarray:
    """Forward transport of m0 along the drift -D_pH(lam Du, x); returns the (n_steps+1, n_x) stack."""
    lam, dt, dx, nu = cfg.lam, cfg.dt, cfg.dx, cfg.viscosity
    x_int = cfg.cell_centers[:-1] + 0.5 * dx
    v_int = ham.drift(x_int)
    diffuse = _DiffusionSolver(cfg.n_x, dx, dt, nu)

    m = np.empty((cfg.n_steps + 1, cfg.n_x))
    m[0] = _grid_values(cfg, m0, "initial density")
    for j in range(cfg.n_steps):
        du_int = (u_path[j, 1:] - u_path[j, :-1]) / dx
        b = v_int - lam * du_int  # -D_pH(lam Du, x) = v - lam Du
        step = transport_step(m[j], b, dt, dx, diffuse)
        m[j + 1] = step / (step.sum() * dx)  # remove roundoff drift; O(1e-15) per step
    _check_densities(m, dx)
    boundary_mass = (m[-1, 0] + m[-1, -1]) * dx
    if boundary_mass > BOUNDARY_MASS_TOL:
        raise BoundaryLeakError(f"boundary cells carry {boundary_mass:.2e} mass; enlarge half_width")
    return m


def solve_mfg_fixed_point(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
) -> MfgSolution:
    """Iterate m -> u = HJB(m) -> m+ = FP(u) to a fixed point.

    Damped Picard by default (switching to fictitious-play averaging if
    the residual increases twice); non-convergence returns the best
    iterate flagged, never raises.
    """
    # warm start: best response to the frozen initial density
    frozen = np.tile(m0.values, (cfg.n_steps + 1, 1))
    m_curr = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, frozen), m0)
    nodes = np.unique(np.linspace(0, cfg.n_steps, 9).astype(int))  # residual: max W1 over these
    mode = cfg.mode
    history = []
    increases = 0
    best = None
    for it in range(1, cfg.max_iterations + 1):
        u_path = hjb_backward(cfg, ham, kernel, m_curr)
        m_plus = fp_forward(cfg, ham, u_path, m0)
        cdf_gap = np.cumsum(m_curr[nodes], axis=1) * cfg.dx - np.cumsum(m_plus[nodes], axis=1) * cfg.dx
        residual = float(np.max(cfg.dx * np.sum(np.abs(cdf_gap), axis=1)))
        history.append(residual)
        if best is None or residual <= best[0]:
            best = (residual, u_path, m_plus, it)
        if residual < cfg.tolerance:
            break  # best is this iterate: every earlier residual was >= tolerance
        if len(history) >= 2 and history[-1] > history[-2]:
            increases += 1
            if increases >= 2 and mode == "damped-picard":
                mode = "fictitious-play"
        theta = 1.0 / (it + 1.0) if mode == "fictitious-play" else cfg.theta
        m_curr *= 1.0 - theta  # in place: m_curr is never the stored best iterate
        m_curr += theta * m_plus
        m_curr /= m_curr.sum(axis=1, keepdims=True) * cfg.dx
    residual, u_path, m_path, it = best
    path = MeasurePath(cfg.times, [GridDensity(m0.origin, cfg.dx, row) for row in m_path])
    return MfgSolution(cfg, u_path, path, it, residual, residual < cfg.tolerance, tuple(history))
