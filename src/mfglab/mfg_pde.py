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
* diffusion implicit, homogeneous Neumann walls: I - dt nu Lap is symmetric
  positive definite and tridiagonal, factored once by LAPACK pttrf and solved
  in place by pttrs at every step;
* conservative upwind finite volumes for the density: mass conserved to
  solver precision, nonnegativity preserved while every cell's outflow
  dt/dx (max(b_right, 0) + max(-b_left, 0)) stays <= 1, checked per stack;
* F = k*m for a whole HJB sweep is one product of the (n_steps+1, n_x)
  density stack with the matrix dx * k(x_i - x_j);
* the density path is one (n_steps+1, n_x) stack throughout: fp_forward
  returns one, checked once as a whole, hjb_backward takes one, and
  MfgSolution.m_path is the best one, read-only;
* the fixed point: one scheme, Anderson mixing with a damped Picard safeguard,
  stopping on the W1 gap at every node; CFL and HJB monotonicity checked on
  whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import BoundaryLeakError, CflError, GridError, StabilityError
from .hamiltonians import QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, _grid_sum
from .measures import GridDensity, _check_densities

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
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")

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
    m_path: np.ndarray  # (n_steps+1, n_x) density stack, read-only
    iterations: int
    residual: float
    converged: bool
    fallbacks: int = 0  # damped Picard safeguard steps taken instead of Anderson steps
    residual_history: tuple = field(default=(), repr=False)
    fp_mass_correction: float = 0.0  # largest |dx sum - 1| that fp_forward divided out in the solve


class _DiffusionSolver:
    """Solves (I - dt nu Lap) y = rhs in place for a float64 row rhs, which it returns;
    Lap is the FV Neumann Laplacian (zero row sums: conservative) and nu = 0 the identity.  The
    matrix is symmetric positive definite and tridiagonal: LAPACK pttrf factors it once as
    L D L^T, and each call is one pttrs solve."""

    def __init__(self, n: int, dx: float, dt: float, nu: float):
        self.active = nu > 0
        if self.active:
            r = dt * nu / dx**2
            diag = np.full(n, 1.0 + 2.0 * r)
            diag[0] = diag[-1] = 1.0 + r
            self._d, self._e, _ = dpttrf(diag, np.full(n - 1, -r))

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        if self.active:
            solution, _ = dpttrs(self._d, self._e, rhs, overwrite_b=True)
            if solution is not rhs:  # a strided rhs is solved in a copy
                rhs[...] = solution
        return rhs


def coupling_on_grid(kernel, m: GridDensity | np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x_i, m) = (k*m)(x_i) by grid quadrature, vectorized in x; m is a GridDensity, or
    an (n_nodes, n) stack of cell values on the grid whose centres are x (one row per node)."""
    return _grid_sum(kernel, x, m)


def _grid_values(cfg: PdeConfig, m, what: str) -> np.ndarray:
    on_grid = isinstance(m, GridDensity) and m.n == cfg.n_x and abs(m.dx - cfg.dx) < 1e-14 * cfg.dx
    if not (on_grid and abs(m.origin + cfg.half_width) < 1e-12 * max(1.0, cfg.half_width)):
        raise GridError(f"{what} is not on the config's grid of {cfg.n_x} cells over +-{cfg.half_width}")
    return m.values


def hjb_backward(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    kernel,
    m_path: np.ndarray,
) -> np.ndarray:
    """Backward semi-implicit sweep; returns u on the full (time, space) grid.
    m_path is the (n_steps+1, n_x) density stack on the config's time grid and cells."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the 1D MFG solver takes a position-space kernel")
    shape = (cfg.n_steps + 1, cfg.n_x)
    if np.shape(m_path) != shape:
        raise ValueError(f"m_path must be the {shape} stack on the solver's time grid, got shape {np.shape(m_path)}")
    lam, dt, dx, nu = cfg.lam, cfg.dt, cfg.dx, cfg.viscosity
    x = cfg.cell_centers
    v = ham.drift(x)
    diffuse = _DiffusionSolver(cfg.n_x, dx, dt, nu)
    decay = np.exp(-lam * dt)
    source_gain = (1.0 - decay) / lam

    F_nodes = coupling_on_grid(kernel, m_path, x)

    # lam^-1 H(lam Du, x) = (lam/2)|Du|^2 - v(x).Du: Godunov on the quadratic part, upwind on the
    # drift part, whose advection speed -v splits once into its two signs
    a_plus, a_minus = np.maximum(-v, 0.0), np.minimum(-v, 0.0)
    u = np.zeros((cfg.n_steps + 1, cfg.n_x))
    grad = np.zeros(cfg.n_x + 1)  # one-sided differences between zero Neumann ghosts (no slope at the walls)
    p_minus, p_plus, inner = grad[:-1], grad[1:], grad[1:-1]
    ham_term, drift_term, work = np.empty(cfg.n_x), np.empty(cfg.n_x), np.empty(cfg.n_x)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught on the whole stack below
        for j in range(cfg.n_steps - 1, -1, -1):
            un = u[j + 1]
            np.divide(np.subtract(un[1:], un[:-1], out=inner), dx, out=inner)
            np.square(np.maximum(p_minus, 0.0, out=ham_term), out=ham_term)
            np.maximum(ham_term, np.square(np.minimum(p_plus, 0.0, out=work), out=work), out=ham_term)
            ham_term *= 0.5 * lam
            np.multiply(a_plus, p_minus, out=drift_term)
            drift_term += np.multiply(a_minus, p_plus, out=work)
            ham_term += drift_term
            rhs = np.subtract(F_nodes[j + 1], ham_term, out=ham_term)
            rhs *= source_gain
            u_new = np.multiply(un, decay, out=u[j])
            u_new += rhs
            diffuse(u_new)
    if not np.isfinite(u).all():
        j = np.flatnonzero(~np.isfinite(u).all(axis=1))[-1]  # the first step of the backward sweep to blow up
        speed = lam * np.max(np.abs(np.diff(u[j + 1]))) / dx + np.max(np.abs(v))
        raise StabilityError(
            f"HJB sweep produced non-finite values at step {j}; "
            f"advective CFL requires dt <= dx/max|lam Du - v| = {dx / max(speed, 1e-300):.3e}"
        )
    speed = np.subtract(u[:, 1:], u[:, :-1], out=F_nodes[:, :-1])  # becomes lam Du - v, in F's spent buffer
    speed *= lam / dx
    speed -= ham.drift(x[:-1] + 0.5 * dx)
    ratio = max(speed.max(), -speed.min()) * dt / dx
    if ratio > 1.0:
        raise StabilityError(f"HJB sweep is not monotone: dt max|lam Du - v| / dx = {ratio:.3e} > 1")
    return u


def _check_cfl(b: np.ndarray, dt: float, dx: float) -> None:
    """Raise CflError unless every cell's upwind outflow dt/dx (max(b_right, 0) + max(-b_left, 0)) is <= 1,
    the bound under which an explicit step keeps the cell nonnegative; a wall cell has one interface.

    b holds the n_x - 1 interior interface drifts of one step, or one row of them per step;
    64-row blocks keep the temporaries small.
    """
    if not b.size:
        return
    b = b.reshape(-1, b.shape[-1])
    worst = 0.0
    for rows in (b[i : i + 64] for i in range(0, len(b), 64)):
        out = np.maximum(rows, 0.0)  # out[:, i]: outflow of cell i through its right interface ...
        out[:, 1:] -= np.minimum(rows[:, :-1], 0.0)  # ... and through its left one
        worst = np.max([worst, out.max(), -rows[:, -1].min()])  # the last cell has only its left interface
    cfl = worst * dt / dx
    if not cfl <= 1.0:  # np.max keeps a NaN from the drift: a drift that is not finite bounds no outflow
        raise CflError(f"advective CFL violated: largest cell outflow dt/dx = {cfl:.3f}, not <= 1")


def transport_step(
    m: np.ndarray,
    b_interface: np.ndarray,
    dt: float,
    dx: float,
    diffuse: _DiffusionSolver,
    out: np.ndarray,
    flux: np.ndarray,
) -> np.ndarray:
    """One conservative upwind FV step with zero-flux walls, written into out (n_x, not
    aliasing m or b_interface) with flux (n_x - 1) as scratch; returns out.

    b_interface has n_x - 1 entries (interior interfaces).  Explicit
    upwind advection, then implicit diffusion; both stages conserve mass
    and keep the density nonnegative under the CFL bound, which the
    caller checks with _check_cfl.
    """
    np.multiply(np.maximum(b_interface, 0.0, out=flux), m[:-1], out=flux)
    flux += np.multiply(np.minimum(b_interface, 0.0, out=out[1:]), m[1:], out=out[1:])  # out: scratch until m is copied
    flux *= dt / dx
    np.copyto(out, m)
    out[:-1] -= flux
    out[1:] += flux
    # implicit diffusion is an M-matrix solve; clip pure roundoff noise
    return np.maximum(diffuse(out), 0.0, out=out)


def fp_forward(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    u_path: np.ndarray,
    m0: GridDensity,
    mass_log: list | None = None,
) -> np.ndarray:
    """Forward transport of m0 along the drift -D_pH(lam Du, x); returns the (n_steps+1, n_x) stack.
    Each step is renormalized to unit mass (roundoff, O(1e-15) per step); the largest correction
    |dx sum - 1| divided out is appended to mass_log if given."""
    lam, dt, dx, nu = cfg.lam, cfg.dt, cfg.dx, cfg.viscosity
    v_int = ham.drift(cfg.cell_centers[:-1] + 0.5 * dx)
    diffuse = _DiffusionSolver(cfg.n_x, dx, dt, nu)

    m = np.empty((cfg.n_steps + 1, cfg.n_x))
    b = m[1:, :-1]  # the drift of step j waits in row j + 1 of m until the step writes that row
    np.subtract(u_path[:-1, 1:], u_path[:-1, :-1], out=b)  # becomes -D_pH(lam Du, x) = v - lam Du, in place
    b /= dx
    b *= lam
    np.subtract(v_int, b, out=b)
    _check_cfl(b, dt, dx)  # before the sweep
    m[0] = _grid_values(cfg, m0, "initial density")
    out, flux, mass = np.empty(cfg.n_x), np.empty(cfg.n_x - 1), np.empty(cfg.n_steps)
    for j in range(cfg.n_steps):
        step = transport_step(m[j], b[j], dt, dx, diffuse, out, flux)
        mass[j] = total = step.sum() * dx
        np.divide(step, total, out=m[j + 1])
    if mass_log is not None:
        mass_log.append(float(np.abs(mass - 1.0).max()))
    _check_densities(m, dx)
    boundary_mass = (m[-1, 0] + m[-1, -1]) * dx
    if boundary_mass > BOUNDARY_MASS_TOL:
        raise BoundaryLeakError(f"boundary cells carry {boundary_mass:.2e} mass; enlarge half_width")
    return m


def _w1_sup(gap: np.ndarray, dx: float) -> float:
    """Largest W1 norm over the rows of a stack of density differences; 64-row blocks keep temporaries small."""
    cdfs = (np.cumsum(gap[i : i + 64], axis=1) for i in range(0, len(gap), 64))
    return float(max(np.abs(cdf).sum(axis=1).max() for cdf in cdfs)) * dx * dx


def solve_mfg_fixed_point(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
) -> MfgSolution:
    """Iterate m -> u = HJB(m) -> g = FP(u) to g = m, stopping on max W1(m, g) over every node.

    Anderson-accelerated (type II, Walker & Ni, SINUM 2011; depth 1, no damping):
    m+ = g - gamma (g - g_prev), gamma = argmin |f - gamma (f - f_prev)| for f = g - m.  A rising
    residual takes one damped Picard step m + f/2 instead and drops the history (counted in
    fallbacks).  A mixed m may leave the densities: it enters the HJB only through the linear k*m.
    The best FP output is returned, flagged if not converged.
    """
    mass_log = []  # the largest mass correction of every FP sweep
    # warm start: best response to the frozen initial density
    frozen = np.tile(_grid_values(cfg, m0, "initial density"), (cfg.n_steps + 1, 1))
    m = fp_forward(cfg, ham, hjb_backward(cfg, ham, kernel, frozen), m0, mass_log)
    spare = np.empty_like(m)  # with m, the two stacks the loop overwrites in place
    g_prev, history, best, fallbacks = None, [], None, 0  # history: g_prev (held, not copied), its f in spare
    for it in range(1, cfg.max_iterations + 1):
        u_path = hjb_backward(cfg, ham, kernel, m)
        g = fp_forward(cfg, ham, u_path, m0, mass_log)
        f = np.subtract(g, m, out=m)  # m is spent; its buffer holds the residual f
        residual = _w1_sup(f, cfg.dx)
        history.append(residual)
        if best is None or residual <= best[0]:
            best = (residual, u_path, g, it)
        if residual < cfg.tolerance:
            break  # best is this iterate: every earlier residual was >= tolerance
        if len(history) >= 2 and residual > history[-2]:
            fallbacks += 1
            g_prev = None
            m = np.add(g, np.multiply(f, -0.5, out=f), out=f)  # the safeguard: g - f/2 = m + f/2
            m /= m.sum(axis=1, keepdims=True) * cfg.dx
            continue
        if g_prev is None:
            np.copyto(spare, g)  # no history: a plain Picard step
        else:
            df = np.subtract(f, spare, out=spare)
            gamma = np.vdot(f, df) / (np.vdot(df, df) or 1.0)
            np.subtract(g, g_prev, out=spare)
            spare *= -gamma
            spare += g
        m, spare, g_prev = spare, f, g
    residual, u_path, m_path, it = best
    m_path.setflags(write=False)
    converged = residual < cfg.tolerance
    return MfgSolution(cfg, u_path, m_path, it, residual, converged, fallbacks, tuple(history), max(mass_log))
