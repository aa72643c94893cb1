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
* Godunov upwinding on the quadratic part of H (one square per cell), simple
  upwinding on a nonzero drift: a monotone scheme selecting the viscosity solution;
* diffusion implicit, homogeneous Neumann walls: I - dt nu Lap is symmetric
  positive definite and tridiagonal, factored once by LAPACK pttrf and solved
  in place by pttrs at every step;
* conservative upwind finite volumes for the density: mass conserved to
  solver precision, nonnegativity preserved while every cell's outflow
  dt/dx (max(b_right, 0) + max(-b_left, 0)) stays <= 1, checked per stack;
* the FP drift stack is fixed before its sweep, so its two upwind signs
  max(b, 0) and min(b, 0) are split once per 64-step block, not per step;
* F = k*m for a whole HJB sweep is one product of the (n_steps+1, n_x)
  density stack with the matrix dx * k(x_i - x_j); each step integrates
  it against the discount by the product trapezoid on its two nodes
  (``measures._exp_trapezoid_weights``, the acceleration side's rule);
* the density path is one (n_steps+1, n_x) stack throughout: fp_forward
  returns one, checked once as a whole, hjb_backward takes one, and
  MfgSolution.m_path is the best one, read-only;
* the fixed point: ``measures._anderson``, which the MFG of acceleration shares,
  stopping on the W1 gap at every node; CFL and HJB monotonicity checked on
  whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import BoundaryLeakError, CflError, GridError, ParameterError, StabilityError
from .hamiltonians import QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, _grid_sum
from .measures import GridDensity, _anderson, _check_densities, _exp_trapezoid_weights, _finite, _n_steps, _on_grid

#: fp_forward raises BoundaryLeakError once the two wall cells of any node hold more density than this: 1e-7 of
#: mass on a cell of the default mesh, 12 / 256 (a density, so the verdict does not move with the cell width)
BOUNDARY_DENSITY_TOL = 1e-7 * 256 / 12
#: the fixed point stops once its residual, max W1(m, g) over every node, is at most this
FIXED_POINT_TOLERANCE = 1e-6
#: cap on the fixed point's evaluations (HJB and FP sweep pairs past the warm start); at the cap the best is returned
MAX_FIXED_POINT_EVALUATIONS = 200


@dataclass(frozen=True)
class PdeConfig:
    """Discretization parameters for one MFG solve."""

    lam: float
    T: float = 1.0
    half_width: float = 6.0
    n_x: int = 256
    dt: float = 1e-3
    nu: float | None = None  # None -> schedule nu = lam**-0.5

    def __post_init__(self):
        nu = 0.0 if self.nu is None else self.nu  # None selects the schedule
        _finite(lam=self.lam, T=self.T, dt=self.dt, half_width=self.half_width, nu=nu)
        for name in ("lam", "half_width"):
            if getattr(self, name) <= 0:
                raise ParameterError(name, f"{name} must be positive, got {getattr(self, name)}")
        _n_steps(self.T, self.dt)
        if self.n_x < 8:
            raise ParameterError("n_x", f"n_x must be at least 8 cells, got {self.n_x}")
        dx = 2.0 * float(self.half_width) / self.n_x  # self.dx in Python floats, which overflow to inf quietly
        if not np.finfo(float).tiny <= dx < np.inf:
            raise ParameterError("half_width", f"the cell width 2 half_width / n_x = {dx} must be normal and finite")
        if nu < 0:
            raise ParameterError("nu", f"nu must be nonnegative, got {nu}")

    @property
    def viscosity(self) -> float:
        return self.lam**-0.5 if self.nu is None else self.nu

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_x

    @property
    def n_steps(self) -> int:
        return _n_steps(self.T, self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)  # the limit paths' nodes; the last is T up to dt / 2

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
    fallbacks: int = 0  # half steps taken instead of Anderson steps
    residual_history: tuple = field(default=(), repr=False)
    fp_mass_correction: float = 0.0  # largest |dx sum - 1| that fp_forward divided out in the solve
    started: bool = False  # whether the solve began from a given stack, in place of the warm-start sweep

    @property
    def hjb_sweeps(self) -> int:
        """HJB sweeps of the solve, the warm start's included; each feeds one FP sweep of n_steps steps."""
        return len(self.residual_history) + (not self.started)

    @property
    def fp_steps(self) -> int:
        """FP transport steps of the solve: n_steps per HJB sweep."""
        return self.hjb_sweeps * self.config.n_steps


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
    if not (isinstance(m, GridDensity) and _on_grid(m, -cfg.half_width, cfg.dx, cfg.n_x)):
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
    u = np.zeros((cfg.n_steps + 1, cfg.n_x))

    # the source of step j, int_0^dt e^(-lam s) F(t_j + s) ds on F linear between the nodes, is the product
    # trapezoid w_start F_j + w_end F_(j+1), combined once into row j + 1 of F_nodes; u's rows but the last,
    # each written before it is read, hold w_start F_j meanwhile
    F_nodes = coupling_on_grid(kernel, m_path, x)
    w_start, w_end = _exp_trapezoid_weights(np.array([0.0, dt]), lam)
    np.multiply(F_nodes[:-1], w_start, out=u[:-1])
    F_nodes[1:] *= w_end
    F_nodes[1:] += u[:-1]

    # lam^-1 H(lam Du, x) = (lam/2)|Du|^2 - v(x).Du: Godunov on the quadratic part, max(p_minus, -p_plus, 0)^2
    # squared once (rounded squares are monotone on x >= 0); upwind on the drift part, whose advection
    # speed -v splits once into its two signs, skipped when v = 0 (it would add +0.0)
    a_plus, a_minus = np.maximum(-v, 0.0), np.minimum(-v, 0.0)
    drift = np.any(v)
    grad = np.zeros(cfg.n_x + 1)  # one-sided differences between zero Neumann ghosts (no slope at the walls)
    p_minus, p_plus, inner = grad[:-1], grad[1:], grad[1:-1]
    ham_term, drift_term, work = np.empty(cfg.n_x), np.empty(cfg.n_x), np.empty(cfg.n_x)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught on the whole stack below
        for j in range(cfg.n_steps - 1, -1, -1):
            un = u[j + 1]
            np.divide(np.subtract(un[1:], un[:-1], out=inner), dx, out=inner)
            np.maximum(np.negative(p_plus, out=work), p_minus, out=work)
            np.square(np.maximum(work, 0.0, out=work), out=ham_term)
            ham_term *= 0.5 * lam
            if drift:
                np.multiply(a_plus, p_minus, out=drift_term)
                drift_term += np.multiply(a_minus, p_plus, out=work)
                ham_term += drift_term
            ham_term *= source_gain
            rhs = np.subtract(F_nodes[j + 1], ham_term, out=ham_term)
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


def _outflows(b: np.ndarray) -> np.ndarray:
    """The upwind outflow of every cell but the last through its two interfaces, from interface drifts
    b (..., n_x - 1): out[..., i] = max(b[..., i], 0) + max(-b[..., i - 1], 0); NaN where b is NaN."""
    out = np.maximum(b, 0.0)  # through the right interface ...
    out[..., 1:] -= np.minimum(b[..., :-1], 0.0)  # ... and through the left one
    return out


def _check_cfl(b: np.ndarray, dt: float, dx: float) -> None:
    """Raise CflError unless every cell's upwind outflow dt/dx (max(b_right, 0) + max(-b_left, 0)) is <= 1,
    the bound under which an explicit step keeps the cell nonnegative; a wall cell has one interface.

    b holds the n_x - 1 interior interface drifts of one step, or one row of them per step.  One
    row, which the FV limit solver checks at every step, takes one pass; a stack goes in 64-row
    blocks, which keep the temporaries small.  A drift that is not finite bounds no outflow: a NaN
    gives a NaN outflow, which fails the bound.
    """
    if not b.size:
        return
    if b.ndim == 1:
        # the last cell has only its left interface; a NaN outflow comes first, so max keeps it
        worst = max(_outflows(b).max(), -b[-1])
    else:
        b = b.reshape(-1, b.shape[-1])
        worst = 0.0
        for rows in (b[i : i + 64] for i in range(0, len(b), 64)):
            worst = np.max([worst, _outflows(rows).max(), -rows[:, -1].min()])  # np.max keeps a NaN
    cfl = worst * dt / dx
    if not cfl <= 1.0:
        raise CflError(f"advective CFL violated: largest cell outflow dt/dx = {cfl:.3f}, not <= 1")


def transport_step(
    m: np.ndarray,
    b_plus: np.ndarray,
    b_minus: np.ndarray,
    dt: float,
    dx: float,
    diffuse: _DiffusionSolver,
    out: np.ndarray,
    flux: np.ndarray,
) -> np.ndarray:
    """One conservative upwind FV step with zero-flux walls, written into out (n_x, not
    aliasing m) with flux (n_x - 1) as scratch; returns out.

    b_plus = max(b, 0) and b_minus = min(b, 0) are the two signs of the n_x - 1 interior
    interface drifts b.  Explicit upwind advection, then implicit diffusion; both stages
    conserve mass and keep the density nonnegative under the CFL bound, which the caller
    checks with _check_cfl.
    """
    np.multiply(b_plus, m[:-1], out=flux)
    flux += np.multiply(b_minus, m[1:], out=out[1:])  # out: scratch until m is copied
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
    b_plus, b_minus = np.empty((64, cfg.n_x - 1)), np.empty((64, cfg.n_x - 1))
    for j in range(cfg.n_steps):
        i = j % 64
        if not i:  # split the drift of the next 64 steps into its two signs before row j + 1 is overwritten
            rows = b[j : j + 64]
            np.maximum(rows, 0.0, out=b_plus[: len(rows)])
            np.minimum(rows, 0.0, out=b_minus[: len(rows)])
        step = transport_step(m[j], b_plus[i], b_minus[i], dt, dx, diffuse, out, flux)
        mass[j] = total = np.add.reduce(step) * dx
        np.divide(step, total, out=m[j + 1])
    if mass_log is not None:
        mass_log.append(float(np.abs(mass - 1.0).max()))
    _check_densities(m, dx)
    wall_density = np.max(m[:, 0] + m[:, -1])  # every node, m0 too
    if wall_density > BOUNDARY_DENSITY_TOL:
        raise BoundaryLeakError(f"boundary cells carry density {wall_density:.2e}; enlarge half_width")
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
    start: np.ndarray | None = None,
) -> MfgSolution:
    """Iterate m -> u = HJB(m) -> g = FP(u) to g = m by ``measures._anderson``, from the warm start FP(HJB(m0)),
    or from start, an (n_steps+1, n_x) stack on the config's clock and cells, if given; stopping once
    max W1(m, g) over every node is at most FIXED_POINT_TOLERANCE, or after MAX_FIXED_POINT_EVALUATIONS
    evaluations.  A mixed m may leave the densities: it enters the HJB only through the linear k*m.  The FP
    output of the first smallest residual is returned, flagged if not converged.  A BoundaryLeakError or
    StabilityError it raises carries spent = (HJB sweeps begun, FP steps marched) before the raise.
    """
    mass_log = []  # the largest mass correction of every FP sweep: one entry per FP march run
    sweeps = [0]  # HJB sweeps begun
    m0_values = _grid_values(cfg, m0, "initial density")

    def respond(m):
        sweeps[0] += 1
        u_path = hjb_backward(cfg, ham, kernel, m)
        return u_path, fp_forward(cfg, ham, u_path, m0, mass_log)

    def evaluate(m):
        u_path, g = respond(m)
        f = np.subtract(g, m, out=m)  # m is spent; its buffer holds the residual f
        return f, g, _w1_sup(f, cfg.dx), (u_path, g)

    if start is not None:
        m = np.array(start, dtype=float)  # a copy: the fixed point writes into its iterates' buffers
        shape = (cfg.n_steps + 1, cfg.n_x)
        if m.shape != shape:
            raise ValueError(f"start must be the {shape} stack on the solver's clock, got shape {m.shape}")
    try:
        if start is None:  # warm start: best response to the frozen initial density
            _, m = respond(np.tile(m0_values, (cfg.n_steps + 1, 1)))
        kept, history, fallbacks = _anderson(m, evaluate, FIXED_POINT_TOLERANCE, MAX_FIXED_POINT_EVALUATIONS)
    except (BoundaryLeakError, StabilityError) as exc:
        exc.spent = (sweeps[0], len(mass_log) * cfg.n_steps)  # fp_forward logs its march before its leak check
        raise
    u_path, m_path = kept
    m_path.setflags(write=False)
    residual = min(history)  # the driver's pick: min keeps the first smallest
    return MfgSolution(cfg, u_path, m_path, history.index(residual) + 1, residual, residual <= FIXED_POINT_TOLERANCE,
                       fallbacks, tuple(history), max(mass_log), start is not None)
