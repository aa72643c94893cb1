"""Lambda-sweep orchestration and limit diagnostics.

Two sweep drivers, one per model family:

* classic: for each discount lambda, solve the coupled HJB/FP system and
  measure its distance to the nonlocal continuity (aggregation) limit,
  together with the ergodic residuals lam*u - F and lam*Du - D_xF, on a
  clock each row climbs to by step halving: the coarsest rung whose dt
  error estimate is a stated fraction of its dx error estimate;
* acceleration: for each lambda, minimize the discounted trajectory
  energy, from the last certified row's controls, and measure the
  distance of the induced phase-space flow to the kinetic alignment
  reference.

Both drivers record the reference solution's own cross-validation error
so convergence claims are never made against an uncontrolled reference,
and inline every config value and seed for bit-reproducibility.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .acceleration import EL_TOLERANCE, _preconditioner, minimize_energy
from .aggregation import solve_aggregation_fv, solve_aggregation_particles
from .cucker_smale import _step_halving, richardson_order_ratio
from .errors import BoundaryLeakError, CflError, ParameterError, StabilityError
from .hamiltonians import QuadraticDriftHamiltonian, validate_hamiltonian
from .kernels import CuckerSmaleKernel, _grid_sum, validate_coupling
from .measures import (
    MASS_TOL_GRID,
    GridDensity,
    MeasurePath,
    ParticleEnsemble,
    _check_exact_w1,
    _csv_table,
    _positive_finite,
    _w1_sorted_1d,
    moment2,
    wasserstein1_1d,
    wasserstein1_particles,
)
from .mfg_pde import MfgSolution, PdeConfig, _grid_values, coupling_on_grid, solve_mfg_fixed_point

#: the diagnostic window times are the multiples of T / WINDOW_DIVISIONS, node j n / WINDOW_DIVISIONS of a clock of
#: n steps; every clock a sweep reads has a multiple of WINDOW_DIVISIONS steps
WINDOW_DIVISIONS = 8
#: number of sampled diagnostic times inside the window, 0 to 3T/4
N_DIAGNOSTIC_TIMES = 7
#: fraction of [0, T] used for limit diagnostics (terminal layer excluded): 3/4
DIAGNOSTIC_WINDOW = (N_DIAGNOSTIC_TIMES - 1) / WINDOW_DIVISIONS
#: cap of the lambda-scaled linear-growth and semiconcavity diagnostics
C_TILDE = 10.0
#: cap of sup_t ||m(t)||_inf
M_SUP_CAP = 100.0
#: factor on the caps that absorbs discretization error
BOUNDS_SLACK = 1.25
#: largest error_estimate of a resolved particle reference, in both sweeps; lam T < 745 keeps lam^-2 / 10, the
#: first-order corrector's target, above 1.8e-7, more than 100 times this
REFERENCE_TOLERANCE = 1e-9
#: a classic row's clock is resolved once its dt_error_estimate is at most this fraction of its dx_error_estimate
CLOCK_ERROR_FRACTION = 0.25
#: the coarsest rung of a classic row's clock ladder: T / 64, whose steps are a multiple of WINDOW_DIVISIONS, as
#: every finer rung's are, so that T / 128, the first rung with a dt error estimate, may stop it
FIRST_RUNG_STEPS = 64


@dataclass(frozen=True)
class ConvergenceReport:
    """One sweep: per-lambda diagnostic rows plus the inlined setup."""

    family: str  # "classic" | "acceleration"
    lambdas: tuple
    rows: tuple  # one dict per lambda: scalar diagnostics, and a classic row's clock_ladder list
    reference: dict  # reference solver config + its cross-validation error
    setup: dict  # everything needed to reproduce the sweep bit-exactly
    seed: int

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(lams) != len(self.rows):
            raise ValueError("one row per lambda required")
        if np.any(np.diff(lams) <= 0):
            raise ValueError("lambda values must be strictly increasing")

    def to_doc(self) -> dict:
        return {
            "family": self.family,
            "lambdas": list(self.lambdas),
            "rows": list(self.rows),
            "reference": self.reference,
            "setup": self.setup,
            "seed": self.seed,
        }

    def to_csv(self) -> str:
        """One line per lambda, one column per scalar diagnostic; a list (a classic row's clock_ladder) is in the
        JSON alone."""
        keys = sorted({k for row in self.rows for k, v in row.items() if not isinstance(v, list)})
        rows = ([lam, *(row.get(k) for k in keys)] for lam, row in zip(self.lambdas, self.rows))
        return _csv_table(["lambda", *keys], rows)


def _json_text(doc) -> str:
    """Strict JSON, indented with sorted keys: numpy values as Python ones, NaN and inf as null."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _finite_or_null(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def sample_grid_to_atoms(m: GridDensity, n: int) -> ParticleEnsemble:
    """Deterministic quantile (stratified) atomization of a grid density."""
    q = (np.arange(n) + 0.5) / n
    edges = m.cell_edges
    cdf = np.concatenate([[0.0], m.cdf()])
    cdf = cdf / cdf[-1]
    pts = np.interp(q, cdf, edges)
    return ParticleEnsemble.equal_weights(pts, 1)


def w1_grid_vs_particles(m: GridDensity, ens: ParticleEnsemble) -> float:
    """W1 between a 1D grid density (as cell-center atoms) and an ensemble."""
    return _w1_sorted_1d(m.cell_centers, m.values * m.dx, ens.positions[:, 0], ens.weights)


@dataclass(frozen=True)
class BoundsVerdict:
    """Scaled regularity diagnostics of one solved instance.

    All `*_scaled` fields carry the factor lambda, so they should stay
    O(1) as lambda grows; verdicts compare them to the caps C_TILDE and
    4 c0 (with BOUNDS_SLACK for scheme error).
    """

    u_growth_scaled: float  # sup lam |u| / (1 + |x|)
    u_growth_ok: bool
    du_sup_scaled: float  # lam * sup |Du|
    du_ok: bool
    d2u_upper_scaled: float  # lam * sup of the upper second difference
    d2u_ok: bool
    m_sup: float  # sup_t ||m(t)||_inf
    m_bounded_ok: bool
    mass_error: float
    mass_ok: bool
    min_density: float
    nonneg_ok: bool
    support_radius: float
    support_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(
            getattr(self, f)
            for f in ("u_growth_ok", "du_ok", "d2u_ok", "m_bounded_ok", "mass_ok", "nonneg_ok", "support_ok")
        )


def diagnostics_bounds(sol: MfgSolution, c0: float = 1.0) -> BoundsVerdict:
    """Check the lambda-scaled regularity estimates on a solved instance.

    c0 is the model's structural constant (drives the Du bound 4*c0);
    C_TILDE caps the linear-growth and semiconcavity diagnostics.
    """
    cfg = sol.config
    lam, dx = cfg.lam, cfg.dx
    x = cfg.cell_centers
    u = sol.u_path

    u_growth = float(np.max(lam * np.abs(u) / (1.0 + np.abs(x))[None, :]))
    du_sup = float(lam * np.max(np.abs(np.gradient(u, dx, axis=-1))))
    d2u = (u[:, 2:] + u[:, :-2] - 2.0 * u[:, 1:-1]) / dx**2
    d2u_upper = float(lam * max(np.max(d2u), 0.0))

    vals = sol.m_path
    m_sup = float(np.max(vals))
    masses = vals.sum(axis=1) * dx
    mass_error = float(np.max(np.abs(masses - 1.0)))
    min_density = float(np.min(vals))
    # essential support: smallest radius holding all but 1e-6 of the mass
    # at every time (diffusive tails below that are not wall contact)
    order = np.argsort(np.abs(x))
    cum = np.cumsum(vals[:, order] * dx, axis=1)
    inside = np.minimum(np.sum(cum < 1.0 - 1e-6, axis=1), x.size - 1)
    support_radius = float(np.max(np.abs(x[order])[inside]))

    return BoundsVerdict(
        u_growth_scaled=u_growth,
        u_growth_ok=u_growth <= BOUNDS_SLACK * C_TILDE,
        du_sup_scaled=du_sup,
        du_ok=du_sup <= BOUNDS_SLACK * 4.0 * c0,
        d2u_upper_scaled=d2u_upper,
        d2u_ok=d2u_upper <= BOUNDS_SLACK * C_TILDE,
        m_sup=m_sup,
        m_bounded_ok=m_sup <= M_SUP_CAP,
        mass_error=mass_error,
        mass_ok=mass_error <= MASS_TOL_GRID,
        min_density=min_density,
        nonneg_ok=min_density >= 0.0,
        support_radius=support_radius,
        support_ok=support_radius < cfg.half_width - dx,
    )


def _window_times(T: float) -> np.ndarray:
    return np.linspace(0.0, DIAGNOSTIC_WINDOW * T, N_DIAGNOSTIC_TIMES)


def _window_nodes(n: int) -> np.ndarray:
    """The window nodes of a clock of n steps, j n / WINDOW_DIVISIONS for j < N_DIAGNOSTIC_TIMES: the nodes both
    sweeps read; an n that is no multiple of WINDOW_DIVISIONS raises ValueError."""
    if n % WINDOW_DIVISIONS:
        raise ValueError(f"a clock of {n} steps misses window times: n must be a multiple of {WINDOW_DIVISIONS}")
    return n // WINDOW_DIVISIONS * np.arange(N_DIAGNOSTIC_TIMES)


def _row_intervals(lam: float, T: float, n_intervals: int) -> int:
    """K of a solve at lam: max(n_intervals, 70 T sqrt(lam)), rounded up to a multiple of WINDOW_DIVISIONS, so
    that every window time (T/2 among them) is a node.

    The exact control weights and the product-trapezoid interaction weights leave the discrete
    minimizer off the Euler-Lagrange identity by EL ~ 0.13 lam dt^2 = 0.13 lam T^2 / K^2 (measured
    0.12-0.14 on the 24-atom flock of the accel-sweep benchmark, lam = 10 to 640).  Asking for EL at
    most 2.65e-5, below EL_TOLERANCE / 3, gives K >= T sqrt(0.13 lam / 2.65e-5) = 70 T sqrt(lam):
    224, 320, 448 and 632 intervals at lam = 10, 20, 40 and 80, T = 1.
    """
    return WINDOW_DIVISIONS * int(np.ceil(max(n_intervals, 70.0 * T * np.sqrt(lam)) / WINDOW_DIVISIONS))


def _sweep_lambdas(lambdas) -> list:
    """The sweep's lambdas as sorted floats; a repeated, non-positive or non-finite one raises
    here, before any validator or solve runs."""
    lams = sorted(float(l) for l in lambdas)
    for i, lam in enumerate(lams):
        if not 0 < lam < np.inf:
            raise ParameterError("lambdas", f"lambda = {lam}: every lambda must be positive and finite")
        if i and lam == lams[i - 1]:
            raise ParameterError("lambdas", f"lambda = {lam} appears twice: the lambdas of a sweep must be distinct")
    return lams


#: numeric columns of a classic row; NaN in the row of a lambda whose every rung raised
_CLASSIC_DIAGNOSTICS = (
    "iterations", "hjb_sweeps", "fp_steps", "fixed_point_residual", "fixed_point_fallbacks", "w1_sup", "residual_lam_u",
    "residual_lam_du_l1", "du_sup_scaled", "u_growth_scaled", "d2u_upper_scaled", "m_sup", "mass_error",
    "fp_mass_correction",  # reported, never flagged
    "dt",
)


def _window_w1(sol: MfgSolution, window) -> float:
    """sup over the window times of W1(m_lam, reference): window holds the reference at each window node."""
    cfg = sol.config
    return max(
        wasserstein1_1d(GridDensity(-cfg.half_width, cfg.dx, sol.m_path[j]), m_ref)
        for j, m_ref in zip(_window_nodes(cfg.n_steps), window, strict=True)
    )


def _prolong(m_path: np.ndarray) -> np.ndarray:
    """A density stack on the clock of half the step: every node kept, each new one the mean of its two neighbours."""
    fine = np.empty((2 * len(m_path) - 1, m_path.shape[1]))
    fine[::2] = m_path
    np.add(m_path[:-1], m_path[1:], out=fine[1::2])
    fine[1::2] *= 0.5
    return fine


def _regrid(m, n: int):
    """m on n = m.n / 2 cells, each the mean of two (the mass kept); m is a GridDensity, or a stack of densities
    on its last axis, returned as a stack."""
    if isinstance(m, GridDensity):
        return GridDensity(m.origin, m.dx * (m.n / n), _regrid(m.values, n))
    return 0.5 * (m[..., 0::2] + m[..., 1::2])


def _classic_row(cfg: PdeConfig, ham: QuadraticDriftHamiltonian, kernel, meshes, c0: float) -> dict:
    """One lambda of the classic sweep: solves on the rungs h = T / 64, T / 128, ... until the rung's
    dt_error_estimate |w1_sup(h) - w1_sup(2h)| (first order; none without a solved rung at 2h) is at most
    CLOCK_ERROR_FRACTION of the dx_error_estimate, or until h / 2 would fall below cfg.dt, the cap (the first
    rung always runs).  A rung that raises BoundaryLeakError or a StabilityError (CflError included) is skipped;
    a rung past the first starts its fixed point from the last rung's density stack, prolonged (``_prolong``),
    and after a skipped rung it starts cold.  The row's diagnostics are read on the last rung solved.

    The dx companion runs once, on n_x / 2 cells and the clock (companion_dt) of the first rung with a
    dt_error_estimate, or else of the last rung solved, from that rung's density stack on its mesh
    (``_regrid``).  Its estimate, first order, is |w1_sup(dx) - w1_sup(2 dx)|; a companion that raises leaves
    it None and names its error (companion_error).  meshes(n) gives m0 on n cells and the reference at each
    window time on them.  hjb_sweeps and fp_steps count every solve, raised ones too."""
    t0 = time.perf_counter()
    m0, window = meshes(cfg.n_x)
    spent = {"hjb_sweeps": 0, "fp_steps": 0}

    def solve(rung, m, start=None):
        """rung's solve from m (None where it raised), its HJB sweeps and the name of the error it raised (None
        where it did not); its HJB sweeps and FP steps, returned or raised, go to the row's."""
        try:
            sol, error = solve_mfg_fixed_point(rung, ham, kernel, m, start), None
            sweeps, steps = sol.hjb_sweeps, sol.fp_steps
        except (BoundaryLeakError, StabilityError) as exc:
            sol, error, (sweeps, steps) = None, type(exc).__name__, exc.spent
        spent["hjb_sweeps"] += sweeps
        spent["fp_steps"] += steps
        return sol, sweeps, error

    rungs = []
    companion = {"companion_n_x": None, "companion_dt": None, "companion_hjb_sweeps": 0, "companion_error": None,
                 "dx_error_estimate": None}

    def solve_companion(sol, w1):
        rung, n_x = sol.config, sol.config.n_x // 2
        other_m0, other_window = meshes(n_x)
        other, sweeps, error = solve(replace(rung, n_x=n_x), other_m0, _regrid(sol.m_path, n_x))
        companion.update(companion_dt=rung.dt, companion_hjb_sweeps=sweeps, companion_error=error)
        if other is not None:
            companion.update(companion_n_x=n_x, dx_error_estimate=abs(w1 - _window_w1(other, other_window)))

    h, start, previous, last = cfg.T / FIRST_RUNG_STEPS, None, None, None
    while True:
        rung = replace(cfg, dt=h)
        sol, sweeps, error = solve(rung, m0, start)
        w1 = None if sol is None else _window_w1(sol, window)
        rungs.append({"dt": h, "hjb_sweeps": sweeps, "w1_sup": w1, "error": error})
        estimate = None if w1 is None or previous is None else abs(w1 - previous)
        if sol is not None:
            last = sol, estimate, w1
            if estimate is not None and companion["companion_dt"] is None:
                solve_companion(sol, w1)
        previous, dx_error = w1, companion["dx_error_estimate"]
        resolved = estimate is not None and dx_error is not None and estimate <= CLOCK_ERROR_FRACTION * dx_error
        if resolved or h / 2 < cfg.dt:
            break
        start = None if sol is None else _prolong(sol.m_path)
        h /= 2
    if last is not None and companion["companion_dt"] is None:  # no rung has an estimate
        solve_companion(last[0], last[2])
    clock = {"clock_resolved": resolved, "rungs_skipped": sum(r["error"] is not None for r in rungs),
             "clock_ladder": rungs, **companion}
    if last is None:
        # every rung raised: one failing lambda is a flagged row, not a failed sweep
        row = dict.fromkeys(_CLASSIC_DIAGNOSTICS, float("nan"))
        row.update(
            converged=False,
            flagged=True,
            error=rungs[-1]["error"],
            bounds_ok=False,
            viscosity=float(cfg.viscosity),
            dt_error_estimate=None,
            **clock,
            wall_clock_s=time.perf_counter() - t0,
        )
        return row
    sol, dt_error, w1_sup = last
    cfg = sol.config

    x, lam, dx = cfg.cell_centers, cfg.lam, cfg.dx
    # the window nodes of the row's clock, as stacks: window holds the reference there
    nodes = _window_nodes(cfg.n_steps)
    u = sol.u_path[nodes]
    du = np.gradient(u, dx, axis=-1)  # along x: centred, one-sided at the walls
    res_u = float(np.max(np.abs(lam * u - coupling_on_grid(kernel, sol.m_path[nodes], x))))
    dF = _grid_sum(kernel, x, np.stack([m.values for m in window]), gradient=True)
    res_du = float(dx * np.abs(lam * du - dF).sum(axis=1).max())
    bounds = diagnostics_bounds(sol, c0=c0)
    return {
        "converged": bool(sol.converged),
        "flagged": bool(not sol.converged),
        "iterations": int(sol.iterations),
        **spent,
        "fixed_point_residual": float(sol.residual),
        "fixed_point_fallbacks": int(sol.fallbacks),
        "w1_sup": float(w1_sup),
        "residual_lam_u": float(res_u),
        "residual_lam_du_l1": float(res_du),
        "du_sup_scaled": bounds.du_sup_scaled,
        "u_growth_scaled": bounds.u_growth_scaled,
        "d2u_upper_scaled": bounds.d2u_upper_scaled,
        "m_sup": bounds.m_sup,
        "mass_error": bounds.mass_error,
        "fp_mass_correction": float(sol.fp_mass_correction),
        "bounds_ok": bool(bounds.all_ok),
        "viscosity": float(cfg.viscosity),
        "dt": float(cfg.dt),
        "dt_error_estimate": dt_error,
        **clock,
        "wall_clock_s": float(time.perf_counter() - t0),
    }


def run_lambda_sweep_classic(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    lambdas,
    base_config: PdeConfig,
    n_cross_particles: int = 400,
    seed: int = 0,
) -> ConvergenceReport:
    """Sweep the discount lambda and measure convergence to the limit flow.

    The reference is the inviscid finite-volume limit solve on the same
    grid; its own error is estimated by a particle cross-check and
    reported alongside the per-lambda distances (n_cross_particles atoms,
    at least 1, checked with the lambdas and m0's grid before any solve).
    The cross-check's atoms come from the finest march of a step-halving
    ladder (``_resolve``) capped by base_config.dt; the report states its
    h, its error estimate, its RK4 steps and whether it is resolved.

    The FV reference marches on a clock with every window time as a node
    (fv_dt); each row climbs its own clock (``_classic_row``), h = T / 64,
    T / 128, ... with base_config.dt the cap on the finest rung, and reads
    the reference at each window node, j n / 8 on a rung of n steps.
    The dx error estimate of a row comes from one warm companion
    solve on a rung's clock at n_x / 2, against the FV reference
    re-solved on that mesh, so base_config.n_x must be even and at least
    16 (checked with the lambdas, before any validator or solve).  The FV
    reference is solved once per mesh and sweep: m0's own first, then
    n_x / 2 in the first row that needs it.  Non-converged inner solves
    are flagged, never fatal; a rung that raises BoundaryLeakError or a
    StabilityError (CflError included) is skipped, and a row whose every
    rung raised is a flagged row that names the error and carries NaN
    diagnostics.  Nothing here is random: the bound's c0 comes from the
    constants the kernel and the drift state, and seed is only recorded
    in the report.
    """
    lambdas = _sweep_lambdas(lambdas)
    if base_config.n_x % 2 or base_config.n_x < 16:
        raise ParameterError("n_x", f"n_x must be even and at least 16, got {base_config.n_x}: each row's dx "
                             "companion solves on n_x / 2 cells")
    _grid_values(base_config, m0, "initial density")
    if not n_cross_particles >= 1:
        raise ValueError(f"n_cross_particles must be at least 1, got {n_cross_particles}")
    coupling_report = validate_coupling(kernel)
    ham_report = validate_hamiltonian(ham)
    c0 = max(coupling_report.c0, ham_report.growth_constant)

    # both references march only to the last node a row reads: the window end, not T; the FV clock has every
    # window time as a node, as each rung has: the sweep's dt, or, where its n steps are no multiple of
    # WINDOW_DIVISIONS, the next finer step T / (WINDOW_DIVISIONS ceil(n / WINDOW_DIVISIONS))
    T, dt, n = base_config.T, base_config.dt, base_config.n_steps
    fv_n = WINDOW_DIVISIONS * -(-n // WINDOW_DIVISIONS)
    fv_dt = dt if fv_n == n else T / fv_n
    nodes = _window_nodes(fv_n)
    T_window = int(nodes[-1]) * fv_dt
    fv_mass, memo = [], {}

    def meshes(n_x):
        """m0 on n_x cells and the FV reference from it at each window time, solved once per sweep; m0's own
        mesh is solved first, and its solve alone logs the mass correction the report states."""
        if n_x not in memo:
            m = m0 if n_x == m0.n else _regrid(m0, n_x)
            mass_log = fv_mass if m is m0 else None
            path = solve_aggregation_fv(ham, kernel, m, T_window, fv_dt, mass_log, nodes=list(nodes))
            memo[n_x] = m, list(path.measures)
        return memo[n_x]

    _, window = meshes(m0.n)
    atoms = sample_grid_to_atoms(m0, n_cross_particles)

    def march(count):
        path = solve_aggregation_particles(ham, kernel, atoms, T_window, T_window / count)
        return path, path.measures[-1].points  # compared where the cross-check reads them

    # 4h = T_window / 8 on the first level, as the acceleration ladder's 4h = T / 8
    levels = _step_halving(march, 8)
    (particles, estimate, _, rk4_steps), h, resolved = _resolve(levels, T_window / 32, dt)
    cross_error = w1_grid_vs_particles(window[-1], particles.measures[-1])  # both at the window end

    rows = [_classic_row(replace(base_config, lam=lam), ham, kernel, meshes, c0) for lam in lambdas]

    return ConvergenceReport(
        family="classic",
        lambdas=tuple(lambdas),
        rows=tuple(rows),
        reference={
            "solver": "aggregation_fv",
            "T": T,
            "dt": dt,
            "fv_dt": fv_dt,
            "n_x": m0.n,
            "cross_validation_w1": float(cross_error),
            "cross_particles": n_cross_particles,
            "particle_h": h,
            "particle_error_estimate": estimate,
            "error_tolerance": REFERENCE_TOLERANCE,
            "particle_rk4_steps": rk4_steps,
            "particle_resolved": resolved,
            "fv_mass_correction": fv_mass[0],  # largest |dx sum - 1| the FV solve divided out; reported, never flagged
            "clock_error_fraction": CLOCK_ERROR_FRACTION,
        },
        setup={
            "kernel": repr(kernel),
            "hamiltonian": repr(ham),
            "base_config": asdict(base_config),
            "coupling_c0": coupling_report.c0,
            "diagnostic_window": DIAGNOSTIC_WINDOW,
            "diagnostic_times": _window_times(T),
        },
        seed=seed,
    )


def _resample(controls: np.ndarray, n_intervals: int) -> np.ndarray:
    """Piecewise-constant controls (N, K') on [0, T] carried onto n_intervals intervals: linear in time between
    the K' interval midpoints, constant beyond the first and the last, read at the new interval midpoints."""
    old, new = ((np.arange(k) + 0.5) / k for k in (controls.shape[1], n_intervals))  # midpoints, as fractions of T
    return np.array([np.interp(new, old, row) for row in controls])


def _acceleration_row(
    lam: float,
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    n_intervals: int,
    reference: MeasurePath,
    start=None,
) -> tuple:
    """One acceleration row at lam, and the row's minimizing controls.  start is (lambda, controls) of an earlier
    row or None: the minimization starts from those controls, resampled onto this row's K (``_resample``), or
    from free flight, and the row states that lambda as start_lambda (null for free flight).  reference keeps
    the window nodes alone, one measure per window time; any other count raises ValueError."""
    k_lam = _row_intervals(lam, T, n_intervals)
    t0 = time.perf_counter()
    result = minimize_energy(m0, kernel, lam, T, k_lam, None if start is None else _resample(start[1], k_lam))
    wall = time.perf_counter() - t0
    ens = result.ensemble

    # one transport solve per window node, T/2 among them
    w1 = [
        wasserstein1_particles(ens.phase_ensemble(j), m_ref)
        for j, m_ref in zip(_window_nodes(k_lam), reference.measures, strict=True)
    ]
    w1_sup, w1_half = max(w1), w1[WINDOW_DIVISIONS // 2]

    m2v = moment2(m0, selector="velocity")
    bound = 2.0 * kernel.c0 * m2v / lam
    return {
        "converged": result.certified,  # mirrors the one verdict: the bench workload reads row["converged"]
        "certified": result.certified,
        "flagged": not result.certified,
        "iterations": int(result.iterations),
        "objective_evaluations": int(result.function_evaluations),
        "fixed_point_fallbacks": int(result.fixed_point_fallbacks),
        "control_step": float(result.control_step),
        "el_residual": float(result.el_residual),
        "energy_total": float(result.energy.total),
        "energy_control": float(result.energy.control),
        "energy_interaction": float(result.energy.interaction),
        "energy_bound": float(bound),
        "energy_bound_ok": bool(result.energy.total <= 1.05 * bound),
        "n_intervals": int(k_lam),
        "start_lambda": None if start is None else float(start[0]),
        "w1_sup": float(w1_sup),
        "w1_at_half_T": float(w1_half),
        "wall_clock_s": float(wall),
    }, ens.controls


def _resolve(levels, h, dt_cap):
    """The stop rule of both particle references' step-halving ladders (``cucker_smale._step_halving`` levels):
    walks the levels, whose finest steps are h, h/2, ..., to the first whose error estimate is at most
    REFERENCE_TOLERANCE, or to the first whose h/2 would fall below dt_cap (the first level always runs).  Returns
    that level, its h, and whether it is within the tolerance (the ladder is resolved)."""
    for level in levels:
        resolved = bool(level[1] <= REFERENCE_TOLERANCE)
        if resolved or h / 2 < dt_cap:
            return level, h, resolved
        h /= 2


def _kinetic_reference(m0: ParticleEnsemble, kernel: CuckerSmaleKernel, T: float, dt_cap: float):
    """The acceleration sweep's reference: a step-halving ladder of RK4 marches at 4h, 2h and h = T / (8 2^k) to
    the window end, each saving the window nodes alone (multiples of T/8, T/2 among them).  k starts at 2, the
    coarsest ladder whose 4h clock steps T/8, one window time a step: richardson_order_ratio's three marches; each
    further level marches one new clock (``_resolve`` stops the ladder).  Returns the finest march, which is the
    reference, and the keys the report states of it."""
    horizon, step = DIAGNOSTIC_WINDOW * T, T / WINDOW_DIVISIONS
    finest = []
    richardson_order_ratio(m0, kernel, horizon, step, range(N_DIAGNOSTIC_TIMES), finest)
    (_, _, levels), = finest
    (path, estimate, ratio, rk4_steps), h, resolved = _resolve(levels, step / 4, dt_cap)
    return path, {
        "horizon": horizon,
        "h": h,
        "error_estimate": estimate,
        "error_tolerance": REFERENCE_TOLERANCE,
        "resolved": resolved,
        "rk4_steps": rk4_steps,
        "step_halving_ratio": ratio,
    }


def run_lambda_sweep_acceleration(
    kernel: CuckerSmaleKernel,
    m0: ParticleEnsemble,
    lambdas,
    T: float = 1.0,
    n_intervals: int = 128,
    dt_reference: float = 1e-3,
    seed: int = 0,
) -> ConvergenceReport:
    """Sweep lambda for the acceleration family against the kinetic reference.

    The same atom set is used for every lambda.  The reference alignment flow on those atoms is the finest
    march of a step-halving ladder (``_kinetic_reference``) to the window end, with h = T / (8 2^k) refined
    until its error_estimate max |z_h - z_2h| / 15 is at most REFERENCE_TOLERANCE, but not below the cap
    dt_reference; the report states h, the estimate, the ratio max |z_4h - z_2h| / max |z_2h - z_h| (~16 for
    RK4), the RK4 steps taken and whether the reference is resolved.  Each row's minimization starts from the
    controls of the last certified row before it (``_resample``: K grows with lambda), or from free flight where
    there is none, and states that row's lambda as start_lambda (null for free flight); its energy_bound
    2 c0 M2v / lam is a priori and does not depend on the start.  Nothing here is random: seed is only
    recorded in the report (the CLI passes the seed it drew m0 with).  Every row's admission check
    (``_preconditioner``) and the exact phase-space W1's (``_check_exact_w1``) run before the reference solve.
    """
    if not isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the acceleration sweep takes a Cucker-Smale kernel")
    lambdas = _sweep_lambdas(lambdas)
    _check_exact_w1(m0)
    for lam in lambdas:
        _preconditioner(m0.weights, lam, np.linspace(0.0, T, _row_intervals(lam, T, n_intervals) + 1))
    _positive_finite(T=T, dt=dt_reference)
    reference, ladder = _kinetic_reference(m0, kernel, T, dt_reference)

    rows, start = [], None  # start: (lambda, controls) of the last certified row
    for lam in lambdas:
        row, controls = _acceleration_row(lam, m0, kernel, T, n_intervals, reference, start)
        rows.append(row)
        if row["certified"]:
            start = (lam, controls)

    return ConvergenceReport(
        family="acceleration",
        lambdas=tuple(lambdas),
        rows=tuple(rows),
        reference={"solver": "cucker_smale_rk4", "T": T, "dt": dt_reference, **ladder},
        setup={
            "kernel": repr(kernel),
            "n_atoms": m0.n,
            "n_intervals": n_intervals,
            "m2v": moment2(m0, selector="velocity"),
            "el_tolerance": EL_TOLERANCE,
            "diagnostic_window": DIAGNOSTIC_WINDOW,
            "diagnostic_times": _window_times(T),
        },
        seed=seed,
    )
