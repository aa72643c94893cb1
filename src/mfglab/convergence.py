"""Lambda-sweep orchestration and limit diagnostics.

Two sweep drivers, one per model family:

* classic: for each discount lambda, solve the coupled HJB/FP system and
  measure its distance to the nonlocal continuity (aggregation) limit,
  together with the ergodic residuals lam*u - F and lam*Du - D_xF;
* acceleration: for each lambda, minimize the discounted trajectory
  energy and measure the distance of the induced phase-space flow to the
  kinetic alignment reference.

Both drivers record the reference solution's own cross-validation error
so convergence claims are never made against an uncontrolled reference,
and inline every config value and seed for bit-reproducibility.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .acceleration import minimize_energy
from .aggregation import solve_aggregation_fv, solve_aggregation_particles
from .cucker_smale import richardson_order_ratio, solve_cs
from .errors import BoundaryLeakError, CflError, StabilityError
from .hamiltonians import QuadraticDriftHamiltonian, validate_hamiltonian
from .kernels import CuckerSmaleKernel, _grid_sum, validate_coupling
from .measures import (
    GridDensity,
    MeasurePath,
    ParticleEnsemble,
    _csv_table,
    _w1_sorted_1d,
    moment2,
    wasserstein1_1d,
    wasserstein1_particles,
)
from .mfg_pde import MfgSolution, PdeConfig, coupling_on_grid, solve_mfg_fixed_point

#: fraction of [0, T] used for limit diagnostics (terminal layer excluded)
DIAGNOSTIC_WINDOW = 0.75
#: number of sampled diagnostic times inside the window
N_DIAGNOSTIC_TIMES = 7
#: certification tolerance for the Euler-Lagrange residual
EL_TOLERANCE = 1e-4
#: cap of the lambda-scaled linear-growth and semiconcavity diagnostics
C_TILDE = 10.0
#: cap of sup_t ||m(t)||_inf
M_SUP_CAP = 100.0
#: factor on the caps that absorbs discretization error
BOUNDS_SLACK = 1.25


@dataclass(frozen=True)
class ConvergenceReport:
    """One sweep: per-lambda diagnostic rows plus the inlined setup."""

    family: str  # "classic" | "acceleration"
    lambdas: tuple
    rows: tuple  # one dict per lambda, scalar diagnostics only
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

    def column(self, key: str) -> np.ndarray:
        return np.array([row[key] for row in self.rows], dtype=float)

    def to_json(self) -> str:
        doc = {
            "family": self.family,
            "lambdas": list(self.lambdas),
            "rows": list(self.rows),
            "reference": self.reference,
            "setup": self.setup,
            "seed": self.seed,
        }
        return _json_text(doc)

    def to_csv(self) -> str:
        keys = sorted({k for row in self.rows for k in row})
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
        mass_ok=mass_error <= 1e-10,
        min_density=min_density,
        nonneg_ok=min_density >= 0.0,
        support_radius=support_radius,
        support_ok=support_radius < cfg.half_width - dx,
    )


def _window_times(T: float) -> np.ndarray:
    return np.linspace(0.0, DIAGNOSTIC_WINDOW * T, N_DIAGNOSTIC_TIMES)


#: numeric columns of a classic row; NaN in the row of a lambda whose solve raised
_CLASSIC_DIAGNOSTICS = (
    "iterations", "fixed_point_residual", "fixed_point_fallbacks", "w1_sup", "residual_lam_u",
    "residual_lam_du_l1", "du_sup_scaled", "u_growth_scaled", "d2u_upper_scaled", "m_sup", "mass_error",
    "fp_mass_correction",  # reported, never flagged
)


def _classic_row(
    cfg: PdeConfig,
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    reference: MeasurePath,
    c0: float,
) -> dict:
    t0 = time.perf_counter()
    try:
        sol = solve_mfg_fixed_point(cfg, ham, kernel, m0)
    except (BoundaryLeakError, CflError, StabilityError) as exc:
        # one failing lambda is a flagged row, not a failed sweep
        row = dict.fromkeys(_CLASSIC_DIAGNOSTICS, float("nan"))
        row.update(
            converged=False,
            flagged=True,
            error=type(exc).__name__,
            bounds_ok=False,
            viscosity=float(cfg.viscosity),
            wall_clock_s=time.perf_counter() - t0,
        )
        return row
    wall = time.perf_counter() - t0

    x = cfg.cell_centers
    lam, dx = cfg.lam, cfg.dx
    du = np.gradient(sol.u_path, dx, axis=-1)  # centred, one-sided at the walls
    # the node nearest each window time, on the MFG stack and on the reference alike: both march on one clock
    w1_sup = res_u = res_du = 0.0
    for j in np.abs(cfg.times - _window_times(cfg.T)[:, None]).argmin(axis=1):
        m_lam = GridDensity(-cfg.half_width, dx, sol.m_path[j])
        m_ref = reference.measures[j]
        w1_sup = max(w1_sup, wasserstein1_1d(m_lam, m_ref))
        F = coupling_on_grid(kernel, m_lam, x)
        res_u = max(res_u, float(np.max(np.abs(lam * sol.u_path[j] - F))))
        dF = _grid_sum(kernel, x, m_ref, gradient=True)
        res_du = max(res_du, float(dx * np.sum(np.abs(lam * du[j] - dF))))
    bounds = diagnostics_bounds(sol, c0=c0)
    return {
        "converged": bool(sol.converged),
        "flagged": bool(not sol.converged),
        "iterations": int(sol.iterations),
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
        "wall_clock_s": float(wall),
    }


def run_lambda_sweep_classic(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    lambdas,
    base_config: PdeConfig | None = None,
    n_cross_particles: int = 400,
    seed: int = 0,
) -> ConvergenceReport:
    """Sweep the discount lambda and measure convergence to the limit flow.

    The reference is the inviscid finite-volume limit solve on the same
    grid; its own error is estimated by a particle cross-check and
    reported alongside the per-lambda distances.  Non-converged inner
    solves are flagged, never fatal; an inner solve that raises
    BoundaryLeakError or a StabilityError (CflError included) gives a
    flagged row that names the error and carries NaN diagnostics.
    """
    lambdas = sorted(float(l) for l in lambdas)
    if base_config is None:
        base_config = PdeConfig(lam=lambdas[0])
    coupling_report = validate_coupling(kernel, seed=seed)
    ham_report = validate_hamiltonian(ham, seed=seed)
    c0 = max(coupling_report.c0, ham_report.growth_constant)

    T, dt = base_config.T, base_config.dt
    reference = solve_aggregation_fv(ham, kernel, m0, T, dt)
    atoms = sample_grid_to_atoms(m0, n_cross_particles)
    particle_ref = solve_aggregation_particles(ham, kernel, atoms, T, dt)
    k = int(np.argmin(np.abs(particle_ref.times - DIAGNOSTIC_WINDOW * T)))  # a node of both paths
    cross_error = w1_grid_vs_particles(reference.at(particle_ref.times[k]), particle_ref.measures[k])

    rows = [_classic_row(replace(base_config, lam=lam), ham, kernel, m0, reference, c0) for lam in lambdas]

    return ConvergenceReport(
        family="classic",
        lambdas=tuple(lambdas),
        rows=tuple(rows),
        reference={
            "solver": "aggregation_fv",
            "T": T,
            "dt": dt,
            "n_x": m0.n,
            "cross_validation_w1": float(cross_error),
            "cross_particles": n_cross_particles,
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


def _acceleration_row(
    lam: float,
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    n_intervals: int,
    reference: MeasurePath,
) -> dict:
    # the EL certificate degrades like (lam dt)^2, so refine with lam
    k_lam = max(n_intervals, int(np.ceil(64 * lam * T)))
    t0 = time.perf_counter()
    result = minimize_energy(m0, kernel, lam, T, k_lam)
    wall = time.perf_counter() - t0
    ens = result.ensemble
    certified = bool(np.isfinite(result.el_residual) and result.el_residual <= EL_TOLERANCE)

    # (trajectory node, reference snapshot) at each window time, then at T/2, which is one of them;
    # one transport solve per distinct pair, matched on indices (float window times can miss T/2)
    nearest = lambda times, t: int(np.argmin(np.abs(times - t)))
    pairs = [(nearest(ens.times, t), nearest(reference.times, t)) for t in (*_window_times(T), 0.5 * T)]
    w1 = {
        (j, r): wasserstein1_particles(ens.phase_ensemble(j), reference.measures[r])
        for j, r in dict.fromkeys(pairs)
    }
    w1_sup, w1_half = max(w1[p] for p in pairs[:-1]), w1[pairs[-1]]

    m2v = moment2(m0, selector="velocity")
    bound = 2.0 * kernel.c0 * m2v / lam
    return {
        "converged": bool(result.converged),
        "certified": certified,
        "flagged": bool(not (result.converged and certified)),
        "iterations": int(result.iterations),
        "lbfgs_nfev": int(result.function_evaluations),
        "gradient_norm": float(result.gradient_norm),
        "el_residual": float(result.el_residual),
        "energy_total": float(result.energy.total),
        "energy_control": float(result.energy.control),
        "energy_interaction": float(result.energy.interaction),
        "energy_bound": float(bound),
        "energy_bound_ok": bool(result.energy.total <= 1.05 * bound),
        "n_intervals": int(k_lam),
        "w1_sup": float(w1_sup),
        "w1_at_half_T": float(w1_half),
        "wall_clock_s": float(wall),
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

    The same atom set is used for every lambda; the reference alignment
    flow is integrated on those identical atoms and its step-halving
    ratio is reported as the reference's own error control.  Nothing here
    is random: seed is only recorded in the report (the CLI passes the seed
    it drew m0 with).
    """
    if not isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the acceleration sweep takes a Cucker-Smale kernel")
    lambdas = sorted(float(l) for l in lambdas)
    reference = solve_cs(m0, kernel, T, dt_reference, save_every=1)
    ratio = richardson_order_ratio(m0, kernel, T, dt_reference * 8)

    rows = [_acceleration_row(lam, m0, kernel, T, n_intervals, reference) for lam in lambdas]

    return ConvergenceReport(
        family="acceleration",
        lambdas=tuple(lambdas),
        rows=tuple(rows),
        reference={
            "solver": "cucker_smale_rk4",
            "T": T,
            "dt": dt_reference,
            "step_halving_ratio": float(ratio),
        },
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
