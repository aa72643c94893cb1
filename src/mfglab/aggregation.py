"""Solvers for the first-order nonlocal limit equation.

The density is transported by the drift

    b(x, m) = -D_pH(D_xF(x, m), x) = v(x) - (Dk * m)(x),

covering the aggregation equation (v = 0).  Two cross-validating
discretizations: an RK4 particle method on the empirical measure and a
conservative upwind finite-volume scheme on a 1D grid.  The limit is
inviscid, so the FV scheme has no diffusion, and each of its steps must
pass the same per-cell CFL check as the MFG transport (mfg_pde._check_cfl).
"""

from __future__ import annotations

import numpy as np

from .cucker_smale import _rk4
from .errors import DimensionError, DivergenceError
from .hamiltonians import QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, _grid_matrix, _self_pair_sum
from .measures import GridDensity, MeasurePath, ParticleEnsemble, _check_densities, _march, _n_steps
from .mfg_pde import _check_cfl, _DiffusionSolver, transport_step

#: solve_aggregation_particles raises once an atom leaves [-BLOWUP_RADIUS, BLOWUP_RADIUS]
BLOWUP_RADIUS = 50.0


def solve_aggregation_particles(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: ParticleEnsemble,
    T: float,
    dt: float,
    nodes=None,
) -> MeasurePath:
    """RK4 integration of the self-consistent characteristics, the (N,) positions, on the clock of
    measures._march, keeping node 0 and the node indices in nodes (by default node 0 and T).  Each atom
    moves with the drift of the running empirical measure; weights are constant.  Exceeding
    BLOWUP_RADIUS raises (expected for attractive non-semiconcave kernels, where no global bound holds)."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("use the Cucker-Smale solver for phase-space dynamics")
    if m0.is_phase_space:
        raise DimensionError("position-space ensemble expected")
    w = m0.weights
    pair_force = _self_pair_sum(kernel, w, gradient=True)
    if ham.drift.sup_norm:
        rhs = lambda p: ham.drift(p) - pair_force(p)
    else:  # no drift array to build: 0 - f, not -f, leaves a zero force +0.0 as a zero drift does
        rhs = lambda p: 0.0 - pair_force(p)

    def step(pos, t):
        pos = _rk4(rhs, pos, dt)
        if not np.all(np.isfinite(pos)) or np.max(np.abs(pos)) > BLOWUP_RADIUS:
            raise DivergenceError(f"trajectories diverged at t={t:.4f} under kernel {kernel!r}")
        return pos

    return _march(m0, m0.positions[:, 0], step, lambda pos: ParticleEnsemble(pos, w, 1), T, dt, nodes)


def solve_aggregation_fv(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    T: float,
    dt: float,
    mass_log: list | None = None,
    nodes=None,
) -> MeasurePath:
    """Conservative upwind FV scheme with the nonlocal drift refreshed and CFL-checked each step, on the
    clock of measures._march, keeping node 0 and the node indices in nodes (by default node 0 and T); raises
    CflError before the first step whose drift breaks the bound.  Each step is renormalized to unit mass
    (roundoff); the largest correction |dx sum - 1| divided out is appended to mass_log if given.  Every
    node is checked (measures._check_densities), kept or not, m0 included, in stacks of up to 64 rows as they
    fill, so the check's memory does not grow with the step count."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the FV solver takes a position-space kernel")
    dx = m0.dx
    x_int = m0.cell_edges[1:-1]
    v_int = ham.drift(x_int)
    # interface kernel-gradient quadrature matrix (n_x-1, n_x)
    Dk = _grid_matrix(kernel, x_int, m0.cell_centers, dx, gradient=True)
    diffuse = _DiffusionSolver(m0.n, dx, dt, 0.0)  # inviscid: the identity
    out, flux = np.empty(m0.n), np.empty(m0.n - 1)
    correction, filled = 0.0, 1
    block = np.empty((min(64, _n_steps(T, dt) + 1), m0.n))  # the nodes since the last check, m0 first, one row each
    block[0] = m0.values

    def step(m, t):
        nonlocal correction, filled
        if filled == len(block):  # a full block is checked before its rows are reused
            _check_densities(block, dx)
            filled = 0
        b = v_int - Dk @ m
        _check_cfl(b, dt, dx)
        m = transport_step(m, np.maximum(b, 0.0), np.minimum(b, 0.0), dt, dx, diffuse, out, flux)
        total = m.sum() * dx
        correction = max(correction, abs(total - 1.0))
        filled += 1
        return np.divide(m, total, out=block[filled - 1])

    path = _march(m0, block[0], step, lambda m: GridDensity(m0.origin, dx, m), T, dt, nodes)
    _check_densities(block[:filled], dx)
    if mass_log is not None:
        mass_log.append(float(correction))
    return path
