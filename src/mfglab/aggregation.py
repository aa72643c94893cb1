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
from .kernels import CuckerSmaleKernel, _grid_matrix, _grid_sum, _pair_sum
from .measures import GridDensity, MeasurePath, ParticleEnsemble
from .mfg_pde import _check_cfl, _DiffusionSolver, transport_step

#: solve_aggregation_particles raises once an atom leaves [-BLOWUP_RADIUS, BLOWUP_RADIUS]
BLOWUP_RADIUS = 50.0


def limit_drift(ham: QuadraticDriftHamiltonian, kernel, x, m):
    """Drift of the limit equation at query points x on the line, a scalar, (n,) or (n, 1);
    the result has the shape of x (a float for a scalar)."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("limit_drift takes a position-space kernel")
    x = np.asarray(x, dtype=float)
    xq = x.reshape(-1, 1) if x.ndim < 2 else x
    if isinstance(m, GridDensity):
        if xq.shape[1:] != (1,):
            raise DimensionError(f"limit_drift takes points on the line, shape (n,) or (n, 1), not {x.shape}")
        out = ham.drift(xq[:, 0]) - _grid_sum(kernel, xq[:, 0], m, gradient=True)
    elif isinstance(m, ParticleEnsemble):
        out = ham.drift(xq) - _pair_sum(kernel, xq, m.positions, m.weights, gradient=True)
    else:
        raise TypeError(f"unsupported measure type {type(m)!r}")
    return out.item() if x.ndim == 0 else out.reshape(x.shape)


def solve_aggregation_particles(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: ParticleEnsemble,
    T: float,
    dt: float,
    save_every: int | None = None,
) -> MeasurePath:
    """RK4 integration of the self-consistent characteristics.

    Each atom moves with the drift of the running empirical measure;
    weights are constant.  Exceeding BLOWUP_RADIUS raises (expected for
    attractive non-semiconcave kernels, where no global bound holds).
    """
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("use the Cucker-Smale solver for phase-space dynamics")
    if m0.is_phase_space:
        raise DimensionError("position-space ensemble expected")
    n_steps = max(1, round(T / dt))
    if save_every is None:
        save_every = max(1, n_steps // 512)
    w = m0.weights
    pos = m0.positions
    times = [0.0]
    snaps = [m0]
    rhs = lambda p: ham.drift(p) - _pair_sum(kernel, p, p, w, gradient=True)
    for j in range(n_steps):
        pos = _rk4(rhs, pos, dt, 1)
        if not np.all(np.isfinite(pos)) or np.max(np.abs(pos)) > BLOWUP_RADIUS:
            raise DivergenceError(
                f"trajectories diverged at t={(j + 1) * dt:.4f} under kernel {kernel!r}"
            )
        if (j + 1) % save_every == 0 or j == n_steps - 1:
            times.append((j + 1) * dt)
            snaps.append(ParticleEnsemble(pos, w, m0.spatial_dim))
    return MeasurePath(np.array(times), snaps)


def solve_aggregation_fv(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    T: float,
    dt: float,
) -> MeasurePath:
    """Conservative upwind FV scheme with the nonlocal drift refreshed and CFL-checked each step;
    raises CflError before the first step whose drift breaks the bound."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the FV solver takes a position-space kernel")
    n_steps = max(1, round(T / dt))
    dx = m0.dx
    x_int = m0.cell_edges[1:-1]
    v_int = ham.drift(x_int)
    # interface kernel-gradient quadrature matrix (n_x-1, n_x)
    Dk = _grid_matrix(kernel, x_int, m0.cell_centers, dx, gradient=True)
    diffuse = _DiffusionSolver(m0.n, dx, dt, 0.0)  # inviscid: the identity
    m = m0.values.copy()
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    snaps = [m0]
    out, flux = np.empty(m0.n), np.empty(m0.n - 1)
    for _ in range(n_steps):
        b = v_int - Dk @ m
        _check_cfl(b, dt, dx)
        step = transport_step(m, b, dt, dx, diffuse, out, flux)
        m = step / (step.sum() * dx)
        snaps.append(GridDensity(m0.origin, dx, m))
    return MeasurePath(times, snaps)
