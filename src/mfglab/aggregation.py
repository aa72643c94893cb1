"""Solvers for the first-order nonlocal limit equation.

The density is transported by the drift

    b(x, m) = -D_pH(D_xF(x, m), x) = v(x) - (Dk * m)(x),

covering the aggregation equation (v = 0).  Two cross-validating
discretizations: an RK4 particle method on the empirical measure and a
conservative upwind finite-volume scheme on a 1D grid.
"""

from __future__ import annotations

import numpy as np

from .errors import CflError, DimensionError, DivergenceError
from .hamiltonians import QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, _grid_matrix
from .measures import GridDensity, MeasurePath, ParticleEnsemble
from .mfg_pde import _DiffusionSolver, transport_step


def limit_drift(ham: QuadraticDriftHamiltonian, kernel, x, m):
    """Drift of the limit equation at query points x (shape (nq, d) or scalar)."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("limit_drift takes a position-space kernel")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if isinstance(m, GridDensity):
        xq = np.atleast_1d(x)
        conv = _grid_matrix(kernel, xq, m.cell_centers, m.dx, gradient=True) @ m.values
        out = ham.drift(xq) - conv
        return float(out[0]) if scalar else out
    if not isinstance(m, ParticleEnsemble):
        raise TypeError(f"unsupported measure type {type(m)!r}")
    pos = m.positions
    xq = np.atleast_2d(x)
    if xq.shape[-1] != pos.shape[1]:
        raise DimensionError(f"query dim {xq.shape[-1]} != ensemble dim {pos.shape[1]}")
    conv = np.einsum("j,ijd->id", m.weights, kernel.gradient(xq[:, None, :] - pos[None, :, :]))
    out = ham.drift(xq) - conv
    return out[0] if (scalar or x.ndim == 1) else out


def _particle_drift(ham, kernel, pos: np.ndarray, weights: np.ndarray) -> np.ndarray:
    diffs = pos[:, None, :] - pos[None, :, :]
    conv = np.einsum("j,ijd->id", weights, kernel.gradient(diffs))
    return ham.drift(pos) - conv


def solve_aggregation_particles(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: ParticleEnsemble,
    T: float,
    dt: float,
    save_every: int | None = None,
    blowup_radius: float = 50.0,
) -> MeasurePath:
    """RK4 integration of the self-consistent characteristics.

    Each atom moves with the drift of the running empirical measure;
    weights are constant.  Exceeding blowup_radius raises (expected for
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
    pos = m0.positions.copy()
    times = [0.0]
    snaps = [m0]
    rhs = lambda p: _particle_drift(ham, kernel, p, w)
    for j in range(n_steps):
        k1 = rhs(pos)
        k2 = rhs(pos + 0.5 * dt * k1)
        k3 = rhs(pos + 0.5 * dt * k2)
        k4 = rhs(pos + dt * k3)
        pos = pos + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(pos)) or np.max(np.abs(pos)) > blowup_radius:
            raise DivergenceError(
                f"trajectories diverged at t={(j + 1) * dt:.4f} under kernel {kernel!r}"
            )
        if (j + 1) % save_every == 0 or j == n_steps - 1:
            times.append((j + 1) * dt)
            snaps.append(ParticleEnsemble(pos.copy(), w, m0.spatial_dim))
    return MeasurePath(np.array(times), snaps)


def solve_aggregation_fv(
    ham: QuadraticDriftHamiltonian,
    kernel,
    m0: GridDensity,
    T: float,
    dt: float,
    nu: float = 0.0,
    cfl_cap: float = 0.9,
) -> MeasurePath:
    """Conservative upwind FV scheme with the nonlocal drift refreshed each step."""
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("the FV solver takes a position-space kernel")
    n_steps = max(1, round(T / dt))
    dx = m0.dx
    x_int = m0.cell_edges[1:-1]
    v_int = ham.drift(x_int)
    # interface kernel-gradient quadrature matrix (n_x-1, n_x)
    Dk = _grid_matrix(kernel, x_int, m0.cell_centers, dx, gradient=True)
    diffuse = _DiffusionSolver(m0.n, dx, dt, nu)
    m = m0.values.copy()
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    snaps = [m0]
    for _ in range(n_steps):
        b = v_int - Dk @ m
        if np.max(np.abs(b)) * dt / dx > cfl_cap:
            raise CflError(
                f"CFL cap {cfl_cap} exceeded: max|b| dt/dx = {np.max(np.abs(b)) * dt / dx:.3f}"
            )
        m = transport_step(m, b, dt, dx, diffuse)
        m = m / (m.sum() * dx)
        snaps.append(GridDensity(m0.origin, dx, m))
    return MeasurePath(times, snaps)
