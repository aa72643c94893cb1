"""Kinetic Cucker-Smale dynamics via self-consistent characteristics.

For atomic initial data the particle system *is* the measure-valued
solution (pushforward of m0 under the characteristic flow); the only
discretization is in time (RK4).  solve_cs only integrates;
richardson_order_ratio probes the order apart (the acceleration sweep
and ``mfglab solve-cs`` call it at 8 dt).  The flock lives on the line:
the RK4 state is the (N, 2) array [pos | vel].
"""

from __future__ import annotations

import numpy as np

from .kernels import CuckerSmaleKernel, _cs_alignment, _flock
from .measures import MeasurePath, ParticleEnsemble, _march, _positive_finite


def cs_rhs(ensemble: ParticleEnsemble, kernel: CuckerSmaleKernel) -> np.ndarray:
    """Per-atom alignment acceleration a_i = -sum_j w_j 2(v_i - v_j)/g(x_i - x_j), (N,)."""
    return _phase_rhs(ensemble, kernel)(ensemble.points)[:, 1]


def _rk4(rhs, z, dt, n_steps):
    """n_steps classical RK4 steps of dz/dt = rhs(z) from the state array z."""
    for _ in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def _phase_rhs(m0: ParticleEnsemble, kernel):
    """Right-hand side on the state z = [pos | vel], (N, 2): returns [vel | -D_vF], with -D_vF
    the alignment acceleration from one (N, N) weight matrix and one product
    (``kernels._cs_alignment``), on velocities centred on their weighted mean."""
    _flock(m0)
    w = m0.weights

    def rhs(z):
        pos, vel = z[:, 0], z[:, 1]
        return np.column_stack([vel, _cs_alignment(kernel, pos, vel, w)])

    return rhs


def richardson_order_ratio(
    m0: ParticleEnsemble, kernel: CuckerSmaleKernel, T: float, dt: float
) -> float:
    """Step-halving error ratio |u_dt - u_dt/2| / |u_dt/2 - u_dt/4|; ~16 for RK4."""
    _positive_finite(T=T, dt=dt)
    rhs = _phase_rhs(m0, kernel)
    n = max(1, round(T / dt))
    z1, z2, z4 = (_rk4(rhs, m0.points, T / k, k) for k in (n, 2 * n, 4 * n))
    e1 = np.max(np.abs(z1 - z2))
    e2 = np.max(np.abs(z2 - z4))
    if e2 == 0.0:
        return np.inf
    return float(e1 / e2)


def solve_cs(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    dt: float,
    save_every: int | None = None,
) -> MeasurePath:
    """RK4 integration of the coupled characteristic system on the clock of measures._march,
    saving every save_every-th step (by default about 512 snapshots) and the last."""
    rhs = _phase_rhs(m0, kernel)
    step = lambda z, t: _rk4(rhs, z, dt, 1)
    return _march(m0, m0.points, step, lambda z: ParticleEnsemble(z, m0.weights, 1), T, dt, save_every)
