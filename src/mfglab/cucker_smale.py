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

from .kernels import CuckerSmaleKernel, _cs_pair_sum, _flock
from .measures import MeasurePath, ParticleEnsemble


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
    the alignment pair sum over the (N, N) offsets."""
    _flock(m0)
    w = m0.weights

    def rhs(z):
        pos, vel = z[:, 0], z[:, 1]
        (dv_f,) = _cs_pair_sum(kernel, pos, vel, pos, vel, w, grad_v=True)
        return np.column_stack([vel, -dv_f])

    return rhs


def richardson_order_ratio(
    m0: ParticleEnsemble, kernel: CuckerSmaleKernel, T: float, dt: float
) -> float:
    """Step-halving error ratio |u_dt - u_dt/2| / |u_dt/2 - u_dt/4|; ~16 for RK4."""
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
    """RK4 integration of the coupled characteristic system, saving every save_every-th step
    (by default about 512 snapshots) and the last."""
    rhs = _phase_rhs(m0, kernel)
    n_steps = max(1, round(T / dt))
    if save_every is None:
        save_every = max(1, n_steps // 512)
    z = m0.points
    times = [0.0]
    snaps = [m0]
    for j in range(n_steps):
        z = _rk4(rhs, z, dt, 1)
        if (j + 1) % save_every == 0 or j == n_steps - 1:
            times.append((j + 1) * dt)
            snaps.append(ParticleEnsemble(z, m0.weights, 1))
    return MeasurePath(np.array(times), snaps)


def sample_to_atoms(density_sampler, n: int, seed: int) -> ParticleEnsemble:
    """i.i.d. sampling of a non-atomic m0 on the line to n equal-weight (x, v) atoms (recorded seed);
    density_sampler(rng, n) returns their (n, 2) coordinates."""
    rng = np.random.default_rng(seed)
    return ParticleEnsemble.equal_weights(density_sampler(rng, n), 1)
