"""Kinetic Cucker-Smale dynamics via self-consistent characteristics.

For atomic initial data the particle system *is* the measure-valued
solution (pushforward of m0 under the characteristic flow); the only
discretization is in time (RK4).  solve_cs only integrates;
richardson_order_ratio marches three solve_cs clocks and compares them
(``mfglab solve-cs`` calls it at 8 dt over [0, T]; the acceleration
sweep calls it on a step-halving ladder, saves the window nodes and
takes the finest march as its reference).  The flock lives on the line:
the RK4 state is the (N, 2) array [pos | vel].
"""

from __future__ import annotations

import numpy as np

from .kernels import CuckerSmaleKernel, _cs_alignment, _flock
from .measures import MeasurePath, ParticleEnsemble, _march, _n_steps


def cs_rhs(ensemble: ParticleEnsemble, kernel: CuckerSmaleKernel) -> np.ndarray:
    """Per-atom alignment acceleration a_i = -sum_j w_j 2(v_i - v_j)/g(x_i - x_j), (N,)."""
    return _phase_rhs(ensemble, kernel)(ensemble.points)[:, 1]


def _rk4(rhs, z, dt):
    """One classical RK4 step of dz/dt = rhs(z) from the state array z."""
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * dt * k1)
    k3 = rhs(z + 0.5 * dt * k2)
    k4 = rhs(z + dt * k3)
    return z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _phase_rhs(m0: ParticleEnsemble, kernel):
    """Right-hand side on the state z = [pos | vel], (N, 2): returns [vel | -D_vF], with -D_vF
    the alignment acceleration from the block-upper staircase of the symmetric weight matrix
    (``kernels._cs_alignment``), on velocities centred on their weighted mean."""
    _flock(m0)
    alignment = _cs_alignment(kernel, m0.weights)

    def rhs(z):
        out = np.empty_like(z)
        out[:, 0] = z[:, 1]
        alignment(z[:, 0], z[:, 1], out[:, 1])
        return out

    return rhs


def richardson_order_ratio(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    dt: float,
    save_every: int | None = None,
    finest: list | None = None,
) -> float:
    """Step-halving error ratio max |z_dt - z_dt/2| / max |z_dt/2 - z_dt/4|; ~16 for RK4.

    The three marches are solve_cs runs of n = _n_steps(T, dt), 2n and 4n steps of T/n, T/2n and T/4n, and
    the maxima run over the nodes all three save: node 0, every save_every-th node of the coarsest clock and T
    (by default T alone).  A list passed as finest receives the finest march, a MeasurePath of those nodes,
    and its error estimate max |z_dt/4 - z_dt/2| / 15 (RK4's local extrapolation, 2^4 - 1)."""
    n = _n_steps(T, dt)
    every = n if save_every is None else save_every
    paths = [solve_cs(m0, kernel, T, T / (c * n), save_every=c * every) for c in (1, 2, 4)]
    z1, z2, z4 = (np.stack([m.points for m in path.measures]) for path in paths)
    e1 = np.max(np.abs(z1 - z2))
    e2 = np.max(np.abs(z2 - z4))
    if finest is not None:
        finest.append((paths[2], float(e2 / 15.0)))
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
    saving every save_every-th step and the last (by default every step of a run of fewer than 1,024 steps,
    512 to 768 of a longer one)."""
    rhs = _phase_rhs(m0, kernel)
    step = lambda z, t: _rk4(rhs, z, dt)
    return _march(m0, m0.points, step, lambda z: ParticleEnsemble(z, m0.weights, 1), T, dt, save_every)
