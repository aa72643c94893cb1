"""Kinetic Cucker-Smale dynamics via self-consistent characteristics.

For atomic initial data the particle system *is* the measure-valued
solution (pushforward of m0 under the characteristic flow); the only
discretization is in time (RK4).  solve_cs only integrates;
richardson_order_ratio marches three solve_cs clocks and compares them
(``mfglab solve-cs`` calls it at 8 dt over [0, T]).  That comparison is
the first level of ``_step_halving``, the ladder behind both particle
references: each further level marches one new clock, at half the finest
step, and compares it with the two before.  The acceleration sweep climbs
it from richardson_order_ratio's first level on solve_cs marches keeping
the window nodes, the classic sweep on particle marches
(``aggregation.solve_aggregation_particles``) compared at the window end;
each takes the finest march as its reference.  Every march keeps node 0
and the nodes its caller names (by default T alone).  The flock lives on
the line: the RK4 state is the (N, 2) array [pos | vel], and its
right-hand side (``_phase_rhs``) serves the marches alone.
"""

from __future__ import annotations

import itertools

import numpy as np

from .kernels import CuckerSmaleKernel, _cs_alignment, _flock
from .measures import MeasurePath, ParticleEnsemble, _march, _n_steps


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


def _step_halving(march, n):
    """The step-halving ladder of RK4 marches: level k = 0, 1, ... marches n_k = n 2^k, 2 n_k and 4 n_k steps, and
    its two finer marches are the next level's two coarser ones, so each level past the first marches one new
    clock.  march(count) returns the march of count steps and the states it is compared at.  Yields, level by
    level, the finest march, its error estimate max |z_4n - z_2n| / 15 (RK4's local extrapolation, 2^4 - 1), the
    ratio max |z_n - z_2n| / max |z_2n - z_4n| (~16 for RK4; inf when the finer gap is 0) and the RK4 steps
    marched so far."""
    (_, z1), (_, z2), steps = march(n), march(2 * n), 3 * n
    while True:
        path, z4 = march(4 * n)
        steps += 4 * n
        e1, e2 = np.max(np.abs(z1 - z2)), np.max(np.abs(z2 - z4))
        yield path, float(e2 / 15.0), (np.inf if e2 == 0.0 else float(e1 / e2)), steps
        z1, z2, n = z2, z4, 2 * n


def richardson_order_ratio(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    dt: float,
    nodes=None,
    finest: list | None = None,
) -> float:
    """Step-halving error ratio max |z_dt - z_dt/2| / max |z_dt/2 - z_dt/4|; ~16 for RK4.

    The three marches are solve_cs runs of n = _n_steps(T, dt), 2n and 4n steps of T/n, T/2n and T/4n, and
    the maxima run over the nodes all three keep: node 0 and the node indices in nodes on the coarsest clock
    (by default node 0 and T); they are the first level of ``_step_halving``.  A list passed as finest receives
    the finest march, a MeasurePath of those nodes, its error estimate max |z_dt/4 - z_dt/2| / 15, and the ladder
    from this level on: an iterator of each level's (finest march, estimate, ratio, RK4 steps so far), whose
    every next() past this level marches one new clock, at half the finest step."""
    n = _n_steps(T, dt)
    nodes = None if nodes is None else list(nodes)  # every march reads them again

    def march(count):
        path = solve_cs(m0, kernel, T, T / count, None if nodes is None else [j * (count // n) for j in nodes])
        return path, np.stack([m.points for m in path.measures])

    levels = _step_halving(march, n)
    first = next(levels)
    if finest is not None:
        finest.append((first[0], first[1], itertools.chain([first], levels)))
    return first[2]


def solve_cs(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    T: float,
    dt: float,
    nodes=None,
) -> MeasurePath:
    """RK4 integration of the coupled characteristic system on the clock of measures._march, keeping
    node 0 and the node indices in nodes (by default node 0 and T)."""
    rhs = _phase_rhs(m0, kernel)
    step = lambda z, t: _rk4(rhs, z, dt)
    return _march(m0, m0.points, step, lambda z: ParticleEnsemble(z, m0.weights, 1), T, dt, nodes)
