"""Variational solver for the MFG of acceleration.

The measure on curves is represented by N weighted trajectories with
piecewise-constant acceleration controls on a uniform time grid; the
initial phase-space atoms are fixed, the controls are the decision
variables.  The discounted energy

    J = sum_i w_i int e^{-lam t} |a_i(t)|^2 / (2 lam) dt
        + int e^{-lam t} Phi(m(t)) dt,
    Phi(m) = (1/2) sum_{p,q} w_p w_q k(x_p-x_q, v_p-v_q),

is discretized with exact control weights and product-trapezoid
interaction weights (``measures._exp_trapezoid_weights``), and minimized
by ``measures._anderson`` at depth ANDERSON_DEPTH (the fixed point that
``mfg_pde`` runs at depth 1) in the preconditioned controls on the exact
discrete gradient (reverse accumulation through the kinematic recursion).  A solve has one
admission check, ``_preconditioner`` (the budget N K, then a scale that
does not underflow), and one verdict, ``MinimizeResult.certified``: the
sup-norm residual of the rearranged fourth-order Euler-Lagrange identity.

What the objective needs that depends only on the weights, T, K and lam
(``_Objective``: the two sets of quadrature weights and the flock's pair
table, ``kernels._flock_pairs``) is formed once per minimization, after
admission; each evaluation forms only what depends on the controls.
One objective evaluation is one pass with no Python loop over atoms or
intervals: node and adjoint states are running sums (``np.cumsum`` adds
in sequence, so they round as the step-by-step recursions do), and the
energy and interaction gradients come from one Cucker-Smale pair pass
(``kernels._cs_pair_pass``).  Phi sums an even k over ordered pairs, so
the pass takes each unordered pair p < q once, on (M, nodes) pair
differences with the time nodes innermost, M = N(N-1)/2, in chunks of
nodes within a fixed byte budget: no pair array grows with K, and the
rest of the evaluation holds O(N K) node and adjoint arrays.  The
reported energy (``discrete_energy``) applies ``kernel.value`` to the
same pair offsets, over a table of its own, as does ``el_residual``.
Curves live on the line: controls are (N, K) and node states (N, K+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kernels import CuckerSmaleKernel, _cs_pair_energy, _cs_pair_pass, _flock, _flock_pairs, _PairTable
from .measures import (MASS_TOL_PARTICLES, ParticleEnsemble, _anderson, _csv_table, _exp_trapezoid_weights, _freeze,
                       _positive_finite)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """N discrete curves on the line with piecewise-constant accelerations.

    positions/velocities at the K+1 nodes are always rebuilt from the
    controls, so kinematic consistency is exact by construction.
    """

    x0: np.ndarray  # (N,)
    v0: np.ndarray  # (N,)
    controls: np.ndarray  # (N, K), acceleration on each sub-interval
    T: float
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        x0, v0, a, w = _freeze(self, x0=self.x0, v0=self.v0, controls=self.controls, weights=self.weights)
        for name, arr in (("x0", x0), ("v0", v0), ("controls", a), ("weights", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if x0.ndim != 1 or v0.shape != x0.shape or a.ndim != 2 or a.shape[0] != x0.size or a.shape[1] < 1:
            raise ValueError(f"x0 and v0 must have shape (N,) and controls (N, K) with K >= 1, got controls {a.shape}")
        if abs(w.sum() - 1.0) > MASS_TOL_PARTICLES or np.any(w < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        _positive_finite(T=self.T)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def n_intervals(self) -> int:
        return self.controls.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.n_intervals

    @cached_property
    def times(self) -> np.ndarray:
        """The K+1 node times, read-only."""
        times = np.linspace(0.0, self.T, self.n_intervals + 1)
        times.setflags(write=False)
        return times

    @cached_property
    def _states(self):
        """Node positions and velocities from the exact kinematic recursion
        v_{j+1} = v_j + dt a_j, x_{j+1} = (x_j + dt v_j) + (dt^2/2) a_j, as running
        sums; positions are every other partial sum of [x_0, dt v_0, (dt^2/2) a_0, dt v_1, ...].
        """
        n, K = self.controls.shape
        dt = self.dt
        v = np.cumsum(np.concatenate([self.v0[:, None], dt * self.controls], axis=1), axis=1)
        steps = np.empty((n, 2 * K + 1))
        steps[:, 0] = self.x0
        steps[:, 1::2] = dt * v[:, :-1]
        steps[:, 2::2] = 0.5 * dt**2 * self.controls
        x = np.cumsum(steps, axis=1)[:, ::2].copy()
        return x, v

    @property
    def positions(self) -> np.ndarray:
        return self._states[0]

    @property
    def velocities(self) -> np.ndarray:
        return self._states[1]

    def phase_ensemble(self, node: int) -> ParticleEnsemble:
        x, v = self._states
        return ParticleEnsemble(np.column_stack([x[:, node], v[:, node]]), self.weights, 1)

    def with_controls(self, controls) -> "TrajectoryEnsemble":
        return TrajectoryEnsemble(self.x0, self.v0, controls, self.T, self.weights)

    @classmethod
    def free_flight(cls, m0: ParticleEnsemble, T: float, n_intervals: int) -> "TrajectoryEnsemble":
        """Straight-line start (zero controls) from phase-space atoms on the line."""
        x0, v0 = _flock(m0)
        return cls(x0, v0, np.zeros((m0.n, n_intervals)), T, m0.weights)

    def to_csv(self) -> str:
        x, v = self._states
        a_nodes = np.concatenate([self.controls, self.controls[:, -1:]], axis=1)
        states = np.stack([x, v, a_nodes], axis=2).tolist()
        cols = ["trajectory", "t", "x1", "v1", "a1"]
        times = self.times.tolist()
        return _csv_table(cols, ([i, t, *s] for i, traj in enumerate(states) for t, s in zip(times, traj)))


@dataclass(frozen=True)
class EnergyBreakdown:
    control: float
    interaction: float

    def __post_init__(self):
        if self.control < 0 or self.interaction < 0:
            raise ValueError("energy parts must be nonnegative")

    @property
    def total(self) -> float:
        return self.control + self.interaction


def _control_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Exact per-interval integral of e^(-lam t) dt."""
    return (np.exp(-lam * times[:-1]) - np.exp(-lam * times[1:])) / lam


#: cap on the decision variables N K of one minimization
DECISION_VARIABLE_BUDGET = 10**6


def _preconditioner(weights: np.ndarray, lam: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Admit a solve on the node times (K+1,) of [0, T]: ValueError if N K exceeds DECISION_VARIABLE_BUDGET, then
    if an entry of the scale is zero.  The scale s = sqrt(w_i c_j / lam), (N, K), c_j = int e^(-lam t) dt over the
    K intervals, gives the controls b = s a in which the control Hessian is the identity.  Returns s and the c_j."""
    n_intervals, T = times.size - 1, times[-1]
    if (nk := weights.size * n_intervals) > DECISION_VARIABLE_BUDGET:
        raise ValueError(f"lambda = {lam:g} needs K = {n_intervals} intervals for N = {weights.size} atoms: "
                         f"N K = {nk} exceeds the decision-variable budget of {DECISION_VARIABLE_BUDGET}")
    cw = _control_weights(times, lam)
    s = np.sqrt(weights[:, None] * cw / lam)
    if not np.all(s > 0):
        raise ValueError(f"lambda = {lam:g}, T = {T:g}: the control preconditioner sqrt(w_i c_j / lambda) has a "
                         "zero entry; the c_j underflow to 0 as lambda T nears 745, and every atom needs a "
                         "positive weight")
    return s, cw


class _Objective(NamedTuple):
    """The constants of the discrete energy that depend only on the weights, T, K and lam: the
    product-trapezoid interaction weights qw (K+1,), the exact control weights cw (K,) and the
    flock's pair table (``kernels._flock_pairs``)."""

    qw: np.ndarray
    cw: np.ndarray
    pairs: _PairTable


def _energy(
    ens: TrajectoryEnsemble, lam: float, pairs: np.ndarray, qw: np.ndarray, cw: np.ndarray
) -> EnergyBreakdown:
    """Exact control quadrature (weights cw) plus the product trapezoid (weights qw) over the node pair sums
    sum_pq w_p w_q k, (K+1,)."""
    control = float(np.sum(ens.weights[:, None] * ens.controls**2 * cw[None, :]) / (2.0 * lam))
    return EnergyBreakdown(control=control, interaction=float(qw @ (0.5 * pairs)))


def discrete_energy(ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float) -> EnergyBreakdown:
    """Discounted energy of the ensemble (exact control quadrature, product-trapezoid coupling); the
    node pair sums apply ``kernel.value`` to the pair offsets (``kernels._cs_pair_energy``)."""
    pairs = _cs_pair_energy(kernel, ens.positions, ens.velocities, ens.weights)
    return _energy(ens, lam, pairs, _exp_trapezoid_weights(ens.times, lam), _control_weights(ens.times, lam))


def energy_gradient(
    ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float, objective: _Objective | None = None
) -> tuple[EnergyBreakdown, np.ndarray]:
    """The discrete energy and its exact gradient w.r.t. every control, (N, K).

    objective holds the quadrature weights and the pair table, which depend only on the weights,
    T, K and lam; ``minimize_energy`` forms them once per solve and passes them to every
    evaluation, and a call without them forms them from ens and lam.  One Cucker-Smale pair
    pass over that table gives the energy and the per-node interaction gradients.  Reverse
    accumulation pushes those back through the kinematic recursion: the adjoint states are
    suffix sums, px_j of the position gradients after node j and pv_j of the interleaved
    [gv_K, dt px_{K-1}, gv_{K-1}, dt px_{K-2}, ...], each added in the order the backward
    recursion adds them.
    """
    K = ens.n_intervals
    dt = ens.dt
    x, v, w = ens.positions, ens.velocities, ens.weights
    if objective is None:
        times = ens.times
        objective = _Objective(_exp_trapezoid_weights(times, lam), _control_weights(times, lam), _flock_pairs(w))
    qw, cw, table = objective
    pairs, gx, gv = _cs_pair_pass(kernel, x, v, w, table)
    for g in (gx, gv):  # the pass's own arrays, weighted in place: w g qw
        g *= w[:, None]
        g *= qw

    px = np.cumsum(gx[:, :0:-1], axis=1)[:, ::-1]  # px[:, j] = dE/dx_{j+1} + ... + dE/dx_K
    steps = np.empty((ens.n, 2 * K - 1))
    steps[:, 0::2] = gv[:, :0:-1]
    steps[:, 1::2] = dt * px[:, :0:-1]
    del gx, gv
    pv = np.cumsum(steps, axis=1, out=steps)[:, ::-2]  # every other partial sum, back in node order
    grad = w[:, None] * ens.controls * cw[None, :] / lam
    grad += 0.5 * dt**2 * px
    grad += dt * pv
    return _energy(ens, lam, pairs, qw, cw), grad


#: the fixed point stops once its control step, max_{t <= T/2} |f/s| / (1 + max|a|), is at most this
CONTROL_STEP_TOLERANCE = 1e-10
#: cap on the objective evaluations of one minimization; at the cap the best iterate is returned
MAX_OBJECTIVE_EVALUATIONS = 40
#: the Anderson depth of the fixed point.  Over the 36 accel-sweep benchmark rows (24 atoms, lam = 10 to 80,
#: each row warm-started) depths 1 to 5 took 513, 450, 423, 414 and 405 evaluations; depth 3 left the lam = 80
#: linear-quadratic flock 6.1e-12 from its exact discrete minimizer (stopped at a 9.0e-11 control step), depth 4
#: 8.8e-13, as depth 1 left 3.1e-13.  The history holds 2 depth (N, K) arrays, 1 MB at N = 24, K = 632
ANDERSON_DEPTH = 4


@dataclass(frozen=True)
class MinimizeResult:
    """A minimization and its one verdict, ``certified``; the fixed-point counts and the final control
    step are reported, not judged."""

    ensemble: TrajectoryEnsemble
    energy: EnergyBreakdown
    control_step: float  # max_{t <= T/2} |f/s| / (1 + max|a|) at the returned iterate
    iterations: int  # fixed-point steps
    el_residual: float
    function_evaluations: int  # objective (energy and gradient) evaluations
    fixed_point_fallbacks: int  # half steps taken instead of Anderson steps

    @property
    def certified(self) -> bool:
        """The Euler-Lagrange certificate holds: el_residual is finite and at most EL_TOLERANCE."""
        return bool(np.isfinite(self.el_residual) and self.el_residual <= EL_TOLERANCE)


def minimize_energy(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    lam: float,
    T: float,
    n_intervals: int,
    start: np.ndarray | None = None,
) -> MinimizeResult:
    """Minimize the discounted energy by a fixed point in the preconditioned controls b = s a.

    In b the control Hessian is the identity, so b -> b - grad_b J contracts while the interaction Hessian
    is small: at alpha = 1 the ratio was about 5/lam from lam = 20 on.  The stiffness grows like
    sup 1/g = alpha^-beta; at lam = 10 the map did not contract at alpha = 0.1 or 0.01 with beta = 1, nor
    at alpha = 0.01, beta = 2.  The fixed point is ``measures._anderson`` at depth ANDERSON_DEPTH on
    b -> g = b + f, f = -grad_b J, the driver of ``mfg_pde.solve_mfg_fixed_point`` too (at depth 1 there); its
    half steps are counted in fixed_point_fallbacks.  It starts from the controls start, (N, K), if given, and
    else from free flight, the exact minimizer of the control term and the competitor behind the a priori
    energy bound 2 C0 M_{2,v}(m0) / lam.  It stops once the control step max_{t <= T/2} |f/s| / (1 + max|a|)
    is at most CONTROL_STEP_TOLERANCE, or after MAX_OBJECTIVE_EVALUATIONS evaluations with the iterate of the
    first smallest step.  The step is a stop rule, not a verdict: ``el_residual`` runs once, on the returned iterate.
    Admission (``_preconditioner``) reads only the weights and the node times, so a refused solve builds no
    (N, K) array; the objective's constants (``_Objective``) are formed once, after it, and serve every evaluation.
    """
    _flock(m0)
    _positive_finite(T=T)
    times = np.linspace(0.0, T, n_intervals + 1)  # the node times, TrajectoryEnsemble.times
    # admit, and precondition: the raw problem is conditioned like e^{lam T}, hopeless for a fixed point
    s, cw = _preconditioner(m0.weights, lam, times)
    flight = TrajectoryEnsemble.free_flight(m0, T, n_intervals)
    if start is None:
        b = np.zeros(s.shape)
    elif np.shape(start) != s.shape or not np.all(np.isfinite(start)):
        raise ValueError(f"start must be finite controls of shape {s.shape}, got shape {np.shape(start)}")
    else:
        b = s * start
    objective = _Objective(_exp_trapezoid_weights(times, lam), cw, _flock_pairs(flight.weights))
    window = 0.5 * (times[:-1] + times[1:]) <= 0.5 * T  # interval midpoints, as el_residual

    def evaluate(b):  # f = -grad_b J, the image b + f, and the size of the control step f
        a = b / s
        f = energy_gradient(flight.with_controls(a), kernel, lam, objective)[1]
        f /= -s
        return f, b + f, float(np.max(np.abs(f[:, window] / s[:, window])) / (1.0 + np.max(np.abs(a)))), b

    b, steps, half_steps = _anderson(b, evaluate, CONTROL_STEP_TOLERANCE, MAX_OBJECTIVE_EVALUATIONS, ANDERSON_DEPTH)
    ens = flight.with_controls(b / s)
    return MinimizeResult(
        ensemble=ens,
        energy=discrete_energy(ens, kernel, lam),
        control_step=min(steps),  # the driver's pick: min keeps the first smallest
        iterations=len(steps) - 1,
        el_residual=el_residual(ens, kernel, lam) if n_intervals >= 8 else np.nan,
        function_evaluations=len(steps),
        fixed_point_fallbacks=half_steps,
    )


#: certification tolerance for el_residual
EL_TOLERANCE = 1e-4


def el_residual(ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float) -> float:
    """Sup-norm residual of the rearranged Euler-Lagrange identity.

    The optimality ODE, divided by the discount weight, reads

        a + D_vF = (1/lam) (-(1/lam) x'''' + 2 x''' + d/dt D_vF - D_xF),

    and is evaluated at interval midpoints with centered differences of
    the control sequence; the result is normalized by (1 + max|a|).
    """
    K = ens.n_intervals
    if K < 8:
        raise ValueError("el_residual needs at least 8 intervals for the FD stencils")
    dt = ens.dt
    a = ens.controls  # (N, K): acceleration samples at interval midpoints
    x, v = ens.positions, ens.velocities
    # states at interval midpoints (second-order interpolation)
    xm = 0.5 * (x[:, :-1] + x[:, 1:])
    vm = 0.5 * (v[:, :-1] + v[:, 1:])

    _, dxF, dvF = _cs_pair_pass(kernel, xm, vm, ens.weights)

    jerk = (a[:, 2:] - a[:, :-2]) / (2 * dt)  # x''' at midpoints 1..K-2
    snap = (a[:, 2:] - 2 * a[:, 1:-1] + a[:, :-2]) / dt**2
    dvF_dot = (dvF[:, 2:] - dvF[:, :-2]) / (2 * dt)

    mid = slice(1, K - 1)
    lhs = a[:, mid] + dvF[:, mid]
    rhs = (-(1.0 / lam) * snap + 2.0 * jerk + dvF_dot - dxF[:, mid]) / lam
    # certify on [0, T/2] only: besides the terminal layer (width ~1/lam,
    # where the e^{lam t} homogeneous mode lives), late controls carry the
    # weight e^{-lam t}, so optimizer roundoff there is amplified by the
    # 1/dt^2 in the snap stencil far beyond any meaningful signal
    t_mid = 0.5 * (ens.times[:-1] + ens.times[1:])[mid]
    keep = t_mid <= 0.5 * ens.T
    # K >= 8 keeps the first midpoint, at 1.5 T/K <= T/2
    resid = np.abs(lhs - rhs)[:, keep]
    return float(np.max(resid) / (1.0 + np.max(np.abs(a))))
