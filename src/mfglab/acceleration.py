"""Variational solver for the MFG of acceleration.

The measure on curves is represented by N weighted trajectories with
piecewise-constant acceleration controls on a uniform time grid; the
initial phase-space atoms are fixed, the controls are the decision
variables.  The discounted energy

    J = sum_i w_i int e^{-lam t} |a_i(t)|^2 / (2 lam) dt
        + int e^{-lam t} Phi(m(t)) dt,
    Phi(m) = (1/2) sum_{p,q} w_p w_q k(x_p-x_q, v_p-v_q),

is minimized by quasi-Newton descent with the exact discrete gradient
(reverse accumulation through the kinematic recursion).  Minimizers are
certified by the sup-norm residual of the rearranged fourth-order
Euler-Lagrange identity.

One objective evaluation is one pass without Python loops: node and
adjoint states are running sums (``np.cumsum`` adds in sequence, so they
round as the step-by-step recursions do), and the energy and interaction
gradients come from one Cucker-Smale pair sum over one set of offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

from .kernels import CuckerSmaleKernel, _cs_pair_sum, _pair_offsets
from .measures import ParticleEnsemble, _csv_table


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """N discrete curves with piecewise-constant accelerations.

    positions/velocities at the K+1 nodes are always rebuilt from the
    controls, so kinematic consistency is exact by construction.
    """

    x0: np.ndarray  # (N, d)
    v0: np.ndarray  # (N, d)
    controls: np.ndarray  # (N, K, d), acceleration on each sub-interval
    T: float
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        x0 = np.atleast_2d(np.asarray(self.x0, dtype=float))
        v0 = np.atleast_2d(np.asarray(self.v0, dtype=float))
        a = np.asarray(self.controls, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        for name, arr in (("x0", x0), ("v0", v0), ("controls", a), ("weights", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if a.ndim != 3 or a.shape[0] != x0.shape[0] or a.shape[2] != x0.shape[1]:
            raise ValueError("controls must have shape (N, K, d)")
        if v0.shape != x0.shape:
            raise ValueError("v0 must match x0")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.T <= 0:
            raise ValueError("T must be positive")
        for name, arr in (("x0", x0), ("v0", v0), ("controls", a), ("weights", w)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def d(self) -> int:
        return self.x0.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.controls.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.n_intervals

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_intervals + 1)

    @cached_property
    def _states(self):
        """Node positions and velocities from the exact kinematic recursion
        v_{j+1} = v_j + dt a_j, x_{j+1} = (x_j + dt v_j) + (dt^2/2) a_j, as running
        sums; positions are every other partial sum of [x_0, dt v_0, (dt^2/2) a_0, dt v_1, ...].
        """
        n, K, d = self.controls.shape
        dt = self.dt
        v = np.cumsum(np.concatenate([self.v0[:, None], dt * self.controls], axis=1), axis=1)
        steps = np.empty((n, 2 * K + 1, d))
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
        return ParticleEnsemble(np.hstack([x[:, node], v[:, node]]), self.weights, self.d)

    def with_controls(self, controls) -> "TrajectoryEnsemble":
        return TrajectoryEnsemble(self.x0, self.v0, np.asarray(controls, dtype=float), self.T, self.weights)

    @classmethod
    def free_flight(cls, m0: ParticleEnsemble, T: float, n_intervals: int) -> "TrajectoryEnsemble":
        """Straight-line start (zero controls) from phase-space atoms."""
        d = m0.spatial_dim
        return cls(
            m0.positions,
            m0.velocities,
            np.zeros((m0.n, n_intervals, d)),
            T,
            m0.weights,
        )

    def to_csv(self) -> str:
        x, v = self._states
        a_nodes = np.concatenate([self.controls, self.controls[:, -1:]], axis=1)
        states = np.concatenate([x, v, a_nodes], axis=2).tolist()
        cols = ["trajectory", "t"] + [f"{b}{i + 1}" for b in "xva" for i in range(self.d)]
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


def _quadrature_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Trapezoid weights for int e^(-lam t) f(t) dt on the nodes."""
    dt = times[1] - times[0]
    c = np.full(times.size, dt)
    c[0] = c[-1] = 0.5 * dt
    return c * np.exp(-lam * times)


def _control_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Exact per-interval integral of e^(-lam t) dt."""
    return (np.exp(-lam * times[:-1]) - np.exp(-lam * times[1:])) / lam


def _energy(ens: TrajectoryEnsemble, lam: float, pairs: np.ndarray) -> EnergyBreakdown:
    """Exact control quadrature plus the trapezoid rule over the node pair sums sum_pq w_p w_q k, (K+1,)."""
    times = ens.times
    cw = _control_weights(times, lam)
    a2 = np.sum(ens.controls**2, axis=2)  # (N, K)
    control = float(np.sum(ens.weights[:, None] * a2 * cw[None, :]) / (2.0 * lam))
    return EnergyBreakdown(control=control, interaction=float(_quadrature_weights(times, lam) @ (0.5 * pairs)))


def discrete_energy(ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float) -> EnergyBreakdown:
    """Discounted energy of the ensemble (exact control quadrature, trapezoid coupling)."""
    x, v, w = ens.positions, ens.velocities, ens.weights
    return _energy(ens, lam, np.einsum("p,q,pqj->j", w, w, kernel.value(*_pair_offsets(x, v, x, v))))


def energy_gradient(
    ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float
) -> tuple[EnergyBreakdown, np.ndarray]:
    """The discrete energy and its exact gradient w.r.t. every control, (N, K, d).

    One pair sum gives the energy and the per-node interaction
    gradients.  Reverse accumulation pushes those back through the
    kinematic recursion: the adjoint states are suffix sums, px_j of the
    position gradients after node j and pv_j of the interleaved
    [gv_K, dt px_{K-1}, gv_{K-1}, dt px_{K-2}, ...], each added in the
    order the backward recursion adds them.
    """
    K = ens.n_intervals
    dt = ens.dt
    x, v, w = ens.positions, ens.velocities, ens.weights
    pairs, gx, gv = _cs_pair_sum(kernel, x, v, x, v, w, wq=w, grad_x=True, grad_v=True)
    qw = _quadrature_weights(ens.times, lam)
    cw = _control_weights(ens.times, lam)
    gx = w[:, None, None] * gx * qw[None, :, None]
    gv = w[:, None, None] * gv * qw[None, :, None]

    px = np.cumsum(gx[:, :0:-1], axis=1)[:, ::-1]  # px[:, j] = dE/dx_{j+1} + ... + dE/dx_K
    steps = np.empty((ens.n, 2 * K - 1, ens.d))
    steps[:, 0::2] = gv[:, :0:-1]
    steps[:, 1::2] = dt * px[:, :0:-1]
    pv = np.cumsum(steps, axis=1)[:, ::-2]  # every other partial sum, back in node order
    control_cost = w[:, None, None] * ens.controls * cw[None, :, None] / lam
    return _energy(ens, lam, pairs), control_cost + 0.5 * dt**2 * px + dt * pv


#: L-BFGS-B tolerance on the largest projected gradient entry
LBFGS_GTOL = 1e-11
#: L-BFGS-B iteration cap
LBFGS_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class MinimizeResult:
    ensemble: TrajectoryEnsemble
    energy: EnergyBreakdown
    gradient_norm: float
    converged: bool
    iterations: int
    el_residual: float
    function_evaluations: int  # objective (energy and gradient) evaluations by L-BFGS-B


def minimize_energy(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    lam: float,
    T: float,
    n_intervals: int,
) -> MinimizeResult:
    """Quasi-Newton minimization of the discounted energy from free flight.

    Free flight is the exact minimizer of the control term, so it is
    both the start point and the comparison competitor behind the
    a priori energy bound 2 C0 M_{2,v}(m0) / lam.
    """
    start = TrajectoryEnsemble.free_flight(m0, T, n_intervals)
    if m0.n * n_intervals * m0.spatial_dim > 10**6:
        raise ValueError("decision-variable budget exceeded (N K d > 1e6)")
    shape = start.controls.shape

    # precondition: in variables b = s * a the control Hessian is the
    # identity (the raw problem is conditioned like e^{lam T}, hopeless
    # for a quasi-Newton start)
    cw = _control_weights(start.times, lam)
    s = np.sqrt(start.weights[:, None, None] * cw[None, :, None] / lam)
    s = np.broadcast_to(s, shape)

    def objective(theta):
        e, g = energy_gradient(start.with_controls(theta.reshape(shape) / s), kernel, lam)
        return e.total, (g / s).ravel()

    res = minimize(
        objective,
        np.zeros(s.size),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": LBFGS_GTOL, "ftol": 1e-16, "maxiter": LBFGS_MAX_ITERATIONS},
    )
    ens = start.with_controls(res.x.reshape(shape) / s)
    energy = discrete_energy(ens, kernel, lam)
    gnorm = float(np.max(np.abs(res.jac)))
    residual = el_residual(ens, kernel, lam) if n_intervals >= 8 else np.nan
    return MinimizeResult(
        ensemble=ens,
        energy=energy,
        gradient_norm=gnorm,
        converged=bool(res.success or gnorm <= 10 * LBFGS_GTOL),
        iterations=int(res.nit),
        el_residual=residual,
        function_evaluations=int(res.nfev),
    )


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
    a = ens.controls  # (N, K, d): acceleration samples at interval midpoints
    x, v = ens.positions, ens.velocities
    # states at interval midpoints (second-order interpolation)
    xm = 0.5 * (x[:, :-1] + x[:, 1:])
    vm = 0.5 * (v[:, :-1] + v[:, 1:])

    dxF, dvF = _cs_pair_sum(kernel, xm, vm, xm, vm, ens.weights, grad_x=True, grad_v=True)

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
    resid = np.abs(lhs - rhs)[:, keep]
    if resid.size == 0:
        return 0.0
    return float(np.max(resid) / (1.0 + np.max(np.abs(a))))
