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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

from .kernels import CuckerSmaleKernel
from .measures import MeasurePath, ParticleEnsemble, _csv_table


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
        """Node positions and velocities from the exact kinematic recursion."""
        n, K, d = self.controls.shape
        dt = self.dt
        x = np.empty((n, K + 1, d))
        v = np.empty((n, K + 1, d))
        x[:, 0] = self.x0
        v[:, 0] = self.v0
        for j in range(K):
            a = self.controls[:, j]
            x[:, j + 1] = x[:, j] + dt * v[:, j] + 0.5 * dt**2 * a
            v[:, j + 1] = v[:, j] + dt * a
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

    def measure_path(self) -> MeasurePath:
        return MeasurePath(self.times, [self.phase_ensemble(j) for j in range(self.n_intervals + 1)])

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


#: largest single (N, N, J, d) pair array the energy and its gradients may allocate, in bytes
PAIR_ARRAY_CAP = 2**28


def _pair_offsets(x, v):
    """x_p - x_q and v_p - v_q, each (N, N, J, d); raises before allocating past PAIR_ARRAY_CAP."""
    nbytes = x.shape[0] * x.nbytes
    if nbytes > PAIR_ARRAY_CAP:
        raise ValueError(f"pair arrays of {nbytes} bytes each exceed the cap of {PAIR_ARRAY_CAP} bytes")
    return x[:, None] - x[None, :], v[:, None] - v[None, :]


def _pair_gradients(x, v, w, kernel):
    """Per-atom D_xF and D_vF at every node, (N, J, d) each, without the atom's own weight."""
    dxp, dvp = _pair_offsets(x, v)
    gx = np.einsum("q,pqjd->pjd", w, kernel.grad_x(dxp, dvp))
    return gx, np.einsum("q,pqjd->pjd", w, kernel.grad_v(dxp, dvp))


def _quadrature_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Trapezoid weights for int e^(-lam t) f(t) dt on the nodes."""
    dt = times[1] - times[0]
    c = np.full(times.size, dt)
    c[0] = c[-1] = 0.5 * dt
    return c * np.exp(-lam * times)


def _control_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Exact per-interval integral of e^(-lam t) dt."""
    return (np.exp(-lam * times[:-1]) - np.exp(-lam * times[1:])) / lam


def discrete_energy(ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float) -> EnergyBreakdown:
    """Discounted energy of the ensemble (exact control quadrature, trapezoid coupling)."""
    times = ens.times
    cw = _control_weights(times, lam)
    a2 = np.sum(ens.controls**2, axis=2)  # (N, K)
    control = float(np.sum(ens.weights[:, None] * a2 * cw[None, :]) / (2.0 * lam))
    qw = _quadrature_weights(times, lam)
    w = ens.weights
    phi = 0.5 * np.einsum("p,q,pqj->j", w, w, kernel.value(*_pair_offsets(ens.positions, ens.velocities)))
    return EnergyBreakdown(control=control, interaction=float(qw @ phi))


def energy_gradient(ens: TrajectoryEnsemble, kernel: CuckerSmaleKernel, lam: float) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. every control, (N, K, d).

    Reverse accumulation: per-node interaction gradients are pushed back
    through the kinematic recursion with adjoint states.
    """
    times = ens.times
    K = ens.n_intervals
    dt = ens.dt
    qw = _quadrature_weights(times, lam)
    cw = _control_weights(times, lam)
    w = ens.weights
    gx, gv = _pair_gradients(ens.positions, ens.velocities, w, kernel)
    gx = w[:, None, None] * gx * qw[None, :, None]
    gv = w[:, None, None] * gv * qw[None, :, None]

    grad = np.empty_like(ens.controls)
    px = gx[:, K].copy()  # dE/dx_K
    pv = gv[:, K].copy()
    for j in range(K - 1, -1, -1):
        grad[:, j] = (
            w[:, None] * ens.controls[:, j] * cw[j] / lam  # control cost
            + 0.5 * dt**2 * px
            + dt * pv
        )
        pv = pv + dt * px + gv[:, j]
        px = px + gx[:, j]
    return grad


@dataclass(frozen=True)
class MinimizeResult:
    ensemble: TrajectoryEnsemble
    energy: EnergyBreakdown
    gradient_norm: float
    converged: bool
    iterations: int
    el_residual: float


def minimize_energy(
    m0: ParticleEnsemble,
    kernel: CuckerSmaleKernel,
    lam: float,
    T: float,
    n_intervals: int,
    gtol: float = 1e-11,
    max_iterations: int = 500,
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
        ens = start.with_controls(theta.reshape(shape) / s)
        e = discrete_energy(ens, kernel, lam)
        g = energy_gradient(ens, kernel, lam)
        return e.total, (g / s).ravel()

    res = minimize(
        objective,
        np.zeros(s.size),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "ftol": 1e-16, "maxiter": max_iterations},
    )
    ens = start.with_controls(res.x.reshape(shape) / s)
    energy = discrete_energy(ens, kernel, lam)
    gnorm = float(np.max(np.abs(res.jac)))
    residual = el_residual(ens, kernel, lam) if n_intervals >= 8 else np.nan
    return MinimizeResult(
        ensemble=ens,
        energy=energy,
        gradient_norm=gnorm,
        converged=bool(res.success or gnorm <= 10 * gtol),
        iterations=int(res.nit),
        el_residual=residual,
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

    dxF, dvF = _pair_gradients(xm, vm, ens.weights, kernel)

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
