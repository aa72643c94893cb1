import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize

from mfglab import acceleration, kernels
from mfglab import (
    CuckerSmaleKernel,
    ParticleEnsemble,
    TrajectoryEnsemble,
    discrete_energy,
    el_residual,
    energy_gradient,
    minimize_energy,
    moment2,
    solve_cs,
)
from mfglab.acceleration import (
    CONTROL_STEP_TOLERANCE,
    EL_TOLERANCE,
    MAX_OBJECTIVE_EVALUATIONS,
    _control_weights,
    _preconditioner,
    _row_intervals,
)
from mfglab.measures import _exp_trapezoid_weights, wasserstein1_particles
from test_pair_sums import dense_cs_pair_energy, dense_cs_pair_pass, dense_cs_pair_sum


# -- the step-by-step bodies the running sums and the one pair pass replaced, kept as oracles --


def loop_states(ens):
    """Node positions and velocities from the kinematic recursion, one interval at a time."""
    n, K = ens.controls.shape
    dt = ens.dt
    x = np.empty((n, K + 1))
    v = np.empty((n, K + 1))
    x[:, 0] = ens.x0
    v[:, 0] = ens.v0
    for j in range(K):
        a = ens.controls[:, j]
        x[:, j + 1] = x[:, j] + dt * v[:, j] + 0.5 * dt**2 * a
        v[:, j + 1] = v[:, j] + dt * a
    return x, v


def three_call_pair_sums(x, v, w, kernel):
    """sum_pq w_p w_q k per node, and per atom D_xF and D_vF at every node, from the
    pointwise k, D_x k and D_v k of the kernel written out, each a call of its own,
    on (N, K+1) node states."""
    alpha, beta = kernel.alpha, kernel.beta
    g = lambda z: (alpha + z**2) ** beta
    dxp, dvp = x[:, None] - x[None, :], v[:, None] - v[None, :]
    pairs = np.einsum("p,q,pqj->j", w, w, dvp**2 / g(dxp))
    coef = -(dvp**2) * 2.0 * beta * (alpha + dxp**2) ** (-beta - 1.0)
    gx = np.einsum("q,pqj->pj", w, coef * dxp)
    gv = np.einsum("q,pqj->pj", w, 2.0 * dvp / g(dxp))
    return pairs, gx, gv


def loop_energy_gradient(ens, kernel, lam):
    """Control and interaction energy, and the gradient by the backward adjoint loop."""
    times = ens.times
    K = ens.n_intervals
    dt = ens.dt
    qw = _exp_trapezoid_weights(times, lam)
    cw = _control_weights(times, lam)
    w = ens.weights
    x, v = loop_states(ens)
    pairs, gx, gv = three_call_pair_sums(x, v, w, kernel)
    control = float(np.sum(w[:, None] * ens.controls**2 * cw[None, :]) / (2.0 * lam))
    interaction = float(qw @ (0.5 * pairs))
    gx = w[:, None] * gx * qw[None, :]
    gv = w[:, None] * gv * qw[None, :]
    grad = np.empty_like(ens.controls)
    px = gx[:, K].copy()
    pv = gv[:, K].copy()
    for j in range(K - 1, -1, -1):
        grad[:, j] = w * ens.controls[:, j] * cw[j] / lam + 0.5 * dt**2 * px + dt * pv
        pv = pv + dt * px + gv[:, j]
        px = px + gx[:, j]
    return control, interaction, grad


def random_ensemble(rng, n, K):
    w = rng.uniform(0.5, 1.5, n)
    return TrajectoryEnsemble(
        rng.standard_normal(n), rng.standard_normal(n), 0.3 * rng.standard_normal((n, K)), 1.0, w / w.sum()
    )


def finite_difference_gradient(ens, kernel, lam, eps=1e-6):
    g = np.zeros_like(ens.controls)
    base = ens.controls
    for idx in np.ndindex(*base.shape):
        up, dn = base.copy(), base.copy()
        up[idx] += eps
        dn[idx] -= eps
        g[idx] = (
            discrete_energy(ens.with_controls(up), kernel, lam).total
            - discrete_energy(ens.with_controls(dn), kernel, lam).total
        ) / (2 * eps)
    return g


class TestTrajectoryEnsemble:
    def test_kinematic_recursion_exact(self, rng):
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((3, 2)), 1)
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 16).with_controls(
            rng.standard_normal((3, 16))
        )
        dt = ens.dt
        x, v, a = ens.positions, ens.velocities, ens.controls
        for j in range(16):
            assert np.array_equal(v[:, j + 1], v[:, j] + dt * a[:, j])
            assert np.allclose(
                x[:, j + 1], x[:, j] + dt * v[:, j] + 0.5 * dt**2 * a[:, j], rtol=0, atol=1e-16
            )

    def test_free_flight_is_straight(self, two_body_phase):
        ens = TrajectoryEnsemble.free_flight(two_body_phase, 2.0, 8)
        assert np.allclose(
            ens.positions[:, -1],
            two_body_phase.positions[:, 0] + 2.0 * two_body_phase.velocities[:, 0],
            atol=1e-14,
        )

    def test_initial_atoms_fixed(self, two_body_phase, rng):
        ens = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, 8).with_controls(
            rng.standard_normal((2, 8))
        )
        assert np.array_equal(ens.phase_ensemble(0).points, two_body_phase.points)

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_horizon_named(self, two_body_phase, cs_flat, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            TrajectoryEnsemble.free_flight(two_body_phase, T, 8)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            minimize_energy(two_body_phase, cs_flat, 10.0, T, 16)

    def test_empty_control_grid_rejected(self, two_body_phase, cs_flat):
        """K = 0 intervals would make dt = T / 0: the ensemble refuses it by name instead."""
        message = r"controls \(N, K\) with K >= 1, got controls \(2, 0\)"
        with pytest.raises(ValueError, match=message):
            TrajectoryEnsemble(np.zeros(2), np.zeros(2), np.zeros((2, 0)), 1.0, np.full(2, 0.5))
        with pytest.raises(ValueError, match=message):
            minimize_energy(two_body_phase, cs_flat, 10.0, 1.0, 0)

    def test_times_are_formed_once_read_only(self, two_body_phase):
        ens = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, 8)
        assert ens.times is ens.times and not ens.times.flags.writeable
        assert np.array_equal(ens.times, np.linspace(0.0, 1.0, 9))

    def test_csv_has_full_state(self, two_body_phase):
        text = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, 4).to_csv()
        assert text.splitlines()[0] == "trajectory,t,x1,v1,a1"
        assert len(text.splitlines()) == 1 + 2 * 5


class TestDiscreteEnergy:
    def test_free_single_trajectory_zero(self, cs_flat):
        m0 = ParticleEnsemble.equal_weights(np.array([[0.5, -1.0]]), 1)
        e = discrete_energy(TrajectoryEnsemble.free_flight(m0, 1.0, 16), cs_flat, 5.0)
        assert e.total == 0.0

    def test_equal_velocities_no_interaction(self, cs_flat):
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [2.0, 1.0]]), 1)
        e = discrete_energy(TrajectoryEnsemble.free_flight(m0, 1.0, 16), cs_flat, 5.0)
        assert e.interaction == 0.0

    def test_opposite_velocities_exact(self, cs_flat, two_body_phase):
        # constant relative velocity 2, g == 1:
        # F(m(t)) = 1/2 sum w_p w_q |v_p - v_q|^2 = 1, so the interaction integral is
        # int_0^1 e^{-lam t} dt = (1 - e^{-lam}) / lam, which the product trapezoid, exact on
        # integrands linear in t, gives at any K
        for lam in (1.0, 80.0):
            exact = -np.expm1(-lam) / lam
            for K in (1, 8, 64, 4096):
                ens = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, K)
                assert discrete_energy(ens, cs_flat, lam).interaction == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_curved_interaction_second_order(self, cs_flat, two_body_phase):
        # controls -1/2 and +1/2 close the flock: relative velocity 2 - t, so F(m(t)) = (1 - t/2)^2,
        # and int_0^1 e^{-lam t} (1 - t + t^2/4) dt = I0 - I1 + I2/4 with the moments
        # I_n = int_0^1 t^n e^{-lam t} dt; the product trapezoid is second order on it
        lam = 5.0
        e = np.exp(-lam)
        moments = ((1 - e) / lam, (1 - e * (1 + lam)) / lam**2, (2 - e * (lam**2 + 2 * lam + 2)) / lam**3)
        exact = moments[0] - moments[1] + moments[2] / 4
        errs = []
        for K in (16, 32, 64, 128):
            ens = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, K).with_controls(np.outer([-0.5, 0.5], np.ones(K)))
            errs.append(abs(discrete_energy(ens, cs_flat, lam).interaction - exact))
        assert errs[0] < 1e-4
        assert np.allclose(np.array(errs[:-1]) / errs[1:], 4.0, rtol=0.02)

    def test_control_term_exact_quadrature(self, cs_flat):
        # constant a on one trajectory: closed form
        # int e^{-lam t} a^2/(2 lam) dt = a^2 (1-e^{-lam T})/(2 lam^2)
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 0.0]]), 1)
        lam, a0 = 3.0, 0.7
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 32).with_controls(
            np.full((1, 32), a0)
        )
        exact = a0**2 * (1.0 - np.exp(-lam)) / (2.0 * lam**2)
        assert discrete_energy(ens, cs_flat, lam).control == pytest.approx(exact, abs=1e-14)

    def test_relabeling_invariance(self, rng):
        kernel = CuckerSmaleKernel(1.0, 0.5)
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((4, 2)), 1)
        a = rng.standard_normal((4, 8))
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 8).with_controls(a)
        perm = rng.permutation(4)
        m0p = ParticleEnsemble.equal_weights(m0.points[perm], 1)
        ensp = TrajectoryEnsemble.free_flight(m0p, 1.0, 8).with_controls(a[perm])
        e1, e2 = discrete_energy(ens, kernel, 2.0), discrete_energy(ensp, kernel, 2.0)
        assert e1.total == pytest.approx(e2.total, rel=1e-14)


class TestEnergyGradient:
    def test_free_flight_no_kernel_zero(self, two_body_phase):
        zero_like = CuckerSmaleKernel(1.0, 0.0)
        ens = TrajectoryEnsemble.free_flight(
            ParticleEnsemble.equal_weights(np.array([[0.0, 1.0]]), 1), 1.0, 8
        )
        assert np.all(energy_gradient(ens, zero_like, 5.0)[1] == 0.0)

    def test_single_trajectory_control_gradient_closed_form(self, cs_flat, rng):
        # N=1: gradient is w * a_j * (e^{-lam t_j} - e^{-lam t_{j+1}}) / lam^2
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 0.3]]), 1)
        lam = 4.0
        a = rng.standard_normal((1, 8))
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 8).with_controls(a)
        g = energy_gradient(ens, cs_flat, lam)[1]
        t = ens.times
        expected = a[0] * (np.exp(-lam * t[:-1]) - np.exp(-lam * t[1:])) / lam**2
        assert np.allclose(g[0], expected, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        kernel = CuckerSmaleKernel(1.0, 0.5)
        for n, K in ((2, 8), (4, 16)):
            m0 = ParticleEnsemble.equal_weights(rng.standard_normal((n, 2)), 1)
            ens = TrajectoryEnsemble.free_flight(m0, 1.0, K).with_controls(
                0.5 * rng.standard_normal((n, K))
            )
            g = energy_gradient(ens, kernel, 7.0)[1]
            fd = finite_difference_gradient(ens, kernel, 7.0)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("K", [1, 2, 17])
def test_running_sums_and_one_pair_pass_match_loops(draw, K, monkeypatch):
    """States equal the loop oracle bit for bit, unequal weights, for two random ensembles on
    the line.  The energy and gradient do too with the dense pair-sum oracle patched in for the
    pass and the reported energy's pair sums; the shipped pass sums each unordered pair once,
    in another order, and its interaction energy (also against discrete_energy) stays within
    1e-14 relative and its gradient within 1e-14 of the largest entry (measured 4.4e-16 and
    8.1e-17); the control energy is unchanged, bit for bit."""
    rng = np.random.default_rng(100 * draw + K)
    kernel = CuckerSmaleKernel(0.7, 0.5)
    ens = random_ensemble(rng, 6, K)
    x, v = loop_states(ens)
    assert np.array_equal(ens.positions, x) and np.array_equal(ens.velocities, v)
    control, interaction, grad = loop_energy_gradient(ens, kernel, 7.0)
    energy, gradient = energy_gradient(ens, kernel, 7.0)
    reported = discrete_energy(ens, kernel, 7.0)
    assert energy.control == reported.control == control
    assert energy.interaction == pytest.approx(interaction, rel=1e-14, abs=0.0)
    assert reported.interaction == pytest.approx(energy.interaction, rel=1e-14, abs=0.0)
    assert np.max(np.abs(gradient - grad)) <= 1e-14 * np.max(np.abs(grad))
    monkeypatch.setattr(acceleration, "_cs_pair_pass", dense_cs_pair_pass)
    monkeypatch.setattr(acceleration, "_cs_pair_energy", dense_cs_pair_energy)
    energy, gradient = energy_gradient(ens, kernel, 7.0)
    assert (energy.control, energy.interaction) == (control, interaction)
    assert discrete_energy(ens, kernel, 7.0) == energy
    assert np.array_equal(gradient, grad)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
def test_pair_pass_matches_three_calls(beta, rng):
    """The dense oracle of the pass rounds as three separate pointwise calls do, for every
    exponent of g, including the fast powers numpy special-cases."""
    kernel = CuckerSmaleKernel(1.3, beta)
    ens = random_ensemble(rng, 5, 9)
    x, v, w = ens.positions, ens.velocities, ens.weights
    got = dense_cs_pair_sum(kernel, x, v, x, v, w, wq=w, grad_x=True, grad_v=True)
    for a, b in zip(got, three_call_pair_sums(x, v, w, kernel)):
        assert np.array_equal(a, b)


def _step_size(controls, gradient, ens, lam):
    """The control step max_{t <= T/2} |grad_a J / s^2| / (1 + max|a|) of minimize_energy."""
    s2 = _preconditioner(ens.weights, lam, ens.times)[0] ** 2
    window = 0.5 * (ens.times[:-1] + ens.times[1:]) <= 0.5 * ens.T
    return np.max(np.abs(gradient / s2)[:, window]) / (1.0 + np.max(np.abs(controls)))


class TestMinimizeEnergy:
    def test_energy_bound_and_certificate(self, cs_flat, two_body_phase):
        lam = 20.0
        res = minimize_energy(two_body_phase, cs_flat, lam, 1.0, 1280)
        bound = 2.0 * cs_flat.c0 * moment2(two_body_phase, "velocity") / lam
        assert res.certified
        assert res.energy.total <= 1.05 * bound
        assert res.el_residual <= EL_TOLERANCE

    def test_close_to_cs_characteristics(self, cs_flat, two_body_phase):
        lam = 40.0
        res = minimize_energy(two_body_phase, cs_flat, lam, 1.0, 2560)
        ref = solve_cs(two_body_phase, cs_flat, 1.0, 1e-3, [500])
        j = res.ensemble.n_intervals // 2
        d = wasserstein1_particles(res.ensemble.phase_ensemble(j), ref.at(0.5))
        assert d < 0.05

    @pytest.mark.parametrize("run", [kernels._cs_pair_pass, dense_cs_pair_pass], ids=["shipped", "dense"])
    def test_one_pair_pass_per_evaluation(self, run, rng, monkeypatch):
        """The pair pass runs once per objective evaluation, plus once for the EL residual; the
        final energy sums kernel.value over the pairs without it.  The fixed point evaluates its
        start, then once per step.  The dense oracle patched in for the pass sees every one of
        them, though the evaluations hand the pass the solve's pair table."""
        calls = []
        monkeypatch.setattr(acceleration, "_cs_pair_pass", lambda *args: calls.append(1) or run(*args))
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((5, 2)), 1)
        res = minimize_energy(m0, CuckerSmaleKernel(1.0, 0.5), 10.0, 1.0, 64)
        assert res.function_evaluations == res.iterations + 1 > 1
        assert len(calls) == res.function_evaluations + 1

    def test_constants_formed_once_per_solve(self, rng, monkeypatch):
        """The objective's pair table and quadrature weights are formed once per minimization, not
        once per evaluation; the reported energy and the EL residual each form their own."""
        where, counts = ["minimize_energy"], Counter()

        def counting(module, name):
            run = getattr(module, name)
            label = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            monkeypatch.setattr(module, name, lambda *args: counts.update([(where[-1], label)]) or run(*args))

        def phase(name):
            run = getattr(acceleration, name)

            def within(*args):
                where.append(name)
                try:
                    return run(*args)
                finally:
                    where.pop()

            monkeypatch.setattr(acceleration, name, within)

        for name in ("_flock_pairs", "_exp_trapezoid_weights", "_control_weights"):
            counting(acceleration, name)
        counting(kernels, "_flock_pairs")
        phase("discrete_energy")
        phase("el_residual")
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((5, 2)), 1)
        res = minimize_energy(m0, CuckerSmaleKernel(1.0, 0.5), 10.0, 1.0, 64)
        assert res.function_evaluations > 1
        assert counts == {
            ("minimize_energy", "acceleration._flock_pairs"): 1,
            ("minimize_energy", "acceleration._exp_trapezoid_weights"): 1,
            ("minimize_energy", "acceleration._control_weights"): 1,
            ("discrete_energy", "kernels._flock_pairs"): 1,
            ("discrete_energy", "acceleration._exp_trapezoid_weights"): 1,
            ("discrete_energy", "acceleration._control_weights"): 1,
            ("el_residual", "kernels._flock_pairs"): 1,
        }

    def test_constants_once_change_no_bit(self, monkeypatch):
        """On the 24-atom flock of the acceleration sweep (seed 0, beta = 0.5) at lambda = 10,
        K = 224, the solve with its constants formed once gives the controls, energy, EL residual
        and control step of one whose evaluations each form their own, bit for bit."""
        rng = np.random.default_rng(0)
        x, v = rng.standard_normal(24), rng.standard_normal(24)
        m0 = ParticleEnsemble.equal_weights(np.column_stack([x, v - v.mean()]), 1)
        kernel, K = CuckerSmaleKernel(1.0, 0.5), _row_intervals(10.0, 1.0, 128)
        assert K == 224
        kept = minimize_energy(m0, kernel, 10.0, 1.0, K)
        run = acceleration.energy_gradient
        monkeypatch.setattr(acceleration, "energy_gradient", lambda ens, kernel, lam, objective: run(ens, kernel, lam))
        fresh = minimize_energy(m0, kernel, 10.0, 1.0, K)
        assert np.array_equal(kept.ensemble.controls, fresh.ensemble.controls)
        assert kept.energy == fresh.energy
        assert kept.el_residual == fresh.el_residual and kept.control_step == fresh.control_step
        assert kept.function_evaluations == fresh.function_evaluations

    def test_objective_peak_memory(self, rng):
        """One energy-and-gradient evaluation at N = 24, K = 5120 allocates the three chunk
        buffers of the pair pass, together within one chunk budget, and O(N K) node, gradient
        and adjoint arrays, no (N, N, K+1) one: its peak stays under one chunk budget plus 8
        (N, K+1) arrays (8.9 MB), and under half of one pair array (11.8 MB).  Measured 7.1 MB,
        most of it the adjoint sums, which weight the pass's gradients and take their partial
        sums in place (10.0 MB with fresh arrays there and the 1 MiB chunks of per-node (N, N)
        matrices); the dense pass peaked at 5.0 pair arrays at K = 512."""
        ens = random_ensemble(rng, 24, 5120)
        ens.positions  # node states are cached, not part of the pass
        tracemalloc.start()
        try:
            energy_gradient(ens, CuckerSmaleKernel(1.0, 0.5), 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kernels._CS_PAIR_BYTES + 8 * ens.positions.nbytes
        assert peak < 0.5 * 24 * 24 * 5121 * 8

    def test_flat_gradient_is_not_a_verdict(self, cs_flat, two_body_phase):
        """The defect the fixed point replaced, kept on record: on the beta = 0 two-body flock at
        lambda = 80, L-BFGS-B in the same preconditioned controls (gtol 1e-11, ftol 1e-16, as
        minimize_energy ran it) stops on roundoff after 7 evaluations with a flat gradient, but
        its controls miss the Euler-Lagrange identity (EL 1.56e-3 at K = 632, the sweep's K, and
        1.59e-3 at K = 5120, the old rule's).  minimize_energy certifies the same problems (EL
        2.4e-5 and 3.6e-7); certified is its one verdict."""
        lam = 80.0
        for K in (632, 5120):
            start = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, K)
            s = _preconditioner(start.weights, lam, start.times)[0]

            def objective(b):
                energy, g = energy_gradient(start.with_controls(b.reshape(s.shape) / s), cs_flat, lam)
                return energy.total, (g / s).ravel()

            options = {"gtol": 1e-11, "ftol": 1e-16, "maxiter": 500}
            fit = minimize(objective, np.zeros(s.size), jac=True, method="L-BFGS-B", options=options)
            assert fit.success and np.max(np.abs(fit.jac)) <= 1e-6
            assert el_residual(start.with_controls(fit.x.reshape(s.shape) / s), cs_flat, lam) > 10 * EL_TOLERANCE
            res = minimize_energy(two_body_phase, cs_flat, lam, 1.0, K)
            assert res.certified and res.el_residual <= EL_TOLERANCE / 4
            assert not hasattr(res, "converged")

    def test_stops_on_the_control_step(self, rng):
        """The fixed point runs past the first certified iterate, to a control step of at most
        CONTROL_STEP_TOLERANCE: the step it reports is the one of the returned controls."""
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((6, 2)), 1)
        kernel = CuckerSmaleKernel(1.0, 0.5)
        res = minimize_energy(m0, kernel, 20.0, 1.0, 320)
        assert res.certified and res.control_step <= CONTROL_STEP_TOLERANCE
        assert res.function_evaluations < MAX_OBJECTIVE_EVALUATIONS

    def test_evaluations_do_not_depend_on_a_rigid_shift(self, rng):
        """Shifting the flock along the line moves every coordinate but no pair offset: the fixed
        point takes the same number of evaluations, and its controls agree to roundoff."""
        points = rng.standard_normal((8, 2))
        kernel = CuckerSmaleKernel(1.0, 0.5)
        K = _row_intervals(40.0, 1.0, 1)
        fits = [
            minimize_energy(ParticleEnsemble.equal_weights(points + [shift, 0.0], 1), kernel, 40.0, 1.0, K)
            for shift in (0.0, 0.37, -0.81)
        ]
        assert len({fit.function_evaluations for fit in fits}) == 1
        for fit in fits[1:]:
            assert np.max(np.abs(fit.ensemble.controls - fits[0].ensemble.controls)) <= 1e-9

    def test_start_at_the_minimizer_stops_at_once(self, cs_flat, two_body_phase):
        """Started from a minimizer's controls, the fixed point stops on its first evaluation and
        returns them; start controls of another shape, or not finite, raise before any evaluation."""
        res = minimize_energy(two_body_phase, cs_flat, 20.0, 1.0, 320)
        again = minimize_energy(two_body_phase, cs_flat, 20.0, 1.0, 320, res.ensemble.controls)
        assert again.function_evaluations == 1 and again.control_step == res.control_step
        assert np.array_equal(again.ensemble.controls, res.ensemble.controls)
        bad = np.zeros((2, 320))
        bad[0, 0] = np.nan
        for start in (np.zeros((2, 319)), bad):
            with pytest.raises(ValueError, match=r"start must be finite controls of shape \(2, 320\)"):
                minimize_energy(two_body_phase, cs_flat, 20.0, 1.0, 320, start)

    def test_cap_returns_the_best_iterate(self, two_body_phase, monkeypatch):
        """Where b -> b - grad_b J is no contraction (alpha = 0.01, beta = 2: 1/g reaches 1e4) the
        iteration cycles; at MAX_OBJECTIVE_EVALUATIONS it returns the iterate of the smallest
        control step, uncertified."""
        kernel = CuckerSmaleKernel(0.01, 2.0)
        steps = []
        run = acceleration.energy_gradient

        def recording(ens, *args):
            energy, g = run(ens, *args)
            steps.append((ens.controls, g.copy()))  # minimize_energy scales g in place
            return energy, g

        monkeypatch.setattr(acceleration, "energy_gradient", recording)
        res = minimize_energy(two_body_phase, kernel, 10.0, 1.0, 224)
        assert res.function_evaluations == len(steps) == MAX_OBJECTIVE_EVALUATIONS
        assert not res.certified and res.control_step > CONTROL_STEP_TOLERANCE
        best = min(range(len(steps)), key=lambda i: _step_size(*steps[i], res.ensemble, 10.0))
        assert np.array_equal(res.ensemble.controls, steps[best][0])
        assert res.control_step == pytest.approx(_step_size(*steps[best], res.ensemble, 10.0), rel=1e-12)

    def test_variable_budget_cap(self, cs_flat, rng):
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((200, 2)), 1)
        with pytest.raises(ValueError, match="budget"):
            minimize_energy(m0, cs_flat, 10.0, 1.0, 10**4)

    def test_budget_refused_before_any_allocation(self, cs_flat, rng):
        """N K = 4e6 past the budget raises before the (N, K) start is built: the refusal of 1,000 atoms at
        K = 4,000 peaks below 8 MB under tracemalloc, where the start alone would take 32 MB."""
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((1000, 2)), 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the decision-variable budget"):
                minimize_energy(m0, cs_flat, 10.0, 1.0, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_underflowing_discount_named(self, cs_flat):
        """At lambda T = 800 the last of K = 51,200 interval weights (e^(-lambda t_j) - e^(-lambda t_j+1))
        / lambda underflow to 0 (N K = 102,400 is within the budget): the call names lambda and T before
        any objective evaluation, where 0/0 controls used to fail as "controls must be finite"."""
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
        with pytest.raises(ValueError, match=r"lambda = 800, T = 1: the control preconditioner"):
            minimize_energy(m0, cs_flat, 800.0, 1.0, 51_200)
        # a weightless atom has a zero row, whatever the discount
        m0 = ParticleEnsemble(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError, match=r"lambda = 10, T = 1: the control preconditioner"):
            minimize_energy(m0, cs_flat, 10.0, 1.0, 16)

    def test_pair_array_cap(self, cs_flat, rng, monkeypatch):
        """The cap bounds the pair column of one time node, the smallest piece the node
        chunks can hold: 12 atoms make 66 pairs, 66 * 8 = 528 bytes a node."""
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 527)
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((12, 2)), 1)
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 16)
        for call in (
            lambda: minimize_energy(m0, cs_flat, 10.0, 1.0, 16),
            lambda: discrete_energy(ens, cs_flat, 10.0),
            lambda: energy_gradient(ens, cs_flat, 10.0),
            lambda: el_residual(ens, cs_flat, 10.0),
        ):
            with pytest.raises(ValueError, match="528 bytes each exceed the cap of 527 bytes"):
                call()
        monkeypatch.setattr(kernels, "PAIR_ARRAY_CAP", 528)
        assert discrete_energy(ens, cs_flat, 10.0).total > 0.0


class TestElResidual:
    def test_straight_lines_equal_velocities_zero(self, cs_flat):
        # equal velocities: no interaction, free flight is exactly optimal
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [1.0, 1.0]]), 1)
        ens = TrajectoryEnsemble.free_flight(m0, 1.0, 32)
        assert el_residual(ens, cs_flat, 5.0) == pytest.approx(0.0, abs=1e-14)

    def test_needs_enough_intervals(self, cs_flat, two_body_phase):
        ens = TrajectoryEnsemble.free_flight(two_body_phase, 1.0, 4)
        with pytest.raises(ValueError, match="8"):
            el_residual(ens, cs_flat, 5.0)

    def test_certified_needs_a_finite_residual(self, cs_flat, two_body_phase):
        """Below 8 intervals there is no EL residual (NaN), so no certificate."""
        res = minimize_energy(two_body_phase, cs_flat, 10.0, 1.0, 4)
        assert np.isnan(res.el_residual) and not res.certified

    def test_perturbation_raises_residual(self, cs_flat, two_body_phase):
        res = minimize_energy(two_body_phase, cs_flat, 10.0, 1.0, 640)
        base = res.el_residual
        a = res.ensemble.controls.copy()
        a[0, a.shape[1] // 4] += 0.1
        perturbed = el_residual(res.ensemble.with_controls(a), cs_flat, 10.0)
        assert perturbed >= 10.0 * base
