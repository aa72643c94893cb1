import json
from dataclasses import replace

import numpy as np
import pytest

from mfglab import (
    ConvergenceReport,
    CuckerSmaleKernel,
    ExponentialKernel,
    GridError,
    MfgSolution,
    ParticleEnsemble,
    PdeConfig,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    diagnostics_bounds,
    run_lambda_sweep_acceleration,
    run_lambda_sweep_classic,
    solve_aggregation_fv,
    solve_aggregation_particles,
    solve_cs,
    solve_mfg_fixed_point,
)
from mfglab import acceleration, convergence, cucker_smale, mfg_pde
from mfglab.measures import GridDensity


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def small_config(lam, **kw):
    kw.setdefault("n_x", 128)
    kw.setdefault("dt", 2e-3)
    return PdeConfig(lam=lam, **kw)


def small_m0(cfg):
    return GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)


class TestConvergenceReport:
    def test_lambdas_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ConvergenceReport("classic", (5.0, 5.0), ({}, {}), {}, {}, 0)

    def test_one_row_per_lambda(self):
        with pytest.raises(ValueError, match="row"):
            ConvergenceReport("classic", (5.0, 10.0), ({},), {}, {}, 0)

    def test_json_and_csv_round(self):
        rep = ConvergenceReport(
            "classic", (5.0,), ({"w1_sup": 0.1, "converged": True},), {"dt": 1e-3}, {"s": 1}, 7
        )
        doc = json.loads(rep.to_json())
        assert doc["lambdas"] == [5.0]
        assert doc["rows"][0]["w1_sup"] == 0.1
        lines = rep.to_csv().splitlines()
        assert lines[0].split(",")[0] == "lambda"
        assert len(lines) == 2

    def test_numpy_non_finite_values_are_null(self):
        row = {"ratio": np.float64(np.inf), "trace": np.array([1.5, np.nan]), "n": np.int64(3)}
        rep = ConvergenceReport("acceleration", (5.0,), (row,), {"r": float("-inf")}, {}, 0)
        doc = json.loads(rep.to_json(), parse_constant=_reject_constant)
        assert doc["rows"][0] == {"ratio": None, "trace": [1.5, None], "n": 3}
        assert doc["reference"] == {"r": None}


class TestDiagnosticsBounds:
    def test_uncoupled_zero_solution_passes(self, zero_ham):
        cfg = small_config(10.0)
        sol = solve_mfg_fixed_point(cfg, zero_ham, ZeroKernel(), small_m0(cfg))
        v = diagnostics_bounds(sol)
        assert v.all_ok
        assert v.u_growth_scaled == 0.0
        assert v.du_sup_scaled == 0.0
        assert v.d2u_upper_scaled == 0.0

    def test_synthetic_convex_u_fails_semiconcavity(self, zero_ham):
        cfg = small_config(10.0)
        m0 = small_m0(cfg)
        x = cfg.cell_centers
        u = np.tile(x**2, (cfg.n_steps + 1, 1))
        sol = MfgSolution(cfg, u, np.tile(m0.values, (cfg.n_steps + 1, 1)), 1, 0.0, True)
        v = diagnostics_bounds(sol)
        # lam * D^2(x^2) = 10 * 2 = 20 > C_TILDE * BOUNDS_SLACK
        assert not v.d2u_ok
        assert v.d2u_upper_scaled == pytest.approx(20.0, rel=1e-6)

    def test_solved_instance_du_scaling(self, zero_ham, exp_kernel):
        cfg = small_config(40.0)
        sol = solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, small_m0(cfg))
        v = diagnostics_bounds(sol, c0=1.0)
        assert v.du_sup_scaled <= 4.0 * 1.0 * 1.25
        assert v.mass_ok and v.nonneg_ok and v.support_ok


class TestClassicSweep:
    def test_single_lambda_one_row(self, zero_ham, exp_kernel):
        cfg = small_config(10.0)
        rep = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=100
        )
        assert rep.family == "classic"
        assert len(rep.rows) == 1
        assert "cross_validation_w1" in rep.reference

    def test_zero_kernel_columns_at_scheme_error(self, zero_ham):
        cfg = small_config(10.0)
        rep = run_lambda_sweep_classic(
            zero_ham, ZeroKernel(), small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=100
        )
        row = rep.rows[0]
        # no coupling: both solvers advect/diffuse the same m0; the only
        # gap is the nu_lambda viscosity of the MFG run
        assert row["residual_lam_u"] == 0.0
        assert row["residual_lam_du_l1"] == 0.0
        assert row["w1_sup"] < 0.5
        assert row["converged"]

    def test_residual_columns_decrease(self, zero_ham, exp_kernel):
        cfg = small_config(5.0)
        rep = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [5.0, 20.0, 80.0],
            base_config=cfg, n_cross_particles=100,
        )
        res_u = rep.column("residual_lam_u")
        assert np.all(np.diff(res_u) < 0)
        assert np.all(rep.column("converged") == 1.0)
        assert np.all(rep.column("fixed_point_fallbacks") == 0.0)

    def test_sweep_counters_match_spies(self, zero_ham, exp_kernel, monkeypatch):
        """A row's hjb_sweeps counts the HJB sweeps of its solve, the warm start's included, one more than
        its iterations when it converges; fp_steps counts its FP transport steps, n_steps per sweep."""
        cfg = small_config(5.0)
        backward, step, sweeps, steps = mfg_pde.hjb_backward, mfg_pde.transport_step, [], []
        monkeypatch.setattr(mfg_pde, "hjb_backward", lambda cfg, *args: sweeps.append(cfg.lam) or backward(cfg, *args))
        monkeypatch.setattr(mfg_pde, "transport_step", lambda *args: steps.append(1) or step(*args))
        rep = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [5.0, 20.0], base_config=cfg, n_cross_particles=50
        )
        for lam, row in zip(rep.lambdas, rep.rows):
            assert row["converged"] and row["hjb_sweeps"] == sweeps.count(lam) == row["iterations"] + 1
            assert row["fp_steps"] == row["hjb_sweeps"] * cfg.n_steps
        assert sum(row["fp_steps"] for row in rep.rows) == len(steps)

    def test_failing_lambda_is_a_flagged_row(self, zero_ham, exp_kernel):
        # on [-1, 1] the m0 tails reach the boundary cells and every MFG
        # solve raises; the FV reference has no leak check and still solves
        cfg = small_config(5.0, n_x=32, dt=1e-2, half_width=1.0)
        rep = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [5.0, 20.0], base_config=cfg, n_cross_particles=50
        )
        assert [row["error"] for row in rep.rows] == ["BoundaryLeakError"] * 2
        for row in rep.rows:
            assert row["flagged"] and not row["converged"] and not row["bounds_ok"]
            assert np.isnan(row["iterations"]) and np.isnan(row["w1_sup"])
            assert np.isnan(row["fixed_point_fallbacks"])
            assert np.isnan(row["hjb_sweeps"]) and np.isnan(row["fp_steps"])
        assert np.isfinite(rep.reference["cross_validation_w1"])
        assert rep.to_csv().splitlines()[1].startswith("5.0,False,False,")
        # strict JSON: the NaN diagnostics are written as null, not as bare NaN tokens
        doc = json.loads(rep.to_json(), parse_constant=_reject_constant)
        assert doc["rows"][0]["w1_sup"] is None and doc["rows"][0]["error"] == "BoundaryLeakError"

    def test_fp_mass_correction_column(self, zero_ham, exp_kernel):
        # the roundoff that each FP step divides out is reported, not flagged
        cfg = small_config(10.0)
        sweep = (zero_ham, exp_kernel, small_m0(cfg), [10.0])
        row = run_lambda_sweep_classic(*sweep, base_config=cfg, n_cross_particles=50).rows[0]
        assert row["converged"] and not row["flagged"]
        assert 0.0 < row["fp_mass_correction"] < 1e-13
        # on [-1, 1] the solve raises, and the row holds NaN
        cfg = small_config(10.0, half_width=1.0)
        sweep = (zero_ham, exp_kernel, small_m0(cfg), [10.0])
        row = run_lambda_sweep_classic(*sweep, base_config=cfg, n_cross_particles=50).rows[0]
        assert row["error"] == "BoundaryLeakError" and np.isnan(row["fp_mass_correction"])

    def test_fv_mass_correction_reported(self, zero_ham, exp_kernel):
        # the roundoff that each FV reference step divides out is reported, not flagged
        cfg = small_config(10.0)
        m0 = small_m0(cfg)
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [10.0], base_config=cfg, n_cross_particles=50)
        log = []
        solve_aggregation_fv(zero_ham, exp_kernel, m0, 375 * cfg.dt, cfg.dt, log)
        assert rep.reference["fv_mass_correction"] == log[0]
        assert 0.0 <= log[0] < 1e-13

    def test_cross_check_reads_one_time(self, zero_ham, exp_kernel):
        # 1,500 steps: both references stop at the window end 1.125, node 1125, and the cross-check
        # compares their last nodes; a particle path over [0, T] keeps every 2nd node and misses it
        cfg = small_config(10.0, T=1.5, dt=1e-3, n_x=32, half_width=4.0)
        m0 = small_m0(cfg)
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [10.0], base_config=cfg, n_cross_particles=20)
        fv = solve_aggregation_fv(zero_ham, exp_kernel, m0, cfg.T, cfg.dt)
        atoms = convergence.sample_grid_to_atoms(m0, 20)
        particles = solve_aggregation_particles(zero_ham, exp_kernel, atoms, 1125 * cfg.dt, cfg.dt)
        assert 1125 * cfg.dt not in solve_aggregation_particles(zero_ham, exp_kernel, atoms, cfg.T, cfg.dt).times
        assert particles.times[-1] == 1125 * cfg.dt == fv.times[1125]
        expected = convergence.w1_grid_vs_particles(fv.measures[1125], particles.measures[-1])
        assert rep.reference["cross_validation_w1"] == expected == 0.08495439373303187

    def test_references_stop_at_the_window(self, zero_ham, exp_kernel, monkeypatch):
        """500 steps: the rows read nodes up to 375, so both references march 375 steps, and every
        diagnostic equals the one read from references over [0, T]."""
        cfg = small_config(10.0)
        m0 = small_m0(cfg)
        horizons = []
        for name in ("solve_aggregation_fv", "solve_aggregation_particles"):
            solve = getattr(convergence, name)
            monkeypatch.setattr(convergence, name, lambda *a, solve=solve: horizons.append(a[3]) or solve(*a))
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [10.0, 40.0], base_config=cfg, n_cross_particles=50)
        assert horizons == [375 * cfg.dt] * 2
        fv = solve_aggregation_fv(zero_ham, exp_kernel, m0, cfg.T, cfg.dt)
        particles = solve_aggregation_particles(
            zero_ham, exp_kernel, convergence.sample_grid_to_atoms(m0, 50), cfg.T, cfg.dt
        )
        assert rep.reference["cross_validation_w1"] == convergence.w1_grid_vs_particles(
            fv.measures[375], particles.measures[375]
        )
        for lam, row in zip(rep.lambdas, rep.rows):
            full = convergence._classic_row(replace(cfg, lam=lam), zero_ham, exp_kernel, m0, fv, 1.0)
            assert (row["w1_sup"], row["residual_lam_du_l1"]) == (full["w1_sup"], full["residual_lam_du_l1"])

    def test_sweep_draws_no_random_number(self, zero_ham, exp_kernel, monkeypatch):
        """The kernel and the drift state their constants, so a sweep makes no random generator."""
        made, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: made.append(a) or default_rng(*a, **k))
        cfg = small_config(10.0, n_x=32, dt=1e-2, half_width=4.0)
        run_lambda_sweep_classic(zero_ham, exp_kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=20)
        assert made == []

    @pytest.mark.parametrize("seed", [0, 5])
    def test_repulsive_attractive_c0_is_seed_free(self, zero_ham, seed):
        """c0 = 2 a, the stated semiconcavity constant of the repulsive-attractive kernel, at every seed."""
        cfg = small_config(10.0, n_x=32, dt=1e-2, half_width=4.0)
        kernel = RepulsiveAttractiveKernel(1.0)
        rep = run_lambda_sweep_classic(
            zero_ham, kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=20, seed=seed
        )
        assert rep.setup["coupling_c0"] == 2.0

    def test_report_reproducible(self, zero_ham, exp_kernel):
        cfg = small_config(10.0)
        args = (zero_ham, exp_kernel, small_m0(cfg), [10.0])
        r1 = run_lambda_sweep_classic(*args, base_config=cfg, n_cross_particles=50, seed=3)
        r2 = run_lambda_sweep_classic(*args, base_config=cfg, n_cross_particles=50, seed=3)
        a, b = json.loads(r1.to_json()), json.loads(r2.to_json())
        for rowa, rowb in zip(a["rows"], b["rows"]):
            rowa.pop("wall_clock_s")
            rowb.pop("wall_clock_s")
        assert a["rows"] == b["rows"]
        assert a["reference"] == b["reference"]


def _refuse(*args, **kwargs):
    raise AssertionError("a solver ran before the sweep checked its inputs")


class TestSweepLambdas:
    """Both drivers check their lambdas before any validator or solve: every solver the
    drivers call is replaced by one that fails the test if it runs."""

    @pytest.fixture
    def no_solves(self, monkeypatch):
        for name in (
            "validate_coupling", "validate_hamiltonian", "solve_aggregation_fv", "solve_aggregation_particles",
            "solve_mfg_fixed_point", "richardson_order_ratio", "minimize_energy",
        ):
            monkeypatch.setattr(convergence, name, _refuse)
        monkeypatch.setattr(cucker_smale, "solve_cs", _refuse)

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ([5.0, 5.0], "lambda = 5.0 appears twice"),
            ([20.0, 5.0, 20.0], "lambda = 20.0 appears twice"),
            ([5.0, 0.0], "lambda = 0.0: every lambda must be positive"),
            ([-1.0, 5.0], "lambda = -1.0: every lambda must be positive"),
            ([5.0, np.inf], "lambda = inf: every lambda must be positive and finite"),
            ([np.nan, 5.0], "lambda = nan: every lambda must be positive and finite"),
        ],
        ids=["repeat", "repeat-unsorted", "zero", "negative", "inf", "nan"],
    )
    def test_bad_lambdas_raise_before_any_solve(self, no_solves, zero_ham, exp_kernel, cs_flat, lambdas, message):
        cfg = small_config(5.0)
        with pytest.raises(ValueError, match=message):
            run_lambda_sweep_classic(zero_ham, exp_kernel, small_m0(cfg), lambdas, base_config=cfg)
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
        with pytest.raises(ValueError, match=message):
            run_lambda_sweep_acceleration(cs_flat, m0, lambdas, n_intervals=64)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_cross_check_raises_before_any_solve(self, no_solves, zero_ham, exp_kernel, n):
        cfg = small_config(5.0)
        with pytest.raises(ValueError, match=f"n_cross_particles must be at least 1, got {n}"):
            run_lambda_sweep_classic(zero_ham, exp_kernel, small_m0(cfg), [5.0], base_config=cfg, n_cross_particles=n)

    def test_decision_variable_budget_checked_up_front(self, no_solves, rng):
        """512 atoms, the most the exact W1 admits, at T = 2 and lambda = 300 take K = 2,432 intervals
        (70 T sqrt(lambda) = 2,424.9, rounded up to a multiple of 8): N K = 1,245,184 is over the
        budget, and the sweep says so before the reference or the lambda = 10 row is solved."""
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((512, 2)), 1)
        with pytest.raises(ValueError, match="lambda = 300 needs K = 2432 intervals for N = 512 atoms"):
            run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [10.0, 300.0], T=2.0)

    def test_budget_message_is_the_solvers(self, no_solves, rng):
        """The sweep and minimize_energy share one admission check, so they refuse with one message."""
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((512, 2)), 1)
        with pytest.raises(ValueError) as swept:
            run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [300.0], T=2.0)
        with pytest.raises(ValueError) as solved:
            acceleration.minimize_energy(m0, CuckerSmaleKernel(1.0, 0.5), 300.0, 2.0, 2432)
        assert str(swept.value) == str(solved.value)
        assert str(solved.value).endswith("N K = 1245184 exceeds the decision-variable budget of 1000000")

    def test_w1_size_checked_up_front(self, no_solves, rng):
        """513 atoms are within the decision-variable budget at lambda = 1 and 2, but their exact
        phase-space W1 is over EXACT_W1_SIZE_CAP: the sweep says so before the reference solve."""
        m0 = ParticleEnsemble.equal_weights(rng.standard_normal((513, 2)), 1)
        with pytest.raises(ValueError, match=r"phase-space W1 of 513 atoms needs 513 \* 513 costs, above EXACT_W1"):
            run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [1.0, 2.0])

    def test_w1_weights_checked_up_front(self, no_solves, monkeypatch):
        """A flock of weights 0.25 and 0.75 has no exact phase-space W1: the sweep says so with
        wasserstein1_particles' message before the reference ladder's solve_cs runs."""
        calls = []
        monkeypatch.setattr(cucker_smale, "solve_cs", lambda *args, **kwargs: calls.append(args))
        m0 = ParticleEnsemble(np.array([[0.0, 1.0], [1.0, -1.0]]), [0.25, 0.75], 1)
        with pytest.raises(ValueError, match="phase-space W1 takes equal weights, not weights 0.25 to 0.75 on 2 atoms"):
            run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [10.0, 40.0])
        assert calls == []

    def test_underflowing_discount_checked_up_front(self, no_solves):
        """Two atoms at lambda = 800 take K = 51,200 intervals, within the budget, but the control
        weights underflow: the sweep names lambda and T before the reference or the lambda = 10 row."""
        m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
        with pytest.raises(ValueError, match=r"lambda = 800, T = 1: the control preconditioner"):
            run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [10.0, 800.0])

    def test_off_grid_density_raises_before_any_solve(self, no_solves, zero_ham, exp_kernel):
        cfg = small_config(5.0)
        for m0 in (small_m0(small_config(5.0, n_x=64)), small_m0(small_config(5.0, half_width=4.0))):
            with pytest.raises(GridError, match="initial density is not on the config's grid"):
                run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [5.0], base_config=cfg)


class TestAccelerationSweep:
    def test_single_particle_zero_distance(self):
        m0 = ParticleEnsemble.equal_weights(np.array([[0.2, 0.8]]), 1)
        rep = run_lambda_sweep_acceleration(
            CuckerSmaleKernel(1.0, 0.5), m0, [10.0], T=1.0, n_intervals=64
        )
        assert rep.rows[0]["w1_sup"] == pytest.approx(0.0, abs=1e-10)
        assert rep.rows[0]["energy_total"] == pytest.approx(0.0, abs=1e-12)

    def test_two_body_trend_and_bounds(self, cs_flat, two_body_phase):
        rep = run_lambda_sweep_acceleration(
            cs_flat, two_body_phase, [10.0, 20.0, 40.0], T=1.0
        )
        w1 = rep.column("w1_at_half_T")
        assert np.all(np.diff(w1) < 0)
        assert np.all(rep.column("energy_bound_ok") == 1.0)
        assert np.all(rep.column("certified") == 1.0)
        assert 8.0 <= rep.reference["step_halving_ratio"] <= 32.0

    def test_uncertified_row_is_flagged(self, two_body_phase):
        """With alpha = 0.01 and beta = 2 the two-body fixed point at lambda = 10 (K = 224) cycles to
        its evaluation cap and misses the EL certificate (EL 88): the row's mirrored converged
        column, certified and flagged all read it, and it reports the evaluations and the step."""
        row = run_lambda_sweep_acceleration(CuckerSmaleKernel(0.01, 2.0), two_body_phase, [10.0]).rows[0]
        assert row["el_residual"] > convergence.EL_TOLERANCE
        assert (row["converged"], row["certified"], row["flagged"]) == (False, False, True)
        assert row["objective_evaluations"] == acceleration.MAX_OBJECTIVE_EVALUATIONS
        assert row["control_step"] > acceleration.CONTROL_STEP_TOLERANCE

    @pytest.mark.parametrize("T", [1.0, 0.7, 2.0])
    def test_window_times_are_nodes(self, T):
        """K = max(n_intervals, 70 T sqrt(lambda) rounded up to a multiple of 8): every diagnostic
        window time, a multiple of T/8, and T/2 lie on a node of every row."""
        for lam, n_intervals in ((10.0, 8), (20.0, 8), (40.0, 128), (80.0, 8), (640.0, 8)):
            K = acceleration._row_intervals(lam, T, n_intervals)
            assert K >= max(n_intervals, 70 * T * np.sqrt(lam)) and K % 8 == 0
            nodes = np.linspace(0.0, T, K + 1)
            for t in (*convergence._window_times(T), 0.5 * T):
                assert np.min(np.abs(nodes - t)) <= 1e-12 * T
        assert [acceleration._row_intervals(lam, 1.0, 128) for lam in (10.0, 20.0, 40.0, 80.0)] == [224, 320, 448, 632]

    def test_one_transport_solve_per_node_pair(self, cs_flat, two_body_phase, monkeypatch):
        """w1_at_half_T reads the W1 the window solved at T/2, matched on node indices (at
        T = 0.7 the 5th window time is 0.3499999999999999): 7 solves a row, not 8."""
        solved = []
        w1 = convergence.wasserstein1_particles

        def recording(*args, **kwargs):
            solved.append(w1(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(convergence, "wasserstein1_particles", recording)
        row = run_lambda_sweep_acceleration(cs_flat, two_body_phase, [10.0], T=0.7).rows[0]
        assert len(solved) == 7
        assert row["w1_at_half_T"] == solved[4]
        assert row["w1_sup"] == max(solved)

    THREE_ATOMS = np.array([[-0.5, 0.4], [0.1, -0.3], [0.6, -0.1]])

    def test_reference_ladder_marches_the_window(self, monkeypatch):
        """At T = 0.7 every march of the ladder stops at the window end 0.75 T and saves the 7 window
        nodes; k rises from 2 (4h = T/8) until the estimate is at most REFERENCE_TOLERANCE, each lower
        level reads above it, and rk4_steps counts every RK4 step the ladder took."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        probes, horizons, steps = [], [], []
        probe, solve, rk4 = convergence.richardson_order_ratio, cucker_smale.solve_cs, cucker_smale._rk4

        def recording_probe(m0, kernel, T, dt, save_every=None, finest=None):
            ratio = probe(m0, kernel, T, dt, save_every, finest)
            probes.append((T, dt, finest[-1][1]))
            return ratio

        monkeypatch.setattr(convergence, "richardson_order_ratio", recording_probe)
        monkeypatch.setattr(cucker_smale, "solve_cs", lambda *a, **k: horizons.append(a[2]) or solve(*a, **k))
        monkeypatch.setattr(cucker_smale, "_rk4", lambda rhs, z, dt: steps.append(1) or rk4(rhs, z, dt))
        ref = run_lambda_sweep_acceleration(kernel, m0, [10.0], T=T, n_intervals=64).reference
        assert len(probes) >= 1 and horizons == [0.75 * T] * 3 * len(probes) == [ref["horizon"]] * 3 * len(probes)
        assert [dt for _, dt, _ in probes] == [T / 8 / 2**j for j in range(len(probes))]
        assert ref["h"] == probes[-1][1] / 4
        assert all(est > convergence.REFERENCE_TOLERANCE for _, _, est in probes[:-1])
        assert ref["error_estimate"] == probes[-1][2] <= ref["error_tolerance"] == convergence.REFERENCE_TOLERANCE
        assert ref["resolved"] is True and 8.0 <= ref["step_halving_ratio"] <= 32.0
        assert ref["rk4_steps"] == len(steps) == 7 * sum(6 * 2**j for j in range(len(probes)))
        assert ref["dt"] == 1e-3 and ref["T"] == T

    def test_w1_columns_within_the_reference_error(self):
        """Against the rows read from the dense dt = 1e-3 solve_cs reference (state error near 1e-14),
        w1_sup and w1_at_half_T move by at most sqrt(2) error_estimate: W1 is 1-Lipschitz in each atom,
        whose phase-space error is at most sqrt(2) times the largest entry's (measured: 0.47-0.54)."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        rep = run_lambda_sweep_acceleration(kernel, m0, [10.0, 40.0], T=T, n_intervals=64)
        bound = np.sqrt(2.0) * rep.reference["error_estimate"]
        dense = solve_cs(m0, kernel, T, 1e-3, save_every=1)
        for lam, row in zip(rep.lambdas, rep.rows):
            expected = convergence._acceleration_row(lam, m0, kernel, T, 64, dense)
            for key in ("w1_sup", "w1_at_half_T"):
                assert abs(row[key] - expected[key]) <= bound

    def test_error_estimate_bounds_the_actual_error(self):
        """On the 3-atom flock at T = 0.7 the reference's largest state error at the window nodes,
        against an RK4 march at T/1024, is at most its error_estimate (measured: 0.98 of it)."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        reference, ladder = convergence._kinetic_reference(m0, kernel, T, 1e-3)
        oracle = solve_cs(m0, kernel, 0.75 * T, T / 1024, save_every=128)
        assert np.allclose(oracle.times, reference.times, rtol=0.0, atol=1e-15)
        error = max(np.max(np.abs(a.points - b.points)) for a, b in zip(reference.measures, oracle.measures))
        assert 0.0 < error <= ladder["error_estimate"] <= convergence.REFERENCE_TOLERANCE

    def test_unresolved_reference_is_flagged(self, two_body_phase):
        """alpha = 0.01, beta = 2 (1/g = 1e4 at x = 0): the dt = 1e-3 cap stops the ladder at
        h = T/512 with an estimate of about 46, far above REFERENCE_TOLERANCE, so the reference reads
        resolved = false; its ratio (about 9.5) alone would pass the RK4 window [8, 32]."""
        ref = run_lambda_sweep_acceleration(CuckerSmaleKernel(0.01, 2.0), two_body_phase, [10.0]).reference
        assert ref["h"] == 1.0 / 512 and ref["h"] / 2 < ref["dt"] <= ref["h"]
        assert ref["error_estimate"] > 1e3 * convergence.REFERENCE_TOLERANCE
        assert ref["resolved"] is False

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_reference_cap_raises(self, two_body_phase, dt):
        """The ladder refines until it meets the tolerance or the cap: a cap that is not positive and
        finite could not stop it, so it raises before any march."""
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            run_lambda_sweep_acceleration(CuckerSmaleKernel(0.01, 2.0), two_body_phase, [10.0], dt_reference=dt)

    def test_wrong_kernel_type(self, two_body_phase):
        with pytest.raises(TypeError):
            run_lambda_sweep_acceleration(ExponentialKernel(), two_body_phase, [10.0])
