import json
from dataclasses import replace

import numpy as np
import pytest

from mfglab import (
    ConvergenceReport,
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    GridError,
    MfgSolution,
    ParticleEnsemble,
    PdeConfig,
    QuadraticDriftHamiltonian,
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
from mfglab import acceleration, convergence, cucker_smale, kernels, mfg_pde
from mfglab.convergence import _json_text
from mfglab.errors import ParameterError
from mfglab.measures import GridDensity


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def small_config(lam, **kw):
    kw.setdefault("n_x", 128)
    kw.setdefault("dt", 2e-3)
    return PdeConfig(lam=lam, **kw)


def small_m0(cfg):
    return GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)


def column(report, key):
    """The values of one diagnostic over the report's rows, as floats."""
    return np.array([row[key] for row in report.rows], dtype=float)


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
        doc = json.loads(_json_text(rep.to_doc()))
        assert doc["lambdas"] == [5.0]
        assert doc["rows"][0]["w1_sup"] == 0.1
        lines = rep.to_csv().splitlines()
        assert lines[0].split(",")[0] == "lambda"
        assert len(lines) == 2

    def test_numpy_non_finite_values_are_null(self):
        row = {"ratio": np.float64(np.inf), "trace": np.array([1.5, np.nan]), "n": np.int64(3)}
        rep = ConvergenceReport("acceleration", (5.0,), (row,), {"r": float("-inf")}, {}, 0)
        doc = json.loads(_json_text(rep.to_doc()), parse_constant=_reject_constant)
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
        res_u = column(rep, "residual_lam_u")
        assert np.all(np.diff(res_u) < 0)
        assert np.all(column(rep, "converged") == 1.0)
        assert np.all(column(rep, "fixed_point_fallbacks") == 0.0)

    def test_sweep_counters_match_spies(self, zero_ham, exp_kernel, monkeypatch):
        """A row's hjb_sweeps counts the HJB sweeps of every solve it ran, warm starts included: the sum over
        its clock_ladder entries plus the dx companion's; fp_steps counts its FP transport steps, n_steps of
        each solve's clock per sweep.  Both rows' n_x / 2 companions solve and give the dx estimate.  The FV
        reference is solved once per mesh: m0's own first, then n_x / 2."""
        cfg = small_config(5.0)
        backward, step, sweeps, steps = mfg_pde.hjb_backward, mfg_pde.transport_step, [], []
        fv, fv_meshes = convergence.solve_aggregation_fv, []
        monkeypatch.setattr(mfg_pde, "hjb_backward", lambda cfg, *args: sweeps.append(cfg) or backward(cfg, *args))
        monkeypatch.setattr(mfg_pde, "transport_step", lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(convergence, "solve_aggregation_fv", lambda *a, **k: fv_meshes.append(a[2]) or fv(*a, **k))
        m0 = small_m0(cfg)
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [5.0, 20.0], base_config=cfg, n_cross_particles=50)
        for lam, row in zip(rep.lambdas, rep.rows):
            ran = [c for c in sweeps if c.lam == lam]
            ladder = row["clock_ladder"]
            assert row["converged"] and row["hjb_sweeps"] == len(ran)
            assert row["hjb_sweeps"] == sum(r["hjb_sweeps"] for r in ladder) + row["companion_hjb_sweeps"]
            assert row["companion_hjb_sweeps"] == sum(c.n_x != cfg.n_x for c in ran)
            assert [sum(c.dt == r["dt"] and c.n_x == cfg.n_x for c in ran) for r in ladder] == [
                r["hjb_sweeps"] for r in ladder
            ]
            assert row["fp_steps"] == sum(c.n_steps for c in ran)
            assert ladder[-1]["hjb_sweeps"] == row["iterations"]  # a warm-started rung has no warm-start sweep
        assert sum(row["fp_steps"] for row in rep.rows) == len(steps)
        assert [(row["companion_error"], row["companion_n_x"]) for row in rep.rows] == [(None, cfg.n_x // 2)] * 2
        assert [m.n for m in fv_meshes] == [cfg.n_x, cfg.n_x // 2] and fv_meshes[0] is m0

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
        doc = json.loads(_json_text(rep.to_doc()), parse_constant=_reject_constant)
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
        log, fv_dt = [], rep.reference["fv_dt"]
        solve_aggregation_fv(zero_ham, exp_kernel, m0, 378 * fv_dt, fv_dt, log)
        assert rep.reference["fv_mass_correction"] == log[0]
        assert 0.0 <= log[0] < 1e-13

    def test_cross_check_reads_one_time(self, zero_ham, exp_kernel):
        # 1,500 steps, no multiple of 8: the references march on 1,504 steps of 1.5 / 1504, whose node 1128 is
        # the window end 1.125; the cross-check compares the FV node there with the last node of the particle
        # ladder's finest march, 32 steps of 1.125 / 32, which meets REFERENCE_TOLERANCE on its first level
        # (estimate 5.7e-11)
        cfg = small_config(10.0, T=1.5, dt=1e-3, n_x=32, half_width=4.0)
        m0 = small_m0(cfg)
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [10.0], base_config=cfg, n_cross_particles=20)
        ref = rep.reference
        assert ref["dt"] == cfg.dt and ref["fv_dt"] == 1.5 / 1504
        assert ref["particle_h"] == 1128 * ref["fv_dt"] / 32 and ref["particle_rk4_steps"] == 8 + 16 + 32
        assert ref["particle_resolved"] is True and ref["particle_error_estimate"] <= ref["error_tolerance"]
        fv = solve_aggregation_fv(zero_ham, exp_kernel, m0, cfg.T, ref["fv_dt"], nodes=[1128])
        atoms = convergence.sample_grid_to_atoms(m0, 20)
        particles = solve_aggregation_particles(zero_ham, exp_kernel, atoms, 1128 * ref["fv_dt"], ref["particle_h"])
        assert fv.times[1] == 1128 * ref["fv_dt"]
        expected = convergence.w1_grid_vs_particles(fv.measures[1], particles.measures[-1])
        assert ref["cross_validation_w1"] == expected == 0.0849544505769175

    def test_references_stop_at_the_window(self, zero_ham, exp_kernel, monkeypatch):
        """500 steps, no multiple of 8: the FV reference marches on 504 steps of T / 504, whose nodes 0, 63, ...,
        378 are the window times, and it and every march of the particle ladder stop at node 378, the window
        end; the FV path keeps the nodes the rows read, and every row diagnostic equals the one read from an
        FV path over [0, T].  The cross-check reads the ladder's finest march, within REFERENCE_TOLERANCE of
        the one a particle march on the FV clock gives."""
        cfg = small_config(10.0)
        m0 = small_m0(cfg)
        fv_cfg = replace(cfg, dt=cfg.T / 504)
        calls = []
        for name in ("solve_aggregation_fv", "solve_aggregation_particles"):
            solve = getattr(convergence, name)
            monkeypatch.setattr(
                convergence, name,
                lambda *a, name=name, solve=solve, **k: calls.append((name, a[3], solve(*a, **k))) or calls[-1][2],
            )
        rep = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [10.0, 40.0], base_config=cfg, n_cross_particles=50)
        assert rep.reference["fv_dt"] == fv_cfg.dt
        assert [T for _, T, _ in calls] == [378 * fv_cfg.dt] * len(calls) and len(calls) >= 4
        nodes = convergence._window_nodes(fv_cfg.n_steps)
        assert list(nodes) == list(range(0, 379, 63)) and np.array_equal(calls[0][2].times, fv_cfg.times[nodes])
        fv = solve_aggregation_fv(zero_ham, exp_kernel, m0, cfg.T, fv_cfg.dt, nodes=range(fv_cfg.n_steps + 1))
        finest = [path for name, _, path in calls if name == "solve_aggregation_particles"][-1]
        cross = rep.reference["cross_validation_w1"]
        assert cross == convergence.w1_grid_vs_particles(fv.measures[378], finest.measures[-1])
        particles = solve_aggregation_particles(
            zero_ham, exp_kernel, convergence.sample_grid_to_atoms(m0, 50), cfg.T, fv_cfg.dt, [378]
        )
        on_the_clock = convergence.w1_grid_vs_particles(fv.measures[378], particles.at(378 * fv_cfg.dt))
        assert abs(cross - on_the_clock) <= convergence.REFERENCE_TOLERANCE

        def meshes(n):
            other = m0 if n == m0.n else convergence._regrid(m0, n)
            path = solve_aggregation_fv(zero_ham, exp_kernel, other, cfg.T, fv_cfg.dt, nodes=range(fv_cfg.n_steps + 1))
            return other, [path.measures[j] for j in nodes]
        for lam, row in zip(rep.lambdas, rep.rows):
            full = convergence._classic_row(replace(cfg, lam=lam), zero_ham, exp_kernel, meshes, 1.0)
            assert (row["w1_sup"], row["residual_lam_du_l1"]) == (full["w1_sup"], full["residual_lam_du_l1"])

    def test_grid_matrix_memo_keeps_every_column(self, zero_ham, exp_kernel, monkeypatch):
        """The sweep's grid matrices come from the kernels._grid_matrix memo: with it, the kernel builds
        a value matrix at most once per mesh the sweep solves on (the rows' and their dx companions', n_x / 2);
        with the memo cleared before every build, far more often, and every column of the report reads the same
        bits."""
        cfg = small_config(5.0)
        args = (zero_ham, exp_kernel, small_m0(cfg), [5.0, 20.0])
        value, builds = ExponentialKernel.value, []
        monkeypatch.setattr(ExponentialKernel, "value", lambda self, x: builds.append(1) or value(self, x))
        monkeypatch.setattr(kernels, "_grid_memo", {})
        kept = run_lambda_sweep_classic(*args, base_config=cfg, n_cross_particles=50)
        memo_builds = len(builds)
        monkeypatch.setattr(kernels, "_grid_memo", {})
        monkeypatch.setattr(kernels, "_GRID_MEMO_SIZE", 0)  # each matrix goes as soon as it is built
        fresh = run_lambda_sweep_classic(*args, base_config=cfg, n_cross_particles=50)
        assert 1 <= memo_builds <= 2 and len(builds) - memo_builds > 10
        assert [r.pop("wall_clock_s") > 0 for r in kept.rows + fresh.rows] == [True] * 4
        assert _json_text(kept.to_doc()) == _json_text(fresh.to_doc())

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
        a, b = json.loads(_json_text(r1.to_doc())), json.loads(_json_text(r2.to_doc()))
        for rowa, rowb in zip(a["rows"], b["rows"]):
            rowa.pop("wall_clock_s")
            rowb.pop("wall_clock_s")
        assert a["rows"] == b["rows"]
        assert a["reference"] == b["reference"]



def _window(ham, kernel, m0, cfg):
    """The FV reference at each window node, marched on the sweep's FV clock for cfg: T / (8 ceil(n / 8)) for
    cfg's n steps, as a classic row reads it."""
    n = 8 * -(-cfg.n_steps // 8)
    fv = solve_aggregation_fv(ham, kernel, m0, cfg.T, cfg.T / n, nodes=range(n + 1))
    return [fv.measures[j] for j in convergence._window_nodes(n)]


class TestClockLadder:
    """Each classic row climbs h = T / 64, T / 128, ... to the first rung whose dt error estimate is at most
    CLOCK_ERROR_FRACTION of its dx error estimate, or to the cap base_config.dt."""

    def test_dt_error_estimate_matches_direct_solves(self, zero_ham, exp_kernel):
        """The row's dt_error_estimate is |w1_sup(h) - w1_sup(2h)| of its last two rungs, the finer one warm-started;
        cold solves at h and 2h give the same values within the fixed point's tolerance."""
        cfg = small_config(20.0, half_width=8.0)
        m0 = small_m0(cfg)
        row = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [20.0], base_config=cfg, n_cross_particles=20).rows[0]
        assert row["converged"] and row["clock_resolved"] and row["companion_error"] is None
        assert row["dt"] == cfg.T / 128 and [r["dt"] for r in row["clock_ladder"]] == [cfg.T / 64, cfg.T / 128]
        window = _window(zero_ham, exp_kernel, m0, cfg)
        w1 = [convergence._window_w1(solve_mfg_fixed_point(replace(cfg, dt=h), zero_ham, exp_kernel, m0), window)
              for h in (cfg.T / 64, cfg.T / 128)]
        tol = mfg_pde.FIXED_POINT_TOLERANCE
        assert abs(row["w1_sup"] - w1[1]) <= tol
        assert abs(row["dt_error_estimate"] - abs(w1[1] - w1[0])) <= tol
        assert row["dt_error_estimate"] <= convergence.CLOCK_ERROR_FRACTION * row["dx_error_estimate"]

    def test_cap_coarser_than_the_first_rung_gives_one_rung(self, zero_ham, exp_kernel):
        """A cap dt = 0.01 above T / 64: the first rung always runs and is the only one; it has no estimate, so
        the clock is not resolved, and the row is not flagged for that."""
        cfg = small_config(10.0, n_x=64, dt=1e-2, T=0.5)
        row = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=20
        ).rows[0]
        assert len(row["clock_ladder"]) == 1 and row["dt"] == cfg.T / 64
        assert row["dt_error_estimate"] is None and row["clock_resolved"] is False
        assert row["converged"] and not row["flagged"] and row["rungs_skipped"] == 0

    def test_one_rung_states_its_dx_companion(self, zero_ham, exp_kernel):
        """The one rung under a cap coarser than T / 64 has no dt error estimate, so it solves the dx companion
        itself, on its own clock: the row states dx_error_estimate, companion_n_x and companion_dt."""
        cfg = small_config(10.0, n_x=64, dt=1e-2, T=0.5)
        row = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=20
        ).rows[0]
        assert len(row["clock_ladder"]) == 1 and row["dt_error_estimate"] is None
        assert row["companion_dt"] == row["dt"] == cfg.T / 64 and row["companion_error"] is None
        assert row["companion_n_x"] == cfg.n_x // 2 and row["dx_error_estimate"] > 0.0
        assert row["hjb_sweeps"] == row["clock_ladder"][0]["hjb_sweeps"] + row["companion_hjb_sweeps"]

    @pytest.mark.parametrize("lam", [5.0, 20.0])
    def test_warm_companion_matches_a_cold_solve(self, zero_ham, exp_kernel, monkeypatch, lam):
        """The dx companion starts from its rung's density stack moved to its mesh, n_x / 2 (``_regrid``), at
        lambda = 5 and 20; its w1_sup lands within 1e-7 of a cold solve's on the same mesh and clock."""
        cfg = small_config(lam)
        m0 = small_m0(cfg)
        solve, solved = convergence.solve_mfg_fixed_point, []
        monkeypatch.setattr(convergence, "solve_mfg_fixed_point", lambda *a: solved.append(solve(*a)) or solved[-1])
        row = run_lambda_sweep_classic(zero_ham, exp_kernel, m0, [lam], base_config=cfg, n_cross_particles=20).rows[0]
        (warm,) = [sol for sol in solved if sol.config.n_x != cfg.n_x]
        assert warm.started and (warm.config.dt, warm.config.n_x) == (row["companion_dt"], row["companion_n_x"])
        other = convergence._regrid(m0, warm.config.n_x)
        cold = solve_mfg_fixed_point(warm.config, zero_ham, exp_kernel, other)
        window = _window(zero_ham, exp_kernel, other, warm.config)
        assert abs(convergence._window_w1(warm, window) - convergence._window_w1(cold, window)) <= 1e-7

    @pytest.mark.parametrize("cap, finest", [(1.0 / 1024, 1024), (1e-3, 512)])
    def test_cap_sets_the_finest_rung(self, zero_ham, exp_kernel, monkeypatch, cap, finest):
        """With no estimate small enough (fraction 0), the ladder climbs to the finest rung the cap allows:
        T / 1024 under a cap of T / 1024 itself, T / 512 under 1e-3."""
        monkeypatch.setattr(convergence, "CLOCK_ERROR_FRACTION", 0.0)
        cfg = small_config(10.0, n_x=64, dt=cap)
        row = run_lambda_sweep_classic(
            zero_ham, exp_kernel, small_m0(cfg), [10.0], base_config=cfg, n_cross_particles=20
        ).rows[0]
        steps = [64, 128, 256, 512, 1024][: [64, 128, 256, 512, 1024].index(finest) + 1]
        assert [r["dt"] for r in row["clock_ladder"]] == [cfg.T / n for n in steps]
        assert row["dt"] == cfg.T / finest and row["clock_resolved"] is False and not row["flagged"]
        assert row["dt_error_estimate"] == abs(row["clock_ladder"][-1]["w1_sup"] - row["clock_ladder"][-2]["w1_sup"])

    def test_inadmissible_coarse_rung_is_skipped(self):
        """A constant drift of 3 on cells of 1/128: at h = T / 64 and T / 128 the HJB step is not monotone
        (3 dt / dx = 3 and 1.5), so those rungs raise and are skipped; T / 256 (0.75) solves, but without a solved
        rung at 2h it has no estimate, and T / 512, the cap, gives the row and its dx companion's clock.  The row
        is converged and not flagged.  m0 = N(-1.25, 0.5^2) keeps the wall density of every node below the leak
        bound (N(-1.5, 0.5^2) holds 3.1e-6 at node 0)."""
        ham = QuadraticDriftHamiltonian(DriftField("constant", 3.0))
        cfg = PdeConfig(lam=20.0, T=0.5, half_width=4.0, n_x=1024, dt=0.5 / 512)
        m0 = GridDensity.gaussian(-1.25, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
        row = run_lambda_sweep_classic(ham, ZeroKernel(), m0, [20.0], base_config=cfg, n_cross_particles=20).rows[0]
        ladder = row["clock_ladder"]
        assert [r["error"] for r in ladder] == ["StabilityError"] * 2 + [None] * 2 and row["rungs_skipped"] == 2
        assert ladder[1]["w1_sup"] is None and ladder[2]["w1_sup"] is not None
        assert row["dt"] == row["companion_dt"] == cfg.T / 512
        assert row["converged"] and not row["flagged"] and row["bounds_ok"]
        assert row["dt_error_estimate"] == abs(ladder[3]["w1_sup"] - ladder[2]["w1_sup"])
        assert row["hjb_sweeps"] == sum(r["hjb_sweeps"] for r in ladder) + row["companion_hjb_sweeps"]

    def test_warm_started_rung_reaches_the_cold_fixed_point(self, zero_ham, exp_kernel):
        """A rung started from the rung below, prolonged, takes no warm-start sweep and fewer sweeps than a cold
        solve, and stops within the fixed point's tolerance of the cold solve's density at every node."""
        coarse = small_config(20.0, dt=1.0 / 128)
        fine = replace(coarse, dt=1.0 / 256)
        m0 = small_m0(coarse)
        start = convergence._prolong(solve_mfg_fixed_point(coarse, zero_ham, exp_kernel, m0).m_path)
        assert start.shape == (fine.n_steps + 1, fine.n_x)
        warm = solve_mfg_fixed_point(fine, zero_ham, exp_kernel, m0, start)
        cold = solve_mfg_fixed_point(fine, zero_ham, exp_kernel, m0)
        assert warm.converged and cold.converged
        assert warm.hjb_sweeps == len(warm.residual_history) < cold.hjb_sweeps
        gap = np.cumsum(warm.m_path - cold.m_path, axis=1)
        assert np.max(np.abs(gap).sum(axis=1)) * fine.dx**2 <= mfg_pde.FIXED_POINT_TOLERANCE

    def test_start_off_the_clock_raises(self, zero_ham, exp_kernel):
        cfg = small_config(20.0, dt=1.0 / 128)
        with pytest.raises(ValueError, match="start must be the"):
            solve_mfg_fixed_point(cfg, zero_ham, exp_kernel, small_m0(cfg), np.ones((cfg.n_steps, cfg.n_x)))

    def test_prolong_keeps_nodes_and_averages_neighbours(self):
        m = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(convergence._prolong(m), [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])

    def test_companion_meshes_keep_the_mass(self):
        """The companion's mesh, n_x / 2, keeps m's origin and its mass."""
        m = small_m0(small_config(10.0))
        coarse = convergence._regrid(m, m.n // 2)
        assert (coarse.n, coarse.dx, coarse.origin) == (m.n // 2, 2 * m.dx, m.origin)
        assert coarse.values.sum() * coarse.dx == pytest.approx(1.0, abs=1e-14)


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

    @pytest.mark.parametrize("n_x", [255, 14, 8])
    def test_unsupported_mesh_raises_before_any_solve(self, no_solves, zero_ham, exp_kernel, n_x):
        """Each classic row's dx companion solves on n_x / 2 cells: an odd n_x, or one below 16, is refused."""
        cfg = small_config(5.0, n_x=n_x)
        with pytest.raises(ParameterError, match=f"n_x must be even and at least 16, got {n_x}: ") as raised:
            run_lambda_sweep_classic(zero_ham, exp_kernel, small_m0(cfg), [5.0], base_config=cfg)
        assert raised.value.name == "n_x"

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
        w1 = column(rep, "w1_at_half_T")
        assert np.all(np.diff(w1) < 0)
        assert np.all(column(rep, "energy_bound_ok") == 1.0)
        assert np.all(column(rep, "certified") == 1.0)
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
        """K = max(n_intervals, 70 T sqrt(lambda)), rounded up to a multiple of 8: every diagnostic
        window time, a multiple of T/8, and T/2 lie on a node of every row, also where the floor
        n_intervals is above 70 T sqrt(lambda) and no multiple of 8 (250 at lambda = 10 gives 256)."""
        for lam, n_intervals in ((10.0, 8), (20.0, 8), (40.0, 128), (80.0, 8), (640.0, 8), (10.0, 250)):
            K = convergence._row_intervals(lam, T, n_intervals)
            assert K >= max(n_intervals, 70 * T * np.sqrt(lam)) and K % 8 == 0
            nodes = np.linspace(0.0, T, K + 1)
            for t in (*convergence._window_times(T), 0.5 * T):
                assert np.min(np.abs(nodes - t)) <= 1e-12 * T
        assert [convergence._row_intervals(lam, 1.0, 128) for lam in (10.0, 20.0, 40.0, 80.0)] == [224, 320, 448, 632]
        assert convergence._row_intervals(10.0, 1.0, 250) == 256

    def test_window_nodes_are_integer(self):
        """Window node j of a clock of n steps is j n / 8; a clock of 500 steps, no multiple of 8, has no node at
        T/8 and raises rather than read the nearest one."""
        assert list(convergence._window_nodes(64)) == list(range(0, 49, 8))
        with pytest.raises(ValueError, match="multiple of 8"):
            convergence._window_nodes(500)

    def test_reference_off_the_window_raises(self):
        """A row reads one reference measure per window node: a reference that keeps every node of T/16 to the
        window end, 13 measures for 7 window nodes, raises."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        reference = solve_cs(m0, kernel, 0.75 * T, T / 16, range(13))
        with pytest.raises(ValueError, match="longer"):
            convergence._acceleration_row(10.0, m0, kernel, T, 64, reference)

    def test_one_transport_solve_per_node_pair(self, cs_flat, two_body_phase, monkeypatch):
        """w1_at_half_T reads the W1 the window solved at T/2, window node 4 = K/2 of the integer
        window nodes j K / 8: 7 solves a row, not 8."""
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
        nodes.  k starts at 2 (4h = T/8) with richardson_order_ratio's three marches, and each further
        level marches one new clock, at half the finest step, until the estimate is at most
        REFERENCE_TOLERANCE; each lower level reads above it, and rk4_steps counts every RK4 step the
        ladder took, each clock once."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        probes, marches, steps = [], [], []
        probe, solve, rk4 = convergence.richardson_order_ratio, cucker_smale.solve_cs, cucker_smale._rk4

        def recording_probe(m0, kernel, T, dt, nodes=None, finest=None):
            probes.append((T, dt, list(nodes)))
            return probe(m0, kernel, T, dt, nodes, finest)

        monkeypatch.setattr(convergence, "richardson_order_ratio", recording_probe)
        march = lambda *a, **k: marches.append((a[2:4], solve(*a, **k))) or marches[-1][1]
        monkeypatch.setattr(cucker_smale, "solve_cs", march)
        monkeypatch.setattr(cucker_smale, "_rk4", lambda rhs, z, dt: steps.append(1) or rk4(rhs, z, dt))
        ref = run_lambda_sweep_acceleration(kernel, m0, [10.0], T=T, n_intervals=64).reference
        horizon = ref["horizon"]
        assert horizon == 0.75 * T and probes == [(horizon, T / 8, [0, 1, 2, 3, 4, 5, 6])]
        assert [clock for clock, _ in marches] == [(horizon, horizon / (6 * 2**j)) for j in range(len(marches))]
        assert all(len(path) == 7 for _, path in marches)
        assert ref["h"] == T / 32 / 2 ** (len(marches) - 3)
        z = [np.stack([m.points for m in path.measures]) for _, path in marches]
        gaps = [np.max(np.abs(a - b)) for a, b in zip(z, z[1:])]
        assert all(gap / 15.0 > convergence.REFERENCE_TOLERANCE for gap in gaps[1:-1])
        assert ref["error_estimate"] == gaps[-1] / 15.0 <= ref["error_tolerance"] == convergence.REFERENCE_TOLERANCE
        assert ref["step_halving_ratio"] == gaps[-2] / gaps[-1]
        assert ref["resolved"] is True and 8.0 <= ref["step_halving_ratio"] <= 32.0
        assert ref["rk4_steps"] == len(steps) == sum(6 * 2**j for j in range(len(marches))) == 6 + 12 + 24 + 48
        assert ref["dt"] == 1e-3 and ref["T"] == T

    def test_ladder_reuses_its_marches_on_the_bench_flock(self):
        """The 24-atom flock (seed 0, beta = 0.5, T = 1) stops at h = T/128.  Its finest march,
        error_estimate and step_halving_ratio are those of a fresh richardson_order_ratio at the last
        level's 4h = T/32, and each level past the first marches one new clock: 186 RK4 steps, where
        three fresh probes take 294."""
        rng = np.random.default_rng(0)
        x, v = rng.standard_normal(24), rng.standard_normal(24)
        m0 = ParticleEnsemble.equal_weights(np.column_stack([x, v - v.mean()]), 1)
        kernel, T = CuckerSmaleKernel(1.0, 0.5), 1.0
        reference, ladder = convergence._kinetic_reference(m0, kernel, T, 1e-3)
        assert ladder["h"] == T / 128 and ladder["resolved"] is True
        assert ladder["rk4_steps"] == 6 + 12 + 24 + 48 + 96 == 186
        finest = []
        ratio = convergence.richardson_order_ratio(m0, kernel, 0.75 * T, T / 32, range(0, 25, 4), finest)
        (path, estimate, _), = finest
        assert (ladder["error_estimate"], ladder["step_halving_ratio"]) == (estimate, ratio)
        assert np.array_equal(reference.times, path.times)
        assert all(np.array_equal(a.points, b.points) for a, b in zip(reference.measures, path.measures))

    def test_w1_columns_within_the_reference_error(self):
        """Against the rows read from a dense solve_cs reference on T / 704 (state error near 1e-14), which keeps
        the window nodes 0, 88, ..., 528 alone, w1_sup and w1_at_half_T move by at most sqrt(2) error_estimate:
        W1 is 1-Lipschitz in each atom, whose phase-space error is at most sqrt(2) times the largest entry's."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        rep = run_lambda_sweep_acceleration(kernel, m0, [10.0, 40.0], T=T, n_intervals=64)
        bound = np.sqrt(2.0) * rep.reference["error_estimate"]
        dense = solve_cs(m0, kernel, 0.75 * T, T / 704, range(0, 529, 88))
        start = None
        for lam, row in zip(rep.lambdas, rep.rows):
            expected, controls = convergence._acceleration_row(lam, m0, kernel, T, 64, dense, start)
            for key in ("w1_sup", "w1_at_half_T"):
                assert abs(row[key] - expected[key]) <= bound
            assert row["certified"] and row["start_lambda"] == expected["start_lambda"]
            start = (lam, controls)

    @staticmethod
    def bench_flock():
        """The 24-atom flock of the accel-sweep benchmark (seed 0, centred velocities)."""
        rng = np.random.default_rng(0)
        x, v = rng.standard_normal(24), rng.standard_normal(24)
        return ParticleEnsemble.equal_weights(np.column_stack([x, v - v.mean()]), 1)

    def test_warm_row_matches_a_cold_solve(self):
        """A row started from the lambda = 10 row's controls, resampled from K = 224 onto K = 320 at
        lambda = 20, reaches the cold fixed point: the controls on the stop window t <= T/2 within 1e-9
        of a cold minimize_energy (measured 3.0e-10) and w1_at_half_T within 1e-9 of the cold row's
        (measured 9.3e-12), at a control step of at most CONTROL_STEP_TOLERANCE.  Beyond T/2 the
        controls carry the weight e^(-lambda t) and the stop rule does not read them."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), self.bench_flock(), 1.0
        reference, _ = convergence._kinetic_reference(m0, kernel, T, 1e-3)
        first, controls = convergence._acceleration_row(10.0, m0, kernel, T, 128, reference)
        warm, warm_controls = convergence._acceleration_row(20.0, m0, kernel, T, 128, reference, (10.0, controls))
        cold, _ = convergence._acceleration_row(20.0, m0, kernel, T, 128, reference)
        assert (first["start_lambda"], warm["start_lambda"], cold["start_lambda"]) == (None, 10.0, None)
        assert warm_controls.shape == (24, warm["n_intervals"]) == (24, 320)
        fit = acceleration.minimize_energy(m0, kernel, 20.0, T, 320)
        window = (np.arange(320) + 0.5) / 320 <= 0.5
        assert np.max(np.abs(warm_controls - fit.ensemble.controls)[:, window]) <= 1e-9
        assert abs(warm["w1_at_half_T"] - cold["w1_at_half_T"]) <= 1e-9
        assert warm["certified"] and warm["control_step"] <= acceleration.CONTROL_STEP_TOLERANCE

    def test_sweep_starts_each_row_from_the_last_certified_row(self, monkeypatch):
        """With the lambda = 10 row made uncertified, the lambda = 20 row starts from free flight
        (start_lambda null) and the lambda = 40 row from the lambda = 20 row's controls, resampled."""
        starts, solve = [], convergence.minimize_energy

        def recording(m0, kernel, lam, T, n_intervals, start=None):
            starts.append(start)
            return solve(m0, kernel, lam, T, n_intervals, start)

        monkeypatch.setattr(convergence, "minimize_energy", recording)
        certified = acceleration.MinimizeResult.certified.fget
        monkeypatch.setattr(
            acceleration.MinimizeResult, "certified", property(lambda r: r.ensemble.n_intervals != 160 and certified(r))
        )
        m0 = ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1)
        rep = run_lambda_sweep_acceleration(CuckerSmaleKernel(1.0, 0.5), m0, [10.0, 20.0, 40.0], T=0.7)
        assert column(rep, "n_intervals").tolist() == [160.0, 224.0, 312.0]
        assert [row["certified"] for row in rep.rows] == [False, True, True]
        assert [row["start_lambda"] for row in rep.rows] == [None, None, 20.0]
        assert starts[0] is None and starts[1] is None and starts[2].shape == (3, 312)

    def test_error_estimate_bounds_the_actual_error(self):
        """On the 3-atom flock at T = 0.7 the reference's largest state error at the window nodes,
        against an RK4 march at T/1024, is at most its error_estimate (measured: 0.98 of it)."""
        kernel, m0, T = CuckerSmaleKernel(1.0, 0.5), ParticleEnsemble.equal_weights(self.THREE_ATOMS, 1), 0.7
        reference, ladder = convergence._kinetic_reference(m0, kernel, T, 1e-3)
        oracle = solve_cs(m0, kernel, 0.75 * T, T / 1024, range(0, 769, 128))
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
