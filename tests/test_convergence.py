import json

import numpy as np
import pytest

from mfglab import (
    ConvergenceReport,
    CuckerSmaleKernel,
    ExponentialKernel,
    MfgSolution,
    ParticleEnsemble,
    PdeConfig,
    ZeroKernel,
    diagnostics_bounds,
    run_lambda_sweep_acceleration,
    run_lambda_sweep_classic,
    solve_mfg_fixed_point,
)
from mfglab import convergence
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

    def test_wrong_kernel_type(self, two_body_phase):
        with pytest.raises(TypeError):
            run_lambda_sweep_acceleration(ExponentialKernel(), two_body_phase, [10.0])
