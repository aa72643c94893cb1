"""The benchmark workloads: inputs made from a seed, the solve, the output checks.

Each workload runs in a fresh worker process.  ``prepare`` is the set-up
phase (input generation, done after ``import mfglab``), ``solve`` is the
timed phase, and ``check`` turns the outputs into operations and
diagnostics.  An operation is one lambda row or one reference/particle
solve.  It is *failed* when the program flags it, raises, or the output
fails its check; it is *wrong* when the program reports success but the
output fails its check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

import mfglab
import mfglab.cli  # not imported by the package itself

# Spans each workload must fire in the traced run.
EXPECTED_SPANS = {
    "classic-sweep": (
        "cli.main", "config.parse_config", "convergence.sweep", "kernels.validate_coupling",
        "hamiltonians.validate_hamiltonian", "aggregation.solve_aggregation_fv",
        "aggregation.solve_aggregation_particles", "mfg_pde.solve_mfg_fixed_point",
        "mfg_pde.hjb_backward", "mfg_pde.coupling_on_grid", "mfg_pde.fp_forward",
        "mfg_pde.transport_step", "kernels.value", "kernels.gradient", "measures.GridDensity",
        "measures.wasserstein1_1d", "convergence.diagnostics_bounds",
    ),
    "accel-sweep": (
        "cli.main", "config.parse_config", "convergence.sweep", "cucker_smale.solve_cs",
        "cucker_smale.richardson_order_ratio", "acceleration.minimize_energy",
        "acceleration.discrete_energy", "acceleration.energy_gradient", "acceleration.el_residual",
        "kernels.value", "kernels.cs_g", "measures.wasserstein1_particles",
    ),
    "limit-particles": (
        "aggregation.solve_aggregation_fv", "aggregation.solve_aggregation_particles",
        "mfg_pde.transport_step", "kernels.gradient", "cucker_smale.solve_cs",
        "cucker_smale.richardson_order_ratio", "kernels.cs_g", "measures.GridDensity",
    ),
}


def _op(name, flagged=False, raised=None, check_ok=True, detail=None):
    return {"name": name, "flagged": bool(flagged), "raised": raised, "check_ok": bool(check_ok), "detail": detail}


class _Workload:
    """Inputs are drawn from (seed, rep): repetition ``rep`` of a run gets its own input."""

    def __init__(self, seed: int, rep: int, out_dir: Path):
        self.seed = seed
        self.rnd = random.Random(f"{seed}/{rep}")
        self.out_dir = out_dir


class _SweepWorkload(_Workload):
    """A lambda sweep run through ``mfglab.cli.main`` on a generated INI file."""

    command = ""

    @property
    def config_path(self) -> Path:
        return self.out_dir / "experiment.ini"

    def ini_text(self) -> str:
        raise NotImplementedError

    def prepare(self):
        text = self.ini_text()
        self.desc = mfglab.parse_config(text)
        self.config_path.write_text(text)

    def solve(self):
        # the CLI prints a status line; keep it out of the benchmark's output
        with contextlib.redirect_stdout(io.StringIO()):
            status = mfglab.cli.main(
                [self.command, "--config", str(self.config_path), "--out", str(self.out_dir), "--seed", str(self.seed)]
            )
        report_path = self.out_dir / f"{self.desc.output['prefix']}.json"
        error_path = self.out_dir / "error.json"
        return {
            "status": status,
            "report": json.loads(report_path.read_text()) if report_path.exists() else None,
            "error": json.loads(error_path.read_text())["error"] if error_path.exists() else None,
        }

    def check(self, out):
        report = out["report"]
        if report is None:
            raised = out["error"] or f"exit status {out['status']}"
            ops = [_op("reference", raised=raised)] + [_op(f"lambda={l:g}", raised=raised) for l in self.lambdas]
            return ops, {"error": raised}
        rows = [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in report["rows"]]
        diagnostics = {"lambdas": report["lambdas"], "rows": rows, "reference": report["reference"]}
        return self.check_report(report), diagnostics


class ClassicSweep(_SweepWorkload):
    command = "sweep-classic"
    lambdas = (5.0, 20.0, 80.0)

    def ini_text(self) -> str:
        center = self.rnd.uniform(-0.25, 0.25)
        sigma = self.rnd.uniform(0.45, 0.55)
        return (
            "[model]\nkernel = exponential\nalpha = 1.0\na = 1.0\n"
            f"[solver]\nT = 1.0\nn_x = 256\ndt = 0.001\nm0_center = {center!r}\nm0_sigma = {sigma!r}\n"
            f"[sweep]\nlambdas = {', '.join(map(repr, self.lambdas))}\nthreads = 1\ncross_particles = 100\n"
        )

    def check_report(self, report):
        ref_w1 = report["reference"]["cross_validation_w1"]
        ops = [_op("reference", check_ok=np.isfinite(ref_w1), detail={"cross_validation_w1": ref_w1})]
        w1 = [row["w1_sup"] for row in report["rows"]]
        for i, (lam, row) in enumerate(zip(report["lambdas"], report["rows"])):
            trend_ok = i == 0 or w1[i] < w1[i - 1]
            if i == len(w1) - 1:
                trend_ok = trend_ok and w1[-1] < 0.5 * w1[0]
            ops.append(_op(
                f"lambda={lam:g}",
                flagged=row["flagged"],
                check_ok=row["converged"] and row["bounds_ok"] and trend_ok,
                detail={k: row[k] for k in ("converged", "bounds_ok", "iterations", "w1_sup")},
            ))
        return ops


class AccelSweep(_SweepWorkload):
    """One flock, shifted by a drawn offset.

    The flock is the one the default config draws (``[output] seed = 0``);
    the offset moves it rigidly along the line, which changes every input
    coordinate but not the pair offsets the dynamics depend on.  Drawing a
    new flock per input, even jittering this one by 0.05, changes how many
    objective evaluations the L-BFGS line searches take (7 or 27 at
    lambda = 80), and that would swamp run_s with the draw.  Roundoff
    still moves the count at lambda = 10 (11 to 25), which is cheap.
    """

    command = "sweep-accel"
    lambdas = (10.0, 20.0, 40.0, 80.0)
    n_atoms = 24

    def ini_text(self) -> str:
        flock = np.random.default_rng(0)
        x = flock.standard_normal(self.n_atoms) + self.rnd.uniform(-1.0, 1.0)
        v = flock.standard_normal(self.n_atoms)
        v -= v.mean()
        return (
            "[model]\nkernel = cucker-smale\nalpha = 1.0\nbeta = 0.5\n"
            "[solver]\nT = 1.0\nn_intervals = 128\ndt = 0.001\n"
            f"atoms_x = {', '.join(map(repr, x.tolist()))}\natoms_v = {', '.join(map(repr, v.tolist()))}\n"
            f"[sweep]\nlambdas = {', '.join(map(repr, self.lambdas))}\nthreads = 1\n"
        )

    def check_report(self, report):
        ratio = report["reference"]["step_halving_ratio"]
        ops = [_op("reference", check_ok=8.0 <= ratio <= 32.0, detail={"step_halving_ratio": ratio})]
        w1 = [row["w1_at_half_T"] for row in report["rows"]]
        for i, (lam, row) in enumerate(zip(report["lambdas"], report["rows"])):
            trend_ok = i == 0 or w1[i] < w1[i - 1]
            ops.append(_op(
                f"lambda={lam:g}",
                flagged=row["flagged"],
                check_ok=row["converged"] and row["certified"] and row["energy_bound_ok"] and trend_ok,
                detail={k: row[k] for k in ("converged", "certified", "energy_bound_ok", "el_residual", "w1_at_half_T")},
            ))
        return ops


class LimitParticles(_Workload):
    """Large-lambda limit solvers called directly through the public API."""

    n_x = 256
    half_width = 6.0
    n_agg_atoms = 600
    agg_dt = 5e-3
    n_cs_atoms = 192
    cs_dt = 1e-3
    T = 1.0

    def prepare(self):
        center = self.rnd.uniform(-0.25, 0.25)
        sigma = self.rnd.uniform(0.45, 0.55)
        dx = 2.0 * self.half_width / self.n_x
        self.ham = mfglab.QuadraticDriftHamiltonian(mfglab.DriftField("zero"))
        self.morse = mfglab.MorseKernel(G=0.5, L=2.0)
        self.m0_grid = mfglab.GridDensity.gaussian(center, sigma, -self.half_width, dx, self.n_x)
        self.m0_atoms = mfglab.convergence.sample_grid_to_atoms(self.m0_grid, self.n_agg_atoms)
        rng = np.random.default_rng(self.rnd.getrandbits(64))
        x = rng.standard_normal(self.n_cs_atoms)
        v = rng.standard_normal(self.n_cs_atoms)
        v -= v.mean()
        self.cs_kernel = mfglab.CuckerSmaleKernel(alpha=1.0, beta=0.5)
        self.cs_m0 = mfglab.ParticleEnsemble.equal_weights(np.column_stack([x, v]), 1)

    def solve(self):
        out = {}
        calls = {
            "fv": lambda: mfglab.solve_aggregation_fv(self.ham, self.morse, self.m0_grid, self.T, self.agg_dt),
            "particles": lambda: mfglab.solve_aggregation_particles(
                self.ham, self.morse, self.m0_atoms, self.T, self.agg_dt
            ),
            "cs": lambda: mfglab.solve_cs(self.cs_m0, self.cs_kernel, self.T, self.cs_dt),
            # order checked at 8*dt, as the acceleration sweep does
            "richardson": lambda: mfglab.richardson_order_ratio(self.cs_m0, self.cs_kernel, self.T, 8 * self.cs_dt),
        }
        for name, call in calls.items():
            try:
                out[name] = call()
            except Exception as exc:  # a raising solve is a failed operation, not a crash
                out[name] = exc
        return out

    def check(self, out):
        raised = {k: type(v).__name__ for k, v in out.items() if isinstance(v, Exception)}
        diag = {}
        ops = [_op("fv", raised=raised.get("fv"))]
        if not raised.keys() & {"fv", "particles"}:
            w1 = mfglab.convergence.w1_grid_vs_particles(out["fv"].at(self.T), out["particles"].at(self.T))
            diag["w1_fv_vs_particles_at_T"] = w1
            ops.append(_op("particles", check_ok=w1 <= 0.02, detail={"w1_at_T": w1}))
        else:
            ops.append(_op("particles", raised=raised.get("particles", "fv failed")))
        if "cs" not in raised:
            path = out["cs"]
            w = path.measures[0].weights
            drift = abs(float(w @ path.measures[-1].velocities[:, 0] - w @ path.measures[0].velocities[:, 0]))
            diag["cs_mean_velocity_drift"] = drift
            ops.append(_op("cs", check_ok=drift <= 1e-12, detail={"mean_velocity_drift": drift}))
        else:
            ops.append(_op("cs", raised=raised["cs"]))
        if "richardson" not in raised:
            ratio = float(out["richardson"])
            diag["cs_richardson_ratio"] = ratio
            ops.append(_op("richardson", check_ok=8.0 <= ratio <= 32.0, detail={"ratio": ratio}))
        else:
            ops.append(_op("richardson", raised=raised["richardson"]))
        return ops, diag


WORKLOADS = {
    "classic-sweep": ClassicSweep,
    "accel-sweep": AccelSweep,
    "limit-particles": LimitParticles,
}
