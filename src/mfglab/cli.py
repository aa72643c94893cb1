"""Command-line entry point: one config file in, one artifact directory out.

Every subcommand reads an INI config, runs one experiment, and writes
JSON/CSV artifacts that inline the config and seeds, so any artifact can
be re-derived bit-exactly.  Failures exit nonzero and leave a
machine-readable error.json in the output directory.  Every JSON artifact,
error.json included, carries what producing it cost: the process's peak
RSS in KiB (``peak_rss_kb``) and the command's wall time (``wall_clock_s``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from . import __version__
from .acceleration import _row_intervals, minimize_energy
from .aggregation import solve_aggregation_fv
from .config import ExperimentDescription, parse_config, write_config
from .convergence import REFERENCE_TOLERANCE, _json_text, run_lambda_sweep_acceleration, run_lambda_sweep_classic
from .cucker_smale import richardson_order_ratio, solve_cs
from .errors import ConfigError
from .hamiltonians import validate_hamiltonian
from .kernels import CuckerSmaleKernel, psd_check, validate_coupling
from .measures import GridDensity, _csv_table, _n_steps
from .mfg_pde import solve_mfg_fixed_point


def _write_json(path: Path, doc: dict, t0: float) -> None:
    """Write doc as a JSON artifact with its cost at the top level: the peak RSS of this process
    (``ru_maxrss``, KiB on Linux) and the wall time since t0, the command's start."""
    cost = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "wall_clock_s": time.perf_counter() - t0}
    path.write_text(_json_text({**doc, **cost}) + "\n")


def _base_doc(desc: ExperimentDescription, seed: int) -> dict:
    return {
        "version": __version__,
        "config": write_config(desc),
        "defaults_applied": list(desc.defaults_applied),
        "seed": seed,
    }


def _cmd_validate_model(desc, out, seed):
    kernel = desc.build_kernel()
    ham = desc.build_hamiltonian()
    doc = _base_doc(desc, seed)
    doc["hamiltonian"] = vars(validate_hamiltonian(ham)).copy()
    if isinstance(kernel, CuckerSmaleKernel):
        doc["coupling"] = {"kind": "cucker-smale", "c0": kernel.c0}
        doc["passed"] = bool(doc["hamiltonian"]["convexity_ok"])
    else:
        rep = validate_coupling(kernel)
        doc["coupling"] = vars(rep).copy()
        doc["psd"] = {"label": (psd := psd_check(kernel)).label, **vars(psd)}
        doc["passed"] = bool(
            rep.lipschitz_ok and rep.growth_ok and rep.semiconcave_ok and doc["hamiltonian"]["convexity_ok"]
        )
    return 0 if doc["passed"] else 3, "validation.json", doc


def _cmd_solve_mfg(desc, out, seed):
    cfg = desc.build_pde_config()
    sol = solve_mfg_fixed_point(cfg, desc.build_hamiltonian(), desc.build_kernel(), desc.build_m0_grid())
    doc = _base_doc(desc, seed)
    doc.update(
        iterations=sol.iterations,
        hjb_sweeps=sol.hjb_sweeps,
        fp_steps=sol.fp_steps,
        residual=sol.residual,
        converged=sol.converged,
        residual_history=list(sol.residual_history),
    )
    (out / "u0.csv").write_text(_csv_table(["x", "u"], zip(cfg.cell_centers.tolist(), sol.u_path[0].tolist())))
    (out / "m_final.csv").write_text(GridDensity(-cfg.half_width, cfg.dx, sol.m_path[-1]).to_csv())
    return 0 if sol.converged else 3, "solution.json", doc


def _cmd_solve_limit(desc, out, seed):
    s = desc.solver
    path = solve_aggregation_fv(desc.build_hamiltonian(), desc.build_kernel(), desc.build_m0_grid(), s["T"], s["dt"])
    doc = _base_doc(desc, seed)
    doc["n_steps"] = _n_steps(s["T"], s["dt"])
    (out / "m_final.csv").write_text(path.measures[-1].to_csv())
    return 0, "solution.json", doc


def _cmd_solve_accel(desc, out, seed):
    s = desc.solver
    m0 = desc.build_m0_atoms(seed)
    n_intervals = _row_intervals(s["lambda"], s["T"], s["n_intervals"])  # the sweep's K: n_intervals is a floor
    result = minimize_energy(m0, desc.build_kernel(), s["lambda"], s["T"], n_intervals)
    doc = _base_doc(desc, seed)
    doc.update(
        n_intervals=n_intervals,
        certified=result.certified,
        iterations=result.iterations,
        fixed_point_fallbacks=result.fixed_point_fallbacks,
        control_step=result.control_step,
        el_residual=result.el_residual,
        energy={"control": result.energy.control, "interaction": result.energy.interaction, "total": result.energy.total},
    )
    (out / "trajectories.csv").write_text(result.ensemble.to_csv())
    return 0 if result.certified else 3, "solution.json", doc


def _cmd_solve_cs(desc, out, seed):
    kernel = desc.build_kernel()
    s = desc.solver
    m0 = desc.build_m0_atoms(seed)
    n = _n_steps(s["T"], s["dt"])
    # every node of a run of fewer than 1,024 steps, every (n // 512)-th and the last, 513 to 769 nodes, of a longer one
    path = solve_cs(m0, kernel, s["T"], s["dt"], [*range(0, n, max(1, n // 512)), n])
    # the order probe of the acceleration sweep: RK4 reads ~16; inf means no error left to halve.  Its finest
    # march, at 2 dt, states its error estimate |z_2dt - z_4dt| / 15, as both sweeps' references do
    finest = []
    ratio = richardson_order_ratio(m0, kernel, s["T"], 8 * s["dt"], finest=finest)
    (_, estimate, _), = finest
    doc = _base_doc(desc, seed)
    doc.update(
        n_snapshots=len(path),
        step_halving_ratio=ratio,
        error_estimate=estimate,
        error_tolerance=REFERENCE_TOLERANCE,
        resolved=estimate <= REFERENCE_TOLERANCE,
    )
    # one row per atom and snapshot: atom, t, coordinates, weight
    rows = (
        [i, t, *p, w]
        for t, m in zip(path.times.tolist(), path.measures)
        for i, (p, w) in enumerate(zip(m.points.tolist(), m.weights.tolist()))
    )
    (out / "states.csv").write_text(_csv_table(["atom", "t", *path.measures[0]._csv_columns()], rows))
    return 0 if 8.0 <= ratio <= 32.0 or ratio == float("inf") else 3, "solution.json", doc


def _cmd_sweep_classic(desc, out, seed):
    report = run_lambda_sweep_classic(
        desc.build_hamiltonian(),
        desc.build_kernel(),
        desc.build_m0_grid(),
        desc.lambdas,
        base_config=desc.build_pde_config(desc.lambdas[0]),
        n_cross_particles=desc.sweep["cross_particles"],
        seed=seed,
    )
    prefix = desc.output["prefix"]
    (out / f"{prefix}.csv").write_text(report.to_csv())
    # a particle cross-check the dt cap stopped above its tolerance fails the sweep, as in sweep-accel
    ok = report.reference["particle_resolved"] and not any(r["flagged"] for r in report.rows)
    return 0 if ok else 3, f"{prefix}.json", report.to_doc()


def _cmd_sweep_accel(desc, out, seed):
    s = desc.solver
    report = run_lambda_sweep_acceleration(
        desc.build_kernel(),
        desc.build_m0_atoms(seed),
        desc.lambdas,
        T=s["T"],
        n_intervals=s["n_intervals"],
        dt_reference=s["dt"],
        seed=seed,
    )
    prefix = desc.output["prefix"]
    (out / f"{prefix}.csv").write_text(report.to_csv())
    # a reference the dt cap stopped above its tolerance fails the sweep as a ratio outside [8, 32] fails solve-cs
    ok = report.reference["resolved"] and not any(r["flagged"] for r in report.rows)
    return 0 if ok else 3, f"{prefix}.json", report.to_doc()


#: command -> (body, whether it takes kernel = cucker-smale; None where either family does); a body
#: writes its CSV artifacts and returns (exit status, JSON artifact name, JSON document)
_COMMANDS = {
    "validate-model": (_cmd_validate_model, None),
    "solve-mfg": (_cmd_solve_mfg, False),
    "solve-limit": (_cmd_solve_limit, False),
    "solve-accel": (_cmd_solve_accel, True),
    "solve-cs": (_cmd_solve_cs, True),
    "sweep-classic": (_cmd_sweep_classic, False),
    "sweep-accel": (_cmd_sweep_accel, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfglab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI experiment file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override [output] seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        desc = parse_config(Path(args.config).read_text())
        run, wants_cs = _COMMANDS[args.command]
        if wants_cs is not None and (desc.model["kernel"] == "cucker-smale") != wants_cs:
            need = "kernel = cucker-smale" if wants_cs else "a position-space kernel, not cucker-smale"
            raise ConfigError(f"model.kernel: {args.command} needs {need}")
        seed = desc.output["seed"] if args.seed is None else args.seed
        status, name, doc = run(desc, out, seed)
        _write_json(out / name, doc, t0)
    except Exception as exc:
        err = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "config": args.config,
            "traceback": traceback.format_exc(),
        }
        _write_json(out / "error.json", err, t0)
        print(json.dumps({"error": err["error"], "message": err["message"]}), file=sys.stderr)
        return 2
    print(
        json.dumps(
            {"command": args.command, "status": status, "out": str(out), "wall_clock_s": time.perf_counter() - t0}
        )
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
