"""Command-line entry point: one config file in, one artifact directory out.

Every subcommand reads an INI config, runs one experiment, and writes
JSON/CSV artifacts that inline the config and seeds, so any artifact can
be re-derived bit-exactly.  Failures exit nonzero and leave a
machine-readable error.json in the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from . import __version__
from .acceleration import minimize_energy
from .aggregation import solve_aggregation_fv
from .config import ExperimentDescription, parse_config, write_config
from .convergence import _json_text, run_lambda_sweep_acceleration, run_lambda_sweep_classic
from .cucker_smale import richardson_order_ratio, solve_cs
from .errors import ConfigError
from .hamiltonians import validate_hamiltonian
from .kernels import CuckerSmaleKernel, psd_check, validate_coupling
from .measures import GridDensity, _csv_table
from .mfg_pde import solve_mfg_fixed_point


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(_json_text(doc) + "\n")


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
    doc["hamiltonian"] = vars(validate_hamiltonian(ham, seed=seed)).copy()
    if isinstance(kernel, CuckerSmaleKernel):
        doc["coupling"] = {"kind": "cucker-smale", "c0": kernel.c0}
        doc["passed"] = bool(doc["hamiltonian"]["convexity_ok"])
    else:
        rep = validate_coupling(kernel, seed=seed)
        psd = psd_check(kernel, seed=seed)
        doc["coupling"] = {k: v for k, v in vars(rep).items()}
        doc["psd"] = {"label": psd.label, "min_eigenvalue": psd.min_eigenvalue, "threshold": psd.threshold}
        doc["passed"] = bool(
            rep.lipschitz_ok and rep.growth_ok and rep.semiconcave_ok and doc["hamiltonian"]["convexity_ok"]
        )
    _write_json(out / "validation.json", doc)
    return 0 if doc["passed"] else 3


def _cmd_solve_mfg(desc, out, seed):
    cfg = desc.build_pde_config()
    sol = solve_mfg_fixed_point(cfg, desc.build_hamiltonian(), desc.build_kernel(), desc.build_m0_grid())
    doc = _base_doc(desc, seed)
    doc.update(
        iterations=sol.iterations,
        residual=sol.residual,
        converged=sol.converged,
        residual_history=list(sol.residual_history),
    )
    _write_json(out / "solution.json", doc)
    (out / "u0.csv").write_text(_csv_table(["x", "u"], zip(cfg.cell_centers.tolist(), sol.u_path[0].tolist())))
    (out / "m_final.csv").write_text(GridDensity(-cfg.half_width, cfg.dx, sol.m_path[-1]).to_csv())
    return 0 if sol.converged else 3


def _cmd_solve_limit(desc, out, seed):
    s = desc.solver
    path = solve_aggregation_fv(desc.build_hamiltonian(), desc.build_kernel(), desc.build_m0_grid(), s["T"], s["dt"])
    doc = _base_doc(desc, seed)
    doc["n_steps"] = len(path) - 1
    _write_json(out / "solution.json", doc)
    (out / "m_final.csv").write_text(path.measures[-1].to_csv())
    return 0


def _cmd_solve_accel(desc, out, seed):
    s = desc.solver
    m0 = desc.build_m0_atoms(seed)
    result = minimize_energy(m0, desc.build_kernel(), s["lambda"], s["T"], s["n_intervals"])
    doc = _base_doc(desc, seed)
    doc.update(
        converged=result.converged,
        iterations=result.iterations,
        gradient_norm=result.gradient_norm,
        el_residual=result.el_residual,
        energy={"control": result.energy.control, "interaction": result.energy.interaction, "total": result.energy.total},
    )
    _write_json(out / "solution.json", doc)
    (out / "trajectories.csv").write_text(result.ensemble.to_csv())
    return 0 if result.converged else 3


def _cmd_solve_cs(desc, out, seed):
    kernel = desc.build_kernel()
    s = desc.solver
    m0 = desc.build_m0_atoms(seed)
    path = solve_cs(m0, kernel, s["T"], s["dt"])
    # the order probe of the acceleration sweep: RK4 reads ~16; inf means no error left to halve
    ratio = richardson_order_ratio(m0, kernel, s["T"], 8 * s["dt"])
    doc = _base_doc(desc, seed)
    doc.update(n_snapshots=len(path), step_halving_ratio=ratio)
    _write_json(out / "solution.json", doc)
    # one row per atom and snapshot: atom, t, coordinates, weight
    rows = (
        [i, t, *p, w]
        for t, m in zip(path.times.tolist(), path.measures)
        for i, (p, w) in enumerate(zip(m.points.tolist(), m.weights.tolist()))
    )
    (out / "states.csv").write_text(_csv_table(["atom", "t", *path.measures[0]._csv_columns()], rows))
    return 0 if 8.0 <= ratio <= 32.0 or ratio == float("inf") else 3


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
    (out / f"{prefix}.json").write_text(report.to_json() + "\n")
    (out / f"{prefix}.csv").write_text(report.to_csv())
    return 0 if not any(r["flagged"] for r in report.rows) else 3


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
    (out / f"{prefix}.json").write_text(report.to_json() + "\n")
    (out / f"{prefix}.csv").write_text(report.to_csv())
    return 0 if not any(r["flagged"] for r in report.rows) else 3


#: command -> (body, whether it takes kernel = cucker-smale; None where either family does)
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
        status = run(desc, out, seed)
    except Exception as exc:
        err = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "config": args.config,
            "traceback": traceback.format_exc(),
        }
        _write_json(out / "error.json", err)
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
