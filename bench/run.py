"""mfglab benchmark: one lambda-sweep workload, measured in fresh processes.

    python3 bench/run.py --workload classic-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each repetition of the workload runs in
a fresh single-threaded worker process (``bench/worker.py``) on its own
input drawn from the seed; repetitions start until the next one would
end past ``--seconds``, with at least one.
Set-up time is also sampled by set-up-only workers.  With ``--trace 0``
the last stdout line is the end-to-end result, with ``--trace 1`` it is
the per-layer result of one traced repetition, taken next to one
untraced repetition that gives the tracing overhead.  The lines before
it give the environment, every operation with its check, the per-lambda
rows and the diagnostics, so two commits can be diffed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classic-sweep", "accel-sweep", "limit-particles")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Per-layer metrics: name -> (unit, function of (spans, records, reps)).
def _span(name, field):
    return lambda spans, records, reps: spans.get(name, {}).get(field, 0)


def _record_sum(name, key):
    return lambda spans, records, reps: sum(r[key] for r in records.get(name, []))


def _pair_builds(spans, records, reps):
    grads = spans.get("acceleration.energy_gradient", {}).get("calls", 0)
    energies = spans.get("acceleration.discrete_energy", {}).get("calls", 0)
    return (energies + grads) / grads if grads else 0.0


def _pair_array_mb(spans, records, reps):
    sizes = [r["pair_array_bytes"] for r in records.get("acceleration.minimize_energy", [])]
    return max(sizes, default=0) / 2**20


PER_LAYER = {}
for _name, _fields in (
    ("mfg_pde.solve_mfg_fixed_point", ("calls", "self_s")),
    ("mfg_pde.hjb_backward", ("calls", "self_s")),
    ("mfg_pde.coupling_on_grid", ("calls", "s")),
    ("mfg_pde.fp_forward", ("calls", "self_s")),
    ("mfg_pde.transport_step", ("calls", "s")),
    ("kernels.value", ("calls", "s")),
    ("kernels.gradient", ("calls", "s")),
    ("kernels.cs_g", ("calls", "s")),
    ("kernels.validate_coupling", ("s",)),
    ("measures.GridDensity", ("calls", "s")),
    ("measures.wasserstein1_1d", ("calls", "s")),
    ("measures.wasserstein1_particles", ("calls", "s")),
    ("aggregation.solve_aggregation_particles", ("calls", "self_s")),
    ("aggregation.solve_aggregation_fv", ("calls", "self_s")),
    ("cucker_smale.solve_cs", ("calls", "self_s")),
    ("cucker_smale.richardson_order_ratio", ("calls", "self_s")),
    ("acceleration.minimize_energy", ("calls", "self_s")),
    ("acceleration.discrete_energy", ("calls", "s")),
    ("acceleration.energy_gradient", ("calls", "s")),
    ("acceleration.el_residual", ("calls", "s")),
    ("hamiltonians.validate_hamiltonian", ("s",)),
    ("convergence.sweep", ("self_s",)),
    ("convergence.diagnostics_bounds", ("s",)),
    ("config.parse_config", ("s",)),
    ("cli.main", ("self_s",)),
):
    for _field in _fields:
        # GridDensity spans time the validation in __post_init__, one per construction
        _metric = "constructed" if (_name, _field) == ("measures.GridDensity", "calls") else _field
        PER_LAYER[f"{_name}.{_metric}"] = ("count" if _field == "calls" else "s", _span(_name, _field))
PER_LAYER.update({
    "mfg_pde.iterations": ("count", _record_sum("mfg_pde.solve_mfg_fixed_point", "iterations")),
    "aggregation.pair_evals": ("count", _record_sum("aggregation.solve_aggregation_particles", "pair_evals")),
    "cucker_smale.pair_evals": ("count", lambda s, r, reps: sum(
        x["pair_evals"] for k in ("cucker_smale.solve_cs", "cucker_smale.richardson_order_ratio") for x in r.get(k, [])
    )),
    "acceleration.lbfgs_iterations": ("count", _record_sum("acceleration.minimize_energy", "iterations")),
    "acceleration.pair_builds_per_objective": ("ratio", _pair_builds),
    "acceleration.pair_array_mb": ("MB", _pair_array_mb),
    "trace.run_s": ("s", lambda s, r, reps: reps[1]["run_s"]),
    "trace.overhead_s": ("s", lambda s, r, reps: reps[1]["run_s"] - reps[0]["run_s"]),
})


class BenchError(RuntimeError):
    """A worker crashed or timed out: the run has no result."""


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    if (git / ref[5:]).is_file():
        return (git / ref[5:]).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _worker(workload, seed, rep, out_dir, deadline, *flags) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--rep", str(rep)]
    cmd += ["--out", str(out_dir)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd + ["--spawn-ns", str(time.monotonic_ns()), *flags],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failed(op) -> bool:
    return op["flagged"] or bool(op["raised"]) or not op["check_ok"]


def _wrong(op) -> bool:
    """The program raised, or reported success for an output that fails its check."""
    return bool(op["raised"]) or (not op["flagged"] and not op["check_ok"])


def run_workload(workload, seed, seconds, trace, scratch):
    """Run one workload; returns (reps, problems, metrics).

    problems lists the reasons the outputs are not correct: wrong
    operations, traced and untraced diagnostics that differ, missing spans.
    """
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        reps = [
            _worker(workload, seed, 0, scratch / "untraced", deadline),
            _worker(workload, seed, 0, scratch / "traced", deadline, "--trace"),
        ]
        spans, records = reps[1]["spans"], reps[1]["records"]
        metrics = {name: {"value": fn(spans, records, reps), "unit": unit} for name, (unit, fn) in PER_LAYER.items()}
    else:
        setups = [
            _worker(workload, seed, i, scratch / f"setup-{i}", deadline, "--setup-only")["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        reps = []
        start = time.monotonic()
        # start another repetition only if it should end within the measuring time
        while not reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
            reps.append(_worker(workload, seed, len(reps), scratch / f"rep-{len(reps)}", deadline))
        setups += [rep["setup_s"] for rep in reps]
        ops = [op for rep in reps for op in rep["ops"]]
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
            "ok_frac": {"value": sum(not _failed(op) for op in ops) / len(ops), "unit": "fraction"},
        }
    problems = [f"wrong operation {op['name']}" for rep in reps for op in rep["ops"] if _wrong(op)]
    if trace:
        if reps[1]["diagnostics"] != reps[0]["diagnostics"]:
            problems.append("traced and untraced diagnostics differ")
        if reps[1]["missing_spans"]:
            problems.append(f"expected spans did not fire: {reps[1]['missing_spans']}")
    return reps, problems, metrics


def _report(workload, reps, problems, metrics):
    """Human-readable lines: operations, per-lambda rows, diagnostics, metrics."""
    for i, rep in enumerate(reps):
        for op in rep["ops"]:
            status = "failed" if _failed(op) else "ok"
            print(f"op {workload} rep={i} {op['name']} {status} flagged={op['flagged']} "
                  f"raised={op['raised']} check_ok={op['check_ok']} {json.dumps(op['detail'])}")
        for row in rep["rows"]:
            print(f"row {workload} rep={i} {json.dumps(row)}")
        print(f"diagnostics {workload} rep={i} {json.dumps(rep['diagnostics'], sort_keys=True)}")
    for problem in problems:
        print(f"problem {workload} {problem}")
    ops = [op for rep in reps for op in rep["ops"]]
    n_failed = sum(map(_failed, ops))
    if "run_s" in metrics:
        print(f"metric {workload} failed_frac {n_failed / len(ops)!r} fraction ({n_failed}/{len(ops)})")
    for name, m in metrics.items():
        print(f"metric {workload} {name} {m['value']!r} {m['unit']}")
    return len(ops), n_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfglab" / "__init__.py").is_file():
        print(f"bench: no mfglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".bench_out"
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: "1" for v in THREAD_VARS},
        "git_sha": _git_sha(),
    }
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        scratch = scratch_root / f"{workload}-{args.seed}-{os.getpid()}"
        try:
            reps, problems, metrics = run_workload(workload, args.seed, args.seconds, args.trace, scratch)
            if args.trace:
                spans_file = scratch_root / f"spans-{workload}-{args.seed}.json"
                shutil.move(str(scratch / "traced" / "spans.json"), spans_file)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"env {json.dumps({**env, **reps[0]['env'], 'workload': workload, 'seed': args.seed, 'reps': len(reps)})}")
        attempted, failed = _report(workload, reps, problems, metrics)
        results.append({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics})
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
