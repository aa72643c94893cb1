"""One workload repetition in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --rep I --out DIR --spawn-ns T [--setup-only] [--trace]

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start, ``import
mfglab`` and input generation, up to the first solver call.  The last
stdout line is one JSON object with the timings, the operations, the
diagnostics and, with ``--trace``, the per-span summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mfglab  # noqa: E402  (after the path set-up; part of the measured set-up)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import EXPECTED_SPANS, WORKLOADS  # noqa: E402


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mfglab": mfglab.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.rep, out_dir)
    workload.prepare()
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        outputs = workload.solve()
    finally:
        run_s = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    ops, diagnostics = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "diagnostics": diagnostics,
        "rows": _row_timings(outputs),
        "env": _environment(),
    }
    if tracer:
        result["spans"] = tracer.summary()
        result["records"] = tracer.records
        result["missing_spans"] = sorted(set(EXPECTED_SPANS[args.workload]) - set(result["spans"]))
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans_table()))
    print(json.dumps(result, default=float))


def _row_timings(outputs) -> list:
    report = outputs.get("report") if isinstance(outputs, dict) else None
    if not report:
        return []
    keys = ("wall_clock_s", "n_intervals", "iterations", "flagged")
    return [{"lambda": lam, **{k: row[k] for k in keys if k in row}} for lam, row in zip(report["lambdas"], report["rows"])]


if __name__ == "__main__":
    main()
