"""In-memory span tracing around calls into mfglab's public functions.

The wrappers live here, not in the package: ``Tracer.install`` swaps
every module binding of each traced function (``from .x import f``
makes one binding per importing module) and each traced method on its
class, and ``uninstall`` puts the originals back.  A span records its
name, start, end and the index of the span open when it started; its
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import mfglab
import mfglab.cli  # not imported by the package itself

# (span name, module, function)
FUNCTIONS = (
    ("mfg_pde.solve_mfg_fixed_point", "mfg_pde", "solve_mfg_fixed_point"),
    ("mfg_pde.hjb_backward", "mfg_pde", "hjb_backward"),
    ("mfg_pde.coupling_on_grid", "mfg_pde", "coupling_on_grid"),
    ("mfg_pde.fp_forward", "mfg_pde", "fp_forward"),
    ("mfg_pde.transport_step", "mfg_pde", "transport_step"),
    ("kernels.validate_coupling", "kernels", "validate_coupling"),
    ("measures.wasserstein1_1d", "measures", "wasserstein1_1d"),
    ("measures.wasserstein1_particles", "measures", "wasserstein1_particles"),
    ("aggregation.solve_aggregation_particles", "aggregation", "solve_aggregation_particles"),
    ("aggregation.solve_aggregation_fv", "aggregation", "solve_aggregation_fv"),
    ("cucker_smale.solve_cs", "cucker_smale", "solve_cs"),
    ("cucker_smale.richardson_order_ratio", "cucker_smale", "richardson_order_ratio"),
    ("acceleration.minimize_energy", "acceleration", "minimize_energy"),
    ("acceleration.discrete_energy", "acceleration", "discrete_energy"),
    ("acceleration.energy_gradient", "acceleration", "energy_gradient"),
    ("acceleration.el_residual", "acceleration", "el_residual"),
    ("hamiltonians.validate_hamiltonian", "hamiltonians", "validate_hamiltonian"),
    ("convergence.sweep", "convergence", "run_lambda_sweep_classic"),
    ("convergence.sweep", "convergence", "run_lambda_sweep_acceleration"),
    ("convergence.diagnostics_bounds", "convergence", "diagnostics_bounds"),
    ("config.parse_config", "config", "parse_config"),
    ("cli.main", "cli", "main"),
)

_RADIAL = ("ExponentialKernel", "RepulsiveAttractiveKernel", "MorseKernel", "CrowdRadialKernel", "ZeroKernel")
# (span name, class, method)
METHODS = (
    *(("kernels.value", cls, "value") for cls in _RADIAL + ("CuckerSmaleKernel",)),
    *(("kernels.gradient", cls, "gradient") for cls in _RADIAL),
    ("kernels.cs_g", "CuckerSmaleKernel", "g"),
    ("measures.GridDensity", "GridDensity", "__post_init__"),
)


def _steps(T, dt):
    return max(1, round(T / dt))


# span name -> (call arguments, result) -> small record kept for computed metrics
RECORDERS = {
    "mfg_pde.solve_mfg_fixed_point": lambda a, r: {"iterations": r.iterations},
    "aggregation.solve_aggregation_particles": lambda a, r: {
        "pair_evals": a["m0"].n ** 2 * 4 * _steps(a["T"], a["dt"])
    },
    "cucker_smale.solve_cs": lambda a, r: {"pair_evals": a["m0"].n ** 2 * 4 * _steps(a["T"], a["dt"])},
    # three integrations at n, 2n and 4n steps
    "cucker_smale.richardson_order_ratio": lambda a, r: {
        "pair_evals": a["m0"].n ** 2 * 4 * 7 * _steps(a["T"], a["dt"])
    },
    "acceleration.minimize_energy": lambda a, r: {
        "iterations": r.iterations,
        "pair_array_bytes": a["m0"].n ** 2 * (a["n_intervals"] + 1) * a["m0"].spatial_dim * 8,
    },
}


def _mfglab_modules():
    return [m for key, m in sys.modules.items() if key == "mfglab" or key.startswith("mfglab.")]


class Tracer:
    """Records spans while installed; aggregates them per name."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, time in direct children)
        self.records = {name: [] for name in RECORDERS}
        self._stack = []  # [span index, time in direct children so far]
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        recorder = RECORDERS.get(name)
        signature = inspect.signature(fn) if recorder else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                spans[index] = (name, start, end, stack[-1][0] if stack else -1, child)
                if stack:
                    stack[-1][1] += end - start
            if recorder:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.records[name].append(recorder(bound.arguments, result))
            return result

        return traced

    def install(self):
        modules = _mfglab_modules()
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules[f"mfglab.{mod}"], attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)
        for name, cls_name, attr in METHODS:
            cls = getattr(mfglab, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict:
        """name -> {calls, s (inclusive), self_s} over the recorded spans."""
        out = {}
        for name, start, end, _, child in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child
        return out

    def spans_table(self) -> dict:
        """Columnar copy of the spans, for writing out at the end of a run."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [ids[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
