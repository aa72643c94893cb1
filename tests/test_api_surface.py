"""The public surface of ``mfglab``: every name the package exports, sorted.

A name added to or removed from ``mfglab/__init__.py`` shows up here as a
one-line diff.  Submodules are left out: importing ``mfglab.cli`` (which
the package itself does not) binds ``cli`` on the package, so their
presence depends on what ran before.

The import budget: what ``import mfglab`` loads, checked in a fresh
interpreter, since this one has loaded whatever the other tests needed.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import mfglab

PUBLIC_NAMES = [
    "BoundaryLeakError",
    "BoundsVerdict",
    "CflError",
    "ConfigError",
    "ConvergenceReport",
    "CrowdRadialKernel",
    "CuckerSmaleKernel",
    "DimensionError",
    "DivergenceError",
    "DriftField",
    "EnergyBreakdown",
    "ExperimentDescription",
    "ExponentialKernel",
    "GridDensity",
    "GridError",
    "MeasurePath",
    "MfgSolution",
    "MinimizeResult",
    "MorseKernel",
    "ParticleEnsemble",
    "PdeConfig",
    "QuadraticDriftHamiltonian",
    "RepulsiveAttractiveKernel",
    "StabilityError",
    "TrajectoryEnsemble",
    "ZeroKernel",
    "diagnostics_bounds",
    "discrete_energy",
    "el_residual",
    "energy_gradient",
    "fp_forward",
    "hjb_backward",
    "minimize_energy",
    "moment2",
    "parse_config",
    "psd_check",
    "richardson_order_ratio",
    "run_lambda_sweep_acceleration",
    "run_lambda_sweep_classic",
    "solve_aggregation_fv",
    "solve_aggregation_particles",
    "solve_cs",
    "solve_mfg_fixed_point",
    "validate_coupling",
    "validate_hamiltonian",
    "wasserstein1_1d",
    "wasserstein1_particles",
    "write_config",
]


def test_public_names_pinned():
    exported = sorted(
        name
        for name, value in vars(mfglab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


#: scipy subpackages that importing the package and its command line must not load
UNLOADED = ("scipy.optimize", "scipy.interpolate", "scipy.special")


def _loaded_after(code: str) -> set:
    """The UNLOADED modules in sys.modules after running code in a fresh interpreter on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(mfglab.__file__).parents[1])}
    probe = f"import sys\n{code}\nprint(' '.join(m for m in {UNLOADED!r} if m in sys.modules))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_import_budget():
    """import mfglab, mfglab.cli loads numpy, scipy.linalg and scipy.sparse only;
    scipy.interpolate (and with it scipy.optimize and scipy.special) loads once a CrowdRadialKernel is built."""
    assert _loaded_after("import mfglab, mfglab.cli") == set()
    crowd = "import numpy as np, mfglab\nmfglab.CrowdRadialKernel(np.linspace(0, 1, 5), np.linspace(1, 0, 5))"
    assert "scipy.interpolate" in _loaded_after(crowd)
