"""The public surface of ``mfglab``: every name the package exports, sorted.

A name added to or removed from ``mfglab/__init__.py`` shows up here as a
one-line diff.  Submodules are left out: importing ``mfglab.cli`` (which
the package itself does not) binds ``cli`` on the package, so their
presence depends on what ran before.
"""

import types

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
    "cs_rhs",
    "diagnostics_bounds",
    "discrete_energy",
    "el_residual",
    "energy_gradient",
    "eval_coupling",
    "fp_forward",
    "grad_coupling",
    "hjb_backward",
    "limit_drift",
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
