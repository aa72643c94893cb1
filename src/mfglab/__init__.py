"""mfglab: discounted mean field games and their aggregation/flocking limits.

A small numerics lab for two model families:

1. the classic discounted MFG system (backward HJB + forward transport)
   whose large-discount limit is a nonlocal aggregation equation, and
2. the MFG of acceleration, whose large-discount limit is the kinetic
   Cucker-Smale alignment model.

The package provides solvers for all four models, Wasserstein-1
diagnostics, lambda-sweep drivers that measure the convergence, and a
config-driven CLI.
"""

from .acceleration import (
    EnergyBreakdown,
    MinimizeResult,
    TrajectoryEnsemble,
    discrete_energy,
    el_residual,
    energy_gradient,
    minimize_energy,
)
from .aggregation import limit_drift, solve_aggregation_fv, solve_aggregation_particles
from .config import ExperimentDescription, parse_config, write_config
from .convergence import (
    BoundsVerdict,
    ConvergenceReport,
    diagnostics_bounds,
    run_lambda_sweep_acceleration,
    run_lambda_sweep_classic,
)
from .cucker_smale import cs_rhs, richardson_order_ratio, solve_cs
from .errors import (
    BoundaryLeakError,
    CflError,
    ConfigError,
    DimensionError,
    DivergenceError,
    GridError,
    StabilityError,
)
from .hamiltonians import (
    DriftField,
    QuadraticDriftHamiltonian,
    validate_hamiltonian,
)
from .kernels import (
    CrowdRadialKernel,
    CuckerSmaleKernel,
    ExponentialKernel,
    MorseKernel,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    eval_coupling,
    grad_coupling,
    psd_check,
    validate_coupling,
)
from .measures import (
    GridDensity,
    MeasurePath,
    ParticleEnsemble,
    moment2,
    wasserstein1_1d,
    wasserstein1_particles,
)
from .mfg_pde import (
    MfgSolution,
    PdeConfig,
    fp_forward,
    hjb_backward,
    solve_mfg_fixed_point,
)

__version__ = "0.1.0"
