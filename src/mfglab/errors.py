"""Exception types shared across the solvers."""


class DimensionError(ValueError):
    """Coordinate dimensions of the arguments do not match."""


class GridError(ValueError):
    """Grid densities live on incompatible, non-resamplable grids."""


class StabilityError(RuntimeError):
    """A time step violated the stability bound of the scheme."""


class CflError(StabilityError):
    """Advective CFL condition violated: some cell's upwind outflow dt/dx exceeds 1, or is NaN."""


class DivergenceError(RuntimeError):
    """Particle trajectories left the admissible region (blow-up)."""


class BoundaryLeakError(RuntimeError):
    """Mass reached the boundary cells of the truncated domain."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""
