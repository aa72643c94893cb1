import numpy as np
import pytest
from hypothesis import settings

from mfglab import (
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    GridDensity,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
)

# property tests draw the same examples on every run and write no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def zero_ham():
    return QuadraticDriftHamiltonian(DriftField("zero"))


@pytest.fixture
def exp_kernel():
    return ExponentialKernel(alpha=1.0, a=1.0)


@pytest.fixture
def cs_flat():
    """Cucker-Smale kernel with g identically 1."""
    return CuckerSmaleKernel(alpha=1.0, beta=0.0)


@pytest.fixture
def gauss_m0():
    """Standard initial density on the default solver grid."""
    hw, n = 6.0, 256
    dx = 2.0 * hw / n
    return GridDensity.gaussian(0.0, 0.5, -hw, dx, n)


@pytest.fixture
def two_body_phase():
    """Two atoms at the origin with opposite unit velocities."""
    return ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
