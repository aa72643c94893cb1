import numpy as np
import pytest
import scipy
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


def _linear_algebra(module) -> str:
    """'name version' of the BLAS and LAPACK a numpy or scipy build links, as its config reports them."""
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except Exception:  # older builds print their config instead of returning it
        return "unknown"
    libs = {key: deps[key] for key in ("blas", "lapack") if key in deps}
    return ", ".join(f"{key} {lib.get('name')} {lib.get('version')}" for key, lib in libs.items())


def pytest_report_header(config):
    # the bit-for-bit goldens in data/golden.json were recorded with numpy 2.4.6 and scipy 1.17.1
    return [
        f"numpy {np.__version__} ({_linear_algebra(np)})",
        f"scipy {scipy.__version__} ({_linear_algebra(scipy)})",
    ]


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
