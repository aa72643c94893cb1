"""Dense per-atom Python-loop oracles for the particle pair sums.

Every particle-side k*m and Dk*m goes through ``kernels._pair_sum`` and
the Cucker-Smale alignment through ``cucker_smale._rhs_arrays``.  The
loops below recompute each sum one atom pair at a time from the radial
profile phi (or from g for Cucker-Smale) and bound the difference by
1e-13 times the sum of the absolute terms.
"""

import math

import numpy as np
import pytest

from mfglab import (
    CrowdRadialKernel,
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    RepulsiveAttractiveKernel,
    ZeroKernel,
    cs_rhs,
    eval_coupling,
    grad_coupling,
    limit_drift,
)

RADIAL = {
    "exponential": ExponentialKernel(1.0, 1.0),
    "repulsive_attractive": RepulsiveAttractiveKernel(1.0),
    "morse": MorseKernel(0.5, 2.0),
    "crowd": CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0])),
    "zero": ZeroKernel(),
}
TOL = 1e-13


def ensemble(d, n=30, seed=0):
    rng = np.random.default_rng(seed + d)
    w = rng.uniform(0.2, 1.0, n)
    return ParticleEnsemble(rng.uniform(-2.0, 2.0, (n, d)), w / w.sum(), d)


def queries(m):
    """Random points plus one query exactly on an atom (the Dk(0) = 0 kink)."""
    rng = np.random.default_rng(99)
    return np.vstack([rng.uniform(-3.0, 3.0, (6, m.spatial_dim)), m.positions[4]])


def oracle(kernel, x, m):
    """F(x), D_xF(x) and the sums of the absolute terms of each, pair by pair."""
    f = f_scale = 0.0
    g = np.zeros(m.spatial_dim)
    g_scale = np.zeros(m.spatial_dim)
    for p, wj in zip(m.positions, m.weights):
        diff = [xi - pi for xi, pi in zip(x, p)]
        r = math.sqrt(sum(c * c for c in diff))
        term = wj * float(kernel.phi(r))
        f += term
        f_scale += abs(term)
        if r > 0:
            for k in range(m.spatial_dim):
                term = wj * float(kernel.dphi(r)) * diff[k] / r
                g[k] += term
                g_scale[k] += abs(term)
    return f, f_scale, g, g_scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_and_grad_coupling_match_loop(name, d):
    kernel, m = RADIAL[name], ensemble(d)
    for x in queries(m):
        f, f_scale, g, g_scale = oracle(kernel, x, m)
        assert abs(eval_coupling(kernel, x, m) - f) <= TOL * f_scale
        assert np.all(np.abs(grad_coupling(kernel, x, m) - g) <= TOL * g_scale)


@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_coupling_scalar_query_1d(name):
    kernel, m = RADIAL[name], ensemble(1)
    f, f_scale, _, _ = oracle(kernel, [0.7], m)
    assert abs(eval_coupling(kernel, 0.7, m) - f) <= TOL * f_scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_limit_drift_matches_loop(name, d):
    kernel, m = RADIAL[name], ensemble(d)
    ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
    xq = queries(m)
    got = limit_drift(ham, kernel, xq, m)
    assert got.shape == xq.shape
    for x, row in zip(xq, got):
        _, _, g, g_scale = oracle(kernel, x, m)
        assert np.all(np.abs(row - (ham.drift(x) - g)) <= TOL * g_scale)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_rhs_matches_loop(beta):
    kernel = CuckerSmaleKernel(0.7, beta)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.2, 1.0, 20)
    m = ParticleEnsemble(rng.standard_normal((20, 4)), w / w.sum(), 2)
    got = cs_rhs(m, kernel)
    for i in range(m.n):
        acc = np.zeros(2)
        scale = np.zeros(2)
        for j in range(m.n):
            dx = m.positions[i] - m.positions[j]
            g = (kernel.alpha + float(dx @ dx)) ** beta
            term = -m.weights[j] * 2.0 * (m.velocities[i] - m.velocities[j]) / g
            acc += term
            scale += np.abs(term)
        assert np.all(np.abs(got[i] - acc) <= TOL * scale)
