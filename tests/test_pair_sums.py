"""Dense per-atom Python-loop oracles for the particle pair sums.

Every particle-side k*m and Dk*m goes through ``kernels._pair_sum`` and
the Cucker-Smale alignment through ``kernels._cs_pair_sum``.  The
loops below recompute each sum one atom pair at a time from the radial
profile phi (or from g for Cucker-Smale) and bound the difference by
1e-13 times the sum of the absolute terms.  Radial pair sums act on the
line, (nq,) queries against (N,) atoms: the ``d = 1`` cases match the
loops, and query points with ``d = 2`` coordinates must raise
DimensionError (atoms cannot be built off the line; test_measures checks
that).  ``d_vector_dense_pair_sum`` keeps the dense body the radial sums
had while they took d-vectors, as the oracle of the dense body that
replaced it and of the golden values recorded with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab import kernels
from mfglab import (
    CrowdRadialKernel,
    CuckerSmaleKernel,
    DimensionError,
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
    psd_check,
    solve_aggregation_particles,
)

RADIAL = {
    "exponential": ExponentialKernel(1.0, 1.0),
    "repulsive_attractive": RepulsiveAttractiveKernel(1.0),
    "morse": MorseKernel(0.5, 2.0),
    "crowd": CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0])),
    "zero": ZeroKernel(),
}
TOL = 1e-13


def ensemble(n=30, seed=0):
    rng = np.random.default_rng(seed + 1)
    w = rng.uniform(0.2, 1.0, n)
    return ParticleEnsemble(rng.uniform(-2.0, 2.0, n), w / w.sum(), 1)


def queries(m):
    """Random points plus one query exactly on an atom (the Dk(0) = 0 kink), (7,)."""
    rng = np.random.default_rng(99)
    return np.append(rng.uniform(-3.0, 3.0, 6), m.positions[4])


def oracle(kernel, x, m):
    """F(x), D_xF(x) and the sums of the absolute terms of each, pair by pair."""
    f = f_scale = g = g_scale = 0.0
    for p, wj in zip(m.positions[:, 0].tolist(), m.weights):
        r = abs(x - p)
        term = wj * float(kernel.phi(r))
        f += term
        f_scale += abs(term)
        if r > 0:
            term = wj * float(kernel.dphi(r)) * math.copysign(1.0, x - p)
            g += term
            g_scale += abs(term)
    return f, f_scale, g, g_scale


OFF_THE_LINE = r"takes points on the line, a scalar, \(n,\) or \(n, 1\), not \(\d+, 2\)"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_and_grad_coupling_match_loop(name, d):
    """d is the number of coordinates of a query point."""
    kernel, m = RADIAL[name], ensemble()
    if d == 2:
        for call in (eval_coupling, grad_coupling):
            with pytest.raises(DimensionError, match=OFF_THE_LINE):
                call(kernel, np.array([[0.3, -0.4]]), m)
        return
    for x in queries(m):
        f, f_scale, g, g_scale = oracle(kernel, x, m)
        assert abs(eval_coupling(kernel, x, m) - f) <= TOL * f_scale
        assert abs(grad_coupling(kernel, x, m) - g) <= TOL * g_scale


@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_coupling_scalar_query_1d(name):
    kernel, m = RADIAL[name], ensemble()
    f, f_scale, _, _ = oracle(kernel, 0.7, m)
    assert abs(eval_coupling(kernel, 0.7, m) - f) <= TOL * f_scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_limit_drift_matches_loop(name, d):
    """d is the number of coordinates of a query point."""
    kernel, m = RADIAL[name], ensemble()
    ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
    xq = queries(m)
    if d == 2:
        with pytest.raises(DimensionError, match=OFF_THE_LINE):
            limit_drift(ham, kernel, np.column_stack([xq, xq]), m)
        return
    got = limit_drift(ham, kernel, xq, m)
    assert got.shape == xq.shape
    for x, row in zip(xq, got):
        _, _, g, g_scale = oracle(kernel, x, m)
        assert abs(row - (ham.drift(x) - g)) <= TOL * g_scale


def test_points_off_the_line_raise():
    """Two coordinates per point never reach a radial sum: on the line they make (x, v)
    atoms, which the particle solver rejects, and psd_check rejects them as points."""
    kernel = RADIAL["morse"]
    m = ParticleEnsemble.equal_weights(np.random.default_rng(3).uniform(-2.0, 2.0, (30, 2)), 1)
    ham = QuadraticDriftHamiltonian(DriftField("zero"))
    with pytest.raises(DimensionError, match="position-space ensemble expected"):
        solve_aggregation_particles(ham, kernel, m, 1.0, 0.1)
    with pytest.raises(DimensionError, match=OFF_THE_LINE):
        psd_check(kernel, points=m.points)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_rhs_matches_loop(beta):
    kernel = CuckerSmaleKernel(0.7, beta)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.2, 1.0, 20)
    m = ParticleEnsemble(rng.standard_normal((20, 2)), w / w.sum(), 1)
    got = cs_rhs(m, kernel)
    assert got.shape == (20,)
    x, v = m.points.T.tolist()
    for i in range(m.n):
        acc = scale = 0.0
        for j in range(m.n):
            g = (kernel.alpha + (x[i] - x[j]) ** 2) ** beta
            term = -m.weights[j] * 2.0 * (v[i] - v[j]) / g
            acc += term
            scale += abs(term)
        assert abs(got[i] - acc) <= TOL * scale


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_coupling_matches_old_sums(beta, draw):
    """The single-query Cucker-Smale coupling goes through kernels._cs_pair_sum; it stays
    within 1e-15 of the np.sum over the pointwise k, D_x k and D_v k it replaced,
    relative to the sum of the absolute terms (for the value, the value itself),
    on two random ensembles on the line."""
    kernel = CuckerSmaleKernel(0.7, beta)
    rng = np.random.default_rng(8 + draw)
    w = rng.uniform(0.2, 1.0, 24)
    m = ParticleEnsemble(rng.standard_normal((24, 2)), w / w.sum(), 1)
    pos, vel = m.points.T
    for x, v in rng.standard_normal((5, 2)):
        dx, dv = x - pos, v - vel
        g = (kernel.alpha + dx**2) ** beta
        coef = -(dv**2) * 2.0 * beta * (kernel.alpha + dx**2) ** (-beta - 1.0)
        terms = (m.weights * (dv**2 / g), m.weights * (coef * dx), m.weights * (2.0 * dv / g))
        got = (eval_coupling(kernel, x, m, v), *grad_coupling(kernel, x, m, v))
        for new, old in zip(got, terms):
            assert type(new) is float
            assert abs(new - np.sum(old)) <= 1e-15 * np.sum(np.abs(old))


def d_vector_dense_pair_sum(kernel, xq, pos, w, gradient):
    """The dense radial pair sum as it was for d-vectors, wrapped for (nq,) queries and (N,) atoms.

    Offsets are (nq, N, 1) vectors; a gradient term is phi'(r) / r * x,
    or phi'(r) sign(x) below sqrt(tiny) where 1 / r could overflow, and
    the terms are contracted with einsum.  The golden particle values were
    recorded with it, bit for bit.
    """
    diffs = xq[:, None, None] - pos[None, :, None]
    r = np.abs(diffs[..., 0])
    if not gradient:
        return np.sum(w * kernel.phi(r), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(
            r < np.sqrt(np.finfo(float).tiny),
            kernel.dphi(r) * np.sign(diffs[..., 0]),
            kernel.dphi(r) / r * diffs[..., 0],
        )
    return np.einsum("j,ijd->id", w, terms[..., None])[:, 0]


# -- the sorted 1D path (kernels._sorted_pair_sum) against the dense body --

SORTED = {
    "exponential": ExponentialKernel(1.5, 0.8),
    "morse": MorseKernel(0.5, 2.0),
    "morse_long_range": MorseKernel(0.3, 5.0),
}


@st.composite
def sorted_cases(draw):
    """Unsorted atoms with unequal weights, often coincident (drawn from a small
    pool), sometimes one atom or a far cluster; queries on atoms or near them."""
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
    pos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    if draw(st.booleans()):
        # a second cluster: a * (max - min) >= 1500 for the fastest rate of each
        # kernel here, past where one shift e^{a (p - c)} overflows (about 1420)
        gap = draw(st.floats(3100.0, 1e6))
        pos += [gap + p for p in draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=10))]
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=len(pos), max_size=len(pos)))
    on_atoms = draw(st.lists(st.sampled_from(pos), max_size=5))
    offsets = st.floats(-5.0, 5.0)
    near = [p + off for p, off in draw(st.lists(st.tuples(st.sampled_from(pos), offsets), max_size=8))]
    xq = on_atoms + near or pos
    return np.array(pos), np.array(w), np.array(xq)


def exp_term_scales(kernel, xq, pos, w):
    """Per query, the sums of |c_k w_j e^{-a_k r}| and of |a_k c_k w_j e^{-a_k r}| (r > 0)
    over atoms and exponential terms, the numbers both paths add up.

    Each term is weighted by 1 + a_k r: its argument a_k r is rounded in
    both paths, which moves e^{-a_k r} by up to a_k r ulps.  The weight
    matters only for a query whose nearest atoms are far away.
    """
    r = np.abs(xq[:, None] - pos)
    value = np.zeros(len(xq))
    grad = np.zeros(len(xq))
    for c, a in kernel._exp_terms:
        t = w * np.abs(c) * np.exp(-a * r) * (1.0 + a * r)
        value += t.sum(axis=1)
        grad += a * np.where(r > 0, t, 0.0).sum(axis=1)
    return value, grad


@pytest.mark.parametrize("name", list(SORTED))
@given(case=sorted_cases())
def test_sorted_matches_dense(name, case):
    kernel, (pos, w, xq) = SORTED[name], case
    value_scale, grad_scale = exp_term_scales(kernel, xq, pos, w)
    value = kernels._sorted_pair_sum(kernel._exp_terms, xq, pos, w, False)
    grad = kernels._sorted_pair_sum(kernel._exp_terms, xq, pos, w, True)
    assert value.shape == grad.shape == (len(xq),)
    assert np.all(np.abs(value - kernels._dense_pair_sum(kernel, xq, pos, w, False)) <= TOL * value_scale)
    assert np.all(np.abs(grad - kernels._dense_pair_sum(kernel, xq, pos, w, True)) <= TOL * grad_scale)


@pytest.mark.parametrize("name", list(SORTED))
@given(case=sorted_cases())
def test_dense_matches_d_vector_oracle(name, case):
    """The (nq, N) dense body sums the same terms as the d-vector one: values bit for bit,
    gradients phi'(r) sign(x) against phi'(r) / r * x within 1e-13 of the sum of |terms|."""
    kernel, (pos, w, xq) = SORTED[name], case
    value = kernels._dense_pair_sum(kernel, xq, pos, w, False)
    assert np.array_equal(value, d_vector_dense_pair_sum(kernel, xq, pos, w, False))
    grad = kernels._dense_pair_sum(kernel, xq, pos, w, True)
    scale = np.sum(np.abs(w * kernel.gradient(xq[:, None] - pos)), axis=-1)
    assert grad.shape == (len(xq),)
    assert np.all(np.abs(grad - d_vector_dense_pair_sum(kernel, xq, pos, w, True)) <= TOL * scale)


@pytest.mark.parametrize("name", ["exponential", "morse"])
def test_sorted_path_through_public_functions(name, monkeypatch):
    monkeypatch.setattr(kernels, "_SORTED_MIN_ATOMS", 1)
    kernel, m = RADIAL[name], ensemble()
    ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
    xq = queries(m)
    drift = limit_drift(ham, kernel, xq, m)
    for x, row in zip(xq, drift):
        f, f_scale, g, g_scale = oracle(kernel, x, m)
        assert abs(eval_coupling(kernel, x, m) - f) <= TOL * f_scale
        assert abs(grad_coupling(kernel, x, m) - g) <= TOL * g_scale
        assert abs(row - (ham.drift(x) - g)) <= TOL * g_scale


def test_dense_gradient_at_subnormal_offset_1d():
    """An atom at 0 and a query at 2.2e-313: dphi(|x|) sign(x) is exact where dphi(r) / r would overflow."""
    kernel = ExponentialKernel(1.0, 1.0)
    xq, pos, w = np.array([2.2e-313, -2.2e-313]), np.zeros(1), np.ones(1)
    dense = kernels._dense_pair_sum(kernel, xq, pos, w, True)
    assert np.array_equal(dense, [-1.0, 1.0])
    assert np.array_equal(dense, kernels._sorted_pair_sum(kernel._exp_terms, xq, pos, w, True))


def test_path_selection(monkeypatch):
    """Sorted under exponential sums from _SORTED_MIN_ATOMS atoms and queries on, dense otherwise."""
    calls = []
    dense = kernels._dense_pair_sum
    monkeypatch.setattr(kernels, "_dense_pair_sum", lambda *args: calls.append(args[0]) or dense(*args))
    n = kernels._SORTED_MIN_ATOMS
    w = np.full(n, 1.0 / n)
    for kernel in (RADIAL["exponential"], RADIAL["morse"]):
        kernels._pair_sum(kernel, np.zeros(n), np.linspace(0.0, 1.0, n), w)
    assert calls == []
    kernels._pair_sum(RADIAL["morse"], np.zeros(n), np.zeros(n - 1), np.full(n - 1, 1.0 / (n - 1)))
    kernels._pair_sum(RADIAL["morse"], np.zeros(n - 1), np.zeros(n), w)
    kernels._pair_sum(RADIAL["repulsive_attractive"], np.zeros(n), np.zeros(n), w)
    assert calls == [RADIAL["morse"]] * 2 + [RADIAL["repulsive_attractive"]]


class _CountingKernel:
    """Forwards to a radial kernel and records the query rows of every offset array it sees."""

    def __init__(self, kernel):
        self.kernel, self.rows = kernel, []

    def value(self, x):
        self.rows.append(len(x))
        return self.kernel.value(x)

    def gradient(self, x):
        self.rows.append(len(x))
        return self.kernel.gradient(x)


@pytest.mark.parametrize("d", [1])
@pytest.mark.parametrize("gradient", [False, True], ids=["k", "Dk"])
def test_dense_chunks_bit_identical(monkeypatch, rng, d, gradient):
    """Chunked over the queries, every query's sum is computed as before, bit for bit."""
    xq, pos, w = rng.standard_normal((37, d)).ravel(), rng.standard_normal((50, d)).ravel(), rng.uniform(0.5, 1.5, 50)
    kernel = _CountingKernel(RADIAL["repulsive_attractive"])
    whole = kernels._dense_pair_sum(kernel, xq, pos, w, gradient)
    monkeypatch.setattr(kernels, "_DENSE_PAIR_BYTES", 3 * pos.nbytes)  # three queries a chunk
    chunked = kernels._dense_pair_sum(kernel, xq, pos, w, gradient)
    assert kernel.rows == [37] + [3] * 12 + [1]
    assert np.array_equal(chunked, whole)
