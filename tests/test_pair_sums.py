"""Dense per-atom Python-loop oracles for the particle pair sums.

Every particle-side k*m and Dk*m of query points goes through
``kernels._dense_pair_sum`` (a flock with itself through
``kernels._self_pair_sum``, sorted or dense by kernel), the Cucker-Smale
alignment acceleration through ``kernels._cs_alignment``
(the block-upper staircase of one weight matrix) and the other Cucker-Smale pair sums
through ``kernels._cs_pair_pass`` (each pair once, on pair differences,
in chunks of time nodes).  The loops below recompute each sum one
atom pair at a time from the radial profile phi (or from g for
Cucker-Smale) and bound the difference by 1e-13 times the sum of the
absolute terms.  Radial pair sums act on the
line, (nq,) queries against (N,) atoms: the ``d = 1`` cases match the
loops, and points with ``d = 2`` coordinates are (x, v) atoms, which the
particle solver refuses under every radial kernel (atoms cannot be built
off the line; test_measures checks that).  ``d_vector_dense_pair_sum`` keeps the dense body the radial sums
had while they took d-vectors, as the oracle of the dense body that
replaced it and of the golden values recorded with it;
``dense_cs_pair_sum`` keeps the Cucker-Smale pair sum over whole
(nq, N, ...) offset arrays that the pass replaced, and
``pair_sum_cs_alignment`` the alignment acceleration as it gave it:
they are the oracles of the Cucker-Smale and acceleration golden values.
``matrix_cs_alignment`` keeps the full-matrix alignment the staircase
replaced, the oracle of the one-block staircase, bit for bit.  Every
dense offset array now comes from one rank-2 product
(``kernels._outer_offsets``); the offset tests pin it to the subtraction
bit for bit, and ``subtract_cs_alignment`` builds the same staircase with
its offsets from ``np.subtract.outer``, the oracle of ``solve_cs``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab import cucker_smale, kernels
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
    richardson_order_ratio,
    solve_aggregation_particles,
    solve_cs,
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


def dense_sums(kernel, xq, m):
    """k*m and Dk*m at the queries xq (nq,) through the dense body, as the particle side sums them."""
    pos, w = m.positions[:, 0], m.weights
    return (kernels._dense_pair_sum(kernel, xq, pos, w, False), kernels._dense_pair_sum(kernel, xq, pos, w, True))


def assert_off_the_line_refused(kernel):
    """Two coordinates per point make (x, v) atoms, which no radial sum takes: the particle solver refuses them."""
    m = ParticleEnsemble.equal_weights(np.random.default_rng(3).uniform(-2.0, 2.0, (30, 2)), 1)
    with pytest.raises(DimensionError, match="position-space ensemble expected"):
        solve_aggregation_particles(QuadraticDriftHamiltonian(DriftField("zero")), kernel, m, 1.0, 0.1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_and_grad_coupling_match_loop(name, d):
    """F = k*m and D_xF = Dk*m at query points against the loop; d is the number of coordinates of a point."""
    kernel, m = RADIAL[name], ensemble()
    if d == 2:
        assert_off_the_line_refused(kernel)
        return
    xq = queries(m)
    for x, f_got, g_got in zip(xq, *dense_sums(kernel, xq, m)):
        f, f_scale, g, g_scale = oracle(kernel, x, m)
        assert abs(f_got - f) <= TOL * f_scale
        assert abs(g_got - g) <= TOL * g_scale


@pytest.mark.parametrize("name", list(RADIAL))
def test_eval_coupling_scalar_query_1d(name):
    """One query, a (1,) array: its lone row sums as the loop does."""
    kernel, m = RADIAL[name], ensemble()
    f, f_scale, _, _ = oracle(kernel, 0.7, m)
    assert abs(dense_sums(kernel, np.array([0.7]), m)[0].item() - f) <= TOL * f_scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(RADIAL))
def test_limit_drift_matches_loop(name, d):
    """The drift of the limit equation at the atoms, b = v - Dk*m with the self sum the particle solver
    takes (``_self_pair_sum``), against the loop; d is the number of coordinates of an atom."""
    kernel, m = RADIAL[name], ensemble()
    if d == 2:
        assert_off_the_line_refused(kernel)
        return
    ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
    pos = m.positions[:, 0]
    got = ham.drift(pos) - kernels._self_pair_sum(kernel, m.weights, gradient=True)(pos)
    assert got.shape == pos.shape
    for x, row in zip(pos, got):
        _, _, g, g_scale = oracle(kernel, x, m)
        assert abs(row - (ham.drift(x) - g)) <= TOL * g_scale


def test_points_off_the_line_raise():
    """Two coordinates per point never reach a radial sum: on the line they make (x, v)
    atoms, which the particle solver rejects."""
    assert_off_the_line_refused(RADIAL["morse"])


def flock(n, seed=5, shift=0.0):
    """n (x, v) atoms with unequal weights, every velocity shifted by shift."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return ParticleEnsemble(rng.standard_normal((n, 2)) + [0.0, shift], w / w.sum(), 1)


def cs_loop(kernel, m):
    """Alignment accelerations -sum_j w_j 2 (v_i - v_j) / g(x_i - x_j) and the sums of their
    absolute terms, pair by pair."""
    x, v = m.points.T.tolist()
    acc, scale = np.zeros(m.n), np.zeros(m.n)
    for i in range(m.n):
        for j in range(m.n):
            g = (kernel.alpha + (x[i] - x[j]) ** 2) ** kernel.beta
            term = -m.weights[j] * 2.0 * (v[i] - v[j]) / g
            acc[i] += term
            scale[i] += abs(term)
    return acc, scale


def cs_rhs(m, kernel):
    """The alignment accelerations the RK4 right-hand side of solve_cs gives at the flock m's states."""
    return cucker_smale._phase_rhs(m, kernel)(m.points)[:, 1]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_rhs_matches_loop(beta):
    kernel, m = CuckerSmaleKernel(0.7, beta), flock(20)
    got = cs_rhs(m, kernel)
    assert got.shape == (20,)
    acc, scale = cs_loop(kernel, m)
    assert np.all(np.abs(got - acc) <= TOL * scale)


@pytest.mark.parametrize("shift", [1e3, 1e6])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_rhs_galilean(beta, shift):
    """Velocities far from zero: the matrix form sums on velocities centred on their weighted
    mean, so a common shift costs no digits against the loop (uncentred it lost
    |mean v| / spread of them, 3e-10 of the scale at 1e6)."""
    kernel, m = CuckerSmaleKernel(0.7, beta), flock(40, shift=shift)
    acc, scale = cs_loop(kernel, m)
    assert np.all(np.abs(cs_rhs(m, kernel) - acc) <= TOL * scale)


def dense_cs_pair_sum(kernel, xq, vq, x, v, w, wq=None, grad_x=False, grad_v=False):
    """Cucker-Smale pair sums between query states xq, vq (nq, ...) and atoms x, v (N, ...) on the
    line, as ``kernels._cs_pair_sum`` gave them over whole (nq, N, ...) offset arrays.

    Returns, in this order and only those asked for: sum_pq wq_p w_q k (over the middle axes)
    when query weights wq are given, and sum_q w_q D_x k and sum_q w_q D_v k at every query.
    k = v^2 / g, D_x k = -v^2 2 beta (alpha + x^2)^(-beta-1) x and D_v k = 2 v / g round as
    their pointwise forms do.  The golden acceleration values were recorded with it, bit for bit.
    """
    kernels._check_pair_cap(xq.shape[0] * x.nbytes)
    dx, dv = xq[:, None] - x[None, :], vq[:, None] - v[None, :]
    g = kernel.g(dx)
    out = []
    if wq is not None or grad_x:
        vv = dv**2
    if wq is not None:
        out.append(np.einsum("p,q,pq...->...", wq, w, vv / g))
    if grad_v:
        dv *= 2.0
        dv /= g
        gv = np.einsum("q,pq...->p...", w, dv)
    del dv, g
    if grad_x:
        q = dx**2
        q += kernel.alpha
        q **= -kernel.beta - 1.0
        # -v^2 * 2 * beta * q, multiplied left to right in the buffer of v^2
        np.negative(vv, out=vv)
        vv *= 2.0
        vv *= kernel.beta
        vv *= q
        del q
        dx *= vv
        del vv
        out.append(np.einsum("q,pq...->p...", w, dx))
    if grad_v:
        out.append(gv)
    return out


def dense_cs_pair_pass(kernel, x, v, w, pairs=None):
    """``dense_cs_pair_sum`` of a flock with itself behind the interface of
    ``kernels._cs_pair_pass``, to patch in for it on the oracle path of the goldens; it sums
    over whole (N, N, nodes) offset arrays, so it reads no pair table."""
    return tuple(dense_cs_pair_sum(kernel, x, v, x, v, w, w, grad_x=True, grad_v=True))


def dense_cs_pair_energy(kernel, x, v, w):
    """The energy of ``dense_cs_pair_sum`` behind the interface of ``kernels._cs_pair_energy``:
    the discrete energy summed over whole (N, N, nodes) offset arrays, as it was recorded."""
    (energy,) = dense_cs_pair_sum(kernel, x, v, x, v, w, w)
    return energy


def pair_sum_cs_alignment(kernel, w):
    """The alignment acceleration as the RK4 right-hand side took it before the matrix form,
    behind the interface of ``kernels._cs_alignment``: -D_vF from
    ``dense_cs_pair_sum(grad_v=True)`` over the (N, N) offsets, written into out.  The golden
    Cucker-Smale values were recorded with it, bit for bit."""

    def acc(pos, vel, out):
        (dv_f,) = dense_cs_pair_sum(kernel, pos, vel, pos, vel, w, grad_v=True)
        return np.negative(dv_f, out=out)

    return acc


def matrix_cs_alignment(kernel, w):
    """``kernels._cs_alignment`` as it formed the full (N, N) weight matrix A = 1 / g and one product
    A @ [w | w u], before the block staircase: the oracle of the one-block staircase, bit for bit."""
    n = len(w)
    offsets, operand = np.empty((n, n)), np.column_stack([w, w])

    def acc(pos, vel, out):
        a = kernel.g(kernels._outer_offsets(pos, pos, offsets))
        np.reciprocal(a, out=a)
        u = vel - w @ vel
        np.multiply(w, u, out=operand[:, 1])
        s = a @ operand
        np.subtract(s[:, 1], np.multiply(u, s[:, 0], out=out), out=out)
        out *= 2.0
        return out

    return acc


def edge_flock(n, seed):
    """``flock`` with the atoms on either side of each block edge of the staircase coincident:
    the last atom of a block takes the position and velocity of the first atom of the next."""
    m = flock(n, seed=seed)
    pos, vel = m.points.T.copy()
    for lo, _ in kernels._cs_staircase(n)[1:]:
        pos[lo - 1], vel[lo - 1] = pos[lo], vel[lo]
    return pos, vel, m.weights


#: flock sizes about the block edges of the staircase: one block up to 143 atoms, two from 144
#: (95 + 96 rows at 191, 96 + 97 at 193), four at 384
STAIRCASE_SIZES = [2, 24, 95, 96, 143, 144, 191, 192, 193, 384]


def test_staircase_blocks():
    """The block count follows from N alone: rows of about 96, one block below 144 atoms."""
    assert [len(kernels._cs_staircase(n)) for n in STAIRCASE_SIZES] == [1, 1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert kernels._cs_staircase(191) == [(0, 95), (95, 191)]
    assert kernels._cs_staircase(193) == [(0, 96), (96, 193)]
    for n in STAIRCASE_SIZES:
        spans = kernels._cs_staircase(n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("n", STAIRCASE_SIZES)
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_alignment_matches_pair_sum(beta, n):
    """The staircase against the dense pair sum, on unequal weights, with coincident atoms across
    every block edge, whichever side of the diagonal a pair's weight is formed on."""
    kernel = CuckerSmaleKernel(0.7, beta)
    pos, vel, w = edge_flock(n, seed=n)
    old = pair_sum_cs_alignment(kernel, w)(pos, vel, np.empty(n))
    scale = np.sum(np.abs(w * 2.0 * (vel[:, None] - vel) / kernel.g(pos[:, None] - pos)), axis=1)
    assert np.all(np.abs(kernels._cs_alignment(kernel, w)(pos, vel, np.empty(n)) - old) <= TOL * scale)


@pytest.mark.parametrize("n", [n for n in STAIRCASE_SIZES if n < 144])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_one_block_is_the_full_matrix(beta, n):
    """With one block the staircase is the full matrix and its one product, bit for bit, call after call."""
    kernel = CuckerSmaleKernel(0.7, beta)
    pos, vel, w = edge_flock(n, seed=n)
    new, old = kernels._cs_alignment(kernel, w), matrix_cs_alignment(kernel, w)
    for shift in (0.0, 0.25):
        assert same_bits(new(pos + shift, vel, np.empty(n)), old(pos + shift, vel, np.empty(n)))


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_coupling_matches_old_sums(beta, draw):
    """The coupling F(x_p, v_p, m) of a flock at its own atoms, through the flock's pair pass
    (kernels._cs_pair_pass, each pair once): sum_p w_p F and the gradients D_x F and D_v F at
    every atom stay within 1e-15 of the np.sum over the pointwise k, D_x k and D_v k, relative
    to the sum of the absolute terms, on two random ensembles on the line."""
    kernel = CuckerSmaleKernel(0.7, beta)
    rng = np.random.default_rng(8 + draw)
    w = rng.uniform(0.2, 1.0, 24)
    m = ParticleEnsemble(rng.standard_normal((24, 2)), w / w.sum(), 1)
    pos, vel = m.points.T
    energy, gx, gv = kernels._cs_pair_pass(kernel, pos, vel, m.weights)
    dx, dv = pos[:, None] - pos, vel[:, None] - vel
    g = (kernel.alpha + dx**2) ** beta
    coef = -(dv**2) * 2.0 * beta * (kernel.alpha + dx**2) ** (-beta - 1.0)
    terms = (m.weights[:, None] * m.weights * (dv**2 / g), m.weights * (coef * dx), m.weights * (2.0 * dv / g))
    for new, old in zip((energy, gx, gv), terms):
        old = old.reshape(-1) if new.ndim == 0 else old
        assert np.all(np.abs(new - np.sum(old, axis=-1)) <= 1e-15 * np.sum(np.abs(old), axis=-1))


def node_states(n, nodes, seed, shift=0.0):
    """Random (N, J) positions and velocities, velocities shifted by shift, and unequal weights."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return rng.standard_normal((n, nodes)), rng.standard_normal((n, nodes)) + shift, w / w.sum()


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("n, nodes", [(1, 3), (2, 9), (5, 7), (24, 40), (96, 12)])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_pair_pass_matches_dense(beta, n, nodes, shift):
    """The pass takes each unordered pair once, on pair differences; per node it stays within
    1e-13 of the sum of the absolute pointwise terms of the dense oracle (measured at most
    9.5e-15, on the pair energy at N = 96 with velocities shifted by 1e6; 1.1e-15 on the
    gradients), and so does the energy from kernel.value on the same pairs.  One atom has no
    pair: every sum is zero."""
    kernel = CuckerSmaleKernel(0.7, beta)
    x, v, w = node_states(n, nodes, n + nodes, shift)
    energy, gx, gv = kernels._cs_pair_pass(kernel, x, v, w)
    dx, dv = x[:, None] - x[None], v[:, None] - v[None]
    scales = (
        np.einsum("p,q,pqj->j", w, w, dv**2 / kernel.g(dx)),
        np.einsum("q,pqj->pj", w, np.abs(dv**2 * 2.0 * beta * (kernel.alpha + dx**2) ** (-beta - 1.0) * dx)),
        np.einsum("q,pqj->pj", w, np.abs(2.0 * dv / kernel.g(dx))),
    )
    got = (energy, gx, gv, kernels._cs_pair_energy(kernel, x, v, w))
    dense = dense_cs_pair_sum(kernel, x, v, x, v, w, w, True, True)
    for new, old, scale in zip(got, dense + dense[:1], scales + scales[:1]):
        assert new.shape == old.shape
        assert np.all(np.abs(new - old) <= TOL * scale)
    if n == 1:
        assert not np.any(energy) and not np.any(gx) and not np.any(gv)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_cs_pair_pass_chunks(beta, monkeypatch):
    """The sums do not depend on how many nodes share a chunk: one node, seven nodes or all
    40 a chunk agree bit for bit, for the pass and for the energy from kernel.value."""
    kernel = CuckerSmaleKernel(0.7, beta)
    x, v, w = node_states(24, 40, 3)
    node = 3 * 276 * 8  # the three (M,) pair columns of one node, M = 24 * 23 / 2
    runs = []
    for budget in (node, 7 * node, 40 * node):
        monkeypatch.setattr(kernels, "_CS_PAIR_BYTES", budget)
        runs.append((*kernels._cs_pair_pass(kernel, x, v, w), kernels._cs_pair_energy(kernel, x, v, w)))
    for run in runs[:2]:
        for got, whole in zip(run, runs[2]):
            assert np.array_equal(got, whole)


def test_cs_pair_pass_takes_each_pair_once(monkeypatch):
    """A pass evaluates 1/g on M = N(N-1)/2 pair entries a node, not N^2, from r = 1 / (alpha + d^2)
    formed once per chunk (CuckerSmaleKernel._inverse_g_of_r; CuckerSmaleKernel.g, which squares
    again, is not called); the chunk budget is three (M, nodes) buffers."""
    calls = []
    inverse_g_of_r = CuckerSmaleKernel._inverse_g_of_r
    monkeypatch.setattr(
        CuckerSmaleKernel, "_inverse_g_of_r", lambda self, r: calls.append(r.shape) or inverse_g_of_r(self, r)
    )
    monkeypatch.setattr(CuckerSmaleKernel, "g", lambda self, x: pytest.fail("g called"))
    monkeypatch.setattr(kernels, "_CS_PAIR_BYTES", 7 * 3 * 10 * 8)
    x, v, w = node_states(5, 17, 4)
    kernels._cs_pair_pass(CuckerSmaleKernel(1.0, 0.5), x, v, w)
    assert calls == [(10, 7), (10, 7), (10, 3)]
    assert sum(m * nodes for m, nodes in calls) == 10 * 17 < 5 * 5 * 17


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


# -- the sorted self body (kernels._sorted_self_sum) against the dense body --

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
        # a second cluster: a * (max - min) >= 1500 for the fastest rate of each kernel
        # here, past where one anchored factor e^{a (p - c)} would overflow (about 1420):
        # the sorted bodies start a new anchor block (kernels._ANCHOR_SPAN)
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
def test_sorted_self_matches_dense(name, case):
    """The self body, the atoms as their own queries, against the dense body: coincident atoms
    count at distance 0 in the value and not in the gradient, and far clusters keep their digits."""
    kernel, (pos, w, _) = SORTED[name], case
    value_scale, grad_scale = exp_term_scales(kernel, pos, pos, w)
    value = kernels._sorted_self_sum(kernel._exp_terms, w, False)(pos)
    grad = kernels._sorted_self_sum(kernel._exp_terms, w, True)(pos)
    assert value.shape == grad.shape == (len(pos),)
    assert np.all(np.abs(value - kernels._dense_pair_sum(kernel, pos, pos, w, False)) <= TOL * value_scale)
    assert np.all(np.abs(grad - kernels._dense_pair_sum(kernel, pos, pos, w, True)) <= TOL * grad_scale)


@pytest.mark.parametrize("n", [1, 2, 8, 24])
@pytest.mark.parametrize("name", ["zero", "exponential", "morse"])
def test_sorted_self_matches_dense_small_flocks(name, n, monkeypatch):
    """Flocks far below any sorting crossover, every third atom doubled, take the sorted body through
    _self_pair_sum and match the dense body; the zero kernel's empty sum is exact zeros and never
    reaches the dense body."""
    kernel, rng = RADIAL[name], np.random.default_rng(n)
    pos = rng.uniform(-3.0, 3.0, n)
    pos[2::3] = pos[1::3][: len(pos[2::3])]
    w = rng.uniform(0.1, 1.0, n)
    dense = kernels._dense_pair_sum
    expected = [dense(kernel, pos, pos, w, gradient) for gradient in (False, True)]
    calls = []
    monkeypatch.setattr(kernels, "_dense_pair_sum", lambda *args: calls.append(args[0]) or dense(*args))
    for gradient, scale, want in zip((False, True), exp_term_scales(kernel, pos, pos, w), expected):
        got = kernels._self_pair_sum(kernel, w, gradient)(pos)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= TOL * scale)
    assert calls == []
    if name == "zero":
        assert kernels._self_pair_sum(kernel, w, True)(pos).tobytes() == np.zeros(n).tobytes()


@pytest.mark.parametrize("span", [0.5, 4.0, 32.0])
@pytest.mark.parametrize("name", list(SORTED))
def test_sorted_bodies_across_anchor_blocks(name, span, monkeypatch):
    """A flock 500 wide with neighbours about 1.25 apart, every fifth atom doubled, in more than
    ten blocks at each block width: the sums carried from block to block weigh as much as the
    block's own, and the sorted self body stays within the dense body's roundoff."""
    monkeypatch.setattr(kernels, "_ANCHOR_SPAN", span)
    kernel, rng = SORTED[name], np.random.default_rng(17)
    pos = rng.uniform(-250.0, 250.0, 400)
    pos[::5] = pos[1::5]
    w = rng.uniform(0.01, 1.0, 400)
    assert max(a for _, a in kernel._exp_terms) * np.ptp(pos) > 10 * span
    for gradient, scale in zip((False, True), exp_term_scales(kernel, pos, pos, w)):
        dense = kernels._dense_pair_sum(kernel, pos, pos, w, gradient)
        assert np.all(np.abs(kernels._sorted_self_sum(kernel._exp_terms, w, gradient)(pos) - dense) <= TOL * scale)


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
    """96 atoms under an exponential-sum kernel: solve_aggregation_particles takes the sorted self sum of
    that flock, and the drift it integrates matches the loop at every atom; 80 queries against the same
    atoms sum on the dense body and match the loop too."""
    kernel, m = RADIAL[name], ensemble(96)
    ham = QuadraticDriftHamiltonian(DriftField("sinusoidal", 0.5, 2.0))
    bodies, sorted_sum = [], kernels._sorted_self_sum
    monkeypatch.setattr(kernels, "_sorted_self_sum", lambda *a: bodies.append(a[2]) or sorted_sum(*a))
    solve_aggregation_particles(ham, kernel, m, 0.01, 0.01)
    assert bodies == [True]
    pos = m.positions[:, 0]
    drift = ham.drift(pos) - sorted_sum(kernel._exp_terms, m.weights, True)(pos)
    xq = np.append(np.random.default_rng(99).uniform(-3.0, 3.0, 79), m.positions[4])
    for x, row in zip(pos, drift):
        _, _, g, g_scale = oracle(kernel, x, m)
        assert abs(row - (ham.drift(x) - g)) <= TOL * g_scale
    for x, f_got, g_got in zip(xq, *dense_sums(kernel, xq, m)):
        f, f_scale, g, g_scale = oracle(kernel, x, m)
        assert abs(f_got - f) <= TOL * f_scale
        assert abs(g_got - g) <= TOL * g_scale


def test_dense_gradient_at_subnormal_offset_1d():
    """An atom at 0 and a query at 2.2e-313: dphi(|x|) sign(x) is exact where dphi(r) / r would overflow."""
    kernel = ExponentialKernel(1.0, 1.0)
    xq, pos, w = np.array([2.2e-313, -2.2e-313]), np.zeros(1), np.ones(1)
    assert np.array_equal(kernels._dense_pair_sum(kernel, xq, pos, w, True), [-1.0, 1.0])
    # the two queries as a flock: each sees the other at a subnormal distance
    assert np.array_equal(kernels._sorted_self_sum(kernel._exp_terms, np.ones(2), True)(xq), [-1.0, 1.0])


def test_path_selection(monkeypatch):
    """The kernel chooses the self body: sorted under a sum of exponentials (zero, exponential,
    Morse) at any number of atoms, dense under the repulsive-attractive and crowd kernels."""
    calls = []
    dense = kernels._dense_pair_sum
    monkeypatch.setattr(kernels, "_dense_pair_sum", lambda *args: calls.append(args[0]) or dense(*args))
    for n in (1, 2, 63, 64):
        w = np.full(n, 1.0 / n)
        for name in ("zero", "exponential", "morse"):
            kernels._self_pair_sum(RADIAL[name], w)(np.linspace(0.0, 1.0, n))
    assert calls == []
    ra, crowd = RADIAL["repulsive_attractive"], RADIAL["crowd"]
    w = np.full(2, 0.5)
    kernels._self_pair_sum(ra, w)(np.zeros(2))
    kernels._self_pair_sum(crowd, w)(np.zeros(2))
    assert calls == [ra, crowd]


@pytest.mark.parametrize("name", ["exponential", "morse"])
def test_particle_solver_takes_the_self_body(name, monkeypatch):
    """solve_aggregation_particles sums its flock with itself through the body the kernel chooses,
    set up once per solve: the sorted body under an exponential sum at 2 atoms as at 64, and the
    dense body, once per RK4 stage, under the repulsive-attractive kernel."""
    calls = []
    for body in ("_sorted_self_sum", "_dense_pair_sum"):
        wrapped = getattr(kernels, body)
        spy = lambda *args, body=body, wrapped=wrapped: calls.append(body) or wrapped(*args)
        monkeypatch.setattr(kernels, body, spy)
    ham = QuadraticDriftHamiltonian(DriftField("zero"))
    cases = ((RADIAL[name], 64, ["_sorted_self_sum"]), (RADIAL[name], 2, ["_sorted_self_sum"]),
             (RADIAL["repulsive_attractive"], 64, ["_dense_pair_sum"] * 8))
    for kernel, atoms, expected in cases:
        m0 = ParticleEnsemble.equal_weights(np.linspace(-1.0, 1.0, atoms), 1)
        calls.clear()
        solve_aggregation_particles(ham, kernel, m0, 0.02, 0.01)
        assert calls == expected


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


# -- pair offsets (kernels._outer_offsets) against the subtraction they replaced --


def offset_cases():
    """(xq, pos) pairs: random, clustered 1e-12 apart, spread over 1e8, one query, one atom,
    rectangular both ways."""
    rng = np.random.default_rng(21)
    clustered = 0.3 + 1e-12 * np.arange(40.0)
    wide = 1e8 * rng.standard_normal(50)
    return {
        "random": (rng.standard_normal(60), rng.standard_normal(60)),
        "clustered": (clustered, clustered[::-1].copy()),
        "wide": (wide, wide + rng.standard_normal(50)),
        "one_query": (rng.standard_normal(1), rng.standard_normal(33)),
        "one_atom": (rng.standard_normal(33), rng.standard_normal(1)),
        "tall": (rng.standard_normal(70), rng.uniform(-1e3, 1e3, 9)),
        "flat": (rng.uniform(-1e-6, 1e-6, 9), rng.standard_normal(70)),
    }


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("case", list(offset_cases()))
def test_outer_offsets_match_subtraction(case):
    """Each offset is xq_i * 1 + 1 * (-pos_j), two exact products and one rounding: the product
    equals np.subtract.outer and the broadcast xq[:, None] - pos bit for bit, also when it writes
    into a caller's buffer."""
    xq, pos = offset_cases()[case]
    expected = np.subtract.outer(xq, pos)
    assert same_bits(xq[:, None] - pos, expected)
    assert same_bits(kernels._outer_offsets(xq, pos), expected)
    out = np.full((len(xq), len(pos)), np.nan)
    assert kernels._outer_offsets(xq, pos, out) is out
    assert same_bits(out, expected)


def test_outer_offsets_propagate_inf_and_nan():
    """inf, -inf, NaN and overflow land where the subtraction puts them, with the same sign on
    every infinity; the finite entries agree bit for bit.  (A NaN carries no meaningful sign.)"""
    special = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 2.5, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.subtract.outer(special, special[::-1])
        got = kernels._outer_offsets(special, special[::-1])
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert nan.any() and np.isinf(expected).any()
    assert same_bits(got[~nan], expected[~nan])


def test_outer_offsets_exact_zero_is_positive():
    """The one difference from the subtraction: an exact zero offset is always +0.0.  The
    subtraction gives -0.0 for -0.0 - 0.0; the product sums -0.0 * 1 and 1 * -0.0 into a BLAS
    accumulator that starts at +0.0 and gives +0.0.  Every other exact zero is +0.0 in both."""
    zeros = np.array([-0.0, 0.0])
    expected = np.subtract.outer(zeros, zeros)
    got = kernels._outer_offsets(zeros, zeros)
    assert np.array_equal(np.signbit(expected), [[False, True], [False, False]])
    assert not np.signbit(got).any()
    assert np.array_equal(got, expected)  # equal as numbers


def subtract_cs_alignment(kernel, w):
    """``kernels._cs_alignment`` with the offsets of each block of the staircase from
    np.subtract.outer, the rectangles concatenated into one array for g: the oracle of the rank-2
    product form, bit for bit."""
    n = len(w)
    spans = kernels._cs_staircase(n)
    operand = np.column_stack([w, w])

    def acc(pos, vel, out):
        weights = np.concatenate([np.subtract.outer(pos[lo:hi], pos[lo:]).ravel() for lo, hi in spans])
        np.reciprocal(kernel.g(weights), out=weights)
        starts = np.cumsum([0] + [(hi - lo) * (n - lo) for lo, hi in spans])
        rects = [weights[a:b].reshape(hi - lo, n - lo) for a, b, (lo, hi) in zip(starts, starts[1:], spans)]
        u = vel - w @ vel
        np.multiply(w, u, out=operand[:, 1])
        s = np.empty((n, 2))
        for (lo, hi), rect in zip(spans, rects):
            s[lo:hi] = rect @ operand[lo:]
        for (lo, hi), rect in zip(spans, rects):
            s[hi:] += rect[:, hi - lo :].T @ operand[lo:hi]
        np.subtract(s[:, 1], np.multiply(u, s[:, 0], out=out), out=out)
        out *= 2.0
        return out

    return acc


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_solve_cs_bit_identical_to_subtraction_oracle(beta, monkeypatch):
    """solve_cs on a 192-atom flock (two blocks) over 50 RK4 steps, and the Richardson ratio, are
    bit for bit what they are with the offsets of the same staircase from np.subtract.outer."""
    kernel, m0 = CuckerSmaleKernel(0.7, beta), flock(192, seed=19, shift=3.0)
    runs = []
    for alignment in (kernels._cs_alignment, subtract_cs_alignment):
        monkeypatch.setattr(cucker_smale, "_cs_alignment", alignment)
        path = solve_cs(m0, kernel, 0.5, 0.01, range(51))
        runs.append((path, richardson_order_ratio(m0, kernel, 0.08, 0.02)))
    (new, new_ratio), (old, old_ratio) = runs
    assert len(new.times) == 51
    assert np.array_equal(new.times, old.times)
    assert all(same_bits(a.points, b.points) for a, b in zip(new.measures, old.measures))
    assert new_ratio == old_ratio
