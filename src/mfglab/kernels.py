"""Interaction kernels, the nonlocal coupling F(x,m)=k*m, and its structural constants.

This is the one place k*m and Dk*m are evaluated: ``_grid_sum`` by 1D
grid quadrature on a grid density, the pair sums below over the atoms
of a flock.  The cell-centre quadrature matrices (``_grid_matrix``),
which a sweep asks for again and again, are formed once per kernel and
grid: a small memo keeps the last few, read-only.

The radial kernels (exponential, repulsive-attractive, Morse, tabulated
crowd kernel, zero) act on the line: value and gradient work elementwise
on 1D offsets of any shape, k(x) = phi(|x|) and Dk(x) = phi'(|x|) sign(x),
so Dk(0) = 0 at a kink.  Their pair sums take (nq,) queries and (N,) atoms.

Each radial kernel states its profile's sups in closed form
(``constants``), which ``validate_coupling`` reads: over probability
measures they are the constants of F, each attained by a point mass.
Each one a config builds also states the inf of its Fourier transform
(``transform_inf``); ``psd_check`` reads it as Bochner's PSD verdict.

The sum of a flock with itself that the particle solver takes
(``_self_pair_sum``) is chosen by the kernel: the dense (nq, N) offset
array (``_dense_pair_sum``) or a sorted body.  A kernel
whose profile is a sum of exponentials, phi(r) = sum_k c_k exp(-a_k r),
states only its terms (``_exp_terms``; zero: none, exponential: one,
Morse: two), takes phi and phi' from them (``_exp_phi``, ``_exp_dphi``)
and sums its flock exactly in O(N log N) at any N (``_sorted_self_sum``),
with anchored factors e^{a (p - c)} making each side of every atom one
cumsum; the zero kernel's empty sum is exact zeros with no pair work.
The repulsive-attractive and crowd kernels stay on the dense body, the
sorted one's test oracle; the repulsive-attractive profile r exp(-a r)
would need a two-term recurrence.  Every dense pair array takes its
offsets from one rank-2 product (``_outer_offsets``).

The Cucker-Smale kernel acts on the line too, jointly on
position-velocity offsets of any shape, k(x,v) = v^2 / g(x) with
g(x) = (alpha + x^2)^beta elementwise; its weight is not radial in
(x, v) and not a sum of exponentials.  The alignment force is the
symmetric (N, N) weight matrix A = 1 / g times [w | w u] on centred
velocities u (``_cs_alignment``), of which only the block-upper
staircase is formed: row blocks of about 96 atoms, each pair weight
once outside the diagonal squares, and the part of each block right
of its square applied a second time, transposed.  The energy and
gradients of the MFG of acceleration and its EL residual go over a list
of pairs (``_cs_pair_pass``): a flock's unordered pairs p < q once each
(k is even in a pair).  Pair differences are gathered chunk by chunk of
time nodes into buffers that fit a fixed byte budget, so their memory
does not grow with the number of nodes, and a sparse signed incidence
matrix sends the odd gradients back to the atoms.  An ensemble enters
that side through ``_flock``, which rejects one without velocities.  Atoms are on the line
by construction (``ParticleEnsemble``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy.sparse import csc_array

from .errors import DimensionError, ParameterError
from .measures import GridDensity, ParticleEnsemble, _finite, _freeze, _positive_finite

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline


def _radial_value(kernel, x):
    """k(x) = phi(|x|) at 1D offsets x of any shape."""
    return kernel.phi(np.abs(np.asarray(x, dtype=float)))


def _radial_grad(kernel, x):
    """Dk(x) = phi'(|x|) sign(x) at 1D offsets x of any shape; sign(0) = 0 gives the
    kink convention Dk(0) = 0, as phi'(0) is finite for every radial kernel."""
    x = np.asarray(x, dtype=float)
    return kernel.dphi(np.abs(x)) * np.sign(x)


def _exp_phi(kernel, r, gradient=False):
    """phi(r) = sum_k c_k exp(-a_k r) over the kernel's ``_exp_terms`` (c_k, a_k), or with gradient
    phi'(r) = sum_k -a_k c_k exp(-a_k r), at distances r of any shape; the empty sum is zeros."""
    r = np.asarray(r, dtype=float)
    terms = [(-a * c if gradient else c) * np.exp(-a * r) for c, a in kernel._exp_terms]
    return sum(terms[1:], terms[0]) if terms else np.zeros_like(r)


def _exp_dphi(kernel, r):
    """phi'(r) of a sum of exponentials (``_exp_phi``)."""
    return _exp_phi(kernel, r, gradient=True)


class ProfileConstants(NamedTuple):
    """sup|phi|, sup|phi'|, the sup of phi'' on r > 0, and phi'(0+) of a radial kernel k(x) = phi(|x|)."""

    sup_phi: float
    sup_dphi: float
    sup_d2phi: float
    dphi0: float


def _exp_sup(terms):
    """sup over r >= 0 of sum_k b_k exp(-a_k r), for one or two terms (b_k, a_k), a_k > 0: the largest
    of its value at r = 0, its limit 0 as r -> inf and, for two terms of opposite signs, its value at
    the one critical point r* = ln(-b1 a1 / (b2 a2)) / (a1 - a2) when r* > 0."""
    candidates = [0.0, sum(b for b, _ in terms)]
    if len(terms) == 2 and terms[0][0] * terms[1][0] < 0 and terms[0][1] != terms[1][1]:
        (b1, a1), (b2, a2) = terms
        r = np.log(-b1 * a1 / (b2 * a2)) / (a1 - a2)
        if r > 0:
            candidates.append(b1 * np.exp(-a1 * r) + b2 * np.exp(-a2 * r))
    return float(max(candidates))


def _exp_constants(kernel):
    """``ProfileConstants`` of phi(r) = sum_k c_k exp(-a_k r) over the kernel's ``_exp_terms``; its n-th
    derivative is the sum with coefficients (-a_k)^n c_k."""

    def sup(order, sign=1.0):
        return _exp_sup([(sign * (-a) ** order * c, a) for c, a in kernel._exp_terms])

    dphi0 = float(sum(-a * c for c, a in kernel._exp_terms))
    return ProfileConstants(max(sup(0), sup(0, -1.0)), max(sup(1), sup(1, -1.0)), sup(2), dphi0)


def _exp_transform_inf(kernel):
    """(inf, xi) over xi >= 0 of k^(xi) = sum_k b_k / (A_k + xi^2), b_k = 2 c_k a_k, A_k = a_k^2, the transform
    of k(x) = sum_k c_k exp(-a_k |x|) over at most two ``_exp_terms`` (c_k, a_k): in s = xi^2 the smallest of
    its value at s = 0, its limit 0 as s -> inf (xi = inf, which loses a tie) and, for two terms of opposite
    signs, its value at the one critical point s* = (A1 - rho A2) / (rho - 1), rho = sqrt(-b1 / b2), if s* > 0."""
    terms, s = [(2.0 * c * a, a * a) for c, a in kernel._exp_terms], [0.0]
    if len(terms) == 2 and terms[0][0] * terms[1][0] < 0:
        (b1, A1), (b2, A2) = terms
        rho = (-b1 / b2) ** 0.5
        s += [(A1 - rho * A2) / (rho - 1.0)] if rho != 1.0 else []
    values = [(float(sum(b / (A + x) for b, A in terms)), x**0.5) for x in s if x >= 0]
    return min([*values, (0.0, np.inf)], key=lambda v: v[0])


@dataclass(frozen=True)
class ExponentialKernel:
    """k(x) = alpha * exp(-a |x|); repulsive for alpha > 0."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        _finite(alpha=self.alpha)
        _positive_finite(a=self.a)

    @property
    def _exp_terms(self):
        """(c_k, a_k) with phi(r) = sum_k c_k exp(-a_k r)."""
        return ((self.alpha, self.a),)

    phi = _exp_phi
    dphi = _exp_dphi
    constants = property(_exp_constants)
    transform_inf = property(_exp_transform_inf)
    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class RepulsiveAttractiveKernel:
    """k(x) = -|x| exp(-a |x|); repulsion near 0, attraction beyond 1/a."""

    a: float = 1.0

    def __post_init__(self):
        _positive_finite(a=self.a)

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return -r * np.exp(-self.a * r)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return (self.a * r - 1.0) * np.exp(-self.a * r)

    @property
    def constants(self):
        """sup|phi| = 1/(a e) at r = 1/a; |phi'| and phi'' = a (2 - a r) e^{-a r} peak at r -> 0+,
        where phi'(0+) = -1 is a concave kink."""
        return ProfileConstants(1.0 / (self.a * np.e), 1.0, 2.0 * self.a, -1.0)

    # k^(xi) = 2 (xi^2 - a^2) / (a^2 + xi^2)^2 rises from -2/a^2 at xi = 0 to its max at xi = sqrt(3) a
    transform_inf = property(lambda self: (-2.0 / self.a**2, 0.0))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class MorseKernel:
    """k(x) = exp(-|x|) - G exp(-|x|/L); short-range repulsion, mid-range attraction."""

    G: float = 0.5
    L: float = 2.0

    def __post_init__(self):
        if not 0 < self.G < 1:
            raise ParameterError("G", f"Morse kernel requires 0 < G < 1, got {self.G}")
        if not 1 < self.L < np.inf:
            raise ParameterError("L", f"Morse kernel requires a finite L > 1, got {self.L}")

    @property
    def _exp_terms(self):
        """(c_k, a_k) with phi(r) = sum_k c_k exp(-a_k r)."""
        return ((1.0, 1.0), (-self.G, 1.0 / self.L))

    def equilibrium_gap(self) -> float:
        """Two-body equilibrium distance, the root of phi'."""
        return self.L / (self.L - 1.0) * np.log(self.L / self.G)

    phi = _exp_phi
    dphi = _exp_dphi
    constants = property(_exp_constants)
    transform_inf = property(_exp_transform_inf)
    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class CrowdRadialKernel:
    """k(x) = phi(|x|) with phi tabulated; phi' clamped to 0 outside [0, R].

    The table is interpolated with a C^2 cubic spline; beyond the last
    knot the kernel is constant (no interaction at long range).
    """

    r_knots: np.ndarray
    phi_values: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r, p = _freeze(self, r_knots=self.r_knots, phi_values=self.phi_values)
        if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
            raise ValueError("need at least 4 strictly increasing knots")
        if r[0] != 0.0:
            raise ValueError("knots must start at r = 0")
        # imported here: no config, command or demo builds this kernel, so `import mfglab` skips scipy.interpolate
        from scipy.interpolate import CubicSpline

        object.__setattr__(self, "_spline", CubicSpline(r, p, bc_type="clamped"))

    @property
    def R(self) -> float:
        return float(self.r_knots[-1])

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, self.phi_values[-1], self._spline(np.minimum(r, self.R)))

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, 0.0, self._spline(np.minimum(r, self.R), 1))

    @property
    def constants(self):
        """From the spline on [0, R]: each sup of |phi| and |phi'| is at a knot or a root of the next
        derivative; phi'' is piecewise linear, so its sup is at a knot.  Beyond R, phi' = phi'' = 0."""
        s, r = self._spline, self.r_knots
        sup_abs = [np.nanmax(np.abs(s(np.append(r, s.derivative(n + 1).roots(extrapolate=False)), n))) for n in (0, 1)]
        return ProfileConstants(*map(float, sup_abs), float(max(s(r, 2).max(), 0.0)), float(s(0.0, 1)))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class ZeroKernel:
    """k = 0; switches off the coupling: the empty sum of exponentials."""

    _exp_terms = ()
    phi = _exp_phi
    dphi = _exp_dphi
    constants = property(_exp_constants)
    transform_inf = property(_exp_transform_inf)
    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class CuckerSmaleKernel:
    """k(x, v) = v^2 / g(x) with communication weight g(x) = (alpha + x^2)^beta, elementwise on the line."""

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        _positive_finite(alpha=self.alpha)
        if not 0 <= self.beta < np.inf:
            raise ParameterError("beta", f"beta must be nonnegative and finite, got {self.beta}")

    def g(self, x):
        q = np.square(np.asarray(x, dtype=float))  # one temporary, at any size
        q += self.alpha
        q **= self.beta
        return q

    def _inverse_g_of_r(self, r):
        """1/g as a function of r = 1 / (alpha + x^2), in place on the float array r: the pair pass
        forms r once for 1/g and for D_x g / g."""
        r **= self.beta
        return r

    def value(self, x, v):
        return np.asarray(v, dtype=float) ** 2 / self.g(x)

    @property
    def c0(self) -> float:
        """Certified constant: g >= 1/c0, F <= c0 (1+|v|^2+M2v),
        |D_x F| <= c0 F and |D_v F| <= c0 sqrt(F)."""
        inf_g = self.alpha**self.beta
        dg_over_g = self.beta / np.sqrt(self.alpha)
        return float(max(1.0, 2.0 / inf_g, dg_over_g, 2.0 / np.sqrt(inf_g)))


def _offset_operands(xq, pos):
    """The two factors of ``_outer_offsets``, [xq | 1] (nq, 2) and [1 ; -pos] (2, N).  A caller that
    forms offsets again and again keeps them, and views of them, and refills left[:, 0] and right[1]."""
    left, right = np.ones((len(xq), 2)), np.ones((2, len(pos)))
    left[:, 0] = xq
    np.negative(pos, out=right[1])
    return left, right


def _outer_offsets(xq, pos, out=None):
    """The (nq, N) pair offsets xq_i - pos_j of points xq (nq,) and pos (N,) on the line, as one rank-2
    product [xq | 1] @ [1 ; -pos] of the ``_offset_operands`` factors, written into out when given.
    Every dense pair array takes its offsets from this product, the staircase of ``_cs_alignment``
    from its blocks of rows and columns.

    Each entry is xq_i * 1 + 1 * (-pos_j): two exact products and one rounding, so it equals the
    subtraction xq_i - pos_j bit for bit, inf and NaN included, however the BLAS orders or fuses the
    two terms.  The one difference: an exact zero offset is +0.0 (OpenBLAS sums into an accumulator that
    starts at +0.0), where -0.0 - 0.0 gives -0.0.  A column-broadcast subtraction runs several times
    slower than this product (at N = 192, one BLAS thread: 35-50 us against 9-15 us).
    """
    return np.matmul(*_offset_operands(xq, pos), out=out)


#: how many _grid_matrix results the memo keeps; past it, the oldest goes
_GRID_MEMO_SIZE = 4
_grid_memo: dict = {}


def _grid_matrix(kernel, xq, y, dx, gradient=False):
    """(len(xq), len(y)) quadrature matrix dx * k(xq_i - y_j), or dx * Dk(xq_i - y_j), in 1D, read-only.

    A sweep asks for the same few cell-centre matrices again and again (one per HJB sweep, two per window
    node of a row), so the last _GRID_MEMO_SIZE of those, xq = y bit for bit, are kept, keyed by the kernel and
    the exact bytes of the grid and dx; the kernel's repr joins the key, since alpha = -0.0 and 0.0 compare
    equal.  Any other matrix (the FV solver's interface gradients, formed once a solve) is not kept, and
    neither is one of a kernel that cannot be hashed (CrowdRadialKernel's tables)."""
    xq, y = np.asarray(xq, dtype=float), np.asarray(y, dtype=float)
    grid = xq.tobytes()
    try:
        key = (kernel, repr(kernel), bool(gradient), float(dx), grid) if grid == y.tobytes() else None
        matrix = _grid_memo.get(key)
    except TypeError:
        key = matrix = None
    if matrix is None:
        diffs = _outer_offsets(xq, y)
        matrix = dx * (kernel.gradient(diffs) if gradient else kernel.value(diffs))
        matrix.setflags(write=False)
        if key is not None:
            _grid_memo[key] = matrix
            if len(_grid_memo) > _GRID_MEMO_SIZE:
                del _grid_memo[next(iter(_grid_memo))]
    return matrix


def _grid_sum(kernel, xq, m, gradient=False):
    """(k*m)(xq_i), or (Dk*m)(xq_i), by 1D quadrature; m is a GridDensity, or an
    (n_nodes, n) stack of cell values on the grid whose centres are xq (row per node)."""
    y, dx, values = (m.cell_centers, m.dx, m.values) if isinstance(m, GridDensity) else (xq, xq[1] - xq[0], m)
    return values @ _grid_matrix(kernel, xq, y, dx, gradient).T


def _self_pair_sum(kernel, w, gradient=False):
    """pair_sum(pos): sum_j w_j k(pos_i - pos_j), or sum_j w_j Dk(pos_i - pos_j), (N,), of a flock of weights
    w (N,) at the positions pos (N,), with the body the kernel chooses: sorted (``_sorted_self_sum``) under
    a sum of exponentials, zero's empty sum included, at any N; dense otherwise."""
    terms = getattr(kernel, "_exp_terms", None)
    if terms is None:
        return lambda pos: _dense_pair_sum(kernel, pos, pos, w, gradient)
    return _sorted_self_sum(terms, w, gradient)


#: byte budget of one (nq, N) offset array in _dense_pair_sum; more queries go in chunks
_DENSE_PAIR_BYTES = 2**24


def _dense_pair_sum(kernel, xq, pos, w, gradient):
    """sum_j w_j k(xq_i - pos_j), or sum_j w_j Dk(xq_i - pos_j), (nq,), for queries xq (nq,) and atoms
    pos (N,) on the line, through (nq, N) arrays of offsets chunked over the queries to
    _DENSE_PAIR_BYTES each: any radial kernel.

    np.sum reduces each query's row on its own, so a sum does not depend on
    how many queries share its chunk (a matrix-vector product ``@ w`` rounds
    differently with the number of rows).
    """
    rows = max(1, _DENSE_PAIR_BYTES // max(pos.nbytes, 1))
    if len(xq) > rows:
        parts = [_dense_pair_sum(kernel, xq[i : i + rows], pos, w, gradient) for i in range(0, len(xq), rows)]
        return np.concatenate(parts)
    diffs = _outer_offsets(xq, pos)
    return np.sum(w * (kernel.gradient(diffs) if gradient else kernel.value(diffs)), axis=-1)


#: widest a_max (p - p_s) of an anchored factor e^{a (p - p_s)} in _sorted_self_sum.  Its rounded argument
#: t is off by up to about t eps, and so is the factor; a sum divides two factors of one block, so each
#: term is off by at most about (2 S + 3) eps, 1.5e-14 at S = 32, against (a r + 1) eps for e^{-a r} in
#: the dense body.  Factors stay in [e^-S, e^S] ~ [1.3e-14, 7.9e13]: no weight sum below 1e294 overflows
_ANCHOR_SPAN = 32.0


def _sorted_self_sum(terms, w, gradient):
    """pair_sum(pos), the _self_pair_sum for phi(r) = sum_k c_k exp(-a_k r), exact in O(N log N), set up once
    per flock.  With the atoms sorted, it is sum_k c_k (L_k + R_k), or sum_k -a_k c_k (L_k - R_k), at atom i,
    from L_k = sum_{j < m_i} w_j e^{-a_k (p_i - p_j)} and R_k = sum_{j >= hi_i} w_j e^{-a_k (p_j - p_i)}, where
    the atoms at p_i start at lo_i and end at hi_i: m = hi counts them at distance 0 in the value, m = lo
    leaves them out of the gradient (Dk(0) = 0).  In a block of atoms from p_s, the anchored factors E =
    e^{a (p - p_s)} make each side one cumsum, L = (sum_{j < m} w_j E_j) / E_i and R = (sum_{j >= hi} w_j / E_j)
    E_i.  A block starts every _ANCHOR_SPAN / max(a); the atoms before (after) it enter as one decayed sum.
    No terms (the zero kernel) is exact zeros with no pair work."""
    if not terms:
        return lambda pos: np.zeros(len(w))
    c, a = np.array(terms).T
    coef, rate, n = (-a * c if gradient else c), max(a), len(w)
    acc = np.zeros((len(a), n + 1))  # column j sums the first j atoms, then the last j; column 0 stays 0
    left, right = np.empty((len(a), n)), np.empty((len(a), n))

    def pair_sum(pos):
        order = pos.argsort(kind="stable")
        p, ws = pos[order], w[order]
        hi = p.searchsorted(p, "right")
        m = p.searchsorted(p, "left") if gradient else hi
        blocks, anchor = [(0, n)], p[0]
        if rate * (p[-1] - p[0]) > _ANCHOR_SPAN:
            starts = np.flatnonzero(np.diff(np.floor((p - p[0]) * (rate / _ANCHOR_SPAN)), prepend=-1.0))
            anchor = np.repeat(p[starts], np.diff(starts, append=n))
            blocks = list(zip(starts, [*starts[1:], n]))
            carry = np.exp(np.multiply.outer(-a, p[starts[1:]] - p[starts[:-1]]))  # anchor to anchor
        f = np.exp(a[:, None] * (p - anchor))
        np.multiply(ws, f, out=acc[:, 1:])
        for b, (s, e) in enumerate(blocks):
            if b:
                acc[:, s] *= carry[:, b - 1]
            acc[:, s : e + 1].cumsum(axis=1, out=acc[:, s : e + 1])
            np.divide(acc.take(m[s:e], axis=1), f[:, s:e], out=left[:, s:e])
        np.divide(ws[::-1], f[:, ::-1], out=acc[:, 1:])
        for b, (s, e) in reversed(list(enumerate(blocks))):
            if b < len(blocks) - 1:
                acc[:, n - e] *= carry[:, b]
            acc[:, n - e : n - s + 1].cumsum(axis=1, out=acc[:, n - e : n - s + 1])
            np.multiply(acc.take(n - hi[s:e], axis=1), f[:, s:e], out=right[:, s:e])
        out = np.empty(n)
        out[order] = coef @ (left - right if gradient else left + right)
        return out

    return pair_sum


#: largest pair array of one time node a Cucker-Smale pair sum may allocate, in bytes: the
#: staircase buffer of ``_cs_alignment``, the (M,) pair column of ``_cs_pair_pass``
PAIR_ARRAY_CAP = 2**28


def _check_pair_cap(nbytes):
    """Raises before a pair array of nbytes bytes a node would pass PAIR_ARRAY_CAP."""
    if nbytes > PAIR_ARRAY_CAP:
        raise ValueError(f"pair arrays of {nbytes} bytes each exceed the cap of {PAIR_ARRAY_CAP} bytes")


#: rows of one block of the staircase of ``_cs_alignment``: a flock of N atoms takes
#: max(1, round(N / 96)) blocks, one below 144 atoms, so up to 143 atoms keep the bits of the
#: full matrix.  One alignment call took, in us at N = 24, 96, 144, 192 and 384, 7.7, 24.6, 45.6,
#: 77.4 and 343 with the full (N, N) matrix and 7.3, 23.1, 39.1, 59.3 and 203 with the staircase
#: (2-core x86-64, numpy 2.4, one BLAS thread, median of three runs of the best of 15)
_CS_BLOCK_ROWS = 96


def _cs_staircase(n):
    """The row blocks [lo, hi) of the staircase of an N-atom flock, as even as integer edges make them."""
    count = max(1, (n + _CS_BLOCK_ROWS // 2) // _CS_BLOCK_ROWS)
    edges = [i * n // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _cs_alignment(kernel, w):
    """acc(pos, vel, out) writing the alignment acceleration -sum_j w_j 2 (v_i - v_j) / g(x_i - x_j) of a
    flock of weights w (N,) into out (N,): 2 ((A (w u))_i - u_i (A w)_i), A = 1 / g(x_i - x_j), from the
    products s = A @ [w | w u].  u = v - w.v centres the velocities on their weighted mean; a shift leaves
    each v_i - v_j alone, but uncentred the difference loses |mean v| / spread digits.

    A is symmetric, so only its block-upper staircase is formed: the atoms split into row blocks
    [lo, hi) (``_cs_staircase``), and block b is the rectangle A[lo:hi, lo:], the offsets of its rows
    and columns one rank-2 product of views of the ``_outer_offsets`` factors.  The rectangles lie
    back to back in one flat buffer, on which ``kernel.g`` and the reciprocal run once a call, over
    N^2 (B + 1) / (2 B) entries for B blocks.  Block b gives s[lo:hi] = A[lo:hi, lo:] @ [w | w u][lo:],
    and its part right of the diagonal square, mirrored, s[hi:] += A[lo:hi, hi:].T @ [w | w u][lo:hi].
    Every buffer and view is made here; PAIR_ARRAY_CAP bounds the staircase buffer.  With one block
    (N < 144) these are the operations of the full matrix A @ [w | w u], bit for bit.
    """
    n = len(w)
    spans = _cs_staircase(n)
    sizes = [(hi - lo) * (n - lo) for lo, hi in spans]
    _check_pair_cap(sum(sizes) * w.itemsize)
    weights, operand, s = np.empty(sum(sizes)), np.column_stack([w, w]), np.empty((n, 2))
    wu, aw, awu = operand[:, 1], s[:, 0], s[:, 1]  # operand = [w | w u], s = [A w | A (w u)]
    left, right = _offset_operands(w, w)  # refilled from the positions at each call
    blocks, mirrors = [], []
    for (lo, hi), start in zip(spans, np.cumsum([0] + sizes)):
        rect = weights[start : start + (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        blocks.append((left[lo:hi], right[:, lo:], rect, operand[lo:], s[lo:hi]))
        if hi < n:
            mirrors.append((rect[:, hi - lo :].T, operand[lo:hi], np.empty((n - hi, 2)), s[hi:]))

    def acc(pos, vel, out):
        left[:, 0] = pos  # the factors [pos | 1] and [1 ; -pos], as _offset_operands fills them
        np.negative(pos, out=right[1])
        for rows, cols, rect, _, _ in blocks:
            np.matmul(rows, cols, out=rect)
        np.reciprocal(kernel.g(weights), out=weights)
        u = vel - w @ vel
        np.multiply(w, u, out=wu)
        for _, _, rect, part, dest in blocks:
            np.matmul(rect, part, out=dest)
        for mirror, part, tmp, dest in mirrors:
            dest += np.matmul(mirror, part, out=tmp)
        np.subtract(awu, np.multiply(u, aw, out=out), out=out)
        out *= 2.0
        return out

    return acc


class _PairTable(NamedTuple):
    """M pairs (first[c], second[c]) of rows of atom-major states, and two sparse weight
    matrices over them: ``energy`` (1, M) sums a pair array to one value per node and
    ``scatter`` (rows, M) sends it back to the rows.  Each output entry adds its terms in
    pair order, whatever the number of nodes.  A table depends only on the weights, so a
    caller that passes the same flock again and again keeps it: ``minimize_energy`` builds
    one per minimization for all its objective evaluations."""

    first: np.ndarray
    second: np.ndarray
    energy: csc_array
    scatter: csc_array


def _flock_pairs(w):
    """Each unordered pair p < q of N atoms of weights w (N,) once, M = N(N-1)/2 pairs: the
    energy weight of a pair is 2 w_p w_q, and a quantity odd in the pair, f(q, p) = -f(p, q),
    goes back as S[p, c] = w_q and S[q, c] = -w_p.  Raises before any allocation when one
    node's pair column would pass PAIR_ARRAY_CAP."""
    n = len(w)
    _check_pair_cap(n * (n - 1) // 2 * w.itemsize)
    first, second = np.triu_indices(n, 1)
    wf, ws = w[first], w[second]
    m = len(first)
    # column c holds w_q at row p and -w_p at row q
    entries = (np.column_stack([ws, -wf]).ravel(), np.column_stack([first, second]).ravel(), np.arange(0, 2 * m + 1, 2))
    energy = csc_array((2.0 * wf * ws, np.zeros(m, dtype=int), np.arange(m + 1)), shape=(1, m))
    return _PairTable(first, second, energy, csc_array(entries, shape=(n, m)))


#: byte budget of the pair temporaries of one chunk of time nodes in _cs_pair_pass (three
#: (M, nodes) buffers) and the discrete energy; more nodes go in more chunks.  One pass at
#: N = 24, K = 5120 took 17-18, 14, 12-13 and 12-16 ms with 256 KiB, 512 KiB, 1 MiB and 2 MiB
#: chunks, at N = 96, K = 1280 108-116, 71-89, 62-75 and 62-66 ms, and at N = 192, K = 320
#: 123-131, 122-137, 83-97 and 65-73 ms; the per-node (N, N) matrices it replaced took 34-40,
#: 132 and 149-166 ms (2-core x86-64, numpy 2.4, one BLAS thread, best of 15, two runs)
_CS_PAIR_BYTES = 2**20


def _pair_offsets(pairs, x, v):
    """Pair offsets d = x[first] - x[second] and du = v[first] - v[second], (M, nodes), of the
    atom-major states x, v (n, J), chunk by chunk of time nodes: yields the node slice, d, du
    and a third buffer of their shape that the caller may overwrite.  The three are gathered
    in place into buffers reused from chunk to chunk, which fit _CS_PAIR_BYTES together (one
    node at least)."""
    m, nodes = len(pairs.first), x.shape[1]
    cols = max(1, min(nodes, _CS_PAIR_BYTES // (3 * 8 * max(m, 1))))
    buffers = np.empty((3, m * cols))
    for j in range(0, nodes, cols):
        c, n = slice(j, j + cols), min(cols, nodes - j)
        d, du, spare = (b[: m * n].reshape(m, n) for b in buffers)
        for out, s in ((d, x[:, c]), (du, v[:, c])):
            # the indices are in range; mode="clip" keeps take from buffering its output
            np.take(s, pairs.first, axis=0, out=out, mode="clip")
            np.take(s, pairs.second, axis=0, out=spare, mode="clip")
            out -= spare
        yield c, d, du, spare


def _cs_pair_pass(kernel, x, v, w, pairs=None):
    """The pair sums of a flock of N atoms of weights w (N,) with itself, states x, v on the line,
    (N,) at one time node or atom-major (N, J) at J nodes: returns sum_pq w_p w_q k per node, and
    sum_q w_q D_x k and sum_q w_q D_v k at every atom, in the shape of x.  Each unordered pair is
    taken once, over the table pairs, ``_flock_pairs(w)``, built here when not given.

    k = du^2 A with A = 1 / g(d) is even in the pair, D_x k and D_v k odd.  Per chunk of nodes
    (``_pair_offsets``), r = 1 / (alpha + d^2) is formed once, A = r^beta from it through
    ``CuckerSmaleKernel._inverse_g_of_r``, and the three pair arrays

        du A              (scattered, times 2, into the D_v sums),
        du^2 A            (the energy),
        du^2 A d r        (scattered, times -2 beta, into the D_x sums)

    are built in place in the chunk's buffers.  Time nodes are the inner axis, each pair's
    node row contiguous; pair differences need no velocity centring.
    """
    pairs = _flock_pairs(w) if pairs is None else pairs
    shape, n = x.shape, len(x)
    x, v = x.reshape(n, -1), v.reshape(n, -1)
    nodes = x.shape[1]
    energy, gx, gv = np.empty(nodes), np.empty((n, nodes)), np.empty((n, nodes))
    for c, d, du, r in _pair_offsets(pairs, x, v):
        np.multiply(d, d, out=r)
        r += kernel.alpha
        np.reciprocal(r, out=r)  # r = 1 / (alpha + d^2)
        d *= r
        kernel._inverse_g_of_r(r)  # A = r^beta
        r *= du  # du A
        du *= r  # du^2 A
        d *= du  # du^2 A d r
        energy[c] = (pairs.energy @ du)[0]
        gv[:, c] = pairs.scatter @ r
        gx[:, c] = pairs.scatter @ d
    gv *= 2.0
    gx *= -2.0 * kernel.beta
    return energy.reshape(shape[1:]), gx.reshape(shape), gv.reshape(shape)


def _cs_pair_energy(kernel, x, v, w):
    """sum_pq w_p w_q k per node, (J,), of a flock of N atoms of weights w (N,) at the
    atom-major states x, v (N, J), from ``kernel.value`` on the offsets of each unordered
    pair, weighted 2 w_p w_q; each node sums its pairs in pair order whatever its chunk, so
    the chunks change no bit."""
    pairs = _flock_pairs(w)
    energy = np.empty(x.shape[1])
    for c, d, du, _ in _pair_offsets(pairs, x, v):
        energy[c] = (pairs.energy @ kernel.value(d, du))[0]
    return energy


def _flock(m):
    """Positions and velocities, each (N,), of a phase-space ensemble; every ensemble
    enters the Cucker-Smale side through here."""
    if not (isinstance(m, ParticleEnsemble) and m.is_phase_space):
        raise DimensionError("the Cucker-Smale side needs a phase-space ensemble")
    return m.points[:, 0], m.points[:, 1]


@dataclass(frozen=True)
class CouplingValidationReport:
    """The structural constants of F(x, m) = (k * m)(x) over probability measures, as the kernel states them."""

    c0: float
    lipschitz_ok: bool
    growth_ok: bool
    semiconcave_ok: bool
    lipschitz_constant: float
    growth_constant: float
    semiconcavity_constant: float


def validate_coupling(kernel) -> CouplingValidationReport:
    """Lipschitz, growth and semiconcavity constants of F = k * m from the kernel's ``constants``.

    Over probability measures each is the profile's own sup, attained by a
    point mass: Lipschitz sup|phi'|, growth sup|phi| (at x = 0), and
    semiconcavity sup phi'' on r > 0, or inf at a convex kink (phi'(0+) > 0).
    An assumption holds when its constant is finite.  Position-space kernels
    only (the Cucker-Smale coupling obeys different, quadratic bounds).
    """
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("validate_coupling applies to position-space kernels only")
    s = kernel.constants
    lip, growth, sc = s.sup_dphi, s.sup_phi, s.sup_d2phi if s.dphi0 <= 0 else np.inf
    oks = [bool(np.isfinite(c)) for c in (lip, growth, sc)]
    c0 = max(1.0, lip, growth, sc if oks[2] else 0.0)
    return CouplingValidationReport(float(c0), *oks, float(lip), float(growth), float(sc))


@dataclass(frozen=True)
class PsdVerdict:
    """k is PSD iff k^ >= 0 (Bochner): ``min_transform`` is the inf of k^ over xi >= 0, at ``xi_min`` (inf: approached)."""

    is_psd: bool
    min_transform: float
    xi_min: float

    @property
    def label(self) -> str:
        return "PSD" if self.is_psd else "NOT-PSD"


def psd_check(kernel) -> PsdVerdict:
    """The exact verdict from the infimum of k^(xi) = int k(x) e^{-i x xi} dx that the kernel states
    (``transform_inf``); a PSD kernel makes F = k * m monotone (Lasry-Lions), behind MFG uniqueness.
    Kernels with no closed-form transform (the tabulated crowd kernel, Cucker-Smale) raise TypeError."""
    inf = getattr(kernel, "transform_inf", None)
    if inf is None:
        raise TypeError(f"psd_check needs a closed-form Fourier transform, which {type(kernel).__name__} lacks")
    return PsdVerdict(bool(inf[0] >= 0.0), *inf)
