"""Interaction kernels, the nonlocal coupling F(x,m)=k*m, and validators.

This is the one place k*m and Dk*m are evaluated: ``_grid_sum`` by 1D
grid quadrature, ``_pair_sum`` over the atoms of an empirical measure.

The radial kernels (exponential, repulsive-attractive, Morse, tabulated
crowd kernel, zero) act on the line: value and gradient work elementwise
on 1D offsets of any shape, k(x) = phi(|x|) and Dk(x) = phi'(|x|) sign(x),
so Dk(0) = 0 at a kink.  Their pair sums take (nq,) queries and (N,) atoms.

``_pair_sum`` has two bodies.  Under a kernel whose profile is a sum of
exponentials, phi(r) = sum_k c_k exp(-a_k r) (exponential: one term;
Morse: two), it sorts the atoms and sums exactly in O(N log N) from
decayed prefix sums (``_sorted_pair_sum``).  Everything else -- the
repulsive-attractive, crowd and zero kernels, and fewer than
``_SORTED_MIN_ATOMS`` atoms or query points, where sorting costs more
than it saves -- goes through the dense (nq, N) offset array
(``_dense_pair_sum``), which also serves as the test oracle.  The
repulsive-attractive profile r exp(-a r) would need a two-term
recurrence.

The Cucker-Smale kernel acts on the line too, jointly on
position-velocity offsets of any shape, k(x,v) = v^2 / g(x) with
g(x) = (alpha + x^2)^beta elementwise; its weight is not radial in
(x, v) and not a sum of exponentials.  Its pair sums (the alignment
force, the energy and gradients of the MFG of acceleration, single-query
couplings) all go through ``_cs_pair_sum``, one pass over one set of
offsets.  An ensemble enters that side through ``_flock``, which
rejects one without velocities.  Atoms are on the line by construction
(``ParticleEnsemble``); free-form query points go through
``measures._line_points``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DimensionError
from .measures import GridDensity, ParticleEnsemble, _line_points


def _radial_value(kernel, x):
    """k(x) = phi(|x|) at 1D offsets x of any shape."""
    return kernel.phi(np.abs(np.asarray(x, dtype=float)))


def _radial_grad(kernel, x):
    """Dk(x) = phi'(|x|) sign(x) at 1D offsets x of any shape; sign(0) = 0 gives the
    kink convention Dk(0) = 0, as phi'(0) is finite for every radial kernel."""
    x = np.asarray(x, dtype=float)
    return kernel.dphi(np.abs(x)) * np.sign(x)


@dataclass(frozen=True)
class ExponentialKernel:
    """k(x) = alpha * exp(-a |x|); repulsive for alpha > 0."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    def phi(self, r):
        return self.alpha * np.exp(-self.a * np.asarray(r, dtype=float))

    def dphi(self, r):
        return -self.a * self.alpha * np.exp(-self.a * np.asarray(r, dtype=float))

    @property
    def _exp_terms(self):
        """(c_k, a_k) with phi(r) = sum_k c_k exp(-a_k r), for ``_sorted_pair_sum``."""
        return ((self.alpha, self.a),)

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class RepulsiveAttractiveKernel:
    """k(x) = -|x| exp(-a |x|); repulsion near 0, attraction beyond 1/a."""

    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return -r * np.exp(-self.a * r)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return (self.a * r - 1.0) * np.exp(-self.a * r)

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class MorseKernel:
    """k(x) = exp(-|x|) - G exp(-|x|/L); short-range repulsion, mid-range attraction."""

    G: float = 0.5
    L: float = 2.0

    def __post_init__(self):
        if not 0 < self.G < 1:
            raise ValueError("Morse kernel requires 0 < G < 1")
        if self.L <= 1:
            raise ValueError("Morse kernel requires L > 1")

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r) - self.G * np.exp(-r / self.L)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return -np.exp(-r) + (self.G / self.L) * np.exp(-r / self.L)

    @property
    def _exp_terms(self):
        """(c_k, a_k) with phi(r) = sum_k c_k exp(-a_k r), for ``_sorted_pair_sum``."""
        return ((1.0, 1.0), (-self.G, 1.0 / self.L))

    def equilibrium_gap(self) -> float:
        """Two-body equilibrium distance, the root of phi'."""
        return self.L / (self.L - 1.0) * np.log(self.L / self.G)

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
        r = np.asarray(self.r_knots, dtype=float)
        p = np.asarray(self.phi_values, dtype=float)
        object.__setattr__(self, "r_knots", r)
        object.__setattr__(self, "phi_values", p)
        if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
            raise ValueError("need at least 4 strictly increasing knots")
        if r[0] != 0.0:
            raise ValueError("knots must start at r = 0")
        object.__setattr__(self, "_spline", CubicSpline(r, p, bc_type="clamped"))
        r.setflags(write=False)
        p.setflags(write=False)

    @property
    def R(self) -> float:
        return float(self.r_knots[-1])

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, self.phi_values[-1], self._spline(np.minimum(r, self.R)))

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.R, 0.0, self._spline(np.minimum(r, self.R), 1))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class ZeroKernel:
    """k = 0; switches off the coupling."""

    def phi(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def dphi(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    value = _radial_value
    gradient = _radial_grad


@dataclass(frozen=True)
class CuckerSmaleKernel:
    """k(x, v) = v^2 / g(x) with communication weight g(x) = (alpha + x^2)^beta, elementwise on the line."""

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    def g(self, x):
        return (self.alpha + np.asarray(x, dtype=float) ** 2) ** self.beta

    def value(self, x, v):
        return np.asarray(v, dtype=float) ** 2 / self.g(x)

    @property
    def c0(self) -> float:
        """Certified constant: g >= 1/c0, F <= c0 (1+|v|^2+M2v),
        |D_x F| <= c0 F and |D_v F| <= c0 sqrt(F)."""
        inf_g = self.alpha**self.beta
        dg_over_g = self.beta / np.sqrt(self.alpha)
        return float(max(1.0, 2.0 / inf_g, dg_over_g, 2.0 / np.sqrt(inf_g)))


RADIAL_KERNELS = (
    ExponentialKernel,
    RepulsiveAttractiveKernel,
    MorseKernel,
    CrowdRadialKernel,
    ZeroKernel,
)


def _grid_matrix(kernel, xq, y, dx, gradient=False):
    """(len(xq), len(y)) quadrature matrix dx * k(xq_i - y_j), or dx * Dk(xq_i - y_j), in 1D."""
    diffs = np.asarray(xq, dtype=float)[:, None] - y
    return dx * (kernel.gradient(diffs) if gradient else kernel.value(diffs))


def _grid_sum(kernel, xq, m, gradient=False):
    """(k*m)(xq_i), or (Dk*m)(xq_i), by 1D quadrature; m is a GridDensity, or an
    (n_nodes, n) stack of cell values on the grid whose centres are xq (row per node)."""
    y, dx, values = (m.cell_centers, m.dx, m.values) if isinstance(m, GridDensity) else (xq, xq[1] - xq[0], m)
    return values @ _grid_matrix(kernel, xq, y, dx, gradient).T


#: below this many atoms, or query points, _pair_sum stays dense: the sort and
#: the scan cost a few dozen numpy calls whatever N is.  Per RK4 step of the
#: particle solver (as many queries as atoms), dense took 250-260 us and sorted
#: 386-422 us at 96 exponential atoms, 375-450 and 283-287 us at 112; for Morse
#: both took 465-529 us at 96 atoms.  One query against 600 atoms took 15-29 us
#: dense and 153-223 us sorted (2-core x86-64, numpy 2.4, best of 15, two runs)
_SORTED_MIN_ATOMS = 96


def _pair_sum(kernel, xq, pos, w, gradient=False):
    """sum_j w_j k(xq_i - pos_j), or sum_j w_j Dk(xq_i - pos_j), (nq,),
    for queries xq (nq,) and atoms pos (N,) on the line.

    Sorted and exact under a sum-of-exponentials profile, dense in the
    atoms otherwise.
    """
    if min(len(xq), len(pos)) >= _SORTED_MIN_ATOMS:
        terms = getattr(kernel, "_exp_terms", None)
        if terms is not None:
            return _sorted_pair_sum(terms, xq, pos, w, gradient)
    return _dense_pair_sum(kernel, xq, pos, w, gradient)


#: byte budget of one (nq, N) offset array in _dense_pair_sum; more queries go in chunks
_DENSE_PAIR_BYTES = 2**24


def _dense_pair_sum(kernel, xq, pos, w, gradient):
    """_pair_sum through (nq, N) arrays of offsets, chunked over the queries to
    _DENSE_PAIR_BYTES each: any radial kernel.

    np.sum reduces each query's row on its own, so a sum does not depend on
    how many queries share its chunk (a matrix-vector product ``@ w`` rounds
    differently with the number of rows).
    """
    rows = max(1, _DENSE_PAIR_BYTES // max(pos.nbytes, 1))
    if len(xq) > rows:
        parts = [_dense_pair_sum(kernel, xq[i : i + rows], pos, w, gradient) for i in range(0, len(xq), rows)]
        return np.concatenate(parts)
    diffs = xq[:, None] - pos
    return np.sum(w * (kernel.gradient(diffs) if gradient else kernel.value(diffs)), axis=-1)


def _sorted_pair_sum(terms, xq, pos, w, gradient):
    """_pair_sum in 1D for phi(r) = sum_k c_k exp(-a_k r), exact in O((N + nq) log N).

    With the atoms sorted, the left sum L_k(x) = sum_{p_j < x} w_j e^{-a_k (x - p_j)}
    is the decayed prefix sum at the last atom left of x times e^{-a_k d},
    d the distance to that atom; the right sum R_k mirrors it.  The value
    is sum_k c_k (L_k + R_k) plus phi(0) w for atoms at x itself (counted
    on the left at distance 0); the gradient sum_k -a_k c_k (L_k - R_k)
    leaves them out (Dk(0) = 0).  Every factor is e^{-a d} with d >= 0, so
    nothing overflows at any spread.
    """
    c, a = np.array(terms).T
    order = np.argsort(pos, kind="stable")
    p, ws, x = pos[order], w[order], xq
    n, nq, k = len(p), len(x), len(a)
    hi = np.searchsorted(p, x, "right")  # atoms right of x: p[hi:]
    last = np.searchsorted(p, x, "left") if gradient else hi  # atoms counted left of x: p[:last]
    padded = np.concatenate(([-np.inf], p, [np.inf]))
    # one exp for every factor: neighbour gaps, then x to its nearest counted atom on each side
    decay = np.exp(np.concatenate((np.diff(p), x - padded[last], padded[hi + 1] - x))[:, None] * -a)
    gaps = decay[: n - 1]
    # columns [:k] sum from the left, columns [k:] from the right (atoms reversed);
    # row m is the sum over the first m atoms, decayed to the m-th
    s = np.zeros((n + 1, 2 * k))
    f = np.zeros((n + 1, 2 * k))
    s[1:, :k], s[1:, k:] = ws[:, None], ws[::-1, None]
    f[2:, :k], f[2:, k:] = gaps, gaps[::-1]
    sums = _decayed_prefix(s, f)
    left = decay[n - 1 : n - 1 + nq] * sums[last, :k]
    right = decay[n - 1 + nq :] * sums[n - hi, k:]
    if gradient:
        return (left - right) @ (-a * c)
    return (left + right) @ c


def _decayed_prefix(s, f):
    """Column-wise S_i = s_i + f_i S_{i-1}, S_0 = s_0, in place by a log-depth doubling scan.

    f has the shape of s (f_0 unused) and entries in [0, 1], so the
    running products only shrink (or underflow to 0).
    """
    shift = 1
    while shift < len(s):
        s[shift:] += f[shift:] * s[:-shift]
        f[shift:] *= f[:-shift]
        shift *= 2
    return s


#: largest single pair offset array a Cucker-Smale pair sum may allocate, in bytes
PAIR_ARRAY_CAP = 2**28


def _pair_offsets(xq, vq, x, v):
    """xq_p - x_q and vq_p - v_q, each (nq, N, ...); raises before allocating past PAIR_ARRAY_CAP."""
    nbytes = xq.shape[0] * x.nbytes
    if nbytes > PAIR_ARRAY_CAP:
        raise ValueError(f"pair arrays of {nbytes} bytes each exceed the cap of {PAIR_ARRAY_CAP} bytes")
    return xq[:, None] - x[None, :], vq[:, None] - v[None, :]


def _cs_pair_sum(kernel, xq, vq, x, v, w, wq=None, grad_x=False, grad_v=False):
    """Cucker-Smale pair sums between query states xq, vq (nq, ...) and atoms x, v (N, ...) on the line.

    Returns, in this order and only those asked for: sum_pq wq_p w_q k
    (over the middle axes) when query weights wq are given, and
    sum_q w_q D_x k and sum_q w_q D_v k at every query, (nq, ...).
    The offsets are built once and g once (``kernel.g``); k = v^2 / g,
    D_x k = -v^2 2 beta (alpha + x^2)^(-beta-1) x and D_v k = 2 v / g
    round as their pointwise forms do, and each (nq, N, ...) buffer is
    reused in place or dropped once spent.
    """
    dx, dv = _pair_offsets(xq, vq, x, v)
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


def _flock(m):
    """Positions and velocities, each (N,), of a phase-space ensemble; every ensemble
    enters the Cucker-Smale side through here."""
    if not (isinstance(m, ParticleEnsemble) and m.is_phase_space):
        raise DimensionError("the Cucker-Smale side needs a phase-space ensemble")
    return m.points[:, 0], m.points[:, 1]


def _coupling(kernel, x, m, v, gradient):
    """Shared body of eval_coupling and grad_coupling at one query point on the line."""
    cs = isinstance(kernel, CuckerSmaleKernel)
    if cs and v is None:
        raise DimensionError("Cucker-Smale kernel needs a velocity argument")
    if not cs and v is not None:
        raise DimensionError("velocity argument only valid for the Cucker-Smale kernel")
    if not isinstance(m, (GridDensity, ParticleEnsemble)):
        raise TypeError(f"unsupported measure type {type(m)!r}")
    xq, vq = (_line_points(q, "the coupling") for q in (x, 0.0 if v is None else v))
    if xq.size != 1 or vq.size != 1:
        raise DimensionError(f"the coupling takes one query point, not {xq.size} positions and {vq.size} velocities")
    if cs:
        pos, vel = _flock(m)
        wq = None if gradient else np.ones(1)
        sums = _cs_pair_sum(kernel, xq, vq, pos, vel, m.weights, wq, gradient, gradient)
        return tuple(s.item() for s in sums) if gradient else sums[0].item()
    if isinstance(m, GridDensity):
        return _grid_sum(kernel, xq, m, gradient).item()
    return _pair_sum(kernel, xq, m.positions[:, 0], m.weights, gradient).item()


def eval_coupling(kernel, x, m, v=None):
    """F(x, m) = (k * m)(x), or F(x, v, m) for the Cucker-Smale kernel."""
    return _coupling(kernel, x, m, v, gradient=False)


def grad_coupling(kernel, x, m, v=None):
    """Analytic gradient of the coupling.

    Returns the float D_x F for the radial kernels and the pair of
    floats (D_x F, D_v F) for the Cucker-Smale kernel.
    """
    return _coupling(kernel, x, m, v, gradient=True)


@dataclass(frozen=True)
class CouplingValidationReport:
    """Sampled verification of the structural assumptions on F(x, m)."""

    c0: float
    lipschitz_ok: bool
    growth_ok: bool
    semiconcave_ok: bool
    lipschitz_constant: float
    growth_constant: float
    semiconcavity_constant: float
    witness: dict | None
    seed: int
    budget: int


#: a sampled constant above this cap is treated as "unbounded" (assumption fails)
VALIDATOR_CAP = 1e3
#: the validators and psd_check sample points from [-VALIDATOR_SPAN, VALIDATOR_SPAN]
VALIDATOR_SPAN = 5.0


def validate_coupling(kernel, budget: int = 2000, seed: int = 0) -> CouplingValidationReport:
    """Randomized sampling check of Lipschitz / growth / semiconcavity of F.

    A pass means "no counterexample at this budget"; the report records
    the seed and the tightest sampled constants.  Position-space kernels
    only (the Cucker-Smale coupling obeys different, quadratic bounds).
    """
    if isinstance(kernel, CuckerSmaleKernel):
        raise TypeError("validate_coupling applies to position-space kernels only")
    if budget < 1000:
        raise ValueError("budget must be at least 1000 sample triples")
    rng = np.random.default_rng(seed)
    span = VALIDATOR_SPAN
    # small random atomic measures in 1D; constants of radial kernels are
    # dimension-independent and extreme near coincident atoms
    ensembles = [
        ParticleEnsemble.equal_weights(rng.uniform(-span, span, size=rng.integers(1, 8)), 1)
        for _ in range(8)
    ]
    draws = np.empty((budget, 4))  # per draw, in the order of the rng stream: ensemble index, x, y, h
    for row in draws:
        i = rng.integers(len(ensembles))
        m = ensembles[i]
        # a quarter of the second differences centre on an atom: radial kernels
        # attain their extreme curvature ratios exactly at the kink
        x = m.positions[rng.integers(m.n), 0] if rng.random() < 0.25 else rng.uniform(-2 * span, 2 * span)
        y = rng.uniform(-2 * span, 2 * span)
        row[:] = i, x, y, rng.choice([1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0]) * rng.choice([-1.0, 1.0])
    i, x, y, h = draws.T
    f = np.stack([x, y, x + h, x - h], axis=1)  # the four queries of each draw, overwritten by F there
    for k, m in enumerate(ensembles):
        mine = i == k
        f[mine] = _pair_sum(kernel, f[mine].ravel(), m.positions[:, 0], m.weights).reshape(-1, 4)
    fx, fy, fp, fm = f.T
    far = np.abs(x - y) > 1e-9
    lip = np.max(np.abs(fx - fy)[far] / np.abs(x - y)[far], initial=-np.inf)
    growth = np.max(np.abs(fx) / (1.0 + np.abs(x)))
    ratio = (fp + fm - 2.0 * fx) / h**2
    worst = np.argmax(ratio)
    sc = ratio[worst]
    witness = None
    if sc > VALIDATOR_CAP:
        witness = {"x": float(x[worst]), "h": float(h[worst]), "second_difference_ratio": float(sc)}
    lipschitz_ok = lip <= VALIDATOR_CAP
    growth_ok = growth <= VALIDATOR_CAP
    semiconcave_ok = sc <= VALIDATOR_CAP
    c0 = max(1.0, lip, growth, sc if semiconcave_ok else 0.0)
    return CouplingValidationReport(
        c0=float(c0),
        lipschitz_ok=bool(lipschitz_ok),
        growth_ok=bool(growth_ok),
        semiconcave_ok=bool(semiconcave_ok),
        lipschitz_constant=float(lip),
        growth_constant=float(growth),
        semiconcavity_constant=float(sc),
        witness=witness,
        seed=seed,
        budget=budget,
    )


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of the Gram-matrix positive semidefiniteness probe."""

    is_psd: bool
    min_eigenvalue: float
    threshold: float
    points: np.ndarray

    @property
    def label(self) -> str:
        return "PSD-consistent" if self.is_psd else "NOT-PSD"


def psd_check(kernel, n_points: int = 64, seed: int = 0, points=None) -> PsdVerdict:
    """Eigenvalue test of the Gram matrix k(x_i - x_j) on points of the line,
    random ones or given ``points`` of shape (n,) or (n, 1); ``PsdVerdict.points`` is (n,).

    A negative eigenvalue below -1e-10 * ||K|| certifies that k is not a
    positive semidefinite kernel (so the MFG uniqueness/monotonicity
    structure is absent); otherwise the result is consistent with PSD.
    """
    if points is None:
        if not 2 <= n_points <= 512:
            raise ValueError("n_points must be in [2, 512]")
        rng = np.random.default_rng(seed)
        points = rng.uniform(-VALIDATOR_SPAN, VALIDATOR_SPAN, size=n_points)
    points = _line_points(points, "psd_check")
    gram = kernel.value(points[:, None] - points)
    eigs = np.linalg.eigvalsh(gram)
    threshold = -1e-10 * max(np.abs(eigs).max(), 1e-300)
    return PsdVerdict(
        is_psd=bool(eigs.min() >= threshold),
        min_eigenvalue=float(eigs.min()),
        threshold=float(threshold),
        points=points,
    )
