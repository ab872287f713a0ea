"""Energy functionals and boundary fields.

The energy under study is

    F_eps(E) = P_s(E) + eps * R_alpha(E)

with the fractional perimeter P_s(E) = int_E int_{E^c} |x-y|^(-n-s) dx dy
and the Riesz repulsion R_alpha(E) = int_E int_E |x-y|^(-alpha) dx dy. The
boundary fields are the potential V(x) = int_E |x-y|^(-alpha) dy, its
gradient, the fractional curvature

    kappa(x) = PV int (chi_{E^c} - chi_E)(y) |x-y|^(-n-s) dy,

and the boundary condition combination zeta = kappa + 2 eps V, the first
variation of F_eps (2 V is the first variation of R_alpha, whose double
integral is symmetric).

1D values are closed forms in the first and second differences of powers
of quad: kappa and V at the endpoints are quad's endpoint fields, and P_s
and R_alpha are one pair sum (_pair_sum_1d). 2D values use the
divergence-reduced boundary quadrature from quad: with q = n + s resp.
q = alpha,

    kappa(x)  = (2/s)        PV int_dE (y-x).nu(y) |y-x|^(-2-s)   dsigma(y)
    V(x)      = 1/(2-alpha)     int_dE (y-x).nu(y) |y-x|^(-alpha) dsigma(y)
    grad V(x) = -               int_dE nu(y)       |y-x|^(-alpha) dsigma(y)
    P_s(E)    = 1/s^2      int int |x-y|^(-s)      nu(x).nu(y) dsigma dsigma
    R_alpha   = -1/(2-alpha)^2 int int |x-y|^(2-alpha) nu(x).nu(y) ...

Every public function accepts an IntervalSet, a Ball or a StarShape2D,
resolves the kernel of the shape (_kernel), validates its parameters (an
exponent by sets._require_real: s in (0, 1), and alpha in (0, n), or in
(0, n - 1) where grad V meets the boundary, for the dimension n of the
kernel's geometry) and calls the kernel. The kernel holds the shape's
canonical form (sets.canonical, which refuses anything else with
GeometryError: a 1D ball as its interval set, a planar ball as a
constant-radius star shape) in the one kernel class of that geometry
(_IntervalKernel, _StarKernel), whose methods are those of _Kernel. The
package computes in n in {1, 2} (sets._require_dimension refuses any other
Params or ball), so every geometry has its kernel. What a kernel has no
algorithm for, and the planar-only functions on a non-planar shape, are
refused with GeometryError. Each 2D value is one Gauss-Jacobi (on the
curve) or graded-ladder (off the curve) sum per target.

Each of the six 2D quantities, kappa, V, grad V, grad V . tau, P_s and
R_alpha, is one _Field (_kappa_field, _potential_field, _grad_field,
_grad_tau_field, _perimeter_field, _riesz_field): its exponent beta, its
integrands on a block's nodes and the map from their sums to its value.
Both rules take the entry as it stands: _curve_batch on the curve (the
sweeps of boundary_fields, both energy terms and the on-curve point
queries, whose target is the boundary point at its focus angle) and, for V
and grad V, _ladder_batch off it.
Consecutive fields at one beta share a block's nodes in _curve_batch:
kappa and the integrand of P_s are summed on the same nodes at
beta = -s, V and that of R_alpha at beta = 2 - alpha, so boundary_fields
carries P_s and R_alpha with the bits of frac_perimeter and riesz_energy.
A sweep takes no switches and always holds the same fields, so a star
shape or an interval set keeps its sweep per (Params, resolution, nq)
(_sweep; boundary_fields itself keeps nothing). grad V . tau is not a
sweep field: its one owner is _grad_tau_field (tangential_grad_potential
at a single point), one sum at beta = -alpha.

On the curve the geometry is in polar difference form. With
A_k(t) = a_k cos kt + b_k sin kt and
B_k(t) = b_k cos kt - a_k sin kt at the targets, a node phi = t + u has

    Delta = r(phi) - r(t) = sum_k A_k (cos ku - 1) + B_k sin ku,
    D     = Delta - r'(phi) sin u,
    |y - x|^2                = Delta^2 + 4 r(t) r(phi) sin^2(u/2),
    (y - x).nu(y) |y'(phi)| = r(t) D + Delta^2 + 2 r(t) r(phi) sin^2(u/2),

so a block of targets is one contraction of (A | B) with u-tables that
depend only on (beta, nq, K), kept in a small read-only cache. A target
costs K sin/cos pairs instead of 2 nq K, and no nearby positions are
subtracted, so the O(u^2) numerators keep their relative accuracy at every
nq and the nq-vs-2nq differences that diagnose reports measure truncation.
Off the curve each target x is written in the polar frame of its focus
theta, rho_e = (x - c).e(theta) and rho_perp = (x - c).e(theta)^perp, and a
node phi = theta + u of the dyadic ladder has r(phi) and r'(phi) from the
same A_k(theta), B_k(theta) against u-tables cached per (depth, K), so

    y - x          = (r(phi) cos u - rho_e, r(phi) sin u - rho_perp),
    nu(y) |y'(phi)| = (r(phi) cos u + r'(phi) sin u,
                       r(phi) sin u - r'(phi) cos u)

in that frame, with no sin or cos per node. The ladder depth comes from the
target's distance to its focus point, ceil(log2(pi / gap)) + 4 levels with
gap = |x - y(theta)| / |y'(theta)|, and the targets run grouped by depth.
Both paths hand the integrands nodes with the same flux(), normal_parts()
and r2, so V and grad V have one integrand each, and grad V is rotated back
from the focus frame. Targets run in equal blocks of about _BLOCK_NODES =
2^13 quadrature nodes (sets._blocks) on the curve (_curve_batch) and off it
(_ladder_sums), whose working arrays then stay in a core's L2 cache: that
block size is within about 12% of the fastest on both paths, and it cut a
sweep's traced peak at 1024/96 from 6.2 MB (2^16 nodes) to 0.9 MB. The
working arrays of a sweep or a batch stay bounded in the mesh size m and in
the number of targets, and a target's sum is the same whatever batch or
block it falls in. A sweep's four fields share each block's mode sums, r and r'
(one _curve_batch, one contraction per exponent).

The whole-boundary functionals, sweeps and set integrals take the mesh
resolution; the point queries use no mesh and take only the keyword nq. A
planar point query resolves x once (_planar_target): on the curve or not,
and its focus, the polar angle about the center. Points of another
dimension than the shape's (and batches whose foci do not match their
points one to one), non-finite planar points and foci, and NaN points on
the line are refused with GeometryError; at +-inf the 1D potential is its
limit 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import GeometryError, ParamError
from .quad import (_boundary_point, _endpoint_fields, _first_diff,
                   _pair_second_diff, graded_radial_rule, jacobi_half_rule,
                   ladder_half_rule, pv_pair_integral)
from .sets import (BoundaryMesh, IntervalSet, Params, StarShape2D,
                   boundary_mesh, canonical, mesh_angles, volume, _blocks,
                   _per_shape, _require_count, _require_real, _MIN_RESOLUTION)

__all__ = [
    "EnergyBreakdown", "frac_perimeter", "riesz_energy", "energy",
    "potential", "grad_potential", "tangential_grad_potential",
    "frac_curvature", "zeta", "boundary_fields",
    "set_integral_2d", "potential_at_points", "grad_potential_at_points",
    "DEFAULT_NQ", "DEFAULT_RESOLUTION",
]

DEFAULT_NQ = 48          # Gauss-Jacobi nodes per half-side
DEFAULT_RESOLUTION = 256
_ON_CURVE_RTOL = 1e-9
# quadrature nodes per block of targets in _curve_batch and _ladder_sums, and
# per block of rays in set_integral_2d: 2^13 doubles, 64 KB an array, so a
# block's working arrays stay in a core's L2 cache (see _curve_batch and
# _ladder_sums for the timings behind it)
_BLOCK_NODES = 1 << 13
# the interior rule's ray doubling starts at the first level of at least
# _RAYS_PER_MODE (kmax + 1) rays and stops once two levels agree to
# _RAY_RTOL. The audit workload's shapes (5% modes 2-5, 256/48, alpha 0.5,
# seeds 1-25) all stop at 128 of 256 rays, within 1 ulp of all 256; 15%
# shapes, which 10 (kmax + 1) rays missed by up to 5.8e-9, take all m
_RAYS_PER_MODE = 20
_RAY_RTOL = 1e-13
# why alpha stays below n - 1 where V's gradient meets the boundary: on the
# curve, in planar Au1 and in TangentialBall
_BOUNDARY_GRADIENT = "the boundary gradient of V converges only for alpha < n - 1"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its two terms, with the eps weighting applied."""

    perimeter_term: float
    riesz_term: float
    eps: float

    @property
    def total(self) -> float:
        return self.perimeter_term + self.eps * self.riesz_term


# ---------------------------------------------------------------------------
# 1D closed forms


def _pair_sum_1d(S: IntervalSet, q: float) -> float:
    """sum_i 2 L_i^q + 2 sum_{i<j} _pair_second_diff(q, g_ij, L_i, L_j) over
    the interval lengths L_i and gaps g_ij of S. Over a constant it is P_s
    (q = 1 - s) and R_alpha (q = 2 - alpha)."""
    ivals = S.intervals
    own = math.fsum(2.0 * (b - a) ** q for a, b in ivals)
    cross = math.fsum(_pair_second_diff(q, c - b, b - a, d - c)
                      for i, (a, b) in enumerate(ivals)
                      for c, d in ivals[i + 1:])
    return own + 2.0 * cross


def _riesz_1d(S: IntervalSet, alpha: float) -> float:
    return _pair_sum_1d(S, 2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))


def _coordinates(x, n: int) -> np.ndarray:
    """A point query's x as a flat float array, refused (GeometryError)
    unless it has the n coordinates of its shape's dimension."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise GeometryError(f"the point {x.tolist()} does not lie in dimension {n}")
    return x


def _point_1d(x) -> float:
    """A 1D point query's x, a number or one coordinate, as a float. Any
    other number of coordinates and NaN are refused; +-inf stands for the
    point at infinity, where V and its gradient have the limit 0."""
    x = float(_coordinates(x, 1)[0])
    if math.isnan(x):
        raise GeometryError(f"point must not be NaN, got {x!r}")
    return x


def _potential_1d(S: IntervalSet, x: float, alpha: float) -> float:
    q = 1.0 - alpha
    acc = []
    for a, b in S.intervals:
        if a < x < b:
            acc.append(((x - a) ** q + (b - x) ** q) / q)
        else:
            acc.append(_first_diff(q, a - x if x <= a else x - b, b - a))
    return math.fsum(acc)


def _grad_self_moment(a: float, b: float, alpha: float) -> float:
    # int_a^b x [(x-a)^(-alpha) - (b-x)^(-alpha)] dx: the own-interval part
    # of int x V' is endpoint singular, so it goes in closed form
    return (b - a) ** (2.0 - alpha) * (2.0 / (2.0 - alpha) - 1.0 / (1.0 - alpha))


def _grad_pair_moment(g: float, L1: float, L2: float, alpha: float) -> float:
    """int_I x V_J' dx + int_J x V_I' dx, I of length L1 left of J of
    length L2 at gap g. As int_I V_J' + int_J V_I' = 0 the sum does not
    depend on the origin, so x is measured from the left end of J. With D_k
    the second difference of F_k(t) = t^(k-alpha) / (k-alpha) over the pair
    and Delta(t; h) = F_1(t + h) - F_1(t) the first difference _first_diff,
    it is 2 D_2 - L2 Delta(g + L2; L1) - L1 Delta(g + L1; L2) - g D_1."""
    q = 1.0 - alpha
    d1 = _pair_second_diff(q, g, L1, L2) / q
    d2 = _pair_second_diff(1.0 + q, g, L1, L2) / (1.0 + q)
    return math.fsum((2.0 * d2, -L2 * _first_diff(q, g + L2, L1),
                      -L1 * _first_diff(q, g + L1, L2), -g * d1))


# ---------------------------------------------------------------------------
# 2D boundary-reduced quadrature


def _planar_target(star: StarShape2D, x):
    """(x as a 2-vector, whether x lies on the curve, its focus angle as a
    1-array) for a point query. The focus is the polar angle of x about the
    center, which on the curve is x's parameter angle. An x of another
    number of coordinates, or not finite, is refused."""
    x = _coordinates(x, 2)
    if not np.isfinite(x).all():
        raise GeometryError(f"point must be finite, got {x.tolist()}")
    dx = x[0] - star.center[0]
    dy = x[1] - star.center[1]
    focus = np.array([math.atan2(dy, dx)])
    r_curve = float(star.radius(focus)[0])
    on_curve = abs(math.hypot(dx, dy) - r_curve) <= _ON_CURVE_RTOL * max(1.0, r_curve)
    return x, on_curve, focus


def _finite_batch(pts, foci):
    """pts and foci as float arrays, refused unless pts is (m, 2), foci (m,)
    and every entry finite."""
    pts, foci = np.asarray(pts, dtype=float), np.asarray(foci, dtype=float)
    if not (pts.ndim == 2 and pts.shape == foci.shape + (2,)
            and np.isfinite(pts).all() and np.isfinite(foci).all()):
        raise GeometryError("points and foci must be finite, (m, 2) and (m,), "
                            f"got shapes {pts.shape} and {foci.shape}")
    return pts, foci


# Taylor terms of the D tables below their cutoff (k + 1) |u| <= 1: the
# first omitted term is below 1e-25 of the leading one
_SERIES_TERMS = 12


@functools.lru_cache(maxsize=None)
def _d_series_mode(k):
    """Taylor coefficients of the two D rows of mode k, as (even, odd) with
    rows sum_n even[n-1] u^(2n) and sum_n odd[n-1] u^(2n+1), n = 1..N.

    By the product formulas cos ku - 1 + k sin ku sin u and
    sin ku - k cos ku sin u are combinations of cos resp. sin of ku, (k - 1)u
    and (k + 1)u with integer weights, so each coefficient is an exact
    integer over a factorial; the cancelling low orders never reach floats.
    A mode's rows do not depend on K, so each is built once per process."""
    even, odd = [], []
    for n in range(1, _SERIES_TERMS + 1):
        e, o = 2 * n, 2 * n + 1
        ce = k ** e + k * ((k - 1) ** e - (k + 1) ** e) // 2
        co = k ** o - k * ((k + 1) ** o - (k - 1) ** o) // 2
        even.append((-1) ** n * ce / math.factorial(e))
        odd.append((-1) ** n * co / math.factorial(o))
    return tuple(even), tuple(odd)


def _d_series(K):
    """The rows of _d_series_mode for the modes k = 1..K, as (even, odd)
    (K, N) arrays."""
    rows = [_d_series_mode(k) for k in range(1, K + 1)]
    shape = (K, _SERIES_TERMS)
    return (np.array([e for e, _ in rows], dtype=float).reshape(shape),
            np.array([o for _, o in rows], dtype=float).reshape(shape))


def _series(coefs, u):
    """sum_n coefs[:, n - 1] u^(2n), n = 1..N, one row per mode (Horner)."""
    u2 = u * u
    acc = np.zeros((coefs.shape[0], u.size))
    for n in range(coefs.shape[1] - 1, -1, -1):
        acc = (acc + coefs[:, n, None]) * u2
    return acc


@functools.lru_cache(maxsize=16, typed=True)
def _u_tables(beta, nq, K):
    """The shape-independent tables of the on-curve rule at the 2 nq signed
    offsets u = (u_j, -u_j) of jacobi_half_rule(beta, nq), read-only:

    T, (2K, 6 nq): the rows of the A block, then of the B block, and the
      columns [Delta | r'(phi) | D], so that (A | B) T gives the three:
        A rows  cos ku - 1,  -k sin ku,  cos ku - 1 + k sin ku sin u;
        B rows  sin ku,       k cos ku,  sin ku - k cos ku sin u;
    then sin^2(u / 2), sin u, cos u and the weights, each of length 2 nq.

    The D rows vanish like u^2 (A) and u^3 (B), so below (k + 1) |u| = 1
    they come from their Taylor series; cos ku - 1 is -2 sin^2(ku / 2).
    Every entry is formed in double precision, so the tables do not depend
    on the platform's long double. The cache is typed: nq = 16.0 is refused."""
    u, W = jacobi_half_rule(beta, nq)
    u = np.concatenate([u, -u])
    k = np.arange(1.0, K + 1.0)[:, None]
    ku = k * u
    sku, cku, su = np.sin(ku), np.cos(ku), np.sin(u)
    cm1 = -2.0 * np.sin(0.5 * ku) ** 2
    small = (k + 1.0) * np.abs(u) <= 1.0
    even, odd = _d_series(K)
    da = np.where(small, _series(even, u), cm1 + k * sku * su)
    db = np.where(small, _series(odd, u) * u, sku - k * cku * su)
    tables = (np.concatenate([np.concatenate([cm1, -k * sku, da], axis=1),
                              np.concatenate([sku, k * cku, db], axis=1)]),
              np.sin(0.5 * u) ** 2, su, np.cos(u), np.concatenate([W, W]))
    for arr in tables:
        arr.flags.writeable = False
    return tables


class _CurveNodes(NamedTuple):
    """The on-curve geometry of a block of targets x = x(t) and their nodes
    y = y(phi), phi = t + u: r(t) and r'(t) as (rows, 1) columns;
    Delta = r(phi) - r(t), r(phi), r'(phi), D = Delta - r'(phi) sin u and
    |y - x|^2 as (rows, 2 nq) arrays; the offset rows sin^2(u / 2), sin u
    and cos u."""

    r: np.ndarray
    dr: np.ndarray
    delta: np.ndarray
    rp: np.ndarray
    drp: np.ndarray
    d: np.ndarray
    r2: np.ndarray
    sig: np.ndarray
    su: np.ndarray
    cu: np.ndarray

    def flux(self):
        """(y - x).nu(y) |y'(phi)| = r(t) D + Delta^2 + 2 r(t) r(phi)
        sin^2(u/2): O(u^2), from terms that are each O(u^2). A new array,
        summed left to right as written."""
        f = self.r * self.d
        f += self.delta * self.delta
        t = (2.0 * self.r) * self.rp
        t *= self.sig
        f += t
        return f

    def normal_parts(self):
        """nu(y) |y'(phi)| in the frame e(t), e(t) turned a quarter
        counterclockwise, as new arrays."""
        ne = self.rp * self.cu
        ne += self.drp * self.su
        np_ = self.rp * self.su
        np_ -= self.drp * self.cu
        return ne, np_


def _rows_times(a, T):
    """a @ T with one BLAS call per row of a. A row's result then depends
    only on that row and T, so a target's sums are the same bits in any
    batch or block; each output is one dot product, which no thread count
    splits. The weight sums stay einsum: a BLAS dot splits long rows across
    threads."""
    return np.matmul(a[:, None, :], T)[:, 0, :]


def _mode_sums(star, angles, kk):
    """A_k(t) = a_k cos kt + b_k sin kt and B_k(t) = b_k cos kt - a_k sin kt
    of the star shape at the given angles, for the modes kk = 1..K, as two
    (angles, K) arrays."""
    kt = np.multiply.outer(angles, kk)
    ck, sk = np.cos(kt), np.sin(kt)
    return star.a * ck + star.b * sk, star.b * ck - star.a * sk


def _curve_batch(star, thetas, nq, *fields):
    """The value of each _Field of fields at the boundary points at the
    angles thetas, as a list: the sums W_k h(u_k) of the field's integrands
    by the Gauss-Jacobi rule at its beta, which carries the u^beta factor,
    turned into the value by its of.

    The geometry is in polar difference form. With A_k(t) = a_k cos kt +
    b_k sin kt and B_k(t) = b_k cos kt - a_k sin kt, the node values
    r(t + u) - r(t), r'(t + u) and D are sums over the modes of A_k and B_k
    against the u-tables of _u_tables (one contraction per block and beta),
    and |y - x|^2 = Delta^2 + 4 r(t) r(phi) sin^2(u/2). A target costs K
    sin/cos pairs, not 2 nq K, and no position difference y - x is formed,
    so the O(u^2) numerators keep their relative accuracy as the nodes crowd
    toward u = 0. Every field shares a block's A_k, B_k, r(t) and r'(t), and
    consecutive fields at one beta share its nodes, so a sweep (kappa, P_s,
    V, R_alpha) makes one contraction per exponent and block. Each field's
    integrands are summed before the next field builds its own.

    The targets run in the blocks of sets._blocks at a budget of
    _BLOCK_NODES = 2^13 nodes, so the (rows, 2 nq) arrays of a block take
    about 64 KB each and stay in a core's L2 cache, and memory is bounded in
    the target count. On the first seed-101 descent shape a sweep (both
    exponents) took 2.6-3.4 / 2.2-2.5 / 1.9-2.1 / 1.7-2.0 / 2.4-2.8 /
    2.4-2.8 ms at 256/48 and 23 / 17-18 / 15-16 / 14-15 / 14-15 / 20-21 ms
    at 1024/96 with blocks of 2^11 / 2^12 / ... / 2^16 nodes (timeit,
    medians of nine interleaved rounds, two runs), and
    its traced peak at 1024/96 read 0.3 / 0.5 / 0.9 / 1.6 / 3.0 / 5.8 MB:
    2^13 is within about 12% of the fastest at a third of 2^15's peak.
    """
    K = star.kmax
    kk = np.arange(1.0, K + 1.0)
    n = thetas.shape[0]
    sums = [np.empty((f.ncomp, n)) for f in fields]
    # the tables (and the refusal of a bad nq) come before the first block
    runs = [(_u_tables(beta, nq, K), list(run)) for beta, run in
            groupby(zip(fields, sums), key=lambda pair: pair[0].beta)]
    for rows in _blocks(n, 2 * nq, _BLOCK_NODES):
        A, B = _mode_sums(star, thetas[rows], kk)
        ab = np.concatenate([A, B], axis=1)
        r = star.r0 + A.sum(axis=1, keepdims=True)
        dr = (kk * B).sum(axis=1, keepdims=True)
        for (T, sig, su, cu, WW), run in runs:
            G = _rows_times(ab, T)
            cols = WW.size
            delta, drp, d = G[:, :cols], G[:, cols:2 * cols], G[:, 2 * cols:]
            rp = r + delta
            # Delta^2 + 4 r(t) r(phi) sin^2(u/2), the sum in either order
            r2 = (4.0 * r) * rp
            r2 *= sig
            r2 += delta * delta
            nodes = _CurveNodes(r=r, dr=dr, delta=delta, rp=rp, drp=drp, d=d,
                                r2=r2, sig=sig, su=su, cu=cu)
            for field, out in run:
                out[:, rows] = [np.einsum("ij,j->i", v, WW)
                                for v in field.h(nodes)]
    return [f.of(out[0] if f.ncomp == 1 else out, thetas)
            for f, out in zip(fields, sums)]


# ladder depth: dyadic levels beyond the one that reaches a target's scaled
# distance to its focus point, and the most levels any target gets
_LADDER_MARGIN = 4
_LADDER_CAP = 48


@functools.lru_cache(maxsize=64)
def _ladder_tables(depth, K):
    """The shape-independent tables of the off-curve rule at the 2n signed
    offsets u = (u_j, -u_j) of ladder_half_rule(depth), read-only: T, the
    (2K, 2n) rows cos ku, then sin ku, for k = 1..K, so that with
    A_k(theta), B_k(theta) at the focus

        r(theta + u) - r0 = (A | B) T,    r'(theta + u) = (k B | -k A) T;

    then cos u, sin u and the weights, each of length 2n."""
    u, W = ladder_half_rule(depth)
    u = np.concatenate([u, -u])
    ku = np.arange(1.0, K + 1.0)[:, None] * u
    tables = (np.concatenate([np.cos(ku), np.sin(ku)]), np.cos(u), np.sin(u),
              np.concatenate([W, W]))
    for arr in tables:
        arr.flags.writeable = False
    return tables


class _LadderNodes(NamedTuple):
    """The off-curve geometry of a block of targets x and their nodes
    y = y(phi), phi = theta + u about each target's focus theta, in the frame
    e(theta), e(theta) turned a quarter counterclockwise: r(phi) cos u,
    r(phi) sin u, r'(phi), the parts of y - x and |y - x|^2 as (rows, 2n)
    arrays; the offset rows cos u and sin u."""

    rc: np.ndarray
    rs: np.ndarray
    drp: np.ndarray
    de: np.ndarray
    dp: np.ndarray
    r2: np.ndarray
    cu: np.ndarray
    su: np.ndarray

    def flux(self):
        """(y - x).nu(y) |y'(phi)|."""
        ne, np_ = self.normal_parts()
        ne *= self.de
        np_ *= self.dp
        ne += np_
        return ne

    def normal_parts(self):
        """nu(y) |y'(phi)| in the frame of the focus, as new arrays."""
        ne = self.drp * self.su
        ne += self.rc
        np_ = self.drp * self.cu
        np.subtract(self.rs, np_, out=np_)
        return ne, np_


class _FocusFrame(NamedTuple):
    """Each target in the polar frame of its focus theta: (A | B) and
    (k B | -k A) at theta as (targets, 2K) arrays, x - c along e(theta) and
    along e(theta) turned a quarter counterclockwise, and the ladder depth."""

    ab: np.ndarray
    dab: np.ndarray
    rho_e: np.ndarray
    rho_p: np.ndarray
    depth: np.ndarray


def _focus_frame(star, targets_xy, focus_angles):
    """The _FocusFrame of a batch of targets. The depth is
    ceil(log2(pi / gap)) + _LADDER_MARGIN, clamped to 1.._LADDER_CAP, with
    gap = |x - y(theta)| / |y'(theta)|: the innermost panel, pi 2^-depth,
    then lies below a sixteenth of the angle over which the integrand
    varies."""
    kk = np.arange(1.0, star.kmax + 1.0)
    A, B = _mode_sums(star, focus_angles, kk)
    c, s = np.cos(focus_angles), np.sin(focus_angles)
    x = targets_xy[:, 0] - star.center[0]
    y = targets_xy[:, 1] - star.center[1]
    rho_e = x * c + y * s
    rho_p = y * c - x * s
    r = star.r0 + A.sum(axis=1)
    gap = np.hypot(r - rho_e, rho_p) / np.hypot(r, (kk * B).sum(axis=1))
    with np.errstate(divide="ignore"):
        levels = np.ceil(np.log2(math.pi / gap))
    depth = np.clip(levels + _LADDER_MARGIN, 1, _LADDER_CAP).astype(int)
    return _FocusFrame(np.concatenate([A, B], axis=1),
                       np.concatenate([kk * B, -kk * A], axis=1),
                       rho_e, rho_p, depth)


def _ladder_sums(star, frame, depth, field):
    """The sums W_k h(u_k) of the integrands of field (a _Field) over the
    ladder of the given depth for the targets of frame (a _FocusFrame), as
    a (ncomp, targets) array. The node values r(theta + u) and
    r'(theta + u) are contractions with the table of _ladder_tables, and
    y - x = (r cos u - rho_e, r sin u - rho_p) in the focus frame, so no
    node costs a sin or cos. r cos u and r sin u are formed once and shared
    by y - x and the normal parts, and the arrays are reused in place where
    nothing else reads them; every float op keeps its operands and their
    order, so the sums keep their bits.

    The targets run in the blocks of sets._blocks at a budget of
    _BLOCK_NODES = 2^13 nodes, as in _curve_batch: the ten or so (rows, 2n)
    arrays live in a block then take about 64 KB each and stay in a core's
    2 MB L2 cache, which 512 KB arrays (2^16) spill. On the Au1 integral of
    the seed-101 audit
    (4096 targets at resolution 256) timeit read 47 / 41 / 47 / 57 / 70 ms
    at 2^12 / 2^13 / 2^14 / 2^15 / 2^16 nodes (medians of five rounds);
    smaller blocks pay more per-block overhead."""
    T, cu, su, WW = _ladder_tables(int(depth), star.kmax)
    n = frame.ab.shape[0]
    out = np.empty((field.ncomp, n))
    for rows in _blocks(n, WW.size, _BLOCK_NODES):
        rp = _rows_times(frame.ab[rows], T)
        rp += star.r0
        drp = _rows_times(frame.dab[rows], T)
        rc = rp * cu
        rs = np.multiply(rp, su, out=rp)
        de = rc - frame.rho_e[rows, None]
        dp = rs - frame.rho_p[rows, None]
        r2 = de * de
        r2 += dp * dp
        nodes = _LadderNodes(rc=rc, rs=rs, drp=drp, de=de, dp=dp, r2=r2,
                             cu=cu, su=su)
        out[:, rows] = [np.einsum("ij,j->i", v, WW) for v in field.h(nodes)]
    return out


def _ladder_batch(star, targets_xy, focus_angles, field):
    """The value of field (a _Field) at targets off the curve: the sums of
    its integrands over the dyadic ladder of ladder_half_rule about each
    target's focus, turned into the value by field.of.

    Each target takes its depth from its distance to the focus point
    (_focus_frame), and the targets run grouped by depth. A target's sum
    depends only on the target, so it is the same whatever batch it falls
    in."""
    frame = _focus_frame(star, targets_xy, focus_angles)
    out = np.empty((field.ncomp, targets_xy.shape[0]))
    # np.bincount rather than np.unique, which on integer input imports
    # numpy.ma (about 1.6 MB of RSS and 15 ms) on first use
    for depth in np.flatnonzero(np.bincount(frame.depth)):
        idx = np.flatnonzero(frame.depth == depth)
        part = _FocusFrame(*(arr[idx] for arr in frame))
        out[:, idx] = _ladder_sums(star, part, depth, field)
    return field.of(out[0] if field.ncomp == 1 else out, focus_angles)


class _Field(NamedTuple):
    """One boundary-reduced quantity, the entry that both rules take. beta
    is the exponent of the on-curve rule (and, for an energy term, the power
    q of its pair integral int_dE int_dE |x - y|^q nu(x).nu(y) dsigma
    dsigma); h builds the ncomp integrands from a block's _CurveNodes (or,
    for V and grad V, _LadderNodes); of(sums, thetas) turns the sums,
    (targets,) or (ncomp, targets), into the value at the target angles or
    foci thetas."""

    beta: float
    h: Callable
    ncomp: int
    of: Callable


def _flux_h(g, power):
    """g.flux() * g.r2 ** power, formed in the flux's new array."""
    f = g.flux()
    f *= g.r2 ** power
    return f


def _pair_h(g, q):
    """The pair integral's integrand at the curve targets x(t),
    |y - x|^q nu(x).nu(y) |x'(t)| |y'(phi)|, with
    nu(x).nu(y) |x'(t)| |y'(phi)| = r(t) Y_e - r'(t) Y_perp from the normal
    parts of y, formed in their arrays."""
    ye, yp = g.normal_parts()
    ye *= g.r
    yp *= g.dr
    ye -= yp
    ye *= g.r2 ** (q / 2.0)
    return ye


def _pair_field(q, energy_of):
    """The energy term energy_of(pair) of the pair integral at the power q,
    whose outer rule is the trapezoid rule on the target angles (the mesh
    angles)."""
    return _Field(q, lambda g: (_pair_h(g, q),), 1, lambda sums, thetas:
                  energy_of((2.0 * math.pi / thetas.size) * math.fsum(sums)))


def _kappa_field(s) -> _Field:
    """kappa, at beta = -s."""
    return _Field(-s, lambda g: (_flux_h(g, -(2.0 + s) / 2.0),), 1,
                  lambda sums, thetas: (2.0 / s) * sums)


def _perimeter_field(s) -> _Field:
    """P_s, at beta = -s."""
    return _pair_field(-s, lambda pair: pair / (s * s))


def _potential_field(alpha) -> _Field:
    """V, at beta = 2 - alpha."""
    q = 2.0 - alpha
    return _Field(q, lambda g: (_flux_h(g, -alpha / 2.0),), 1,
                  lambda sums, thetas: sums / q)


def _riesz_field(alpha) -> _Field:
    """R_alpha, at beta = 2 - alpha."""
    q = 2.0 - alpha
    return _pair_field(q, lambda pair: -pair / q ** 2)


def _grad_field(alpha) -> _Field:
    """grad V, one row per target, at beta = -alpha: the sums are in the
    frame e(theta), e(theta)^perp of each focus, and of rotates them back."""
    def h(g):
        kern = g.r2 ** (-alpha / 2.0)
        ne, np_ = g.normal_parts()
        ne *= kern
        np_ *= kern
        return ne, np_

    def of(sums, thetas):
        c, s = np.cos(thetas), np.sin(thetas)
        return -np.stack([sums[0] * c - sums[1] * s,
                          sums[0] * s + sums[1] * c], axis=1)
    return _Field(-alpha, h, 2, of)


def _grad_tau_field(alpha) -> _Field:
    """grad V . tau on the curve, at beta = -alpha, as one sum: the normal
    parts of the nodes against x'(t) / |x'(t)|, where
    x'(t) = r'(t) e(t) + r(t) e(t)^perp. Its callers hold alpha in
    (0, n - 1), where the sum converges."""
    def h(g):
        ye, yp = g.normal_parts()
        ye *= g.dr
        yp *= g.r
        ye += yp
        ye *= g.r2 ** (-alpha / 2.0)
        ye /= np.sqrt(g.r * g.r + g.dr * g.dr)
        return (ye,)
    return _Field(-alpha, h, 1, lambda sums, thetas: -sums)


# ---------------------------------------------------------------------------
# one kernel per geometry


@dataclass(frozen=True)
class BoundaryFields:
    """Per-node boundary data for one shape (kappa, V and zeta at the mesh
    nodes), with its two energy terms: P_s (perimeter) and R_alpha (riesz),
    the values of frac_perimeter and riesz_energy at the same resolution and
    nq, from one _curve_batch over the fields _kappa_field, _perimeter_field,
    _potential_field and _riesz_field. grad V . tau is not a sweep field:
    its one owner is _grad_tau_field, behind tangential_grad_potential (one
    point) and the TangentialBall check (the mesh nodes)."""

    mesh: BoundaryMesh
    kappa: np.ndarray
    pot: np.ndarray
    zeta: np.ndarray
    perimeter: float
    riesz: float

    def __post_init__(self):
        for arr in (self.kappa, self.pot, self.zeta):
            arr.flags.writeable = False

    def lambda_hat_and_residual(self):
        """Weighted boundary mean of zeta and the sup-norm residual against
        it. The mean is the orthogonal projection of zeta onto constants, so
        no other multiplier gives a smaller weighted-L2 defect."""
        w = self.mesh.weights
        lam = math.fsum(w * self.zeta) / math.fsum(w)
        return lam, float(np.abs(self.zeta - lam).max())


class _Kernel:
    """The base of the kernel classes, each of which defines the
    algorithms that serve one canonical geometry S: sweep (mesh,
    kappa, V, P_s, R_alpha; the one sweep, which a caller that needs kappa
    and P_s alone reads at eps = 0), perimeter and riesz (the energy per
    exponent), curvature, potential and grad_potential (the point queries),
    au1_lhs (int_E x . grad V dx) and lal_max (max V over the Lal probe
    cloud, and V_B(0) of the centered ball B with |B| = |S|). planar marks
    the kernel of the planar shapes."""

    planar = False

    def __init__(self, S):
        self.S = S


class _IntervalKernel(_Kernel):
    """An interval set: the closed forms and endpoint fields of quad. They
    read no mesh, but the energies refuse the resolutions a planar shape
    refuses, so every entry takes the same knob on every geometry (the
    sweeps and Au1 reach the perimeter's check)."""

    def sweep(self, p: Params, resolution, nq):
        S = self.S
        mesh = boundary_mesh(S, resolution)  # the endpoints, in order
        kap, pot = map(np.array, _endpoint_fields(S.intervals, p.s, 1.0 - p.alpha))
        return (mesh, kap, pot, self.perimeter(p.s, resolution, nq),
                _riesz_1d(S, p.alpha))

    def perimeter(self, s, resolution, nq) -> float:
        _require_count("resolution", resolution, _MIN_RESOLUTION)
        return _pair_sum_1d(self.S, 1.0 - s) / (s * (1.0 - s))

    def riesz(self, alpha, resolution, nq) -> float:
        _require_count("resolution", resolution, _MIN_RESOLUTION)
        return _riesz_1d(self.S, alpha)

    def curvature(self, x, s, nq) -> float:
        return pv_pair_integral(self.S, _point_1d(x), s)

    def potential(self, x, alpha, nq) -> float:
        x = _point_1d(x)
        return 0.0 if math.isinf(x) else _potential_1d(self.S, x, alpha)

    def grad_potential(self, x, alpha, nq) -> np.ndarray:
        x = _point_1d(x)
        if _boundary_point(self.S, x) is not None:
            raise ParamError(
                "potential gradient diverges at a 1D boundary point for every "
                f"alpha > 0 (alpha = {alpha}); evaluate off the boundary")
        return np.array([math.fsum(abs(x - a) ** (-alpha) - abs(x - b) ** (-alpha)
                                   for a, b in self.S.intervals)])

    def au1_lhs(self, alpha, resolution, nq) -> float:
        """The closed-form _grad_self_moment of each interval plus
        _grad_pair_moment of each pair, not -alpha times the cross Riesz
        terms, so the Au1 check stays two-sided."""
        ivals = self.S.intervals
        return math.fsum(
            [_grad_self_moment(a, b, alpha) for a, b in ivals]
            + [_grad_pair_moment(c - b, b - a, d - c, alpha)
               for i, (a, b) in enumerate(ivals) for c, d in ivals[i + 1:]])

    def lal_max(self, alpha, nq, count, rng):
        # probes uniform on the hull of S padded by half its length
        S = self.S
        vb0 = 2.0 * (0.5 * volume(S)) ** (1.0 - alpha) / (1.0 - alpha)
        lo, hi = S.intervals[0][0], S.intervals[-1][1]
        pad = 0.5 * (hi - lo)
        pts = rng.uniform(lo - pad, hi + pad, size=(count, 1))
        return max(_potential_1d(S, float(x[0]), alpha) for x in pts), vb0


class _StarKernel(_Kernel):
    """A star shape: the boundary-reduced quadrature, on the curve by the
    Gauss-Jacobi rule and off it by the graded ladder."""

    planar = True

    def sweep(self, p: Params, resolution, nq):
        mesh = boundary_mesh(self.S, resolution)
        # R_alpha converges for alpha < 2, which planar Params (_kernel) have
        kap, per, pot, rz = _curve_batch(
            self.S, mesh.thetas, nq, _kappa_field(p.s), _perimeter_field(p.s),
            _potential_field(p.alpha), _riesz_field(p.alpha))
        return mesh, kap, pot, per, rz

    def perimeter(self, s, resolution, nq) -> float:
        return _curve_batch(self.S, mesh_angles(resolution), nq,
                            _perimeter_field(s))[0]

    def riesz(self, alpha, resolution, nq) -> float:
        return _curve_batch(self.S, mesh_angles(resolution), nq,
                            _riesz_field(alpha))[0]

    def curvature(self, x, s, nq) -> float:
        x, on_curve, focus = _planar_target(self.S, x)
        if not on_curve:
            raise GeometryError(f"x = {x.tolist()} is not on the boundary")
        # the target is snapped onto the curve: frame(focus), not x itself
        return float(_curve_batch(self.S, focus, nq, _kappa_field(s))[0][0])

    def potential(self, x, alpha, nq) -> float:
        x, on_curve, focus = _planar_target(self.S, x)
        field = _potential_field(alpha)
        if on_curve:
            return float(_curve_batch(self.S, focus, nq, field)[0][0])
        return float(_ladder_batch(self.S, x[None, :], focus, field)[0])

    def grad_potential(self, x, alpha, nq) -> np.ndarray:
        x, on_curve, focus = _planar_target(self.S, x)
        field = _grad_field(alpha)
        if on_curve:
            _require_real("alpha", alpha, f"(0, {self.S.n - 1})",
                          why=_BOUNDARY_GRADIENT)
            return _curve_batch(self.S, focus, nq, field)[0][0]
        return _ladder_batch(self.S, x[None, :], focus, field)[0]

    def au1_lhs(self, alpha, resolution, nq) -> float:
        """The interior rule of set_integral_2d on grad V . x, which
        resolves the boundary layer of grad V only below n - 1."""
        _require_real("alpha", alpha, f"(0, {self.S.n - 1})",
                      why=_BOUNDARY_GRADIENT)

        def gv_dot_x(pts, foci):
            g = grad_potential_at_points(self.S, pts, foci, alpha, nq)
            return (g * pts).sum(1)
        return set_integral_2d(self.S, gv_dot_x, resolution)

    def lal_max(self, alpha, nq, count, rng):
        # probes uniform on the square about the center of half-side 1.5 max r
        star = self.S
        R = (volume(star) / math.pi) ** 0.5
        vb0 = 2.0 * math.pi * R ** (2.0 - alpha) / (2.0 - alpha)
        rmax = float(star._grid(star._dense_size())[2].max())
        pts = np.asarray(star.center) + rng.uniform(-1.5 * rmax, 1.5 * rmax,
                                                    size=(count, 2))
        foci = np.arctan2(pts[:, 1] - star.center[1], pts[:, 0] - star.center[0])
        return float(potential_at_points(star, pts, foci, alpha, nq).max()), vb0


# the kernel class of each canonical geometry: the one place that decides
# which algorithms serve which geometry. canonical makes every ball one of
# these two
_KERNELS = {IntervalSet: _IntervalKernel, StarShape2D: _StarKernel}


def _kernel(S, p: Optional[Params] = None, nq=None) -> _Kernel:
    """The kernel of canonical(S), which refuses non-geometries. Params p,
    where given, must have the dimension of S as n: the one check of Params
    against a geometry (ParamError). nq, where given, is refused as every
    entry's (_require_count), also where the kernel reads none."""
    if nq is not None:
        _require_count("nq", nq, 1)
    C = canonical(S)
    if p is not None and p.n != C.n:
        raise ParamError(f"params have n = {p.n}, but the {type(S).__name__} "
                         f"lies in dimension {C.n}")
    return _KERNELS[type(C)](C)


def _as_star(S, nq=None) -> StarShape2D:
    """The canonical star shape of S, for the planar-only functions (nq as
    in _kernel)."""
    k = _kernel(S, nq=nq)
    if not k.planar:
        raise GeometryError(
            f"2D boundary quadrature needs a star shape or planar ball, got {type(k.S).__name__}")
    return k.S


# ---------------------------------------------------------------------------
# public functionals


def frac_perimeter(S, s: float, resolution: int = DEFAULT_RESOLUTION,
                   nq: int = DEFAULT_NQ) -> float:
    """Fractional perimeter P_s(E)."""
    k = _kernel(S, nq=nq)
    s = _require_real("s", s, "(0, 1)")
    return k.perimeter(s, resolution, nq)


def riesz_energy(S, alpha: float, resolution: int = DEFAULT_RESOLUTION,
                 nq: int = DEFAULT_NQ) -> float:
    """Riesz repulsion int_E int_E |x - y|^(-alpha)."""
    k = _kernel(S, nq=nq)
    alpha = _require_real("alpha", alpha, f"(0, {k.S.n})")
    return k.riesz(alpha, resolution, nq)


def energy(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
           nq: int = DEFAULT_NQ) -> EnergyBreakdown:
    """Both energy terms. The riesz term is computed even at eps = 0 so the
    breakdown is informative; the total weights it by eps."""
    _kernel(S, p)  # refuses Params of another dimension
    per = frac_perimeter(S, p.s, resolution, nq)
    rz = riesz_energy(S, p.alpha, resolution, nq)
    return EnergyBreakdown(perimeter_term=per, riesz_term=rz, eps=p.eps)


def potential(S, x, alpha: float, *, nq: int = DEFAULT_NQ) -> float:
    """Riesz potential V_E(x) = int_E |x - y|^(-alpha) dy, any x."""
    k = _kernel(S, nq=nq)
    alpha = _require_real("alpha", alpha, f"(0, {k.S.n})")
    return k.potential(x, alpha, nq)


def grad_potential(S, x, alpha: float, *, nq: int = DEFAULT_NQ) -> np.ndarray:
    """Gradient of the potential, as a vector, for alpha in (0, n) off the
    boundary. At boundary points this is the one-sided improper integral,
    which requires alpha in (0, n - 1); outside that range the call is
    refused rather than regularized."""
    k = _kernel(S, nq=nq)
    alpha = _require_real("alpha", alpha, f"(0, {k.S.n})")
    return k.grad_potential(x, alpha, nq)


def tangential_grad_potential(S, x, alpha: float, *,
                              nq: int = DEFAULT_NQ) -> float:
    """grad V . tau at a boundary point of a planar shape."""
    star = _as_star(S, nq)
    alpha = _require_real("alpha", alpha, f"(0, {star.n - 1})",
                          why=_BOUNDARY_GRADIENT)
    x, on_curve, focus = _planar_target(star, x)
    if not on_curve:
        raise GeometryError(f"x = {x.tolist()} is not on the boundary")
    return float(_curve_batch(star, focus, nq, _grad_tau_field(alpha))[0][0])


def frac_curvature(S, x, s: float, *, nq: int = DEFAULT_NQ) -> float:
    """Fractional mean curvature at a boundary point x (PV integral).

    Sign convention: positive on boundaries of convex sets.
    """
    k = _kernel(S, nq=nq)
    s = _require_real("s", s, "(0, 1)")
    return k.curvature(x, s, nq)


def zeta(S, x, p: Params, *, nq: int = DEFAULT_NQ) -> float:
    """Boundary combination kappa + 2 eps V at a boundary point."""
    _kernel(S, p)  # refuses Params of another dimension
    k = frac_curvature(S, x, p.s, nq=nq)
    if p.eps == 0.0:
        return k
    return k + 2.0 * p.eps * potential(S, x, p.alpha, nq=nq)


# ---------------------------------------------------------------------------
# whole-boundary sweeps


def boundary_fields(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
                    nq: int = DEFAULT_NQ) -> BoundaryFields:
    """kappa, V and zeta at every mesh node, and P_s and R_alpha. On a
    planar shape kappa and P_s share the on-curve nodes at beta = -s, V
    and R_alpha those at beta = 2 - alpha; on an interval set the
    energy terms are the closed forms. The sweep takes no switches, so one
    sweep of a shape serves every caller at the same (Params, resolution,
    nq)."""
    mesh, kap, pot, per, rz = _kernel(S, p, nq).sweep(p, resolution, nq)
    return BoundaryFields(mesh=mesh, kappa=kap, pot=pot,
                          zeta=kap + 2.0 * p.eps * pot,
                          perimeter=per, riesz=rz)


@_per_shape
def _sweep(S, p: Params, resolution, nq) -> BoundaryFields:
    """boundary_fields(S, p, resolution, nq), kept on a star shape or an
    interval set: the sweep that diagnose, the descent and the diagnostics
    read."""
    return boundary_fields(S, p, resolution, nq)


# ---------------------------------------------------------------------------
# interior integrals over 2D sets (identity checks)


def set_integral_2d(star, f_batch, resolution: int = DEFAULT_RESOLUTION):
    """int_E f dx on a star shape via a polar tensor rule.

    f_batch(points, focus_angles) must accept (m, 2) points and return m
    values; focus_angles carries each point's ray angle so boundary-kernel
    evaluations can grade toward the nearest boundary patch.

    The radial rule is graded toward the boundary: t = 1 - (1 - tau)^3 with
    tau Gauss-Legendre on (0, 1) and the weight 3 (1 - tau)^2
    (quad.graded_radial_rule, built once per order). The nodes
    crowd toward t = 1 like (1 - tau)^3, and the d^(1 - alpha) boundary
    layer of grad V (d the distance to the boundary) enters as a
    (1 - tau)^(5 - 3 alpha) term, which the Gauss rule resolves at every
    alpha in (0, 1); the exponent 3 does not depend on alpha. The order,
    max(12, resolution // 16), grows with the angular resolution, so
    refining the mesh refines the whole rule.

    The rays are angles of the resolution-m mesh, at most m of them, chosen
    by nested doubling: level R takes every (m / R)-th mesh angle, from the
    first level m / 2^j of at least _RAYS_PER_MODE (kmax + 1) rays whose
    half is a level too. The trapezoid rule over rays converges geometrically
    in R for an integrand as smooth in the angle as the shape, so the value
    I_R is returned once |I_R - I_{R/2}| <= _RAY_RTOL |I_R|, I_{R/2} read
    from the even rays of level R; otherwise only the R rays in between are
    evaluated and R doubles. At R = m the value is the math.fsum of every
    mesh ray's terms. An integrand with angular detail far finer than the
    shape's modes can pass the test on too few rays.

    f_batch runs on the blocks of whole rays of sets._blocks at a budget
    of _BLOCK_NODES nodes, so memory stays bounded in the resolution; every
    block's terms feed one math.fsum, whose correctly rounded sum does not
    depend on the blocks.
    """
    star = _as_star(star)
    th = mesh_angles(resolution)
    m = th.size
    q_radial = max(12, m // 16)
    t, wt = graded_radial_rule(q_radial)
    cs, sn, r, _ = star._grid(m)

    def blocks(rays):
        # nodes x = center + (t * r) e(theta), weights (2 pi / m) r^2 t dt
        # dtheta, on the mesh rays `rays`: one row of terms a ray
        for cut in _blocks(rays.size, q_radial, _BLOCK_NODES):
            ray = rays[cut]
            rad = np.multiply.outer(r[ray], t)
            pts = np.stack([star.center[0] + rad * cs[ray, None],
                            star.center[1] + rad * sn[ray, None]], axis=-1)
            vals = f_batch(pts.reshape(-1, 2), np.repeat(th[ray], q_radial))
            w = np.multiply.outer((2.0 * math.pi / m) * (r[ray] * r[ray]),
                                  t * wt)
            yield np.asarray(vals, dtype=float).reshape(w.shape) * w

    def total(parts):
        return math.fsum(chain.from_iterable(p.ravel().tolist() for p in parts))

    levels = m
    while levels % 4 == 0 and levels // 2 >= _RAYS_PER_MODE * (star.kmax + 1):
        levels //= 2
    stride = m // levels
    if stride == 1:  # every ray at once: the blocks stream into one fsum
        return total(blocks(np.arange(m)))
    # a level R sum is stride * fsum of its terms, stride = m / R a power of
    # two, so at stride 1 it is the all-rays fsum bit for bit
    kept = [np.concatenate(list(blocks(np.arange(0, m, stride))))]
    half, value = 2 * stride * total(kept[0][::2]), stride * total(kept)
    while stride > 1 and abs(value - half) > _RAY_RTOL * abs(value):
        stride //= 2
        kept.extend(blocks(np.arange(stride, m, 2 * stride)))
        half, value = value, stride * total(kept)
    return value


def potential_at_points(star, pts, foci, alpha: float, nq: int = DEFAULT_NQ):
    """V at interior/exterior points, batched (smooth ladder path), for
    alpha in (0, 2). nq is refused as every entry's, though the ladder
    reads none."""
    star = _as_star(star, nq)
    alpha = _require_real("alpha", alpha, f"(0, {star.n})")
    pts, foci = _finite_batch(pts, foci)
    return _ladder_batch(star, pts, foci, _potential_field(alpha))


def grad_potential_at_points(star, pts, foci, alpha: float, nq: int = DEFAULT_NQ):
    """grad V at off-boundary points, batched, for alpha in (0, 2) (nq as
    in potential_at_points)."""
    star = _as_star(star, nq)
    alpha = _require_real("alpha", alpha, f"(0, {star.n})")
    pts, foci = _finite_batch(pts, foci)
    return _ladder_batch(star, pts, foci, _grad_field(alpha))
