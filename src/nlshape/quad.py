"""Singular-integral engine.

Three layers live here:

* closed-form primitives of the kernel |x - y|^(-p) over intervals, and the
  principal-value combination of them at a boundary point of an interval
  union, where the one-sided divergences rho^(-s)/s cancel analytically;

* quadrature rules for the 2D boundary-reduced integrals. Area integrals of
  |y - x|^(-q) are converted to boundary integrals through
  div_y(|y - x|^(-q) (y - x)) = (n - q) |y - x|^(-q), which leaves curve
  integrals whose integrand behaves like |u|^(-sigma) * (analytic) near the
  target angle. Each half-side is integrated with a Gauss-Jacobi rule whose
  weight carries exactly that algebraic factor, so convergence is spectral.
  For target points off the curve the integrand is smooth and a dyadically
  graded Gauss-Legendre ladder toward the nearest angle is used instead;

* an independent brute-force oracle: globally adaptive interval bisection
  with a deterministic subdivision rule (split the worst interval at its
  midpoint, ties broken by insertion order). It shares no code with the
  closed-form or boundary-reduced paths; the package uses it for the 1D
  volume integrals of the identity checks, and the tests build their
  principal-value and 2D box oracles on it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GeometryError, ParamError, QuadratureError
from .sets import IntervalSet

__all__ = [
    "QuadTolerance", "OracleResult",
    "kernel_primitive", "interval_partition", "pv_at_endpoint",
    "pv_pair_integral", "brute_oracle",
    "jacobi_half_rule", "ladder_half_rule",
]


@dataclass(frozen=True)
class QuadTolerance:
    """Tolerance bundle for the oracle."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.rel_tol == 0 and self.abs_tol == 0:
            raise ValueError("at least one of rel_tol, abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


@dataclass(frozen=True)
class OracleResult:
    value: float
    error: float
    subdivisions: int

    def as_dict(self):
        return {"value": self.value, "error": self.error,
                "subdivisions": self.subdivisions}


# ---------------------------------------------------------------------------
# closed forms


def kernel_primitive(a: float, b: float, x: float, p: float) -> float:
    """int_a^b |x - y|^(-p) dy for x outside the open interval (a, b).

    p = 1 (the logarithmic case) is rejected, as are interior singular
    points; those must go through the PV path. Endpoint singularities
    (x == a or x == b) are allowed only for p < 1, where the improper
    integral converges.
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if p == 1.0:
        raise ValueError("log case unsupported: kernel exponent p = 1")
    if a < x < b:
        raise ValueError("singular interior point: use PV path")
    if x in (a, b) and p >= 1.0:
        raise ValueError(
            f"endpoint singularity diverges for p = {p} >= 1: use PV path"
        )
    if a == b:
        return 0.0
    q = 1.0 - p
    if x <= a:
        return ((b - x) ** q - (a - x) ** q) / q
    return ((x - a) ** q - (x - b) ** q) / q


def _halfline_primitive(g: float, s: float) -> float:
    # int_{g}^{inf} t^(-1-s) dt for g > 0
    return g ** (-s) / s


def _boundary_point(S: IntervalSet, x: float) -> Optional[float]:
    """The endpoint of S that x stands for, or None: the nearest endpoint,
    accepted within 1e-12 * max(1, |x|). The tolerance is local to x, so a
    far-away interval cannot widen it until two endpoints match. A
    non-finite x stands for no endpoint."""
    if not math.isfinite(x):
        return None
    # the first nearest endpoint, in the order a_1, b_1, a_2, b_2, ...
    e = min((e for ab in S.intervals for e in ab), key=lambda e: abs(e - x))
    if abs(e - x) <= 1e-12 * max(1.0, abs(x)):
        return e
    return None


def interval_partition(S: IntervalSet) -> list:
    """The partition of the line by the endpoints of S, from -inf to +inf:
    (lo, hi, sign) segments with lo < hi (the ends may be infinite), sign +1
    on the complement and -1 inside the set. Built once per set, it serves
    every endpoint of S (pv_at_endpoint)."""
    segs = [(-math.inf, S.intervals[0][0], +1.0)]
    for i, (a, b) in enumerate(S.intervals):
        segs.append((a, b, -1.0))
        nxt = S.intervals[i + 1][0] if i + 1 < len(S.intervals) else math.inf
        segs.append((b, nxt, +1.0))
    return segs


def pv_pair_integral(S: IntervalSet, x: float, s: float) -> float:
    """Principal value of int (chi_{complement} - chi_S)(y) |x - y|^(-1-s) dy
    at a boundary point x of the interval union S.

    x is resolved to the endpoint of S it stands for (_boundary_point) and
    the value is pv_at_endpoint over the partition of S.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    xb = _boundary_point(S, x)
    if xb is None:
        raise ValueError(f"x = {x!r} is not a boundary point of the interval set")
    return pv_at_endpoint(interval_partition(S), xb, s)


def pv_at_endpoint(segs: list, x: float, s: float) -> float:
    """pv_pair_integral at x, an endpoint of the partition segs
    (interval_partition), for s in (0, 1); neither is checked here.

    The two segments adjacent to x carry opposite indicator signs, so the
    rho^(-s)/s divergences of their one-sided integrals cancel; what is left
    is the closed form -(sigma_R L^(-s) + sigma_L M^(-s))/s in the adjacent
    lengths L, M (a half-line contributes 0). All other segments integrate
    the kernel without singularity.
    """
    total = 0.0
    sig_left = sig_right = None
    len_left = len_right = None
    for lo, hi, sig in segs:
        if hi == x:
            sig_left = sig
            len_left = x - lo  # may be inf
        elif lo == x:
            sig_right = sig
            len_right = hi - x
        else:
            # non-adjacent segment: plain kernel integral
            if lo == -math.inf:
                total += sig * _halfline_primitive(x - hi, s)
            elif hi == math.inf:
                total += sig * _halfline_primitive(lo - x, s)
            else:
                total += sig * kernel_primitive(lo, hi, x, 1.0 + s)
    # x is an endpoint of a sorted, disjoint, non-touching interval union, so
    # one set segment and one complement segment meet there; IntervalSet's
    # constructor guarantees it; a set that bypassed the constructor is
    # refused here
    if sig_left is None or sig_right is None or sig_left + sig_right != 0.0:
        raise GeometryError(
            f"x = {x!r} does not separate a set segment from a complement "
            "segment; the interval set is malformed")
    adj = 0.0
    if math.isfinite(len_right):
        adj += sig_right * len_right ** (-s)
    if math.isfinite(len_left):
        adj += sig_left * len_left ** (-s)
    total += -adj / s
    return total


# ---------------------------------------------------------------------------
# 2D boundary rules


@lru_cache(maxsize=128, typed=True)
def jacobi_half_rule(beta: float, nq: int):
    """Nodes u in (0, pi) and weights W with
    int_0^pi h(u) du ~= sum W_k h(u_k) for h(u) = u^beta * (analytic).

    The Gauss-Jacobi weight absorbs the algebraic factor; W already contains
    u^(-beta) so the rule applies to the raw integrand h. The cache is typed,
    so an nq of 16.0 or True reaches the check instead of a cached rule.

    Nodes and weights come from the eigen-decomposition of the Jacobi matrix
    of the weight (1 + t)^beta on (-1, 1) (Golub-Welsch): the weights are the
    squared first eigenvector components, accurate to about 1e-12 relative
    at nq = 256, where the Newton-polished rule of scipy's roots_jacobi
    carries 1e-10.
    """
    if isinstance(nq, bool) or not isinstance(nq, (int, np.integer)) or nq < 1:
        raise ParamError(f"nq must be a positive integer, got {nq!r}")
    if beta <= -1.0:
        raise ValueError(f"algebraic exponent beta must exceed -1, got {beta}")
    k = np.arange(1, nq, dtype=float)
    c = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)],
                           beta * beta / (c * (c + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2
                  / (c * c * (c + 1.0) * (c - 1.0)))
    t, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * vec[0] ** 2
    u = 0.5 * math.pi * (1.0 + t)
    W = (0.5 * math.pi) ** (beta + 1.0) * w * u ** (-beta)
    u.flags.writeable = False
    W.flags.writeable = False
    return u, W


@lru_cache(maxsize=64)
def ladder_half_rule(depth: int = 24, q: int = 12):
    """Composite Gauss-Legendre on (0, pi) with dyadic panels toward 0.

    For integrands smooth on (0, pi] but sharply peaked near 0 (boundary
    kernels seen from a point off the curve). The innermost panel reaches
    pi * 2^(-depth); the off-curve rule of functionals takes the depth from
    each target's distance to its focus point (up to 48 levels), so the
    cache holds a rule for every depth in use.
    """
    t, w = leggauss(q)
    us, ws = [], []
    hi = math.pi
    for _ in range(depth):
        lo = 0.5 * hi
        us.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        ws.append(0.5 * (hi - lo) * w)
        hi = lo
    us.append(0.5 * hi + 0.5 * hi * t)
    ws.append(0.5 * hi * w)
    u = np.concatenate(us[::-1])
    W = np.concatenate(ws[::-1])
    u.flags.writeable = False
    W.flags.writeable = False
    return u, W


# ---------------------------------------------------------------------------
# brute-force oracle


_GL_COARSE = leggauss(8)
_GL_FINE = leggauss(16)


def _panel_estimates(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xc = mid + half * _GL_COARSE[0]
    xf = mid + half * _GL_FINE[0]
    ic = half * float(_GL_COARSE[1] @ np.asarray(f(xc), dtype=float))
    ifine = half * float(_GL_FINE[1] @ np.asarray(f(xf), dtype=float))
    return ifine, abs(ifine - ic)


def _adaptive_1d(f, a, b, tol: QuadTolerance, budget=None):
    """Globally adaptive bisection on [a, b]; deterministic refinement order.

    Returns (value, error_bound, n_subdivisions). The integrand is evaluated
    on arrays of interior Gauss nodes, so endpoint singularities are never
    sampled at the endpoint itself.
    """
    if budget is None:
        budget = tol.max_subdivisions
    val, err = _panel_estimates(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total = val
    total_err = err
    count = 0
    seq = 1
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total)) and count < budget:
        neg, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel_estimates(f, lo, mid)
        v2, e2 = _panel_estimates(f, mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1)); seq += 1
        heapq.heappush(heap, (-e2, seq, mid, hi, v2, e2)); seq += 1
        count += 1
    total = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    return total, total_err, count


def _segments_of(region):
    """Normalize a 1D region to finite segments plus mapped infinite tails.

    Returns a list of (transformed_f_wrapper, lo, hi) factories applied to an
    integrand; infinite tails are mapped through y = 1/u onto finite panels.
    """
    if isinstance(region, IntervalSet):
        return [(float(a), float(b)) for a, b in region.intervals]
    seq = list(region)
    if len(seq) == 2 and np.isscalar(seq[0]):
        return [(float(seq[0]), float(seq[1]))]
    return [(float(a), float(b)) for a, b in seq]


def _integrate_segment(f, lo, hi, tol, budget):
    """One segment, with substitution y = 1/u for an infinite end."""
    if math.isinf(lo) and math.isinf(hi):
        v1, e1, c1 = _integrate_segment(f, lo, 0.0, tol, budget)
        v2, e2, c2 = _integrate_segment(f, 0.0, hi, tol, budget)
        return v1 + v2, e1 + e2, c1 + c2
    if math.isinf(hi):
        if lo <= 0.0:
            v1, e1, c1 = _integrate_segment(f, lo, max(lo, 1.0), tol, budget)
            v2, e2, c2 = _integrate_segment(f, max(lo, 1.0), hi, tol, budget)
            return v1 + v2, e1 + e2, c1 + c2
        def g(u):
            u = np.asarray(u, dtype=float)
            return np.asarray(f(1.0 / u), dtype=float) / (u * u)
        return _adaptive_1d(g, 0.0, 1.0 / lo, tol, budget)
    if math.isinf(lo):
        def fneg(y):
            return np.asarray(f(-np.asarray(y, dtype=float)), dtype=float)
        return _integrate_segment(fneg, -hi, math.inf, tol, budget)
    return _adaptive_1d(f, lo, hi, tol, budget)


def _oracle_1d(f, region, tol: QuadTolerance):
    segs = _segments_of(region)
    budget = max(1, tol.max_subdivisions // max(1, len(segs)))
    vals, errs, cnt = [], [], 0
    for lo, hi in segs:
        v, e, c = _integrate_segment(f, lo, hi, tol, budget)
        vals.append(v)
        errs.append(e)
        cnt += c
    return math.fsum(vals), math.fsum(errs), cnt


def brute_oracle(integrand: Callable, region, tol: QuadTolerance = QuadTolerance(),
                 full_output: bool = False):
    """Adaptive bisection estimate of a 1D integral, for checking other paths.

    region: an IntervalSet, a (lo, hi) pair (ends may be +-inf), or a list of
    such pairs.

    Raises QuadratureError (carrying the best estimate) when the subdivision
    budget is exhausted before the tolerance is met.
    """
    value, err, cnt = _oracle_1d(integrand, region, tol)
    if err > max(tol.abs_tol, tol.rel_tol * abs(value)) * 8.0 + 1e-300:
        raise QuadratureError(
            f"oracle did not converge: error bound {err:g} for estimate {value:g}",
            estimate=value, error_bound=err)
    result = OracleResult(value=value, error=err, subdivisions=cnt)
    return result if full_output else result.value
