"""Singular-integral engine.

Two layers live here:

* closed forms on the line: the first difference ((g + h)^q - g^q) / q,
  the kernel |x - y|^(q-1) over a segment of length h at distance g, and
  the second difference that every interval pair integral reduces to, both
  formed without subtracting nearly equal powers; from them, the endpoint
  fields of an interval union, which quad owns: V and the principal value
  kappa, whose one-sided divergences rho^(-s)/s cancel analytically;

* quadrature rules for the 2D boundary-reduced integrals. Area integrals of
  |y - x|^(-q) are converted to boundary integrals through
  div_y(|y - x|^(-q) (y - x)) = (n - q) |y - x|^(-q), which leaves curve
  integrals whose integrand behaves like |u|^(-sigma) * (analytic) near the
  target angle. Each half-side is integrated with a Gauss-Jacobi rule whose
  weight carries exactly that algebraic factor, so convergence is spectral.
  For target points off the curve the integrand is smooth and a dyadically
  graded Gauss-Legendre ladder toward the nearest angle is used instead.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import GeometryError
from .sets import IntervalSet, canonical, _require_count, _require_real

__all__ = [
    "pv_pair_integral", "jacobi_half_rule", "ladder_half_rule",
    "graded_radial_rule",
]


# ---------------------------------------------------------------------------
# closed forms


def _first_diff(q: float, g: float, h: float) -> float:
    """((g + h)^q - g^q) / q = int_g^(g+h) t^(q-1) dt for g, h >= 0, q != 0,
    as g^q (exp(q log1p(h / g)) - 1) / q with the exponential less one in
    one call, which does not cancel for h << g. Where h / g is not finite
    (g = 0, a half-line h = inf with q < 0, a subnormal g) the powers do not
    cancel either, and are subtracted as they stand."""
    r = h / g if g > 0.0 else math.inf
    if r < math.inf:
        return g ** q * math.expm1(q * math.log1p(r)) / q
    return ((g + h) ** q - g ** q) / q


def _endpoint_index(S: IntervalSet, x: float) -> Optional[int]:
    """The index, in the order a_1, b_1, a_2, b_2, ..., of the endpoint of S
    that x stands for, or None: the first nearest endpoint, accepted within
    1e-12 * max(1, |x|). The tolerance is local to x, so a far-away interval
    cannot widen it until two endpoints match. A non-finite x stands for no
    endpoint."""
    if not math.isfinite(x):
        return None
    ends = [e for ab in S.intervals for e in ab]
    j = min(range(len(ends)), key=lambda j: abs(ends[j] - x))
    return j if abs(ends[j] - x) <= 1e-12 * max(1.0, abs(x)) else None


def _boundary_point(S: IntervalSet, x: float) -> Optional[float]:
    """The endpoint of S that x stands for (_endpoint_index), or None."""
    j = _endpoint_index(S, x)
    return None if j is None else S.intervals[j // 2][j % 2]


def _partition(intervals: tuple) -> list:
    """The partition of the line by the endpoints of sorted, disjoint,
    non-touching intervals, from -inf to +inf: (lo, hi, sign) segments with
    lo < hi (the ends may be infinite), sign +1 on the complement and -1
    inside the set. Segment j ends at endpoint j (a_1, b_1, a_2, ...)."""
    segs = [(-math.inf, intervals[0][0], +1.0)]
    for i, (a, b) in enumerate(intervals):
        segs.append((a, b, -1.0))
        nxt = intervals[i + 1][0] if i + 1 < len(intervals) else math.inf
        segs.append((b, nxt, +1.0))
    return segs


def pv_pair_integral(S, x: float, s: float) -> float:
    """Principal value of int (chi_{complement} - chi_S)(y) |x - y|^(-1-s) dy
    at a boundary point x of the set S on the line (an IntervalSet or a 1D
    ball, as its interval set): the kappa of _endpoint_pass at the index of
    the endpoint that x stands for. Anything else, and a gap or interval
    whose length^(-s) overflows, raises GeometryError."""
    C = canonical(S)
    if C.n != 1:
        raise GeometryError("the principal value covers sets on the line, "
                            f"got a {type(S).__name__} in dimension {C.n}")
    s = _require_real("s", s, "(0, 1)")
    j = _endpoint_index(C, x)
    if j is None:
        raise GeometryError(f"x = {x!r} is not a boundary point of the interval set")
    segs = _partition(C.intervals)
    try:
        return _endpoint_pass(segs, j, s, None)[0]
    except OverflowError:
        raise _too_short(segs, s) from None


def _endpoint_fields(intervals: tuple, s: float, q: float):
    """(kappa, V) over the endpoints a_1, b_1, a_2, ... of an IntervalSet's
    intervals, for q = 1 - alpha: one partition of the line, then one
    _endpoint_pass per endpoint, so symmetric endpoints agree only if their
    values do. Bit for bit, kappa is pv_pair_integral and V the 1D
    potential at the endpoint."""
    segs = _partition(intervals)  # segment j ends at endpoint j
    kap, pot = [], []
    try:
        for j in range(len(segs) - 1):
            k, v = _endpoint_pass(segs, j, s, q)
            kap.append(k)
            pot.append(v)
    except OverflowError:
        raise _too_short(segs, s) from None
    return tuple(kap), tuple(pot)


def _too_short(segs: list, s: float) -> GeometryError:
    """The refusal of an overflowed endpoint pass: only a power L^(-s) of a
    length L can overflow, and the segments next to an endpoint are no
    longer than its distance to any other, so it names the shortest one."""
    lo, hi, sig = min(segs[1:-1], key=lambda seg: seg[1] - seg[0])
    return GeometryError(
        f"the {'gap' if sig > 0.0 else 'interval'} ({lo!r}, {hi!r}) is too "
        f"short for s = {s!r}: its length^(-s) overflows the float range")


def _endpoint_pass(segs: list, j: int, s: float, q: Optional[float]):
    """(kappa, V) at x, the endpoint where segment j of the partition segs
    ends and segment j + 1 begins, in one pass over the other segments:
    kappa the principal value of pv_pair_integral, V for q = 1 - alpha the
    sum of _first_diff(q, .) over the set segments at their distance from x
    (None for q = None, which skips it). The index names the two adjacent
    segments, so no segment end is tested for equality with x.

    The two segments adjacent to x carry opposite indicator signs, so the
    rho^(-s)/s divergences of their one-sided integrals cancel; what is left
    is the closed form -(sigma_R L^(-s) + sigma_L M^(-s))/s in the adjacent
    lengths L, M (a half-line contributes 0). All other segments integrate
    the kernel without singularity, each by the first difference
    _first_diff(-s, g, h) formed in the loop with the same operations; a
    set segment among them serves kappa and V from one log1p(h / g). Where
    h / g is not finite (a half-line, a subnormal gap) both take
    _first_diff's other branch, the powers subtracted as they stand.
    """
    left, right = segs[j], segs[j + 1]
    lo, x, sig_left = left
    _, hi, sig_right = right
    len_left, len_right = x - lo, hi - x  # either may be inf
    # the adjacent set segment adds _first_diff(q, 0, h) = h^q / q (q > 0)
    pot = None if q is None else [
        (len_left if sig_left < 0.0 else len_right) ** q / q]
    ms = -s
    total = 0.0
    for seg in segs:
        if seg is left or seg is right:
            continue
        # a non-adjacent segment at distance g, a half-line with h = inf
        a, b, sig = seg
        g = a - x if x < a else x - b
        h = b - a
        r = h / g if g > 0.0 else math.inf
        if r < math.inf:
            lg = math.log1p(r)
            total += sig * (g ** ms * math.expm1(ms * lg) / ms)
            if pot is not None and sig < 0.0:
                pot.append(g ** q * math.expm1(q * lg) / q)
        else:
            total += sig * (((g + h) ** ms - g ** ms) / ms)
            if pot is not None and sig < 0.0:
                pot.append(((g + h) ** q - g ** q) / q)
    adj = 0.0
    if math.isfinite(len_right):
        adj += sig_right * len_right ** (-s)
    if math.isfinite(len_left):
        adj += sig_left * len_left ** (-s)
    total += -adj / s
    return total, (None if pot is None else math.fsum(pot))


# (2k, (2k+1)(2k+2)) for k = 1..59, exact in floats
_SERIES_K = tuple((2.0 * k, (2.0 * k + 1.0) * (2.0 * k + 2.0))
                  for k in range(1, 60))


@lru_cache(maxsize=64)
def _series_table(b: float):
    """C(b, 2), the ratios C(b, 2k+2) / C(b, 2k) = (b-2k)(b-2k-1) /
    ((2k+1)(2k+2)), k = 1..59, of the series in _sym_second_diff, and the
    sign of C(b, 2), +-1.0, which every term shares for b in (-1, 2), where
    each ratio is >= 0. The ratios are Python floats from the exact pairs of
    _SERIES_K, built with the IEEE operations of the scalar formula. A line
    sweep uses b = -s and 1 - alpha, the interval pair integrals 1 - s,
    1 - alpha and 2 - alpha: with s, alpha in (0, 1) all lie in (-1, 2).
    Any other b is refused with ParamError: for b in (2, 3) the terms change
    sign, and for large b they still grow at the 60th; the cache holds only
    tables of the domain, so the series calls pay for the check once per b."""
    _require_real("b", b, "(-1, 2)")
    ratios = tuple([(b - k2) * (b - k2 - 1.0) / den for k2, den in _SERIES_K])
    c2 = b * (b - 1.0) * 0.5
    return c2, ratios, (-1.0 if c2 < 0.0 else 1.0)


def _sym_second_diff(b: float, x: float) -> float:
    """(1+x)^b + (1-x)^b - 2 without cancellation, 0 <= x < 1, b in (-1, 2).

    For x below 1/2 the even binomial series
    2 sum_{k>=1} C(b, 2k) x^(2k) is summed with a term recurrence, up to 60
    terms; the ratio of consecutive terms is bounded by
    x^2 * |(b-2k+1)(b-2k+2)| / ((2k-1)2k), which stays below ~x^2 for b in
    (-1, 2), so the truncation error is controlled by the first omitted term.
    The sum stops at the first term below 1e-18 of the partial sum in
    magnitude. Every term has the sign of C(b, 2), so the magnitudes are
    summed (negating a float is exact) and compared without abs(). A b
    outside (-1, 2) is refused with ParamError on either branch.
    """
    if x >= 0.5:
        _require_real("b", b, "(-1, 2)")
        return (1.0 + x) ** b + (1.0 - x) ** b - 2.0
    c2, ratios, sign = _series_table(b)
    term = sign * c2 * x * x  # |C(b, 2)| x^2
    acc = term
    for r in ratios:
        if not term > 1e-18 * acc:
            break
        term *= r * x * x
        acc += term
    return sign * (2.0 * acc)


def _pair_second_diff(q: float, g: float, L1: float, L2: float) -> float:
    """(g+L1+L2)^q - (g+L1)^q - (g+L2)^q + g^q for q in (-1, 2), g > 0: the
    second difference that a power kernel integrated over two intervals of
    lengths L1, L2 at gap g reduces to.

    About the midpoint m = g + (L1+L2)/2 the bases are m(1 +- x) and
    m(1 +- y), x = (L1+L2)/(2m), y = (L2-L1)/(2m), so the value is
    m^q [sigma(x) - sigma(|y|)] with sigma = _sym_second_diff(q, .). From
    x >= 1/2 on the bases differ in size and the four powers are summed as
    they stand, which keeps near-touching pairs to roundoff. Either way the
    error is a few ulps of the largest term; only when one length is far
    shorter than the other is that large against the value itself.
    """
    m = g + 0.5 * (L1 + L2)
    if L1 + L2 >= m:
        return (g + L1 + L2) ** q - (g + L1) ** q - (g + L2) ** q + g ** q
    return m ** q * (_sym_second_diff(q, 0.5 * (L1 + L2) / m)
                     - _sym_second_diff(q, 0.5 * abs(L2 - L1) / m))


# ---------------------------------------------------------------------------
# 2D boundary rules


@lru_cache(maxsize=128, typed=True)
def jacobi_half_rule(beta: float, nq: int):
    """Nodes u in (0, pi) and weights W with
    int_0^pi h(u) du ~= sum W_k h(u_k) for h(u) = u^beta * (analytic).

    The Gauss-Jacobi weight absorbs the algebraic factor; W already contains
    u^(-beta) so the rule applies to the raw integrand h. The cache is typed,
    so an nq of 16.0 or True reaches the check instead of a cached rule. A
    beta that is not a real number in (-1, inf) raises ParamError.

    Nodes and weights come from the eigen-decomposition of the Jacobi matrix
    of the weight (1 + t)^beta on (-1, 1) (Golub-Welsch): the weights are the
    squared first eigenvector components, accurate to about 1e-12 relative
    at nq = 256, where the Newton-polished rule of scipy's roots_jacobi
    carries 1e-10.
    """
    _require_count("nq", nq, 1)
    beta = _require_real("beta", beta, "(-1, inf)")
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


def leggauss(q: int):
    """numpy's q-point Gauss-Legendre rule on (-1, 1). numpy.polynomial is
    imported on the first call: it costs about 7 ms and 0.7 MB, and a run
    that builds no off-curve or interior rule (the descent, the line) never
    loads it."""
    from numpy.polynomial.legendre import leggauss as rule
    return rule(q)


@lru_cache(maxsize=16)
def _gauss_legendre(q: int):
    """The q-point Gauss-Legendre rule on (-1, 1) as (nodes, weights),
    read-only: leggauss(q), which costs about 0.2 ms at q = 12, built once
    per q for the ladder panels and the radial rules."""
    t, w = leggauss(q)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@lru_cache(maxsize=64, typed=True)
def ladder_half_rule(depth: int = 24, q: int = 12):
    """Composite Gauss-Legendre on (0, pi) with dyadic panels toward 0.

    For integrands smooth on (0, pi] but sharply peaked near 0 (boundary
    kernels seen from a point off the curve). The innermost panel reaches
    pi * 2^(-depth); the off-curve rule of functionals takes the depth from
    each target's distance to its focus point (up to 48 levels), so the
    cache holds a rule for every depth in use. Each panel maps the one
    q-point rule of _gauss_legendre. A depth below 0 or a q below 1 raises
    ParamError (the cache is typed, so True reaches the check).
    """
    _require_count("depth", depth, 0)
    _require_count("q", q, 1)
    t, w = _gauss_legendre(q)
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


@lru_cache(maxsize=16, typed=True)
def graded_radial_rule(q: int):
    """Nodes t in (0, 1) and weights w of the q-point radial rule of the
    interior set integrals, graded toward the boundary t = 1, read-only:
    t = 1 - (1 - tau)^3 and w = 1.5 w_GL (1 - tau)^2, with tau and w_GL the
    Gauss-Legendre rule mapped to (0, 1) (tau = (t_GL + 1) / 2; the 1.5 is
    the Jacobian 3 (1 - tau)^2 times the 1/2 of the map). The rule depends
    only on q, so it is built once per order; a q below 1 raises
    ParamError (the cache is typed, so True reaches the check)."""
    _require_count("q", q, 1)
    tq, wq = _gauss_legendre(q)
    tau = 0.5 * (tq + 1.0)
    t = 1.0 - (1.0 - tau) ** 3
    w = 1.5 * wq * (1.0 - tau) ** 2
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w
