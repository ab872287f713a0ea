"""Two-interval analysis on the line.

The configuration is E = (0, 1/2) union (d, d + 1/2) with gap parameter
d > 1/2, total length 1. By the reflection symmetry of E about its midpoint,
the boundary combination zeta takes only two values on the four endpoints:
zeta(0) = zeta(d + 1/2) (outer pair) and zeta(1/2) = zeta(d) (inner pair).
E satisfies the critical-point condition exactly when the balance function

    f(d) = zeta(1/2) - zeta(0)
         = (2/s) [2 d^(-s) - (d - 1/2)^(-s) - (d + 1/2)^(-s)]
         + (c eps / (1 - alpha)) [2 d^(1-alpha) - (d-1/2)^(1-alpha) - (d+1/2)^(1-alpha)]

vanishes. Each bracket is a symmetric second difference
2 g(d) - g(d - 1/2) - g(d + 1/2); for large d these cancel to O(d^(b-2)) and
are evaluated through the series for (1+x)^b + (1-x)^b - 2 with x = 1/(2d),
never by subtracting nearly equal powers. The series coefficients of each
exponent b in {-s, 1 - alpha} come from a table built once per b, in Python
floats, so an evaluation of f costs only its arithmetic.

The large-d expansion gives f(d) = d^(-1-alpha) g(d) with

    g(d) = c alpha eps / 4 - (1+s) d^(-1-s+alpha) / 2 + lower order,

on the scale d_eps = ((1+s)/(c alpha eps))^(1/(1+s-alpha)); g itself
vanishes at d_g = 2^(1/(1+s-alpha)) d_eps. With the next (x^4) terms of
both brackets the root moves to d_1 = d_g (1 + O(d_g^-2)), which the seeded
roots match to a few ulps. The root finder evaluates f at d_1, takes one
Newton step on the leading slope of f, walks by 1, 2, 4, ... ulps to the
sign change (doubling up from d_eps where f underflows) and closes the
bracket by safeguarded Illinois regula falsi until its ends are adjacent
floats (about 5 evaluations of f per root). It looks up the module-level
f_closed_form at every evaluation, so wrapping that name counts them. Each
root is certified by its four endpoint zetas (zeta_endpoints), computed from
the interval layout itself, with no IntervalSet built, into a record that
is a named tuple. The sweep fits the log-log slope of the critical diameter
against 1/eps in closed form; it tends to 1/(1+s-alpha) as eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BracketError, GeometryError, ParamError
from .quad import _endpoint_fields, _sym_second_diff
from .sets import IntervalSet, Params, _is_real

__all__ = [
    "TwoIntervalConfig", "SweepRecord", "two_interval_set", "zeta_endpoints",
    "f_closed_form", "g_and_d_eps", "solve_critical_d", "epsilon_sweep",
]

_PROBE_BUDGET = 64
_ZERO_RUN = 8  # steps up from a start with f = 0 that all find f = 0: underflow


@dataclass(frozen=True)
class TwoIntervalConfig:
    """Gap parameter plus problem parameters (n must be 1)."""

    d: float
    params: Params

    def __post_init__(self):
        _check_gap(self.d, self.params)


def _check_gap(d: float, p: Params) -> None:
    if p.n != 1:
        raise ParamError(f"two-interval analysis needs n = 1, got n = {p.n}")
    if not (d > 0.5):
        raise ParamError(f"gap parameter d must exceed 1/2, got {d!r}")


def _two_intervals(d: float) -> tuple:
    """The intervals ((0, 1/2), (d, d + 1/2)) at gap d, sorted, in floats."""
    if math.ulp(d) > 0.5:
        # d + 1/2 would round, so the second interval would not have length 1/2
        raise GeometryError(f"gap d = {d!r} is too large to place d + 1/2 exactly")
    d = float(d)
    return (0.0, 0.5), (d, d + 0.5)


def two_interval_set(cfg: TwoIntervalConfig) -> IntervalSet:
    return IntervalSet(_two_intervals(cfg.d))


def zeta_endpoints(cfg: TwoIntervalConfig) -> np.ndarray:
    """zeta at the four endpoints (0, 1/2, d, d+1/2), each evaluated through
    the generic PV closed form plus potential; nothing is mirrored by hand,
    so the symmetry equalities are genuine output properties. The layout of
    two_interval_set, with its refusal, goes to them with no IntervalSet."""
    p = cfg.params
    (k0, k1, k2, k3), (v0, v1, v2, v3) = _endpoint_fields(
        _two_intervals(cfg.d), p.s, 1.0 - p.alpha)
    ce = p.c_coupling * p.eps
    return np.array([k0 + ce * v0, k1 + ce * v1, k2 + ce * v2, k3 + ce * v3])


def f_closed_form(d: float, p: Params) -> float:
    """Balance function f(d) = zeta(inner) - zeta(outer).

    Each bracket 2 d^b - (d - 1/2)^b - (d + 1/2)^b is formed without
    cancellation as -d^b * _sym_second_diff(b, 1/(2d))."""
    _check_gap(d, p)
    s, alpha = p.s, p.alpha
    x = 0.5 / d
    val = (2.0 / s) * (-(d ** -s) * _sym_second_diff(-s, x))
    if p.eps != 0.0:
        b = 1.0 - alpha
        val += (p.c_coupling * p.eps / b) * (-(d ** b) * _sym_second_diff(b, x))
    return val


def _d_eps(p: Params) -> float:
    """The crossover scale d_eps of g_and_d_eps, with its checks and errors."""
    if p.n != 1:
        raise ParamError(f"1D analysis needs n = 1, got n = {p.n}")
    if not (p.eps and p.eps > 0.0):
        raise ParamError("g and d_eps need eps > 0")
    s, alpha = p.s, p.alpha
    try:
        return ((1.0 + s) / (p.c_coupling * p.eps * alpha)) ** (
            1.0 / (1.0 + s - alpha))
    except OverflowError:
        raise GeometryError(
            f"the critical-gap scale d_eps overflows at eps = {p.eps:g}: "
            f"1 + s - alpha = {1.0 + s - alpha:g} is too small") from None


def g_and_d_eps(p: Params):
    """The reduced function g with f(d) = d^(-1-alpha) g(d) + higher order,
    and the crossover scale d_eps.

    g(d) = c alpha eps / 4 - (1+s) d^(-1-s+alpha) / 2;
    d_eps = ((1+s) / (c alpha eps))^(1 / (1+s-alpha)), where g < 0; g
    vanishes at d_g = 2^(1 / (1+s-alpha)) d_eps. Requires eps > 0.
    A d_eps beyond the float range (1 + s - alpha small) raises
    GeometryError: no gap of that size can be placed on the line.
    """
    d_eps = _d_eps(p)
    s, alpha = p.s, p.alpha
    ce = p.c_coupling * p.eps

    def g(d):
        d = np.asarray(d, dtype=float)
        return ce * alpha / 4.0 - (1.0 + s) * d ** (-(1.0 + s - alpha)) / 2.0

    return g, d_eps


def _second_order_root(p: Params, d_eps: float) -> float:
    """d_1, the root of f to second order, or inf where d_g overflows.

    With the x^4 terms of both brackets (x = 1/(2d)),
    f(d) = d^(-1-alpha) [c alpha eps (1 + A / (48 d^2)) / 4
                         - (1+s) d^(-gamma) (1 + B / (48 d^2)) / 2]
    with gamma = 1 + s - alpha, A = (1+alpha)(2+alpha), B = (s+2)(s+3);
    it vanishes at d_1 = d_g (1 + (B - A) / (48 gamma d_g^2)) up to
    O(d_g^-4), where d_g = 2^(1/gamma) d_eps is the root of g."""
    s, alpha = p.s, p.alpha
    gam = 1.0 + s - alpha
    try:
        d_g = d_eps * 2.0 ** (1.0 / gam)
    except OverflowError:
        return math.inf
    b_minus_a = (s + 2.0) * (s + 3.0) - (1.0 + alpha) * (2.0 + alpha)
    return d_g + d_g * (b_minus_a / (48.0 * gam * d_g * d_g))


def _newton_step(p: Params, d: float, f_d: float) -> float:
    """d after one Newton step on the leading slope of f at its root,
    f'(d) ~ c eps alpha gamma d^(-2-alpha) / 4: the relative move is
    f(d) d^(1+alpha) / (c eps alpha gamma / 4). d itself where that
    overflows or the move is at most 2 ulps."""
    try:
        rel = f_d * d ** (1.0 + p.alpha) / (
            0.25 * p.c_coupling * p.eps * p.alpha * (1.0 + p.s - p.alpha))
    except OverflowError:
        return d
    move = d * rel
    return d - move if abs(move) > 2.0 * math.ulp(d) else d


def _bracket(p: Params, lo: float, f_lo: float, d_eps: float):
    """(lo, f_lo, hi, f_hi) with lo < hi and f(lo) <= 0 < f(hi), searched
    from lo with f(lo) < 0 as solve_critical_d describes."""
    x = _second_order_root(p, d_eps)
    if lo < x < math.inf:
        f_x = f_closed_form(x, p)
        if f_x != 0.0:
            y = _newton_step(p, x, f_x)
            if not y > lo:  # a step down past lo: (lo, x) is the bracket
                return lo, f_lo, x, f_x
            if x != y < math.inf:
                f_y = f_closed_form(y, p)
                if (f_y > 0.0) != (f_x > 0.0):  # the step crossed the root
                    return (x, f_x, y, f_y) if f_y > 0.0 else (y, f_y, x, f_x)
                x, f_x = y, f_y
        step = math.ulp(x)
        if f_x > 0.0:  # walk down to f <= 0, never below lo
            hi, f_hi = x, f_x
            while hi - step > lo:
                x = hi - step
                f_x = f_closed_form(x, p)
                if not f_x > 0.0:
                    return x, f_x, hi, f_hi
                hi, f_hi = x, f_x
                step *= 2.0
            return lo, f_lo, hi, f_hi
        lo_0, f_lo_0 = lo, f_lo
        lo, f_lo = x, f_x
        zeros = 0 if f_x == 0.0 else -1  # the run of f = 0 from the start
        while step <= lo:  # walk up to f > 0, as far as 2 x
            x = lo + step
            f_x = f_closed_form(x, p)
            if f_x > 0.0:
                return lo, f_lo, x, f_x
            lo, f_lo = x, f_x
            if zeros >= 0:
                zeros = zeros + 1 if f_x == 0.0 else -1
                if zeros == _ZERO_RUN:  # f underflows here
                    lo, f_lo = lo_0, f_lo_0
                    break
            step *= 2.0
    d = lo  # double up from the last point with f <= 0
    for _ in range(_PROBE_BUDGET):
        d *= 2.0
        f_d = f_closed_form(d, p)
        if f_d > 0.0:
            return lo, f_lo, d, f_d
        lo, f_lo = d, f_d
    raise BracketError(
        f"no sign change of f within {_PROBE_BUDGET} doublings from d_eps")


def solve_critical_d(p: Params, f_tol: float = 1e-10) -> float:
    """Root of f: bracket a sign change at the root of f's second-order
    asymptote, then close the bracket by safeguarded Illinois regula falsi
    down to machine-adjacent floats (about 5 evaluations of f per root).

    After the checks at lo = max(d_eps, 1/2 + 1e-9), f is evaluated at d_1
    (_second_order_root) and, where the move is more than 2 ulps, after
    one Newton step on the leading slope of f (_newton_step); a step that
    crosses the sign change is the bracket. Otherwise the search walks from
    the last point by 1, 2, 4, ... ulps toward the side the sign of f
    points to: down never below lo (f(lo) < 0 closes the bracket there), up
    as far as twice the start. Where f is 0 at the start the walk goes up
    (an exact zero is bracketed by the next float with f > 0), and f = 0 at
    its first 8 steps as well means f underflows there. Where d_1 is not
    above lo or is infinite, f underflows, or the walk up finds no sign
    change, the search doubles up from the last point with f <= 0 (from lo
    where f underflowed), at most 64 times.

    Each step takes the secant point of the stored end values, clamped
    strictly inside the bracket; when one end moves twice in a row the
    stored f of the other end is halved (the Illinois rule), and a midpoint
    step is taken whenever four steps failed to halve the bracket. The
    bracket keeps f(lo) <= 0 < f(hi) and the loop ends only when lo and hi
    are adjacent floats; the root is the end with the smaller |f|. The
    returned root satisfies |f| <= f_tol and d > d_eps; failure to bracket
    raises BracketError. An f_tol outside [0, inf), NaN among them, would
    certify nothing and raises ParamError, as does one that is not a real
    number (a bool among them)."""
    if not (_is_real(f_tol) and 0.0 <= f_tol < math.inf):
        raise ParamError(f"f_tol must lie in [0, inf), got {f_tol!r}")
    d_eps = _d_eps(p)
    lo = max(d_eps, 0.5 + 1e-9)
    f_lo = f_closed_form(lo, p)
    if f_lo == 0.0:
        raise BracketError(
            f"f underflows to 0 at d_eps = {lo:g} for eps = {p.eps:g} and "
            f"1 + s - alpha = {1.0 + p.s - p.alpha:g}, so its sign cannot be "
            "resolved there")
    if f_lo > 0.0:
        raise BracketError(
            f"f(d_eps) = {f_lo:g} is not negative; eps = {p.eps:g} may exceed "
            "the smallness threshold for a two-interval critical point")
    lo, f_lo, hi, f_hi = _bracket(p, lo, f_lo, d_eps)
    w_lo, w_hi = f_lo, f_hi  # secant weights; the Illinois rule halves them
    last = 0  # +1 when hi moved last, -1 when lo did
    width, stale = hi - lo, 0
    while math.nextafter(lo, hi) != hi:
        if stale < 4:
            x = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        else:
            x = lo + 0.5 * (hi - lo)
        if not x > lo:
            x = math.nextafter(lo, hi)
        elif not x < hi:
            x = math.nextafter(hi, lo)
        f_x = f_closed_form(x, p)
        if f_x > 0.0:
            hi, f_hi, w_hi = x, f_x, f_x
            if last > 0:
                w_lo *= 0.5
            last = 1
        else:
            lo, f_lo, w_lo = x, f_x, f_x
            if last < 0:
                w_hi *= 0.5
            last = -1
        if hi - lo <= 0.5 * width:
            width, stale = hi - lo, 0
        else:
            stale += 1
    root, fr = hi, f_hi  # ties go to the side with f > 0
    if abs(f_lo) < abs(fr):
        root, fr = lo, f_lo
    if abs(fr) > f_tol:
        raise BracketError(
            f"root solve stalled with |f(d)| = {abs(fr):g} > f_tol = {f_tol:g}")
    return root


class SweepRecord(NamedTuple):
    """One eps sample of the sweep, an immutable named tuple."""

    eps: float
    d_star: float
    d_eps: float
    diameter: float
    f_at_root: float
    zeta_spread: float  # max - min over the four endpoint zeta values


# the constructor keeps the signature it had as a frozen dataclass
SweepRecord.__new__.__annotations__ = {
    **dict.fromkeys(SweepRecord._fields, "float"), "return": None}


def _sweep_record(pe: Params, f_tol: float) -> SweepRecord:
    d_star = solve_critical_d(pe, f_tol=f_tol)
    zs = zeta_endpoints(TwoIntervalConfig(d=d_star, params=pe)).tolist()
    return SweepRecord(pe.eps, d_star, _d_eps(pe), d_star + 0.5,
                       f_closed_form(d_star, pe), max(zs) - min(zs))


def _ls_slope(x: list, y: list) -> float:
    """The least-squares slope of y against x in closed form,
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, each sum a fsum."""
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - mx for xi in x]
    return (math.fsum(u * (yi - my) for u, yi in zip(dx, y))
            / math.fsum(u * u for u in dx))


def epsilon_sweep(p: Params, eps_grid: Sequence[float], f_tol: float = 1e-10):
    """Solve the critical gap for each eps and fit the log-log growth law.

    Each eps is solved on its own: one whose gap cannot be bracketed
    (BracketError) or placed on the line (GeometryError) is listed in
    fit["failed"] as {"eps", "error"} and the fit uses the others. With
    fewer than 4 solved values the first of those errors is raised; any
    other error propagates.

    Returns (records, fit), one record per solved eps, where fit maps:
      slope          - fitted d log(diam) / d log(1/eps)
      slope_target   - 1 / (1 + s - alpha)
      slope_rel_err  - relative deviation
      c_implied      - min over the solved eps of diam * eps^(1/(1+s-alpha))
      failed         - the eps values left out, with their errors
    """
    if len(eps_grid) < 4:
        raise ParamError("sweep needs at least 4 eps values for a stable fit")
    records, errors = [], []
    for e in sorted(eps_grid, reverse=True):
        try:
            records.append(_sweep_record(p.with_eps(float(e)), f_tol))
        except (BracketError, GeometryError) as exc:
            errors.append((float(e), exc))
    if len(records) < 4:
        raise errors[0][1]
    slope = _ls_slope([-math.log(r.eps) for r in records],
                      [math.log(r.diameter) for r in records])
    target = 1.0 / (1.0 + p.s - p.alpha)
    fit = {
        "slope": slope,
        "slope_target": target,
        "slope_rel_err": abs(slope - target) / target,
        "c_implied": float(min(r.diameter * r.eps ** target for r in records)),
        "failed": [{"eps": e, "error": f"{type(exc).__name__}: {exc}"}
                   for e, exc in errors],
    }
    return records, fit
