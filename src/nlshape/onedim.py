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
exponent b in {-s, 1 - alpha} come from a table built once per b, so an
evaluation of f costs only its arithmetic.

The large-d expansion gives f(d) = d^(-1-alpha) g(d) with

    g(d) = c alpha eps / 4 - (1+s) d^(-1-s+alpha) / 2 + lower order,

on the scale d_eps = ((1+s)/(c alpha eps))^(1/(1+s-alpha)); g itself
vanishes at d_g = 2^(1/(1+s-alpha)) d_eps. The root finder brackets the
sign change of f by steps outward from d_g (doubling up from d_eps where
that fails) and closes the bracket by safeguarded Illinois regula falsi
until its ends are adjacent floats (about 7 evaluations of f per root). It
looks up the module-level f_closed_form at every evaluation, so wrapping
that name counts them. The sweep fits the log-log slope of the critical
diameter against 1/eps, which tends to 1/(1+s-alpha) as eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BracketError, GeometryError, ParamError
from .functionals import _endpoint_fields_1d
from .quad import _sym_second_diff
from .sets import IntervalSet, Params

__all__ = [
    "TwoIntervalConfig", "SweepRecord", "two_interval_set", "zeta_endpoints",
    "f_closed_form", "g_and_d_eps", "solve_critical_d", "epsilon_sweep",
]

_PROBE_BUDGET = 64
_LOCAL_STEP = 2.0 ** -10  # first relative step of the bracket search about d_g


@dataclass(frozen=True)
class TwoIntervalConfig:
    """Gap parameter plus problem parameters (n must be 1)."""

    d: float
    params: Params

    def __post_init__(self):
        _check_gap(self.d, self.params)


def _check_gap(d: float, p: Params) -> None:
    if p.n != 1:
        raise ParamError(f"two-interval analysis is 1D; params have n = {p.n}")
    if not (d > 0.5):
        raise ParamError(f"gap parameter d must exceed 1/2, got {d!r}")
    if not (0.0 < p.alpha < 1.0):
        raise ParamError(
            f"two-interval analysis needs alpha in (0, 1), got {p.alpha!r}")


def two_interval_set(cfg: TwoIntervalConfig) -> IntervalSet:
    d = cfg.d
    if math.ulp(d) > 0.5:
        # d + 1/2 would round, so the second interval would not have length 1/2
        raise GeometryError(f"gap d = {d!r} is too large to place d + 1/2 exactly")
    return IntervalSet([(0.0, 0.5), (d, d + 0.5)])


def zeta_endpoints(cfg: TwoIntervalConfig) -> np.ndarray:
    """zeta at the four endpoints (0, 1/2, d, d+1/2), each evaluated through
    the generic PV closed form plus potential; nothing is mirrored by hand,
    so the symmetry equalities are genuine output properties."""
    p = cfg.params
    kap, pot = _endpoint_fields_1d(two_interval_set(cfg), p.s, p.alpha)
    ce = p.c_coupling * p.eps
    return np.array([k + ce * v for k, v in zip(kap, pot)])


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


def g_and_d_eps(p: Params):
    """The reduced function g with f(d) = d^(-1-alpha) g(d) + higher order,
    and the crossover scale d_eps.

    g(d) = c alpha eps / 4 - (1+s) d^(-1-s+alpha) / 2;
    d_eps = ((1+s) / (c alpha eps))^(1 / (1+s-alpha)), where g < 0; g
    vanishes at d_g = 2^(1 / (1+s-alpha)) d_eps. Requires eps > 0.
    A d_eps beyond the float range (1 + s - alpha small) raises
    GeometryError: no gap of that size can be placed on the line.
    """
    if p.n != 1:
        raise ParamError(f"1D analysis; params have n = {p.n}")
    if not (p.eps and p.eps > 0.0):
        raise ParamError("g and d_eps need eps > 0")
    s, alpha = p.s, p.alpha
    ce = p.c_coupling * p.eps

    def g(d):
        d = np.asarray(d, dtype=float)
        return ce * alpha / 4.0 - (1.0 + s) * d ** (-(1.0 + s - alpha)) / 2.0

    try:
        d_eps = ((1.0 + s) / (ce * alpha)) ** (1.0 / (1.0 + s - alpha))
    except OverflowError:
        raise GeometryError(
            f"the critical-gap scale d_eps overflows at eps = {p.eps:g}: "
            f"1 + s - alpha = {1.0 + s - alpha:g} is too small") from None
    return g, d_eps


def solve_critical_d(p: Params, f_tol: float = 1e-10) -> float:
    """Root of f: bracket a sign change near d_g, the root of the
    leading-order balance g, then close the bracket by safeguarded Illinois
    regula falsi down to machine-adjacent floats.

    The bracket search steps outward from d_g by relative steps of 2^-10,
    each 4x the last, toward the side the sign of f(d_g) points to, and
    never below d_eps. Where f(d_g) is 0 (it may have underflowed) or no
    sign change lies within a factor 2 above d_g, it doubles up from the
    last point with f <= 0, as from d_eps * 2^k.

    Each step takes the secant point of the stored end values, clamped
    strictly inside the bracket; when one end moves twice in a row the
    stored f of the other end is halved (the Illinois rule), and a midpoint
    step is taken whenever four steps failed to halve the bracket. The
    bracket keeps f(lo) <= 0 < f(hi) and the loop ends only when lo and hi
    are adjacent floats; the root is the end with the smaller |f|. The
    returned root satisfies |f| <= f_tol and d > d_eps; failure to bracket
    raises BracketError."""
    _, d_eps = g_and_d_eps(p)
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
    hi = None
    try:
        d_g = d_eps * 2.0 ** (1.0 / (1.0 + p.s - p.alpha))
    except OverflowError:
        d_g = math.inf
    f_g = f_closed_form(d_g, p) if lo < d_g < math.inf else 0.0
    if f_g != 0.0:  # f(d_g) = 0 may be underflow: leave it to the probe
        up = f_g < 0.0
        if up:
            lo, f_lo = d_g, f_g
        else:
            hi, f_hi = d_g, f_g
        step = _LOCAL_STEP
        while step <= 1.0:
            x = d_g * (1.0 + step if up else 1.0 - step)
            if not x > lo:
                break
            f_x = f_closed_form(x, p)
            if f_x > 0.0:
                hi, f_hi = x, f_x
            else:
                lo, f_lo = x, f_x
            if (f_x > 0.0) == up:
                break
            step *= 4.0
    if hi is None:  # double up from the last point with f <= 0
        d = lo
        for _ in range(_PROBE_BUDGET):
            d *= 2.0
            f_d = f_closed_form(d, p)
            if f_d > 0.0:
                hi, f_hi = d, f_d
                break
            lo, f_lo = d, f_d
        if hi is None:
            raise BracketError(
                f"no sign change of f within {_PROBE_BUDGET} doublings from d_eps")
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


@dataclass(frozen=True)
class SweepRecord:
    """One eps sample of the sweep."""

    eps: float
    d_star: float
    d_eps: float
    diameter: float
    f_at_root: float
    zeta_spread: float  # max - min over the four endpoint zeta values


def _sweep_record(pe: Params, f_tol: float) -> SweepRecord:
    _, d_eps = g_and_d_eps(pe)
    d_star = solve_critical_d(pe, f_tol=f_tol)
    zs = zeta_endpoints(TwoIntervalConfig(d=d_star, params=pe)).tolist()
    return SweepRecord(
        eps=pe.eps, d_star=d_star, d_eps=d_eps, diameter=d_star + 0.5,
        f_at_root=f_closed_form(d_star, pe), zeta_spread=max(zs) - min(zs))


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
    x = np.log([1.0 / r.eps for r in records])
    y = np.log([r.diameter for r in records])
    slope = float(np.polyfit(x, y, 1)[0])
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
