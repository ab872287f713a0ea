"""Independent slow-path oracles used to freeze expected values.

Everything here works by casting rays and reducing the 2D kernels to exact
per-ray antiderivatives, so no boundary mesh, no Gauss-Jacobi rule, and no
divergence identity from the package's production path is involved. The
generic adaptive 1D bisection they use (`brute_oracle`) lives here as well;
the package has no quadrature of its own on the line.

Ray picture: fix a base point x and a direction phi. The ray x + t*(cos phi,
sin phi), t > 0, crosses the boundary at 0 < t_1 < ... < t_k; between
crossings the membership sign is constant. Radial kernel integrals along the
ray then have closed forms per segment:

    int_a^b t^(1-alpha) dt = (b^(2-alpha) - a^(2-alpha)) / (2 - alpha)
    int_a^b t^(-1-s)   dt = (a^(-s) - b^(-s)) / s

so each quantity becomes a single angular integral of a piecewise closed
form. For the curvature of a point on the boundary the t -> 0 divergence is
removed by pairing phi with phi + pi, where the leading delta^(-s)/s terms
carry opposite signs and are dropped analytically.

The signed distance proxy g(t) = |x + t e - c| - r(theta) is evaluated in a
cancellation-free rearrangement (see _RayFrame.g) so crossings remain
detectable down to t ~ 1e-12 even though x + t e rounds to x there; without
this the near-tangent rays at a boundary base point lose their first
crossing and the angular integral acquires a sqrt(cutoff)-sized hole.

The non-ray references are:

* `curvature_mp_oracle`, `potential_mp_oracle` and
  `tangential_gradient_mp_oracle`: the boundary-reduced integrals at a
  boundary point, in mpmath. They share the divergence identity with the
  package (the ray oracles check that) but none of its arithmetic: positions
  are subtracted directly at a working precision that covers the
  cancellation, and the quadrature is tanh-sinh after a substitution that
  removes the u^(-power) endpoint behaviour. They are accurate to about
  1e-15 and take a few seconds a value;
* `off_curve_potential_mp_oracle` and `off_curve_gradient_mp_oracle`: the
  same boundary integrals at a point off the curve, split at its focus;
* `frame_ladder_potential` and `frame_ladder_gradient`: the off-curve rule
  as it stood before the focus-frame ladder (24 dyadic levels, nodes from
  `StarShape2D.frame`), against which the package's ladder is compared;
* `bisection_critical_d`, plain midpoint bisection for the 1D critical gap,
  against which the package's root solve is compared;
* `sym_second_diff_recurrence` and `pv_pair_integral_reference`: the 1D
  series and principal-value routines as they stood before the ratio table
  and the one-pass endpoint evaluation, against which the package's values
  are compared bit for bit;
* `brute_oracle`, globally adaptive interval bisection with a deterministic
  subdivision rule (split the worst interval at its midpoint, ties broken by
  insertion order), and two modes built on it: `pv_oracle`, a principal
  value by antipodal pairing and shrinking windows, and `box_oracle`, an
  iterated integral over a 2D box;
* `pair_second_diff_mp`, `riesz_1d_mp`, `perimeter_1d_mp` and
  `endpoint_fields_1d_mp`: the 1D closed forms of R_alpha, P_s and the
  endpoint kappa and V on interval unions at 60 digits, where the
  differences of powers are subtracted as they stand; the float inputs are
  taken exactly, so only the final rounding is float.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from nlshape import onedim
from nlshape.errors import BracketError, GeometryError, QuadratureError
from nlshape.quad import _boundary_point, _first_diff, ladder_half_rule
from nlshape.sets import Ball, IntervalSet, StarShape2D

_T_FLOOR = 1e-12


class OracleError(QuadratureError):
    """An oracle short of its tolerance, carrying its best estimate and that
    estimate's error bound."""

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class _RayFrame:
    """One ray x + t e with exact small-t arithmetic for the crossing test."""

    def __init__(self, star, x, phi):
        self.star = star
        v = np.asarray(x, dtype=float) - np.asarray(star.center, dtype=float)
        self.vx, self.vy = float(v[0]), float(v[1])
        self.ex, self.ey = math.cos(phi), math.sin(phi)
        self.dot = self.vx * self.ex + self.vy * self.ey
        self.cross = self.vx * self.ey - self.vy * self.ex
        self.v2 = self.vx * self.vx + self.vy * self.vy
        self.vnorm = math.sqrt(self.v2)
        self.theta0 = math.atan2(self.vy, self.vx)
        self.r_at_base = float(star.radius(np.array([self.theta0]))[0])

    def g(self, ts):
        """|x + t e - c| - r(theta(t)), as a difference from the base point.

        Both brackets below are O(t) with no large-term cancellation:
        |v + t e| - |v| = t (2 dot + t) / (|v + t e| + |v|) and the polar
        angle increment is atan2(t cross, v2 + t dot) exactly.
        """
        ts = np.asarray(ts, dtype=float)
        h = ts * (2.0 * self.dot + ts)
        radial = h / (np.sqrt(self.v2 + h) + self.vnorm)
        dtheta = np.arctan2(ts * self.cross, self.v2 + ts * self.dot)
        rdiff = self.star.radius(self.theta0 + dtheta) - self.r_at_base
        return (radial - rdiff) + (self.vnorm - self.r_at_base)


def _scale_of(star, x):
    rel = np.asarray(x, dtype=float) - np.asarray(star.center)
    return 2.0 * float(star.radius(np.linspace(0, 2 * np.pi, 720)).max()) \
        + float(np.hypot(rel[0], rel[1])) + 1.0


def ray_crossings(frame, t_min=_T_FLOOR, t_max=None, grid=1024):
    """Sorted boundary crossings of the ray on (t_min, t_max]."""
    if t_max is None:
        t_max = _scale_of(frame.star, (frame.vx + frame.star.center[0],
                                       frame.vy + frame.star.center[1]))
    knee = min(1e-2, t_max / 2)
    ts = np.concatenate([np.geomspace(t_min, knee, 2 * grid),
                         np.linspace(knee, t_max, grid)])
    g = frame.g(ts)
    out = []
    idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    for i in idx:
        lo, hi = ts[i], ts[i + 1]
        glo = g[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = float(frame.g(np.array([mid]))[0])
            if gm == 0.0:
                lo = hi = mid
                break
            if (gm > 0) == (glo > 0):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def _segment_signs(frame, crossings, t_min, t_max):
    """Sign of g on each inter-crossing segment (+1 outside the set)."""
    edges = np.concatenate([[t_min], crossings, [t_max]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.where(frame.g(mids) > 0, 1.0, -1.0)


def _as_star(S):
    if isinstance(S, Ball):
        return StarShape2D(S.center, S.radius)
    return S


def potential_ray_oracle(S, x, alpha, tol=1e-10):
    """V(x) = int_E |x-y|^(-alpha) dy by angular integration of rays."""
    star = _as_star(S)
    q = 2.0 - alpha
    x = np.asarray(x, dtype=float)
    t_max = _scale_of(star, x)

    def one_angle(phi):
        frame = _RayFrame(star, x, phi)
        cr = ray_crossings(frame, t_max=t_max)
        if len(cr) == 0:
            return 0.0
        signs = _segment_signs(frame, cr, _T_FLOOR, t_max)
        edges = np.concatenate([[0.0], cr])
        total = 0.0
        for i in range(len(cr)):
            if signs[i] < 0:  # segment lies inside the set
                total += (edges[i + 1] ** q - edges[i] ** q) / q
        return total

    f = lambda phis: np.array([one_angle(p) for p in np.atleast_1d(phis)])
    return brute_oracle(f, (0.0, 2.0 * np.pi),
                        QuadTolerance(rel_tol=tol, abs_tol=tol * 1e-2,
                                      max_subdivisions=20000))


def curvature_ray_oracle(S, theta0, s, tol=3e-6):
    """Signed PV curvature at the boundary point of angle theta0.

    Integrates (chi_complement - chi_set)|x-y|^(-2-s) in polar form with the
    small-t divergence cancelled between antipodal rays. The angular
    integrand blows up (integrably) where rays graze the boundary at the
    base point, so the phi range is split at the tangent direction and the
    adaptive rule grades into those endpoints. Accuracy is limited by the
    crossing-detection floor to roughly sqrt(_T_FLOOR); treat results as
    good to ~1e-5 relative, not to the requested tolerance.
    """
    star = _as_star(S)
    r0 = float(star.radius(np.array([theta0]))[0])
    dr0 = float(star.radius_deriv(np.array([theta0]))[0])
    x = np.asarray(star.center) + r0 * np.array([math.cos(theta0),
                                                 math.sin(theta0)])
    t_max = _scale_of(star, x)
    # tangent direction angle of the curve point, mapped into (0, pi)
    tangent = math.atan2(r0 * math.cos(theta0) + dr0 * math.sin(theta0),
                         dr0 * math.cos(theta0) - r0 * math.sin(theta0))
    tangent %= np.pi

    def branch(phi):
        # sum of sign * closed-form pieces, delta-divergence dropped
        frame = _RayFrame(star, x, phi)
        cr = ray_crossings(frame, t_max=t_max)
        if len(cr) == 0:
            return 0.0
        signs = _segment_signs(frame, cr, _T_FLOOR, t_max)
        edges = np.concatenate([[_T_FLOOR], cr])
        total = -signs[0] * edges[1] ** (-s) / s
        for i in range(1, len(cr)):
            total += signs[i] * (edges[i] ** (-s) - edges[i + 1] ** (-s)) / s
        total += signs[-1] * edges[-1] ** (-s) / s
        return total

    def pair(phis):
        return np.array([branch(p) + branch(p + np.pi)
                         for p in np.atleast_1d(phis)])

    t = tangent if 1e-6 < tangent < np.pi - 1e-6 else np.pi / 2
    segments = [(0.0, 0.5 * t), (0.5 * t, t), (t, np.pi)]
    return brute_oracle(pair, segments,
                        QuadTolerance(rel_tol=tol, abs_tol=tol,
                                      max_subdivisions=20000))


def disk_curvature_exact(R, s):
    """Closed form for the signed PV curvature of a disk: all rays on the
    chord side contribute 2 (2R cos psi)^(-s) / s, so
    kappa = (2/s)(2R)^(-s) sqrt(pi) Gamma((1-s)/2) / Gamma(1 - s/2).
    """
    from scipy.special import gamma
    return (2.0 / s) * (2.0 * R) ** (-s) * math.sqrt(math.pi) \
        * gamma((1.0 - s) / 2.0) / gamma(1.0 - s / 2.0)


def disk_covariogram(R, t):
    """|E intersect (E - h)| for a radius-R disk, |h| = t (closed form)."""
    t = np.asarray(t, dtype=float)
    u = np.clip(t / (2.0 * R), 0.0, 1.0)
    return np.where(t < 2.0 * R,
                    2.0 * R * R * np.arccos(u)
                    - 0.5 * t * np.sqrt(np.maximum(4 * R * R - t * t, 0.0)),
                    0.0)


def disk_potential_oracle(R, r, alpha, tol=1e-11):
    """V at distance r <= R from the center of a radius-R disk."""
    q = 2.0 - alpha

    def f(psi):
        # clamp: at r = R the discriminant is R^2 cos^2 psi and roundoff
        # takes it negative near |sin psi| = 1
        disc = np.maximum(R * R - (r * np.sin(psi)) ** 2, 0.0)
        chord = np.maximum(r * np.cos(psi) + np.sqrt(disc), 0.0)
        return chord ** q / q

    return brute_oracle(f, (0.0, 2.0 * np.pi),
                        QuadTolerance(rel_tol=tol, abs_tol=tol * 1e-2,
                                      max_subdivisions=20000))


def disk_riesz_oracle(R, alpha, tol=1e-11):
    """Double Riesz integral of a disk through the set covariance:
    int int |x-y|^(-alpha) = 2 pi int_0^{2R} t^(1-alpha) C(t) dt.
    """
    f = lambda t: 2.0 * np.pi * np.asarray(t) ** (1.0 - alpha) \
        * disk_covariogram(R, t)
    return brute_oracle(f, (0.0, 2.0 * R),
                        QuadTolerance(rel_tol=tol, abs_tol=tol * 1e-2,
                                      max_subdivisions=20000))


def disk_perimeter_oracle(R, s, tol=1e-10):
    """Fractional perimeter of a disk through the set covariance:
    the cross measure at offset t is |E| - C(t), so
    P = 2 pi [ int_0^{2R} t^(-1-s) (|E| - C(t)) dt + |E| (2R)^(-s) / s ].

    The leading small-t behaviour 2Rt - t^3/(12R) of |E| - C is integrated
    in closed form so the numerical part starts at O(t^(4-s)) and the
    bisection rule converges at any s.
    """
    area = np.pi * R * R
    L = 2.0 * R

    def f(t):
        t = np.asarray(t, dtype=float)
        lead = 2.0 * R * t - t ** 3 / (12.0 * R)
        return t ** (-1.0 - s) * (area - disk_covariogram(R, t) - lead)

    body = brute_oracle(f, (0.0, L),
                        QuadTolerance(rel_tol=tol, abs_tol=tol,
                                      max_subdivisions=20000))
    lead_exact = 2.0 * R * L ** (1.0 - s) / (1.0 - s) \
        - L ** (3.0 - s) / ((3.0 - s) * 12.0 * R)
    return 2.0 * np.pi * (body + lead_exact + area * L ** (-s) / s)


# the substituted integrand of boundary_integral_mp is bounded, so the part
# v < 10^-_V_FLOOR is dropped (a relative 1e-20)
_V_FLOOR = 20


def boundary_integral_mp(star, theta, kernel, power=0.0, dps=30, x=None):
    """int_{-pi}^{pi} kernel(y - x, nu(y) |y'|, x'(theta)) du as an mpmath
    number, y = y(theta + u) on the star shape's boundary and x = x(theta),
    or the given point x off the curve (then theta is its focus and power
    is 0). kernel gets 2-tuples of mpf and must behave like |u|^(-power) at
    u = 0.

    The two sides u = +-v^p, p = 1 / (1 - power), make the integrand in v
    bounded, and tanh-sinh integrates it over (0, pi^(1/p)); the focus is
    the breakpoint between the sides, where tanh-sinh crowds its nodes, so
    an off-curve peak of width |x - y(theta)| at the focus is resolved. Near
    v = 10^-20, y - x is about u and the O(u^2) numerators cancel twice as
    many digits, so y - x is formed at dps plus twice the digits of u
    there."""
    p = 1.0 / (1.0 - power)
    hi = dps + 2 * math.ceil(_V_FLOOR * p) + 10
    with mp.workdps(hi):
        a = [mp.mpf(float(v)) for v in star.a]
        b = [mp.mpf(float(v)) for v in star.b]
        r0 = mp.mpf(star.r0)
        cx, cy = (mp.mpf(c) for c in star.center)
        p = 1 / (1 - mp.mpf(power))

        def point(th):
            """(y, nu |y'|, y') at the angle th."""
            r, dr = r0, mp.mpf(0)
            for k in range(len(a)):
                ck, sk = mp.cos((k + 1) * th), mp.sin((k + 1) * th)
                r += a[k] * ck + b[k] * sk
                dr += (k + 1) * (b[k] * ck - a[k] * sk)
            c, s = mp.cos(th), mp.sin(th)
            return ((cx + r * c, cy + r * s), (r * c + dr * s, r * s - dr * c),
                    (dr * c - r * s, dr * s + r * c))

        theta = mp.mpf(theta)
        on_curve, _, dx = point(theta)
        x = on_curve if x is None else tuple(mp.mpf(float(v)) for v in x)

    def g(v):
        if v < mp.mpf(10) ** -_V_FLOOR:
            return mp.mpf(0)
        with mp.workdps(hi):
            u = v ** p
            total = 0
            for y, n, _ in (point(theta + u), point(theta - u)):
                total += kernel((y[0] - x[0], y[1] - x[1]), n, dx)
            return total * p * v ** (p - 1)

    with mp.workdps(dps):
        return mp.quad(g, [0, mp.pi ** (1 / p)])


def _dot(v, w):
    return v[0] * w[0] + v[1] * w[1]


def curvature_mp_oracle(star, theta, s):
    """kappa = (2/s) PV int (y - x).nu(y) |y - x|^(-2-s) dsigma(y) at the
    boundary point of angle theta."""
    q = -(2 + mp.mpf(s)) / 2

    def kern(d, n, dx):
        return _dot(d, n) * _dot(d, d) ** q

    return float(2 / mp.mpf(s) * boundary_integral_mp(star, theta, kern, s))


def potential_mp_oracle(star, theta, alpha):
    """V = 1/(2 - alpha) int (y - x).nu(y) |y - x|^(-alpha) dsigma(y) at the
    boundary point of angle theta."""
    q = -mp.mpf(alpha) / 2

    def kern(d, n, dx):
        return _dot(d, n) * _dot(d, d) ** q

    return float(boundary_integral_mp(star, theta, kern) / (2 - mp.mpf(alpha)))


def tangential_gradient_mp_oracle(star, theta, alpha):
    """grad V . tau = -int nu(y).tau(x) |y - x|^(-alpha) dsigma(y) at the
    boundary point of angle theta, alpha in (0, 1)."""
    q = -mp.mpf(alpha) / 2

    def kern(d, n, dx):
        return -_dot(n, dx) / mp.sqrt(_dot(dx, dx)) * _dot(d, d) ** q

    return float(boundary_integral_mp(star, theta, kern, alpha))


def off_curve_potential_mp_oracle(star, x, focus, alpha):
    """V = 1/(2 - alpha) int (y - x).nu(y) |y - x|^(-alpha) dsigma(y) at a
    point x off the curve, the boundary integral split at the focus."""
    q = -mp.mpf(alpha) / 2

    def kern(d, n, dx):
        return _dot(d, n) * _dot(d, d) ** q

    return float(boundary_integral_mp(star, focus, kern, x=x)
                 / (2 - mp.mpf(alpha)))


def off_curve_gradient_mp_oracle(star, x, focus, alpha):
    """grad V = -int nu(y) |y - x|^(-alpha) dsigma(y) at a point x off the
    curve, as a 2-vector, the boundary integral split at the focus."""
    q = -mp.mpf(alpha) / 2
    return np.array([
        float(-boundary_integral_mp(
            star, focus, lambda d, n, dx, i=i: n[i] * _dot(d, d) ** q, x=x))
        for i in (0, 1)])


# ---------------------------------------------------------------------------
# the off-curve rule as it stood before the focus-frame ladder: a fixed
# 24-level ladder with node positions, normals and speeds from
# StarShape2D.frame, evaluated once per distinct focus of a block


_LADDER_BLOCK_NODES = 1 << 16


def _node_angles(focus_angles, u):
    """Quadrature angles of each target: its focus angle -/+ the half-rule
    offsets u, one row per target."""
    return np.concatenate([focus_angles[:, None] + u[None, :],
                           focus_angles[:, None] - u[None, :]], axis=1)


def _frame_ladder_batch(star, targets_xy, focus_angles, h_func, ncomp=1):
    """Sum W_k h(u_k) over the graded ladder for a batch of targets off the
    curve; h_func builds the integrand from (normals, speeds, displacement
    y - x from the target, |y - x|^2) and returns one value array per
    component (ncomp of them). The result has one value per target, or one
    row of ncomp values per target when ncomp > 1.

    The quadrature angles depend only on the focus, so each block evaluates
    the frame once per distinct focus angle (the interior rule puts a whole
    ray of targets on one focus) and hands every target the rows of its
    focus. The targets run in blocks of about _LADDER_BLOCK_NODES quadrature
    nodes, which bounds memory in the target count.
    """
    u, W = ladder_half_rule()
    WW = np.concatenate([W, W])
    n = targets_xy.shape[0]
    out = np.empty((n, ncomp))
    step = max(1, _LADDER_BLOCK_NODES // WW.size)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        foci, inv = np.unique(focus_angles[rows], return_inverse=True)
        pos, nu, speed = (arr[inv] for arr in star.frame(_node_angles(foci, u)))
        d = pos - targets_xy[rows, None, :]
        r2 = d[..., 0] ** 2 + d[..., 1] ** 2
        # einsum keeps the contraction out of threaded BLAS: per-target sums
        # come out bitwise identical whatever the configured thread count
        for c, vals in enumerate(h_func(nu, speed, d, r2)):
            out[rows, c] = np.einsum("ij,j->i", vals, WW)
    return out[:, 0] if ncomp == 1 else out


def frame_ladder_potential(star, pts, foci, alpha):
    """V at off-curve points by the frame-based 24-level ladder."""
    def h(nu, speed, d, r2):
        return ((d * nu).sum(-1) * r2 ** (-alpha / 2.0) * speed,)

    return _frame_ladder_batch(star, np.asarray(pts, dtype=float),
                               np.asarray(foci, dtype=float), h) / (2.0 - alpha)


def frame_ladder_gradient(star, pts, foci, alpha):
    """grad V at off-curve points by the frame-based 24-level ladder."""
    def h(nu, speed, d, r2):
        kern = r2 ** (-alpha / 2.0)
        return (-nu[..., 0] * kern * speed, -nu[..., 1] * kern * speed)

    return _frame_ladder_batch(star, np.asarray(pts, dtype=float),
                               np.asarray(foci, dtype=float), h, ncomp=2)


def bisection_critical_d(p, f_tol=1e-10):
    """Reference root of the two-interval balance function by plain
    midpoint bisection: the doubling probe from d_eps that
    `onedim.solve_critical_d` falls back to, then halving down to a
    machine-adjacent bracket (about 57 evaluations of f per root). f is
    looked up as `onedim.f_closed_form` at every call, so a test can count
    evaluations by wrapping that name."""
    _, d_eps = onedim.g_and_d_eps(p)
    lo = max(d_eps, 0.5 + 1e-9)
    f_lo = onedim.f_closed_form(lo, p)
    if f_lo >= 0.0:
        raise BracketError(
            f"f = {f_lo:g} at lo = max(d_eps, 1/2 + 1e-9) = {lo:g} is not "
            f"negative; eps = {p.eps:g} may exceed the smallness threshold "
            "for a two-interval critical point")
    hi = None
    d = lo
    for _ in range(onedim._PROBE_BUDGET):
        d *= 2.0
        if onedim.f_closed_form(d, p) > 0.0:
            hi = d
            break
        lo = d
    if hi is None:
        raise BracketError(
            f"no sign change of f within {onedim._PROBE_BUDGET} doublings from d_eps")
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if onedim.f_closed_form(mid, p) > 0.0:
            hi = mid
        else:
            lo = mid
    root = hi  # side with f >= 0; adjacent to lo
    fr = onedim.f_closed_form(root, p)
    fl = onedim.f_closed_form(lo, p)
    if abs(fl) < abs(fr):
        root, fr = lo, fl
    if abs(fr) > f_tol:
        raise BracketError(
            f"bisection stalled with |f(d)| = {abs(fr):g} > f_tol = {f_tol:g}")
    return root


def sym_second_diff_recurrence(b: float, x: float) -> float:
    """(1+x)^b + (1-x)^b - 2 by the term recurrence that forms each ratio
    as it goes (the package reads the ratios from a table per b)."""
    if x >= 0.5:
        return (1.0 + x) ** b + (1.0 - x) ** b - 2.0
    term = b * (b - 1.0) * 0.5 * x * x  # C(b, 2) x^2
    acc = term
    k = 1
    while abs(term) > 1e-18 * abs(acc) and k < 60:
        # C(b, 2k+2) = C(b, 2k) * (b-2k)(b-2k-1) / ((2k+1)(2k+2))
        term *= (b - 2 * k) * (b - 2 * k - 1.0) / ((2 * k + 1.0) * (2 * k + 2.0)) * x * x
        acc += term
        k += 1
    return 2.0 * acc


def pv_pair_integral_reference(S, x: float, s: float) -> float:
    """`quad.pv_pair_integral` with the partition of the line rebuilt at
    every call (the package builds it once per set)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    xb = _boundary_point(S, x)
    if xb is None:
        raise ValueError(f"x = {x!r} is not a boundary point of the interval set")
    x = xb

    # walk the partition of the line induced by the endpoints; sign +1 on the
    # complement, -1 inside the set
    segs = []  # (lo, hi, sign) with lo < hi, possibly infinite
    segs.append((-math.inf, S.intervals[0][0], +1.0))
    for i, (a, b) in enumerate(S.intervals):
        segs.append((a, b, -1.0))
        nxt = S.intervals[i + 1][0] if i + 1 < len(S.intervals) else math.inf
        segs.append((b, nxt, +1.0))

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
            # non-adjacent segment: plain kernel integral, the first
            # difference over its length (infinite on a half-line)
            if lo == -math.inf:
                total += sig * _first_diff(-s, x - hi, math.inf)
            elif hi == math.inf:
                total += sig * _first_diff(-s, lo - x, math.inf)
            elif hi < x:
                total += sig * _first_diff(-s, x - hi, hi - lo)
            else:
                total += sig * _first_diff(-s, lo - x, hi - lo)
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
# 1D closed forms at 60 digits


# interval sets for the 1D closed forms: the paper's two-interval example at
# growing gap d, then four intervals of unequal lengths, a near-touching
# pair, and a short interval between a long one and a far one
CLOSED_FORM_SETS = [[(0.0, 0.5), (d, d + 0.5)]
                    for d in (0.6, 7.0, 100.0, 1e4, 1e6, 1e12)] + [
    [(-3.0, -1.0), (0.0, 0.2), (0.25, 1.0), (5.0, 9.0)],
    [(0.0, 1.0), (1.0 + 1e-9, 2.0)],
    [(0.0, 2.0), (2.5, 2.5 + 1e-6), (1e3, 1e3 + 3.0)],
]


def _mp_pair_second_diff(q, g, L1, L2):
    return (g + L1 + L2) ** q - (g + L1) ** q - (g + L2) ** q + g ** q


def pair_second_diff_mp(q, g, L1, L2, dps=60):
    """(g+L1+L2)^q - (g+L1)^q - (g+L2)^q + g^q at dps digits, rounded once."""
    with mp.workdps(dps):
        return float(_mp_pair_second_diff(
            mp.mpf(q), mp.mpf(g), mp.mpf(L1), mp.mpf(L2)))


def _mp_intervals(intervals):
    return [(mp.mpf(a), mp.mpf(b)) for a, b in intervals]


def riesz_1d_mp(intervals, alpha, dps=60):
    """int_E int_E |x-y|^(-alpha) on the interval union E, at dps digits:
    2 F(L) per interval plus twice the second difference of F over each
    pair, F(t) = t^(2-alpha) / ((1-alpha)(2-alpha))."""
    with mp.workdps(dps):
        ivs = _mp_intervals(intervals)
        al = mp.mpf(alpha)
        q = 2 - al
        total = mp.fsum(2 * (b - a) ** q for a, b in ivs)
        total += 2 * mp.fsum(_mp_pair_second_diff(q, c - b, b - a, d - c)
                             for i, (a, b) in enumerate(ivs)
                             for c, d in ivs[i + 1:])
        return float(total / ((1 - al) * q))


def perimeter_1d_mp(intervals, s, dps=60):
    """int_E int_{E^c} |x-y|^(-1-s) on the interval union E, at dps digits:
    2 L^(1-s) / (s(1-s)) per interval, and twice the pair integral of each
    pair of intervals taken off, which is minus the second difference of
    t^(1-s) / (s(1-s))."""
    with mp.workdps(dps):
        ivs = _mp_intervals(intervals)
        s = mp.mpf(s)
        q = 1 - s
        total = mp.fsum(2 * (b - a) ** q for a, b in ivs)
        total += 2 * mp.fsum(_mp_pair_second_diff(q, c - b, b - a, d - c)
                             for i, (a, b) in enumerate(ivs)
                             for c, d in ivs[i + 1:])
        return float(total / (s * q))


def endpoint_fields_1d_mp(intervals, s, alpha, dps=60):
    """(kappa, V) at the endpoints a_1, b_1, a_2, ... of the interval union,
    at dps digits, each rounded once.

    V sums | |b - x|^q - |a - x|^q | / q over the intervals, q = 1 - alpha.
    kappa sums, over the segments of the line between consecutive endpoints
    (sign +1 on the complement, -1 in the set), the tail difference
    T(near) - T(far) of T(t) = t^(-s)/s = int_t^inf r^(-1-s) dr, near and
    far the distances from x to the segment's ends (T(inf) = 0). The two
    segments at x carry opposite signs, so their divergent T(0) terms cancel
    and are left out; every other power is subtracted as it stands."""
    with mp.workdps(dps):
        ivs = _mp_intervals(intervals)
        s, q = mp.mpf(s), 1 - mp.mpf(alpha)
        ends = [e for ab in ivs for e in ab]
        bounds = [-mp.inf] + ends + [mp.inf]

        def tail(t):
            return 0 if t == 0 or mp.isinf(t) else t ** (-s) / s

        kap, pot = [], []
        for x in ends:
            pot.append(mp.fsum(abs(abs(b - x) ** q - abs(a - x) ** q) / q
                               for a, b in ivs))
            total = []
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                sign = 1 if k % 2 == 0 else -1
                near, far = (x - hi, x - lo) if hi <= x else (lo - x, hi - x)
                total.append(sign * (tail(near) - tail(far)))
            kap.append(mp.fsum(total))
        return [float(v) for v in kap], [float(v) for v in pot]


# ---------------------------------------------------------------------------
# brute-force oracle: globally adaptive 1D bisection


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

    Raises OracleError, a QuadratureError carrying the best estimate, when
    the subdivision budget is exhausted before the tolerance is met.
    """
    value, err, cnt = _oracle_1d(integrand, region, tol)
    _certified(value, err, tol)
    result = OracleResult(value=value, error=err, subdivisions=cnt)
    return result if full_output else result.value


# ---------------------------------------------------------------------------
# principal values and 2D boxes by adaptive 1D bisection


@dataclass(frozen=True)
class PVSpec:
    """Principal-value prescription: singular point and pairing radius."""

    singular_point: float
    pairing_radius: float

    def __post_init__(self):
        if not (self.pairing_radius > 0):
            raise ValueError("pairing_radius must be positive")


def _certified(value, err, tol):
    """value, or OracleError when err misses the tolerance (brute_oracle's
    acceptance rule)."""
    if err > max(tol.abs_tol, tol.rel_tol * abs(value)) * 8.0 + 1e-300:
        raise OracleError(
            f"oracle did not converge: error bound {err:g} for estimate {value:g}",
            estimate=value, error_bound=err)
    return value


def pv_oracle(f, region, tol: QuadTolerance, pv: PVSpec):
    """PV integral over a 1D region: antipodal pairing inside the window,
    then shrinking windows with extrapolation.

    far  = integral over region minus the window (no singularity),
    near(rho) = int_rho^R [f(x0 + t) + f(x0 - t)] dt, restricted to the
    window; the PV limit is near(0+). The sequence near(R 2^-k) is
    extrapolated geometrically from its observed difference ratios.
    """
    x0 = pv.singular_point
    R = pv.pairing_radius

    far_segs = []
    for lo, hi in _segments_of(region):
        if hi <= x0 - R or lo >= x0 + R:
            far_segs.append((lo, hi))
        else:
            if lo < x0 - R:
                far_segs.append((lo, x0 - R))
            if hi > x0 + R:
                far_segs.append((x0 + R, hi))
    far = far_err = 0.0
    for lo, hi in far_segs:
        v, e, _ = _integrate_segment(f, lo, hi, tol, tol.max_subdivisions)
        far += v
        far_err += e

    # indicator for membership of a point in the region (window may stick out)
    segs = _segments_of(region)

    def paired(t):
        t = np.asarray(t, dtype=float)
        yp = x0 + t
        ym = x0 - t
        out = np.zeros_like(t)
        for lo, hi in segs:
            mp = (yp > lo) & (yp < hi)
            if mp.any():
                out[mp] += np.asarray(f(yp[mp]), dtype=float)
            mm = (ym > lo) & (ym < hi)
            if mm.any():
                out[mm] += np.asarray(f(ym[mm]), dtype=float)
        return out

    # shrinking windows
    levels = 26
    rhos = R * 0.5 ** np.arange(1, levels + 1)
    vals = []
    acc = 0.0
    acc_err = 0.0
    hi = R
    for rho in rhos:
        v, e, _ = _adaptive_1d(paired, rho, hi, tol,
                               max(64, tol.max_subdivisions // levels))
        acc += v
        acc_err += e
        vals.append(acc)
        hi = rho
    # geometric extrapolation of the tail of the sequence
    d1 = vals[-1] - vals[-2]
    d2 = vals[-2] - vals[-3]
    if abs(d2) > 0 and abs(d1) < abs(d2):
        q = d1 / d2
        extrap = vals[-1] + d1 * q / (1.0 - q)
        tail_err = abs(d1 * q / (1.0 - q)) + abs(d1)
    else:
        extrap = vals[-1]
        tail_err = abs(d1)
    return _certified(far + extrap, far_err + acc_err + tail_err, tol)


def box_oracle(f, box, tol: QuadTolerance):
    """int over the box ((ax, bx), (ay, by)) of f(x, y), iterated: an
    adaptive outer rule in x over adaptive inner rules in y."""
    (ax, bx), (ay, by) = box
    inner_tol = QuadTolerance(rel_tol=tol.rel_tol * 0.1,
                              abs_tol=tol.abs_tol * 0.1,
                              max_subdivisions=tol.max_subdivisions)
    inner_err_worst = 0.0

    def outer_integrand(xs):
        nonlocal inner_err_worst
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty_like(xs)
        for i, xv in enumerate(xs):
            def inner(ys):
                ys = np.asarray(ys, dtype=float)
                return np.asarray(f(np.full_like(ys, xv), ys), dtype=float)
            v, e, _ = _adaptive_1d(inner, ay, by, inner_tol)
            inner_err_worst = max(inner_err_worst, e)
            out[i] = v
        return out

    v, e, _ = _adaptive_1d(outer_integrand, ax, bx, tol)
    return _certified(v, e + inner_err_worst * (bx - ax), tol)
