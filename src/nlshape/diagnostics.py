"""Rigidity diagnostics and integral-identity checks.

Quantities measured on a candidate critical set, each by the one public
function that owns it, which diagnose calls:

* delta: the Lipschitz defect of the curvature over boundary node pairs,
  sup |kappa(x) - kappa(y)| / |x - y|. On critical sets the boundary
  condition turns this into 2*eps*sup |V(x)-V(y)|/|x-y|, so both routes are
  offered and agree there;
* eta: the scale-weighted version diam^(2n+s+1) * delta; the implied
  constant delta / eps is reported alongside, since the interesting bound
  is eta <= C * diam^(2n+s+1) * eps with C not known explicitly;
* rho: the annulus deficit inf_p (R - r) / diam over centers p with
  B_r(p) inside E inside B_R(p), over the boundary samples at the shape's
  dense grid (max(512, 8 kmax) angles, sets). The center comes
  from a Remez-type exchange on the linearized distances (_min_zone); its
  certificate is two samples at the largest and two at the smallest
  distance, interlaced in angle, and rho is the exact width there;
* lambda_hat: weighted boundary mean of zeta, with the sup-norm residual of
  the constant-zeta condition; a cross-estimate of the same multiplier comes
  from integral identities alone, see lambda_cross_estimate;
* named identity checks, each returning a relative residual, from one table
  (_IDENTITIES) that identity_check and diagnose both run:
    Au1          int_E grad V . x dx = -(alpha/2) int_E V dx
    Au2          int_dE V x.nu dsigma = (n - alpha/2) int_E V dx
    Minkowski    int_dE kappa x.nu dsigma = (n - s) * P_s(E)
    Lal          max_x V_E(x) <= V_B(0), B the centered ball with |B| = |E|
    TangentialBall   sup |grad V . tau| scales linearly with the ball-map
                     size mu (ratio test against the half-amplitude shape)

  int_E V dx is the Riesz energy R_alpha(E) = int_E int_E |x - y|^(-alpha)
  by the definition of V, so Au1 and Au2 take it from the kept boundary
  sweep, which carries the value of riesz_energy (the boundary-reduced pair
  energy in the plane, the closed form on the line).
  Each stays two-sided: Au1 audits the left side of its geometry's kernel
  (functionals._kernel; in the plane the off-curve interior rule, on the
  line the closed-form moments), Au2 the on-curve V of the boundary sweep.

Minkowski's factor (n - s) takes the first-variation normalization as 1,
the value of the kappa and P_s of functionals: calibrate_variation_constant
measures it on balls, where kappa is constant and the curvature pairing has
a closed value; the ratio is radius-independent, which doubles as a
self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParamError, QuadratureError
from .functionals import (DEFAULT_NQ, DEFAULT_RESOLUTION, _as_star,
                          _curve_batch, _grad_tau_field, _kernel, _sweep,
                          _BOUNDARY_GRADIENT, boundary_fields)
from .sets import (Ball, Params, StarShape2D, diameter, isodiametric_ratio,
                   mesh_angles, volume, _pair_blocks, _require_real,
                   _sequence)

__all__ = [
    "DiagnosticsReport", "lipschitz_defect_delta", "eta", "annulus_deficit_rho",
    "lambda_hat_and_residual", "lambda_cross_estimate", "identity_check",
    "calibrate_variation_constant", "ball_map_mu", "diagnose", "IDENTITY_KINDS",
]

DEFAULT_MU_GATE = 0.5
_PROBE_SEED = 173001
_RESIDUAL_FLOOR = 1e-30
_RHO_ROUNDS = 16      # re-linearizations of the annulus width
_RHO_EXCHANGES = 64   # exchange steps per linearization
_CALIBRATION_SPREAD_TOL = 1e-4


@dataclass(frozen=True)
class DiagnosticsReport:
    """One shape's diagnostic summary. implied_constants carries the
    empirical values of the constants that are only existential in the
    underlying estimates (bound constant for eta, cross-estimated multiplier,
    ball-map size)."""

    delta_s: float
    eta_s: float
    rho: Optional[float]
    iso_ratio: float
    lambda_hat: float
    el_residual: float
    identity_residuals: dict
    mesh_resolution: int
    error_estimates: dict = field(default_factory=dict)
    implied_constants: dict = field(default_factory=dict)

    def as_dict(self):
        from dataclasses import asdict
        return asdict(self)


def _pairwise_defect(points, values):
    # the ratio is symmetric in the pair, so its max over the blocks of the
    # upper triangle (_pair_blocks), whose diagonal reads 0 / inf = 0, is
    # the max over pairs i < j; coincident nodes read inf or nan, and
    # np.max keeps a nan
    best = []
    for rows, sq in _pair_blocks(points):
        dist = np.sqrt(sq)
        np.fill_diagonal(dist, np.inf)
        dv = np.abs(values[rows, None] - values[None, rows.start:])
        best.append((dv / dist).max())
    return float(np.max(best))


def lipschitz_defect_delta(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
                           nq: int = DEFAULT_NQ, route: str = "kappa") -> float:
    """sup over boundary node pairs of |kappa(x) - kappa(y)| / |x - y|.

    route="potential" instead computes 2 * eps * sup |V(x) - V(y)| / |x - y|,
    which equals the kappa route on sets satisfying the boundary condition
    (zeta constant makes the kappa differences -2*eps times the V
    differences). Comparing the two routes is itself a criticality check.
    """
    if route not in ("kappa", "potential"):
        raise ParamError(f"route must be 'kappa' or 'potential', got {route!r}")
    bf = _sweep(S, p, resolution, nq)
    if route == "kappa":
        return _pairwise_defect(bf.mesh.points, bf.kappa)
    return 2.0 * p.eps * _pairwise_defect(bf.mesh.points, bf.pot)


def eta(S, p: Params, delta: float) -> float:
    """Scale-weighted defect diam^(2n+s+1) * delta, for a real delta (not a
    bool) in [0, inf]."""
    delta = _require_real("delta", delta, "[0, inf]")
    _kernel(S, p)  # refuses Params of another dimension
    return diameter(S) ** (2.0 * p.n + p.s + 1.0) * delta


def _min_zone(bx, by, center, scale: float):
    """(c, width): a center c of the thinnest annulus about the points
    (bx, by) and the width max_i |b_i - c| - min_i |b_i - c| there.

    From the current center c, |b_i - (c + delta)| is linearized as
    d_i - u_i . delta (u_i the unit vector from c to b_i), and d_i is fitted
    by c_0 + u_i . delta in the Chebyshev sense over all points. The basis
    {1, cos phi, sin phi} is a Haar system on the circle, so the minimax fit
    is the one that levels four points with alternating signs in angle, found
    by single-point exchange: solve for c_0, delta and the levelled error h
    on the reference, then swap in the point of largest residual for the
    neighbour of its sign. Then c moves by delta and the fit is repeated
    until |delta| <= 1e-15 * scale. At the fixed point two points are
    farthest and two nearest, interlaced in angle, which is the certificate
    of a minimum-zone center.

    The width is always the exact one at a real center, the least over the
    centers visited, the start among them; a capped or singular exchange
    only ends the search early.
    """
    tol = 1e-15 * scale
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    ref = [k * (bx.size // 4) for k in range(4)]
    c = np.array(center, dtype=float)
    best_c, best_w = c, math.inf
    step = math.inf
    for _ in range(_RHO_ROUNDS):
        dx, dy = bx - c[0], by - c[1]
        d = np.hypot(dx, dy)
        w = float(d.max() - d.min())
        if w < best_w:
            best_c, best_w = c, w
        if not step > tol:  # converged, or a NaN step
            break
        ux, uy = dx / d, dy / d
        phi = np.arctan2(dy, dx)
        for _ in range(_RHO_EXCHANGES):
            ref.sort(key=phi.__getitem__)
            system = np.column_stack((np.ones(4), ux[ref], uy[ref], signs))
            try:
                c0, sx, sy, h = np.linalg.solve(system, d[ref])
            except np.linalg.LinAlgError:
                return best_c, best_w
            r = d - (c0 + ux * sx + uy * sy)
            j = int(np.argmax(np.abs(r)))
            if abs(r[j]) <= abs(h) + tol or j in ref:
                break
            # j lies between two neighbours of the reference, whose
            # residuals have opposite signs; it replaces the one of its own
            # sign, so the signs still alternate around the circle
            k = sum(phi[i] < phi[j] for i in ref)
            left, right = (k - 1) % 4, k % 4
            ref[left if (signs[left] * h > 0.0) == (r[j] > 0.0) else right] = j
        step = math.hypot(sx, sy)
        c = c + (sx, sy)
    return best_c, best_w


def annulus_deficit_rho(S) -> float:
    """inf over centers of (circumradius - inradius) / diam.

    Balls score 0 exactly. For star shapes the width is taken over the
    boundary samples at the shape's dense grid (max(512, 8 kmax) angles,
    the diameter's), and the center is the minimum-zone center of those
    samples found by exchange from S.center (_min_zone): two samples at the
    largest and two at the smallest distance, interlaced in angle. The
    value is the exact width at that center, never more than at S.center,
    so it bounds the infimum from above.
    """
    if isinstance(S, Ball) and S.n == 2:
        return 0.0
    star = _as_star(S)
    c, s, r, _ = star._grid(star._dense_size())
    width = _min_zone(*star._position(c, s, r).T, star.center, float(r.mean()))[1]
    return width / diameter(star)


def lambda_hat_and_residual(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
                            nq: int = DEFAULT_NQ):
    """Weighted boundary mean of zeta and the sup-norm residual against it
    (BoundaryFields.lambda_hat_and_residual of the boundary sweep)."""
    return _sweep(S, p, resolution, nq).lambda_hat_and_residual()


def lambda_cross_estimate(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
                          nq: int = DEFAULT_NQ) -> float:
    """The multiplier from integral identities alone.

    Pairing the boundary condition with x.nu and applying the Minkowski and
    Au2 identities gives

        lambda * n * |E| = (n-s) * P_s + eps * (2n - alpha) * R_alpha,

    the dilation derivative d/dt F_eps(tE) at t = 1 (int_E V equals the
    Riesz double integral; the first-variation constants are the measured
    1 and 2 of Params). Exact on critical sets, a consistency cross-check
    on candidates. P_s and R_alpha are those of the kept boundary sweep,
    which diagnose reads too.
    """
    bf = _sweep(S, p, resolution, nq)
    num = (p.n - p.s) * bf.perimeter \
        + 2.0 * p.eps * (p.n - 0.5 * p.alpha) * bf.riesz
    return num / (p.n * volume(S))


def ball_map_mu(S) -> float:
    """Size of S as a radial perturbation of its equal-volume centered ball:
    max over angles of |r(theta) - R| + |r'(theta)|, R = sqrt(area/pi)."""
    if isinstance(S, Ball) and S.n == 2:
        return 0.0
    star = _as_star(S)
    R = math.sqrt(volume(star) / math.pi)
    _, _, r, dr = star._grid(max(1024, 8 * max(1, star.kmax)))
    return float((np.abs(r - R) + np.abs(dr)).max())


def _rel_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _RESIDUAL_FLOOR)


def _x_dot_nu_pairing(mesh, values) -> float:
    """int_dE values * x.nu dsigma on the mesh (in 1D the sum over the
    endpoints, whose weights are 1)."""
    xdotnu = (mesh.points * mesh.normals).sum(1)
    return math.fsum(mesh.weights * values * xdotnu)


def au2_sides(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
              nq: int = DEFAULT_NQ):
    """(boundary pairing int_dE V x.nu, volume integral int_E V).

    The volume integral is R_alpha, which the boundary sweep carries (the
    value of riesz_energy). The ratio of the two recovers the factor
    n - alpha/2; exposed separately so the factor can be fitted across alpha
    values.
    """
    bf = _sweep(S, p, resolution, nq)
    return _x_dot_nu_pairing(bf.mesh, bf.pot), bf.riesz


def _check_au1(k, p: Params, resolution, nq) -> float:
    # the left side first: it refuses an alpha out of its range before
    # anything is swept
    lhs = k.au1_lhs(p.alpha, resolution, nq)
    rz = _sweep(k.S, p, resolution, nq).riesz
    return _rel_residual(lhs, -0.5 * p.alpha * rz)


def _check_au2(k, p: Params, resolution, nq) -> float:
    lhs, rz = au2_sides(k.S, p, resolution, nq)
    return _rel_residual(lhs, (p.n - 0.5 * p.alpha) * rz)


def _minkowski_sides(n, s, mesh, kappa, per):
    """(int_dE kappa x.nu dsigma, (n - s) P_s): the two sides of Minkowski."""
    return _x_dot_nu_pairing(mesh, kappa), (n - s) * per


def _check_minkowski(k, p: Params, resolution, nq) -> float:
    bf = _sweep(k.S, p, resolution, nq)
    lhs, rhs = _minkowski_sides(p.n, p.s, bf.mesh, bf.kappa, bf.perimeter)
    return _rel_residual(lhs, rhs)


def _check_lal(k, p: Params, resolution, nq) -> float:
    """Positive part of max_x (V_E(x) - V_B(0)) / V_B(0) over 50 probe
    points of the kernel k, B the centered ball of the same volume. The
    clamp makes 'no violation' read exactly 0."""
    vmax, vb0 = k.lal_max(p.alpha, nq, 50, np.random.default_rng(_PROBE_SEED))
    return max(0.0, (vmax - vb0) / vb0)


def _check_tangential_ball(k, p: Params, resolution, nq) -> float:
    """Linearity of sup |grad V . tau| in the ball-map size mu: halve the
    radial deviation from the equal-area ball and compare the ratio of the
    sups with the ratio of the mus. The residual is their mismatch. Each sup
    is over the mesh nodes, from the one field that owns grad V . tau
    (_grad_tau_field, on the curve by _curve_batch); no boundary sweep
    carries it."""
    S = _as_star(k.S)
    _require_real("alpha", p.alpha, f"(0, {S.n - 1})", why=_BOUNDARY_GRADIENT)
    th = mesh_angles(resolution)
    mu_full = ball_map_mu(S)
    if mu_full == 0.0:
        return 0.0
    R = math.sqrt(volume(S) / math.pi)
    # the radius (R + r(theta)) / 2 is positive wherever r is
    half = StarShape2D._positive(S.center, R + 0.5 * (S.r0 - R), 0.5 * S.a,
                                 0.5 * S.b)
    ratio_mu = mu_full / ball_map_mu(half)
    g_full, g_half = (float(np.abs(_curve_batch(
        T, th, nq, _grad_tau_field(p.alpha))[0]).max()) for T in (S, half))
    ratio_g = g_full / max(g_half, _RESIDUAL_FLOOR)
    return abs(ratio_g - ratio_mu) / ratio_mu


# the one implementation of each named identity, k = _kernel(S, p): what
# identity_check dispatches and diagnose runs, in the CLI's column order
_IDENTITIES = {"Au1": _check_au1, "Au2": _check_au2,
               "Minkowski": _check_minkowski, "Lal": _check_lal,
               "TangentialBall": _check_tangential_ball}
IDENTITY_KINDS = tuple(_IDENTITIES)


def identity_check(S, p: Params, kind: str, resolution: int = DEFAULT_RESOLUTION,
                   nq: int = DEFAULT_NQ) -> float:
    """Relative residual of one of the named integral identities."""
    if kind not in IDENTITY_KINDS:
        raise ParamError(
            f"unknown identity kind {kind!r}; choose from {IDENTITY_KINDS}")
    return _IDENTITIES[kind](_kernel(S, p, nq), p, resolution, nq)


def calibrate_variation_constant(s: float, n: int = 2,
                                 resolution: int = DEFAULT_RESOLUTION,
                                 nq: int = DEFAULT_NQ, radii=(0.5, 1.0, 2.0)) -> float:
    """The first-variation normalization c_var = (n - s) P_s(B) /
    int_dB kappa x.nu dsigma over balls of several radii, averaged; raises
    QuadratureError if the values disagree by a relative spread beyond 1e-4.

    Both sides scale like R^(n-s), so radius independence of the ratio is a
    built-in correctness check. In 1D everything is closed-form and the value
    is exactly 1 under the conventions used here, which the Minkowski
    identity and lambda_cross_estimate take it to be: this measures what
    they assume. Each ball's kappa and P_s come from its full boundary
    sweep (boundary_fields) at eps = 0, in the plane one on-curve pass. An
    n that Params refuses (any but 1 and 2), or a radii that is not a
    sequence, is empty or holds a radius outside (0, inf), raises
    ParamError before any ball is swept.
    """
    s = _require_real("s", s, "(0, 1)")
    # at eps = 0, kappa and P_s do not read alpha: any alpha in range serves
    p = Params(n=n, s=s, alpha=0.5, eps=0.0)
    radii = [_require_real("radius", R, "(0, inf)")
             for R in _sequence("radii", radii, ParamError)]
    if not radii:
        raise ParamError("radii must name at least one ball radius, got none")
    vals = []
    for R in radii:
        bf = boundary_fields(Ball((0.0,) * n, R), p, resolution, nq)
        pairing, rhs = _minkowski_sides(n, s, bf.mesh, bf.kappa, bf.perimeter)
        vals.append(rhs / pairing)
    spread = (max(vals) - min(vals)) / abs(float(np.mean(vals)))
    if spread > _CALIBRATION_SPREAD_TOL:
        raise QuadratureError(
            f"calibration is radius-dependent (spread {spread:g}); "
            "raise the quadrature resolution")
    return float(np.mean(vals))


def diagnose(S, p: Params, resolution: int = DEFAULT_RESOLUTION,
             nq: int = DEFAULT_NQ, with_identities: bool = True
             ) -> DiagnosticsReport:
    """Full diagnostic sweep for one shape.

    Each entry comes from its public owner, and each identity from the check
    that identity_check runs, so the two agree bit for bit. The sweep
    readers get the canonical shape, which keeps its sweep at
    (p, resolution, nq): one sweep serves them all, and none if a descent or
    an earlier call swept the shape. The closed-form measures (eta, rho,
    iso_ratio, mu) take S, so a ball gets its exact values. The planar error
    estimates are |value(2 nq) - value(nq)|, all four from one sweep at 2 nq.

    Au1 runs only at alpha < 1, where the interior rule resolves its
    gradient's boundary layer. TangentialBall runs only when also the
    measured mu is positive and at most DEFAULT_MU_GATE: the comparison is a
    small-perturbation statement.
    """
    k = _kernel(S, p, nq)
    C = k.S
    mu = ball_map_mu(S) if k.planar else None
    bf = _sweep(C, p, resolution, nq)
    lam, el_res = lambda_hat_and_residual(C, p, resolution, nq)
    delta = lipschitz_defect_delta(C, p, resolution, nq)
    eta_v = eta(S, p, delta)
    rho = annulus_deficit_rho(S) if k.planar else None

    implied = {"lambda_cross": lambda_cross_estimate(C, p, resolution, nq)}
    if p.eps > 0.0:
        implied["eta_bound_constant"] = delta / p.eps
    if mu is not None:
        implied["mu"] = mu

    runs = {"Au1": p.alpha < 1.0,
            "TangentialBall": (k.planar and 0.0 < mu <= DEFAULT_MU_GATE
                               and p.alpha < 1.0)}
    identities = {kind: check(k, p, resolution, nq)
                  for kind, check in _IDENTITIES.items()
                  if with_identities and runs.get(kind, True)}

    errors = {}
    if k.planar:
        bf2 = _sweep(C, p, resolution, 2 * nq)
        errors["perimeter"] = abs(bf2.perimeter - bf.perimeter)
        errors["riesz"] = abs(bf2.riesz - bf.riesz)
        errors["kappa"] = float(np.abs(bf2.kappa - bf.kappa).max())
        errors["potential"] = float(np.abs(bf2.pot - bf.pot).max())

    return DiagnosticsReport(
        delta_s=delta, eta_s=eta_v, rho=rho,
        iso_ratio=isodiametric_ratio(S),
        lambda_hat=lam, el_residual=el_res,
        identity_residuals=identities,
        mesh_resolution=bf.mesh.points.shape[0],
        error_estimates=errors,
        implied_constants=implied)
