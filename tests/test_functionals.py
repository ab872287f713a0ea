"""Energy, curvature, and potential evaluations against independent references.

Disk references come from the closed-form / covariogram oracles in
tests/oracles.py, which are cheap enough to run live.  Star-shape references
were generated once by the ray-tracing oracles in the same module (slow) and
are frozen here; regenerate with oracles.py if a formula changes.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nlshape import (Ball, GeometryError, IntervalSet, ParamError, Params,
                     StarShape2D, boundary_fields, diagnose, energy,
                     frac_curvature, frac_perimeter, grad_potential,
                     grad_potential_at_points, potential, potential_at_points,
                     pv_pair_integral, riesz_energy, set_integral_2d,
                     tangential_grad_potential, zeta)
from nlshape.sets import scaled, translated

from oracles import (CLOSED_FORM_SETS, QuadTolerance, brute_oracle,
                     disk_curvature_exact, disk_perimeter_oracle,
                     disk_potential_oracle, disk_riesz_oracle,
                     endpoint_fields_1d_mp, perimeter_1d_mp, riesz_1d_mp)


# ---------------------------------------------------------------------------
# 1D closed forms

def test_perimeter_unit_interval():
    # single interval: 2 L^(1-s) / (s (1-s)); L = 1, s = 1/2 gives 8
    assert_allclose(frac_perimeter(IntervalSet([(0.0, 1.0)]), 0.5), 8.0,
                    rtol=1e-14)


def test_riesz_unit_interval():
    # 2 L^(2-a) / ((1-a)(2-a)); L = 1, a = 1/2 gives 8/3
    assert_allclose(riesz_energy(IntervalSet([(0.0, 1.0)]), 0.5), 8.0 / 3.0,
                    rtol=1e-14)


def test_potential_interval_midpoint():
    # V(1/2) = 2 (1/2)^(1/2) / (1/2) = 2 sqrt 2
    got = potential(IntervalSet([(0.0, 1.0)]), 0.5, 0.5)
    assert_allclose(got, 2.0 * math.sqrt(2.0), rtol=1e-14)


def test_ball_1d_routes_through_interval_forms():
    B = Ball((0.3,), 0.7)
    iv = IntervalSet([(-0.4, 1.0)])
    assert_allclose(frac_perimeter(B, 0.4), frac_perimeter(iv, 0.4), rtol=1e-14)
    assert_allclose(riesz_energy(B, 0.6), riesz_energy(iv, 0.6), rtol=1e-14)
    assert_allclose(potential(B, 0.1, 0.5), potential(iv, 0.1, 0.5), rtol=1e-14)
    # the 1D range check applies to the ball as to its interval
    with pytest.raises(ParamError):
        riesz_energy(B, 1.5)


def _shift_overlap(ivs, ts):
    # |E intersect (E + t)| by direct interval intersection, no package calls
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros_like(ts)
    for a1, b1 in ivs:
        for a2, b2 in ivs:
            lo = np.maximum(a1, a2 + ts)
            hi = np.minimum(b1, b2 + ts)
            out += np.maximum(hi - lo, 0.0)
    return out


# kink locations of the two-interval covariogram, used as oracle segments
_COV_SEGS = [(0.0, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, 2.5), (2.5, 3.5)]


def test_perimeter_two_intervals_vs_covariogram(two_intervals):
    # P_s = 2 int_0^inf t^(-1-s) (|E| - |E cap (E+t)|) dt; the overlap
    # measure is computed by plain interval arithmetic.
    s = 0.5
    ivs = two_intervals.intervals
    meas = 2.5
    # meas - overlap(t) = 2t exactly below the shortest length/gap, and the
    # float cancellation there would poison the t^(-1-s) weight; integrate
    # that piece in closed form and start the oracle at t_cut.
    t_cut = 1e-6
    lead = 2.0 * t_cut ** (1.0 - s) / (1.0 - s)
    segs = [(t_cut, 1.0)] + _COV_SEGS[1:]
    body = brute_oracle(
        lambda t: t ** (-1.0 - s) * (meas - _shift_overlap(ivs, t)),
        segs, QuadTolerance(rel_tol=1e-11, abs_tol=1e-13))
    tail = meas * 3.5 ** (-s) / s   # overlap is 0 past the full spread
    assert_allclose(frac_perimeter(two_intervals, s),
                    2.0 * (lead + body + tail), rtol=1e-9)


def test_riesz_two_intervals_vs_covariogram(two_intervals):
    # int_E int_E |x-y|^(-a) = 2 int_0^inf t^(-a) |E cap (E+t)| dt
    alpha = 0.5
    ivs = two_intervals.intervals
    ref = 2.0 * brute_oracle(
        lambda t: t ** (-alpha) * _shift_overlap(ivs, t),
        _COV_SEGS, QuadTolerance(rel_tol=1e-11, abs_tol=1e-13))
    assert_allclose(riesz_energy(two_intervals, alpha), ref, rtol=1e-9)


@pytest.mark.parametrize("e", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("intervals", CLOSED_FORM_SETS)
def test_1d_energies_match_60_digit_closed_forms(intervals, e):
    # each pair's second difference is formed without subtracting nearly
    # equal powers, so both energies keep roundoff at any gap
    S = IntervalSet(intervals)
    assert_allclose(riesz_energy(S, e), riesz_1d_mp(intervals, e),
                    rtol=1e-15, atol=0.0)
    assert_allclose(frac_perimeter(S, e), perimeter_1d_mp(intervals, e),
                    rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("e", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("intervals", CLOSED_FORM_SETS)
def test_1d_endpoint_fields_match_60_digit_closed_forms(intervals, e):
    # each far segment's kernel integral is a first difference formed
    # without subtracting nearly equal powers, so kappa and V keep roundoff
    # at any gap (the difference of the two powers left V 6e-6 off at
    # d = 1e12)
    bf = boundary_fields(IntervalSet(intervals),
                         Params(n=1, s=e, alpha=e, eps=1e-3))
    kappa, pot = endpoint_fields_1d_mp(intervals, e, e)
    assert_allclose(bf.kappa, kappa, rtol=2e-15, atol=0.0)
    assert_allclose(bf.pot, pot, rtol=2e-15, atol=0.0)


def test_1d_fields_at_a_subnormal_gap():
    # 1 / 4e-323 overflows, so the far interval's first difference
    # subtracts its two powers as they stand instead of returning inf
    S = IntervalSet([(0.0, 2e-323), (4e-323, 1.0)])
    assert potential(S, 0.0, 0.5) == 2.0
    assert math.isfinite(frac_curvature(S, 0.0, 0.5))


@given(x=st.floats(-2.0, 6.0), alpha=st.floats(0.05, 0.95))
def test_potential_1d_matches_oracle(x, alpha):
    S = IntervalSet([(0.0, 1.0), (2.0, 3.5)])
    scale = max(1.0, abs(x))
    for a, b in S.intervals:
        if min(abs(x - a), abs(x - b)) < 1e-3 * scale:
            return  # oracle cannot certify arbitrarily close to an endpoint
    if any(a < x < b for a, b in S.intervals):
        # shift so the singularity sits at 0 and take the cut neighbourhood
        # in closed form: near alpha = 1 the shell contributions decay like
        # 2^(-(1-alpha) k) per halving, too slowly for refinement alone
        cut = 1e-6
        lead = 2.0 * cut ** (1.0 - alpha) / (1.0 - alpha)
        segs = []
        for a, b in S.intervals:
            if a < x < b:
                segs += [(a - x, -cut), (cut, b - x)]
            else:
                segs.append((a - x, b - x))
        ref = lead + brute_oracle(lambda u: np.abs(u) ** (-alpha), segs,
                                  QuadTolerance(rel_tol=1e-10, abs_tol=1e-12))
    else:
        ref = brute_oracle(lambda y: np.abs(x - y) ** (-alpha), S,
                           QuadTolerance(rel_tol=1e-10, abs_tol=1e-12))
    assert_allclose(potential(S, x, alpha), ref, rtol=1e-9)


def test_grad_potential_1d_finite_difference(two_intervals):
    alpha = 0.5
    for x in (0.4, 2.9, 1.5, -1.0, 5.0):
        h = 1e-6
        fd = (potential(two_intervals, x + h, alpha)
              - potential(two_intervals, x - h, alpha)) / (2.0 * h)
        got = grad_potential(two_intervals, x, alpha)
        assert got.shape == (1,)
        assert_allclose(got[0], fd, rtol=1e-7, atol=1e-7)


def test_grad_potential_1d_refuses_boundary(two_intervals):
    with pytest.raises(ParamError):
        grad_potential(two_intervals, 1.0, 0.5)


def test_grad_potential_1d_interior_point_beside_far_interval():
    # 0.25 is interior although the far interval's endpoints reach 1e13
    S = IntervalSet([(0.0, 0.5), (1e13, 1e13 + 0.5)])
    assert abs(grad_potential(S, [0.25], 0.5)[0]) < 1e-12


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_grad_potential_1d_at_infinity_is_zero(two_intervals, x):
    # a point at infinity is no boundary point; the gradient decays to 0
    assert grad_potential(two_intervals, x, 0.5)[0] == 0.0


def test_nonpositive_nq_is_a_param_error(mode3_star, params_2d):
    with pytest.raises(ParamError, match="nq"):
        frac_perimeter(mode3_star, 0.5, 64, 0)
    with pytest.raises(ParamError, match="nq"):
        boundary_fields(mode3_star, params_2d, 64, nq=0)


def test_potential_1d_alpha_range(two_intervals):
    with pytest.raises(ParamError):
        potential(two_intervals, 0.5, 1.2)


# ---------------------------------------------------------------------------
# 2D disks against closed-form / covariogram oracles (live)

DISK_PERIMETER_REF = {0.25: 93.1299884938169,
                      0.5: 62.130638777786,
                      0.75: 74.1919896151554}
DISK_RIESZ_REF = {0.25: 10.6434272564373,
                  0.5: 11.8344073862526,
                  0.75: 13.6969826982023}


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_disk_perimeter_vs_covariogram(unit_disk, s):
    ref = disk_perimeter_oracle(1.0, s)
    assert_allclose(ref, DISK_PERIMETER_REF[s], rtol=1e-10)  # oracle drift trap
    assert_allclose(frac_perimeter(unit_disk, s), ref, rtol=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_disk_riesz_vs_covariogram(unit_disk, alpha):
    ref = disk_riesz_oracle(1.0, alpha)
    assert_allclose(ref, DISK_RIESZ_REF[alpha], rtol=1e-10)
    assert_allclose(riesz_energy(unit_disk, alpha), ref, rtol=1e-9)


@pytest.mark.parametrize("R,s", [(1.0, 0.3), (1.3, 0.5), (0.6, 0.8)])
def test_disk_curvature_closed_form(R, s):
    B = Ball((0.0, 0.0), R)
    got = frac_curvature(B, (R, 0.0), s)
    assert_allclose(got, disk_curvature_exact(R, s), rtol=1e-8)


def test_disk_potential_interior_vs_ray_oracle(unit_disk):
    ref = disk_potential_oracle(1.0, 0.3, 0.5)
    assert_allclose(ref, 4.1175927766466, rtol=1e-10)
    got = potential(unit_disk, (0.3, 0.0), 0.5)
    assert_allclose(got, ref, rtol=1e-9)
    # off-axis point at the same radius by symmetry
    c, sn = math.cos(1.1), math.sin(1.1)
    assert_allclose(potential(unit_disk, (0.3 * c, 0.3 * sn), 0.5), ref,
                    rtol=1e-9)


def test_disk_potential_center_closed_form(unit_disk):
    # V(0) = 2 pi R^(2-a) / (2-a)
    for alpha in (0.3, 0.5, 1.5):
        got = potential(unit_disk, (0.0, 0.0), alpha)
        assert_allclose(got, 2.0 * math.pi / (2.0 - alpha), rtol=1e-10)


def test_ball_3d_potential_center():
    # the package computes in n in {1, 2}: a ball in n = 3 is refused where
    # it is built, so no potential reads it, at the center neither
    for query in (potential, grad_potential):
        with pytest.raises(GeometryError, match=_BALL3_REFUSED):
            query(Ball((0.0, 0.0, 0.0), 1.0), (0.0, 0.0, 0.0), 0.5)


def test_disk_tangential_gradient_vanishes(unit_disk):
    for th in (0.0, 0.7, 2.1):
        x = (math.cos(th), math.sin(th))
        assert abs(tangential_grad_potential(unit_disk, x, 0.5)) < 1e-10


def test_grad_potential_2d_finite_difference(unit_disk):
    alpha = 0.5
    for x in ((0.3, 0.1), (1.5, 0.4)):
        g = grad_potential(unit_disk, x, alpha)
        h = 1e-5
        for comp in range(2):
            xp = np.array(x, dtype=float)
            xm = xp.copy()
            xp[comp] += h
            xm[comp] -= h
            fd = (potential(unit_disk, xp, alpha)
                  - potential(unit_disk, xm, alpha)) / (2.0 * h)
            assert_allclose(g[comp], fd, rtol=2e-6, atol=1e-9)


def test_grad_potential_boundary_alpha_gate(unit_disk):
    with pytest.raises(ParamError):
        grad_potential(unit_disk, (1.0, 0.0), 1.2)
    # alpha < 1 is allowed on the boundary
    g = grad_potential(unit_disk, (1.0, 0.0), 0.5)
    assert g.shape == (2,)
    assert abs(g[1]) < 1e-10  # radial by symmetry


def test_frac_curvature_off_curve_rejected(unit_disk):
    with pytest.raises(GeometryError):
        frac_curvature(unit_disk, (0.5, 0.0), 0.5)


def test_tangential_gradient_needs_planar_boundary(two_intervals):
    with pytest.raises(GeometryError):
        tangential_grad_potential(two_intervals, 0.0, 0.5)


# each point query with a valid third argument; further positional
# arguments are passed on
POINT_QUERIES = {
    "potential": lambda S, x, *rest: potential(S, x, 0.5, *rest),
    "grad_potential": lambda S, x, *rest: grad_potential(S, x, 0.5, *rest),
    "tangential_grad_potential":
        lambda S, x, *rest: tangential_grad_potential(S, x, 0.5, *rest),
    "frac_curvature": lambda S, x, *rest: frac_curvature(S, x, 0.5, *rest),
    "zeta": lambda S, x, *rest: zeta(S, x, Params(n=2, s=0.5, alpha=0.5,
                                                  eps=1e-3), *rest),
}


@pytest.mark.parametrize("name", sorted(POINT_QUERIES))
def test_point_query_nq_is_keyword_only(unit_disk, name):
    # a stale call that passes a mesh resolution positionally must not run
    # with it as nq
    with pytest.raises(TypeError):
        POINT_QUERIES[name](unit_disk, (1.0, 0.0), 256)


BATCH_QUERIES = {
    "potential_at_points": potential_at_points,
    "grad_potential_at_points": grad_potential_at_points,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(POINT_QUERIES) + sorted(BATCH_QUERIES))
def test_planar_queries_refuse_non_finite_points(unit_disk, name, bad):
    if name in POINT_QUERIES:
        with pytest.raises(GeometryError, match="finite"):
            POINT_QUERIES[name](unit_disk, (bad, 0.0))
        return
    pts = np.array([[0.2, 0.1], [0.3, -0.2]])
    foci = np.arctan2(pts[:, 1], pts[:, 0])
    bad_pts = pts.copy()
    bad_pts[1, 0] = bad
    bad_foci = foci.copy()
    bad_foci[0] = bad
    for args in ((bad_pts, foci), (pts, bad_foci)):
        with pytest.raises(GeometryError, match="finite"):
            BATCH_QUERIES[name](unit_disk, *args, 0.5)


NONPLANAR_QUERIES = {
    "potential 1D": lambda x: potential(IntervalSet([(0.0, 1.0), (2.0, 3.5)]),
                                        x, 0.5),
    "grad_potential 1D": lambda x: grad_potential(
        IntervalSet([(0.0, 1.0), (2.0, 3.5)]), x, 0.5),
    "frac_curvature 1D": lambda x: frac_curvature(
        IntervalSet([(0.0, 1.0), (2.0, 3.5)]), x, 0.5),
    "zeta 1D": lambda x: zeta(IntervalSet([(0.0, 1.0), (2.0, 3.5)]), x,
                              Params(n=1, s=0.5, alpha=0.5, eps=1e-3)),
    "potential ball 1D": lambda x: potential(Ball((0.5,), 1.0), x, 0.5),
}


@pytest.mark.parametrize("name", sorted(POINT_QUERIES))
def test_point_queries_refuse_an_unsupported_geometry(name):
    # the kernel lookup refuses it with GeometryError
    with pytest.raises(GeometryError, match="unsupported geometry"):
        POINT_QUERIES[name](object(), (1.0, 0.0))


@pytest.mark.parametrize("name", sorted(NONPLANAR_QUERIES))
def test_nonplanar_queries_refuse_nan(name):
    with pytest.raises(GeometryError, match="NaN"):
        NONPLANAR_QUERIES[name](math.nan)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_nonplanar_potential_at_infinity_is_zero(two_intervals, x):
    # the same limit as the gradient's: V decays like |x|^(-alpha)
    assert potential(two_intervals, x, 0.5) == 0.0


@pytest.mark.parametrize("x", [(1.5, 0.0, 2.0), (1.0,), ()])
@pytest.mark.parametrize("name", sorted(POINT_QUERIES))
def test_planar_queries_refuse_a_point_of_another_dimension(name, x):
    # a 3-vector raised numpy's ValueError (cannot reshape)
    S = StarShape2D((0, 0), 1, (0, 0.1), ())
    with pytest.raises(GeometryError, match="does not lie in dimension 2"):
        POINT_QUERIES[name](S, x)


@pytest.mark.parametrize("x", [(0.5, 2.5), (), [[1.0], [2.0]]])
@pytest.mark.parametrize("name", sorted(NONPLANAR_QUERIES))
def test_nonplanar_queries_refuse_a_point_of_another_dimension(name, x):
    # V at (0.5, 2.5) read 3.5412150421313915, its value at 0.5 alone
    with pytest.raises(GeometryError, match="does not lie in dimension 1"):
        NONPLANAR_QUERIES[name](x)


@pytest.mark.parametrize("pts, foci", [
    ([[0.1, 0.2, 0.3]], [0.0]), ([[0.1, 0.2]], [0.0, 1.0]),
    ([0.1, 0.2], [0.5]), ([[0.1, 0.2]], [[0.5]])],
    ids=["three-columns", "two-foci", "flat-point", "column-foci"])
@pytest.mark.parametrize("name", sorted(BATCH_QUERIES))
def test_batch_queries_refuse_points_of_another_shape(name, pts, foci):
    # three columns were read as their first two, and a focus too many
    # raised IndexError in the ladder
    S = StarShape2D((0, 0), 1, (0, 0.1), ())
    with pytest.raises(GeometryError, match=r"\(m, 2\) and \(m,\)"):
        BATCH_QUERIES[name](S, pts, foci, 0.5)


@pytest.mark.parametrize("x", [math.inf, -math.inf, 0.5, 1.5])
def test_frac_curvature_1d_refuses_points_off_the_boundary(two_intervals, x):
    with pytest.raises(GeometryError, match="not a boundary point"):
        frac_curvature(two_intervals, x, 0.5)


# ---------------------------------------------------------------------------
# star shapes against frozen ray-oracle values

STAR_KAPPA_REF = {0.0: 18.9207591239008,      # ray oracle, air gap ~2e-5
                  math.pi / 3.0: 7.09186207747395}
STAR_POT_INTERIOR_REF = 4.14327353234295       # x = (0.3, 0.1), alpha = 1/2
STAR_POT_CURVE_REF = 3.15511828942788          # x = (1.2, 0), on the curve


@pytest.mark.parametrize("theta", [0.0, math.pi / 3.0])
def test_star_curvature_frozen(mode3_star, theta):
    r = float(mode3_star.radius(np.array([theta]))[0])
    x = (r * math.cos(theta), r * math.sin(theta))
    got = frac_curvature(mode3_star, x, 0.5)
    # gate set by the ray oracle's own floor near tangency, not the package
    assert_allclose(got, STAR_KAPPA_REF[theta], rtol=5e-4)


def test_star_potential_frozen(mode3_star):
    assert_allclose(potential(mode3_star, (0.3, 0.1), 0.5),
                    STAR_POT_INTERIOR_REF, rtol=1e-9)
    assert_allclose(potential(mode3_star, (1.2, 0.0), 0.5),
                    STAR_POT_CURVE_REF, rtol=1e-9)


# ---------------------------------------------------------------------------
# scaling identities (exponents n-s, 2n-a, -s, n-a)

def test_scaling_1d_exact(two_intervals):
    lam, s, alpha = 1.7, 0.4, 0.6
    big = scaled(two_intervals, lam)
    assert_allclose(frac_perimeter(big, s),
                    lam ** (1.0 - s) * frac_perimeter(two_intervals, s),
                    rtol=1e-10)
    assert_allclose(riesz_energy(big, alpha),
                    lam ** (2.0 - alpha) * riesz_energy(two_intervals, alpha),
                    rtol=1e-10)
    assert_allclose(frac_curvature(big, lam * 0.0, s),
                    lam ** (-s) * frac_curvature(two_intervals, 0.0, s),
                    rtol=1e-10)
    assert_allclose(potential(big, lam * 0.5, 0.5),
                    lam ** (1.0 - 0.5) * potential(two_intervals, 0.5, 0.5),
                    rtol=1e-10)


def test_scaling_2d_quadrature(mode3_star):
    lam, s, alpha = 1.5, 0.5, 0.5
    big = scaled(mode3_star, lam)
    res, nq = 128, 32
    assert_allclose(
        frac_perimeter(big, s, res, nq),
        lam ** (2.0 - s) * frac_perimeter(mode3_star, s, res, nq), rtol=1e-4)
    assert_allclose(
        riesz_energy(big, alpha, res, nq),
        lam ** (4.0 - alpha) * riesz_energy(mode3_star, alpha, res, nq),
        rtol=1e-4)
    assert_allclose(
        frac_curvature(big, (lam * 1.2, 0.0), s, nq=nq),
        lam ** (-s) * frac_curvature(mode3_star, (1.2, 0.0), s, nq=nq),
        rtol=1e-4)
    assert_allclose(
        potential(big, (lam * 0.3, lam * 0.1), alpha, nq=nq),
        lam ** (2.0 - alpha) * potential(mode3_star, (0.3, 0.1), alpha, nq=nq),
        rtol=1e-4)


def test_translation_invariance(mode3_star):
    moved = translated(mode3_star, (2.0, -1.0))
    got = frac_curvature(moved, (2.0 + 1.2, -1.0), 0.5, nq=32)
    ref = frac_curvature(mode3_star, (1.2, 0.0), 0.5, nq=32)
    assert_allclose(got, ref, rtol=1e-10)


# ---------------------------------------------------------------------------
# energy breakdown, error estimates, boundary sweeps

def test_energy_breakdown_fields(unit_disk, params_2d):
    br = energy(unit_disk, params_2d, resolution=128, nq=32)
    assert_allclose(br.perimeter_term,
                    frac_perimeter(unit_disk, params_2d.s, 128, 32), rtol=0.0)
    assert_allclose(br.riesz_term,
                    riesz_energy(unit_disk, params_2d.alpha, 128, 32), rtol=0.0)
    assert br.eps == params_2d.eps
    assert_allclose(br.total,
                    br.perimeter_term + br.eps * br.riesz_term, rtol=0.0)


def test_energy_terms_refuse_a_mesh_below_the_minimum(mode3_star):
    # the energy terms read the mesh angles without building a mesh, and
    # keep the mesh's lower bound
    for term in (frac_perimeter, riesz_energy):
        with pytest.raises(ParamError,
                           match="resolution must be an integer of at least 8"):
            term(mode3_star, 0.5, 7)
        assert math.isfinite(term(mode3_star, 0.5, 8))


def test_energy_riesz_term_reported_at_eps_zero(unit_disk):
    p = Params(n=2, s=0.5, alpha=0.5, eps=0.0)
    br = energy(unit_disk, p, resolution=64, nq=24)
    assert br.riesz_term > 0.0
    assert br.total == br.perimeter_term


def test_with_error_2d_bounds_truth(unit_disk, params_2d):
    # diagnose's nq-doubling estimate bounds the error of the 2 nq value
    err = diagnose(unit_disk, params_2d, 128, 24).error_estimates["perimeter"]
    assert err >= 0.0
    ref = disk_perimeter_oracle(1.0, 0.5)
    v = frac_perimeter(unit_disk, 0.5, 128, 48)
    assert abs(v - ref) <= max(10.0 * err, 1e-9 * abs(ref))


def test_doubling_estimate_is_two_calls(mode3_star, params_2d):
    # the estimate has one owner, diagnose; it is, bit for bit, the change
    # of frac_perimeter and riesz_energy from nq to 2 nq
    errors = diagnose(mode3_star, params_2d, 64, 12).error_estimates
    for term, key in ((frac_perimeter, "perimeter"), (riesz_energy, "riesz")):
        assert errors[key] == abs(term(mode3_star, 0.5, 64, 24)
                                  - term(mode3_star, 0.5, 64, 12))


@pytest.mark.parametrize("term", [frac_perimeter, riesz_energy])
def test_energy_terms_take_no_error_flag(mode3_star, term):
    from nlshape import functionals
    with pytest.raises(TypeError):
        term(mode3_star, 0.5, 64, 12, with_error=True)
    assert not hasattr(functionals, "_with_error")


def test_zeta_combination(unit_disk, params_2d):
    x = (1.0, 0.0)
    z = zeta(unit_disk, x, params_2d, nq=32)
    k = frac_curvature(unit_disk, x, params_2d.s, nq=32)
    v = potential(unit_disk, x, params_2d.alpha, nq=32)
    assert_allclose(z, k + 2.0 * params_2d.eps * v, rtol=1e-14)


def test_boundary_fields_disk(unit_disk, params_2d):
    bf = boundary_fields(unit_disk, params_2d, resolution=96, nq=32)
    m = bf.mesh.points.shape[0]
    assert m == 96
    assert bf.kappa.shape == bf.pot.shape == bf.zeta.shape == (m,)
    # constant fields on a disk
    assert np.ptp(bf.kappa) < 1e-8 * abs(bf.kappa[0])
    assert np.ptp(bf.pot) < 1e-8 * abs(bf.pot[0])
    assert_allclose(bf.zeta, bf.kappa + 2.0 * params_2d.eps * bf.pot,
                    rtol=1e-14)
    from nlshape.functionals import _curve_batch, _grad_tau_field
    from nlshape.sets import canonical
    gt = _curve_batch(canonical(unit_disk), bf.mesh.thetas, 32,
                      _grad_tau_field(params_2d.alpha))[0]
    assert np.abs(gt).max() < 1e-10
    assert not bf.kappa.flags.writeable


def test_boundary_fields_takes_no_switches():
    # a sweep always holds the same fields, so one sweep of a shape serves
    # every caller at the same (Params, resolution, nq)
    import dataclasses
    import inspect
    from nlshape import BoundaryFields
    assert list(inspect.signature(boundary_fields).parameters) == [
        "S", "p", "resolution", "nq"]
    assert [f.name for f in dataclasses.fields(BoundaryFields)] == [
        "mesh", "kappa", "pot", "zeta", "perimeter", "riesz"]


@pytest.mark.parametrize("nq", [16.0, True])
def test_kept_sweep_still_refuses_a_bad_nq(mode3_star, params_2d, nq):
    # the memo is keyed on the argument types too, so a value equal to a
    # kept nq still reaches the check that refuses it
    from nlshape.functionals import _sweep
    _sweep(mode3_star, params_2d, 64, 16)
    with pytest.raises(ParamError, match="nq"):
        _sweep(mode3_star, params_2d, 64, nq)


def test_kept_sweep_is_per_params(monkeypatch, mode3_star, params_2d):
    # a Params that differs only in eps is its own sweep; an equal Params
    # reads the kept one
    from dataclasses import replace
    from nlshape import functionals
    sweeps = []

    def counted(*args):
        sweeps.append(args[1])
        return boundary_fields(*args)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    other = params_2d.with_eps(1.5 * params_2d.eps)
    a = functionals._sweep(mode3_star, params_2d, 64, 16)
    b = functionals._sweep(mode3_star, other, 64, 16)
    assert functionals._sweep(mode3_star, replace(params_2d), 64, 16) is a
    assert functionals._sweep(mode3_star, other, 64, 16) is b
    assert sweeps == [params_2d, other]
    assert np.array_equal(a.kappa, b.kappa)
    assert not np.array_equal(a.zeta, b.zeta)
    monkeypatch.undo()
    for p, kept in ((params_2d, a), (other, b)):
        fresh = boundary_fields(mode3_star, p, 64, 16)
        assert np.array_equal(fresh.zeta, kept.zeta)


def test_kept_sweeps_are_bounded_across_params(mode3_star):
    # a shape swept at many alphas keeps only the newest _MEMO_ENTRIES
    # values, and a dropped sweep is swept again to the same bits; an
    # interval set keeps its sweeps in the same bounded memo
    from nlshape.functionals import _sweep
    from nlshape.sets import _MEMO_ENTRIES
    for shape in (mode3_star, IntervalSet([(0.0, 0.5), (3.0, 3.5)])):
        ps = [Params(n=shape.n, s=0.5, alpha=0.1 + 0.04 * i, eps=1e-3)
              for i in range(_MEMO_ENTRIES + 4)]
        kept = [_sweep(shape, p, 32, 8) for p in ps]
        assert len(shape._memo) == _MEMO_ENTRIES
        assert _sweep(shape, ps[-1], 32, 8) is kept[-1]
        again = _sweep(shape, ps[0], 32, 8)
        assert again is not kept[0]
        assert np.array_equal(again.zeta, kept[0].zeta)
        assert len(shape._memo) == _MEMO_ENTRIES


@pytest.mark.parametrize("intervals", [[(0.0, 1.0)], [(0.0, 0.5), (7.0, 7.5)],
                                       [(-2.0, -1.0), (0.0, 0.3), (5.0, 9.0)]])
def test_boundary_fields_1d_carries_the_closed_form_energies(intervals):
    S = IntervalSet(intervals)
    p = Params(n=1, s=0.4, alpha=0.6, eps=1e-3)
    bf = boundary_fields(S, p)
    assert bf.perimeter == frac_perimeter(S, p.s)
    assert bf.riesz == riesz_energy(S, p.alpha)


# ---------------------------------------------------------------------------
# zeta = kappa + 2 eps V is the first variation of F_eps = P_s + eps R_alpha:
# the Au2 and Minkowski identities test dilations only, so these pin the
# factor of each term against central differences of energy

_VARIATION_STEP = 1e-5


@pytest.mark.parametrize("k", [2, 3, 4])
def test_zeta_is_the_first_variation_of_the_energy_2d(k):
    # r -> r + h cos(k theta) moves the boundary normally by h cos(k theta)
    # per unit of r dtheta, so dF/dh = int zeta cos(k theta) r dtheta
    from nlshape.shapeopt import fourier_shape, volume_project
    S = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.04, "b3": -0.03, "a5": 0.02}))
    p = Params(n=2, s=0.5, alpha=0.5, eps=1.0)
    h = _VARIATION_STEP

    def moved(step):
        a = np.pad(S.a, (0, max(0, k - S.a.size)))
        a[k - 1] += step
        return energy(StarShape2D(S.center, S.r0, a, S.b), p, 256, 48)
    plus, minus = moved(h), moved(-h)
    d_per = (plus.perimeter_term - minus.perimeter_term) / (2.0 * h)
    d_rz = (plus.riesz_term - minus.riesz_term) / (2.0 * h)
    bf = boundary_fields(S, p, 256, 48)
    th = bf.mesh.thetas
    w = (2.0 * math.pi / th.size) * np.cos(k * th) * np.hypot(
        *bf.mesh.points.T)
    assert_allclose(np.sum(w * bf.kappa), d_per, rtol=1e-7)
    assert abs(d_rz / np.sum(w * bf.pot) - 2.0) < 1e-6
    assert_allclose(bf.zeta, bf.kappa + 2.0 * p.eps * bf.pot, rtol=1e-14)


@pytest.mark.parametrize("eps", [0.1, 2.0])
def test_zeta_is_the_first_variation_of_the_energy_1d(eps):
    # moving the right end b_i out by h adds (b_i, b_i + h) to the set, and
    # moving a left end a_i out removes it: dF/db_i = zeta(b_i) and
    # dF/da_i = -zeta(a_i)
    ends = [(-1.0, 0.25), (0.5, 2.0), (3.7, 9.1)]
    p = Params(n=1, s=0.5, alpha=0.5, eps=eps)
    h = _VARIATION_STEP

    def total(i, j, step):
        moved = [list(iv) for iv in ends]
        moved[i][j] += step
        return energy(IntervalSet([tuple(iv) for iv in moved]), p).total
    for i, iv in enumerate(ends):
        for j, sign in ((0, -1.0), (1, 1.0)):
            d_total = (total(i, j, h) - total(i, j, -h)) / (2.0 * h)
            assert_allclose(d_total, sign * zeta(IntervalSet(ends), iv[j], p),
                            rtol=1e-6)


# ---------------------------------------------------------------------------
# interior quadrature and batched entry points

def test_set_integral_area(unit_disk, mode3_star):
    one = lambda pts, foci: np.ones(pts.shape[0])
    assert_allclose(set_integral_2d(unit_disk, one, 256), math.pi, rtol=1e-12)
    # |E| = pi (1 + a^2/2) for r = 1 + a cos(k theta)
    assert_allclose(set_integral_2d(mode3_star, one, 256),
                    math.pi * 1.02, rtol=1e-12)


def test_set_integral_moment(unit_disk):
    f = lambda pts, foci: pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert_allclose(set_integral_2d(unit_disk, f, 256), math.pi / 2.0,
                    rtol=1e-12)


def test_set_integral_builds_its_radial_rule_once(monkeypatch, mode3_star):
    # the graded radial rule depends only on its order: two integrals at one
    # resolution build it once, and the cached arrays are read-only
    from nlshape import quad
    built = []

    def counted(q):
        built.append(q)
        return np.polynomial.legendre.leggauss(q)
    quad.graded_radial_rule.cache_clear()
    quad._gauss_legendre.cache_clear()
    monkeypatch.setattr(quad, "leggauss", counted)
    one = lambda pts, foci: np.ones(pts.shape[0])
    first = set_integral_2d(mode3_star, one, 512)
    assert set_integral_2d(mode3_star, one, 512) == first
    monkeypatch.undo()
    assert built == [32]
    t, w = quad.graded_radial_rule(32)
    assert not t.flags.writeable and not w.flags.writeable
    # t = 1 - (1 - tau)^3 crowds toward the boundary; the weights integrate
    # dt over (0, 1)
    assert 0.0 < t.min() and t.max() < 1.0
    assert math.isclose(math.fsum(w), 1.0, rel_tol=1e-14)


def test_batched_potential_matches_scalar(mode3_star):
    pts = np.array([(0.3, 0.1), (0.0, -0.4), (2.0, 1.0)])
    foci = np.array([math.atan2(p[1], p[0]) for p in pts])
    vals = potential_at_points(mode3_star, pts, foci, 0.5)
    for p, v in zip(pts, vals):
        assert_allclose(v, potential(mode3_star, p, 0.5), rtol=1e-11)


def test_batched_gradient_matches_scalar(mode3_star):
    pts = np.array([(0.3, 0.1), (2.0, 1.0)])
    foci = np.array([math.atan2(p[1], p[0]) for p in pts])
    g = grad_potential_at_points(mode3_star, pts, foci, 0.5)
    for p, row in zip(pts, g):
        assert_allclose(row, grad_potential(mode3_star, p, 0.5), rtol=1e-11)


def _ladder_blocks(depth, count):
    from nlshape.functionals import _BLOCK_NODES
    from nlshape.quad import ladder_half_rule
    from nlshape.sets import _blocks
    # each target sums over the ladder of its depth on both sides of its focus
    return _blocks(count, 2 * ladder_half_rule(int(depth))[0].size,
                   _BLOCK_NODES)


def _largest_depth_group(star, pts, foci):
    """(depth, target count) of the most populated depth of a batch."""
    from nlshape.functionals import _focus_frame
    depths, counts = np.unique(_focus_frame(star, pts, foci).depth,
                               return_counts=True)
    return depths[counts.argmax()], counts.max()


def test_batched_points_over_blocks_equal_single_targets(mode3_star):
    # 100 points in a box around the shape spread over nine depths; 40 more
    # in a band of the interior share one depth, whose group then runs in
    # two blocks
    rng = np.random.default_rng(7)
    box = rng.uniform(-1.1, 1.1, size=(100, 2))
    rays = rng.uniform(-math.pi, math.pi, size=40)
    band = (rng.uniform(0.4, 0.6, size=40) * mode3_star.radius(rays))[:, None] \
        * np.stack([np.cos(rays), np.sin(rays)], axis=1)
    pts = np.concatenate([box, band])
    foci = np.arctan2(pts[:, 1], pts[:, 0])
    depth, count = _largest_depth_group(mode3_star, pts, foci)
    assert len(_ladder_blocks(depth, count)) == 2
    vals = potential_at_points(mode3_star, pts, foci, 0.5)
    grads = grad_potential_at_points(mode3_star, pts, foci, 0.5)
    for i in range(pts.shape[0]):
        one = slice(i, i + 1)
        assert vals[i] == potential_at_points(mode3_star, pts[one], foci[one],
                                              0.5)[0]
        assert np.array_equal(grads[i], grad_potential_at_points(
            mode3_star, pts[one], foci[one], 0.5)[0])


def test_repeated_foci_over_blocks_equal_single_targets(mode3_star):
    # whole rays share a focus, as in the interior rule, shuffled so that
    # repeats fall out of order within a depth group, and that group runs
    # in two blocks
    rng = np.random.default_rng(11)
    rays = rng.uniform(-math.pi, math.pi, size=12)
    foci = rng.permutation(np.repeat(rays, 6))
    t = rng.uniform(0.3, 0.6, size=foci.size)
    pts = t[:, None] * np.stack([np.cos(foci), np.sin(foci)], axis=1)
    depth, count = _largest_depth_group(mode3_star, pts, foci)
    assert len(_ladder_blocks(depth, count)) == 2
    vals = potential_at_points(mode3_star, pts, foci, 0.5)
    grads = grad_potential_at_points(mode3_star, pts, foci, 0.5)
    for i in range(foci.size):
        one = slice(i, i + 1)
        assert vals[i] == potential_at_points(mode3_star, pts[one], foci[one],
                                              0.5)[0]
        g = grad_potential_at_points(mode3_star, pts[one], foci[one], 0.5)[0]
        assert grads[i, 0] == g[0] and grads[i, 1] == g[1]


def test_row_contraction_is_the_same_bits_in_any_block():
    # one BLAS call per row: a row's result is the same alone, in a block
    # of 3 and in the full block, here at the shapes of the on-curve
    # (2K, 6 nq) and the off-curve (2K, 2n) tables at K = 12
    from nlshape.functionals import _rows_times
    rng = np.random.default_rng(5)
    for nodes in (288, 346):
        a = rng.standard_normal((40, 24))
        T = rng.standard_normal((24, nodes))
        full = _rows_times(a, T)
        assert_allclose(full, a @ T, rtol=1e-12, atol=1e-12)
        for i in range(a.shape[0]):
            assert np.array_equal(full[i], _rows_times(a[i:i + 1], T)[0])
            assert np.array_equal(full[i], _rows_times(a[i:i + 3], T)[0])


_ROWS_TIMES_DIGEST = """
import hashlib
import numpy as np
from nlshape.functionals import _rows_times
rng = np.random.default_rng(9)
digest = hashlib.sha256()
for rows, nodes in ((512, 288), (64, 4096), (3, 20000)):
    a, T = rng.standard_normal((rows, 24)), rng.standard_normal((24, nodes))
    digest.update(_rows_times(a, T).tobytes())
print(digest.hexdigest())
"""


def test_row_contraction_is_thread_independent():
    # the contraction runs in BLAS, so its bits must not depend on the
    # thread count, up to a row of 20000 nodes
    import os
    import subprocess
    import sys
    import nlshape
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        nlshape.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [pkg_root] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", _ROWS_TIMES_DIGEST],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_set_integral_never_calls_the_frame(monkeypatch, mode3_star):
    # the interior rule reads the boundary once (polar on the m ray angles,
    # kept on the shape, so a second integral reads the same grid); the
    # ladder nodes come from mode tables in each focus's polar frame
    counted = {"polar": 0}
    polar = StarShape2D.polar

    def counting(self, theta):
        counted["polar"] += 1
        return polar(self, theta)

    def no_frame(self, theta):
        raise AssertionError("StarShape2D.frame called")

    monkeypatch.setattr(StarShape2D, "polar", counting)
    monkeypatch.setattr(StarShape2D, "frame", no_frame)
    set_integral_2d(mode3_star, lambda pts, foci: potential_at_points(
        mode3_star, pts, foci, 0.5), 256)
    assert counted["polar"] == 1
    set_integral_2d(mode3_star, lambda pts, foci: (grad_potential_at_points(
        mode3_star, pts, foci, 0.5) * pts).sum(1), 256)
    assert counted["polar"] == 1


def test_mesh_sweep_over_blocks_equals_single_targets(mode3_star, params_2d):
    # 1500 mesh nodes run in the blocks of _blocks at 2 nq nodes a target;
    # the first and last target of the first two blocks and of the last one
    # each equal a batch of one
    from nlshape.functionals import (_BLOCK_NODES, _curve_batch, _grad_field,
                                     _grad_tau_field, _kappa_field,
                                     _potential_field)
    from nlshape.sets import _blocks
    m = 1500
    for nq in (48, 96):
        cuts = _blocks(m, 2 * nq, _BLOCK_NODES)
        assert len(cuts) > 3
        bf = boundary_fields(mode3_star, params_2d, m, nq)
        mesh = bf.mesh
        gt = _curve_batch(mode3_star, mesh.thetas, nq, _grad_tau_field(0.5))[0]
        for i in sorted({i for cut in cuts[:2] + cuts[-1:]
                         for i in (cut.start, cut.stop - 1)}):
            one = slice(i, i + 1)
            th = mesh.thetas[one]
            assert bf.kappa[i] == _curve_batch(mode3_star, th, nq,
                                               _kappa_field(0.5))[0][0]
            assert bf.pot[i] == _curve_batch(mode3_star, th, nq,
                                             _potential_field(0.5))[0][0]
            assert gt[i] == _curve_batch(mode3_star, th, nq,
                                         _grad_tau_field(0.5))[0][0]
            # the one tangential sum is the vector's tangential part; the
            # unit tangent is the normal turned a quarter counterclockwise
            g = _curve_batch(mode3_star, th, nq, _grad_field(0.5))[0][0]
            nx, ny = mesh.normals[i]
            assert abs(gt[i] - (g[0] * -ny + g[1] * nx)) \
                <= 1e-14 * np.abs(g).max()


def test_sweep_over_blocks_equals_the_single_exponent_callers(mode3_star,
                                                              params_2d):
    # a sweep runs kappa / P_s (beta = -s) and V / R_alpha (beta = 2 - alpha)
    # as two exponents of one block loop; each is the bits of its own caller
    from nlshape.functionals import (_curve_batch, _kappa_field,
                                     _potential_field)
    for m, nq in ((1500, 48), (256, 96)):
        bf = boundary_fields(mode3_star, params_2d, m, nq)
        th = bf.mesh.thetas
        assert np.array_equal(bf.kappa, _curve_batch(mode3_star, th, nq,
                                                     _kappa_field(0.5))[0])
        assert np.array_equal(bf.pot, _curve_batch(mode3_star, th, nq,
                                                   _potential_field(0.5))[0])
        assert bf.perimeter == frac_perimeter(mode3_star, 0.5, m, nq)
        assert bf.riesz == riesz_energy(mode3_star, 0.5, m, nq)


def test_sweep_makes_one_contraction_per_exponent_and_block(monkeypatch,
                                                            mode3_star,
                                                            params_2d):
    # kappa and P_s share a block's nodes at beta = -s, V and R_alpha those
    # at beta = 2 - alpha: 256 targets at nq 48 run in the 3 blocks of
    # _blocks (85, 85 and 86 targets), two contractions each
    from nlshape import functionals
    from nlshape.sets import _blocks
    rows = []
    rows_times = functionals._rows_times

    def counted(a, T):
        rows.append(a.shape[0])
        return rows_times(a, T)
    monkeypatch.setattr(functionals, "_rows_times", counted)
    boundary_fields(mode3_star, params_2d, 256, 48)
    assert rows == [85, 85, 85, 85, 86, 86]
    assert rows == [cut.stop - cut.start for cut in
                    _blocks(256, 96, functionals._BLOCK_NODES) for _ in "ab"]


def test_sweep_memory_is_cache_sized(mode3_star, params_2d):
    # blocks of 2^13 nodes keep a sweep's traced peak near 0.9 MB at
    # 1024/96; blocks of 2^16 nodes took 6.2 MB
    import tracemalloc
    boundary_fields(mode3_star, params_2d, 1024, 96)  # builds the u-tables
    tracemalloc.start()
    try:
        boundary_fields(mode3_star, params_2d, 1024, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_set_integral_memory_is_bounded(mode3_star):
    import tracemalloc
    f = lambda pts, foci: potential_at_points(mode3_star, pts, foci, 0.5)
    tracemalloc.start()
    try:
        set_integral_2d(mode3_star, f, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20


def test_set_integral_runs_in_bounded_blocks():
    # f_batch sees blocks of whole rays, about 2^13 nodes each, so the
    # traced peak stays flat in the resolution (3.5 MB at m = 1024 and
    # 14 MB at m = 2048 when every node went in one batch); the blocks' sums
    # feed one fsum, so the value is that of a single batch. The mode 30
    # puts the first level of the ray doubling at 20 (30 + 1) > m / 2, so
    # the rule takes all m rays from the start (mode3_star would stop at
    # 128 rays, one block)
    import tracemalloc
    star = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.2) + (0.0,) * 26 + (0.01,))
    calls = []

    def x2(pts, foci):
        calls.append(len(pts))
        return pts[:, 0] ** 2
    set_integral_2d(star, x2, 1024)
    assert calls == [8192] * 8
    tracemalloc.start()
    try:
        value = set_integral_2d(star, x2, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # int_E x^2 from the polar tensor rule in one batch
    from nlshape import quad
    m, q = 1024, 64
    t, wt = quad.graded_radial_rule(q)
    _, _, r, _ = star._grid(m)
    th = 2.0 * np.pi * np.arange(m) / m
    rad = np.multiply.outer(r, t)
    x = star.center[0] + rad * np.cos(th)[:, None]
    w = np.multiply.outer((2.0 * np.pi / m) * (r * r), t * wt)
    assert value == math.fsum((x ** 2 * w).ravel())


def test_grad_set_integral_memory_is_cache_sized(mode3_star):
    # the Au1 integral of diagnose: the ladder blocks of 2^13 nodes keep its
    # traced peak near 2 MB; 2^16-node blocks took about 7 MB
    import tracemalloc
    f = lambda pts, foci: (grad_potential_at_points(
        mode3_star, pts, foci, 0.5) * pts).sum(1)
    tracemalloc.start()
    try:
        set_integral_2d(mode3_star, f, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


# ---------------------------------------------------------------------------
# refusals that no other test reaches: the error type and its message

_STAR = StarShape2D((0.0, 0.0), 1.0, (0.0, 0.0, 0.1), ())
_GAPPED = IntervalSet([(0.0, 0.5), (0.8, 2.0)])
_BALL3_REFUSED = r"ball dimension must lie in \[1, 2\], got 3"
# an interior point of _STAR with its focus, the polar angle about the center
_INNER, _INNER_FOCUS = np.array([[0.2, 0.1]]), np.array([math.atan2(0.1, 0.2)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: riesz_energy(_STAR, 2.5), ParamError,
     r"alpha must lie in \(0, 2\), got 2.5"),
    (lambda: potential(_STAR, (2.0, 0.0), 2.0), ParamError,
     r"alpha must lie in \(0, 2\), got 2.0"),
    # the package computes in n in {1, 2}: a ball in n = 3 is refused where
    # it is built, before any field reads it
    (lambda: boundary_fields(Ball((0.0, 0.0, 0.0), 1.0),
                             Params(n=2, s=0.5, alpha=0.5, eps=0.1)),
     GeometryError, _BALL3_REFUSED),
    (lambda: potential(Ball((0.0, 0.0, 0.0), 1.0), (0.5, 0.0, 0.0), 3.5),
     GeometryError, _BALL3_REFUSED),
    # V diverges in the set at alpha >= n: the batch divided by zero at 2.0
    # and read -12.77 at 2.5; a NaN alpha read NaN
    (lambda: potential_at_points(_STAR, _INNER, _INNER_FOCUS, 2.0), ParamError,
     r"alpha must lie in \(0, 2\), got 2.0"),
    (lambda: potential_at_points(_STAR, _INNER, _INNER_FOCUS, 2.5), ParamError,
     r"alpha must lie in \(0, 2\), got 2.5"),
    (lambda: potential_at_points(_STAR, _INNER, _INNER_FOCUS, math.nan),
     ParamError, r"alpha must lie in \(0, 2\), got nan"),
    (lambda: grad_potential_at_points(_STAR, _INNER, _INNER_FOCUS, math.nan),
     ParamError, r"alpha must lie in \(0, 2\), got nan"),
    # off the set, grad V refuses the alpha that V refuses
    (lambda: grad_potential(_GAPPED, 0.65, 1.5), ParamError,
     r"alpha must lie in \(0, 1\), got 1.5"),
    (lambda: grad_potential(_GAPPED, 0.65, math.nan), ParamError,
     r"alpha must lie in \(0, 1\), got nan"),
    (lambda: grad_potential(_STAR, (0.3, 0.2), math.nan), ParamError,
     r"alpha must lie in \(0, 2\), got nan"),
    (lambda: grad_potential(Ball((0.0, 0.0, 0.0), 1.0), (0.5, 0.0, 0.0), 0.5),
     GeometryError, _BALL3_REFUSED),
    (lambda: frac_perimeter(_STAR, 1.5), ParamError,
     r"s must lie in \(0, 1\), got 1.5"),
    (lambda: frac_curvature(_STAR, (1.1, 0.0), 0.0), ParamError,
     r"s must lie in \(0, 1\), got 0.0"),
    (lambda: tangential_grad_potential(_STAR, (0.3, 0.2), 0.5), GeometryError,
     r"x = \[0.3, 0.2\] is not on the boundary"),
    # an exponent that is not a real number failed in the range comparison
    # with TypeError
    (lambda: frac_perimeter(_STAR, "0.5"), ParamError,
     r"s must lie in \(0, 1\), got '0.5'"),
    (lambda: potential(_STAR, (0.2, 0.1), 1 + 0j), ParamError,
     r"alpha must lie in \(0, 2\), got \(1\+0j\)"),
    (lambda: riesz_energy(_STAR, None), ParamError,
     r"alpha must lie in \(0, 2\), got None"),
    # the principal value on the line refused every other input with a bare
    # AttributeError (no .intervals) or TypeError (a planar x)
    (lambda: pv_pair_integral(_STAR, (1.1, 0.0), 0.5), GeometryError,
     "covers sets on the line, got a StarShape2D in dimension 2"),
    (lambda: pv_pair_integral(Ball((0.0, 0.0), 1.0), (1.0, 0.0), 0.5),
     GeometryError, "covers sets on the line, got a Ball in dimension 2"),
    (lambda: pv_pair_integral(Ball((0.0, 0.0, 0.0), 1.0), (1.0, 0.0, 0.0),
                              0.5), GeometryError, _BALL3_REFUSED),
    (lambda: pv_pair_integral([(0.0, 1.0)], 1.0, 0.5), GeometryError,
     "unsupported geometry list"),
    (lambda: pv_pair_integral(None, 1.0, 0.5), GeometryError,
     "unsupported geometry NoneType"),
], ids=["riesz-alpha", "potential-alpha", "fields-ball3", "potential-ball3",
        "points-potential-alpha-2", "points-potential-alpha-2.5",
        "points-potential-alpha-nan", "points-grad-alpha-nan",
        "grad-1d-off-set-alpha-1.5", "grad-1d-off-set-alpha-nan",
        "grad-off-curve-alpha-nan",
        "grad-ball3-off-center", "perimeter-s", "curvature-s",
        "tangential-off-curve", "perimeter-s-str", "potential-alpha-complex",
        "riesz-alpha-none", "pv-star", "pv-disk", "pv-ball3", "pv-list",
        "pv-none"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("S, x", [(_STAR, (1.1, 0.0)),
                                  (IntervalSet([(0.0, 0.5), (0.8, 2.0)]), 0.8)])
def test_zeta_at_eps_0_is_the_curvature_bitwise(S, x):
    p = Params(n=S.n, s=0.4, alpha=0.5, eps=0.0)
    assert zeta(S, x, p).hex() == frac_curvature(S, x, p.s).hex()


@pytest.mark.parametrize("x", [-0.5, 1.5])
def test_pv_pair_integral_of_a_1d_ball_is_the_curvature_bitwise(x):
    # a 1D ball is its interval set, for the principal value as for kappa
    B = Ball((0.5,), 1.0)
    assert pv_pair_integral(B, x, 0.5).hex() == frac_curvature(B, x, 0.5).hex()
