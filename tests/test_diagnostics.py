"""Criticality diagnostics: defects, multipliers, integral identities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlshape import (Ball, GeometryError, IntervalSet, ParamError, Params,
                     QuadratureError, StarShape2D, annulus_deficit_rho, ball_map_mu,
                     calibrate_variation_constant, diagnose, identity_check,
                     lambda_cross_estimate, lambda_hat_and_residual,
                     lipschitz_defect_delta)
from nlshape.diagnostics import IDENTITY_KINDS, au2_sides, eta
from nlshape.functionals import boundary_fields, energy, riesz_energy, zeta
from nlshape.sets import diameter, scaled
from nlshape.shapeopt import OptimizerState, el_gradient_step, find_critical_2d

from oracles import (CLOSED_FORM_SETS, disk_curvature_exact,
                     disk_potential_oracle)

P2 = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
P1 = Params(n=1, s=0.5, alpha=0.5, eps=1e-3)


# ---------------------------------------------------------------------------
# defect measures

def test_delta_vanishes_on_disk(unit_disk):
    d = lipschitz_defect_delta(unit_disk, P2, 128, 32)
    assert 0.0 <= d < 1e-7


def test_delta_routes(two_intervals):
    dk = lipschitz_defect_delta(two_intervals, P1, 8, route="kappa")
    dv = lipschitz_defect_delta(two_intervals, P1, 8, route="potential")
    assert dk > 0.0 and dv > 0.0
    with pytest.raises(ParamError):
        lipschitz_defect_delta(two_intervals, P1, 8, route="zeta")


def test_delta_scaling(mode3_star):
    # kappa scales like lam^(-s) and distances like lam, so the defect
    # carries the exponent -(1+s); the mesh scales exactly with the shape
    lam = 2.5
    d1 = lipschitz_defect_delta(mode3_star, P2, 64, 24)
    d2 = lipschitz_defect_delta(scaled(mode3_star, lam), P2, 64, 24)
    assert_allclose(d2, lam ** (-1.5) * d1, rtol=1e-9)


def _pairwise_defect_over_pairs(points, values):
    d = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((d * d).sum(-1))
    dv = np.abs(values[:, None] - values[None, :])
    iu = np.triu_indices(points.shape[0], k=1)
    return float((dv[iu] / dist[iu]).max())


@pytest.mark.parametrize("m, dim", [(2, 2), (8, 1), (64, 2), (256, 2)])
def test_pairwise_defect_equals_max_over_pairs(m, dim):
    from nlshape.diagnostics import _pairwise_defect
    rng = np.random.default_rng(m)
    pts, vals = rng.standard_normal((m, dim)), rng.standard_normal(m)
    assert _pairwise_defect(pts, vals) == _pairwise_defect_over_pairs(pts, vals)


def test_pairwise_defect_coincident_nodes():
    # two nodes at one point: inf for differing values, nan for equal ones
    from nlshape.diagnostics import _pairwise_defect
    rng = np.random.default_rng(5)
    pts, vals = rng.standard_normal((16, 2)), rng.standard_normal(16)
    pts[5] = pts[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _pairwise_defect(pts, vals) == math.inf
        vals[5] = vals[3]
        assert math.isnan(_pairwise_defect(pts, vals))
        assert math.isnan(_pairwise_defect_over_pairs(pts, vals))


def test_pairwise_defect_memory_is_bounded():
    # 1600 nodes: 20 MB per all-pairs array; the scan runs in the row blocks
    # of the diameter's pair scan, so its arrays stay near 128 KB
    import tracemalloc
    from nlshape.diagnostics import _pairwise_defect
    rng = np.random.default_rng(1600)
    pts, vals = rng.standard_normal((1600, 2)), rng.standard_normal(1600)
    tracemalloc.start()
    try:
        got = _pairwise_defect(pts, vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert got == _pairwise_defect_over_pairs(pts, vals)


def test_eta_formula(unit_disk):
    # diam = 2, exponent 2n + s + 1 = 5.5
    assert_allclose(eta(unit_disk, P2, 0.5), 2.0 ** 5.5 * 0.5, rtol=1e-14)
    with pytest.raises(ParamError):
        eta(unit_disk, P2, -1.0)


def test_rho_ball_and_validation():
    assert annulus_deficit_rho(Ball((0.0, 0.0), 2.0)) == 0.0
    with pytest.raises(GeometryError):
        annulus_deficit_rho(Ball((0.0,), 1.0))
    with pytest.raises(GeometryError):
        annulus_deficit_rho(IntervalSet([(0.0, 1.0)]))


def test_rho_mode3_value():
    # r = 1 + 0.1 cos 3theta: annulus width 0.2 about the symmetric center,
    # diameter slightly above 2
    star = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.1))
    v = annulus_deficit_rho(star)
    assert 0.090 < v < 0.100
    assert_allclose(v, 0.0965453859678, rtol=1e-6)


def test_rho_scale_invariant():
    star = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.1))
    assert_allclose(annulus_deficit_rho(scaled(star, 3.0)),
                    annulus_deficit_rho(star), rtol=1e-9)


def test_rho_off_center_start_recovers():
    # the optimal center of a translated shape moves with it
    star = StarShape2D((5.0, -3.0), 1.0, a=(0.0, 0.0, 0.1))
    assert_allclose(annulus_deficit_rho(star), 0.0965453859678, rtol=1e-6)


def _old_generator_stars(count=15):
    # seeded stars of up to 7 modes at 5% about an off-origin center
    rng = np.random.default_rng(2024)
    for _ in range(count):
        k = int(rng.integers(0, 8))
        yield StarShape2D(tuple(rng.uniform(-0.5, 0.5, 2)), 1.0,
                          0.05 * rng.standard_normal(k),
                          0.05 * rng.standard_normal(k))


CERTIFICATE_STARS = [
    StarShape2D((5.0, -3.0), 1.0, a=(0.0, 0.0, 0.1)),
    StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.4)),
    StarShape2D((0.0, 0.0), 1.0, a=(0.0,) * 11 + (0.01,)),
    StarShape2D((0.1, -0.2), 1.0, a=(0.03, 0.05, 0.0, 0.02),
                b=(0.0, -0.04, 0.03, 0.0, 0.01)),
] + [star for star in _old_generator_stars(6) if star.kmax > 0]


def test_rho_exchange_ends_at_a_singular_reference():
    # points on one ray from the start have one unit vector, so the
    # exchange's system is singular: the search ends, with the exact width
    # at the start
    from nlshape.diagnostics import _min_zone
    c, width = _min_zone(np.arange(1.0, 9.0), np.zeros(8), (0.0, 0.0), 1.0)
    assert tuple(c) == (0.0, 0.0) and width == 7.0


@pytest.mark.parametrize("star", CERTIFICATE_STARS)
def test_rho_exchange_certificate(star):
    # at the returned center two samples lie farthest and two nearest,
    # alternating in angle: the center is a minimum-zone center of the
    # samples, and the width is the exact one there
    from nlshape.diagnostics import _min_zone
    from nlshape.sets import uniform_angles
    m = star._dense_size()
    bx, by = star.frame(uniform_angles(m))[0].T
    scale = float(star.samples(m).mean())
    c, width = _min_zone(bx, by, star.center, scale)
    dist = np.hypot(bx - c[0], by - c[1])
    assert width == dist.max() - dist.min()
    assert annulus_deficit_rho(star) == width / diameter(star)
    tol = 64 * np.spacing(scale)
    outer = dist >= dist.max() - tol
    inner = dist <= dist.min() + tol
    assert not (outer & inner).any()
    hits = np.flatnonzero(outer | inner)
    order = hits[np.argsort(np.arctan2(by[hits] - c[1], bx[hits] - c[0]))]
    labels = outer[order]
    assert np.count_nonzero(labels != np.roll(labels, 1)) >= 4


def test_rho_not_above_scipy_nelder_mead():
    # the minimum-zone center of the samples is never worse than the best
    # of scipy's Nelder-Mead searches over the same samples, started at the
    # center and at three points a fifth of the radius away
    from scipy.optimize import minimize
    from nlshape.sets import uniform_angles
    for star in _old_generator_stars():
        m = star._dense_size()
        bx, by = star.frame(uniform_angles(m))[0].T

        def width(pt):
            dist = np.hypot(bx - pt[0], by - pt[1])
            return float(dist.max() - dist.min())

        scale = float(star.samples(m).mean())
        cx, cy = star.center
        best = min(
            minimize(width, np.array([cx + dx * scale, cy + dy * scale]),
                     method="Nelder-Mead",
                     options={"xatol": 1e-10 * scale, "fatol": 1e-13 * scale,
                              "maxfev": 4000}).fun
            for dx, dy in ((0.0, 0.0), (0.2, 0.0), (-0.1, 0.17),
                           (-0.1, -0.17)))
        assert annulus_deficit_rho(star) <= \
            best / diameter(star) * (1.0 + 1e-12)


def test_ball_map_mu():
    assert ball_map_mu(Ball((0.0, 0.0), 3.0)) == 0.0
    mu1 = ball_map_mu(StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05)))
    mu2 = ball_map_mu(StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.1)))
    # |r - R| + |r'| peaks near a sqrt(1+9) = 3.16 a for the pure mode
    assert 3.1 * 0.05 < mu1 < 3.25 * 0.05
    assert 3.1 * 0.1 < mu2 < 3.25 * 0.1
    with pytest.raises(GeometryError):
        ball_map_mu(IntervalSet([(0.0, 1.0)]))


# ---------------------------------------------------------------------------
# multipliers

def test_lambda_hat_disk_against_closed_forms(unit_disk):
    lam, res = lambda_hat_and_residual(unit_disk, P2, 128, 32)
    ref = disk_curvature_exact(1.0, 0.5) \
        + 2.0 * P2.eps * disk_potential_oracle(1.0, 1.0, 0.5)
    assert_allclose(lam, ref, rtol=1e-10)
    assert res < 1e-9


def test_lambda_cross_matches_hat_on_disk(unit_disk):
    lam, _ = lambda_hat_and_residual(unit_disk, P2, 128, 32)
    cross = lambda_cross_estimate(unit_disk, P2, 128, 32)
    assert_allclose(cross, lam, rtol=1e-10)


def test_lambda_cross_scaling(unit_disk):
    # both routes are derived from the same boundary condition, so the
    # cross estimate inherits the -s scaling of zeta at eps = 0
    p0 = Params(n=2, s=0.5, alpha=0.5, eps=0.0)
    lam1 = lambda_cross_estimate(unit_disk, p0, 96, 24)
    lam2 = lambda_cross_estimate(Ball((0.0, 0.0), 2.0), p0, 96, 24)
    assert_allclose(lam2, 2.0 ** (-0.5) * lam1, rtol=1e-9)


# ---------------------------------------------------------------------------
# integral identities

def test_identity_values_on_disk(unit_disk):
    vals = {k: identity_check(unit_disk, P2, k, 128, 32)
            for k in IDENTITY_KINDS}
    assert vals["Au1"] < 1e-4
    assert vals["Au2"] < 1e-7
    assert vals["Minkowski"] < 1e-12
    assert vals["Lal"] == 0.0
    assert vals["TangentialBall"] == 0.0  # mu = 0 short-circuit
    assert all(v >= 0.0 for v in vals.values())


def test_identity_unknown_kind(unit_disk):
    with pytest.raises(ParamError):
        identity_check(unit_disk, P2, "Pohozaev")


def test_identity_tangential_needs_planar(two_intervals):
    with pytest.raises(GeometryError):
        identity_check(two_intervals, P1, "TangentialBall")


def test_identities_1d(two_intervals):
    assert identity_check(two_intervals, P1, "Au1") < 1e-8
    assert identity_check(two_intervals, P1, "Au2") < 1e-8
    assert identity_check(two_intervals, P1, "Minkowski") < 1e-12
    assert identity_check(two_intervals, P1, "Lal") == 0.0


ALPHAS_1D = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.mark.parametrize("alpha", ALPHAS_1D)
@pytest.mark.parametrize("intervals", CLOSED_FORM_SETS)
def test_au1_1d_closed_form_at_roundoff(intervals, alpha):
    # both sides are closed forms over interval pairs, at every gap
    p = Params(n=1, s=0.5, alpha=alpha, eps=1e-3)
    assert identity_check(IntervalSet(intervals), p, "Au1") <= 1e-13


@pytest.mark.parametrize("alpha", ALPHAS_1D)
@pytest.mark.parametrize("intervals",
                         CLOSED_FORM_SETS[:3] + CLOSED_FORM_SETS[6:])
def test_au2_1d_at_roundoff(intervals, alpha):
    # the two-interval sets up to gap d = 100 and the multi-interval sets.
    # The endpoint fields are at roundoff at every gap (their far-segment
    # terms are first differences), but Au2 pairs V with the weight x.nu,
    # which grows like d: from d = 1e6 on that pairing, not the kernel,
    # limits it (4.1e-11 at d = 1e6, 5.3e-5 at d = 1e12, alpha = 0.5)
    p = Params(n=1, s=0.5, alpha=alpha, eps=1e-3)
    assert identity_check(IntervalSet(intervals), p, "Au2") <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS_1D)
def test_au2_1d_at_gap_1e4(alpha):
    # the x.nu ~ d weight magnifies the roundoff of V by about d (the
    # difference of two powers in V left Au2 at 3.8e-9 for alpha = 0.1)
    p = Params(n=1, s=0.5, alpha=alpha, eps=1e-3)
    assert identity_check(IntervalSet(CLOSED_FORM_SETS[3]), p, "Au2") <= 1e-11


@pytest.mark.parametrize("alpha", ALPHAS_1D)
def test_au2_1d_at_gap_1e6(alpha):
    # the paper's two-interval set at d = 1e6: measured at most 2.5e-10, at
    # alpha 0.1 (the difference of two powers in the endpoint V left 1.2e-7)
    p = Params(n=1, s=0.5, alpha=alpha, eps=1e-3)
    assert identity_check(IntervalSet(CLOSED_FORM_SETS[4]), p, "Au2") <= 1e-9


def test_ball_1d_diagnoses_as_its_interval():
    B = Ball((0.0,), 0.5)
    iv = IntervalSet([(-0.5, 0.5)])
    got, want = diagnose(B, P1).as_dict(), diagnose(iv, P1).as_dict()
    # iso_ratio keeps the ball's closed-form volume, which rounds differently
    # from the interval length
    assert_allclose(got.pop("iso_ratio"), want.pop("iso_ratio"), rtol=1e-15)
    assert got == want
    for kind in ("Au1", "Au2", "Minkowski", "Lal"):
        assert identity_check(B, P1, kind) == identity_check(iv, P1, kind)


def test_au1_single_interval():
    assert identity_check(IntervalSet([(0.0, 1.0)]), P1, "Au1") < 1e-8


def test_au2_sides_ratio(unit_disk):
    lhs, rhs = au2_sides(unit_disk, P2, 128, 32)
    # the ratio recovers n - alpha/2
    assert_allclose(lhs / rhs, 2.0 - 0.5 * P2.alpha, rtol=1e-7)


def test_au2_factor_across_alpha(unit_disk):
    for alpha in (0.2, 0.8):
        p = Params(n=2, s=0.5, alpha=alpha, eps=1e-3)
        lhs, rhs = au2_sides(unit_disk, p, 128, 32)
        assert_allclose(lhs / rhs, 2.0 - 0.5 * alpha, rtol=1e-6)


# the first seed-101 audit shape of the benchmark, at unit area
AUDIT_SHAPE = StarShape2D(
    (0.0, 0.0), 0.5631922926129524,
    a=(0.0, -0.007523541113254718, 0.016928298847604176,
       0.017125383682638166, -0.014725424191155518),
    b=(0.0, 0.026309991404411964, -0.008932361523602396,
       -0.01839086389580623, 0.016886118226169162))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_au2_at_roundoff_on_the_audit_shape(alpha):
    # int_E V is R_alpha, and the boundary-reduced pair energy carries it to
    # roundoff at every alpha (a volume quadrature of V read 1.4e-13 at 0.9)
    p = Params(n=2, s=0.5, alpha=alpha, eps=1e-3)
    assert identity_check(AUDIT_SHAPE, p, "Au2", 256, 48) <= 1e-15
    assert au2_sides(AUDIT_SHAPE, p, 256, 48)[1] == \
        riesz_energy(AUDIT_SHAPE, alpha, 256, 48)


def test_lal_deterministic(mode3_star):
    a = identity_check(mode3_star, P2, "Lal", 64, 24)
    b = identity_check(mode3_star, P2, "Lal", 64, 24)
    assert a == b


# ---------------------------------------------------------------------------
# variation-constant calibration

def test_calibrate_1d_exact():
    assert_allclose(calibrate_variation_constant(0.5, n=1), 1.0, rtol=1e-10)
    assert_allclose(calibrate_variation_constant(0.3, n=1), 1.0, rtol=1e-10)


def test_calibrate_2d(unit_disk):
    c = calibrate_variation_constant(0.5, n=2, resolution=128, nq=32)
    assert_allclose(c, 1.0, rtol=1e-9)


def test_calibrate_rejects_other_dimensions():
    with pytest.raises(ParamError):
        calibrate_variation_constant(0.5, n=3)


@pytest.mark.parametrize("n", [1, 2])
def test_calibrate_rejects_empty_radii(n):
    with pytest.raises(ParamError, match="radii"):
        calibrate_variation_constant(0.5, n=n, resolution=64, nq=16, radii=())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.0, 1.0, -0.5, math.nan])
def test_calibrate_rejects_s_outside_the_unit_interval(n, s):
    with pytest.raises(ParamError):
        calibrate_variation_constant(s, n=n, resolution=64, nq=16)


@pytest.mark.parametrize("n", [1, 2])
def test_radius_dependent_calibration_is_a_quadrature_error(monkeypatch, n):
    # a domain failure, not a parameter out of range: any spread, even 0,
    # exceeds a negative bound
    from nlshape import diagnostics
    monkeypatch.setattr(diagnostics, "_CALIBRATION_SPREAD_TOL", -1.0)
    with pytest.raises(QuadratureError, match="radius-dependent"):
        calibrate_variation_constant(0.5, n=n, resolution=32, nq=8)


def test_calibrate_2d_makes_one_pass_per_radius(monkeypatch):
    # each disk's kappa and P_s come from its one full sweep at eps = 0:
    # one pass over the fields kappa, P_s (beta = -s), V and R_alpha
    # (beta = 2 - alpha)
    from nlshape import functionals
    calls = []
    batch = functionals._curve_batch

    def counted(star, thetas, nq, *fields):
        calls.append((star.r0, [f.beta for f in fields]))
        return batch(star, thetas, nq, *fields)
    monkeypatch.setattr(functionals, "_curve_batch", counted)
    c = calibrate_variation_constant(0.5, n=2, resolution=128, nq=32)
    monkeypatch.undo()
    assert calls == [(r0, [-0.5, -0.5, 1.5, 1.5]) for r0 in (0.5, 1.0, 2.0)]
    assert_allclose(c, 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# full report

def test_diagnose_disk(unit_disk):
    rep = diagnose(unit_disk, P2, resolution=96, nq=24)
    assert rep.rho == 0.0
    assert rep.delta_s < 1e-7
    assert rep.el_residual < 1e-8
    assert rep.mesh_resolution == 96
    assert_allclose(rep.iso_ratio, math.sqrt(math.pi) / 2.0, rtol=1e-12)
    assert_allclose(rep.eta_s,
                    diameter(unit_disk) ** 5.5 * rep.delta_s, rtol=1e-12)
    # mu = 0 for a ball, so the tangential comparison is not gated in
    assert rep.implied_constants["mu"] == 0.0
    assert set(rep.identity_residuals) == {"Au1", "Au2", "Minkowski", "Lal"}
    assert rep.identity_residuals["Lal"] == 0.0
    assert "lambda_cross" in rep.implied_constants
    assert_allclose(rep.implied_constants["lambda_cross"], rep.lambda_hat,
                    rtol=1e-9)
    assert set(rep.error_estimates) == {"perimeter", "riesz", "kappa",
                                        "potential"}
    d = rep.as_dict()
    assert d["rho"] == 0.0 and d["mesh_resolution"] == 96


def test_diagnose_mu_gate():
    # mu ~ 0.63 for a = 0.2: beyond the small-perturbation regime, the
    # tangential-gradient comparison is skipped
    big = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.2))
    rep = diagnose(big, P2, resolution=64, nq=24)
    assert "TangentialBall" not in rep.identity_residuals
    assert rep.implied_constants["mu"] > 0.5

    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))
    rep2 = diagnose(small, P2, resolution=64, nq=24)
    assert "TangentialBall" in rep2.identity_residuals
    assert rep2.identity_residuals["TangentialBall"] < 0.05


def test_diagnose_alpha_blocks_tangential():
    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))
    p = Params(n=2, s=0.5, alpha=1.3, eps=1e-3)
    rep = diagnose(small, p, resolution=64, nq=24)
    assert "TangentialBall" not in rep.identity_residuals
    # the gradient-route identity is out of regime there as well
    assert "Au1" not in rep.identity_residuals
    assert "Au2" in rep.identity_residuals


def test_diagnose_1d(two_intervals):
    rep = diagnose(two_intervals, P1, resolution=8)
    assert rep.rho is None
    assert rep.error_estimates == {}
    assert rep.identity_residuals["Au1"] < 1e-8
    assert "mu" not in rep.implied_constants
    assert rep.implied_constants["eta_bound_constant"] == rep.delta_s / P1.eps


def test_diagnose_computes_shared_quantities_once(monkeypatch):
    # the mode-3 star sits inside the mu gate, so every identity runs
    from nlshape import diagnostics, functionals
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # a sweep is functionals.boundary_fields, which the kept sweeps call;
    # the kernels look up set_integral_2d and the energies in functionals
    for name in ("boundary_fields", "set_integral_2d", "frac_perimeter",
                 "riesz_energy"):
        counted(functionals, name)
    # TangentialBall sums grad V . tau through diagnostics' own name
    counted(diagnostics, "_curve_batch")
    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))
    rep = diagnose(small, P2, resolution=64, nq=16)
    assert set(rep.identity_residuals) == set(IDENTITY_KINDS)
    # the Au1 gradient alone (int_E V is R_alpha at nq); the sweeps at nq
    # and at 2 nq; grad V . tau of the shape and of its half shape, each one
    # sum without a sweep. P_s and R_alpha at nq and at 2 nq come from the
    # sweeps at nq and 2 nq
    assert calls.get("frac_perimeter", 0) == 0
    assert calls.get("riesz_energy", 0) == 0
    assert calls == {"set_integral_2d": 1, "boundary_fields": 2,
                     "_curve_batch": 2}


@pytest.mark.parametrize("nq", [16, 48])
def test_diagnose_tangential_ball_is_identity_check_bit_for_bit(nq):
    # sup |grad V . tau| has one owner, so the report's residual is the
    # standalone check's, whether or not the shape keeps a sweep already
    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))
    alone = identity_check(small, P2, "TangentialBall", 64, nq)
    rep = diagnose(small, P2, resolution=64, nq=nq)
    assert rep.identity_residuals["TangentialBall"] == alone
    swept = StarShape2D(small.center, small.r0, small.a, small.b)
    lambda_hat_and_residual(swept, P2, 64, nq)
    held = diagnose(swept, P2, resolution=64, nq=nq)
    assert held.as_dict() == rep.as_dict()


def test_diagnose_1d_computes_int_v_once(monkeypatch):
    # on an interval set int_E V is R_alpha: the one closed form, carried by
    # the boundary sweep, serves Au1, Au2 and lambda_cross
    from nlshape import diagnostics, functionals
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("riesz_energy", "set_integral_2d", "boundary_fields",
                 "_riesz_1d"):
        counted(functionals, name)
    rep = diagnose(IntervalSet([(0.0, 0.5), (7.0, 7.5)]), P1)
    assert {"Au1", "Au2"} <= set(rep.identity_residuals)
    assert calls == {"boundary_fields": 1, "_riesz_1d": 1}


def test_diagnose_computes_diameter_once(monkeypatch):
    # eta, rho and iso_ratio share one diameter: the pair scan of
    # sets.diameter runs once, on the 512 boundary samples
    from nlshape import sets
    calls = []
    scan = sets._pair_blocks

    def counted(points):
        calls.append(points.shape)
        return scan(points)
    monkeypatch.setattr(sets, "_pair_blocks", counted)
    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))
    rep = diagnose(small, P2, resolution=64, nq=16)
    assert calls == [(512, 2)]
    monkeypatch.undo()
    fresh = StarShape2D(small.center, small.r0, small.a, small.b)
    assert rep.rho == annulus_deficit_rho(fresh)
    assert rep.eta_s == eta(fresh, P2, rep.delta_s)


def test_diagnose_evaluates_each_grid_once(monkeypatch):
    # a fresh star's diagnose reads its boundary at four uniform grids: the
    # mesh (the sweeps at nq and 2 nq, the Au1 interior rule), the volume's
    # 256 angles, the 512 of rho, the diameter and the Lal probes, and the
    # 1024 of mu; each is one polar call, kept on the shape
    from collections import Counter
    polar = StarShape2D.polar
    grids = Counter()
    small = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05))

    def counting(self, theta):
        if self is small:
            grids[np.size(theta)] += 1
        return polar(self, theta)
    monkeypatch.setattr(StarShape2D, "polar", counting)
    rep = diagnose(small, P2, resolution=64, nq=16)
    assert set(rep.identity_residuals) == set(IDENTITY_KINDS)
    assert grids == {64: 1, 256: 1, 512: 1, 1024: 1}
    # a second diagnose evaluates nothing again
    diagnose(small, P2, resolution=64, nq=16)
    assert grids == {64: 1, 256: 1, 512: 1, 1024: 1}


def _memo_bytes(star):
    """The bytes of the arrays kept in a star shape's memo."""
    import dataclasses

    def size(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        if isinstance(v, tuple):
            return sum(map(size, v))
        if dataclasses.is_dataclass(v):
            return sum(size(getattr(v, f.name)) for f in dataclasses.fields(v))
        return 0
    return sum(map(size, star._memo.values()))


def test_diagnose_memo_is_small_and_does_not_grow():
    # after a 256/48 diagnose a shape keeps two sweeps and four grids, about
    # 100 KB; a second diagnose reads them and adds nothing
    star = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.02, 0.03), b=(0.0, 0.01))
    assert star._memo == {}
    diagnose(star, P2, 256, 48)
    kept = _memo_bytes(star)
    assert 0 < kept <= 128 * 2 ** 10
    keys = list(star._memo)
    diagnose(star, P2, 256, 48)
    assert list(star._memo) == keys and _memo_bytes(star) == kept


@pytest.mark.parametrize("shape, p, res, nq", [
    (StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05)), P2, 64, 16),
    (IntervalSet([(0.0, 1.0), (2.0, 3.5)]), P1, 8, 16),
])
def test_diagnose_identities_equal_identity_check(shape, p, res, nq):
    rep = diagnose(shape, p, res, nq)
    assert rep.identity_residuals
    for kind, value in rep.identity_residuals.items():
        assert identity_check(shape, p, kind, res, nq) == value
    assert rep.implied_constants["lambda_cross"] == \
        lambda_cross_estimate(shape, p, res, nq)


@pytest.mark.parametrize("shape, p, res, nq", [
    (StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.05)), P2, 64, 16),
    (IntervalSet([(0.0, 0.5), (3.0, 3.5)]), P1, 8, 16),
])
def test_lambda_cross_after_diagnose_reads_the_kept_sweep(monkeypatch, shape,
                                                          p, res, nq):
    # P_s and R_alpha come from the sweep diagnose keeps on the shape: no
    # energy pass and no sweep, and the report's value bit for bit; so does
    # the Au1 check, whose int_E V is R_alpha
    from nlshape import diagnostics, functionals
    rep = diagnose(shape, p, res, nq)
    calls = []

    def refuse(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        # wherever a caller looks the name up
        for module in (functionals, diagnostics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    for name in ("frac_perimeter", "riesz_energy", "boundary_fields"):
        refuse(name)
    assert lambda_cross_estimate(shape, p, res, nq) == \
        rep.implied_constants["lambda_cross"]
    assert identity_check(shape, p, "Au1", res, nq) == \
        rep.identity_residuals["Au1"]
    assert calls == []


_NOT_A_SHAPE = object()
UNSUPPORTED_CALLS = {
    **{f"identity_check {kind}": (lambda kind=kind: identity_check(
        _NOT_A_SHAPE, P2, kind, 32, 8)) for kind in IDENTITY_KINDS},
    "diagnose": lambda: diagnose(_NOT_A_SHAPE, P2, 32, 8),
    "lambda_cross_estimate": lambda: lambda_cross_estimate(_NOT_A_SHAPE, P2),
    "lambda_hat_and_residual":
        lambda: lambda_hat_and_residual(_NOT_A_SHAPE, P2),
    "annulus_deficit_rho": lambda: annulus_deficit_rho(_NOT_A_SHAPE),
    "ball_map_mu": lambda: ball_map_mu(_NOT_A_SHAPE),
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED_CALLS))
def test_unsupported_geometry_is_a_geometry_error(name):
    # the kernel lookup refuses it, never a KeyError or AttributeError
    with pytest.raises(GeometryError):
        UNSUPPORTED_CALLS[name]()


def test_diagnose_without_identities(unit_disk):
    rep = diagnose(unit_disk, P2, resolution=64, nq=24, with_identities=False)
    assert rep.identity_residuals == {}


# Params whose n is not the dimension of the geometry, refused where a
# kernel meets them: every public function that takes a geometry and Params
MISMATCHED = {
    "energy": lambda S, p: energy(S, p, 64, 16),
    "zeta": lambda S, p: zeta(S, _boundary_point_of(S), p, nq=16),
    "boundary_fields": lambda S, p: boundary_fields(S, p, 64, 16),
    "diagnose": lambda S, p: diagnose(S, p, 64, 16),
    "lipschitz_defect_delta": lambda S, p: lipschitz_defect_delta(S, p, 64, 16),
    "eta": lambda S, p: eta(S, p, 0.1),
    "lambda_hat_and_residual": lambda S, p: lambda_hat_and_residual(S, p, 64, 16),
    "lambda_cross_estimate": lambda S, p: lambda_cross_estimate(S, p, 64, 16),
    **{f"identity_check {kind}": (lambda S, p, kind=kind: identity_check(
        S, p, kind, 64, 16)) for kind in IDENTITY_KINDS},
    "au2_sides": lambda S, p: au2_sides(S, p, 64, 16),
}
# the descent's entry points take planar shapes only
MISMATCHED_PLANAR = {
    "el_gradient_step": lambda S, p: el_gradient_step(
        OptimizerState(S), p, 64, 16),
    "find_critical_2d": lambda S, p: find_critical_2d(S, p, resolution=64,
                                                      nq=16),
}


def _boundary_point_of(S):
    return 0.0 if S.n == 1 else (S.r0, 0.0)


def _mismatched_cases():
    disk = StarShape2D((0.0, 0.0), 1.0 / math.sqrt(math.pi))  # unit area
    pair = IntervalSet([(0.0, 0.5), (3.0, 3.5)])
    wrong = {disk: [1, 3], pair: [2, 3]}
    for S, dims in wrong.items():
        calls = {**MISMATCHED, **(MISMATCHED_PLANAR if S.n == 2 else {})}
        for n in dims:
            for name in calls:
                yield pytest.param(S, n, calls[name],
                                   id=f"{name}-{type(S).__name__}-n{n}")


@pytest.mark.parametrize("S, n, call", _mismatched_cases())
def test_params_of_another_dimension_are_refused(S, n, call):
    # Params in n = 1 or 2 reach the call, which refuses them against the
    # shape; in n = 3 they are refused where they are built
    message = (r"n must lie in \[1, 2\], got 3" if n == 3
               else f"params have n = {n}, but")
    with pytest.raises(ParamError, match=message):
        call(S, Params(n=n, s=0.5, alpha=0.5, eps=1e-3))


def test_mismatched_params_no_longer_read_a_report():
    # mismatched Params once read a report: lambda_cross nan on the disk
    # (then at n = 3), Au2 0.57 and Minkowski 0.67 on the interval pair
    with pytest.raises(ParamError, match="dimension 2"):
        diagnose(StarShape2D((0, 0), 1.0), P1, 64, 16)
    with pytest.raises(ParamError, match="dimension 1"):
        diagnose(IntervalSet([(0, 0.5), (3, 3.5)]), P2, 64, 16)


# ---------------------------------------------------------------------------
# refusals that no other test reaches: the error type and its message

_STAR = StarShape2D((0.0, 0.0), 1.0, (0.0, 0.0, 0.1), ())
_BOUNDARY_ALPHA = r"alpha must lie in \(0, 1\), got 1.5 \(the boundary gradient"


@pytest.mark.parametrize("call, message", [
    (lambda: identity_check(_STAR, Params(2, 0.5, 1.5, eps=0.1), "Au1"),
     _BOUNDARY_ALPHA),
    (lambda: identity_check(_STAR, Params(2, 0.5, 1.5, eps=0.1),
                            "TangentialBall"), _BOUNDARY_ALPHA),
    # delta < 0 let a NaN through, and eta read nan
    (lambda: eta(_STAR, P2, math.nan), r"delta must lie in \[0, inf\], got nan"),
    # a string failed with TypeError, and True was taken as delta = 1
    (lambda: eta(_STAR, P2, "1"), r"delta must lie in \[0, inf\], got '1'"),
    (lambda: eta(_STAR, P2, True), r"delta must lie in \[0, inf\], got True"),
], ids=["Au1", "TangentialBall", "eta-nan-delta", "eta-str-delta",
        "eta-bool-delta"])
def test_refusals(call, message):
    with pytest.raises(ParamError, match=message):
        call()


def test_eta_accepts_an_infinite_delta():
    assert eta(_STAR, P2, math.inf) == math.inf
