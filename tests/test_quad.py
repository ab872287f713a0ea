import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nlshape import (GeometryError, IntervalSet, ParamError, Params,
                     QuadratureError, TwoIntervalConfig, boundary_fields,
                     pv_pair_integral, zeta_endpoints)
from nlshape.functionals import _potential_1d
from nlshape.quad import (_endpoint_fields, _first_diff, _pair_second_diff,
                          jacobi_half_rule, ladder_half_rule)

from oracles import (OracleResult, PVSpec, QuadTolerance, box_oracle,
                     brute_oracle, pair_second_diff_mp, pv_oracle,
                     pv_pair_integral_reference)

TIGHT = QuadTolerance(rel_tol=1e-12, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# the first difference ((g + h)^q - g^q) / q


@pytest.mark.parametrize("q, g, h", [
    # g = 0: the two powers as they stand
    (0.5, 0.0, 3.0), (1.5, 0.0, 3.0),
    # a half-line, q < 0: g^q / |q|
    (-0.5, 2.0, math.inf), (-0.9, 1e-3, math.inf),
    # h / g = 1e-12, where the two powers agree to 12 digits
    (-0.5, 1e12, 1.0), (0.5, 1.0, 1e-12), (1.5, 3.0, 3e-12),
    # h / g = 1e6
    (-0.5, 1e-6, 1.0), (0.5, 1.0, 1e6), (1.5, 2.0, 2e6),
    # a subnormal g, where h / g overflows
    (0.5, 4e-323, 1.0), (-0.5, 2e-323, 1.0),
    # int_1^2 y^(-1.5) dy = 2 (1 - 1/sqrt 2) and int_1^2 y^(0.5) dy
    (-0.5, 1.0, 1.0), (1.5, 1.0, 1.0),
    # the integrable endpoint singularity int_0^1 y^(-0.5) dy = 2
    (0.5, 0.0, 1.0),
])
def test_first_diff_against_mp(q, g, h):
    with mp.workdps(60):
        qm, gm = mp.mpf(q), mp.mpf(g)
        far = 0 if math.isinf(h) else (gm + mp.mpf(h)) ** qm
        ref = float((far - gm ** qm) / qm)
    assert_allclose(_first_diff(q, g, h), ref, rtol=1e-15, atol=0.0)


@given(st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.floats(0.05, 3.0),
       st.floats(-1.5, 2.5))
def test_primitive_against_oracle(a, width, gap, p):
    # int_a^b |x - y|^(-p) dy at x = b + gap is the first difference of
    # 1 - p over the interval's width at distance gap
    assume(abs(p - 1.0) > 0.05)
    assume(p < 1.0 or p > 1.05)
    b = a + width
    x = b + gap  # singular point right of the interval
    got = _first_diff(1.0 - p, gap, width)
    ref = brute_oracle(lambda y: np.abs(x - y) ** (-p), (a, b),
                       QuadTolerance(rel_tol=1e-10, abs_tol=1e-12))
    assert_allclose(got, ref, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# second differences of powers over interval pairs


@pytest.mark.parametrize("q", [-0.5, 0.1, 0.9, 1.1, 1.9])
@pytest.mark.parametrize("L1, L2", [(0.5, 0.5), (0.2, 0.75), (1.0, 2.0),
                                    (1e-6, 7.0), (3.0, 1e-9)])
@pytest.mark.parametrize("x", [1e-12, 1e-3, 0.3, 0.5 - 1e-12, 0.5,
                               0.5 + 1e-12, 0.9, 1.0 - 1e-9])
def test_pair_second_diff_against_mp(q, L1, L2, x):
    # x = (L1+L2)/(2m), m the midpoint of the pair, switches from the
    # midpoint series to the four powers at 1/2; on either side the error is
    # a few units of roundoff in the largest term (below 4 eps on this grid)
    Ls = L1 + L2
    g = Ls / (2.0 * x) - 0.5 * Ls
    m = g + 0.5 * Ls
    got = _pair_second_diff(q, g, L1, L2)
    ref = pair_second_diff_mp(q, g, L1, L2)
    if Ls >= m:
        scale = max((g + Ls) ** q, (g + L1) ** q, (g + L2) ** q, g ** q)
    else:
        # m^q sigma(x) to leading order, sigma(x) ~ q (q - 1) x^2
        scale = m ** q * abs(q * (q - 1.0)) * (0.5 * Ls / m) ** 2
    assert abs(got - ref) <= 8.0 * 2.0 ** -52 * scale
    if L1 == L2 and Ls < m:
        # equal lengths: the second sigma vanishes, so the series branch is
        # accurate relative to the value itself
        assert_allclose(got, ref, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# brute_oracle basics

def test_oracle_1d_polynomial():
    assert_allclose(brute_oracle(lambda y: y * y, (0.0, 2.0), TIGHT),
                    8.0 / 3.0, rtol=1e-13)


def test_oracle_interval_set_region(two_intervals):
    got = brute_oracle(lambda y: np.ones_like(y), two_intervals, TIGHT)
    assert_allclose(got, 2.5, rtol=1e-13)


def test_oracle_infinite_tail():
    assert_allclose(brute_oracle(lambda y: y ** -2.0, (1.0, np.inf), TIGHT),
                    1.0, rtol=1e-11)


def test_oracle_gaussian_whole_line():
    got = brute_oracle(lambda y: np.exp(-y * y), (-np.inf, np.inf), TIGHT)
    assert_allclose(got, math.sqrt(math.pi), rtol=1e-11)


def test_oracle_2d_box():
    got = box_oracle(lambda x, y: x * y, ((0.0, 2.0), (0.0, 2.0)), TIGHT)
    assert_allclose(got, 4.0, rtol=1e-11)


def test_oracle_full_output_fields():
    res = brute_oracle(lambda y: y, (0.0, 1.0), TIGHT, full_output=True)
    assert isinstance(res, OracleResult)
    assert_allclose(res.value, 0.5, rtol=1e-13)
    assert res.error >= 0.0 and res.subdivisions >= 0
    d = res.as_dict()
    assert set(d) == {"value", "error", "subdivisions"}


def test_oracle_budget_exhaustion_raises():
    hard = QuadTolerance(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    with pytest.raises(QuadratureError) as info:
        brute_oracle(lambda y: np.abs(y) ** -0.9, (0.0, 1.0), hard)
    assert info.value.estimate is not None
    assert info.value.error_bound > 0.0


# ---------------------------------------------------------------------------
# principal values

def test_oracle_pv_odd_kernel_vanishes():
    spec = PVSpec(singular_point=0.0, pairing_radius=0.5)
    got = pv_oracle(lambda y: np.sign(y) * np.abs(y) ** -1.5,
                    (-1.0, 1.0), QuadTolerance(1e-10, 1e-12), spec)
    assert_allclose(got, 0.0, atol=1e-9)


def test_pv_pair_integral_matches_oracle(two_intervals):
    # signed kernel integral at an endpoint of the set
    s = 0.5
    x = 1.0

    def signed(y):
        inside = ((y >= 0.0) & (y <= 1.0)) | ((y >= 2.0) & (y <= 3.5))
        return np.where(inside, -1.0, 1.0) * np.abs(x - y) ** (-1.0 - s)

    got = pv_pair_integral(two_intervals, x, s)
    spec = PVSpec(singular_point=x, pairing_radius=0.25)
    ref = pv_oracle(signed, (-np.inf, np.inf),
                    QuadTolerance(rel_tol=1e-7, abs_tol=1e-9), spec)
    assert_allclose(got, ref, rtol=1e-6)


def test_pv_pairing_radius_independence(two_intervals):
    s = 0.3
    x = 2.0

    def signed(y):
        inside = ((y >= 0.0) & (y <= 1.0)) | ((y >= 2.0) & (y <= 3.5))
        return np.where(inside, -1.0, 1.0) * np.abs(x - y) ** (-1.0 - s)

    vals = []
    for radius in (0.1, 0.25, 0.4):
        spec = PVSpec(singular_point=x, pairing_radius=radius)
        vals.append(pv_oracle(signed, (-np.inf, np.inf),
                              QuadTolerance(rel_tol=1e-7, abs_tol=1e-9),
                              spec))
    assert_allclose(vals[0], vals[1], rtol=1e-4)
    assert_allclose(vals[1], vals[2], rtol=1e-4)


def test_pv_pair_integral_interior_point_rejected(unit_interval):
    # the error that frac_curvature raises on the same set
    with pytest.raises(GeometryError, match="not a boundary point"):
        pv_pair_integral(unit_interval, 0.5, 0.5)


def test_pv_pair_integral_far_interval_keeps_local_endpoints():
    # the endpoint tolerance is local to x: an interval 1e13 away must not
    # make 0 match both 0 and 1/2
    d, s = 1e13, 0.5
    S = IntervalSet([(0.0, 0.5), (d, d + 0.5)])
    assert_allclose(pv_pair_integral(S, 0.0, s),
                    2.0 * (2.0 ** s - d ** -s + (d + 0.5) ** -s) / s,
                    rtol=1e-14)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_pv_pair_integral_non_finite_point_rejected(two_intervals, x):
    # the endpoint tolerance is relative to |x|, so an infinite x must be
    # refused before it, or it matches the first endpoint
    with pytest.raises(GeometryError, match="not a boundary point"):
        pv_pair_integral(two_intervals, x, 0.5)


@pytest.mark.parametrize("s", [0.0, 1.0, -0.5, math.nan])
def test_pv_pair_integral_refuses_s_outside_the_unit_interval(two_intervals, s):
    with pytest.raises(ParamError, match="s must lie in"):
        pv_pair_integral(two_intervals, 1.0, s)


# ---------------------------------------------------------------------------
# one partition for every endpoint, bitwise against the per-endpoint routine

# two-interval sets from d = 0.6 to 2^51, three intervals, a far interval;
# then gaps of a few ulps and a subnormal gap, across which h / g overflows
# and the first difference subtracts its powers as they stand (a gap of
# 5e-324 would overflow g^(-s) at s = 0.97)
GAPS = [0.6, 0.75, 1.3, 7.0, 1e3, 1e9, 1e15, 2.0 ** 51]
ENDPOINT_SETS = ([IntervalSet([(0.0, 0.5), (d, d + 0.5)]) for d in GAPS]
                 + [IntervalSet([(-1.0, 0.25), (0.5, 2.0), (3.7, 9.1)]),
                    IntervalSet([(0.0, 1.0), (1e13, 1e13 + 3.0)]),
                    IntervalSet([(0.0, 1.0), (1.0 + 2.0 ** -50, 2.0),
                                 (2.0 + 2.0 ** -50, 3.0)]),
                    IntervalSet([(-1.0, 0.0), (2.0 ** -1050, 1.0)])])
ENDPOINT_PARAMS = [Params(n=1, s=0.5, alpha=0.5, eps=1e-3),
                   Params(n=1, s=1e-9, alpha=1.0 - 1e-9, eps=1e-6),
                   Params(n=1, s=0.1, alpha=0.9, eps=0.0),
                   Params(n=1, s=0.97, alpha=0.03, eps=2.0),
                   Params(n=1, s=0.3, alpha=0.6, eps=0.2405)]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("S", ENDPOINT_SETS)
def test_pv_at_endpoint_is_the_reference_bitwise(S):
    # the principal value at each endpoint, by pv_pair_integral and by the
    # kappa of the endpoint fields
    ends = S.endpoints().tolist()
    for p in ENDPOINT_PARAMS:
        kap = _endpoint_fields(S.intervals, p.s, 1.0 - p.alpha)[0]
        for x, k in zip(ends, kap):
            ref = pv_pair_integral_reference(S, x, p.s).hex()
            assert pv_pair_integral(S, x, p.s).hex() == ref, (x, p.s)
            assert k.hex() == ref, (x, p.s)
            # a point one ulp off resolves to the same endpoint (at 2^51 the
            # next float is the next endpoint)
            near = math.nextafter(x, math.inf)
            if near not in ends:
                assert pv_pair_integral(S, near, p.s).hex() == ref, (x, p.s)


def test_pv_at_endpoint_is_the_endpoint_fields_kappa_bitwise():
    # pv_pair_integral resolves one endpoint to its index; the endpoint
    # fields take every index in turn, with V alongside
    S = IntervalSet([(-1.0, 0.25), (0.5, 2.0), (3.7, 9.1)])
    for p in ENDPOINT_PARAMS:
        kap = _endpoint_fields(S.intervals, p.s, 1.0 - p.alpha)[0]
        assert _hex(kap) == _hex(pv_pair_integral(S, x, p.s)
                                 for x in S.endpoints().tolist())


@pytest.mark.parametrize("S", ENDPOINT_SETS)
def test_boundary_fields_1d_is_the_per_endpoint_reference_bitwise(S):
    for p in ENDPOINT_PARAMS:
        bf = boundary_fields(S, p)
        xs = bf.mesh.points[:, 0].tolist()
        assert xs == S.endpoints().tolist()
        kap = np.array([pv_pair_integral_reference(S, x, p.s) for x in xs])
        pot = np.array([_potential_1d(S, x, p.alpha) for x in xs])
        assert _hex(bf.kappa) == _hex(kap)
        assert _hex(bf.pot) == _hex(pot)
        assert _hex(bf.zeta) == _hex(kap + 2.0 * p.eps * pot)


@pytest.mark.parametrize("d", GAPS)
def test_zeta_endpoints_are_the_per_endpoint_reference_bitwise(d):
    for p in ENDPOINT_PARAMS:
        S = IntervalSet([(0.0, 0.5), (d, d + 0.5)])
        ref = [pv_pair_integral_reference(S, x, p.s) + 2.0 * p.eps
               * (_potential_1d(S, x, p.alpha) if p.eps != 0.0 else 0.0)
               for x in (0.0, 0.5, d, d + 0.5)]
        got = zeta_endpoints(TwoIntervalConfig(d=d, params=p))
        assert _hex(got) == _hex(ref), (d, p)


# a gap so short that its length^(-s) leaves the float range: each route to
# the endpoint fields refuses it as geometry and names it (a bare
# OverflowError before); at s = 0.9 the same gap still gives a finite kappa
_TINY_GAP = IntervalSet([(-1.0, 0.0), (5e-324, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: boundary_fields(_TINY_GAP, Params(n=1, s=0.97, alpha=0.5, eps=0.1)),
     r"the gap \(0.0, 5e-324\) is too short for s = 0.97"),
    (lambda: _endpoint_fields(_TINY_GAP.intervals, 0.97, 0.5),
     r"the gap \(0.0, 5e-324\) is too short for s = 0.97"),
    (lambda: pv_pair_integral(_TINY_GAP, 0.0, 0.97),
     r"the gap \(0.0, 5e-324\) is too short for s = 0.97"),
    (lambda: pv_pair_integral(_TINY_GAP, 5e-324, 0.97),
     r"the gap \(0.0, 5e-324\) is too short for s = 0.97"),
    (lambda: pv_pair_integral(IntervalSet([(0.0, 5e-324)]), 0.0, 0.97),
     r"the interval \(0.0, 5e-324\) is too short for s = 0.97"),
], ids=["boundary-fields", "endpoint-fields", "pv-left", "pv-right",
        "pv-tiny-interval"])
def test_a_segment_too_short_for_s_is_refused_as_geometry(call, message):
    with pytest.raises(GeometryError, match=message):
        call()


def test_a_tiny_gap_within_the_float_range_is_not_refused():
    bf = boundary_fields(_TINY_GAP, Params(n=1, s=0.9, alpha=0.5, eps=0.1))
    assert np.isfinite(bf.kappa).all() and bf.kappa[1] < -1e291
    # the far endpoint sees the gap only at distance ~1
    assert math.isfinite(pv_pair_integral(_TINY_GAP, 1.0, 0.97))


# ---------------------------------------------------------------------------
# boundary-kernel rules

def test_jacobi_rule_algebraic_endpoint():
    # int_0^pi u^(-1/2) du = 2 sqrt(pi)
    u, w = jacobi_half_rule(-0.5, 24)
    assert_allclose(float(np.sum(w * u ** -0.5)), 2.0 * math.sqrt(math.pi),
                    rtol=1e-12)


def test_jacobi_rule_with_analytic_factor():
    u, w = jacobi_half_rule(-0.5, 32)
    got = float(np.sum(w * u ** -0.5 * np.cos(u)))
    ref = brute_oracle(lambda y: np.abs(y) ** -0.5 * np.cos(y),
                       (0.0, np.pi), QuadTolerance(1e-12, 1e-14))
    assert_allclose(got, ref, rtol=1e-12)


def test_jacobi_rule_rejects_divergent_exponent():
    with pytest.raises(ValueError):
        jacobi_half_rule(-1.0, 16)


@pytest.mark.parametrize("nq", [0, -3, 2.5, 16.0, True])
def test_jacobi_rule_rejects_bad_node_count(nq):
    with pytest.raises(ParamError, match="nq"):
        jacobi_half_rule(-0.5, nq)
    # the rule stays cached (the cache statistics are part of its interface)
    assert jacobi_half_rule.cache_info().maxsize == 128


def test_ladder_rule_peaked_integrand():
    # Lorentzian peak at 0 of width 1e-4: int_0^pi h^2/(u^2+h^2)... use
    # arctan antiderivative: int_0^pi h/(u^2 + h^2) du = atan(pi/h)
    h = 1e-4
    u, w = ladder_half_rule()
    got = float(np.sum(w * h / (u * u + h * h)))
    assert_allclose(got, math.atan(math.pi / h), rtol=1e-10)


def _ladder_rule_reference(depth, q=12):
    # the ladder with its own leggauss(q), as each depth built it before
    # the q-point rule was shared
    t, w = np.polynomial.legendre.leggauss(q)
    us, ws, hi = [], [], math.pi
    for _ in range(depth):
        lo = 0.5 * hi
        us.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        ws.append(0.5 * (hi - lo) * w)
        hi = lo
    us.append(0.5 * hi + 0.5 * hi * t)
    ws.append(0.5 * hi * w)
    return np.concatenate(us[::-1]), np.concatenate(ws[::-1])


def _radial_rule_reference(q):
    tq, wq = np.polynomial.legendre.leggauss(q)
    tau = 0.5 * (tq + 1.0)
    return 1.0 - (1.0 - tau) ** 3, 1.5 * wq * (1.0 - tau) ** 2


def test_gauss_legendre_rule_is_built_once_per_order(monkeypatch):
    # every ladder depth and the radial rule of the same order map one
    # read-only q-point rule, with the bits of a rule built per use
    from nlshape import quad
    built = []

    def counted(q):
        built.append(q)
        return np.polynomial.legendre.leggauss(q)
    for cached in (quad._gauss_legendre, ladder_half_rule,
                   quad.graded_radial_rule):
        cached.cache_clear()
    monkeypatch.setattr(quad, "leggauss", counted)
    ladders = [ladder_half_rule(depth) for depth in range(1, 49)]
    radials = [quad.graded_radial_rule(q) for q in range(12, 65)]
    monkeypatch.undo()
    assert built == list(range(12, 65))
    for depth, (u, W) in enumerate(ladders, start=1):
        ref_u, ref_W = _ladder_rule_reference(depth)
        assert u.tobytes() == ref_u.tobytes() and W.tobytes() == ref_W.tobytes()
    for q, (t, w) in enumerate(radials, start=12):
        ref_t, ref_w = _radial_rule_reference(q)
        assert t.tobytes() == ref_t.tobytes() and w.tobytes() == ref_w.tobytes()
    t, w = quad._gauss_legendre(12)
    assert not t.flags.writeable and not w.flags.writeable
