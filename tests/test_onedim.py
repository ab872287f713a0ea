"""Two-interval balance function, crossover scale, and the eps sweep.

The frozen roots below were computed independently with mpmath at 40 digits
(bisection on the high-precision balance function); the doubles here are the
correctly rounded values.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nlshape import (BracketError, GeometryError, IntervalSet, ParamError,
                     Params, SweepRecord, TwoIntervalConfig, epsilon_sweep,
                     f_closed_form, g_and_d_eps, onedim, solve_critical_d,
                     two_interval_set, zeta_endpoints)
from nlshape.quad import _series_table, _sym_second_diff
from oracles import bisection_critical_d, sym_second_diff_recurrence


def _p(s=0.5, alpha=0.5, eps=1e-3):
    return Params(n=1, s=s, alpha=alpha, eps=eps)


# ---------------------------------------------------------------------------
# configuration and endpoint values

def test_two_interval_set_layout():
    S = two_interval_set(TwoIntervalConfig(d=2.0, params=_p()))
    assert type(S) is IntervalSet
    assert S.intervals == ((0.0, 0.5), (2.0, 2.5))


def test_two_interval_set_refuses_unplaceable_gap():
    # at d >= 2^52, d + 1/2 rounds and the second interval would be mislaid;
    # zeta_endpoints, which builds no IntervalSet, refuses it alike, and the
    # message is the one line_golden.json stores for a failed eps
    cfg = TwoIntervalConfig(d=float(2 ** 52 + 1), params=_p())
    for make in (two_interval_set, zeta_endpoints):
        with pytest.raises(GeometryError) as info:
            make(cfg)
        assert str(info.value) == ("gap d = 4503599627370497.0 is too large "
                                   "to place d + 1/2 exactly")
    S = two_interval_set(TwoIntervalConfig(d=float(2 ** 51), params=_p()))
    assert S.intervals[1][1] - S.intervals[1][0] == 0.5


def test_config_validation():
    with pytest.raises(ParamError):
        TwoIntervalConfig(d=2.0, params=Params(n=2, s=0.5, alpha=0.5, eps=1e-3))
    with pytest.raises(ParamError):
        TwoIntervalConfig(d=0.4, params=_p())
    with pytest.raises(ParamError):
        TwoIntervalConfig(d=2.0, params=_p(alpha=1.5))


def test_zeta_endpoint_symmetry():
    # reflection symmetry of the configuration; nothing is mirrored by hand
    zs = zeta_endpoints(TwoIntervalConfig(d=3.0, params=_p()))
    assert_allclose(zs[1], zs[2], rtol=1e-12)
    assert_allclose(zs[0], zs[3], rtol=1e-12)


@pytest.mark.parametrize("s,alpha,d,eps", [
    (0.5, 0.5, 2.0, 1e-3),
    (0.3, 0.7, 5.0, 1e-3),
    (0.8, 0.2, 1.1, 0.0),
    (0.6, 0.4, 40.0, 1e-4),
])
def test_f_matches_endpoint_difference(s, alpha, d, eps):
    # f is the inner-minus-outer zeta gap; the endpoint values go through
    # the generic PV + potential route, f through the series forms
    p = _p(s, alpha, eps)
    zs = zeta_endpoints(TwoIntervalConfig(d=d, params=p))
    assert_allclose(f_closed_form(d, p), zs[1] - zs[0], rtol=1e-9,
                    atol=1e-13)


# ---------------------------------------------------------------------------
# series kernel

@given(b=st.floats(-0.99, 0.99), x=st.floats(0.01, 0.49))
def test_sym_second_diff_series(b, x):
    direct = (1.0 + x) ** b + (1.0 - x) ** b - 2.0
    assert_allclose(_sym_second_diff(b, x), direct, rtol=1e-9, atol=1e-13)


def test_sym_second_diff_small_x_scale():
    # leading order b(b-1) x^2; the direct difference would be pure noise
    b, x = -0.5, 1e-7
    assert_allclose(_sym_second_diff(b, x), b * (b - 1.0) * x * x, rtol=1e-9)


# x from deep underflow up to the last float below 1/2, where the series
# takes the most terms, and the direct form from 1/2 on
SERIES_X = ([float(x) for x in np.geomspace(1e-300, 0.5, 64)[:-1]]
            + [math.nextafter(0.5, 0.0), 0.5, 0.75, 0.99])


# exponents at the edges of (-1, 2), where the sums run long: at the last x
# below 1/2 those of the float above -1 and of -1 + 2^-20 take 30 ratios,
# that of 2 - 2^-10 18 and that of 2 - 2^-20 14
EDGE_B = (math.nextafter(-1.0, 0.0), -1.0 + 2.0 ** -20, 2.0 - 2.0 ** -10,
          2.0 - 2.0 ** -20)


def test_sym_second_diff_is_the_recurrence_bitwise():
    # the exponents at the edges of the domain, then the two exponents of
    # every sweep over the seeded grid, and those of the 1D P_s and R_alpha
    # pair integrals (2 - alpha also serves the 1D Au1 identity)
    grid = [b for s, alpha in GRID_SA
            for b in (-s, 1.0 - alpha, 1.0 - s, 2.0 - alpha)]
    for b in [*EDGE_B, *grid]:
        for x in SERIES_X:
            got = _sym_second_diff(b, x)
            assert got.hex() == sym_second_diff_recurrence(b, x).hex(), (b, x)


def test_sym_second_diff_at_the_term_cap():
    # at b = 1000.5 the terms still grow at the 60th, where the series would
    # stop (1.35e121 for 1.87e173 at x = 0.49): b is refused instead
    with pytest.raises(ParamError):
        _sym_second_diff(1000.5, 0.49)


@pytest.mark.parametrize("b,x", [
    (2.5, 0.3), (2.7, 0.45),  # the terms change sign: 0.3368672 for 0.3368599
    (2.5, 0.75), (2.0, 0.1), (-1.0, 0.1), (-1.5, 0.6), (math.nan, 0.1)])
def test_sym_second_diff_refuses_b_outside_its_domain(b, x):
    with pytest.raises(ParamError, match=r"b must lie in \(-1, 2\), got "):
        _sym_second_diff(b, x)


def test_series_table_cache_is_bounded():
    maxsize = _series_table.cache_info().maxsize
    assert maxsize is not None and maxsize <= 64
    for k in range(2 * maxsize):
        _sym_second_diff(-k / (2.0 * maxsize), 0.1)
    assert _series_table.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# crossover scale and the reduced function

def test_d_eps_anchor():
    g, d_eps = g_and_d_eps(_p())
    assert_allclose(d_eps, 1500.0, rtol=1e-12)
    # g at the crossover equals -c alpha eps / 4 by construction
    assert_allclose(float(g(d_eps)), -2.0 * 0.5 * 1e-3 / 4.0, rtol=1e-12)


def test_g_and_d_eps_requires_positive_eps():
    with pytest.raises(ParamError):
        g_and_d_eps(_p(eps=0.0))
    with pytest.raises(ParamError):
        g_and_d_eps(Params(n=2, s=0.5, alpha=0.5, eps=1e-3))


@pytest.mark.parametrize("call", [
    lambda p: TwoIntervalConfig(d=2.0, params=p),
    lambda p: f_closed_form(2.0, p), g_and_d_eps, solve_critical_d,
    lambda p: epsilon_sweep(p, [1e-3, 1e-4, 1e-5, 1e-6])],
    ids=["config", "f", "g_and_d_eps", "solve", "sweep"])
def test_the_line_refuses_planar_params_with_one_message(call):
    # the gap check and d_eps each tested n = 1, with two messages
    with pytest.raises(ParamError,
                       match=r"^two-interval analysis needs n = 1, got n = 2$"):
        call(Params(n=2, s=0.5, alpha=0.5, eps=1e-3))


def test_the_root_tolerance_has_one_owner():
    # the solve, the sweep and both onedim commands wrote 1e-10 each
    from nlshape import cli
    for fn in (solve_critical_d, epsilon_sweep):
        assert inspect.signature(fn).parameters["f_tol"].default is onedim.F_TOL
    assert cli.F_TOL is onedim.F_TOL and onedim.F_TOL == 1e-10


# ---------------------------------------------------------------------------
# root solve

# mpmath bisection references, 40 digits, rounded to double
ROOT_REF = {(0.5, 0.5): 3000.000034722222,
            (0.75, 0.25): 365.9308556646263}


@pytest.mark.parametrize("s,alpha", sorted(ROOT_REF))
def test_root_against_mpmath_reference(s, alpha):
    p = _p(s, alpha)
    d_star = solve_critical_d(p)
    assert_allclose(d_star, ROOT_REF[(s, alpha)], rtol=1e-12)


def test_root_certification():
    p = _p()
    d_star = solve_critical_d(p, f_tol=1e-10)
    _, d_eps = g_and_d_eps(p)
    assert abs(f_closed_form(d_star, p)) <= 1e-10
    assert d_star > d_eps
    # the endpoint-route evaluation of the same gap agrees at the root
    zs = zeta_endpoints(TwoIntervalConfig(d=d_star, params=p))
    assert abs(zs[1] - zs[0]) <= 1e-9


def test_root_survives_moderate_eps():
    # the negative singularity at d -> 1/2 keeps a bracket available even
    # when eps is no longer small; the certificate still has to hold
    p = _p(eps=1.0)
    d_star = solve_critical_d(p)
    _, d_eps = g_and_d_eps(p)
    assert abs(f_closed_form(d_star, p)) <= 1e-10
    assert d_star > d_eps


def test_stall_is_a_root_solve_error():
    # the best adjacent float has |f| = 5e-29 here, above a zero tolerance
    p = _p(0.3, 0.7)
    with pytest.raises(BracketError, match="root solve stalled"):
        solve_critical_d(p, f_tol=0.0)
    assert 0.0 < abs(f_closed_form(solve_critical_d(p), p)) <= 1e-10


def test_threshold_refusal_names_the_point_it_evaluated():
    # d_eps is 8.5e-7 here, so f is evaluated at lo = 1/2 + 1e-9, which the
    # message names, not at d_eps
    p = Params(n=1, s=0.1, alpha=0.9, eps=10)
    assert g_and_d_eps(p)[1] < 0.5
    with pytest.raises(BracketError) as info:
        solve_critical_d(p)
    assert str(info.value) == (
        "f = 12.04 at lo = max(d_eps, 1/2 + 1e-9) = 0.5 is not negative; "
        "eps = 10 may exceed the smallness threshold for a two-interval "
        "critical point")


def test_walk_up_stops_at_twice_its_start(monkeypatch):
    # with f < 0 everywhere f is evaluated at lo, d_1 and the Newton step
    # from it, the walk up goes from there as far as twice that start, and
    # the probe doubles 64 times: 119 evaluations, where a walk bounded
    # only by the float range made 1038, up to d = 9.0e307
    seen = []

    def negative(d, p):
        seen.append(d)
        return -1.0
    monkeypatch.setattr(onedim, "f_closed_form", negative)
    with pytest.raises(BracketError, match="within 64 doublings"):
        solve_critical_d(_p())
    assert len(seen) <= 130
    start, walk, probe = seen[2], seen[3:-64], seen[-64:]
    assert all(start < d <= 2.0 * start for d in walk)
    assert probe == [walk[-1] * 2.0 ** k for k in range(1, 65)]


def test_newton_step_keeps_a_gap_whose_power_overflows():
    # d^(1 + alpha) overflows at d = 1e300: the step keeps d
    assert onedim._newton_step(_p(), 1e300, 1.0) == 1e300


def test_bracket_is_lo_to_the_start_when_the_newton_step_passes_lo(
        monkeypatch):
    # f is large and positive at d_1, so the Newton step from it lands below
    # lo: (lo, d_1) is the bracket, and f is evaluated at d_1 alone
    p = _p()
    lo, d_1 = 0.6, onedim._second_order_root(p, g_and_d_eps(p)[1])
    seen = []

    def steep(d, p):
        seen.append(d)
        return 1e30
    monkeypatch.setattr(onedim, "f_closed_form", steep)
    assert onedim._newton_step(p, d_1, 1e30) <= lo < d_1
    assert onedim._bracket(p, lo, -1.0, g_and_d_eps(p)[1]) == (
        lo, -1.0, d_1, 1e30)
    assert seen == [d_1]


def test_bracket_walk_down_stops_at_lo(monkeypatch):
    # f is positive but below the Newton step's resolution everywhere above
    # lo: the step keeps d_1, and the walk down from it doubles its step
    # until the next point would not lie above lo; (lo, the last point) is
    # the bracket
    p = _p()
    lo, d_1 = 0.6, onedim._second_order_root(p, g_and_d_eps(p)[1])
    seen = []

    def flat(d, p):
        seen.append(d)
        return 1e-300
    monkeypatch.setattr(onedim, "f_closed_form", flat)
    assert onedim._newton_step(p, d_1, 1e-300) == d_1
    got = onedim._bracket(p, lo, -1.0, g_and_d_eps(p)[1])
    assert got == (lo, -1.0, seen[-1], 1e-300)
    assert seen[0] == d_1 and all(lo < d < d_1 for d in seen[1:])
    # one more doubled step from the last point would reach lo
    assert seen[-1] - 2.0 * (seen[-2] - seen[-1]) <= lo


def test_doubling_probe_stops_below_an_infinite_gap(monkeypatch):
    # with f < 0 everywhere the walk up ends at twice its start, and the
    # probe, given 2000 doublings, runs until the next one would overflow
    # and raises BracketError there, which a sweep lists under
    # fit["failed"]: f, which refuses an infinite gap with ParamError, is
    # never asked for one
    seen = []

    def negative(d, p):
        assert math.isfinite(d), "f was asked for an infinite gap"
        seen.append(d)
        return -1.0
    monkeypatch.setattr(onedim, "f_closed_form", negative)
    monkeypatch.setattr(onedim, "_PROBE_BUDGET", 2000)
    with pytest.raises(BracketError, match="below the float range"):
        solve_critical_d(_p())
    assert max(seen) > 1e307


# the default eps grid of `nlshape onedim-sweep` at seeded (s, alpha) on the
# open unit square plus three corners
GRID_EPS = (1e-3, 3.1623e-4, 1e-4, 3.1623e-5, 1e-5, 3.1623e-6, 1e-6)
GRID_SA = [tuple(map(float, sa)) for sa in
           np.random.default_rng(12).uniform(1e-9, 1.0 - 1e-9, size=(200, 2))]
GRID_SA += [(1e-9, 1e-9), (1.0 - 1e-9, 1e-9), (1.0 - 1e-9, 1.0 - 1e-9)]
# two points of small 1 + s - alpha: the solve raises (BracketError at
# f(d_eps) = 0, GeometryError where d_eps overflows), and where a root exists (d near
# 1e100 at (0.02, 0.99)) the computed f changes sign 67 times within 200
# ulps of it, so no solver's root is defined to 64 ulps there
EDGE_SA = [(0.02, 0.99), (0.01, 0.997)]


def _counted(solver, p, counter):
    counter[0] = 0
    try:
        return solver(p), None, counter[0]
    except Exception as exc:  # the type is compared, not swallowed
        return None, type(exc), counter[0]


@pytest.fixture(scope="module")
def solver_grid():
    """(p, (root, error type, f evaluations) for the package solver and for
    the reference bisection) over the grid; evaluations are counted by
    wrapping onedim.f_closed_form, which both solvers look up per call."""
    f = onedim.f_closed_form
    counter = [0]

    def counting(d, p):
        counter[0] += 1
        return f(d, p)

    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onedim, "f_closed_form", counting)
        for s, alpha in GRID_SA + EDGE_SA:
            for eps in GRID_EPS:
                p = _p(s, alpha, eps)
                rows.append((p, _counted(solve_critical_d, p, counter),
                             _counted(bisection_critical_d, p, counter)))
    return rows


def test_grid_raises_where_the_reference_raises(solver_grid):
    raised = [(new[1], ref[1]) for _, new, ref in solver_grid
              if new[1] or ref[1]]
    assert {ref for _, ref in raised} == {BracketError, GeometryError}
    assert all(new is ref for new, ref in raised)


def test_grid_roots_are_certified_and_machine_adjacent(solver_grid):
    solved = [(p, new[0]) for p, new, _ in solver_grid if new[1] is None]
    assert len(solved) > 1400
    for p, root in solved:
        fr = f_closed_form(root, p)
        assert abs(fr) <= 1e-10
        # the root and its neighbour on the other side of the sign change
        other = math.nextafter(root, math.inf if fr <= 0.0 else -math.inf)
        fo = f_closed_form(other, p)
        assert (fr <= 0.0 < fo) if fr <= 0.0 else (fo <= 0.0 < fr), (p, root)


def test_grid_roots_match_the_reference_bisection(solver_grid):
    seeded = {(s, alpha) for s, alpha in GRID_SA}
    compared = 0
    for p, new, ref in solver_grid:
        if ref[1] is None and (p.s, p.alpha) in seeded:
            assert abs(new[0] - ref[0]) <= 64 * math.ulp(ref[0]), p
            compared += 1
    assert compared == len(GRID_SA) * len(GRID_EPS)


def test_grid_root_solve_cost(solver_grid):
    solved = [(new[2], ref[2]) for _, new, ref in solver_grid
              if new[1] is None]
    new_evals = sum(n for n, _ in solved)
    ref_evals = sum(r for _, r in solved)
    assert new_evals <= 6 * len(solved)  # the reference takes about 57
    # about 4.9 on average (3 to 73 a root); far fewer means the solve no
    # longer looks up onedim.f_closed_form and the counts above count nothing
    assert new_evals >= 4 * len(solved)
    assert new_evals <= 0.1 * ref_evals  # 0.087


# (s, alpha, eps) where the search about d_g cannot start, with the root of
# the doubling probe from d_eps: f(d_g) rounds to 0 at d_g = 9.0e158 (the
# root lies 22 doublings above d_eps = 1.0e151), and d_g = 2^(1 / 2e-4) d_eps
# overflows (d_eps itself rounds to 0); the second-order root d_1 is d_g
# there, to rounding
NO_D_G_START = {(0.037535357425532864, 0.9996871402742665, 1e-6):
                3.994297736898002e+157,
                (1e-4, 0.9999, 1.0): 2.7564745103900354}


@pytest.mark.parametrize("s,alpha,eps", sorted(NO_D_G_START))
def test_root_without_a_d_g_start(s, alpha, eps):
    p = _p(s, alpha, eps)
    _, d_eps = g_and_d_eps(p)
    try:
        d_g = 2.0 ** (1.0 / (1.0 + s - alpha)) * d_eps
    except OverflowError:
        d_g = math.inf
    assert d_g == math.inf or f_closed_form(d_g, p) == 0.0
    root = solve_critical_d(p)
    assert abs(root - NO_D_G_START[(s, alpha, eps)]) <= 64 * math.ulp(root)
    fr = f_closed_form(root, p)
    other = math.nextafter(root, math.inf if fr <= 0.0 else -math.inf)
    fo = f_closed_form(other, p)
    assert (fr <= 0.0 < fo) if fr <= 0.0 else (fo <= 0.0 < fr)


def test_root_from_an_exact_zero_at_the_start():
    # f is exactly 0 at the second-order root d_1 and positive one ulp above:
    # the two are the bracket, found with the check at d_eps
    p = _p(0.39030825787256085, 0.35467903750554497, 3.1623e-05)
    d_1 = 82803.05411447234
    assert f_closed_form(d_1, p) == 0.0
    assert f_closed_form(math.nextafter(d_1, math.inf), p) > 0.0
    f = onedim.f_closed_form
    calls = [0]

    def counting(d, p):
        calls[0] += 1
        return f(d, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onedim, "f_closed_form", counting)
        root = solve_critical_d(p)
    assert calls[0] <= 5
    assert abs(root - d_1) <= 64 * math.ulp(d_1)
    fr = f_closed_form(root, p)
    other = math.nextafter(root, math.inf if fr <= 0.0 else -math.inf)
    fo = f_closed_form(other, p)
    assert (fr <= 0.0 < fo) if fr <= 0.0 else (fo <= 0.0 < fr)


# ---------------------------------------------------------------------------
# eps sweep

def test_sweep_slope_and_records():
    grid = [1e-3, 3.1623e-4, 1e-4, 3.1623e-5, 1e-5]
    records, fit = epsilon_sweep(_p(), grid)
    assert [r.eps for r in records] == sorted(grid, reverse=True)
    for r in records:
        assert abs(r.f_at_root) <= 1e-10
        assert r.d_star > r.d_eps
        assert r.diameter == r.d_star + 0.5
        assert r.zeta_spread <= 1e-9
    assert_allclose(fit["slope_target"], 1.0, rtol=0.0)
    assert fit["slope_rel_err"] < 0.03
    assert fit["c_implied"] > 0.0


def test_sweep_needs_enough_points():
    with pytest.raises(ParamError):
        epsilon_sweep(_p(), [1e-3, 1e-4, 1e-5])


def test_sweep_needs_four_distinct_eps():
    # four equal eps, or four adjacent floats (one logarithm), fitted a line
    # through one abscissa: the least-squares slope divided by zero
    # (ZeroDivisionError)
    adjacent = [1e-3]
    for _ in range(3):
        adjacent.append(math.nextafter(adjacent[-1], 1.0))
    assert len(set(adjacent)) == 4
    for grid in ([1e-3] * 4, adjacent):
        with pytest.raises(ParamError, match=r"got 1 with distinct log\(eps\)"):
            epsilon_sweep(_p(), grid)
    with pytest.raises(ParamError, match="got 3 with distinct"):
        epsilon_sweep(_p(), [1e-3, 1e-4, 1e-5, 1e-4, 1e-3])
    # repeats beside four distinct values are solved, one record each
    records, _ = epsilon_sweep(_p(), [1e-3, 1e-4, 1e-5, 1e-6, 1e-4])
    assert [r.eps for r in records] == [1e-3, 1e-4, 1e-4, 1e-5, 1e-6]
    # at 1 + s - alpha = 0.35 the two smallest of GRID_EPS are not solved:
    # four records of three distinct eps were fitted; now the first solve
    # error is raised, as for fewer than four solved values
    grid = [GRID_EPS[0], GRID_EPS[0], GRID_EPS[1], GRID_EPS[2], GRID_EPS[5]]
    with pytest.raises(GeometryError, match="gap d = "):
        epsilon_sweep(_p(0.1, 0.75), grid)


@pytest.mark.parametrize("f_tol", [math.nan, -1.0, math.inf, True, "1e-10"])
def test_root_solve_refuses_an_f_tol_outside_zero_to_inf(f_tol):
    # |f| > nan is False, so a NaN f_tol returned the root unchecked; -1
    # reported a stalled solve. True certified |f| <= 1 (the root read
    # 3000.0), and a string failed with TypeError
    with pytest.raises(ParamError, match="f_tol"):
        solve_critical_d(_p(), f_tol=f_tol)
    with pytest.raises(ParamError, match="f_tol"):
        epsilon_sweep(_p(), GRID_EPS, f_tol=f_tol)


def test_sweep_without_failures_lists_none():
    _, fit = epsilon_sweep(_p(), GRID_EPS)
    assert fit["failed"] == []


def test_sweep_keeps_the_eps_it_can_solve():
    # at 1 + s - alpha = 0.35 the two smallest eps put the gap past 2^52,
    # where d + 1/2 cannot be placed; the other five are solved and fitted
    p = _p(0.1, 0.75)
    records, fit = epsilon_sweep(p, GRID_EPS)
    assert [r.eps for r in records] == list(GRID_EPS[:5])
    assert [f["eps"] for f in fit["failed"]] == list(GRID_EPS[5:])
    for failed in fit["failed"]:
        assert failed["error"].startswith("GeometryError: gap d = ")
    for eps in GRID_EPS[5:]:
        with pytest.raises(GeometryError):
            two_interval_set(TwoIntervalConfig(
                d=solve_critical_d(p.with_eps(eps)), params=p.with_eps(eps)))
    # the fit over the five solved records is the growth law
    target = 1.0 / (1.0 + p.s - p.alpha)
    assert fit["slope_target"] == target
    assert fit["slope_rel_err"] < 1e-6
    # each record is the one a sweep over its own eps gives
    alone, _ = epsilon_sweep(p, GRID_EPS[:5])
    assert records == alone


@pytest.mark.parametrize("s, alpha", [(0.5, 0.5), (0.1, 0.75)])
def test_sweep_builds_no_interval_set(s, alpha):
    # each eps makes one root solve and one certification, both looked up on
    # the module as the benchmark's tracer sees them, and the certification
    # hands the interval layout to the endpoint fields without an
    # IntervalSet, also where the gap is refused (at (0.1, 0.75) the two
    # smallest eps)
    calls = {"solve_critical_d": 0, "zeta_endpoints": 0, "IntervalSet": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("solve_critical_d", "zeta_endpoints"):
            mp.setattr(onedim, name, counting(name, getattr(onedim, name)))
        mp.setattr(IntervalSet, "__init__",
                   counting("IntervalSet", IntervalSet.__init__))
        records, fit = epsilon_sweep(_p(s, alpha), GRID_EPS)
    assert calls == {"solve_critical_d": 7, "zeta_endpoints": 7,
                     "IntervalSet": 0}
    assert len(records) == 7 - len(fit["failed"])


def test_sweep_record_is_an_immutable_named_tuple():
    r = epsilon_sweep(_p(), GRID_EPS)[0][0]
    with pytest.raises(AttributeError):
        r.d_star = 1.0
    with pytest.raises(AttributeError):
        r.extra = 1.0
    assert SweepRecord._fields == ("eps", "d_star", "d_eps", "diameter",
                                   "f_at_root", "zeta_spread")


# `nlshape onedim-sweep` at the first seed-101 (s, alpha) of the line
# workload, as written before the sweep records became named tuples
SWEEP_CSV = """\
eps,d_star,d_eps,diameter,f_at_root,residual
0.001,227.25823977574953,146.71951861370087,227.75823977574953,0,0
0.00031623000000000003,470.05788630473558,303.47317621041827,470.55788630473558,1.6543612251060553e-24,0
0.0001,972.27130222614676,627.70646311577195,972.77130222614676,-2.0679515313825692e-25,0
3.1622999999999999e-05,2011.0359997738051,1298.3417331888841,2011.5359997738051,2.5849394142282115e-26,8.8817841970012523e-16
1.0000000000000001e-05,4159.643642829531,2685.5009310296246,4160.143642829531,3.2311742677852644e-27,8.8817841970012523e-16
3.1623000000000002e-06,8603.7650201160468,5554.6631079219742,8604.2650201160468,0,8.8817841970012523e-16
9.9999999999999995e-07,17796.099713061303,11489.311763276908,17796.599713061303,-5.0487097934144756e-29,8.8817841970012523e-16
"""


def test_onedim_sweep_csv_body_is_frozen(tmp_path):
    from nlshape.cli import main
    s, alpha = np.random.default_rng(101).uniform(1e-9, 1.0 - 1e-9, size=2)
    assert main(["onedim-sweep", "--s", repr(float(s)),
                 "--alpha", repr(float(alpha)), "--eps", "1e-3",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "onedim-sweep.csv").read_bytes() == SWEEP_CSV.encode()


def test_sweep_below_four_solved_raises_the_first_error():
    # at (0.01, 0.997) no eps of the grid is solved: the three largest fail
    # to bracket (f(d_eps) rounds to 0), the others overflow d_eps
    with pytest.raises(BracketError, match="eps = 0.001 "):
        epsilon_sweep(_p(0.01, 0.997), GRID_EPS)


def test_f_underflow_at_d_eps_is_named():
    # at (0.01, 0.997) d_eps is about 1e208 at eps = 1e-3 and 1e285 at 1e-4,
    # where f evaluates to exactly 0: the error says so instead of blaming
    # the size of eps
    for eps in (1e-3, 3.1623e-4, 1e-4):
        p = _p(0.01, 0.997, eps)
        assert f_closed_form(g_and_d_eps(p)[1], p) == 0.0
        with pytest.raises(BracketError, match="underflows to 0") as info:
            solve_critical_d(p)
        assert f"eps = {eps:g} " in str(info.value)
        assert "smallness" not in str(info.value)


def test_d_eps_overflow_is_a_geometry_error():
    # on the CLI eps grid at (0.01, 0.997), d_eps = (1.01 / (2 alpha eps))
    # ^(1 / 0.013) passes the float range from eps = 3.1623e-5 down
    for eps in GRID_EPS:
        p = _p(0.01, 0.997, eps)
        if eps >= 1e-4:
            assert math.isfinite(g_and_d_eps(p)[1])
            continue
        with pytest.raises(GeometryError) as info:
            g_and_d_eps(p)
        assert f"eps = {eps:g}" in str(info.value)
        assert "1 + s - alpha = 0.013" in str(info.value)
