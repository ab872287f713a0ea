"""The one rule for real values (sets._require_real) at every site that
takes one, and the nq refusal at every entry.

Each site is tried with True, "1", 1j, NaN, inf where inf is out of its
range, and one value outside its range: parameters raise ParamError and the
numbers a geometry is built from GeometryError, each with the message
"<name> must lie in <range>, got <value!r>". The float a value converts to
is what is tested, so a value that rounds onto an open bound is refused.
The same sites take numpy floats, numpy integers and Python ints as the
Python float of the same value, bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nlshape import (Ball, GeometryError, IntervalSet, ParamError, Params,
                     StarShape2D, TwoIntervalConfig, boundary_fields,
                     calibrate_variation_constant, diagnose, energy,
                     epsilon_sweep, eta, f_closed_form, find_critical_2d,
                     fourier_shape, frac_curvature, frac_perimeter,
                     grad_potential, grad_potential_at_points, identity_check,
                     potential, potential_at_points, pv_pair_integral,
                     riesz_energy, solve_critical_d, tangential_grad_potential,
                     zeta)
from nlshape.quad import graded_radial_rule, jacobi_half_rule, ladder_half_rule
from nlshape.sets import geometry_to_dict, scaled, translated

P1 = Params(n=1, s=0.5, alpha=0.5, eps=1e-3)
P2 = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
DISK = Ball((0.0, 0.0), 1.0 / math.sqrt(math.pi))
STAR = StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.1))
PAIR = IntervalSet([(0.0, 0.5), (2.0, 2.5)])

# before the one rule, True read as 1, a string or complex number failed
# with TypeError and NaN or inf slipped through a one-sided test; each row
# lists the values that are outside its site's range besides these
_ALWAYS_BAD = (True, "1", 1j, math.nan)

# exponents whose floats are the bounds 0.0 and 1.0: before the float was
# tested, Params stored them, and a solve or sweep on them raised
# ZeroDivisionError. The long double below 1 is 1.0 as a float where long
# double is wider than double (x86); frac_perimeter passed it on, and the
# rule of beta = -s refused it
_TINY = Fraction(1, 10**400)
_BELOW_1 = Fraction(10**20 - 1, 10**20)
_LONG_BELOW_1 = np.nextafter(np.longdouble(1), np.longdouble(0))
_DOUBLE_LONG = pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                                  reason="long double is double")

# (id, call(value), the range of the message, out-of-range values)
PARAM_SITES = [
    ("Params-s", lambda v: Params(n=2, s=v, alpha=0.5, eps=1e-3), "(0, 1)",
     (math.inf, 0.0, _TINY)),
    ("Params-alpha", lambda v: Params(n=1, s=0.5, alpha=v, eps=1e-3),
     "(0, 1)", (math.inf, 1.0, _BELOW_1)),
    ("frac_perimeter-s", lambda v: frac_perimeter(DISK, v, 64, 8), "(0, 1)",
     (math.inf, _TINY, _LONG_BELOW_1)),
    ("Params-eps", lambda v: Params(n=1, s=0.5, alpha=0.5, eps=v), "[0, inf)",
     (math.inf, -1.0)),
    ("with_eps", lambda v: P1.with_eps(v), "[0, inf)", (math.inf, -1.0)),
    ("find_critical_2d-tol",
     lambda v: find_critical_2d(DISK, P2, tol=v, resolution=16, nq=4),
     "[0, inf]", (-1.0,)),
    ("solve_critical_d-f_tol", lambda v: solve_critical_d(P1, f_tol=v),
     "[0, inf)", (math.inf, -1.0)),
    ("eta-delta", lambda v: eta(STAR, P2, v), "[0, inf]", (-1.0,)),
    ("f_closed_form-d", lambda v: f_closed_form(v, P1), "(0.5, inf)",
     (math.inf, 0.5)),
    ("TwoIntervalConfig-d", lambda v: TwoIntervalConfig(d=v, params=P1),
     "(0.5, inf)", (math.inf, 0.25)),
    ("epsilon_sweep-eps",
     lambda v: epsilon_sweep(P1, [1e-3, 1e-4, 1e-5, v]), "[0, inf)",
     (math.inf, -1e-6)),
    ("fourier_shape-r0", lambda v: fourier_shape({"r0": v}),
     "(-inf, inf)", (math.inf,)),
    ("fourier_shape-a2", lambda v: fourier_shape({"r0": 1.0, "a2": v}),
     "(-inf, inf)", (-math.inf,)),
    ("jacobi_half_rule-beta", lambda v: jacobi_half_rule(v, 8), "(-1, inf)",
     (math.inf, -1.5)),
]

GEOMETRY_SITES = [
    ("IntervalSet-end", lambda v: IntervalSet([(0.0, v)]), "(-inf, inf)",
     (math.inf,)),
    ("Ball-center", lambda v: Ball((v, 0.0), 1.0), "(-inf, inf)",
     (math.inf,)),
    ("Ball-radius", lambda v: Ball((0.0, 0.0), v), "(0, inf)",
     (math.inf, 0.0)),
    ("StarShape2D-center", lambda v: StarShape2D((0.0, v), 1.0),
     "(-inf, inf)", (math.inf,)),
    ("StarShape2D-r0", lambda v: StarShape2D((0.0, 0.0), v), "(-inf, inf)",
     (math.inf,)),
    ("StarShape2D-a", lambda v: StarShape2D((0.0, 0.0), 2.0, [0.0, v]),
     "(-inf, inf)", (math.inf,)),
    ("StarShape2D-b", lambda v: StarShape2D((0.0, 0.0), 2.0, (), [v]),
     "(-inf, inf)", (-math.inf,)),
    ("from_samples", lambda v: StarShape2D.from_samples((0.0, 0.0),
                                                       [1.0] * 7 + [v]),
     "(-inf, inf)", (math.inf,)),
    ("translated", lambda v: translated(DISK, (v, 0.0)), "(-inf, inf)",
     (math.inf,)),
    ("scaled", lambda v: scaled(DISK, v), "(0, inf)", (math.inf, 0.0)),
]


def _rows(sites, error):
    # an id shows at most 40 characters of the value (a Fraction's repr
    # spells out its digits)
    return [pytest.param(call, value, rng, error, id=f"{name}-{value!r:.40}",
                         marks=_DOUBLE_LONG if value is _LONG_BELOW_1 else ())
            for name, call, rng, extra in sites
            for value in _ALWAYS_BAD + extra]


@pytest.mark.parametrize("call, value, rng, error",
                         _rows(PARAM_SITES, ParamError)
                         + _rows(GEOMETRY_SITES, GeometryError))
def test_refuses_a_value_outside_its_range(call, value, rng, error):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).endswith(f" must lie in {rng}, got {value!r}")


def test_reproductions_are_refused_with_their_types():
    # each built or answered before the one rule, or raised TypeError (or
    # OverflowError: an integer beyond the float range)
    for call in (lambda: Ball((0, 0), True), lambda: Ball((0, 0), "1"),
                 lambda: IntervalSet([(0, "1")]),
                 lambda: StarShape2D((0, 0), 1.0, ["0.1"]),
                 lambda: StarShape2D((0, 0), 2.0, [True]),
                 lambda: scaled(Ball((0, 0), 1.0), True)):
        with pytest.raises(GeometryError):
            call()
    for call in (lambda: fourier_shape({"r0": True, "a2": "0.05"}),
                 lambda: calibrate_variation_constant(0.5, 2, 64, 16,
                                                      radii=(True, 2.0)),
                 lambda: epsilon_sweep(P1, [1e-3, 1e-4, 1e-5, True]),
                 lambda: epsilon_sweep(P1, [1e-3, 1e-4, 1e-5, "1e-6"]),
                 lambda: TwoIntervalConfig(d=True, params=P1),
                 lambda: f_closed_form("2", P1),
                 lambda: Params(n=2, s=0.5, alpha=0.5, eps=10**400)):
        with pytest.raises(ParamError):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: epsilon_sweep(P1, 1e-3), "eps_grid must be a sequence, got 0.001"),
    (lambda: epsilon_sweep(P1, None), "eps_grid must be a sequence, got None"),
    (lambda: calibrate_variation_constant(0.5, 1, 64, 8, radii=1.0),
     "radii must be a sequence, got 1.0"),
    (lambda: fourier_shape(5), "coefficients must be a mapping, got 5"),
    (lambda: fourier_shape({"r0": 1.0, 2: 0.1}),
     "unknown coefficient key 2 "),
], ids=["epsilon_sweep-number", "epsilon_sweep-None", "calibrate-radius",
        "fourier_shape-number", "fourier_shape-int-key"])
def test_list_parameters_are_refused_with_param_error(call, message):
    # each raised a raw TypeError: "... is not iterable" or "'int' object
    # is not subscriptable"
    with pytest.raises(ParamError, match=message):
        call()


@pytest.mark.parametrize("n", [1, 2])
def test_calibration_takes_an_ndarray_of_radii(n):
    # `if not radii` on an array raised numpy's "truth value of an array
    # ... is ambiguous" ValueError
    radii = np.array([0.5, 1.0])
    assert calibrate_variation_constant(0.5, n, 64, 8, radii=radii) == \
        calibrate_variation_constant(0.5, n, 64, 8, radii=(0.5, 1.0))


def test_a_real_ndarray_is_checked_whole():
    # an integer or float array passes as a whole; its first non-finite
    # entry is named; a bool array is read entry by entry and refused
    shape = StarShape2D((0.0, 0.0), 2.0, np.array([0, 1], dtype=np.int64))
    assert shape.a.tolist() == [0.0, 1.0] and shape.a.dtype == float
    with pytest.raises(GeometryError, match=r"a coefficient must lie in "
                       r"\(-inf, inf\), got nan"):
        StarShape2D((0.0, 0.0), 2.0, np.array([0.0, np.nan]))
    with pytest.raises(GeometryError, match="got True"):
        StarShape2D((0.0, 0.0), 2.0, np.array([True]))


def _key(out):
    """out as nested tuples of exact keys: each float or integer with its
    type, each array with its dtype and bytes."""
    if isinstance(out, np.ndarray):
        return ("array", out.dtype.str, out.tobytes())
    if isinstance(out, (float, int, np.floating, np.integer)):
        return (type(out).__name__, float(out).hex())
    if isinstance(out, dict):
        return tuple((k, _key(v)) for k, v in sorted(out.items()))
    if isinstance(out, (tuple, list)):
        return tuple(map(_key, out))
    return out


# (id, call(value) returning plain data, an integer value in range)
ACCEPT_SITES = [
    ("Params-eps", lambda v: vars(Params(n=1, s=0.5, alpha=0.5, eps=v)), 1),
    ("Params-alpha", lambda v: vars(Params(n=2, s=0.5, alpha=v, eps=1e-3)), 1),
    ("with_eps", lambda v: vars(P1.with_eps(v)), 2),
    ("find_critical_2d-tol",
     lambda v: find_critical_2d(DISK, P2, tol=v, resolution=16,
                                nq=4)[1].as_dict(), 1),
    ("solve_critical_d-f_tol", lambda v: solve_critical_d(P1, f_tol=v), 1),
    ("eta-delta", lambda v: eta(STAR, P2, v), 2),
    ("f_closed_form-d", lambda v: f_closed_form(v, P1), 3),
    ("TwoIntervalConfig-d", lambda v: TwoIntervalConfig(d=v, params=P1).d, 3),
    ("epsilon_sweep-eps",
     lambda v: epsilon_sweep(P1, [1e-3, 1e-4, 1e-5, 1e-6, v]), 1),
    ("fourier_shape", lambda v: geometry_to_dict(
        fourier_shape({"r0": v, "a2": 0 * v})), 1),
    ("IntervalSet-end", lambda v: IntervalSet([(0.0, v)]).intervals, 2),
    ("Ball", lambda v: geometry_to_dict(Ball((v, 0.0), v)), 2),
    ("StarShape2D", lambda v: geometry_to_dict(
        StarShape2D((v, 0.0), 3 * v, [0.0, v], [v])), 1),
    ("from_samples", lambda v: geometry_to_dict(StarShape2D.from_samples(
        (0.0, 0.0), [v] * 8)), 2),
    ("translated", lambda v: geometry_to_dict(translated(DISK, (v, v))), 1),
    ("scaled", lambda v: geometry_to_dict(scaled(DISK, v)), 2),
    ("jacobi_half_rule", lambda v: jacobi_half_rule(v, 8), 1),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=name) for name, call, value in ACCEPT_SITES])
@pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64, int])
def test_takes_numpy_and_integer_values_as_floats(call, value, kind):
    typed = kind(value)
    assert _key(call(typed)) == _key(call(float(typed)))


# (id, call(exponent)) of each public function that takes s or alpha, on
# a star shape and on an interval set: each computes with, and answers in,
# the Python float of the exponent
_FOCI = np.array([0.4, 2.0])
_POINTS = np.array([[0.2, 0.1], [-0.3, 0.5]])
EXPONENT_SITES = [
    ("frac_perimeter", lambda v: frac_perimeter(STAR, v, 64, 8)),
    ("frac_perimeter-1d", lambda v: frac_perimeter(PAIR, v)),
    ("riesz_energy", lambda v: riesz_energy(STAR, v, 64, 8)),
    ("riesz_energy-1d", lambda v: riesz_energy(PAIR, v)),
    ("potential", lambda v: potential(STAR, (1.1, 0.0), v, nq=8)),
    ("potential-off-curve", lambda v: potential(STAR, (0.2, 0.1), v)),
    ("potential-1d", lambda v: potential(PAIR, 1.0, v)),
    ("grad_potential", lambda v: grad_potential(STAR, (1.1, 0.0), v, nq=8)),
    ("grad_potential-off-curve",
     lambda v: grad_potential(STAR, (0.2, 0.1), v)),
    ("tangential_grad_potential",
     lambda v: tangential_grad_potential(STAR, (1.1, 0.0), v, nq=8)),
    ("frac_curvature", lambda v: frac_curvature(STAR, (1.1, 0.0), v, nq=8)),
    ("frac_curvature-1d", lambda v: frac_curvature(PAIR, 0.5, v)),
    ("potential_at_points",
     lambda v: potential_at_points(STAR, _POINTS, _FOCI, v)),
    ("grad_potential_at_points",
     lambda v: grad_potential_at_points(STAR, _POINTS, _FOCI, v)),
    ("pv_pair_integral", lambda v: pv_pair_integral(PAIR, 2.0, v)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in EXPONENT_SITES])
@pytest.mark.parametrize("kind", [np.float64, np.float32])
def test_exponent_sites_compute_with_the_python_float(call, kind):
    # a float32 exponent was computed with as float32, and frac_perimeter on
    # the star returned numpy.float32 81.67282 for 81.67281382539983
    typed = kind(0.3)
    assert _key(call(typed)) == _key(call(float(typed)))


def test_numpy_exponents_reach_the_line_as_floats():
    # Params stores s and alpha as floats; kept as numpy floats, a d_eps
    # past the float range was a numpy inf with a RuntimeWarning, and the
    # solve then failed on the refused gap d = inf with ParamError
    for kind in (np.float64, float):
        p = Params(n=1, s=kind(1e-9), alpha=kind(1.0 - 1e-9), eps=1e-3)
        assert type(p.s) is float and type(p.alpha) is float
        with pytest.raises(GeometryError, match="d_eps overflows"):
            solve_critical_d(p)


def test_sweep_records_an_eps_whose_d_eps_overflows():
    # at the least subnormal eps, 1.5 / (c eps alpha) passes the float range
    # as inf with no OverflowError; at alpha = 0.1, c eps alpha is 0
    for alpha in (0.5, 0.1):
        p = Params(n=1, s=0.5, alpha=alpha, eps=1e-3)
        _, fit = epsilon_sweep(p, [1e-3, 1e-4, 1e-5, 1e-6, 5e-324])
        [failed] = fit["failed"]
        assert failed["eps"] == 5e-324
        assert failed["error"].startswith(
            "GeometryError: the critical-gap scale d_eps overflows")


# ---------------------------------------------------------------------------
# nq: refused by every entry, also where it sets no rule

NQ_ENTRIES = [
    ("frac_perimeter", lambda nq: frac_perimeter(PAIR, 0.5, 64, nq)),
    ("riesz_energy", lambda nq: riesz_energy(PAIR, 0.5, 64, nq)),
    ("energy", lambda nq: energy(PAIR, P1, 64, nq)),
    ("boundary_fields", lambda nq: boundary_fields(PAIR, P1, 64, nq)),
    ("diagnose", lambda nq: diagnose(PAIR, P1, 64, nq)),
    ("frac_curvature", lambda nq: frac_curvature(PAIR, 0.5, 0.5, nq=nq)),
    ("zeta", lambda nq: zeta(PAIR, 0.5, P1, nq=nq)),
    ("identity_check", lambda nq: identity_check(PAIR, P1, "Lal", 64, nq)),
    ("calibrate_variation_constant",
     lambda nq: calibrate_variation_constant(0.5, 1, 64, nq)),
    ("potential-off-curve", lambda nq: potential(STAR, (0.2, 0.1), 0.5, nq=nq)),
    ("grad_potential-off-curve",
     lambda nq: grad_potential(STAR, (0.2, 0.1), 0.5, nq=nq)),
    ("tangential_grad_potential",
     lambda nq: tangential_grad_potential(STAR, (1.1, 0.0), 0.5, nq=nq)),
    ("potential_at_points", lambda nq: potential_at_points(
        STAR, np.array([[0.2, 0.1]]), np.array([0.5]), 0.5, nq)),
    ("grad_potential_at_points", lambda nq: grad_potential_at_points(
        STAR, np.array([[0.2, 0.1]]), np.array([0.5]), 0.5, nq)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in NQ_ENTRIES])
@pytest.mark.parametrize("nq", [0, "x", True, 2.5])
def test_every_entry_refuses_a_bad_nq(call, nq):
    # all but tangential_grad_potential answered while only the on-curve
    # rule checked nq
    with pytest.raises(ParamError, match="nq must be an integer of at least 1"):
        call(nq)


# ---------------------------------------------------------------------------
# quad's public rules: the package's error types, not numpy's or Python's

@pytest.mark.parametrize("call, error, message", [
    # a bare ValueError
    (lambda: jacobi_half_rule(-1.5, 8), ParamError,
     r"beta must lie in \(-1, inf\), got -1.5"),
    (lambda: jacobi_half_rule(math.nan, 8), ParamError, "got nan"),  # LinAlgError
    (lambda: jacobi_half_rule("0.5", 8), ParamError, "got '0.5'"),  # TypeError
    (lambda: jacobi_half_rule(True, 8), ParamError, "got True"),  # beta = 1
    # built a rule, or failed in numpy
    (lambda: ladder_half_rule(-3), ParamError,
     "depth must be an integer of at least 0, got -3"),
    (lambda: ladder_half_rule(2.5), ParamError, "depth must be"),
    (lambda: ladder_half_rule(True), ParamError, "depth must be"),
    (lambda: ladder_half_rule(4, 0), ParamError,
     "q must be an integer of at least 1, got 0"),
    (lambda: graded_radial_rule(0), ParamError,
     "q must be an integer of at least 1, got 0"),
    (lambda: graded_radial_rule(2.5), ParamError, "q must be"),
    (lambda: graded_radial_rule(True), ParamError, "q must be"),
], ids=["jacobi-beta-below", "jacobi-beta-nan", "jacobi-beta-str",
        "jacobi-beta-bool", "ladder-depth-negative", "ladder-depth-float",
        "ladder-depth-bool", "ladder-q-0", "radial-q-0", "radial-q-float",
        "radial-q-bool"])
def test_quad_rules_refuse_with_the_package_types(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_typed_rule_caches_keep_true_apart_from_1():
    # a cached depth-1 ladder or order-1 radial rule must not answer True
    ladder_half_rule(1)
    graded_radial_rule(1)
    with pytest.raises(ParamError):
        ladder_half_rule(True)
    with pytest.raises(ParamError):
        graded_radial_rule(True)
