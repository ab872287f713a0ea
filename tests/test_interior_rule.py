"""Accuracy map of the off-curve rule and of the interior rule.

Reference values:

* off_curve_potential_mp_oracle and off_curve_gradient_mp_oracle (30-digit
  boundary integrals split at the focus), frozen below because they take
  seconds a value; test_off_curve_mp_oracle_is_reproducible re-runs one;
* the frame-based 24-level ladder that the focus-frame ladder replaced
  (frame_ladder_potential and frame_ladder_gradient in oracles), live.

The targets lie off the shapes of test_curve_rule (modes 2-12 at 1-15%, a
non-centred mix of modes 2, 7 and 12, and a near-degenerate star): at the
signed distance d along the outward normal at the angle theta (inside for
d < 0), |d| = 1e-1 ... 1e-8, with theta as the focus.
"""

import math

import numpy as np
import pytest

from nlshape import (Ball, Params, grad_potential_at_points,
                     potential_at_points, set_integral_2d)
from nlshape.diagnostics import identity_check
from nlshape.functionals import (_LADDER_CAP, _focus_frame, _grad_field,
                                 _ladder_batch, _ladder_sums, _ladder_tables,
                                 _potential_field)
from nlshape.quad import graded_radial_rule, ladder_half_rule
from nlshape.shapeopt import fourier_shape, volume_project

from oracles import (frame_ladder_gradient, frame_ladder_potential,
                     off_curve_potential_mp_oracle)
from test_curve_rule import MAP_SHAPES
from test_diagnostics import AUDIT_SHAPE

ALPHA = 0.5
OFF_DISTANCES = tuple(side * 10.0 ** -e for e in range(1, 9) for side in (-1, 1))

# (shape, theta): (V, dV/dx, dV/dy) at alpha = 0.5 for each of OFF_DISTANCES
OFF_REF = {
    ("mode12_1pct", 0.4): (
        (3.4921077164103504, -1.6073226515476493, -0.6890643650791703),
        (3.100520021624106, -1.5739698507910713, -0.6315911677132084),
        (3.31776031599044, -2.0798357661359947, -0.8186439522744258),
        (3.2717607082180047, -2.0714447687004296, -0.8107925072991801),
        (3.2971430437064484, -2.233362485734965, -0.8608304690098096),
        (3.292324704003689, -2.23234664440641, -0.8599928233025431),
        (3.2949779418887206, -2.2826860410410066, -0.8748324821695331),
        (3.2944891994488525, -2.2825788370806053, -0.8747470929518703),
        (3.2947581138762376, -2.298379737249397, -0.8793399849058251),
        (3.2947090211643415, -2.298368839103335, -0.8793313946522722),
        (3.2947360255783127, -2.3033528529575285, -0.8807736514697624),
        (3.2947311093985583, -2.30335175752194, -0.8807727908212016),
        (3.2947338134063378, -2.304926547389184, -0.8812278514432685),
        (3.294733321569894, -2.304926437667887, -0.8812277653270859),
        (3.2947335920833893, -2.3054242997477883, -0.8813715657981354),
        (3.2947335428928364, -2.305424288770079, -0.8813715571849058),
    ),
    ("mode2_1pct", 0.4): (
        (3.4898534390307097, -1.6037013132117537, -0.6928700170004847),
        (3.0961638783652865, -1.5551258139010447, -0.6742236365395605),
        (3.3144818638847826, -2.051349808340934, -0.8909011714011822),
        (3.2682601462848826, -2.041812297978215, -0.8869827117540011),
        (3.293764602533384, -2.197030465545002, -0.9550786900388848),
        (3.2889240343179753, -2.195923836600165, -0.9546196313432175),
        (3.2915895009024054, -2.2439656323225443, -0.9757279749949707),
        (3.2910985355925466, -2.243850128498445, -0.9756799406252734),
        (3.2913686726397198, -2.258912965334101, -0.982301401755503),
        (3.2913193576408055, -2.2589012618610367, -0.9822965310061532),
        (3.291346484313085, -2.2636508784709877, -0.9843847372732414),
        (3.2913415459046287, -2.2636497032825753, -0.984384248069722),
        (3.2913442621381988, -2.2651502741004794, -0.9850440184998775),
        (3.291343768078885, -2.2651501564287155, -0.9850439695122869),
        (3.2913440398149585, -2.2656245388891296, -0.985252549090329),
        (3.291343990402119, -2.2656245271176436, -0.9852525441896751),
    ),
    ("mode3_15pct", 0.4): (
        (3.460715342913789, -1.4743336633684285, -0.8876848005071574),
        (3.081975908413622, -1.3747296892315357, -0.9163771554143276),
        (3.291993092032992, -1.7945323105087225, -1.258786228415368),
        (3.2472838686858094, -1.7796945915401718, -1.2571318038239248),
        (3.2719525502294355, -1.9044946445720226, -1.3730650311143504),
        (3.2672632604391416, -1.9028529899257678, -1.3727442957938287),
        (3.2698454741129046, -1.9406437335333846, -1.409310223666242),
        (3.2693696366784346, -1.940474571216576, -1.4092732212333052),
        (3.269631452862019, -1.9522321351381013, -1.4208006777158069),
        (3.2695836506506777, -1.9522150608878206, -1.4207968215869304),
        (3.2696099452843623, -1.95591307866266, -1.4244377908694632),
        (3.2696051581546635, -1.9559113662407452, -1.4244374003271232),
        (3.2696077911848622, -1.9570787536462333, -1.4255883193726764),
        (3.269607312253424, -1.9570785822463574, -1.425588280162886),
        (3.2696075756691654, -1.9574475389717254, -1.4259521863397673),
        (3.269607527769113, -1.9574475218277987, -1.4259521824149024),
    ),
    ("mode5_5pct", 0.4): (
        (3.43648048301283, -1.6130563819216288, -0.7112189511720932),
        (3.0478172418837337, -1.4963711668172883, -0.6904959201331557),
        (3.26156384929457, -2.0071561982726984, -0.9430410042845392),
        (3.2159035016019493, -1.987043028690662, -0.9366259990603122),
        (3.2410722603850313, -2.141903342944373, -1.0185163446809595),
        (3.2362879286044883, -2.1396072821334458, -1.017720066086134),
        (3.2389221647563, -2.186363840566556, -1.0429627733102893),
        (3.238436823203523, -2.1861252018336375, -1.0428782209918226),
        (3.2387038640811907, -2.2006422416463733, -1.0507685105702462),
        (3.238655111458103, -2.2006180921035137, -1.050759899578842),
        (3.238681928792332, -2.205180526672295, -1.0532450418887371),
        (3.2386770466214587, -2.205178102683993, -1.053244175863838),
        (3.2386797319240435, -2.2066180029410285, -1.0540290248651847),
        (3.2386792434884883, -2.2066177602555124, -1.0540289381063803),
        (3.2386795121314913, -2.2070728085428377, -1.054277026225663),
        (3.2386794632810276, -2.207072784262041, -1.0542770175431062),
    ),
    ("modes_2_7_12", 0.4): (
        (3.438907401773049, -1.5064720567700682, -0.8719069567605845),
        (3.0515616226260027, -1.4172468267824094, -0.8480204043550895),
        (3.2653435528591244, -1.8835161777460112, -1.1544201308868558),
        (3.2197887043222777, -1.868445472109011, -1.1474993848603787),
        (3.24491078746222, -2.0116871422596616, -1.2441355690423574),
        (3.240136959245075, -2.009967832009035, -1.2432968710673524),
        (3.242765544935393, -2.053624184922963, -1.2730962075220773),
        (3.2422812536855474, -2.053445508697215, -1.2730077036387422),
        (3.2425477182033005, -2.067049885488025, -1.2823332444857864),
        (3.2424990706104504, -2.0670318045240186, -1.2823242475599474),
        (3.2425258301912487, -2.071312731817345, -1.2852627770041232),
        (3.2425209585233987, -2.0713109169743498, -1.2852618726775502),
        (3.242523638049453, -2.0726625175944204, -1.2861900492073708),
        (3.2425231506642, -2.072662335896443, -1.2861899586279457),
        (3.2425234187295384, -2.073089533799549, -1.2864833663318707),
        (3.2425233699841045, -2.073089515621945, -1.2864833572685668),
    ),
    ("near_degenerate", 0.4): (
        (3.6809249374017714, -1.2186845510665631, -1.1881797435393906),
        (3.3049535293018795, -1.1234393233461524, -1.1758078301595847),
        (3.5131078286071626, -1.4604952048613733, -1.6061526705995377),
        (3.4686842782588045, -1.4470125183611031, -1.5992080775715038),
        (3.493191890975388, -1.5459406715309933, -1.7388824715604163),
        (3.4885311797790455, -1.5444634671079096, -1.737996887325499),
        (3.4910976339770667, -1.5742234185333572, -1.781460101133857),
        (3.4906246544140376, -1.5740716162659194, -1.7813654830562549),
        (3.4908848983501617, -1.5833088168814324, -1.7950073830981212),
        (3.4908373819259766, -1.5832935075712542, -1.7949977296497157),
        (3.490863519372526, -1.5861965693568942, -1.7993005077634672),
        (3.490858760821542, -1.586195034343708, -1.7992995363581212),
        (3.4908613781334052, -1.5871112441175124, -1.8006590487505603),
        (3.490860902059839, -1.5871110904865124, -1.8006589514174973),
        (3.4908611639037503, -1.5874006389587405, -1.8010887515399772),
        (3.4908611162894854, -1.5874006235896687, -1.801088741797805),
    ),
    ("near_degenerate", 2.0): (
        (4.191112993194706, -0.13011322820132998, -1.418501993491839),
        (3.865371522187895, -0.15480251278080845, -1.606667418081839),
        (4.052175732910935, -0.3833955647190089, -1.953346262480737),
        (4.012749205804884, -0.3847275979286227, -1.9704902603323402),
        (4.034580854984392, -0.4656424242538497, -2.103061267814243),
        (4.030419795048734, -0.46573619425368307, -2.104707449438048),
        (4.032712195060757, -0.4915618145381097, -2.1486921387804174),
        (4.032289180564165, -0.4915699361655605, -2.148854579527959),
        (4.032521951349107, -0.49974904560080563, -2.162960362806228),
        (4.032479431431504, -0.4997498180551487, -2.1629765380036132),
        (4.032502820876088, -0.5023372683929647, -2.167456524123346),
        (4.032498561975763, -0.5023373443827496, -2.1674581394650576),
        (4.032500904480532, -0.5031556604669477, -2.1688767599887537),
        (4.032500478372031, -0.5031556680263807, -2.1688769214543298),
        (4.032500712735164, -0.5034144513474242, -2.1693257207861008),
        (4.032500670117406, -0.5034144521026281, -2.1693257369313756),
    ),
}

# (V relative, grad V relative to its largest component), measured times
# about 2. The floor on each shape is the ladder's twelve-point panels (the
# frame-based ladder has the same one): on the mode-12 shapes the outer
# panels hold up to three periods of cos 12u, and V is off by 4e-7. On the
# 1% mode-2 star grad V grows toward the curve (2.6e-13 at 1e-8), the
# roundoff of y - x against its size
OFF_BOUNDS = {
    "mode2_1pct": (2e-15, 5e-13),
    "mode3_15pct": (4e-13, 5e-12),
    "mode5_5pct": (5e-11, 2e-10),
    "mode12_1pct": (1e-6, 4e-6),
    "modes_2_7_12": (1e-6, 4e-6),
    "near_degenerate": (2e-9, 2e-8),
}


def _targets(name, theta, distances=OFF_DISTANCES):
    """(star, points, foci) at the signed distances from the boundary point
    at theta, along its outward normal."""
    star = MAP_SHAPES[name]
    pos, nu, _ = star.frame(np.array([theta]))
    d = np.asarray(distances)
    return star, pos[0] + d[:, None] * nu[0], np.full(d.size, theta)


def _raw(sums, foci):
    return sums


# V and grad V at ALPHA with their sums as the value, so _ladder_batch and
# _ladder_sums compare sum for sum
_V_SUMS = _potential_field(ALPHA)._replace(of=_raw)
_GRAD_SUMS = _grad_field(ALPHA)._replace(of=_raw)


def test_map_covers_the_promised_targets():
    assert {name for name, _ in OFF_REF} == set(MAP_SHAPES)
    assert max(OFF_DISTANCES) == 1e-1 and min(map(abs, OFF_DISTANCES)) == 1e-8
    assert all(len(rows) == len(OFF_DISTANCES) for rows in OFF_REF.values())


@pytest.mark.parametrize("key", sorted(OFF_REF))
def test_off_curve_values_match_the_mp_oracles(key):
    star, pts, foci = _targets(*key)
    ref = np.array(OFF_REF[key])
    tol_v, tol_g = OFF_BOUNDS[key[0]]
    v = potential_at_points(star, pts, foci, ALPHA)
    g = grad_potential_at_points(star, pts, foci, ALPHA)
    assert np.abs(v / ref[:, 0] - 1.0).max() <= tol_v
    g_err = np.abs(g - ref[:, 1:]).max(axis=1) / np.abs(ref[:, 1:]).max(axis=1)
    assert g_err.max() <= tol_g


def test_off_curve_mp_oracle_is_reproducible():
    star, pts, foci = _targets("mode2_1pct", 0.4, (-1e-1,))
    v = off_curve_potential_mp_oracle(star, pts[0], foci[0], ALPHA)
    assert abs(v / OFF_REF[("mode2_1pct", 0.4)][0][0] - 1.0) <= 1e-15


@pytest.mark.parametrize("key", sorted(OFF_REF))
def test_focus_frame_ladder_matches_the_frame_ladder(key):
    # the same dyadic panels, so V agrees to roundoff at every distance and
    # also with the focus off the nearest point; grad V agrees to 1e-14
    # from 1e-4 out, closer in the fixed 24 levels of the frame ladder stop
    # short of the peak (at 1e-8 they are off by up to 8e-8)
    distances = OFF_DISTANCES + (-1e-9, 1e-9)
    star, pts, foci = _targets(*key, distances)
    far = np.abs(distances) >= 1e-4
    for shift in (0.0, -0.05, 0.05):
        f = foci + shift
        v = potential_at_points(star, pts, f, ALPHA)
        assert np.abs(v / frame_ladder_potential(star, pts, f, ALPHA)
                      - 1.0).max() <= 4e-15
        g = grad_potential_at_points(star, pts, f, ALPHA)[far]
        old = frame_ladder_gradient(star, pts[far], f[far], ALPHA)
        assert (np.abs(g - old).max(axis=1)
                / np.abs(old).max(axis=1)).max() <= 1e-14


def _abs_sums(star, frame, field):
    """The full ladder's sums of the magnitudes of field's terms."""
    return _ladder_sums(star, frame, _LADDER_CAP, field._replace(
        h=lambda n: tuple(np.abs(part) for part in field.h(n))))


@pytest.mark.parametrize("key", sorted(OFF_REF))
def test_depth_from_distance_equals_the_full_ladder(key):
    # below a target's depth the full ladder only subdivides a panel on
    # which the integrand is already resolved, so the two sums differ by
    # roundoff: at most 4 ulps of V with the focus at the nearest point,
    # and with the focus 0.05 off it, where the depth follows the larger
    # distance to the focus point, and for grad V, whose terms cancel,
    # a few ulps of the sum of the terms' magnitudes (measured: up to 6)
    star, pts, foci = _targets(*key)
    eps = np.finfo(float).eps
    for shift in (0.0, -0.05, 0.05):
        f = foci + shift
        frame = _focus_frame(star, pts, f)
        assert frame.depth.max() < _LADDER_CAP
        v = _ladder_batch(star, pts, f, _V_SUMS)
        v_full = _ladder_sums(star, frame, _LADDER_CAP, _V_SUMS)[0]
        if shift == 0.0:
            assert (np.abs(v - v_full) <= 4 * np.spacing(np.abs(v_full))).all()
        v_abs = _abs_sums(star, frame, _V_SUMS)[0]
        assert (np.abs(v - v_full) <= 16 * eps * v_abs).all()
        g = _ladder_batch(star, pts, f, _GRAD_SUMS)
        g_full = _ladder_sums(star, frame, _LADDER_CAP, _GRAD_SUMS)
        g_abs = _abs_sums(star, frame, _GRAD_SUMS)
        assert (np.abs(g - g_full) <= 16 * eps * g_abs).all()


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_au1_holds_to_the_graded_rule(alpha, mode3_star):
    # the d^(1 - alpha) boundary layer of grad V, which left Au1 at 2e-6 to
    # 4e-4 under a plain radial rule, is graded away: measured 2.5e-12,
    # 1e-10, 5.3e-10 and 5.1e-8 at 256/48, and on the audit shape 2.5e-12,
    # 9.9e-11, 5.2e-10 and 5.0e-8 (the plain radial rule gave 1.5e-5 there
    # at alpha 0.5)
    p = Params(n=2, s=0.5, alpha=alpha, eps=1e-3)
    bound = 1e-9 if alpha <= 0.7 else 1e-7
    for shape in (Ball((0.0, 0.0), 1.0), mode3_star, AUDIT_SHAPE):
        assert identity_check(shape, p, "Au1", 256, 48) <= bound


def test_interior_rule_reuses_its_rules_and_tables(mode3_star):
    # a repeat of a set integral builds no ladder rule and no table: both
    # caches hold every depth in use, and the tables are read-only
    f = lambda pts, foci: potential_at_points(mode3_star, pts, foci, ALPHA)
    set_integral_2d(mode3_star, f, 256)
    rules, tables = (ladder_half_rule.cache_info(),
                     _ladder_tables.cache_info())
    set_integral_2d(mode3_star, f, 256)
    assert ladder_half_rule.cache_info().misses == rules.misses
    assert _ladder_tables.cache_info().misses == tables.misses
    assert min(rules.maxsize, tables.maxsize) > _LADDER_CAP
    for arr in _ladder_tables(12, mode3_star.kmax):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# the ray count of the interior rule: nested doubling from 20 (kmax + 1) rays


def _large_amplitude_shape():
    # the first shape of bench/workloads._perturbed_disk_coeffs(rng(7), 0.15)
    # at unit area: modes 2-5 at 7.5-15%
    rng = np.random.default_rng(7)
    amps = rng.uniform(0.075, 0.15, size=4)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
    coeffs = {"r0": 1.0}
    for k, amp, ph in zip(range(2, 6), amps, phases):
        coeffs[f"a{k}"] = float(amp * math.cos(ph))
        coeffs[f"b{k}"] = float(amp * math.sin(ph))
    return volume_project(fourier_shape(coeffs))


def _counted_au1_integrand(star, calls):
    """The Au1 integrand x . grad V at alpha 0.5, nq 48, recording each
    batch's focus angles in calls."""
    def f(pts, foci):
        calls.append(np.array(foci))
        return (grad_potential_at_points(star, pts, foci, ALPHA, 48)
                * pts).sum(1)
    return f


def _all_rays_fsum(star, f, m):
    """The interior rule on all m mesh rays, in one batch, summed by fsum."""
    q = max(12, m // 16)
    t, wt = graded_radial_rule(q)
    cs, sn, r, _ = star._grid(m)
    th = 2.0 * np.pi * np.arange(m) / m
    rad = np.multiply.outer(r, t)
    pts = np.stack([star.center[0] + rad * cs[:, None],
                    star.center[1] + rad * sn[:, None]], axis=-1)
    vals = f(pts.reshape(-1, 2), np.repeat(th, q))
    w = np.multiply.outer((2.0 * np.pi / m) * (r * r), t * wt)
    return math.fsum((vals * w.ravel()).tolist())


@pytest.mark.parametrize("m", [256, 1024])
def test_interior_rule_certifies_the_audit_shape_on_128_rays(m):
    # modes 2-5 at 5%: the doubling test starts at 128 = 20 (5 + 1) rounded
    # up to a level of m, and 64 and 128 rays agree to 1e-13, so the rule
    # stops there, on max(12, m // 16) radial nodes a ray (one ray per mesh
    # node was 256 and 1024 rays); the value equals the all-rays value
    # (measured: bitwise here, 1 ulp off on 9 of the 50 shapes of seeds
    # 1-25 at m = 256), and Au1 holds at m/48 (measured 9.9e-11 at 256 and
    # 3.3e-15 at 1024)
    calls = []
    f = _counted_au1_integrand(AUDIT_SHAPE, calls)
    value = set_integral_2d(AUDIT_SHAPE, f, m)
    assert sum(map(len, calls)) == 128 * max(12, m // 16)
    ref = _all_rays_fsum(AUDIT_SHAPE, f, m)
    assert abs(value - ref) <= 1e-15 * abs(ref)
    p = Params(n=2, s=0.5, alpha=ALPHA, eps=1e-3)
    assert identity_check(AUDIT_SHAPE, p, "Au1", m, 48) <= 1e-8


def test_interior_rule_falls_back_to_every_ray_bit_for_bit():
    # at 15% amplitude 128 rays miss 64 by more than 1e-13, so the rule
    # evaluates the 128 rays in between and returns the all-rays fsum
    star = _large_amplitude_shape()
    calls = []
    f = _counted_au1_integrand(star, calls)
    value = set_integral_2d(star, f, 256)
    assert sum(map(len, calls)) == 256 * 16
    assert value == _all_rays_fsum(star, f, 256)


@pytest.mark.parametrize("large", [False, True])
def test_no_ray_reaches_the_integrand_twice(large):
    star = _large_amplitude_shape() if large else AUDIT_SHAPE
    calls = []
    set_integral_2d(star, _counted_au1_integrand(star, calls), 256)
    foci = np.concatenate(calls)
    rays = np.unique(foci)
    # each ray's 16 radial nodes share its angle, and no angle comes twice
    assert foci.size == 16 * rays.size
    assert rays.size == (256 if large else 128)
