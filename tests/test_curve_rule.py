"""Accuracy map of the on-curve rule (polar difference form).

Reference values:

* star shapes: curvature_mp_oracle, potential_mp_oracle and
  tangential_gradient_mp_oracle (30-digit boundary integrals, about 1e-15)
  and potential_ray_oracle (tol 1e-10, no divergence identity), frozen below
  because they take seconds a value; test_mp_oracle_is_reproducible re-runs
  one of them;
* disks: disk_curvature_exact, disk_perimeter_oracle and disk_riesz_oracle,
  live.

The shapes cover modes 2-12 at 1-15% amplitude, a non-centred mix of modes
2, 7 and 12, and a near-degenerate star (min r / max r = 0.215).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlshape import (Params, StarShape2D, boundary_fields, energy,
                     frac_curvature, frac_perimeter, grad_potential, potential,
                     riesz_energy, tangential_grad_potential)
from nlshape import functionals
from nlshape.functionals import (_curve_batch, _d_series, _grad_field,
                                 _grad_tau_field, _kappa_field,
                                 _potential_field, _u_tables)
from nlshape.quad import jacobi_half_rule
from nlshape.sets import uniform_angles

from oracles import (curvature_mp_oracle, disk_curvature_exact,
                     disk_perimeter_oracle, disk_riesz_oracle)


def _modes(**amps):
    """(a, b) coefficient arrays from keywords a<k>=..., b<k>=..."""
    kmax = max(int(key[1:]) for key in amps)
    a, b = np.zeros(kmax), np.zeros(kmax)
    for key, v in amps.items():
        (a if key[0] == "a" else b)[int(key[1:]) - 1] = v
    return a, b


MAP_SHAPES = {
    "mode2_1pct": StarShape2D((0.0, 0.0), 1.0, *_modes(a2=0.01)),
    "mode5_5pct": StarShape2D((0.0, 0.0), 1.0, *_modes(b5=0.05)),
    "mode12_1pct": StarShape2D((0.0, 0.0), 1.0, *_modes(a12=0.01)),
    "mode3_15pct": StarShape2D((0.0, 0.0), 1.0, *_modes(a3=0.15)),
    "modes_2_7_12": StarShape2D((0.2, -0.1), 1.0,
                                *_modes(a2=0.15, b7=0.02, a12=0.01)),
    "near_degenerate": StarShape2D((0.0, 0.0), 1.0, *_modes(a2=0.62, b5=0.03)),
}

# (shape, theta): kappa at s = 0.5 and at s = 0.8, V and grad V . tau at
# alpha = 0.5 from the mp oracles, then V from potential_ray_oracle
MAP_REF = {
    ("mode2_1pct", 0.4): (14.917776189747004, 16.46756771422145,
                          3.2913440151085385, 0.009995715550928423,
                          3.291344015104271),
    ("mode2_1pct", 2.0): (14.751055597983424, 16.05832963609103,
                          3.3008792578215242, -0.010827081802451463,
                          3.3008792573716526),
    ("mode5_5pct", 0.4): (17.70563844420003, 24.89715761058933,
                          3.2386794877062597, 0.13092345810537903,
                          3.238679487709355),
    ("mode5_5pct", 2.0): (12.997944895326928, 10.77215216864308,
                          3.336057071728071, 0.2875034508671507,
                          3.3360570707000945),
    ("mode12_1pct", 0.4): (15.071751208125079, 17.19679128389434,
                           3.294733567488113, -0.20715616101364148,
                           3.294733566886976),
    ("mode12_1pct", 2.0): (15.9697863017819, 20.65135560307346,
                           3.2888558326027493, -0.1877134476558953,
                           3.288855830120678),
    ("mode3_15pct", 0.4): (16.10717981994459, 19.65088910040032,
                           3.269607551719139, 0.3595629672479218,
                           3.2696075514636354),
    ("mode3_15pct", 2.0): (18.022785600218512, 24.548284103232493,
                           3.1836591462487713, -0.10353958887552159,
                           3.183659146170221),
    ("modes_2_7_12", 0.4): (16.673982256439704, 21.470324749004444,
                            3.2425233943568217, 0.11329458862215723,
                            3.2425233943604628),
    ("modes_2_7_12", 2.0): (17.074897467208533, 25.510039715542565,
                            3.3563193068584507, -0.3949372659931779,
                            3.356319299188662),
    ("near_degenerate", 0.4): (16.723473682345055, 20.64181965028546,
                               3.490861140096618, 0.3103967281763377,
                               3.490861206581376),
    ("near_degenerate", 2.0): (10.317231077161415, 8.185963425187143,
                               4.032500691426285, -0.6473463225206436,
                               4.032500690618041),
}

# nq 48 leaves a truncation error on the mode-12 shapes (at most 7e-12 for
# kappa, 2e-13 for V, 2e-12 for grad V . tau); from nq 96 every value is at
# the oracle's own 1e-15
NQ_BOUNDS = {48: (2e-11, 1e-12, 5e-12), 96: (1e-14, 1e-14, 1e-14)}


def test_map_covers_the_promised_shapes():
    kmax = {star.kmax for star in MAP_SHAPES.values()}
    assert min(kmax) == 2 and max(kmax) == 12
    amps = [np.abs(np.concatenate([s.a, s.b])).max() for s in MAP_SHAPES.values()]
    assert min(amps) == 0.01 and 0.15 in amps
    degenerate = MAP_SHAPES["near_degenerate"].samples(4096)
    assert degenerate.min() / degenerate.max() < 0.3


@pytest.mark.parametrize("nq", sorted(NQ_BOUNDS))
@pytest.mark.parametrize("key", sorted(MAP_REF))
def test_on_curve_values_match_the_mp_oracles(key, nq):
    star = MAP_SHAPES[key[0]]
    k5, k8, v, g, _ = MAP_REF[key]
    x = star.frame(np.array([key[1]]))[0][0]
    tol_kappa, tol_v, tol_g = NQ_BOUNDS[nq]
    assert abs(frac_curvature(star, x, 0.5, nq=nq) / k5 - 1.0) <= tol_kappa
    assert abs(frac_curvature(star, x, 0.8, nq=nq) / k8 - 1.0) <= tol_kappa
    assert abs(potential(star, x, 0.5, nq=nq) / v - 1.0) <= tol_v
    assert abs(tangential_grad_potential(star, x, 0.5, nq=nq) - g) <= tol_g


@pytest.mark.parametrize("key", sorted(MAP_REF))
def test_on_curve_potential_matches_the_ray_oracle(key):
    # the ray oracle's crossing detection limits it to about 2e-8 (measured
    # against the mp oracle)
    star = MAP_SHAPES[key[0]]
    x = star.frame(np.array([key[1]]))[0][0]
    assert_allclose(potential(star, x, 0.5), MAP_REF[key][4], rtol=5e-8)


def test_mp_oracle_is_reproducible():
    key = ("mode3_15pct", 2.0)
    assert_allclose(curvature_mp_oracle(MAP_SHAPES[key[0]], key[1], 0.5),
                    MAP_REF[key][0], rtol=1e-15)


def test_on_curve_vector_gradient_has_the_tangential_part():
    for (name, theta), ref in MAP_REF.items():
        star = MAP_SHAPES[name]
        x, nu, _ = star.frame(np.array([theta]))
        g = grad_potential(star, x[0], 0.5, nq=96)
        assert abs(g @ np.array([-nu[0, 1], nu[0, 0]]) - ref[3]) <= 1e-14


# ---------------------------------------------------------------------------
# disks


@pytest.mark.parametrize("R", [1.0 / math.sqrt(math.pi), 2.0])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.8, 0.95])
def test_disk_curvature_is_exact(R, s):
    star = StarShape2D((0.3, -0.2), R)
    ref = disk_curvature_exact(R, s)
    for nq in (16, 48, 96):
        for theta in (0.0, 1.0, 4.0):
            x = star.frame(np.array([theta]))[0][0]
            assert abs(frac_curvature(star, x, s, nq=nq) / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("R", [1.0 / math.sqrt(math.pi), 2.0])
def test_disk_energies_match_the_covariogram_oracles(R):
    # the oracles are good to about 5e-13 (P_s) and 5e-11 (R_alpha at
    # alpha = 1.9); the rule is exact on a disk
    star = StarShape2D((0.3, -0.2), R)
    for s in (0.1, 0.3, 0.8, 0.95):
        ref = disk_perimeter_oracle(R, s)
        for nq in (16, 48):
            assert abs(frac_perimeter(star, s, 64, nq) / ref - 1.0) <= 1e-12
    for alpha in (0.3, 0.5, 1.5, 1.9):
        ref = disk_riesz_oracle(R, alpha)
        for nq in (16, 48):
            assert abs(riesz_energy(star, alpha, 64, nq) / ref - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# refinement, batch invariance, tables and memory


def _k12_star(seed=5, amp=0.01):
    rng = np.random.default_rng(seed)
    return StarShape2D((0.1, -0.2), 1.0 / math.sqrt(math.pi),
                       amp * rng.standard_normal(12),
                       amp * rng.standard_normal(12))


def test_kappa_error_does_not_grow_under_refinement():
    # the position-difference rule this replaced grew 160x from nq 48 to 192
    # here; each refinement may only shrink the error or stay at the
    # roundoff floor
    star = _k12_star()
    th = uniform_angles(64)
    ref = _curve_batch(star, th, 256, _kappa_field(0.8))[0]
    floor = 100 * np.finfo(float).eps * np.abs(ref).max()
    errs = [np.abs(_curve_batch(star, th, nq, _kappa_field(0.8))[0] - ref).max()
            for nq in (48, 96, 192)]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= max(coarse, floor)
    assert errs[-1] <= floor


def test_one_target_equals_its_row_of_the_sweep():
    star = _k12_star(seed=9, amp=0.02)
    p = Params(n=2, s=0.8, alpha=0.4, eps=1e-2)
    bf = boundary_fields(star, p, 256, 48)
    th = bf.mesh.thetas
    g_all = _curve_batch(star, th, 48, _grad_field(p.alpha))[0]
    gt_all = _curve_batch(star, th, 48, _grad_tau_field(p.alpha))[0]
    for i in (0, 1, 77, 128, 255):
        one = th[i:i + 1]
        assert bf.kappa[i] == _curve_batch(star, one, 48, _kappa_field(p.s))[0][0]
        assert bf.pot[i] == _curve_batch(star, one, 48,
                                         _potential_field(p.alpha))[0][0]
        assert gt_all[i] == _curve_batch(star, one, 48,
                                         _grad_tau_field(p.alpha))[0][0]
        g = _curve_batch(star, one, 48, _grad_field(p.alpha))[0][0]
        assert np.array_equal(g_all[i], g)


# kappa and P_s share one on-curve pass at beta = -s, V and R_alpha one at
# beta = 2 - alpha; a shape of one mode and one of modes 2-5 off the origin
SHARED_PASS_SHAPES = {
    "mode3": StarShape2D((0.0, 0.0), 1.0, *_modes(a3=0.1)),
    "modes_2_5": StarShape2D((0.1, -0.05), 1.0,
                             *_modes(a2=0.03, b3=-0.025, a4=0.02, b5=0.035)),
}


@pytest.mark.parametrize("s, alpha", [(0.5, 0.5), (0.3, 0.9)])
@pytest.mark.parametrize("nq", [48, 96])
@pytest.mark.parametrize("key", sorted(SHARED_PASS_SHAPES))
def test_sweep_carries_the_functionals_bit_for_bit(key, nq, s, alpha):
    star = SHARED_PASS_SHAPES[key]
    p = Params(n=2, s=s, alpha=alpha, eps=1e-2)
    bf = boundary_fields(star, p, 256, nq)
    th = bf.mesh.thetas
    assert bf.perimeter == frac_perimeter(star, s, 256, nq)
    assert bf.riesz == riesz_energy(star, alpha, 256, nq)
    assert np.array_equal(bf.kappa, _curve_batch(star, th, nq,
                                                 _kappa_field(s))[0])
    assert np.array_equal(bf.pot, _curve_batch(star, th, nq,
                                               _potential_field(alpha))[0])
    br = energy(star, p, 256, nq)
    assert (br.perimeter_term, br.riesz_term) == (bf.perimeter, bf.riesz)


def test_d_series_rows_do_not_depend_on_k():
    # each mode's Taylor rows are built once and shared by every K
    even12, odd12 = _d_series(12)
    for K in (0, 1, 5, 11):
        even, odd = _d_series(K)
        assert even.shape == odd.shape == (K, even12.shape[1])
        assert np.array_equal(even, even12[:K])
        assert np.array_equal(odd, odd12[:K])


def test_u_tables_match_extended_precision():
    # every table entry against 40-digit arithmetic. The D rows cancel like
    # u^2 and u^3: formed directly in doubles at the smallest node they would
    # be off by about 1e-11 relative, and the series below the cutoff
    # (k + 1) |u| <= 1 keeps them to a few ulps relative. Above it an entry
    # is held to a few ulps of its terms, which are at most k + 1
    import mpmath as mp
    K, nq, beta = 12, 48, -0.5
    T, sig, su, cu, _ = _u_tables(beta, nq, K)
    u = jacobi_half_rule(beta, nq)[0]
    with mp.workdps(40):
        for j, uj in enumerate(np.concatenate([u, -u])):
            U = mp.mpf(float(uj))
            for k in range(1, K + 1):
                c, s, c1, s1 = (mp.cos(k * U), mp.sin(k * U), mp.cos(U),
                                mp.sin(U))
                want = ((c - 1, -k * s, c - 1 + k * s * s1),
                        (s, k * c, s - k * c * s1))
                scale = 0.0 if (k + 1) * abs(uj) <= 1.0 else k + 1.0
                for block, row in enumerate(want):
                    for col, ref in enumerate(row):
                        got = T[block * K + k - 1, col * 2 * nq + j]
                        assert abs(got - ref) <= 4e-15 * max(abs(ref), scale), \
                            (k, float(U), block, col)
            assert abs(sig[j] - mp.sin(U / 2) ** 2) <= 4e-15 * sig[j]
            assert su[j] == math.sin(uj) and cu[j] == math.cos(uj)


def test_on_curve_memory_is_bounded_and_tables_are_read_only():
    import tracemalloc
    star = _k12_star()
    p = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    functionals._u_tables.cache_clear()
    tracemalloc.start()
    try:
        boundary_fields(star, p, 256, 48)
        energy(star, p, 256, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sweep's blocks of 2^13 nodes hold a few (85, 96) node arrays and
    # the (85, 288) contraction; with the u-tables built here the peak is
    # about 1 MB (2.1 MB with 2^16-node blocks)
    assert peak < 6 * 2 ** 20
    info = functionals._u_tables.cache_info()
    assert info.maxsize == 16 and 0 < info.currsize <= info.maxsize
    for arr in _u_tables(-p.s, 48, 12):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
