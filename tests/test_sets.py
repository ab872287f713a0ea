import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nlshape import (Ball, GeometryError, IntervalSet, ParamError, Params,
                     StarShape2D, boundary_fields,
                     calibrate_variation_constant, diagnose, diameter, energy,
                     OptimizerState, el_gradient_step, find_critical_2d,
                     frac_perimeter, geometry_from_dict, geometry_to_dict,
                     identity_check, isodiametric_ratio, load_geometry,
                     riesz_energy, save_geometry, set_integral_2d, volume,
                     volume_project)
from nlshape.sets import boundary_mesh, canonical, scaled, translated


# ---------------------------------------------------------------------------
# Params

# each case keeps the id it had by position before rows were deleted, so
# that deleting a row renames no other case
@pytest.mark.parametrize("kw", [
    dict(s=0.0), dict(s=1.0), dict(s=-0.2), dict(alpha=0.0),
    dict(alpha=1.0), dict(alpha=2.0),
    dict(eps=math.nan), dict(eps=math.inf), dict(eps=-1e-3),
    # the float of each rounds onto the open bound (stored as 1.0 and 0.0
    # while the value was tested before its conversion)
    dict(alpha=Fraction(10**20 - 1, 10**20)), dict(s=Fraction(1, 10**400)),
], ids=[f"kw{i}" for i in (0, 1, 2, 3, 4, 5, 6, 7, 10, 12, 13)])
def test_params_range_checks_1d(kw):
    base = dict(n=1, s=0.5, alpha=0.5, eps=1e-3)
    base.update(kw)
    with pytest.raises(ParamError):
        Params(**base)


def test_params_take_no_coupling_constant():
    # zeta = kappa + 2 eps V is the first variation of F_eps; a constant c
    # in its place made zeta the variation of no energy the package computes
    with pytest.raises(TypeError):
        Params(n=1, s=0.5, alpha=0.5, eps=1e-3, c_coupling=2.0)


def test_params_take_no_mass():
    # eps is the one coupling: a volume m is stated as
    # eps = m ** (1 - alpha/n + s/n), so no second name for it is taken
    with pytest.raises(TypeError):
        Params(n=1, s=0.5, alpha=0.5, mass=0.01)


def test_params_default_to_the_pure_perimeter_problem():
    # the four fields are all Params holds: eps defaults to 0
    p = Params(n=2, s=0.5, alpha=0.5)
    q = Params(n=2, s=0.5, alpha=0.5, eps=0.0)
    assert p == q and hash(p) == hash(q)
    assert vars(p) == {"n": 2, "s": 0.5, "alpha": 0.5, "eps": 0.0}


def test_params_alpha_range_scales_with_n():
    # alpha up to n is allowed in higher dimension
    p = Params(n=2, s=0.5, alpha=1.5, eps=1e-3)
    assert p.alpha == 1.5


# ---------------------------------------------------------------------------
# IntervalSet

def test_intervals_sorted_and_measured():
    S = IntervalSet([(2.0, 3.5), (0.0, 1.0)])
    assert S.endpoints()[0] == 0.0
    assert_allclose(volume(S), 2.5, rtol=1e-15)
    assert_allclose(diameter(S), 3.5, rtol=1e-15)


def test_intervals_reject_overlap_and_touch():
    with pytest.raises(GeometryError):
        IntervalSet([(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(GeometryError):
        IntervalSet([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(GeometryError):
        IntervalSet([(1.0, 1.0)])


def test_intervals_contains():
    S = IntervalSet([(0.0, 1.0), (2.0, 3.0)])
    assert S.contains(0.5) and S.contains(2.9)
    assert not S.contains(1.5) and not S.contains(-0.1)


def test_interval_mesh_is_endpoints(unit_interval, params_1d):
    m = boundary_mesh(unit_interval, 8)
    assert m.points.shape == (2, 1)
    assert_allclose(m.weights, [1.0, 1.0])
    assert_allclose(m.normals[:, 0], [-1.0, 1.0])


# ---------------------------------------------------------------------------
# Ball

def test_ball_volumes():
    assert_allclose(volume(Ball((0.0,), 2.0)), 4.0)
    assert_allclose(volume(Ball((0.0, 0.0), 1.5)), np.pi * 2.25)
    assert_allclose(diameter(Ball((3.0, 4.0), 1.25)), 2.5)


def test_unit_area_disk_iso_ratio(unit_area_disk):
    # |E|^(1/2)/diam = sqrt(pi)/2 for any disk
    assert_allclose(isodiametric_ratio(unit_area_disk),
                    math.sqrt(math.pi) / 2.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# StarShape2D

def test_star_radius_and_volume(mode3_star):
    th = np.array([0.0, np.pi / 3.0])
    assert_allclose(mode3_star.radius(th), [1.2, 0.8], rtol=1e-14)
    # area of r = 1 + a cos(3 theta) is pi (1 + a^2 / 2)
    assert_allclose(volume(mode3_star), np.pi * (1.0 + 0.02), rtol=1e-12)


def test_star_repr_names_center_mean_radius_and_modes():
    star = StarShape2D((0.5, -1.0), 1.0 / 3.0, a=(0.0, 0.0, 0.2))
    assert repr(star) == "StarShape2D(center=(0.5, -1.0), r0=0.333333, modes=3)"


def test_star_rejects_nonpositive_radius():
    with pytest.raises(GeometryError):
        StarShape2D((0.0, 0.0), 1.0, a=(1.5,))


# non-finite geometry is refused where it is built: StarShape2D._assign
# serves __init__, _positive, from_samples, scaled, translated and the JSON
# loader
def test_star_refuses_infinite_r0():
    with pytest.raises(GeometryError, match=r"r0 must lie in \(-inf, inf\), got inf"):
        StarShape2D((0.0, 0.0), math.inf)


def test_star_refuses_infinite_center():
    with pytest.raises(GeometryError,
                       match=r"star shape center must lie in \(-inf, inf\), got inf"):
        StarShape2D((math.inf, 0.0), 1.0)


def test_star_refuses_nan_center():
    with pytest.raises(GeometryError,
                       match=r"star shape center must lie in \(-inf, inf\), got nan"):
        StarShape2D((math.nan, 0.0), 1.0)


def test_ball_refuses_nan_center():
    with pytest.raises(GeometryError,
                       match=r"ball center must lie in \(-inf, inf\), got nan"):
        Ball([math.nan, 0.0], 1.0)


def test_scaled_refuses_an_infinite_factor():
    # a disk times inf had center (nan, nan) and r0 inf
    with pytest.raises(GeometryError,
                       match=r"scale factor must lie in \(0, inf\), got inf"):
        scaled(StarShape2D((0.0, 0.0), 1.0), math.inf)


def test_geometry_file_refuses_an_overflowing_r0(tmp_path):
    # json reads 1e400 as inf
    path = tmp_path / "shape.json"
    path.write_text('{"kind": "star", "center": [0, 0], "r0": 1e400}')
    with pytest.raises(GeometryError, match=r"r0 must lie in \(-inf, inf\), got inf"):
        load_geometry(path)


def test_star_refuses_assignment(mode3_star):
    # the positivity check runs once, in __init__, so no field may change
    for name in ("center", "r0", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(mode3_star, name, -5.0)
        with pytest.raises(AttributeError):
            delattr(mode3_star, name)
    assert mode3_star.r0 == 1.0


# a star shape and an interval set, each with a memo that diagnose fills
MEMO_SHAPES = {
    "star": lambda: StarShape2D((0.0, 0.0), 1.0, a=(0.0, 0.0, 0.2)),
    "intervals": lambda: IntervalSet([(0.0, 0.5), (3.0, 3.5)]),
}


def _diagnosed(name):
    from nlshape import diagnose
    shape = MEMO_SHAPES[name]()
    assert shape._memo == {}
    p = Params(n=shape.n, s=0.5, alpha=0.5, eps=1e-3)
    return shape, diagnose(shape, p, 32, 8)


@pytest.mark.parametrize("name", sorted(MEMO_SHAPES))
def test_star_pickle_and_deepcopy_roundtrip(name):
    # a filled memo is not carried along: its keys hold the unwrapped
    # memoized functions, which pickle cannot find by name
    shape, _ = _diagnosed(name)
    assert shape._memo
    for back in (pickle.loads(pickle.dumps(shape)), copy.deepcopy(shape)):
        assert type(back) is type(shape)
        assert back._memo == {}
        if name == "intervals":
            assert back.intervals == shape.intervals
        else:
            assert back.center == shape.center
            assert back.r0 == shape.r0
            assert np.array_equal(back.a, shape.a)
            assert np.array_equal(back.b, shape.b)
            assert not back.a.flags.writeable
        with pytest.raises(AttributeError):
            setattr(back, "intervals" if name == "intervals" else "r0", -5.0)


@pytest.mark.parametrize("name", sorted(MEMO_SHAPES))
def test_star_memo_starts_empty_and_gives_equal_outputs(name):
    # only a consumer fills the memo; a copy, a pickle round trip and a
    # star built by _positive start empty and compute the same bits
    from nlshape import diagnose
    shape, rep = _diagnosed(name)
    assert shape._memo
    mesh = boundary_mesh(shape, 64)
    others = [pickle.loads(pickle.dumps(shape)), copy.deepcopy(shape),
              copy.copy(shape)]
    if name == "star":
        others.append(StarShape2D._positive(shape.center, shape.r0,
                                            shape.a, shape.b))
    for other in others:
        assert other._memo == {}
        if name == "intervals":
            # == and hash read the intervals alone, not the memo
            assert other == shape and hash(other) == hash(shape)
        assert (volume(other), diameter(other)) == (volume(shape),
                                                    diameter(shape))
        again = boundary_mesh(other, 64)
        assert np.array_equal(again.points, mesh.points)
        assert np.array_equal(again.weights, mesh.weights)
        p = Params(n=shape.n, s=0.5, alpha=0.5, eps=1e-3)
        assert diagnose(other, p, 32, 8).as_dict() == rep.as_dict()


def test_star_grid_is_one_read_only_polar(mode3_star):
    th = 2.0 * np.pi * np.arange(96) / 96
    grid = mode3_star._grid(96)
    assert mode3_star._grid(96) is grid
    for got, ref in zip(grid, mode3_star.polar(th)):
        assert np.array_equal(got, ref)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0


def test_star_memo_keeps_the_newest_grids(mode3_star):
    from nlshape.sets import _MEMO_ENTRIES
    grids = {m: mode3_star._grid(m) for m in range(8, 8 + 2 * _MEMO_ENTRIES)}
    assert len(mode3_star._memo) == _MEMO_ENTRIES
    assert mode3_star._grid(7 + 2 * _MEMO_ENTRIES) is grids[7 + 2 * _MEMO_ENTRIES]
    again = mode3_star._grid(8)
    assert again is not grids[8]
    for got, ref in zip(again, grids[8]):
        assert np.array_equal(got, ref)


def test_memo_miss_refusal_carries_no_key_error():
    # an error raised while a memo miss is computed carried the miss's
    # KeyError as its context ("During handling of the above exception")
    from nlshape.diagnostics import lambda_hat_and_residual
    with pytest.raises(ParamError, match="params have n = 1") as exc:
        lambda_hat_and_residual(StarShape2D((0, 0), 1.0),
                                Params(n=1, s=0.5, alpha=0.5, eps=1e-3), 64, 16)
    assert exc.value.__context__ is None


def test_star_volume_and_diameter_take_s_by_keyword(mode3_star):
    vol, diam = volume(mode3_star), diameter(mode3_star)
    assert (volume(S=mode3_star), diameter(S=mode3_star)) == (vol, diam)
    assert (volume(S=Ball((0.0, 0.0), 2.0)),
            diameter(S=Ball((0.0, 0.0), 2.0))) == (4.0 * math.pi, 4.0)


def test_star_diameter_of_disk():
    assert_allclose(diameter(StarShape2D((5.0, -1.0), 2.0)), 4.0, rtol=1e-9)


def _wide_star(kmax, amp=1e-3):
    k = np.arange(1, kmax + 1)
    return StarShape2D((0.2, -0.1), 1.0, amp * np.cos(k), amp * np.sin(k))


def _all_pairs_distances(star, m):
    th = 2.0 * np.pi * np.arange(m) / m
    r = star.radius(th)
    x = star.center[0] + r * np.cos(th)
    y = star.center[1] + r * np.sin(th)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return np.sqrt(dx * dx + dy * dy)


def test_star_diameter_blocks_equal_all_pairs():
    # kmax 64 gives 512 samples, several row blocks
    star = _wide_star(64, amp=0.01)
    assert diameter(star) == float(_all_pairs_distances(star, 512).max())


def test_star_diameter_finds_a_pair_ending_in_the_last_block():
    # kmax 70 gives 560 samples in the row blocks of _blocks. The shape is
    # stretched along the angle of sample 555, in the last block, and
    # shifted off its pole by a mode 1, so its farthest pair joins sample
    # 555 to one in an earlier block; the upper-triangle scan finds it in
    # the earlier block's row, at a column of the last block
    from nlshape.sets import _PAIR_BLOCK, _blocks
    m, t0 = 560, 2.0 * np.pi * 555 / 560
    k = np.arange(1, 71)
    a = 1e-4 * np.cos(3.0 * k)
    b = 1e-4 * np.sin(3.0 * k)
    a[0], b[0] = 0.1, -0.05
    a[1], b[1] = 0.3 * np.cos(2.0 * t0), 0.3 * np.sin(2.0 * t0)
    star = StarShape2D((0.4, -0.7), 1.0, a, b)
    last = _blocks(m, m, _PAIR_BLOCK)[-1].start
    assert last <= 555
    dist = _all_pairs_distances(star, m)
    i, j = np.unravel_index(dist.argmax(), dist.shape)
    assert min(i, j) < last <= max(i, j)
    assert diameter(star) == float(dist.max())


@pytest.mark.parametrize("n", [0, 1, 65, 256, 1500])
@pytest.mark.parametrize("nq", [48, 96])
def test_blocks_cut_in_order_into_near_equal_slices(n, nq):
    # the cutter of every batched loop, here at the on-curve sweep's 2 nq
    # nodes a target: the slices cover range(n) once and in order, their
    # sizes differ by at most one, and there are ceil(n 2 nq / budget)
    from nlshape.functionals import _BLOCK_NODES
    from nlshape.sets import _blocks
    cuts = _blocks(n, 2 * nq, _BLOCK_NODES)
    assert [i for cut in cuts for i in range(n)[cut]] == list(range(n))
    assert all(cut.step is None and cut.stop > cut.start for cut in cuts)
    sizes = {cut.stop - cut.start for cut in cuts}
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert max(sizes, default=0) <= _BLOCK_NODES // (2 * nq) + 1
    assert len(cuts) == math.ceil(n * 2 * nq / _BLOCK_NODES)


def test_blocks_run_no_more_blocks_than_whole_budgets():
    # the 256/48 sweep runs in 3 blocks (85 + 85 + 85 + 1 targets took 4),
    # 256/96 in 6 (7), and the 65-target coarse sweeps and the 512-sample
    # diameter keep their counts
    from nlshape.functionals import _BLOCK_NODES
    from nlshape.sets import _PAIR_BLOCK, _blocks
    assert [len(_blocks(256, 2 * nq, _BLOCK_NODES)) for nq in (48, 96)] == [3, 6]
    assert [len(_blocks(65, 2 * nq, _BLOCK_NODES)) for nq in (48, 96)] == [1, 2]
    assert len(_blocks(512, 512, _PAIR_BLOCK)) == 16
    # a row above the budget takes a block of its own
    assert _blocks(3, 2 * _PAIR_BLOCK, _PAIR_BLOCK) == [
        slice(0, 1), slice(1, 2), slice(2, 3)]


def test_star_diameter_memory_is_bounded():
    import tracemalloc
    star = _wide_star(200)  # 1600 samples: 20 MB per all-pairs array
    tracemalloc.start()
    try:
        d = diameter(star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert_allclose(d, 2.0, atol=0.5)


@pytest.mark.parametrize("kmax", [0, 1, 2, 12])
def test_frame_bitwise_equals_radius_formulas(kmax):
    rng = np.random.default_rng(kmax)
    star = StarShape2D((0.3, -0.1), 1.0, 0.02 * rng.standard_normal(kmax),
                       0.02 * rng.standard_normal(kmax))
    # a grid, a scalar and a flat vector of angles
    for shape in ((5, 13), (), (7,)):
        th = rng.uniform(-7.0, 7.0, size=shape)
        # the radius formulas, one sum per function, term by term
        r = np.full_like(th, star.r0)
        dr = np.zeros_like(th)
        for k in range(kmax):
            kk = k + 1
            r += star.a[k] * np.cos(kk * th) + star.b[k] * np.sin(kk * th)
            dr += kk * (star.b[k] * np.cos(kk * th) - star.a[k] * np.sin(kk * th))
        c, s = np.cos(th), np.sin(th)
        ref_speed = np.sqrt(r * r + dr * dr)
        ref_pos = np.stack([star.center[0] + r * c, star.center[1] + r * s],
                           axis=-1)
        ref_nu = np.stack([(r * c + dr * s) / ref_speed,
                           (r * s - dr * c) / ref_speed], axis=-1)
        assert np.array_equal(star.radius(th), r)
        assert np.array_equal(star.radius_deriv(th), dr)
        for got, ref in zip(star.polar(th), (c, s, r, dr)):
            assert np.array_equal(got, ref)
        pos, nu, speed = star.frame(th)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(nu, ref_nu)
        assert np.array_equal(speed, ref_speed)


@given(st.lists(st.floats(-0.04, 0.04), min_size=2, max_size=5))
def test_star_from_samples_roundtrip(coeffs):
    star = StarShape2D((0.0, 0.0), 1.0, a=tuple(coeffs))
    m = 64
    th = 2.0 * np.pi * np.arange(m) / m
    rebuilt = StarShape2D.from_samples((0.0, 0.0), star.radius(th),
                                       k_max=len(coeffs))
    assert_allclose(rebuilt.radius(th), star.radius(th), atol=1e-12)


def test_from_samples_caps_modes():
    m = 32
    th = 2.0 * np.pi * np.arange(m) / m
    vals = 1.0 + 0.1 * np.cos(5 * th)
    star = StarShape2D.from_samples((0.0, 0.0), vals, k_max=3)
    assert len(star.a) <= 3


def test_boundary_mesh_geometry(mode3_star):
    m = boundary_mesh(mode3_star, 128)
    # unit outward normals, positive weights
    assert_allclose(np.hypot(m.normals[:, 0], m.normals[:, 1]), 1.0,
                    atol=1e-13)
    assert np.all(m.weights > 0)
    # the normal turned a quarter counterclockwise is the unit tangent: it
    # is the curve's derivative in theta, normalized (the mesh keeps none)
    th = m.thetas
    r, dr = mode3_star.radius(th), mode3_star.radius_deriv(th)
    dy = np.stack([dr * np.cos(th) - r * np.sin(th),
                   dr * np.sin(th) + r * np.cos(th)], axis=1)
    tangents = np.stack([-m.normals[:, 1], m.normals[:, 0]], axis=1)
    assert_allclose(tangents, dy / np.hypot(dy[:, 0], dy[:, 1])[:, None],
                    atol=1e-13)
    assert not hasattr(m, "tangents")
    radial = m.points / np.hypot(m.points[:, 0], m.points[:, 1])[:, None]
    assert np.all((m.normals * radial).sum(axis=1) > 0)


def test_boundary_mesh_weights_sum_to_length(unit_disk):
    m = boundary_mesh(unit_disk, 256)
    assert_allclose(m.weights.sum(), 2.0 * np.pi, rtol=1e-12)


def test_mesh_arrays_read_only(unit_disk):
    m = boundary_mesh(unit_disk, 64)
    with pytest.raises(ValueError):
        m.points[0, 0] = 99.0


# ---------------------------------------------------------------------------
# transforms

def test_scaled_and_translated_volumes(mode3_star):
    v = volume(mode3_star)
    assert_allclose(volume(scaled(mode3_star, 2.0)), 4.0 * v, rtol=1e-12)
    moved = translated(mode3_star, (3.0, -1.0))
    assert_allclose(volume(moved), v, rtol=1e-12)
    assert_allclose(moved.center, (3.0, -1.0))


def test_translated_refuses_a_shift_of_another_dimension(unit_interval):
    # on the line a scalar and a 1-vector shift; a 2-vector is refused, as
    # for a ball and a star shape, not cut to its first component
    assert translated(unit_interval, 1.5).intervals == ((1.5, 2.5),)
    assert translated(unit_interval, [1.5]).intervals == ((1.5, 2.5),)
    with pytest.raises(GeometryError, match="dimension"):
        translated(unit_interval, (1.0, 2.0))


# every module function that takes a geometry, on one argument
GEOMETRY_FUNCTIONS = {
    "volume": volume,
    "diameter": diameter,
    "isodiametric_ratio": isodiametric_ratio,
    "scaled": lambda S: scaled(S, 2.0),
    "translated": lambda S: translated(S, (1.0, 0.0)),
    "canonical": canonical,
    "boundary_mesh": lambda S: boundary_mesh(S, 64),
    "geometry_to_dict": geometry_to_dict,
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_FUNCTIONS))
def test_non_geometries_are_refused(name):
    # one type check refuses them: no AttributeError, and canonical does
    # not hand them back
    with pytest.raises(GeometryError, match="unsupported geometry object"):
        GEOMETRY_FUNCTIONS[name](object())


def test_save_geometry_refuses_a_non_geometry_and_writes_nothing(tmp_path):
    path = tmp_path / "shape.json"
    with pytest.raises(GeometryError, match="unsupported geometry object"):
        save_geometry(object(), path)
    assert not path.exists()


def test_boundary_mesh_refuses_a_ball_in_three_dimensions():
    # refused where the ball is built: no mesh can be asked of it
    with pytest.raises(GeometryError,
                       match=r"ball dimension must lie in \[1, 2\], got 3"):
        boundary_mesh(Ball((0.0, 0.0, 0.0), 1.0), 64)


def test_the_dimension_is_one_or_two():
    # one check (sets._require_dimension) where n enters: Params and
    # calibrate (ParamError) and a ball's center (GeometryError). Params and
    # a ball in n = 3 were built, and failed only at their first field
    for n in (3, 4):
        with pytest.raises(ParamError, match=rf"^n must lie in \[1, 2\], got {n}$"):
            Params(n=n, s=0.5, alpha=2.5)
        with pytest.raises(ParamError, match=rf"^n must lie in \[1, 2\], got {n}$"):
            calibrate_variation_constant(0.5, n=n)
        with pytest.raises(GeometryError,
                           match=rf"^ball dimension must lie in \[1, 2\], got {n}$"):
            Ball((0.0,) * n, 1.0)
    for n in (1, 2):
        assert Params(n=n, s=0.5, alpha=0.5).n == Ball((0.0,) * n, 1.0).n == n


def test_canonical_form_of_a_ball():
    # the quadrature form, built anew at each call
    for n, kind in ((1, IntervalSet), (2, StarShape2D)):
        ball = Ball((0.5,) * n, 2.0)
        form = canonical(ball)
        assert type(form) is kind
        assert geometry_to_dict(form) == geometry_to_dict(canonical(ball))
        assert volume(form) == pytest.approx(volume(ball), rel=1e-14)


def test_iso_ratio_scale_invariant(mode3_star):
    a = isodiametric_ratio(mode3_star)
    b = isodiametric_ratio(scaled(mode3_star, 7.3))
    assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("shape", [
    IntervalSet([(0.0, 0.5), (2.0, 2.5)]),
    Ball((1.0, -2.0), 0.75),
    StarShape2D((0.1, 0.2), 1.1, a=(0.01, 0.0, 0.2), b=(0.0, 0.05)),
])
def test_geometry_dict_roundtrip(shape):
    d = geometry_to_dict(shape)
    back = geometry_from_dict(json.loads(json.dumps(d)))
    assert type(back) is type(shape)
    assert_allclose(volume(back), volume(shape), rtol=1e-12)


@pytest.mark.parametrize("d, key", [
    ({"kind": "star", "center": [0, 0], "r0": 1.0, "a": [0, 0, 0.05]}, "'a'"),
    ({"kind": "star", "center": [0, 0], "samples": [1.0] * 8, "r0": 1.0}, "'r0'"),
    ({"kind": "ball", "center": [0, 0], "radius": 1.0, "r0": 2.0}, "'r0'"),
    ({"kind": "intervals", "intervals": [[0, 1]], "center": [0]}, "'center'"),
    ({"kind": "ball"}, "'center'"),
    ({"kind": "ball", "center": [0, 0]}, "'radius'"),
    ({"kind": "star", "center": [0, 0]}, "'r0'"),
    ({"kind": "intervals"}, "'intervals'"),
])
def test_geometry_dict_refuses_unknown_and_missing_keys(d, key):
    with pytest.raises(GeometryError, match=key):
        geometry_from_dict(d)


def test_geometry_dict_readme_star():
    S = geometry_from_dict({"kind": "star", "center": [0.0, 0.0], "r0": 1.0,
                            "cos": [0.0, 0.0, 0.05], "sin": []})
    assert S.a.tolist() == [0.0, 0.0, 0.05] and not S.b.any()


def test_geometry_file_roundtrip(tmp_path, mode3_star):
    path = tmp_path / "shape.json"
    save_geometry(mode3_star, path)
    back = load_geometry(path)
    th = np.linspace(0, 2 * np.pi, 17)
    assert_allclose(back.radius(th), mode3_star.radius(th), rtol=1e-14)


# ---------------------------------------------------------------------------
# refusals that no other test reaches: the error type and its message

@pytest.mark.parametrize("call, error, message", [
    (lambda: Params(n=0, s=0.5, alpha=0.5), ParamError,
     "n must be an integer of at least 1, got 0"),
    (lambda: Params(n=2, s=0.5, alpha=2.0), ParamError,
     r"alpha must lie in \(0, 2\), got 2.0"),
    # a string failed with TypeError, and True was taken as alpha = 1
    (lambda: Params(n=2, s="0.5", alpha=0.5), ParamError,
     r"s must lie in \(0, 1\), got '0.5'"),
    (lambda: Params(n=2, s=0.5, alpha=True), ParamError,
     r"alpha must lie in \(0, 2\), got True"),
    (lambda: Params(n=1, s=0.5, alpha=0.5, eps=-1.0), ParamError,
     r"eps must lie in \[0, inf\), got -1.0"),
    # None once meant an eps derived from a mass
    (lambda: Params(n=1, s=0.5, alpha=0.5, eps=None), ParamError,
     r"eps must lie in \[0, inf\), got None"),
    (lambda: Params(n=1, s=0.5, alpha=0.5).with_eps(math.inf), ParamError,
     r"eps must lie in \[0, inf\), got inf"),
    # True built the parameters with the value 1, and a string or complex
    # value failed in the range comparison with TypeError
    (lambda: Params(n=1, s=0.5, alpha=0.5, eps=True), ParamError,
     r"eps must lie in \[0, inf\), got True"),
    (lambda: Params(n=1, s=0.5, alpha=0.5, eps="1e-3"), ParamError,
     r"eps must lie in \[0, inf\), got '1e-3'"),
    (lambda: Params(n=1, s=0.5, alpha=0.5).with_eps(True), ParamError,
     r"eps must lie in \[0, inf\), got True"),
    (lambda: Params(n=1, s=0.5, alpha=0.5).with_eps("1e-3"), ParamError,
     r"eps must lie in \[0, inf\), got '1e-3'"),
    (lambda: IntervalSet([]), GeometryError, "interval set must be nonempty"),
    (lambda: IntervalSet([(0.0, math.inf)]), GeometryError,
     r"interval end must lie in \(-inf, inf\), got inf"),
    (lambda: Ball((), 1.0), GeometryError,
     "ball center needs at least one coordinate"),
    (lambda: Ball((0.0, 0.0), 0.0), GeometryError,
     r"ball radius must lie in \(0, inf\), got 0.0"),
    (lambda: StarShape2D((0.0, 0.0, 0.0), 1.0), GeometryError,
     "star shape center must have two coordinates"),
    (lambda: StarShape2D.from_samples((0.0, 0.0), [1.0, 1.0, 1.0]),
     GeometryError, "need at least 4 samples"),
    # a center, interval list or interval of the wrong structure raised
    # TypeError or ValueError
    (lambda: StarShape2D(5, 1.0), GeometryError,
     "star shape center must be a sequence, got 5"),
    (lambda: StarShape2D(None, 1.0), GeometryError,
     "star shape center must be a sequence, got None"),
    (lambda: Ball(0.0, 1.0), GeometryError,
     "ball center must be a sequence, got 0.0"),
    (lambda: IntervalSet(5), GeometryError,
     "interval set must be a sequence, got 5"),
    (lambda: IntervalSet([5]), GeometryError,
     "interval must be a sequence, got 5"),
    (lambda: IntervalSet([[0, 1, 2]]), GeometryError,
     r"an interval must have two ends, got \(0, 1, 2\)"),
    (lambda: IntervalSet([[0]]), GeometryError,
     r"an interval must have two ends, got \(0,\)"),
    (lambda: geometry_from_dict({"center": [0, 0]}), GeometryError,
     "needs a 'kind' field"),
    (lambda: geometry_from_dict({"kind": "torus"}), GeometryError,
     "unknown geometry kind 'torus'"),
    (lambda: geometry_from_dict({"kind": "star", "center": [0, 0],
                                 "samples": [1.0, 1.0, 1.0]}),
     GeometryError, "need at least 4 samples"),
], ids=["n-0", "alpha-at-n", "s-str", "alpha-bool", "eps-negative",
        "eps-none", "with-eps-inf", "eps-bool", "eps-str",
        "with-eps-bool", "with-eps-str", "intervals-empty",
        "interval-infinite-end",
        "ball-no-center", "ball-radius-0", "star-center-3d",
        "star-3-samples", "star-center-number", "star-center-none",
        "ball-center-number", "intervals-number", "interval-number",
        "interval-three-ends", "interval-one-end", "dict-no-kind",
        "dict-unknown-kind", "dict-star-3-samples"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# integer knobs: one check (sets._require_count) refuses a bool, a float, a
# string and a value below the knob's least, and accepts a numpy integer

# every public entry that takes a resolution, on a planar shape
_RESOLUTION_ENTRIES = {
    "frac_perimeter": lambda S, p, m: frac_perimeter(S, p.s, m, 8),
    "riesz_energy": lambda S, p, m: riesz_energy(S, p.alpha, m, 8),
    "energy": lambda S, p, m: energy(S, p, m, 8),
    "boundary_fields": lambda S, p, m: boundary_fields(S, p, m, 8),
    "set_integral_2d": lambda S, p, m: set_integral_2d(
        S, lambda pts, foci: np.ones(len(pts)), m),
    "identity_check": lambda S, p, m: identity_check(S, p, "TangentialBall",
                                                     m, 8),
    "diagnose": lambda S, p, m: diagnose(S, p, m, 8),
    "el_gradient_step": lambda S, p, m: el_gradient_step(
        OptimizerState(S), p, m, 8),
    "find_critical_2d": lambda S, p, m: find_critical_2d(
        volume_project(S), p, max_iter=0, resolution=m, nq=8),
}


@pytest.mark.parametrize("entry", sorted(_RESOLUTION_ENTRIES))
def test_every_resolution_entry_refuses_a_bad_mesh_size(entry, mode3_star,
                                                        params_2d):
    call = _RESOLUTION_ENTRIES[entry]
    for bad in (0, 7, 8.5, True, "64"):
        with pytest.raises(ParamError, match="resolution must be an integer"):
            call(mode3_star, params_2d, bad)
    call(mode3_star, params_2d, np.int64(8))


def test_shape_builders_refuse_a_bad_mode_cap():
    samples = np.ones(16)
    for bad in (-2, 2.7, True):
        with pytest.raises(ParamError, match="k_max must be an integer of at least 0"):
            StarShape2D.from_samples((0.0, 0.0), samples, bad)
    S = StarShape2D.from_samples((0.0, 0.0), samples, 0)
    assert S.kmax == 0 and S.r0 == 1.0
    assert StarShape2D.from_samples((0.0, 0.0), samples, np.int64(3)).kmax == 3


def test_dimension_is_refused_as_an_integer_knob():
    with pytest.raises(ParamError, match="n must be an integer of at least 1, got True"):
        Params(n=True, s=0.5, alpha=0.5)
    for n in (2.0, True):
        with pytest.raises(ParamError, match="n must be an integer"):
            calibrate_variation_constant(0.5, n=n)
    assert Params(n=np.int64(2), s=0.5, alpha=0.5).n == 2


def test_a_numpy_dimension_is_kept_as_an_int():
    # n is stored as an int, and eps as the float it tested
    p = Params(n=np.int64(2), s=0.5, alpha=0.5, eps=1e-3)
    q = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    assert type(p.n) is int and type(p.eps) is float
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


# every public entry that takes a resolution, on an interval set: the
# closed forms read no mesh, and still refuse what a planar shape refuses
_RESOLUTION_ENTRIES_1D = {
    "frac_perimeter": lambda S, p, m: frac_perimeter(S, p.s, m),
    "riesz_energy": lambda S, p, m: riesz_energy(S, p.alpha, m),
    "energy": lambda S, p, m: energy(S, p, m),
    "boundary_fields": lambda S, p, m: boundary_fields(S, p, m),
    "identity_check": lambda S, p, m: identity_check(S, p, "Au1", m),
    "diagnose": lambda S, p, m: diagnose(S, p, m),
    "calibrate_variation_constant": lambda S, p, m:
        calibrate_variation_constant(p.s, n=1, resolution=m),
}


@pytest.mark.parametrize("entry", sorted(_RESOLUTION_ENTRIES_1D))
def test_every_resolution_entry_refuses_a_bad_mesh_size_on_a_line(
        entry, unit_interval, params_1d):
    call = _RESOLUTION_ENTRIES_1D[entry]
    for bad in ("64", 8.5, True, 4):
        with pytest.raises(ParamError, match="resolution must be an integer"):
            call(unit_interval, params_1d, bad)
    call(unit_interval, params_1d, np.int64(8))
