"""Shape construction helpers and the planar critical-point search."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest
from scipy import integrate

from nlshape import diagnostics, functionals, shapeopt
from nlshape.errors import (GeometryError, ParamError, QuadratureError,
                            StalledError)
from nlshape.functionals import (boundary_fields, energy, frac_perimeter,
                                 riesz_energy, zeta)
from nlshape.sets import (Ball, IntervalSet, Params, StarShape2D,
                          translated, uniform_angles, volume)
from nlshape.shapeopt import (OptimizerState, el_gradient_step,
                              find_critical_2d, fourier_shape, volume_project)

P2 = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)


def _star(a3=0.05):
    return volume_project(fourier_shape({"r0": 1.0, "a3": a3}))


# ---------------------------------------------------------------- fourier_shape

def test_fourier_shape_coefficients():
    S = fourier_shape({"r0": 1.0, "a3": 0.05, "b2": 0.1, "a5": 0.01})
    assert S.r0 == 1.0
    assert S.kmax == 5
    assert S.a[2] == 0.05 and S.a[4] == 0.01
    assert S.b[1] == 0.1
    # untouched modes are zero
    assert S.a[0] == S.a[1] == S.a[3] == 0.0


def test_fourier_shape_center():
    # a shape is placed by translated, which gives the floats that
    # fourier_shape's removed center keyword built
    coeffs = {"r0": 1.0, "a3": 0.05, "b2": -0.02}
    S = fourier_shape(coeffs)
    assert S.center == (0.0, 0.0)
    T = translated(S, (2.0, -1.0))
    built = StarShape2D((2.0, -1.0), S.r0, S.a, S.b)
    assert ((T.center, T.r0, T.a.tobytes(), T.b.tobytes())
            == (built.center, built.r0, built.a.tobytes(), built.b.tobytes()))
    with pytest.raises(TypeError):
        fourier_shape(coeffs, center=(2.0, -1.0))


# "" raised IndexError and "a\u00b2" (a superscript digit) ValueError
@pytest.mark.parametrize("bad", ["c3", "a", "ax", "a0", "b0", "r1", "",
                                 "a\u00b2"])
def test_fourier_shape_rejects_bad_keys(bad):
    with pytest.raises(ParamError):
        fourier_shape({"r0": 1.0, bad: 0.1})


@pytest.mark.parametrize("coeffs", [
    {"r0": 1.0, "a1": 0.1, "a01": 0.2}, {"r0": 1.0, "b002": 0.1, "b2": 0.2}])
def test_fourier_shape_refuses_two_keys_of_one_mode(coeffs):
    # a1 = 0.2 was built and 0.1 dropped without a word
    with pytest.raises(ParamError, match="names mode [ab][12] again"):
        fourier_shape(coeffs)


def test_fourier_shape_requires_r0():
    with pytest.raises(ParamError, match="r0"):
        fourier_shape({"a3": 0.05})


# --------------------------------------------------------------- volume_project

def test_volume_project_disk():
    S = volume_project(StarShape2D((0.0, 0.0), 2.0))
    assert S.r0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert volume(S) == pytest.approx(1.0, abs=1e-12)


def test_volume_project_uniform_scaling():
    S = fourier_shape({"r0": 1.0, "a3": 0.05, "b2": 0.02})
    T = volume_project(S)
    assert volume(T) == pytest.approx(1.0, abs=1e-12)
    # every coefficient scales by the same factor
    c = T.r0 / S.r0
    assert np.allclose(T.a, c * S.a, rtol=1e-14)
    assert np.allclose(T.b, c * S.b, rtol=1e-14)
    assert T.center == S.center


def test_volume_project_skips_the_positivity_check(monkeypatch):
    # a positive rescale keeps the radius positive, so the projection does
    # not run __init__'s check again; the result is the shape __init__ would
    # build from the scaled coefficients, bit for bit, and as immutable
    S = translated(fourier_shape({"r0": 1.0, "a3": 0.05, "b2": 0.02}),
                   (0.3, -0.1))
    c = 1.0 / math.sqrt(volume(S))
    built = StarShape2D(S.center, c * S.r0, c * S.a, c * S.b)
    init = StarShape2D.__init__
    inits = []

    def counted(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(StarShape2D, "__init__", counted)
    T = volume_project(S)
    monkeypatch.undo()
    assert inits == []
    assert type(T) is StarShape2D and T.center == built.center
    assert type(T.r0) is float and T.r0 == built.r0
    for got, want in ((T.a, built.a), (T.b, built.b)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    with pytest.raises(AttributeError):
        T.r0 = 2.0
    back = pickle.loads(pickle.dumps(T))
    assert back.r0 == T.r0 and np.array_equal(back.a, T.a)


def test_volume_project_idempotent():
    T = volume_project(_star())
    U = volume_project(T)
    assert U.r0 == pytest.approx(T.r0, rel=1e-14)


def test_volume_project_reads_a_planar_ball_as_its_star():
    # find_critical_2d accepts a planar ball, so the projection does too;
    # it raised a bare AttributeError (no r0 on a Ball)
    got = volume_project(Ball((0.3, -0.1), 2.0))
    want = volume_project(StarShape2D((0.3, -0.1), 2.0))
    assert type(got) is StarShape2D and got.center == want.center
    assert got.r0 == want.r0 and got.a.size == got.b.size == 0
    assert volume(got) == pytest.approx(1.0, abs=1e-14)


# (geometry, message): a ball in n = 3 is refused where it is built
NON_PLANAR = pytest.mark.parametrize("geometry, message", [
    (lambda: IntervalSet([(0.0, 1.0)]), "star shape or planar ball"),
    (lambda: Ball((0.0,), 1.0), "star shape or planar ball"),
    (lambda: Ball((0.0, 0.0, 0.0), 1.0),
     r"ball dimension must lie in \[1, 2\], got 3")],
    ids=["intervals", "ball-1d", "ball-3d"])


@NON_PLANAR
def test_volume_project_refuses_a_non_planar_geometry(geometry, message):
    with pytest.raises(GeometryError, match=message):
        volume_project(geometry())


# --------------------------------------------------------------- OptimizerState

def test_a_state_of_a_shape_starts_a_descent():
    S = _star()
    st = OptimizerState(S)
    assert st.shape is S
    assert st.iteration == 0
    assert st.residual_history == ()


def test_descent_signatures_hold_what_is_read():
    # every iteration's first trial is the full Newton step, the final
    # diagnose runs without identities (a diagnose of the returned shape
    # gives them), a mode cap of fourier_shape is the caller's S.kmax test
    # and its shape is placed by sets.translated: no step, with_identities,
    # k_max or center knob is left to set. A step's settings are its
    # arguments, and the state is the trajectory alone
    from dataclasses import fields

    def names(fn):
        return list(inspect.signature(fn).parameters)
    assert names(find_critical_2d) == [
        "init", "p", "tol", "max_iter", "resolution", "nq", "k_max",
        "full_output"]
    assert names(el_gradient_step) == ["state", "p", "resolution", "nq",
                                       "k_max"]
    assert [f.name for f in fields(OptimizerState)] == [
        "shape", "iteration", "residual_history"]
    assert names(fourier_shape) == ["coeffs"]
    assert not hasattr(shapeopt, "DEFAULT_STEP")
    assert not hasattr(shapeopt, "initial_state")


def test_a_step_reads_a_planar_ball_as_its_star():
    # the unit-area disk is a fixed point: the step's state holds its star
    disk = Ball((0.0, 0.0), 1.0 / math.sqrt(math.pi))
    st = el_gradient_step(OptimizerState(disk), P2, 64, 16)
    assert isinstance(st.shape, StarShape2D) and st.iteration == 1


@NON_PLANAR
def test_a_step_refuses_a_state_of_a_non_planar_geometry(geometry, message):
    # an interval set raised AttributeError ('IntervalSet' object has no
    # attribute '_grid') once its sweep was read
    with pytest.raises(GeometryError, match=message):
        el_gradient_step(OptimizerState(geometry()), P2, 64, 16)


@pytest.mark.parametrize("k_max", [0, -2, 2.5, True, 2.0, None])
def test_a_step_refuses_a_mode_cap_below_1(k_max):
    # from_samples read a negative cap from the end of the spectrum: the
    # descent from a mode-2/3 star at k_max = -2 ended in a 15-mode shape,
    # and k_max = 0 collapsed the start to a disk; a state built without the
    # check stepped at k_max 0 to a disk, and 2.5 raised TypeError
    with pytest.raises(ParamError,
                       match="k_max must be an integer of at least 1"):
        el_gradient_step(OptimizerState(_star()), P2, 64, 16, k_max)


@pytest.mark.parametrize("kw", [{"tol": math.nan}, {"tol": -1.0},
                                {"k_max": 2.5}, {"k_max": -2},
                                {"k_max": 0}, {"max_iter": -1},
                                {"max_iter": math.nan}, {"max_iter": True},
                                {"max_iter": 2.0}, {"max_iter": None},
                                {"tol": True}, {"tol": "1e-3"},
                                {"tol": 1j}])
def test_find_critical_refuses_bad_knobs_at_entry(kw):
    # no residual meets a NaN or negative tol: the descent ran to max_iter.
    # A max_iter of -1 or NaN returned the start's diagnosis after 0
    # iterations, True ran one iteration and 2.0 two. A tol of True ran as
    # 1, and a string tol failed with TypeError; a k_max of 2.5 and a complex
    # tol are refused at entry too
    with pytest.raises(ParamError):
        find_critical_2d(_star(), P2, resolution=32, nq=8,
                         **{"max_iter": 1, **kw})


def test_find_critical_max_iter_0_diagnoses_the_start():
    S = _star()
    sh, rep, st = find_critical_2d(S, P2, max_iter=np.int64(0), resolution=64,
                                   nq=16, full_output=True)
    assert sh is S and st.iteration == 0 and st.residual_history == ()
    assert rep.as_dict() == diagnostics.diagnose(
        _fresh(S), P2, 64, 16, with_identities=False).as_dict()


# ------------------------------------------------------------- el_gradient_step

def test_residual_map_agrees_with_its_public_owners():
    # the one map the descent reads a shape through gives the public
    # functions' values, bit for bit
    S = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.03, "b3": -0.025, "a4": 0.02, "b5": 0.035}))
    bf, lam, residual, modes, f_eps = shapeopt._residual_map(S, P2, 64, 16, 8)
    assert bf is functionals._sweep(S, P2, 64, 16)
    assert (lam, residual) == diagnostics.lambda_hat_and_residual(
        _fresh(S), P2, 64, 16)
    assert f_eps == energy(_fresh(S), P2, 64, 16).total
    fresh = boundary_fields(_fresh(S), P2, 64, 16)
    want = np.fft.rfft(fresh.zeta - lam)[:9]
    assert modes.size == 9 and modes.tobytes() == want.tobytes()
    # the map is kept on the shape, and what it keeps cannot be changed
    assert shapeopt._residual_map(S, P2, 64, 16, 8)[3] is modes
    assert not modes.flags.writeable
    # modes 0..2 are read even at k_max = 1, for the spectrum's mu_2
    assert shapeopt._residual_map(S, P2, 64, 16, 1)[3].size == 3


def test_residual_map_cuts_the_modes_at_the_fft_length():
    # a mode cap above m / 2 keeps every mode the real FFT has, and the step
    # scales them by the leading part of the spectrum
    S = _star()
    m = boundary_fields(S, P2, 16, 8).zeta.size
    modes = shapeopt._residual_map(S, P2, 16, 8, m)[3]
    assert modes.size == m // 2 + 1
    st = el_gradient_step(OptimizerState(S), P2, 16, 8, m)
    assert st.iteration == 1
    assert energy(st.shape, P2, 16, 8).total < energy(S, P2, 16, 8).total


def test_step_velocity_is_mean_zero():
    # the applied normal speed is zeta minus its weighted mean, so its
    # weighted integral over the boundary vanishes identically
    S = _star()
    bf = boundary_fields(S, P2, 64, 16)
    w = bf.mesh.weights
    lam = math.fsum(w * bf.zeta) / math.fsum(w)
    assert abs(math.fsum(w * (bf.zeta - lam))) < 1e-12 * abs(lam)


def test_steps_never_increase_energy():
    st = OptimizerState(_star())
    energies = []
    for _ in range(6):
        st = el_gradient_step(st, P2, 64, 16)
        energies.append(energy(st.shape, P2, 64, 16).total)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert st.iteration == 6
    assert len(st.residual_history) == 6
    # residuals should have dropped substantially from the start
    assert st.residual_history[-1] < 0.2 * st.residual_history[0]


def test_steps_hold_unit_volume():
    st = OptimizerState(_star())
    for _ in range(4):
        st = el_gradient_step(st, P2, 64, 16)
        assert abs(volume(st.shape) - 1.0) <= 1e-10


def test_step_reads_the_energy_of_its_shape_under_its_params():
    # a state stepped at eps 1e-3 held that step's F_eps, and a step at
    # eps 5 compared its candidates with it: every one lies above it, and
    # the step stalled (residual 0.0993). The bar is the shape's F_eps under
    # the call's Params, as for a fresh state on the same shape
    S = volume_project(fourier_shape({"r0": 1.0, "a2": 0.04, "b3": 0.03}))
    strong = P2.with_eps(5.0)
    st = el_gradient_step(OptimizerState(S), P2, 64, 16, 8)
    start = energy(st.shape, strong, 64, 16).total
    st = el_gradient_step(st, strong, 64, 16, 8)
    assert st.iteration == 2
    assert energy(st.shape, strong, 64, 16).total < start


def test_find_critical_maps_each_shape_once(monkeypatch):
    # the stopping test, the step from a shape and the shape's test as a
    # candidate read one residual map per mesh, kept on the shape: its part
    # beyond the sweep (lambda_hat, the residual, the modes) runs once per
    # shape and mesh. At 128/32 and k_max 12 the steps run on 65 targets,
    # and the last shape they reach is mapped once more, at 128. Before the
    # coarse mesh, every shape was mapped once, at 128
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.09, "b3": -0.075, "a4": 0.06, "b5": 0.105}))
    calls, candidates = [], []
    read = functionals.BoundaryFields.lambda_hat_and_residual
    project = shapeopt.volume_project

    def counted(bf):
        calls.append(bf)
        return read(bf)

    def recorded(S):
        candidates.append(project(S))
        return candidates[-1]
    monkeypatch.setattr(functionals.BoundaryFields, "lambda_hat_and_residual",
                        counted)
    monkeypatch.setattr(shapeopt, "volume_project", recorded)
    monkeypatch.setattr(shapeopt, "diagnose", lambda *args, **kwargs: None)
    sh, _, st = find_critical_2d(init, P2, tol=1e-8, resolution=128, nq=32,
                                 full_output=True)
    monkeypatch.undo()
    assert len(candidates) >= st.iteration >= 3 and candidates[-1] is sh
    assert len(calls) == len({id(bf) for bf in calls}) == 2 + len(candidates)
    assert [bf.zeta.size for bf in calls] == [65] * (1 + len(candidates)) + [128]
    shapes = [init, *candidates, sh]
    assert all(bf is functionals._sweep(S, P2, bf.zeta.size, 32)
               for bf, S in zip(calls, shapes))


def test_disk_is_a_fixed_point():
    # residual on an exact disk is quadrature noise, below the no-op floor:
    # the step must leave the shape object untouched
    disk = volume_project(StarShape2D((0.0, 0.0), 1.0))
    st = OptimizerState(disk)
    st2 = el_gradient_step(st, P2, 128, 32)
    assert st2.shape is disk
    assert st2.iteration == 1
    assert st2.residual_history[-1] < 1e-9


def test_stall_carries_state(monkeypatch):
    # every candidate projects to one shape whose F_eps is above the
    # start's, so every trial step is rejected
    bumpy = volume_project(fourier_shape({"r0": 1.0, "a7": 0.2}))
    monkeypatch.setattr(shapeopt, "volume_project", lambda S: bumpy)
    st = OptimizerState(_star())
    assert energy(bumpy, P2, 64, 16).total > energy(st.shape, P2, 64, 16).total
    with pytest.raises(StalledError) as exc:
        el_gradient_step(st, P2, 64, 16)
    carried = exc.value.state
    assert isinstance(carried, OptimizerState)
    assert carried.iteration == 0
    assert len(carried.residual_history) == 1
    assert carried.shape is st.shape


def test_non_positive_series_is_a_rejected_trial(monkeypatch):
    # the k_max-truncated series can dip below zero between the mesh angles
    # while every mesh sample is positive; from_samples then refuses the
    # candidate, and the step halves instead of ending the solve
    build = StarShape2D.from_samples.__func__
    trials = []

    def refuse_first(cls, center, values, k_max=None):
        trials.append(np.array(values, dtype=float))
        if len(trials) == 1:
            raise GeometryError("radius function is not strictly positive")
        return build(cls, center, values, k_max)

    monkeypatch.setattr(StarShape2D, "from_samples", classmethod(refuse_first))
    st = OptimizerState(_star())
    e0 = energy(st.shape, P2, 64, 16).total
    st2 = el_gradient_step(st, P2, 64, 16)
    assert len(trials) == 2
    r = st.shape.radius(uniform_angles(64))
    np.testing.assert_allclose(trials[1] - r, 0.5 * (trials[0] - r),
                               rtol=1e-9, atol=1e-15)
    assert st2.iteration == 1
    assert st2.shape is not st.shape
    assert energy(st2.shape, P2, 64, 16).total <= e0


# ------------------------------------------------------ the disk's spectrum

def _point_query_mu(p, k, nq=48):
    """mu_k by a central difference of two on-curve zeta point queries at
    theta = 0 on the unit-area disk of radius R perturbed by +-h cos(k theta),
    h = 1e-4 R; the error is O(h^2)."""
    R = 1.0 / math.sqrt(math.pi)
    h = 1e-4 * R
    a = np.zeros(k)
    a[-1] = h
    plus = zeta(StarShape2D((0.0, 0.0), R, a), (R + h, 0.0), p, nq=nq)
    minus = zeta(StarShape2D((0.0, 0.0), R, -a), (R - h, 0.0), p, nq=nq)
    return (plus - minus) / (2.0 * h)


@pytest.mark.parametrize("p", [
    P2, Params(n=2, s=0.3, alpha=0.9, eps=1e-2),
    Params(n=2, s=0.8, alpha=1.5, eps=0.1),
    Params(n=2, s=0.5, alpha=0.999, eps=0.075),
    Params(n=2, s=0.1, alpha=0.2, eps=1.0)])
def test_disk_spectrum_matches_point_queries(p):
    # the closed form against the on-curve rule on perturbed disks: they
    # agree to the central difference's O(h^2) error, about 1e-7
    mu = shapeopt._disk_spectrum(p, 12)
    for k in range(2, 13):
        assert mu[k] == pytest.approx(_point_query_mu(p, k), rel=1e-6), k


def test_disk_spectrum_matches_the_sweeps():
    # mode k of the linearized zeta from a whole-boundary sweep: the k-th
    # cosine coefficient of (zeta on R + h cos k theta minus zeta on the
    # disk) / h; the second-order response has no mode k, so it agrees with
    # the closed form to O(h^2)
    m, nq, k_max = 64, 16, 12
    mu = shapeopt._disk_spectrum(P2, k_max)
    assert mu.shape == (k_max + 1,)
    assert (mu > 0.0).all()
    assert (np.diff(mu[2:]) > 0.0).all()
    assert mu[0] == mu[1] == mu[2]
    R = 1.0 / math.sqrt(math.pi)
    h = 1e-4 * R
    disk = boundary_fields(StarShape2D((0.0, 0.0), R), P2, m, nq).zeta
    for k in range(2, k_max + 1):
        a = np.zeros(k)
        a[-1] = h
        plus = boundary_fields(StarShape2D((0.0, 0.0), R, a), P2, m, nq).zeta
        coef = 2.0 / m * np.fft.rfft((plus - disk) / h)[k].real
        assert mu[k] == pytest.approx(coef, rel=1e-5), k


@pytest.mark.parametrize("q", [0.3, 0.5, 1.0, 1.5, 2.5])
def test_mode_gaps_match_quadrature(q):
    # I(q, k) - I(q, 1) is the integral of (cos k psi - cos psi) over
    # (2 sin(psi / 2))^q, which converges for q < 3: the numerator is
    # -2 sin((k + 1) psi / 2) sin((k - 1) psi / 2), which vanishes like
    # psi^2. The integrand is even about pi; its psi^(2 - q) factor at 0
    # goes to the algebraic weight of QUADPACK's QAWS, and the rest is
    # smooth, in sinc(x) = sin(x) / x
    def sinc(x):
        return float(np.sinc(x / math.pi))

    gaps = shapeopt._mode_gaps(q, 8)
    for k in range(2, 9):
        ref = 2.0 * integrate.quad(
            lambda t: -0.5 * (k * k - 1) * sinc(0.5 * (k + 1) * t)
            * sinc(0.5 * (k - 1) * t) / sinc(0.5 * t) ** q,
            0.0, math.pi, weight="alg", wvar=(2.0 - q, 0.0),
            epsabs=0.0, epsrel=1e-13)[0]
        assert gaps[k - 2] == pytest.approx(ref, rel=1e-11), k


def test_disk_spectrum_is_continuous_at_alpha_one():
    # Gamma(1 - alpha) has a pole at alpha = 1 where the V gap vanishes;
    # the closed form divides it out, and takes the limit at alpha = 1
    def spectrum(alpha):
        return shapeopt._disk_spectrum(
            Params(n=2, s=0.5, alpha=alpha, eps=0.5), 12)
    limit = spectrum(1.0)
    for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
        mu = spectrum(alpha)
        assert np.isfinite(mu).all()
        np.testing.assert_allclose(mu, limit, rtol=1e-8)


def test_disk_spectrum_does_not_overflow_at_a_large_k_max():
    mu = shapeopt._disk_spectrum(P2, 200)
    assert mu.shape == (201,)
    assert np.isfinite(mu).all()
    assert (np.diff(mu[2:]) > 0.0).all()


def test_descent_step_makes_no_point_query(monkeypatch):
    # the spectrum is closed form: a step's fields all come from sweeps
    def refuse(*args, **kwargs):
        raise AssertionError("point query")
    for name in ("frac_curvature", "potential"):
        monkeypatch.setattr(functionals, name, refuse)
    p = Params(n=2, s=0.45, alpha=0.55, eps=2e-3)
    st = el_gradient_step(OptimizerState(_star()), p, 32, 8)
    assert st.iteration == 1


@pytest.mark.parametrize("negative", [2, 3])
def test_negative_eigenvalue_is_clamped(monkeypatch, negative):
    # a mu_3 < 0 would turn the _star's dominant mode uphill, and mu_2 also
    # sets modes 0 and 1; the clamp keeps every mode a descent direction, so
    # the steps still go
    closed_form = shapeopt._linearized_zeta

    def flipped(p, k_max):
        mu = closed_form(p, k_max)
        mu[negative - 2] *= -1.0
        return mu
    monkeypatch.setattr(shapeopt, "_linearized_zeta", flipped)
    mu = shapeopt._disk_spectrum(P2, shapeopt.DEFAULT_K_MAX)
    assert flipped(P2, shapeopt.DEFAULT_K_MAX)[negative - 2] < 0.0
    assert (mu > 0.0).all()
    st = OptimizerState(_star())
    energies = [energy(st.shape, P2, 64, 16).total]
    for _ in range(3):
        st = el_gradient_step(st, P2, 64, 16)
        energies.append(energy(st.shape, P2, 64, 16).total)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_eigenvalue_is_refused(monkeypatch, bad):
    monkeypatch.setattr(
        shapeopt, "_linearized_zeta",
        lambda p, k_max: np.array([bad if k == 5 else 100.0 * k
                                   for k in range(2, k_max + 1)]))
    with pytest.raises(QuadratureError):
        el_gradient_step(OptimizerState(_star()), P2, 32, 8)


# ------------------------------------------------------------- find_critical_2d

def test_find_critical_rejects_wrong_dimension():
    # the one check of Params against a geometry (functionals._kernel)
    # refuses them, with no KeyError of a memo miss as the context
    with pytest.raises(ParamError, match="params have n = 1, but the "
                       "StarShape2D lies in dimension 2") as exc:
        find_critical_2d(_star(), Params(n=1, s=0.5, alpha=0.5))
    assert exc.value.__context__ is None


def test_find_critical_rejects_non_unit_volume():
    with pytest.raises(GeometryError, match="volume_project"):
        find_critical_2d(StarShape2D((0.0, 0.0), 1.0), P2)


def test_find_critical_tol_inf_is_diagnose_only():
    S = _star()
    sh, rep, st = find_critical_2d(S, P2, tol=math.inf, resolution=64, nq=16,
                                   full_output=True)
    assert sh is S
    assert st.iteration == 0
    assert rep.el_residual > 0.1  # the perturbed start is far from critical


def test_find_critical_default_output_pair():
    out = find_critical_2d(_star(), P2, tol=math.inf, resolution=64, nq=16)
    assert len(out) == 2
    sh, rep = out
    assert isinstance(sh, StarShape2D)
    assert math.isfinite(rep.el_residual)


def _assert_converges(p):
    # the Newton step at the disk brings a near-disk start there in a few
    # iterations
    sh, rep, st = find_critical_2d(_star(), p, tol=5e-3, max_iter=80,
                                   resolution=64, nq=16, full_output=True)
    assert rep.el_residual <= 5e-3
    assert st.residual_history[-1] <= 5e-3
    assert st.iteration <= 6
    assert abs(volume(sh) - 1.0) <= 1e-10
    # the critical shape of this flow is (numerically) the disk again
    assert rep.rho <= 1e-3
    # identity block is opt-in and was not requested
    assert rep.identity_residuals == {}


def test_find_critical_converges_from_perturbed_disk():
    _assert_converges(P2)


def test_find_critical_converges_at_strong_repulsion():
    _assert_converges(Params(n=2, s=0.8, alpha=0.3, eps=1e-2))


def test_find_critical_accepts_ball_input():
    sh, rep = find_critical_2d(Ball((0.0, 0.0), 1.0 / math.sqrt(math.pi)), P2,
                               tol=math.inf, resolution=64, nq=16)
    assert isinstance(sh, StarShape2D)
    assert rep.el_residual < 1e-8


def test_find_critical_max_iter_returns_normally():
    # two iterations cannot reach tol from the 5% start; the call must still
    # return with the achieved residual visible, not raise
    sh, rep, st = find_critical_2d(_star(), P2, tol=1e-12, max_iter=2,
                                   resolution=64, nq=16, full_output=True)
    assert st.iteration == 2
    assert rep.el_residual > 1e-12


# ------------------------------------------------------------ the coarse mesh

def _recorded_steps(monkeypatch):
    """The list of every (state, resolution) el_gradient_step is called
    with, filled as the solve runs."""
    step = shapeopt.el_gradient_step
    calls = []

    def recording(state, p, resolution, *args):
        calls.append((state, resolution))
        return step(state, p, resolution, *args)
    monkeypatch.setattr(shapeopt, "el_gradient_step", recording)
    return calls


def test_coarse_residual_at_tol_continues_at_the_requested_mesh(monkeypatch):
    # at 128/32, k_max 12, the steps run on 65 targets. After 7 steps the
    # shape's residual reads 6.084e-8 on them and 6.227e-8 at 128: a tol
    # between the two hands the shape over, and the descent steps on at 128
    # until the residual there meets tol
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.09, "b3": -0.075, "a4": 0.06, "b5": 0.105}))
    tol = 6.15e-8
    calls = _recorded_steps(monkeypatch)
    sh, rep, st = find_critical_2d(init, P2, tol=tol, resolution=128, nq=32,
                                   full_output=True)
    monkeypatch.undo()
    meshes = [mesh for _, mesh in calls]
    assert meshes == [65] * 7 + [128] * (len(meshes) - 7) and len(meshes) > 7
    handed = calls[7][0].shape
    assert shapeopt._residual_map(handed, P2, 65, 32, 12)[2] <= tol
    assert shapeopt._residual_map(handed, P2, 128, 32, 12)[2] > tol
    assert st.iteration == len(calls)
    assert rep.el_residual == st.residual_history[-1] <= tol
    # each entry of the history is read on the mesh of its step
    assert st.residual_history[7] == \
        shapeopt._residual_map(handed, P2, 128, 32, 12)[2]


def test_a_two_mode_descent_certifies_at_the_requested_mesh(monkeypatch):
    # k_max 2 steps on 15 targets; the start's modes 3-5 are cut by the
    # first step, and the shape that meets tol there meets it at 128 too
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.03, "b3": -0.025, "a4": 0.02, "b5": 0.035}))
    calls = _recorded_steps(monkeypatch)
    sh, rep, st = find_critical_2d(init, P2, tol=1e-8, resolution=128, nq=32,
                                   k_max=2, full_output=True)
    monkeypatch.undo()
    assert {mesh for _, mesh in calls} == {15}
    assert sh.kmax == 2
    assert rep.el_residual == st.residual_history[-1] <= 1e-8
    assert rep.as_dict() == diagnostics.diagnose(
        _fresh(sh), P2, 128, 32, with_identities=False).as_dict()


def test_a_mesh_at_most_the_coarse_one_sweeps_every_candidate_at_it(
        monkeypatch):
    # 5 (12 + 1) = 65 targets exceed 64: the descent steps at 64 throughout
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args[2:4])
        return boundary_fields(*args, **kwargs)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    sh, rep, st = find_critical_2d(_star(), P2, tol=1e-6, resolution=64,
                                   nq=16, full_output=True)
    monkeypatch.undo()
    assert st.iteration >= 2
    assert sweeps[:-1] == [(64, 16)] * (len(sweeps) - 1)
    assert sweeps[-1] == (64, 32)


def test_a_coarse_stall_hands_over_to_the_requested_mesh(monkeypatch):
    # a step that stalls on the coarse mesh does not end the solve: the
    # same shape steps again at the requested mesh
    step = shapeopt.el_gradient_step
    calls = []

    def stalls_coarse(state, p, resolution, *args):
        calls.append((state, resolution))
        if resolution < 128:
            raise StalledError("coarse stall", state=state)
        return step(state, p, resolution, *args)
    monkeypatch.setattr(shapeopt, "el_gradient_step", stalls_coarse)
    init = _star()
    sh, rep, st = find_critical_2d(init, P2, tol=1e-6, resolution=128, nq=32,
                                   full_output=True)
    monkeypatch.undo()
    assert calls[0][1] == 65 and calls[1][0].shape is init
    assert [mesh for _, mesh in calls[1:]] == [128] * (len(calls) - 1)
    assert st.iteration == len(calls) - 1
    assert rep.el_residual == st.residual_history[-1] <= 1e-6


def test_max_iter_on_the_coarse_mesh_reports_at_the_requested_one():
    # two steps on 65 targets cannot reach tol; the state and the report
    # are read at 128 all the same
    sh, rep, st = find_critical_2d(_star(), P2, tol=1e-12, max_iter=2,
                                   resolution=128, nq=32, full_output=True)
    assert st.iteration == 2
    assert len(st.residual_history) == 2
    assert rep.as_dict() == diagnostics.diagnose(
        _fresh(sh), P2, 128, 32, with_identities=False).as_dict()
    assert rep.el_residual > 1e-12


# the first seed-101 descent start of the benchmark, at unit area
_SEED_101_START = {
    "r0": 1.0, "a2": -0.010686994423661528, "b2": 0.03737265832576755,
    "a3": 0.02404620811703893, "b3": -0.0126881871655741,
    "a4": 0.02432616199796952, "b4": -0.02612374371883693,
    "a5": -0.02091708197615609, "b5": 0.023986291641635023}


def test_the_no_op_floor_ends_the_descent(monkeypatch):
    # at eps 10, tol 1e-10, 128/32 and k_max 8 the residual reaches the
    # no-op floor, 1e-11 |lambda_hat|, above tol. The descent stopped there
    # only at max_iter 500, after 494 idle iterations; it now returns at the
    # first shape at the floor, with its residual in the report, and counts
    # no idle step
    init = volume_project(fourier_shape(_SEED_101_START))
    p = P2.with_eps(10.0)
    calls = _recorded_steps(monkeypatch)
    sh, rep, st = find_critical_2d(init, p, tol=1e-10, resolution=128, nq=32,
                                   k_max=8, full_output=True)
    monkeypatch.undo()
    # every step moved the shape: none was a no-op
    assert st.iteration == len(calls) <= 10
    assert len({id(S) for S in [*(state.shape for state, _ in calls), sh]}) == \
        len(calls) + 1
    _, lam, residual = shapeopt._residual_map(sh, p, 128, 32, 8)[:3]
    assert 1e-10 < residual <= shapeopt._NOOP_FLOOR * abs(lam)
    assert rep.el_residual == st.residual_history[-1] == residual
    assert len(st.residual_history) == st.iteration + 1


def _fresh(shape):
    """An equal shape with an empty memo, so that what is computed on it is
    computed again."""
    return StarShape2D(shape.center, shape.r0, shape.a, shape.b)


def test_find_critical_diagnoses_with_its_last_sweep(monkeypatch):
    # a start like the benchmark's (modes 2-5 at 2-4%): the sweep that meets
    # tol is of the final shape at (resolution, nq), kept on it, and the
    # final diagnose reads it instead of sweeping again; the report is the
    # fresh one, bit for bit
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.03, "b3": -0.025, "a4": 0.02, "b5": 0.035}))
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append((args[0], args[2], args[3]))
        return boundary_fields(*args, **kwargs)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    sh, rep, st = find_critical_2d(init, P2, resolution=128, nq=32,
                                   full_output=True)
    solve = sweeps[:]
    fresh = diagnostics.diagnose(_fresh(sh), P2, 128, 32,
                                 with_identities=False)
    assert rep.as_dict() == fresh.as_dict()
    # the start's sweep and one per candidate (each accepted here at its
    # first trial) on the 65-target mesh, one of the final shape at 128,
    # then only the 2 nq sweep of diagnose, which sweeps twice on its own.
    # Before the coarse mesh, the start and every candidate were swept at
    # 128 and the final shape's sweep was its sweep as a candidate
    assert st.iteration >= 1
    assert [(m, nq) for _, m, nq in solve] == \
        [(65, 32)] * (st.iteration + 1) + [(128, 32), (128, 64)]
    assert solve[-2][0] is solve[-3][0] is sh
    assert [(m, nq) for _, m, nq in sweeps[len(solve):]] == [(128, 32),
                                                           (128, 64)]


def test_find_critical_sweeps_each_shape_once(monkeypatch):
    # every evaluated shape, the start and each candidate, is swept once on
    # the 65-target mesh of the steps, and that sweep gives its energy: no
    # energy functional runs in the solve. The final shape is swept once
    # more, at the requested 128; the final diagnose reads that sweep at nq
    # and sweeps once at 2 nq. Before the coarse mesh, the start and every
    # candidate were swept once at 128 and nothing else was swept at nq
    from nlshape import functionals
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.03, "b3": -0.025, "a4": 0.02, "b5": 0.035}))
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[2:4]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((functionals, "boundary_fields"),
                         (shapeopt, "volume_project"),
                         (functionals, "energy"),
                         (functionals, "frac_perimeter"),
                         (functionals, "riesz_energy")):
        counted(module, name)
    # at tol 1e-8 the line search rejects some candidates (3 for 7 steps),
    # below residual 1e-5, where a full step's F_eps differs from the held
    # one by a few ulps
    sh, rep, st = find_critical_2d(init, P2, tol=1e-8, resolution=128, nq=32,
                                   full_output=True)
    monkeypatch.undo()
    names = [name for name, _ in calls]
    candidates = names.count("volume_project")
    assert candidates > st.iteration >= 1
    assert set(names) == {"boundary_fields", "volume_project"}
    sweeps = [mesh for name, mesh in calls if name == "boundary_fields"]
    assert sweeps == [(65, 32)] * (1 + candidates) + [(128, 32), (128, 64)]
    # the held sweep's energy terms are the functionals' values, bit for bit
    per = frac_perimeter(sh, P2.s, 128, 32)
    rz = riesz_energy(sh, P2.alpha, 128, 32)
    held = shapeopt._residual_map(sh, P2, 128, 32, shapeopt.DEFAULT_K_MAX)[4]
    assert held == energy(sh, P2, 128, 32).total == per + P2.eps * rz
    assert rep.implied_constants["lambda_cross"] == \
        diagnostics.lambda_cross_estimate(sh, P2, 128, 32)
    assert rep.error_estimates["perimeter"] == \
        abs(frac_perimeter(sh, P2.s, 128, 64) - per)
    assert rep.error_estimates["riesz"] == \
        abs(riesz_energy(sh, P2.alpha, 128, 64) - rz)
    assert rep.as_dict() == diagnostics.diagnose(
        _fresh(sh), P2, 128, 32, with_identities=False).as_dict()


def test_held_sweep_is_not_part_of_the_state(monkeypatch):
    # the accepted candidate's sweep rides along for the next iteration on
    # the candidate itself; the state is the trajectory alone
    from dataclasses import fields
    st = el_gradient_step(OptimizerState(_star()), P2, 64, 16)
    assert [f.name for f in fields(st)] == [
        "shape", "iteration", "residual_history"]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the accepted candidate was swept again")
    monkeypatch.setattr(functionals, "boundary_fields", no_sweep)
    held = functionals._sweep(st.shape, P2, 64, 16)
    monkeypatch.undo()
    fresh = boundary_fields(st.shape, P2, 64, 16)
    assert np.array_equal(held.zeta, fresh.zeta)
    assert (held.perimeter, held.riesz) == (fresh.perimeter, fresh.riesz)
    f_eps = shapeopt._residual_map(st.shape, P2, 64, 16,
                                   shapeopt.DEFAULT_K_MAX)[4]
    assert f_eps == held.perimeter + P2.eps * held.riesz


def test_accepted_candidate_grid_is_evaluated_once(monkeypatch):
    # an accepted candidate's radius at the angles of a mesh comes from one
    # polar call per mesh: its sweep's mesh and the next step's r read the
    # grid of the 65-target mesh kept on it, and the final shape's sweep at
    # 256, its volume (volume_drift) and the final diagnose the grid of 256
    # kept on it. Before the coarse mesh, every accepted candidate had the
    # one grid of 256
    accepted = []
    step = shapeopt.el_gradient_step

    def recording(*args, **kwargs):
        st = step(*args, **kwargs)
        accepted.append(st.shape)
        return st
    polar = StarShape2D.polar
    grids = []

    def counting(self, theta):
        grids.append((self, np.size(theta)))
        return polar(self, theta)
    monkeypatch.setattr(shapeopt, "el_gradient_step", recording)
    monkeypatch.setattr(StarShape2D, "polar", counting)
    sh, rep = find_critical_2d(_star(), P2, tol=1e-8, resolution=256, nq=16)
    volume(sh)
    monkeypatch.undo()
    assert len(accepted) >= 3 and accepted[-1] is sh
    for shape in accepted[:-1]:
        assert [m for s, m in grids if s is shape] == [65]
    # the diagnose adds the grids of rho and the diameter (512) and of
    # ball_map_mu (1024), each once
    final = [m for s, m in grids if s is sh]
    assert final[:2] == [65, 256] and len(set(final)) == len(final)


def test_diagnose_after_a_solve_reads_the_held_sweeps(monkeypatch):
    # the identities of a solved shape come from diagnose on it: the solve
    # kept its sweeps at nq and 2 nq on the shape, and TangentialBall reads
    # grad V . tau from its one owner, not from a sweep, so this diagnose
    # makes no boundary sweep. Its report is a diagnose of an equal shape
    # with an empty memo, and apart from the identities the solve's own
    sh, rep = find_critical_2d(_star(), P2, resolution=64, nq=16)
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args)
        return boundary_fields(*args, **kwargs)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    full = diagnostics.diagnose(sh, P2, 64, 16)
    monkeypatch.undo()
    assert sweeps == []
    assert "TangentialBall" in full.identity_residuals
    assert full.as_dict() == diagnostics.diagnose(
        copy.copy(sh), P2, 64, 16).as_dict()
    assert rep.identity_residuals == {}
    assert {**full.as_dict(), "identity_residuals": {}} == rep.as_dict()
