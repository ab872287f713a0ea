"""Shape construction helpers and the planar critical-point search."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from nlshape import diagnostics, functionals, shapeopt
from nlshape.errors import (GeometryError, ParamError, QuadratureError,
                            StalledError)
from nlshape.functionals import (boundary_fields, energy, frac_perimeter,
                                 riesz_energy, zeta)
from nlshape.sets import (Ball, IntervalSet, Params, StarShape2D,
                          uniform_angles, volume)
from nlshape.shapeopt import (OptimizerState, el_gradient_step,
                              find_critical_2d, fourier_shape, initial_state,
                              volume_project)

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
    S = fourier_shape({"r0": 1.0}, center=(2.0, -1.0))
    assert S.center == (2.0, -1.0)
    assert S.kmax == 0


@pytest.mark.parametrize("bad", ["c3", "a", "ax", "a0", "b0", "r1"])
def test_fourier_shape_rejects_bad_keys(bad):
    with pytest.raises(ParamError):
        fourier_shape({"r0": 1.0, bad: 0.1})


def test_fourier_shape_rejects_mode_above_kmax():
    with pytest.raises(ParamError, match="k_max"):
        fourier_shape({"r0": 1.0, "a7": 0.01}, k_max=6)
    # at the cap is fine
    S = fourier_shape({"r0": 1.0, "a6": 0.01}, k_max=6)
    assert S.a[5] == 0.01


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
    S = fourier_shape({"r0": 1.0, "a3": 0.05, "b2": 0.02}, center=(0.3, -0.1))
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


@pytest.mark.parametrize("geometry", [
    IntervalSet([(0.0, 1.0)]), Ball((0.0,), 1.0), Ball((0.0, 0.0, 0.0), 1.0)],
    ids=["intervals", "ball-1d", "ball-3d"])
def test_volume_project_refuses_a_non_planar_geometry(geometry):
    with pytest.raises(GeometryError, match="star shape or planar ball"):
        volume_project(geometry)


# ---------------------------------------------------------------- initial_state

def test_initial_state_fields():
    S = _star()
    st = initial_state(S, resolution=64, k_max=8, step=0.1)
    assert st.shape is S
    assert st.iteration == 0
    assert st.residual_history == ()
    assert st.step_size == 0.1
    assert st.mesh_resolution == 64 and st.k_max == 8
    assert st.volume_drift < 1e-12
    assert math.isnan(st.energy)


def test_initial_state_accepts_ball():
    st = initial_state(Ball((0.0, 0.0), 1.0))
    assert isinstance(st.shape, StarShape2D)


def test_initial_state_rejects_bad_step():
    with pytest.raises(ParamError):
        initial_state(_star(), step=0.0)
    with pytest.raises(ParamError):
        initial_state(_star(), step=-0.1)
    # the halving loop kept an infinite step forever, and a NaN one stalled;
    # True ran as a step of 1, and a string failed with TypeError
    for step in (math.inf, math.nan, True, "0.5"):
        with pytest.raises(ParamError, match="finite and positive"):
            initial_state(_star(), step=step)


@pytest.mark.parametrize("k_max", [-2, 0, True, 2.0, None])
def test_initial_state_refuses_a_mode_cap_below_1(k_max):
    # from_samples read a negative cap from the end of the spectrum: the
    # descent from a mode-2/3 star at k_max = -2 ended in a 15-mode shape,
    # and k_max = 0 collapsed the start to a disk
    with pytest.raises(ParamError, match="k_max must be an integer"):
        initial_state(_star(), k_max=k_max)


@pytest.mark.parametrize("kw", [{"tol": math.nan}, {"tol": -1.0},
                                {"step": math.nan}, {"k_max": -2},
                                {"k_max": 0}, {"max_iter": -1},
                                {"max_iter": math.nan}, {"max_iter": True},
                                {"max_iter": 2.0}, {"max_iter": None},
                                {"tol": True}, {"tol": "1e-3"},
                                {"step": True}])
def test_find_critical_refuses_bad_knobs_at_entry(kw):
    # no residual meets a NaN or negative tol: the descent ran to max_iter.
    # A max_iter of -1 or NaN returned the start's diagnosis after 0
    # iterations, True ran one iteration and 2.0 two. A tol or step of True
    # ran as 1, and a string tol failed with TypeError
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
    # modes 0..2 are read even at k_max = 1, for the spectrum's mu_2
    assert shapeopt._residual_map(S, P2, 64, 16, 1)[3].size == 3


def test_residual_map_cuts_the_modes_at_the_fft_length():
    # a mode cap above m / 2 keeps every mode the real FFT has, and the step
    # scales them by the leading part of the spectrum
    S = _star()
    m = boundary_fields(S, P2, 16, 8).zeta.size
    modes = shapeopt._residual_map(S, P2, 16, 8, m)[3]
    assert modes.size == m // 2 + 1
    st = el_gradient_step(initial_state(S, resolution=16, k_max=m), P2, nq=8)
    assert st.iteration == 1 and st.energy < energy(S, P2, 16, 8).total


def test_step_velocity_is_mean_zero():
    # the applied normal speed is zeta minus its weighted mean, so its
    # weighted integral over the boundary vanishes identically
    S = _star()
    bf = boundary_fields(S, P2, 64, 16)
    w = bf.mesh.weights
    lam = math.fsum(w * bf.zeta) / math.fsum(w)
    assert abs(math.fsum(w * (bf.zeta - lam))) < 1e-12 * abs(lam)


def test_steps_never_increase_energy():
    st = initial_state(_star(), resolution=64)
    energies = []
    for _ in range(6):
        st = el_gradient_step(st, P2, nq=16)
        energies.append(st.energy)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert st.iteration == 6
    assert len(st.residual_history) == 6
    # accepted steps leave the first trial step of the next iteration alone
    assert st.step_size == shapeopt.DEFAULT_STEP
    # residuals should have dropped substantially from the start
    assert st.residual_history[-1] < 0.2 * st.residual_history[0]


def test_steps_hold_unit_volume():
    st = initial_state(_star(), resolution=64)
    for _ in range(4):
        st = el_gradient_step(st, P2, nq=16)
        assert abs(volume(st.shape) - 1.0) <= 1e-10
        assert st.volume_drift <= 1e-10


def test_disk_is_a_fixed_point():
    # residual on an exact disk is quadrature noise, below the no-op floor:
    # the step must leave the shape object untouched
    disk = volume_project(StarShape2D((0.0, 0.0), 1.0))
    st = initial_state(disk, resolution=128)
    st2 = el_gradient_step(st, P2, nq=32)
    assert st2.shape is disk
    assert st2.iteration == 1
    assert st2.residual_history[-1] < 1e-9
    assert st2.step_size == st.step_size


def test_stall_carries_state():
    # an unbeatable energy bar forces rejection at every trial step
    st = replace(initial_state(_star(), resolution=64), energy=-1e9)
    with pytest.raises(StalledError) as exc:
        el_gradient_step(st, P2, nq=16)
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
    st = initial_state(_star(), resolution=64)
    e0 = energy(st.shape, P2, 64, 16).total
    st2 = el_gradient_step(st, P2, nq=16)
    assert len(trials) == 2
    r = st.shape.radius(uniform_angles(64))
    np.testing.assert_allclose(trials[1] - r, 0.5 * (trials[0] - r),
                               rtol=1e-9, atol=1e-15)
    assert st2.iteration == 1
    assert st2.shape is not st.shape
    assert st2.energy <= e0


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
    Params(n=2, s=0.5, alpha=0.999, eps=0.05, c_coupling=3.0),
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
    st = el_gradient_step(initial_state(_star(), resolution=32), p, nq=8)
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
    st = initial_state(_star(), resolution=64)
    energies = [energy(st.shape, P2, 64, 16).total]
    for _ in range(3):
        st = el_gradient_step(st, P2, nq=16)
        energies.append(st.energy)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_eigenvalue_is_refused(monkeypatch, bad):
    monkeypatch.setattr(
        shapeopt, "_linearized_zeta",
        lambda p, k_max: np.array([bad if k == 5 else 100.0 * k
                                   for k in range(2, k_max + 1)]))
    with pytest.raises(QuadratureError):
        el_gradient_step(initial_state(_star(), resolution=32), P2, nq=8)


# ------------------------------------------------------------- find_critical_2d

def test_find_critical_rejects_wrong_dimension():
    with pytest.raises(ParamError, match="n = 2"):
        find_critical_2d(_star(), Params(n=1, s=0.5, alpha=0.5))


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
        sweeps.append(args[0])
        return boundary_fields(*args, **kwargs)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    sh, rep, st = find_critical_2d(init, P2, resolution=128, nq=32,
                                   full_output=True)
    solve = len(sweeps)
    fresh = diagnostics.diagnose(_fresh(sh), P2, 128, 32,
                                 with_identities=False)
    assert rep.as_dict() == fresh.as_dict()
    # the start's sweep and one per candidate (each accepted here at its
    # first trial), then only the 2 nq sweep of diagnose, which sweeps twice
    # on its own
    assert st.iteration >= 1
    assert solve == st.iteration + 2
    assert len(sweeps) - solve == 2


def test_find_critical_sweeps_each_shape_once(monkeypatch):
    # every evaluated shape, the start and each candidate, is swept once, and
    # that sweep gives its energy: no energy functional runs in the solve.
    # The final diagnose reads the held sweep at nq and sweeps once at 2 nq
    from nlshape import functionals
    init = volume_project(fourier_shape(
        {"r0": 1.0, "a2": 0.09, "b3": -0.075, "a4": 0.06, "b5": 0.105}))
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[3] if len(args) > 3 else kwargs.get("nq")))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((functionals, "boundary_fields"),
                         (shapeopt, "volume_project"),
                         (functionals, "energy"),
                         (functionals, "frac_perimeter"),
                         (functionals, "riesz_energy")):
        counted(module, name)
    # at tol 1e-8 the line search rejects some candidates (22 for 12 steps),
    # all of them below residual 2e-6, where a full step's F_eps differs
    # from the held one by a few ulps
    sh, rep, st = find_critical_2d(init, P2, tol=1e-8, resolution=128, nq=32,
                                   full_output=True)
    monkeypatch.undo()
    names = [name for name, _ in calls]
    candidates = names.count("volume_project")
    assert candidates > st.iteration >= 1
    assert set(names) == {"boundary_fields", "volume_project"}
    sweeps = [nq for name, nq in calls if name == "boundary_fields"]
    assert sweeps == [32] * (1 + candidates) + [64]
    # the held sweep's energy terms are the functionals' values, bit for bit
    per = frac_perimeter(sh, P2.s, 128, 32)
    rz = riesz_energy(sh, P2.alpha, 128, 32)
    assert st.energy == energy(sh, P2, 128, 32).total == per + P2.eps * rz
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
    st = el_gradient_step(initial_state(_star(), resolution=64), P2, nq=16)
    assert [f.name for f in fields(st)] == [
        "shape", "step_size", "iteration", "residual_history", "volume_drift",
        "mesh_resolution", "k_max", "energy"]

    def no_sweep(*args, **kwargs):
        raise AssertionError("the accepted candidate was swept again")
    monkeypatch.setattr(functionals, "boundary_fields", no_sweep)
    held = functionals._sweep(st.shape, P2, 64, 16)
    monkeypatch.undo()
    fresh = boundary_fields(st.shape, P2, 64, 16)
    assert np.array_equal(held.zeta, fresh.zeta)
    assert (held.perimeter, held.riesz) == (fresh.perimeter, fresh.riesz)
    assert st.energy == held.perimeter + P2.eps * held.riesz


def test_accepted_candidate_grid_is_evaluated_once(monkeypatch):
    # an accepted candidate's radius at the mesh angles comes from one polar
    # call: its sweep's mesh, its volume (volume_drift) and the next step's
    # r read the grid kept on it, and so does the final diagnose
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
    monkeypatch.undo()
    assert len(accepted) >= 3 and accepted[-1] is sh
    for shape in accepted:
        assert sum(1 for s, m in grids if s is shape and m == 256) == 1


def test_find_critical_tangential_check_reads_the_held_sweep(monkeypatch):
    # TangentialBall reads grad V . tau from its one owner, not from a
    # sweep, so the final diagnose reads the descent's sweep at nq even with
    # the identities on, and sweeps only at 2 nq
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append((args[0], args[3] if len(args) > 3 else kwargs.get("nq")))
        return boundary_fields(*args, **kwargs)
    monkeypatch.setattr(functionals, "boundary_fields", counted)
    sh, rep = find_critical_2d(_star(), P2, resolution=64, nq=16,
                               with_identities=True)
    monkeypatch.undo()
    assert "TangentialBall" in rep.identity_residuals
    # the solve sweeps each shape it evaluates once, at nq; the final
    # diagnose adds one sweep, of the returned shape at 2 nq
    assert sweeps[-1] == (sh, 32)
    solve = sweeps[:-1]
    assert [nq for _, nq in solve] == [16] * len(solve)
    assert len({id(S) for S, _ in solve}) == len(solve)
    assert [nq for S, nq in sweeps if S is sh] == [16, 32]
    assert rep.as_dict() == diagnostics.diagnose(_fresh(sh), P2, 64,
                                                 16).as_dict()
