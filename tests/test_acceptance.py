"""End-to-end acceptance suite.

One test per advertised guarantee, each a single pass/fail line under
pytest -v. Runtime budgets are asserted with the math, so a regression
that makes a path catastrophically slow fails here even if the numbers
still come out right. Tolerances are the published ones; see the test
bodies for how each quantity is measured.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import nlshape
from nlshape.diagnostics import (au2_sides, ball_map_mu,
                                 calibrate_variation_constant, diagnose,
                                 identity_check)
from nlshape.functionals import (boundary_fields, frac_curvature,
                                 frac_perimeter, potential, riesz_energy,
                                 tangential_grad_potential)
from nlshape.onedim import (TwoIntervalConfig, epsilon_sweep, f_closed_form,
                            zeta_endpoints)
from nlshape.sets import (Ball, IntervalSet, Params, StarShape2D, save_geometry,
                          scaled)
from nlshape.shapeopt import find_critical_2d, fourier_shape, volume_project


def _line(name, **facts):
    detail = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in facts.items())
    print(f"[acceptance] {name}: {detail}")


def test_criterion_01_closed_form_matches_quadrature_zeta():
    # the algebraic gap formula against the generic per-interval PV pairing,
    # swept over a 5 x 5 x 5 grid with the repulsion on and off
    grid = (0.15, 0.3, 0.5, 0.7, 0.85)
    gaps = (0.6, 1.0, 1.8, 3.5, 7.0)
    t0 = time.monotonic()
    worst = 0.0
    for s in grid:
        for alpha in grid:
            for d in gaps:
                for eps in (0.0, 1e-3):
                    p = Params(n=1, s=s, alpha=alpha, eps=eps)
                    f = f_closed_form(d, p)
                    zs = zeta_endpoints(TwoIntervalConfig(d=d, params=p))
                    diff = float(zs[1] - zs[0])
                    scale = max(abs(f), abs(float(zs[0])), abs(float(zs[1])))
                    worst = max(worst, abs(f - diff) / scale)
    elapsed = time.monotonic() - t0
    _line("closed form vs zeta", worst_rel=worst, seconds=elapsed)
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_diameter_growth_law():
    eps_grid = [10.0 ** (-3.0 - 0.5 * k) for k in range(7)]
    t0 = time.monotonic()
    for s, alpha, target in ((0.5, 0.5, 1.0), (0.75, 0.25, 2.0 / 3.0)):
        p = Params(n=1, s=s, alpha=alpha, eps=eps_grid[0])
        records, fit = epsilon_sweep(p, eps_grid)
        slope_err = abs(fit["slope"] - target) / target
        _line("growth law", s=s, alpha=alpha, slope=fit["slope"],
              target=target, rel_err=slope_err)
        assert slope_err <= 0.03
        for r in records:
            assert abs(r.f_at_root) <= 1e-10
            assert r.d_star > r.d_eps
    elapsed = time.monotonic() - t0
    _line("growth law", seconds=elapsed)
    assert elapsed < 30.0


def test_criterion_03_disk_is_rigid():
    p = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    disk = Ball((0.0, 0.0), 1.0)
    for m, nq in ((128, 32), (256, 48)):
        bf = boundary_fields(disk, p, m, nq)
        kspread = float((bf.kappa.max() - bf.kappa.min()) / abs(bf.kappa.mean()))
        gt = max(abs(tangential_grad_potential(disk, x, p.alpha, nq=nq))
                 for x in bf.mesh.points)
        rep = diagnose(disk, p, m, nq, with_identities=False)
        _line("disk rigidity", m=m, kappa_spread=kspread, grad_tau=gt,
              delta=rep.delta_s, el=rep.el_residual)
        assert kspread <= 1e-4
        assert gt <= 1e-6
        assert rep.delta_s <= 1e-6  # mesh tolerance for the boundary sweeps
        assert rep.rho == 0.0
        assert rep.el_residual <= 1e-5


def test_criterion_04_volume_pairing_identities():
    p = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    shapes = (("disk", Ball((0.0, 0.0), 1.0)),
              ("star", StarShape2D((0.0, 0.0), 1.0, [0.0, 0.0, 0.1])))
    for name, S in shapes:
        for kind in ("Au1", "Au2"):
            coarse = identity_check(S, p, kind, 128, 32)
            fine = identity_check(S, p, kind, 256, 48)
            _line("pairing identities", shape=name, kind=kind,
                  coarse=coarse, fine=fine)
            assert fine <= 1e-2
            if kind == "Au1":
                # doubling the mesh at least halves the residual (factor 1.5
                # slack)
                assert fine <= 0.75 * coarse
            else:
                # Au2 pairs the on-curve V with R_alpha, both spectrally
                # accurate: at 128/32 it is at roundoff already, where a
                # halving would be noise
                assert max(coarse, fine) <= 1e-15

    star = shapes[1][1]
    alphas = np.array([0.2, 0.5, 0.8])
    ratios = []
    for a in alphas:
        lhs, int_v = au2_sides(star, Params(n=2, s=0.5, alpha=float(a), eps=1e-3),
                               256, 48)
        ratios.append(lhs / int_v)
    slope, intercept = np.polyfit(alphas, ratios, 1)
    _line("pairing factor fit", slope=float(slope), intercept=float(intercept))
    # the pairing factor is n - alpha/2 = 2 - alpha/2 in the plane
    assert abs(intercept - 2.0) / 2.0 <= 0.005
    assert abs(slope + 0.5) / 0.5 <= 0.005
    for a, r in zip(alphas, ratios):
        assert abs(r - (2.0 - a / 2.0)) / (2.0 - a / 2.0) <= 0.005


def test_criterion_05_ball_center_dominates_potential():
    # among unit-area sets the ball's center value is the largest the
    # potential can take anywhere; probed over seeded random star shapes
    alpha = 0.5
    radius = 1.0 / math.sqrt(math.pi)
    vb0 = 2.0 * math.pi * radius ** (2.0 - alpha) / (2.0 - alpha)
    worst = -math.inf
    quad_tol = 0.0
    for i in range(20):
        rng = np.random.default_rng(7000 + i)
        amps = rng.uniform(-0.03, 0.03, size=12)
        S = volume_project(StarShape2D((0.0, 0.0), 1.0, amps[:6], amps[6:]))
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=50)
        fracs = 0.97 * np.sqrt(rng.uniform(0.0, 1.0, size=50))
        r = S.radius(thetas) * fracs
        pts = np.column_stack([r * np.cos(thetas), r * np.sin(thetas)])
        v = np.array([potential(S, x, alpha, nq=16) for x in pts])
        v2 = np.array([potential(S, x, alpha, nq=32) for x in pts])
        worst = max(worst, float((v - vb0).max()))
        quad_tol = max(quad_tol, float(np.abs(v - v2).max()))
    _line("ball center dominates", worst_excess=worst, quad_tol=quad_tol)
    assert worst <= 2.0 * quad_tol


def test_criterion_06_scaling_exponents():
    s, alpha = 0.5, 0.5
    # 1D: closed-form paths, so the exponents hold to near machine precision
    E = IntervalSet([(0.0, 1.0), (2.5, 3.2)])
    lam = 1.7
    El = scaled(E, lam)
    checks_1d = (
        (frac_perimeter(El, s), lam ** (1.0 - s) * frac_perimeter(E, s)),
        (riesz_energy(El, alpha), lam ** (2.0 - alpha) * riesz_energy(E, alpha)),
        (frac_curvature(El, 0.0, s), lam ** (-s) * frac_curvature(E, 0.0, s)),
        (potential(El, lam * 0.4, alpha), lam ** (1.0 - alpha) * potential(E, 0.4, alpha)),
    )
    for got, want in checks_1d:
        assert got == pytest.approx(want, rel=1e-10)

    # 2D: quadrature paths
    S = StarShape2D((0.0, 0.0), 1.0, [0.0, 0.0, 0.1])
    lam = 1.3
    Sl = scaled(S, lam)
    res, nq = 128, 32
    p_ref = frac_perimeter(S, s, res, nq)
    r_ref = riesz_energy(S, alpha, res, nq)
    p_dev = abs(frac_perimeter(Sl, s, res, nq) - lam ** 1.5 * p_ref) / (lam ** 1.5 * p_ref)
    r_dev = abs(riesz_energy(Sl, alpha, res, nq) - lam ** 3.5 * r_ref) / (lam ** 3.5 * r_ref)
    pp = Params(n=2, s=s, alpha=alpha, eps=1e-3)
    bf = boundary_fields(S, pp, res, nq)
    bfl = boundary_fields(Sl, pp, res, nq)
    k_dev = float(np.abs(bfl.kappa - lam ** (-s) * bf.kappa).max()
                  / np.abs(bf.kappa).mean())
    x = np.array([0.2, 0.1])
    v_ref = potential(S, x, alpha, nq=nq)
    v_dev = abs(potential(Sl, lam * x, alpha, nq=nq)
                - lam ** (2.0 - alpha) * v_ref) / (lam ** (2.0 - alpha) * v_ref)
    _line("scaling exponents", p_dev=p_dev, r_dev=r_dev, k_dev=k_dev,
          v_dev=v_dev)
    for dev in (p_dev, r_dev, k_dev, v_dev):
        assert dev <= 1e-4


def test_criterion_07_variation_constant_calibration():
    cs = [calibrate_variation_constant(0.5, 2, resolution=128, nq=32,
                                       radii=(R,))
          for R in (0.7, 1.0, 1.6)]
    spread = (max(cs) - min(cs)) / abs(float(np.mean(cs)))
    _line("calibration", spread=spread, c=float(np.mean(cs)))
    assert spread <= 1e-4
    for s in (0.3, 0.5, 0.7):
        assert calibrate_variation_constant(s, 1) == pytest.approx(1.0, rel=1e-10)


def test_criterion_08_descent_reaches_critical_disk():
    p = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    init = volume_project(fourier_shape({"r0": 1.0, "a3": 0.05}))
    t0 = time.monotonic()
    shape, rep, state = find_critical_2d(init, p, tol=1e-3, max_iter=500,
                                         resolution=256, nq=48,
                                         full_output=True)
    elapsed = time.monotonic() - t0
    _line("descent", iters=state.iteration, el=rep.el_residual, rho=rep.rho,
          seconds=elapsed)
    assert rep.el_residual <= 1e-3
    assert rep.rho <= 1e-2
    assert state.iteration <= 500
    assert elapsed < 300.0


def test_criterion_09_tangential_gradient_tracks_asymmetry():
    p = Params(n=2, s=0.5, alpha=0.5, eps=1e-3)
    sups, mus = [], []
    for a in (0.04, 0.02, 0.01):
        S = StarShape2D((0.0, 0.0), 1.0, [0.0, 0.0, a])
        points = boundary_fields(S, p, 128, 32).mesh.points
        sups.append(max(abs(tangential_grad_potential(S, x, p.alpha, nq=32))
                        for x in points))
        mus.append(ball_map_mu(S))
    ratios = [sups[i + 1] / sups[i] for i in range(2)]
    _line("tangential linearity", ratios=tuple(round(r, 4) for r in ratios),
          sup_over_mu=tuple(round(s / m, 4) for s, m in zip(sups, mus)))
    for r in ratios:
        assert 0.35 <= r <= 0.65


def test_criterion_10_csv_output_is_thread_independent(tmp_path):
    star = volume_project(fourier_shape({"r0": 1.0, "a3": 0.05}))
    geom = tmp_path / "star.json"
    save_geometry(star, geom)
    conf = tmp_path / "run.conf"
    conf.write_text(
        "command = curvature\n"
        f"geometry = {geom}\n"
        "s = 0.5\nalpha = 0.5\nresolution = 64\nnq = 16\n")
    sweep_conf = tmp_path / "sweep.conf"
    sweep_conf.write_text(
        "command = onedim-sweep\n"
        "s = 0.5\nalpha = 0.5\n"
        "eps_grid = 1e-3,1e-4,1e-5,1e-6\n")

    # the subprocess runs in another directory, so a relative PYTHONPATH entry
    # would not resolve there; put this package's absolute root first
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(nlshape.__file__)))
    pythonpath = os.pathsep.join(
        [pkg_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    checked = []
    for cfg, csv_name in ((conf, "curvature.csv"), (sweep_conf, "onedim-sweep.csv")):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{csv_name}.{threads}"
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=pythonpath)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "nlshape.cli", "--config", str(cfg)],
                cwd=out, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append((out / csv_name).read_bytes())
        assert outs[0] == outs[1]
        checked.append(csv_name)
    _line("determinism", files=checked)
