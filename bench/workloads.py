"""The three benchmark workloads: seeded inputs, one task runner each, and
the output checks that decide whether a task passed.

Every workload is a closed loop with one caller: task i+1 starts when task i
has returned. Inputs are drawn from ``numpy.random.default_rng(seed)`` only,
so one seed always gives the same inputs. Library names are looked up on
their module at call time (``shapeopt.find_critical_2d``, not a local
alias), so the tracer in ``spans.py`` sees every call the benchmark makes.

Thresholds come from the acceptance suite (tests/test_acceptance.py):
criterion 1 for the closed form against the assembled endpoint zeta,
criterion 2 for certified roots, criterion 8 for the descent, and
criterion 4 for the Au1/Au2 volume-pairing identities.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A task returned, but an output check rejected its result."""


def _check(ok: bool, name: str):
    if not ok:
        raise CheckFailed(name)


# -- shared 2D settings -------------------------------------------------------

S_2D = 0.5
ALPHA_2D = 0.5
EPS_2D = 1e-3
RESOLUTION = 256
NQ = 48


def _params_2d():
    from nlshape import sets
    return sets.Params(n=2, s=S_2D, alpha=ALPHA_2D, eps=EPS_2D)


def _perturbed_disk_coeffs(rng, max_amp: float) -> dict:
    """Unit disk plus modes 2..5, each with amplitude
    U(max_amp / 2, max_amp) and a uniform phase."""
    coeffs = {"r0": 1.0}
    amps = rng.uniform(0.5 * max_amp, max_amp, size=4)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
    for k, amp, ph in zip(range(2, 6), amps, phases):
        coeffs[f"a{k}"] = float(amp * math.cos(ph))
        coeffs[f"b{k}"] = float(amp * math.sin(ph))
    return coeffs


def _unit_area_shape(coeffs):
    from nlshape import shapeopt
    return shapeopt.volume_project(shapeopt.fourier_shape(coeffs))


def _warm_2d_rules(nq_list, off_curve: bool):
    """Build the lazily cached quadrature rules the 2D tasks use, through the
    same public calls the tasks make, on an 8-node mesh."""
    from nlshape import functionals, sets
    p = _params_2d()
    disk = sets.StarShape2D((0.0, 0.0), 1.0)
    for nq in nq_list:
        functionals.boundary_fields(disk, p, 8, nq)
        functionals.energy(disk, p, 8, nq)
    if off_curve:
        pts = np.array([[0.1, 0.2]])
        foci = np.arctan2(pts[:, 1], pts[:, 0])
        functionals.potential_at_points(disk, pts, foci, ALPHA_2D, nq_list[0])
        functionals.grad_potential_at_points(disk, pts, foci, ALPHA_2D,
                                             nq_list[0])


# -- descent -------------------------------------------------------------------

DESCENT_TOL = 1e-3      # target residual, also the pass threshold
AREA_TOL = 1e-8
RHO_MAX = 1e-2


def descent_inputs(rng, count, workdir):
    return [_unit_area_shape(_perturbed_disk_coeffs(rng, 0.04))
            for _ in range(count)]


def descent_warm():
    # the final diagnose estimates errors at 2 * nq
    _warm_2d_rules([NQ, 2 * NQ], off_curve=False)


def descent_task(init, index, workdir):
    from nlshape import sets, shapeopt
    shape, report, state = shapeopt.find_critical_2d(
        init, _params_2d(), tol=DESCENT_TOL, resolution=RESOLUTION, nq=NQ,
        full_output=True)
    drift = abs(sets.volume(shape) - 1.0)
    _check(report.el_residual <= DESCENT_TOL, "residual")
    _check(drift <= AREA_TOL, "area")
    _check(report.rho is not None and report.rho < RHO_MAX, "rho")
    return {"iterations": state.iteration,
            "final_residual": report.el_residual, "volume_drift": drift}


# -- audit ---------------------------------------------------------------------

AU_MAX = 1e-2


def audit_inputs(rng, count, workdir):
    """Geometry files for `nlshape diagnose`, one per task."""
    from nlshape import sets
    paths = []
    for i in range(count):
        shape = _unit_area_shape(_perturbed_disk_coeffs(rng, 0.05))
        path = workdir / f"shape{i}.json"
        sets.save_geometry(shape, path)
        paths.append(path)
    return paths


def audit_warm():
    _warm_2d_rules([NQ, 2 * NQ], off_curve=True)


def audit_task(geometry, index, workdir):
    from nlshape import cli
    out = workdir / f"audit{index}"
    code = cli.main([
        "diagnose", "--geometry", str(geometry), "--out", str(out),
        "--s", str(S_2D), "--alpha", str(ALPHA_2D), "--eps", str(EPS_2D),
        "--resolution", str(RESOLUTION), "--nq", str(NQ)])
    _check(code == 0, "exit_code")
    report_path = out / "diagnose.report.json"
    _check(report_path.exists(), "report_written")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    shutil.rmtree(out)
    ids = report.get("identity_residuals") or {}
    errs = report.get("error_estimates") or {}
    for kind in ("Au1", "Au2"):
        _check(ids.get(kind) is not None and ids[kind] <= AU_MAX, kind)
    # the CLI writes non-finite floats as null
    _check(bool(errs) and all(v is not None and math.isfinite(v)
                              for v in errs.values()), "error_estimates")
    finite_ids = [v for v in ids.values() if v is not None]
    return {"identity_residual_max": max(finite_ids),
            "err_est_max": max(errs.values())}


# -- line ----------------------------------------------------------------------

# the default eps grid of `nlshape onedim-sweep`
LINE_EPS_GRID = (1e-3, 3.1623e-4, 1e-4, 3.1623e-5, 1e-5, 3.1623e-6, 1e-6)
LINE_GAPS_PER_TASK = 3
F_ROOT_TOL = 1e-10
ZETA_SPREAD_TOL = 1e-9
CLOSED_FORM_RTOL = 1e-9


def line_inputs(rng, count, workdir):
    """(s, alpha, gaps): (s, alpha) uniform on the open unit square, gaps
    log-uniform in (0.6, 7) for the criterion-1 comparison."""
    tiny = 1e-9
    sa = rng.uniform(tiny, 1.0 - tiny, size=(count, 2))
    gaps = np.exp(rng.uniform(math.log(0.6), math.log(7.0),
                              size=(count, LINE_GAPS_PER_TASK)))
    return [(float(s), float(a), tuple(float(d) for d in g))
            for (s, a), g in zip(sa, gaps)]


def line_warm():
    pass  # the 1D paths are closed forms; nothing is built lazily


def line_task(inputs, index, workdir):
    from nlshape import onedim, sets
    s, alpha, gaps = inputs
    p = sets.Params(n=1, s=s, alpha=alpha, eps=LINE_EPS_GRID[0])
    records, _ = onedim.epsilon_sweep(p, LINE_EPS_GRID)
    f_max = max(abs(r.f_at_root) for r in records)
    _check(f_max <= F_ROOT_TOL, "f_at_root")
    _check(max(r.zeta_spread for r in records) <= ZETA_SPREAD_TOL,
           "zeta_spread")
    worst = 0.0
    for d in gaps:
        f = onedim.f_closed_form(d, p)
        zs = onedim.zeta_endpoints(onedim.TwoIntervalConfig(d=d, params=p))
        scale = max(abs(f), abs(float(zs[0])), abs(float(zs[1])))
        worst = max(worst, abs(f - float(zs[1] - zs[0])) / scale)
    _check(worst <= CLOSED_FORM_RTOL, "closed_form")
    return {"f_at_root_max": f_max}


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    # nominal time per task on the parent commit, in gauge-scaled seconds
    # (gauge.py; 2 shared cores); a run of --seconds S performs
    # round(S / task_seconds) tasks, so the amount of work per run is fixed
    # and wall_s moves with the program's speed
    task_seconds: float
    # operations per task. A line sweep costs about 2 ms or 3.5 ms depending
    # on (s, alpha); the median of such a two-peaked cost jumps between the
    # peaks, while the median of ten-sweep tasks is steady
    ops_per_task: int
    # run tracemalloc in the traced pass; off for line, whose scalar Python
    # code it slows about sevenfold
    trace_memory: bool
    make_inputs: Callable  # (rng, operations, workdir) -> operation inputs
    warm: Callable
    run: Callable  # (operation input, index, workdir) -> accuracy values


WORKLOADS = {
    "descent": Workload(task_seconds=4.6, ops_per_task=1, trace_memory=True,
                        make_inputs=descent_inputs, warm=descent_warm,
                        run=descent_task),
    "audit": Workload(task_seconds=8.0, ops_per_task=1, trace_memory=True,
                      make_inputs=audit_inputs, warm=audit_warm,
                      run=audit_task),
    "line": Workload(task_seconds=0.0165, ops_per_task=10, trace_memory=False,
                     make_inputs=line_inputs, warm=line_warm, run=line_task),
}


def task_count(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.task_seconds))


def make_workdir(root: Path, workload: str, seed: int, tag: str) -> Path:
    path = root / f"{workload}-{seed}-{tag}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
