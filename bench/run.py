"""nlshape benchmark: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload {descent,audit,line} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics, taken from a traced pass over the same tasks as an untraced pass
run just before it (the difference of the two wall times is the tracing
overhead). The line before the result carries the environment (Python,
numpy and scipy versions, nproc), the task count, the failures by
exception type and, since all times are scaled by the host-speed gauge
(gauge.py), the raw times. See bench/README.md for the workloads and
metrics.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
# spans written to the span file (whole tasks, the first ones of the pass)
SPAN_FILE_LIMIT = 200_000


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("descent", "audit", "line"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    # harness self-check (bench/selfcheck.py): 32-node mesh, nq 16, one task
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(args, tag):
    """Import the package, generate the seeded inputs and build the lazy
    quadrature rules. Returns (workload, inputs, workdir)."""
    import numpy as np
    import nlshape  # noqa: F401
    import nlshape.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    tasks = workloads.task_count(wl, seconds)
    if args.tiny:
        workloads.RESOLUTION, workloads.NQ, tasks = 32, 16, 1
    workdir = workloads.make_workdir(OUT, args.workload, args.seed, tag)
    inputs = wl.make_inputs(np.random.default_rng(args.seed),
                            tasks * wl.ops_per_task, workdir)
    wl.warm()
    return wl, inputs, workdir


def _run_pass(wl, inputs, workdir, sampler, tracer=None, memory=False):
    """Run the tasks in order and time each one, raw and scaled to the
    nominal host speed by the gauge readings taken while it ran."""
    from workloads import CheckFailed

    raw, times, outputs, failures = [], [], [], Counter()
    peak_traced = 0
    ops = wl.ops_per_task
    for first in range(0, len(inputs), ops):
        if tracer is not None:
            tracer.task_id = first // ops
        if memory:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
        t0 = sampler.clock()
        for i in range(first, min(first + ops, len(inputs))):
            try:
                outputs.append(wl.run(inputs[i], i, workdir))
            except CheckFailed as exc:
                failures[f"check:{exc}"] += 1
            except Exception as exc:  # counted as failed; the loop goes on
                failures[type(exc).__name__] += 1
        t1 = sampler.clock()
        raw.append(t1 - t0)
        times.append(sampler.scaled(t0, t1))
        if memory:
            # the task's own peak, above what was held when it started (the
            # span table among it)
            peak_traced = max(peak_traced,
                              tracemalloc.get_traced_memory()[1] - held)
    return {"wall": math.fsum(times), "times": times,
            "raw_wall": math.fsum(raw), "raw_p50": statistics.median(raw),
            "ops": len(inputs), "outputs": outputs, "failures": failures,
            "peak_traced_mb": peak_traced / 2**20}


def _setup_probes(args):
    """Set-up times of fresh processes (import, inputs, rules)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def _failed(result):
    return sum(result["failures"].values())


def _checks_failed(result):
    return sum(n for k, n in result["failures"].items()
               if k.startswith("check:"))


def _end_to_end(result, setup_samples):
    attempted = result["ops"]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (result["wall"], "s"),
        "task_p50_s": (statistics.median(result["times"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": ((attempted - _failed(result)) / attempted, "ratio"),
    }


def _per_layer(tracer, plain, traced):
    from spans import SpanQuery
    import nlshape.quad as quad

    q = SpanQuery(tracer)
    n = len(traced["times"])
    out = {}

    def put(name, unit, needs, fn):
        if q.available(*needs):
            out[name] = (fn(), unit)

    R = ("sets.StarShape2D.radius", "sets.StarShape2D.radius_deriv")
    BF, EN = "functionals.boundary_fields", "functionals.energy"
    SI, DG = "functionals.set_integral_2d", "diagnostics.diagnose"
    PTS = ("functionals.potential_at_points",
           "functionals.grad_potential_at_points")
    FP, AN = "functionals.frac_perimeter", "diagnostics.annulus_deficit_rho"
    FC, ST = "shapeopt.find_critical_2d", "shapeopt.el_gradient_step"
    SOLVE, F = "onedim.solve_critical_d", "onedim.f_closed_form"
    ZE, PV, CLI = "onedim.zeta_endpoints", "quad.pv_pair_integral", "cli.main"

    put("sets.radius_s", "s/task", R, lambda: q.total("duration", R) / n)
    put("sets.radius_nodes", "count/task", R, lambda: q.total("work", R) / n)
    put("functionals.boundary_fields_calls", "count/task", [BF],
        lambda: q.count([BF]) / n)
    put("functionals.boundary_fields_s", "s/task", [BF],
        lambda: q.total("duration", [BF]) / n)
    put("functionals.energy_calls", "count/task", [EN],
        lambda: q.count([EN]) / n)
    put("functionals.energy_s", "s/task", [EN],
        lambda: q.total("duration", [EN]) / n)
    put("functionals.set_integral_s", "s/task", [SI],
        lambda: q.total("duration", [SI]) / n)
    put("functionals.points_s", "s/task", PTS,
        lambda: q.total("duration", PTS) / n)
    put("diagnostics.diagnose_s", "s/task", [DG],
        lambda: q.total("duration", [DG]) / n)
    put("diagnostics.boundary_fields_calls", "count/task", [BF, DG],
        lambda: q.count([BF], within=[DG]) / n)
    put("diagnostics.set_integral_calls", "count/task", [SI, DG],
        lambda: q.count([SI], within=[DG]) / n)
    put("diagnostics.perimeter_calls", "count/task", [FP, DG],
        lambda: q.count([FP], within=[DG]) / n)
    put("diagnostics.annulus_s", "s/task", [AN],
        lambda: q.total("duration", [AN]) / n)
    out["diagnostics.peak_traced_mb"] = (traced["peak_traced_mb"], "MB")
    put("shapeopt.iterations", "count/task", [],
        lambda: _mean(traced["outputs"], "iterations"))
    put("shapeopt.trials", "count/task", [EN, ST],
        lambda: q.count([EN], within=[ST]) / n)
    put("shapeopt.accept_ratio", "ratio", [EN, ST],
        lambda: _ratio(q.count([ST]), q.count([EN], within=[ST])))
    put("shapeopt.sweep_s", "s/task", [BF, FC, DG],
        lambda: q.total("duration", [BF], within=[FC], outside=[DG]) / n)
    put("shapeopt.energy_s", "s/task", [EN, FC, DG],
        lambda: q.total("duration", [EN], within=[FC], outside=[DG]) / n)
    put("shapeopt.final_diagnose_s", "s/task", [DG, FC],
        lambda: q.total("duration", [DG], within=[FC]) / n)
    put("onedim.solve_calls", "count/task", [SOLVE],
        lambda: q.count([SOLVE]) / n)
    put("onedim.f_evals", "count/task", [F], lambda: q.count([F]) / n)
    put("onedim.solve_s", "s/task", [SOLVE],
        lambda: q.total("duration", [SOLVE]) / n)
    put("onedim.zeta_endpoints_s", "s/task", [ZE],
        lambda: q.total("duration", [ZE]) / n)
    put("quad.pv_calls", "count/task", [PV], lambda: q.count([PV]) / n)
    put("quad.pv_s", "s/task", [PV], lambda: q.total("duration", [PV]) / n)
    misses = _rule_misses(quad)
    if misses is not None:
        out["quad.rule_misses"] = (float(misses), "count")
    put("cli.self_s", "s/task", [CLI], lambda: q.total("self_time", [CLI]) / n)
    # accuracy reached (reported, not gated): worst value over the tasks
    for name, key in (("shapeopt.final_residual", "final_residual"),
                      ("shapeopt.volume_drift", "volume_drift"),
                      ("diagnostics.identity_residual_max",
                       "identity_residual_max"),
                      ("diagnostics.err_est_max", "err_est_max"),
                      ("onedim.f_at_root_max", "f_at_root_max")):
        out[name] = (_worst(traced["outputs"], key), "1")
    out["trace.spans"] = (len(q.t["start"]) / n, "count/task")
    # raw times: tracemalloc slows the gauge's own loop far more than the
    # traced program, so scaled times of the traced pass mean nothing
    overhead = traced["raw_wall"] - plain["raw_wall"]
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / plain["raw_wall"], "ratio")
    # failed operations of the traced pass, by kind
    fails = traced["failures"]
    known = ("ValueError", "GeometryError", "BracketError", "OverflowError")
    for kind in known:
        out[f"failed.{kind}"] = (float(fails.get(kind, 0)), "count")
    out["failed.check"] = (float(sum(v for k, v in fails.items()
                                     if k.startswith("check:"))), "count")
    out["failed.other"] = (float(sum(
        v for k, v in fails.items()
        if k not in known and not k.startswith("check:"))), "count")
    return out


def _mean(outputs, key):
    vals = [o[key] for o in outputs if key in o]
    return float(statistics.fmean(vals)) if vals else 0.0


def _worst(outputs, key):
    vals = [o[key] for o in outputs if key in o]
    return float(max(vals)) if vals else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _rule_misses(quad):
    total = 0
    for name in ("jacobi_half_rule", "ladder_half_rule"):
        info = getattr(getattr(quad, name, None), "cache_info", None)
        if info is None:
            return None
        total += info().misses
    return total


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "nlshape" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    sampler = gauge.Sampler()
    sampler.start()
    t_setup = sampler.clock()
    workdir = None
    try:
        wl, inputs, workdir = _setup(args, f"p{os.getpid()}")
        setup = sampler.scaled(t_setup, sampler.clock())
        if not args.setup_probe:
            plain = _run_pass(wl, inputs, workdir, sampler)
        if args.trace and not args.setup_probe:
            from spans import Tracer
            tracer = Tracer(sampler.clock)
            tracer.install()
            if wl.trace_memory:
                tracemalloc.start()
            try:
                traced = _run_pass(wl, inputs, workdir, sampler, tracer,
                                   memory=wl.trace_memory)
            finally:
                tracemalloc.stop()
                tracer.uninstall()
    finally:
        sampler.stop()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_probe:
        print(repr(setup))
        return 0

    if args.trace:
        metrics = _per_layer(tracer, plain, traced)
        tracer.save(OUT / f"spans-{args.workload}.npz", SPAN_FILE_LIMIT)
        result, missing = traced, tracer.missing
    else:
        metrics = _end_to_end(plain, [setup] + _setup_probes(args))
        result, missing = plain, []

    info = dict(_environment(), workload=args.workload, seed=args.seed,
                trace=args.trace, tasks=len(result["times"]),
                operations=result["ops"],
                raw_wall_s=result["raw_wall"], raw_task_p50_s=result["raw_p50"],
                gauge_ms=1e3 * sampler.median_reading(),
                failures=dict(sorted(result["failures"].items())),
                missing_spans=missing)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": _checks_failed(plain) == 0 and _checks_failed(result) == 0,
        "attempted": result["ops"],
        "failed": _failed(result),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
