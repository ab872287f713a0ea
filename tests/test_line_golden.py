"""Frozen line outputs, compared bit for bit.

line_golden.json holds, as float.hex, the outputs of 200 seed-101 line
operations, with (s, alpha) and the three gaps drawn as the benchmark's line
workload draws them: every SweepRecord field of epsilon_sweep over the CLI
eps grid, its fit with the failure messages (or the error the sweep raises),
and f_closed_form and zeta_endpoints at the three gaps; plus sweeps at two
points of small 1 + s - alpha, which raise.

A change that moves these bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_line_golden.py

and names the moved values in CHANGES.md.
"""

import json
import math
import pathlib

import mpmath as mp
import numpy as np

from nlshape import BracketError, GeometryError, onedim
from nlshape.sets import Params

GOLDEN = pathlib.Path(__file__).with_name("line_golden.json")
EPS_GRID = (1e-3, 3.1623e-4, 1e-4, 3.1623e-5, 1e-5, 3.1623e-6, 1e-6)
OPERATIONS = 200
# 1 + s - alpha = 0.03 and 0.013: neither sweep solves an eps; the first
# raises GeometryError (its gaps lie past 2^52), the second BracketError
# (f underflows to 0 at d_eps)
RAISING_SA = [(0.02, 0.99), (0.01, 0.997)]


def _inputs():
    # bench/workloads.line_inputs at seed 101 for 200 operations
    rng = np.random.default_rng(101)
    tiny = 1e-9
    sa = rng.uniform(tiny, 1.0 - tiny, size=(OPERATIONS, 2))
    gaps = np.exp(rng.uniform(math.log(0.6), math.log(7.0),
                              size=(OPERATIONS, 3)))
    out = [(float(s), float(a), [float(d) for d in g])
           for (s, a), g in zip(sa, gaps)]
    return out + [(s, a, []) for s, a in RAISING_SA]


def _sweep(p):
    try:
        records, fit = onedim.epsilon_sweep(p, EPS_GRID)
    except (BracketError, GeometryError) as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    return {
        "records": [[r.eps.hex(), r.d_star.hex(), r.d_eps.hex(),
                     r.diameter.hex(), r.f_at_root.hex(), r.zeta_spread.hex()]
                    for r in records],
        "fit": {"slope": fit["slope"].hex(),
                "slope_target": fit["slope_target"].hex(),
                "slope_rel_err": fit["slope_rel_err"].hex(),
                "c_implied": fit["c_implied"].hex(),
                "failed": [[f["eps"].hex(), f["error"]] for f in fit["failed"]]},
    }


def line_outputs():
    """The frozen outputs, one dict per operation, in input order."""
    ops = []
    for s, alpha, gaps in _inputs():
        p = Params(n=1, s=s, alpha=alpha, eps=EPS_GRID[0])
        op = {"s": s.hex(), "alpha": alpha.hex(), **_sweep(p), "gaps": []}
        for d in gaps:
            zs = onedim.zeta_endpoints(onedim.TwoIntervalConfig(d=d, params=p))
            op["gaps"].append([d.hex(), onedim.f_closed_form(d, p).hex()]
                              + [float(z).hex() for z in zs])
        ops.append(op)
    return ops


def golden_text(ops):
    """The text of line_golden.json for the outputs ops, one line each."""
    return ("[\n" + ",\n".join(json.dumps(op, separators=(",", ":"))
                                for op in ops) + "\n]\n")


def test_line_outputs_are_bitwise_frozen():
    text = GOLDEN.read_text()
    frozen = json.loads(text)
    assert len(frozen) == OPERATIONS + len(RAISING_SA)
    assert sum("raises" in op for op in frozen) >= len(RAISING_SA)
    ops = line_outputs()
    for got, want in zip(ops, frozen):
        assert got == want, (got["s"], got["alpha"])
    # regenerating the file leaves it byte-identical
    assert golden_text(ops) == text


def test_fit_slope_is_the_least_squares_slope():
    # against the least-squares slope of the same records at 50 digits, with
    # x = log(1/eps) and y = log(diameter) of the frozen floats taken exactly
    worst = 0.0
    with mp.workdps(50):
        for op in json.loads(GOLDEN.read_text()):
            if "records" not in op:
                continue
            x = [-mp.log(mp.mpf(float.fromhex(r[0]))) for r in op["records"]]
            y = [mp.log(mp.mpf(float.fromhex(r[3]))) for r in op["records"]]
            mx, my = sum(x) / len(x), sum(y) / len(y)
            ref = (sum((u - mx) * (v - my) for u, v in zip(x, y))
                   / sum((u - mx) ** 2 for u in x))
            slope = float.fromhex(op["fit"]["slope"])
            worst = max(worst, float(abs(slope - ref) / abs(ref)))
    assert worst <= 1e-15


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(line_outputs()))
