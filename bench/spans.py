"""Span tracing from outside the package.

The tracer replaces public functions with timing wrappers at every place a
caller looks them up: the defining module, each ``nlshape`` module that
imported the function by name, and (for ``StarShape2D.radius`` and
``radius_deriv``) the class. A name that no longer exists is skipped and
reported as missing, so a refactor that removes it shows up as absent
metrics, never as a crash.

Each call records a span: name, start, end, parent span, task id, the set
of enclosing span names (as a bitmask), its self time (duration minus the
time its child spans cover) and a work count (angles evaluated, for the
geometry spans). Spans are kept in flat arrays in memory and written once,
when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array

import numpy as np

# span names: "<module>.<function>" or "<module>.<class>.<method>" under
# the nlshape package
TRACED = (
    "sets.StarShape2D.radius",
    "sets.StarShape2D.radius_deriv",
    "functionals.boundary_fields",
    "functionals.energy",
    "functionals.frac_perimeter",
    "functionals.riesz_energy",
    "functionals.set_integral_2d",
    "functionals.potential_at_points",
    "functionals.grad_potential_at_points",
    "diagnostics.diagnose",
    "diagnostics.annulus_deficit_rho",
    "shapeopt.find_critical_2d",
    "shapeopt.el_gradient_step",
    "onedim.epsilon_sweep",
    "onedim.solve_critical_d",
    "onedim.f_closed_form",
    "onedim.zeta_endpoints",
    "quad.pv_pair_integral",
    "cli.main",
)

# spans whose work count is the number of angles evaluated
_COUNT_NODES = ("sets.StarShape2D.radius", "sets.StarShape2D.radius_deriv")


def _node_count(args, kwargs):
    # radius(self, theta): the angles are the one argument after self
    theta = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    return int(np.size(theta))


class Tracer:
    def __init__(self, clock):
        # the run's clock (gauge.Sampler.clock leaves out the gauge's time)
        self.clock = clock
        self.names = list(TRACED)
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.name_id = array("b")
        self.parent = array("l")
        self.task = array("l")
        self.ancestors = array("q")
        self.work = array("q")
        self.task_id = -1
        self.missing = []
        # open spans: [index, time covered by children]
        self._stack = []
        self._mask = 0
        self._undo = []

    # -- installing wrappers -------------------------------------------------

    def install(self):
        for i, name in enumerate(self.names):
            modname, *path = name.split(".")
            owner = sys.modules.get(f"nlshape.{modname}")
            if len(path) == 2:  # a method, replaced on its class
                owner = getattr(owner, path[0], None)
            attr = path[-1]
            target = getattr(owner, attr, None)
            if target is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(i, target, name in _COUNT_NODES)
            if len(path) == 2:
                self._replace(owner, attr, target, wrapper)
                continue
            # every nlshape module that holds this function under its name
            for mname, mod in list(sys.modules.items()):
                if (mname == "nlshape" or mname.startswith("nlshape.")) \
                        and getattr(mod, attr, None) is target:
                    self._replace(mod, attr, target, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name_id, fn, count_nodes):
        tracer = self
        bit = 1 << name_id
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            mask = tracer._mask
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.ancestors.append(mask)
            tracer.work.append(_node_count(args, kwargs) if count_nodes else 0)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            stack.append([idx, 0.0])
            tracer._mask = mask | bit
            t0 = clock()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                _, covered = stack.pop()
                tracer._mask = mask
                dur = t1 - t0
                tracer.end[idx] = t1
                tracer.self_time[idx] = dur - covered
                if stack:
                    stack[-1][1] += dur
        return wrapper

    # -- queries ---------------------------------------------------------------

    def arrays(self):
        """The span table as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int8),
            "start": start, "end": end, "duration": end - start,
            "self_time": np.frombuffer(self.self_time, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int_),
            "task": np.frombuffer(self.task, dtype=np.int_),
            "ancestors": np.frombuffer(self.ancestors, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path, limit):
        """Write the spans of the first tasks, at most `limit` spans but
        never part of a task."""
        t = self.arrays()
        keep = len(t["start"])
        if keep > limit:
            keep = int(np.searchsorted(t["task"], t["task"][limit]))
        np.savez(path, names=np.array(self.names),
                 **{k: v[:keep] for k, v in t.items() if k != "duration"})


class SpanQuery:
    """Sums over the recorded spans, selected by name and enclosing spans."""

    def __init__(self, tracer: Tracer):
        self.t = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.bit = tracer.bit
        self.missing = set(tracer.missing)

    def select(self, name, within=(), outside=()):
        sel = self.t["name_id"] == self.ids[name]
        for other in within:
            sel &= (self.t["ancestors"] & self.bit[other]) != 0
        for other in outside:
            sel &= (self.t["ancestors"] & self.bit[other]) == 0
        return sel

    def available(self, *names):
        return not any(n in self.missing for n in names)

    def count(self, names, within=(), outside=()):
        return float(sum(int(self.select(n, within, outside).sum())
                         for n in names))

    def total(self, field, names, within=(), outside=()):
        return float(sum(float(self.t[field][self.select(n, within, outside)].sum())
                         for n in names))
