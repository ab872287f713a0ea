"""The package's layout rules, one row of RULES per rule, with the reason
for it above the row. A row's finder reads (module, node) for every node of
the package's modules (TREES) outside the row's owner function; a failing
row lists its hits as path:line."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types
from typing import Callable, NamedTuple, Optional

import pytest

import nlshape
from nlshape.diagnostics import IDENTITY_KINDS

PACKAGE = pathlib.Path(nlshape.__file__).parent
# {module name: tree} for every module of the package, parsed once
TREES = {path.relative_to(PACKAGE).with_suffix("").as_posix():
         ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.rglob("*.py"))}


def _nodes(trees, owner=None):
    """(module, node) for every node of trees outside the function F of
    module M, owner = "M.F" (the whole of trees where owner is None)."""
    module, _, name = (owner or "").rpartition(".")
    for mod, tree in trees.items():
        inside = {id(node) for fn in ast.walk(tree) if mod == module
                  and isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and fn.name == name for node in ast.walk(fn)}
        yield from ((mod, node) for node in ast.walk(tree)
                    if id(node) not in inside)


def _scan(test):
    """A finder listing, as path:line, the nodes where test(module, node)."""
    return lambda nodes: [f"{PACKAGE.name}/{mod}.py:{node.lineno}"
                          for mod, node in nodes if test(mod, node)]


def _calls(node, *names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def _names(node):
    """The plain names that node reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _ident(node):
    """The name of a name or an attribute, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _sides(node):
    return (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()


def _loads_scipy_optimize(nodes):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nlshape.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True)
    return ([] if proc.stdout.strip() == "False" else
            [proc.stderr or "importing nlshape.cli loads scipy.optimize"])


def _private_parameters(nodes):
    """label(parameter) for each parameter named "_..." of a function in the
    __all__ of a module read, or of the constructor or a public method of a
    class in it."""
    hits = []
    for mod in sorted({mod for mod, _ in nodes}):
        module = importlib.import_module(
            PACKAGE.name + ("" if mod == "__init__" else "." + mod))
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn)
                            for attr, fn in inspect.getmembers(obj)
                            if (attr == "__init__" or not attr.startswith("_"))
                            and (inspect.isfunction(fn) or inspect.ismethod(fn))]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                hits += [f"{mod}.{label}({p})" for p in params if p.startswith("_")]
    return hits


def _has_flag(fn):
    """Whether fn takes a parameter named on_curve or one with a bool
    default."""
    a = fn.args
    return (any(p.arg == "on_curve" for p in a.posonlyargs + a.args + a.kwonlyargs)
            or any(isinstance(d, ast.Constant) and isinstance(d.value, bool)
                   for d in a.defaults + a.kw_defaults))


class Rule(NamedTuple):
    find: Callable  # (module, node) pairs -> hits
    owner: Optional[str] = None  # "module.function" whose body is exempt
    allowed: int = 0
    fault: Optional[tuple] = None  # (module, source) the rule was written against


RULES = {
    # scipy.optimize costs about 23 MB RSS at import, paid by every run of
    # every workload; the package loads no part of scipy at import
    # (scipy.special only on first use, for balls in n >= 3). Other tests
    # load scipy.optimize, so a fresh interpreter shows what loads
    "import-footprint": Rule(_loads_scipy_optimize),
    # bad input is refused with the documented error type; an assert would
    # vanish under python -O
    "no-assert": Rule(_scan(lambda mod, n: isinstance(n, ast.Assert)),
                      fault=("quad", "def _rule(nq): assert nq > 0")),
    # a value the caller already holds is not handed over through a private
    # keyword: what a shape determines is kept on the shape. So no function
    # in the __all__ of a module of the package, and no public method or
    # constructor of a class in it, takes a parameter named "_..."
    "private-parameters": Rule(_private_parameters, fault=(
        "fault", "__all__ = ['solve']\ndef solve(p, _fields=None): pass")),
    # which algorithms serve which geometry is decided once: each geometry
    # class owns its closed forms (sets), and functionals._kernel's table
    # picks its quadrature. A second test of the geometry type duplicates
    # that decision, and a new geometry (a gap-coded interval set, say) would
    # need a branch in it too. So at most three isinstance tests name
    # IntervalSet, StarShape2D or Ball: the one refusal of non-geometries
    # (sets._geometry) and the exact-ball branches of annulus_deficit_rho and
    # ball_map_mu (rho = mu = 0)
    "geometry-dispatch": Rule(_scan(
        lambda mod, n: _calls(n, "isinstance") and len(n.args) == 2
        and {"IntervalSet", "StarShape2D", "Ball"} & _names(n.args[1])),
        allowed=3, fault=("functionals",
                          "def volume(S): " + "isinstance(S, Ball); " * 4)),
    # each named identity has one implementation, in the table
    # diagnostics._IDENTITIES that identity_check dispatches and diagnose
    # runs. Code that compares a string with an identity's name dispatches on
    # it a second time, beside the table, so the package holds no such == or
    # != comparison
    "identity-dispatch": Rule(_scan(
        lambda mod, n: isinstance(n, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in n.ops)
        and any(isinstance(s, ast.Constant) and isinstance(s.value, str)
                and s.value in IDENTITY_KINDS for s in _sides(n))),
        fault=("diagnostics", "def identity_check(kind): return kind == 'Au1'")),
    # the descent reads a shape through one function, shapeopt._residual_map:
    # its kept sweep, lambda_hat, the residual, the modes of zeta -
    # lambda_hat and F_eps. The stopping test, the step and every candidate
    # call it, so a Newton-Krylov solve or a Jacobian of the residual reads
    # the same map. So shapeopt.py uses _sweep, lambda_hat_and_residual and
    # rfft nowhere outside that function (the import line aside)
    "descent-residual-map": Rule(_scan(
        lambda mod, n: mod == "shapeopt"
        and isinstance(n, (ast.Name, ast.Attribute))
        and _ident(n) in {"_sweep", "lambda_hat_and_residual", "rfft"}),
        owner="shapeopt._residual_map",
        fault=("shapeopt", "def el_gradient_step(zeta): return rfft(zeta)")),
    # every integer knob (resolution, nq, k_max, max_iter, n) is refused by
    # one function, sets._require_count: a bool, a non-integer and a value
    # below the knob's least raise ParamError. int() of a knob would truncate
    # 8.5 to 8 and read True as 1 instead. Its bool test, and that of every
    # real-valued check, is sets._is_real's; one elsewhere, by isinstance(v,
    # bool) or type(v) is bool, is a second copy. So the package applies
    # int() to no name resolution, nq, k_max or n, and tests for bool only
    # inside sets._is_real
    "integer-knobs": Rule(_scan(
        lambda mod, n: (_calls(n, "int") and len(n.args) == 1
                        and isinstance(n.args[0], ast.Name)
                        and n.args[0].id in {"resolution", "nq", "k_max", "n"})
        or (_calls(n, "isinstance", "issubclass") and len(n.args) == 2
            and "bool" in _names(n.args[1]))
        or any(_ident(s) == "bool" for s in _sides(n))),
        owner="sets._is_real", fault=(
            "sets", "def mesh_angles(resolution): return int(resolution)")),
    # every exponent is refused by one function, sets._require_exponent: s
    # outside (0, 1) and alpha outside (0, n), or (0, n - 1) where V's
    # gradient meets the boundary, NaN included. A range test elsewhere is a
    # second copy with its own message, and a new entry that forgets it
    # answers silently. So no comparison outside it has a name or attribute s
    # or alpha on one side and the constant 0 on another (diagnose's
    # alpha < 1 gates compare with no 0 and are not range tests)
    "exponent-ranges": Rule(_scan(
        lambda mod, n: any(isinstance(s, ast.Constant)
                           and not isinstance(s.value, bool) and s.value == 0
                           for s in _sides(n))
        and any(_ident(s) in {"s", "alpha"} for s in _sides(n))),
        owner="sets._require_exponent",
        fault=("functionals", "def riesz_energy(S, alpha): return alpha > 0")),
    # each 2D quantity (kappa, V, grad V, grad V . tau, P_s, R_alpha) is one
    # functionals._Field, and the on-curve and off-curve drivers take fields,
    # so the caller picks the rule from where the target lies and not through
    # a switch. A flag argument is a second dispatch beside the table. So no
    # private function of the package has a parameter named on_curve or a
    # parameter with a bool default
    "no-flags": Rule(_scan(
        lambda mod, n: isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name.startswith("_") and _has_flag(n)),
        fault=("functionals", "def _batch(nodes, flag=False): pass")),
}


@pytest.mark.parametrize("name", RULES)
def test_layout_rule(name):
    rule = RULES[name]
    hits = rule.find(_nodes(TREES, rule.owner))
    assert len(hits) <= rule.allowed, (
        f"{name}: {len(hits)} hits, at most {rule.allowed}\n" + "\n".join(hits))


# the import-footprint row reads no module source, so it takes no fault
@pytest.mark.parametrize("name", [name for name in RULES if RULES[name].fault])
def test_no_row_is_blind(name, monkeypatch):
    rule = RULES[name]
    mod, source = rule.fault
    module = types.ModuleType(f"{PACKAGE.name}.{mod}")
    exec(source, module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    assert len(rule.find(_nodes({mod: ast.parse(source)}, rule.owner))) > rule.allowed
