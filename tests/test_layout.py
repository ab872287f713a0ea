"""The package's layout rules, one row of RULES per rule, with the reason
for it above the row. A row's finder reads (module, node) for every node of
the package's modules (TREES) outside the row's owner functions; a failing
row lists its hits as path:line."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import types
from typing import Callable, NamedTuple, Optional

import pytest

import nlshape
from nlshape.diagnostics import IDENTITY_KINDS

PACKAGE = pathlib.Path(nlshape.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
# {module name: tree} for every module of the package, parsed once
TREES = {path.relative_to(PACKAGE).with_suffix("").as_posix():
         ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.rglob("*.py"))}


def _nodes(trees, owners=()):
    """(module, node) for every node of trees outside the functions F of
    modules M named in owners, each "M.F" (the whole of trees where owners
    is empty)."""
    for mod, tree in trees.items():
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and f"{mod}.{fn.name}" in owners for node in ast.walk(fn)}
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


# modules that importing nlshape.cli and a line run leave unloaded
# (import-footprint)
UNLOADED = ("scipy.optimize", "numpy.polynomial")
# what each entry does in a fresh interpreter (import-footprint): the
# package modules it executes, exactly, and the modules it leaves unloaded.
# A module that LazyLoader registered is executed once its type is the plain
# module type, since reading any of its attributes executes it
ONEDIM_RUN = ("import nlshape.cli\n"
              "if nlshape.cli.main(['onedim-sweep', '--s', '0.5', "
              "'--alpha', '0.5']):\n"
              "    raise SystemExit(1)")
FOOTPRINT = {
    "import nlshape": ({"nlshape", "nlshape.errors"}, ("numpy",)),
    "import nlshape.cli": (
        {"nlshape", "nlshape.cli", "nlshape.errors", "nlshape.sets"},
        UNLOADED),
    ONEDIM_RUN: ({"nlshape", "nlshape.cli", "nlshape.errors", "nlshape.onedim",
                  "nlshape.quad", "nlshape.sets"}, UNLOADED),
}
_PROBE = """import json, sys, types
{entry}
print(json.dumps([sorted(name for name, m in sys.modules.items()
                         if name.partition(".")[0] == "nlshape"
                         and type(m) is types.ModuleType),
                  sorted(set({unloaded!r}) & set(sys.modules))]))
"""


def _footprint(nodes):
    """Where an entry of FOOTPRINT, run in a fresh interpreter on the package
    as nodes give it (a module whose tree is not the one of TREES is written
    out from its tree, in a copy of the package), executes other package
    modules than its row names or loads one the row leaves unloaded."""
    changed = {mod: node for mod, node in nodes
               if isinstance(node, ast.Module) and node is not TREES.get(mod)}
    hits = []
    with tempfile.TemporaryDirectory() as tmp:
        root = PACKAGE.parent
        if changed:
            root = pathlib.Path(tmp, "src")
            shutil.copytree(PACKAGE, root / PACKAGE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            for mod, tree in changed.items():
                (root / PACKAGE.name / f"{mod}.py").write_text(
                    ast.unparse(tree), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root), os.environ.get("PYTHONPATH")])))
        for entry, (executed, unloaded) in FOOTPRINT.items():
            proc = subprocess.run(
                [sys.executable, "-c",
                 _PROBE.format(entry=entry, unloaded=unloaded)],
                env=env, cwd=tmp, capture_output=True, text=True)
            if proc.returncode:
                hits.append(f"{entry!r}: {proc.stderr}")
                continue
            ran, loaded = json.loads(proc.stdout)
            if set(ran) != executed:
                hits.append(f"{entry!r} executes {ran}, not {sorted(executed)}")
            hits += [f"{entry!r} loads {name}" for name in loaded]
    return hits


def _dependencies():
    """The module names of [project].dependencies in PYPROJECT, read by a
    regex (3.10 has no tomllib)."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]",
                      PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)[1]
    return {name.lower().replace("-", "_")
            for name in re.findall(r"[\"']([A-Za-z0-9_.-]+)", block)}


def _top_modules(node):
    """The top-level modules that node imports, where it is an absolute
    import."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _runtime_imports(nodes):
    """The imports that are neither the standard library, numpy nor
    relative, and a mismatch between the third-party top-level modules
    imported and the runtime dependencies."""
    imports = [(mod, node, top) for mod, node in nodes for top in _top_modules(node)]
    third = {top for _, _, top in imports} - sys.stdlib_module_names
    hits = [f"{PACKAGE.name}/{mod}.py:{node.lineno}"
            for mod, node, top in imports if top in third - {"numpy"}]
    deps = _dependencies()
    if deps != third:
        hits.append(f"pyproject.toml: dependencies {sorted(deps)}, "
                    f"imported {sorted(third)}")
    return hits


def _public_parameters(modules):
    """(module, label, fn, parameter) for each parameter of a function in the
    __all__ of one of modules, or of the constructor or a public method of a
    class in it."""
    for mod in sorted(modules):
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
                    params = inspect.signature(fn).parameters.values()
                except (TypeError, ValueError):
                    continue
                yield from ((mod, label, fn, p) for p in params)


def _private_parameters(nodes):
    """label(parameter) for each public parameter named "_..."."""
    return [f"{mod}.{label}({p.name})"
            for mod, label, _, p in _public_parameters({m for m, _ in nodes})
            if p.name.startswith("_")]


# module.function.parameter of every bool-default public parameter
PUBLIC_FLAGS = {
    # the benchmark's descent reads the state the solve returns with it
    "shapeopt.find_critical_2d.full_output",
    # two callers need different values: the descent's final diagnose skips
    # the identities, the CLI's and a user's run them
    "diagnostics.diagnose.with_identities",
}


def _public_flags(nodes):
    """The bool-default public parameters, as module.function.parameter of
    the module defining the function, that are not in PUBLIC_FLAGS, and the
    entries of PUBLIC_FLAGS of a module read that are missing."""
    read = {mod for mod, _ in nodes}
    found = {f"{fn.__module__.removeprefix(PACKAGE.name + '.')}."
             f"{fn.__qualname__}.{p.name}"
             for _, _, fn, p in _public_parameters(read)
             if isinstance(p.default, bool)}
    return (sorted(found - PUBLIC_FLAGS)
            + [f"missing {flag}" for flag in sorted(PUBLIC_FLAGS - found)
               if flag.split(".")[0] in read])


def _block_budgets(nodes):
    """The reads of _BLOCK_NODES and _PAIR_BLOCK that are not an argument of
    a call of _blocks."""
    nodes = list(nodes)
    args = {id(arg) for _, n in nodes if _calls(n, "_blocks") for arg in n.args}
    return _scan(lambda mod, n: isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)
                 and n.id in {"_BLOCK_NODES", "_PAIR_BLOCK"}
                 and id(n) not in args)(nodes)


def _class_fields(module, name, expected):
    """A finder listing the class name of module, as path:line with its
    fields, where its annotated fields are not expected, in order; a hit
    also where module holds no such class."""
    def find(nodes):
        classes = [(mod, n) for mod, n in nodes if mod == module
                   and isinstance(n, ast.ClassDef) and n.name == name]
        hits = []
        for mod, n in classes:
            fields = [s.target.id for s in n.body
                      if isinstance(s, ast.AnnAssign)]
            if fields != list(expected):
                hits.append(f"{PACKAGE.name}/{mod}.py:{n.lineno}: "
                            f"fields {fields}")
        return hits if classes else [f"{module}.py holds no class {name}"]
    return find


# the fields of shapeopt.OptimizerState: the trajectory of a descent
DESCENT_STATE = ("shape", "iteration", "residual_history")
# the fields of sets.Params: the problem F_eps = P_s + eps R_alpha
PARAMS_FIELDS = ("n", "s", "alpha", "eps")


def _has_flag(fn):
    """Whether fn takes a parameter named on_curve or one with a bool
    default."""
    a = fn.args
    return (any(p.arg == "on_curve" for p in a.posonlyargs + a.args + a.kwonlyargs)
            or any(isinstance(d, ast.Constant) and isinstance(d.value, bool)
                   for d in a.defaults + a.kw_defaults))


class Rule(NamedTuple):
    find: Callable  # (module, node) pairs -> hits
    owners: tuple = ()  # the "module.function"s whose bodies are exempt
    allowed: int = 0
    fault: Optional[tuple] = None  # (module, source) the rule was written against


RULES = {
    # a process compiles every module it executes from source where no
    # bytecode is written, so a line run that executed the whole package
    # built about 1900 lines of 2D code it never called. So importing the
    # package executes errors alone (the rest are registered lazily and
    # execute when first read), cli reads the computing modules at run time
    # and importing it executes sets alone, and an onedim command executes
    # none of the 2D modules. scipy.optimize costs about 23 MB RSS at import,
    # paid by every run of every workload; the package loads no part of
    # scipy at import. And numpy.polynomial (about 7 ms and 0.7 MB) serves
    # only the Gauss-Legendre rules of quad.leggauss, which the descent and
    # the line never build, so it is imported there, on first use. Other
    # tests load all of these, so a fresh interpreter shows what runs
    "import-footprint": Rule(_footprint, fault=(
        "cli", (PACKAGE / "cli.py").read_text(encoding="utf-8")
        + "from .functionals import energy\n")),
    # a third-party import is a runtime dependency for every user, and the
    # package needs none beyond numpy (scipy serves the tests only). So every
    # import of the package is the standard library, numpy or relative, and
    # [project].dependencies of pyproject.toml names exactly the third-party
    # modules imported
    "runtime-imports": Rule(_runtime_imports, fault=(
        "functionals", "from scipy.special import betainc")),
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
        owners=("shapeopt._residual_map",),
        fault=("shapeopt", "def el_gradient_step(zeta): return rfft(zeta)")),
    # a descent's settings (Params, resolution, nq, k_max) are arguments of
    # el_gradient_step, and the state is the trajectory alone. A setting
    # kept on the state has a second owner beside the step's argument, and a
    # state built directly skips the check its builder made (a mode cap of 0
    # collapsed the shape to a disk). So OptimizerState's annotated fields
    # are exactly DESCENT_STATE
    "descent-state": Rule(
        _class_fields("shapeopt", "OptimizerState", DESCENT_STATE), fault=(
            "shapeopt", "class OptimizerState:\n    shape: object\n"
            "    mesh_resolution: int = 256")),
    # the boundary condition zeta = kappa + 2 eps V is the first variation
    # of F_eps, with both constants measured (calibrate_variation_constant
    # the 1, the Au2 identity the 2). A constant on Params lets zeta be the
    # variation of no energy the package computes (c = 3 moved the line's
    # root to a gap where |dF_eps/dd| is a third of |dP_s/dd|), and any
    # (c, eps) is the problem at eps' = c eps / 2. Likewise a volume m is the
    # problem at eps = m ** (1 - alpha/n + s/n), so a mass beside eps is a
    # second name for it. So Params' annotated fields are exactly
    # PARAMS_FIELDS
    "params-fields": Rule(_class_fields("sets", "Params", PARAMS_FIELDS),
                          fault=("sets", "class Params:\n    n: int\n"
                                 "    c_coupling: float = 2.0")),
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
        owners=("sets._is_real",), fault=(
            "sets", "def mesh_angles(resolution): return int(resolution)")),
    # every exponent is refused by sets._require_real, as every other real
    # is: s outside (0, 1) and alpha outside (0, n), or (0, n - 1) where V's
    # gradient meets the boundary, NaN included. A range test elsewhere is a
    # second copy with its own message, and a new entry that forgets it
    # answers silently. So no comparison has a name or attribute s or alpha
    # on one side and the constant 0 on another (_require_real compares its
    # value's float, and diagnose's alpha < 1 gates compare with no 0 and
    # are not range tests)
    "exponent-ranges": Rule(_scan(
        lambda mod, n: any(isinstance(s, ast.Constant)
                           and not isinstance(s.value, bool) and s.value == 0
                           for s in _sides(n))
        and any(_ident(s) in {"s", "alpha"} for s in _sides(n))),
        fault=("functionals", "def riesz_energy(S, alpha): return alpha > 0")),
    # every real value a caller hands the package (the exponents, Params'
    # eps, a tol, a gap, a scale factor, the numbers a geometry is
    # built from) is refused by one function, sets._require_real, as the
    # integer knobs are by theirs: a bool, a string, a complex number, NaN
    # and a value whose float lies outside its range raise the documented
    # error with one message. A real test
    # elsewhere is a second copy whose message and range drift, so the
    # package calls _is_real only inside those two owners
    "real-values": Rule(_scan(lambda mod, n: _calls(n, "_is_real")),
                        owners=("sets._require_count", "sets._require_real"),
                        fault=("diagnostics", "def eta(delta): "
                               "return _is_real(delta) and delta >= 0.0")),
    # and so one function writes the range message: a copy that tests the
    # value before converting it passes one whose float rounds onto an open
    # bound (an s of Fraction(1, 10**400) was stored as 0.0). So the text
    # "must lie in" appears in a string only inside sets._require_real
    "range-message": Rule(_scan(
        lambda mod, n: isinstance(n, ast.Constant) and isinstance(n.value, str)
        and "must lie in" in n.value),
        owners=("sets._require_real",), fault=(
            "sets", "def _require_exponent(name, value, upper):\n"
            "    if not 0.0 < value < upper:\n"
            "        raise ParamError(f'{name} must lie in (0, {upper:g})')")),
    # the package computes in n in {1, 2}, the paper's line and plane, and
    # one function, sets._require_dimension, refuses every other n where it
    # enters (Params, a ball's center). A bound on n elsewhere is a second
    # owner of that set, as calibrate's own n not in (1, 2) was beside the
    # base kernel that refused a ball in n >= 3 at its first field. So no
    # comparison orders a name or attribute n against a constant, and none
    # tests n for membership (== and != name the one dimension an
    # algorithm serves)
    "dimension-set": Rule(_scan(
        lambda mod, n: isinstance(n, ast.Compare)
        and any(_ident(s) == "n" for s in _sides(n))
        and (any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)
             or any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in n.ops)
             and any(isinstance(s, ast.Constant) for s in _sides(n)))),
        fault=("diagnostics", "def calibrate(n):\n    if n not in (1, 2):\n"
               "        raise ValueError(n)")),
    # a public bool knob is a second entry point for every caller to learn
    # and every test to cover: the descent's with_identities only passed a
    # flag on to diagnose, which a caller runs on the solved shape at no
    # sweep, and the with_error of frac_perimeter and riesz_energy was a
    # second owner of diagnose's nq-doubling estimate. So the bool-default
    # parameters of the package's public functions are exactly PUBLIC_FLAGS
    "public-flags": Rule(_public_flags, fault=(
        "fault", "__all__ = ['solve']\ndef solve(p, verbose=False): pass")),
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
    # how many rows a batched loop takes at once is decided by one function,
    # sets._blocks, from the loop's measured budget (_BLOCK_NODES on and off
    # the curve and in the interior rule, _PAIR_BLOCK in the pair scan): a
    # loop that divides the budget itself cuts its own blocks, as the four
    # did that ended a 256/48 sweep on a block of one target. So the package
    # reads the two budgets only as an argument of _blocks
    "block-policy": Rule(_block_budgets, fault=(
        "functionals", "def _loop(n): step = _BLOCK_NODES // 96")),
}


@pytest.mark.parametrize("name", RULES)
def test_layout_rule(name):
    rule = RULES[name]
    hits = rule.find(_nodes(TREES, rule.owners))
    assert len(hits) <= rule.allowed, (
        f"{name}: {len(hits)} hits, at most {rule.allowed}\n" + "\n".join(hits))


@pytest.mark.parametrize("name", [name for name in RULES if RULES[name].fault])
def test_no_row_is_blind(name, monkeypatch):
    rule = RULES[name]
    mod, source = rule.fault
    module = types.ModuleType(f"{PACKAGE.name}.{mod}")
    # registered as a module of the package before it runs, as an import
    # does, so its relative imports and dataclasses resolve
    module.__package__ = PACKAGE.name
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(source, module.__dict__)
    assert len(rule.find(_nodes({mod: ast.parse(source)}, rule.owners))) > rule.allowed


# the package namespace: each public name is read off its owner module

def test_each_public_name_is_its_owners_object():
    names = [name for names in nlshape._EXPORTS.values() for name in names]
    assert nlshape.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)
    for mod, owned in nlshape._EXPORTS.items():
        owner = importlib.import_module(f"{PACKAGE.name}.{mod}")
        for name in owned:
            obj = getattr(nlshape, name)
            assert obj is getattr(owner, name), name
            # the table names the module that defines it
            assert getattr(obj, "__module__", owner.__name__) == owner.__name__
    assert set(nlshape.__all__) <= set(dir(nlshape))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nlshape.no_such_name
    assert not hasattr(nlshape, "no_such_name")


def test_a_patch_on_the_owner_is_what_the_package_returns(monkeypatch):
    from nlshape import onedim
    original = onedim.solve_critical_d

    def patched(p, f_tol=onedim.F_TOL):
        return 0.0
    monkeypatch.setattr(onedim, "solve_critical_d", patched)
    assert nlshape.solve_critical_d is patched
    monkeypatch.undo()
    assert nlshape.solve_critical_d is original
