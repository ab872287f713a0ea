"""Command-line entry point.

Every run reads an optional flat key=value config file, applies command-line
flag overrides on top, executes one command, and writes its numeric output
as CSV next to a JSON metadata sidecar. The CSV bodies are deterministic:
fixed column order, floats printed with repr-faithful precision, newline
line endings, and no clocks or host information. Timestamps and wall time
live only in the sidecar, so reruns with the same config produce
byte-identical CSV files regardless of machine or configured thread count.

One table, _KEYS, declares every key: its caster, its help text and the
commands that read it, each of which takes it as a flag. load_config casts
file values by it, and the parser builds every subcommand's flags from it.
Config-file keys are global, since one file may drive several commands: a
file may set a key the command does not read, where the same flag is
refused (exit 2). The sidecar records the keys the command read under
settings and names the others under unread_keys.

Exit codes: 0 success; 1 domain failure (bad geometry, no root found,
stalled descent, quadrature breakdown); 2 configuration or usage errors,
every ParamError among them: a parameter out of its range is a
configuration error wherever the library refuses it. A config file that
cannot be read as UTF-8 text, a geometry path that cannot be read (a
directory) and an output directory that cannot be made (an existing file)
are configuration errors too; geometry bytes that are not UTF-8 are a bad
geometry.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

# the computing modules are read at run time, so a command executes only
# those it reaches (an onedim command none of the 2D code)
from . import __version__, diagnostics, functionals, onedim, shapeopt
from .errors import ConfigError, ConfigNotFoundError, NlshapeError, ParamError
from .sets import (Params, StarShape2D, _require_count, canonical,
                   geometry_to_dict, load_geometry, mesh_angles, volume)

__all__ = ["main", "load_config", "run_command", "RunConfig"]

COMMANDS = ("energy", "curvature", "potential", "diagnose", "onedim-root",
            "onedim-sweep", "optimize2d", "calibrate")
_ONEDIM, _OPT = COMMANDS[4:6], ("optimize2d",)
# the commands that read a geometry, build Params and mesh a boundary
_GEOMETRY, _PARAMS = COMMANDS[:4] + _OPT, COMMANDS[:-1]
_MESH = _GEOMETRY + ("calibrate",)

# every key a config file or flag may set: name -> (caster, help, the
# commands that read it and take it as a flag), in each subcommand's flag
# order
_KEYS = {
    "command": (str, "command to run (overridden by the CLI subcommand)", ()),
    "out": (str, "output directory (default: current)", COMMANDS),
    "prefix": (str, "basename for emitted files (default: command name)",
               COMMANDS),
    "n": (int, "ambient dimension, 1 or 2", COMMANDS),
    "s": (float, "perimeter order in (0, 1)", COMMANDS),
    "alpha": (float, "repulsion exponent in (0, n)", _PARAMS),
    "eps": (float, "coupling strength (nonnegative)", _PARAMS),
    "resolution": (int, "2D boundary mesh size", _MESH),
    "nq": (int, "quadrature nodes per half-side", _MESH),
    "geometry": (str, "geometry JSON file", _GEOMETRY),
    "point": (str, "evaluate at one point: x[,y]", ("potential",)),
    "f_tol": (float, "residual bound certified at the root", _ONEDIM),
    "eps_grid": (str, "comma-separated eps values", ("onedim-sweep",)),
    "k_max": (int, "highest retained Fourier mode", _OPT),
    "tol": (float, "target residual", _OPT),
    "max_iter": (int, "iteration cap", _OPT),
    "radii": (str, "comma-separated ball radii to measure at", ("calibrate",)),
}

# optimize2d's own flags for two keys: key -> (flag, help)
_OPTIMIZE2D_FLAGS = {
    "geometry": ("--init", "initial geometry JSON (default: unit-area disk)"),
    "k_max": ("--modes", "highest retained Fourier mode"),
}

_DEFAULT_EPS_GRID = "1e-3,3.1623e-4,1e-4,3.1623e-5,1e-5,3.1623e-6,1e-6"


@dataclass
class RunConfig:
    """One command's fully merged settings (file, then flag overrides)."""

    command: Optional[str] = None
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"missing required key: {key}")
        return self.values[key]

    def params(self, default_n: int) -> Params:
        return Params(n=self.get("n", default_n), s=self.require("s"),
                      alpha=self.require("alpha"), eps=self.get("eps", 0.0))


def load_config(path) -> RunConfig:
    """Parse a flat key=value file; '#' starts a comment, blank lines skip."""
    p = Path(path)
    if not p.exists():
        raise ConfigNotFoundError(f"config file not found: {path}")
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    command = None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            val = _KEYS[key][0](raw)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: invalid value for {key}: {raw!r}")
        if key == "command":
            if val not in COMMANDS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown command {val!r} "
                    f"(choose from {', '.join(COMMANDS)})")
            command = val
        else:
            values[key] = val
    return RunConfig(command=command, values=values)


def _merged_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.command:
        cfg.command = args.command
    if cfg.command is None:
        raise ConfigError("no command given (subcommand or command= in the file)")
    # argparse has cast each flag by its key's caster
    cfg.values.update((key, val) for key, val in vars(args).items()
                      if key in _KEYS and key != "command" and val is not None)
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_safe(obj):
    """A payload as strict JSON values: numpy scalars as Python numbers and
    a non-finite float as None (null). The payloads hold dicts, lists,
    tuples and scalars, no arrays."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, payload):
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


class _Emitter:
    """Collects output files and writes the metadata sidecar at the end."""

    def __init__(self, cfg: RunConfig):
        self.out_dir = Path(cfg.get("out", "."))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot make output directory {self.out_dir}: {exc}") from None
        self.prefix = cfg.get("prefix", cfg.command)
        self.cfg = cfg
        self.files = []
        self.meta = {}
        self._t0 = time.monotonic()
        self._started = datetime.now(timezone.utc).isoformat()

    def path(self, suffix: str) -> Path:
        p = self.out_dir / f"{self.prefix}{suffix}"
        self.files.append(p.name)
        return p

    def csv(self, suffix, header, rows):
        _write_csv(self.path(suffix), header, rows)

    def json(self, suffix, payload):
        _write_json(self.path(suffix), payload)

    def finish(self):
        command, values = self.cfg.command, self.cfg.values
        read = {k for k in values if command in _KEYS[k][2]}
        sidecar = {
            "command": command,
            "version": __version__,
            "settings": {k: values[k] for k in sorted(read)},
            "unread_keys": sorted(values.keys() - read),
            "files": self.files,
            "started": self._started,
            "wall_seconds": time.monotonic() - self._t0,
        }
        sidecar.update(self.meta)
        _write_json(self.out_dir / f"{self.prefix}.meta.json", sidecar)


def _load_geometry_for(cfg: RunConfig):
    path = cfg.require("geometry")
    if not Path(path).exists():
        raise ConfigError(f"geometry file not found: {path}")
    try:
        return load_geometry(path)
    except OSError as exc:
        raise ConfigError(f"cannot read geometry file {path}: {exc}") from None


def _geometry_run(cfg: RunConfig):
    """(S, p, resolution, nq) of a command on a geometry file. Params whose
    n is not the dimension of S are refused (ParamError) by the library's
    one check of Params against a geometry (functionals._kernel)."""
    S = _load_geometry_for(cfg)
    p = cfg.params(default_n=S.n)
    functionals._kernel(S, p)
    return (S, p, *_mesh_knobs(cfg))


def _parse_point(raw: str, n: int):
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != n:
        raise ConfigError(f"point needs {n} coordinates, got {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"invalid point coordinates: {raw!r}")


def _mesh_knobs(cfg: RunConfig):
    """(resolution, nq), refused up front by the library's own checks, so a
    run that reads neither (potential --point) refuses them too, on every
    geometry."""
    res = cfg.get("resolution", functionals.DEFAULT_RESOLUTION)
    nq = cfg.get("nq", functionals.DEFAULT_NQ)
    _require_count("nq", nq, 1)
    mesh_angles(res)
    return res, nq


def _coord_header(S):
    return ["x"] if S.n == 1 else ["x", "y"]


def _mesh_field_csv(emit, S, mesh, name, values):
    """One boundary field at the mesh points: index, coordinates, value."""
    rows = [(i, *x, float(v))
            for i, (x, v) in enumerate(zip(mesh.points.tolist(), values))]
    emit.csv(".csv", ["index", *_coord_header(S), name], rows)


# ---------------------------------------------------------------------------
# command implementations


def _run_energy(cfg, emit):
    S, p, res, nq = _geometry_run(cfg)
    br = functionals.energy(S, p, res, nq)
    emit.csv(".csv", ["perimeter_term", "riesz_term", "eps", "total"],
             [(br.perimeter_term, br.riesz_term, br.eps, br.total)])
    emit.meta["params"] = asdict(p)


def _run_curvature(cfg, emit):
    S, p, res, nq = _geometry_run(cfg)
    bf = functionals.boundary_fields(S, p, res, nq)
    _mesh_field_csv(emit, S, bf.mesh, "kappa", bf.kappa)
    emit.meta["params"] = asdict(p)


def _run_potential(cfg, emit):
    S, p, res, nq = _geometry_run(cfg)
    if "point" in cfg.values:
        x = _parse_point(cfg.values["point"], S.n)
        v = functionals.potential(S, x, p.alpha, nq=nq)
        emit.csv(".csv", [*_coord_header(S), "potential"], [(*x, v)])
    else:
        bf = functionals.boundary_fields(S, p, res, nq)
        _mesh_field_csv(emit, S, bf.mesh, "potential", bf.pot)
    emit.meta["params"] = asdict(p)


_REPORT_COLS = ["delta_s", "eta_s", "rho", "iso_ratio", "lambda_hat",
                "el_residual", "mesh_resolution"]


def _report_row(report):
    row = [getattr(report, c) for c in _REPORT_COLS]
    row += [report.identity_residuals.get(k)
            for k in diagnostics.IDENTITY_KINDS]
    return row


def _report_header():
    return _REPORT_COLS + [f"res_{k.lower()}"
                           for k in diagnostics.IDENTITY_KINDS]


def _run_diagnose(cfg, emit):
    S, p, res, nq = _geometry_run(cfg)
    report = diagnostics.diagnose(S, p, res, nq)
    emit.json(".report.json", report.as_dict())
    emit.csv(".csv", _report_header(), [_report_row(report)])
    emit.meta["params"] = asdict(p)


_ONEDIM_COLUMNS = ["eps", "d_star", "d_eps", "diameter", "f_at_root", "residual"]


def _onedim_row(r):
    return (r.eps, r.d_star, r.d_eps, r.diameter, r.f_at_root, r.zeta_spread)


def _run_onedim_root(cfg, emit):
    p = cfg.params(default_n=1)
    record = onedim._sweep_record(p, cfg.get("f_tol", onedim.F_TOL))
    emit.csv(".csv", _ONEDIM_COLUMNS, [_onedim_row(record)])
    emit.meta["params"] = asdict(p)


def _run_onedim_sweep(cfg, emit):
    p = cfg.params(default_n=1)
    raw = cfg.get("eps_grid", _DEFAULT_EPS_GRID)
    try:
        grid = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"invalid eps_grid: {raw!r}")
    records, fit = onedim.epsilon_sweep(
        p, grid, f_tol=cfg.get("f_tol", onedim.F_TOL))
    emit.csv(".csv", _ONEDIM_COLUMNS, [_onedim_row(r) for r in records])
    emit.json(".summary.json", fit)
    emit.meta["params"] = asdict(p)


def _run_optimize2d(cfg, emit):
    p = cfg.params(default_n=2)
    res, nq = _mesh_knobs(cfg)
    if "geometry" in cfg.values:
        init = canonical(_load_geometry_for(cfg))
        if init.n != 2:
            raise ConfigError("optimize2d needs a planar geometry")
    else:
        init = StarShape2D((0.0, 0.0), 1.0)
    # only the knobs that are set are passed, so find_critical_2d's own
    # defaults apply to the rest
    knobs = {k: cfg.values[k] for k in ("tol", "max_iter", "k_max")
             if k in cfg.values}
    shape, report, state = shapeopt.find_critical_2d(
        shapeopt.volume_project(init), p, resolution=res, nq=nq,
        full_output=True, **knobs)
    emit.json(".shape.json", geometry_to_dict(shape))
    emit.csv(".history.csv", ["iteration", "residual"],
             list(enumerate(state.residual_history)))
    emit.json(".report.json", report.as_dict())
    emit.csv(".csv", _report_header(), [_report_row(report)])
    emit.meta["params"] = asdict(p)
    emit.meta["iterations"] = state.iteration
    emit.meta["final_volume"] = volume(shape)


def _run_calibrate(cfg, emit):
    s = cfg.require("s")
    n = cfg.get("n", 2)
    res, nq = _mesh_knobs(cfg)
    kwargs = {}
    if "radii" in cfg.values:
        text = cfg.values["radii"]
        try:
            radii = tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError:
            radii = ()
        if not radii:
            raise ConfigError(f"invalid radii: {text!r}")
        kwargs["radii"] = radii
    c = diagnostics.calibrate_variation_constant(s, n, res, nq, **kwargs)
    emit.csv(".csv", ["n", "s", "c_var"], [(n, s, c)])


_RUNNERS = {
    "energy": _run_energy,
    "curvature": _run_curvature,
    "potential": _run_potential,
    "diagnose": _run_diagnose,
    "onedim-root": _run_onedim_root,
    "onedim-sweep": _run_onedim_sweep,
    "optimize2d": _run_optimize2d,
    "calibrate": _run_calibrate,
}


def run_command(cfg: RunConfig) -> int:
    """Execute one fully merged configuration. Returns 0; raises on failure."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    emit = _Emitter(cfg)
    _RUNNERS[cfg.command](cfg, emit)
    emit.finish()
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The parser of main, built once per process (about 2 ms a build).
    argparse keeps no state between parse_args calls: each call fills a new
    namespace, and an error exits before anything is kept."""
    ap = argparse.ArgumentParser(
        prog="nlshape",
        description="Nonlocal perimeter/repulsion energies, boundary fields, "
                    "rigidity diagnostics, and critical-point searches.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--config", help="flat key=value config file; its "
                    "command= entry runs when no subcommand is given")
    sub = ap.add_subparsers(dest="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        # SUPPRESS: an absent subcommand-level --config must not clobber one
        # given before the subcommand
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key=value config file")
        for key, (caster, text, commands) in _KEYS.items():
            if name not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if name == "optimize2d":
                flag, text = _OPTIMIZE2D_FLAGS.get(key, (flag, text))
            # a str key keeps argparse's default type, None
            sp.add_argument(flag, dest=key, help=text,
                            type=None if caster is str else caster)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run_command(_merged_config(args))
    except NlshapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a parameter out of its range is a configuration error wherever
        # the library refuses it
        return 2 if isinstance(exc, (ConfigError, ParamError)) else 1


if __name__ == "__main__":
    sys.exit(main())
