"""Config parsing, command dispatch, output files, and exit codes."""

import json
import math

import numpy as np
import pytest

from nlshape.cli import RunConfig, load_config, main, run_command
from nlshape.errors import ConfigError, ConfigNotFoundError, ParamError
from nlshape.sets import (IntervalSet, Params, StarShape2D, load_geometry,
                          save_geometry)
from nlshape import diagnostics, shapeopt
from nlshape.diagnostics import identity_check
from nlshape.shapeopt import fourier_shape, volume_project

from oracles import CLOSED_FORM_SETS
from test_diagnostics import AUDIT_SHAPE


def _rows(path):
    header, *rest = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rest]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ------------------------------------------------------------------ load_config

def test_load_config_parses_types_and_comments(tmp_path):
    p = _write(tmp_path, "run.conf", """
# full line comment
command = diagnose
s = 0.5        # trailing comment
alpha=0.25
resolution = 128
geometry = shape.json

""")
    cfg = load_config(p)
    assert cfg.command == "diagnose"
    assert cfg.values == {"s": 0.5, "alpha": 0.25, "resolution": 128,
                          "geometry": "shape.json"}
    assert isinstance(cfg.values["resolution"], int)


def test_load_config_unknown_key_names_line(tmp_path):
    p = _write(tmp_path, "run.conf", "s = 0.5\nsigma = 0.25\n")
    with pytest.raises(ConfigError, match=r"run\.conf:2.*sigma"):
        load_config(p)


def test_load_config_bad_value_names_line(tmp_path):
    p = _write(tmp_path, "run.conf", "\n\nresolution = many\n")
    with pytest.raises(ConfigError, match=r"run\.conf:3.*resolution.*'many'"):
        load_config(p)


def test_load_config_requires_key_value_form(tmp_path):
    p = _write(tmp_path, "run.conf", "use defaults please\n")
    with pytest.raises(ConfigError, match=r"run\.conf:1"):
        load_config(p)


def test_load_config_unknown_command(tmp_path):
    p = _write(tmp_path, "run.conf", "command = optimise\n")
    with pytest.raises(ConfigError, match="optimise"):
        load_config(p)


def test_load_config_missing_file_is_distinct(tmp_path):
    with pytest.raises(ConfigNotFoundError):
        load_config(tmp_path / "nope.conf")
    assert issubclass(ConfigNotFoundError, ConfigError)


def test_runconfig_require():
    cfg = RunConfig(command="energy", values={"s": 0.5})
    assert cfg.require("s") == 0.5
    with pytest.raises(ConfigError, match="geometry"):
        cfg.require("geometry")


def test_params_range_error_reads_as_config_error(capsys):
    # the library's ParamError propagates as it is; main gives it exit 2
    cfg = RunConfig(values={"s": 1.5, "alpha": 0.5})
    with pytest.raises(ParamError, match="s must lie in"):
        cfg.params(default_n=1)
    assert main(["onedim-root", "--s", "1.5", "--alpha", "0.5"]) == 2
    assert capsys.readouterr().err == "error: s must lie in (0, 1), got 1.5\n"


def test_run_command_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown command"):
        run_command(RunConfig(command="frobnicate"))


# ------------------------------------------------------------------- exit codes

def test_no_command_exits_2(capsys):
    assert main([]) == 2
    assert "no command" in capsys.readouterr().err


def test_bad_param_exits_2(capsys):
    assert main(["onedim-root", "--s", "1.5", "--alpha", "0.5"]) == 2
    assert "s must lie in" in capsys.readouterr().err


def test_missing_geometry_key_exits_2(tmp_path, capsys):
    assert main(["energy", "--s", "0.5", "--alpha", "0.5",
                 "--out", str(tmp_path)]) == 2
    assert "geometry" in capsys.readouterr().err


def test_missing_geometry_file_exits_2(tmp_path, capsys):
    assert main(["energy", "--s", "0.5", "--alpha", "0.5",
                 "--geometry", str(tmp_path / "no.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_corrupt_geometry_is_a_domain_failure(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", "{not json")
    assert main(["energy", "--s", "0.5", "--alpha", "0.5",
                 "--geometry", str(bad), "--out", str(tmp_path)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_incomplete_geometry_is_a_domain_failure(tmp_path, capsys):
    bad = _write(tmp_path, "ball.json", '{"kind": "ball"}')
    assert main(["diagnose", "--s", "0.5", "--alpha", "0.5",
                 "--geometry", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'center'" in err


def test_overflowing_geometry_is_refused_as_such(tmp_path, capsys):
    # r0 = 1e400 reads as inf: the loader refuses it, so diagnose neither
    # computes with NaN nor blames the points
    bad = _write(tmp_path, "star.json",
                 '{"kind": "star", "center": [0, 0], "r0": 1e400}')
    assert main(["diagnose", "--s", "0.5", "--alpha", "0.5",
                 "--geometry", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "r0 must lie in (-inf, inf), got inf" in err and "points" not in err


@pytest.mark.parametrize("text, message", [
    # a unit ball, an interval (0, 1) and a mode-1 coefficient of 1 before
    # the one rule for real values
    ('{"kind": "ball", "center": [0, 0], "radius": true}',
     "ball radius must lie in (0, inf), got True"),
    ('{"kind": "intervals", "intervals": [[0, "1"]]}',
     "interval end must lie in (-inf, inf), got '1'"),
    ('{"kind": "star", "center": [0, 0], "r0": 2, "cos": [true]}',
     "a coefficient must lie in (-inf, inf), got True"),
    # a center or interval of the wrong structure ended in a traceback
    ('{"kind": "star", "center": 5, "r0": 1}',
     "star shape center must be a sequence, got 5"),
    ('{"kind": "star", "center": null, "r0": 1}',
     "star shape center must be a sequence, got None"),
    ('{"kind": "ball", "center": 5, "radius": 1}',
     "ball center must be a sequence, got 5"),
    ('{"kind": "intervals", "intervals": [[0, 1, 2]]}',
     "an interval must have two ends, got (0, 1, 2)"),
    ('{"kind": "intervals", "intervals": 5}',
     "interval set must be a sequence, got 5"),
], ids=["ball-radius-bool", "interval-end-str", "star-cos-bool",
        "star-center-number", "star-center-null", "ball-center-number",
        "interval-three-ends", "intervals-number"])
def test_geometry_file_numbers_are_refused_as_geometry(tmp_path, capsys, text,
                                                       message):
    bad = _write(tmp_path, "bad.json", text)
    assert main(["energy", "--s", "0.5", "--alpha", "0.5",
                 "--geometry", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# a file the CLI cannot read ended in IsADirectoryError, UnicodeDecodeError
# or FileExistsError, each with a traceback and exit 1
@pytest.mark.parametrize("argv, code, message", [
    (["--config", "DIR", "energy"], 2, "cannot read config file"),
    (["--config", "LATIN1", "energy"], 2, "cannot read config file"),
    (["energy", "--geometry", "DIR"], 2, "cannot read geometry file"),
    (["energy", "--geometry", "LATIN1"], 1, "is not valid JSON"),
    (["energy", "--geometry", "STAR", "--out", "FILE"], 2,
     "cannot make output directory"),
], ids=["config-directory", "config-not-utf8", "geometry-directory",
        "geometry-not-utf8", "out-is-a-file"])
def test_unreadable_files_exit_with_their_code(tmp_path, capsys, argv, code,
                                               message):
    (tmp_path / "dir").mkdir()
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("s = 0.5 # \xe9\n".encode("latin-1"))
    files = {"DIR": tmp_path / "dir", "LATIN1": latin1,
             "STAR": _star_geom(tmp_path),
             "FILE": _write(tmp_path, "file.txt", "")}
    argv = [str(files.get(a, a)) for a in argv]
    out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
    assert main([*argv, *_SA, *out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_onedim_rejects_planar_dimension(capsys):
    assert main(["onedim-root", "--n", "2", "--s", "0.5",
                 "--alpha", "0.5", "--eps", "1e-3"]) == 2
    assert "n = 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps"])
def test_nonfinite_param_exits_2(tmp_path, capsys, flag):
    assert main(["energy", "--geometry", str(_interval_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", flag, "nan",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert " must lie in " in err and ", got nan" in err
    assert not (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("nq", ["0", "-3"])
def test_nonpositive_nq_exits_2(tmp_path, capsys, nq):
    assert main(["energy", "--geometry", str(_star_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--nq", nq,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: nq must be")


def test_planar_resolution_below_mesh_minimum_exits_2(tmp_path, capsys):
    assert main(["energy", "--geometry", str(_star_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--resolution", "4",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: resolution must be")


def test_point_potential_refuses_a_bad_planar_resolution(tmp_path, capsys):
    # the point evaluation reads no mesh, and still refuses the knob
    assert main(["potential", "--geometry", str(_star_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--point", "0.1,0.2",
                 "--resolution", "4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: resolution must be")
    assert not (tmp_path / "potential.csv").exists()


def test_interval_energy_refuses_a_bad_resolution(tmp_path, capsys):
    # the closed forms read no mesh; the knob is refused as on a planar set
    assert main(["energy", "--geometry", str(_interval_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--resolution", "4",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: resolution must be")
    assert not (tmp_path / "energy.csv").exists()


def test_negative_mode_cap_in_a_samples_file_exits_2(tmp_path, capsys):
    geometry = _write(tmp_path, "samples.json", json.dumps(
        {"kind": "star", "center": [0, 0], "samples": [1.0] * 16, "k_max": -2}))
    assert main(["diagnose", "--geometry", str(geometry), "--s", "0.5",
                 "--alpha", "0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: k_max must be an integer of at least 0, got -2")
    assert not (tmp_path / "diagnose.csv").exists()


def test_calibrate_out_of_range_dimension_exits_2(tmp_path, capsys):
    assert main(["calibrate", "--n", "3", "--s", "0.5",
                 "--out", str(tmp_path)]) == 2


_SA = ["--s", "0.5", "--alpha", "0.5"]
_OPT = ["optimize2d", *_SA, "--eps", "1e-3", "--resolution", "32", "--nq", "8"]


# every ParamError is a configuration error (2), wherever the library raises
# it; a domain failure is 1. The first three cases exited 1
@pytest.mark.parametrize("argv, code, message", [
    (["onedim-root", *_SA], 2, "eps must lie in (0, inf), got 0.0"),
    (["onedim-sweep", *_SA, "--eps-grid", "1e-3,1e-4,1e-5"], 2,
     "at least 4 eps values"),
    (["onedim-sweep", *_SA, "--eps", "1e-3", "--eps-grid",
      "1e-3,1e-3,1e-3,1e-3"], 2, "at least 4 eps values for a stable fit, "
     "got 1 with distinct log(eps)"),
    (["onedim-root", *_SA, "--eps", "1e-3", "--n", "2"], 2,
     "needs n = 1, got n = 2"),
    ([*_OPT, "--n", "1"], 2,
     "params have n = 1, but the StarShape2D lies in dimension 2"),
    (["onedim-root", *_SA, "--eps", "1e-3", "--f-tol", "nan"], 2,
     "f_tol must lie in [0, inf)"),
    ([*_OPT, "--tol", "nan"], 2, "tol must lie in [0, inf]"),
    ([*_OPT, "--modes", "-2"], 2, "k_max must be an integer of at least 1"),
    ([*_OPT, "--modes", "0"], 2, "k_max must be an integer of at least 1"),
    ([*_OPT, "--max-iter", "-1"], 2,
     "max_iter must be an integer of at least 0"),
    # no key sets the first trial step: a step in a config file is refused
    # as unknown, whatever its value
    (["--config", "NANSTEP", "optimize2d"], 2, ":2: unknown key 'step'"),
    (["--config", "NEGSTEP", "optimize2d"], 2, ":2: unknown key 'step'"),
    (["energy", *_SA, "--geometry", "BAD"], 1, "JSON"),
    ([*_OPT, "--init", "STAR", "--tol", "1e-6"], 1,
     "no energy-non-increasing step"),
    (["onedim-root", "--s", "0.01", "--alpha", "0.997", "--eps", "1e-3"], 1,
     "f underflows to 0"),
    (["curvature", "--s", "0.97", "--alpha", "0.5", "--geometry", "GAP"], 1,
     "the gap (0.0, 5e-324) is too short for s = 0.97"),
    # the package computes in n in {1, 2}: a 3D ball's potential wrote a
    # CSV, and a 3D ball file is now refused where the ball is built
    (["potential", *_SA, "--geometry", "BALL3", "--point", "0.1,0,0"], 1,
     "ball dimension must lie in [1, 2], got 3"),
], ids=["no-eps", "short-grid", "one-distinct-eps", "onedim-n2",
        "optimize-n1", "nan-f-tol", "nan-tol", "negative-modes", "zero-modes",
        "negative-max-iter", "nan-step", "negative-step", "corrupt-geometry", "stall", "bracket",
        "subnormal-gap", "ball3-potential"])
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, code, message):
    # a first trial step below the least step stalls the descent at once
    monkeypatch.setattr(shapeopt, "_MIN_STEP", 2.0)
    files = {"BAD": str(_write(tmp_path, "bad.json", "{not json")),
             "STAR": str(_star_geom(tmp_path)),
             "GAP": str(_write(tmp_path, "gap.json", json.dumps(
                 {"kind": "intervals", "intervals": [[-1, 0], [5e-324, 1]]}))),
             "BALL3": str(_write(tmp_path, "ball3.json", json.dumps(
                 {"kind": "ball", "center": [0, 0, 0], "radius": 1}))),
             "NANSTEP": str(_write(tmp_path, "nan.conf",
                                   "command = optimize2d\nstep = nan\n")),
             "NEGSTEP": str(_write(tmp_path, "neg.conf",
                                   "command = optimize2d\nstep = -1\n"))}
    argv = [files.get(a, a) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.glob("*.csv"))


def _refused_as_unknown(tmp_path, capsys, argv, flag, key):
    # argv with flag 1, and a config file of argv's command with key = 1,
    # each exit 2 as unknown and write no CSV
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    conf = _write(tmp_path, "run.conf",
                  f"command = {argv[0]}\n{key} = 1\nout = {tmp_path}\n")
    assert main(["--config", str(conf)]) == 2
    assert f"run.conf:2: unknown key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_step_is_no_key(tmp_path, capsys):
    # every descent iteration's first trial is the full Newton step, so no
    # flag or config key sets it: both are refused as unknown (exit 2)
    _refused_as_unknown(tmp_path, capsys, _OPT, "--step", "step")


def test_c_var_is_no_key(tmp_path, capsys):
    # the first-variation normalization is 1 with the package's kappa and
    # P_s (calibrate measures it), so no flag or config key sets it
    _refused_as_unknown(tmp_path, capsys,
                        ["calibrate", "--n", "1", "--s", "0.5"], "--c-var",
                        "c_var")


def test_c_coupling_is_no_key(tmp_path, capsys):
    # zeta = kappa + 2 eps V is the first variation of F_eps, and any other
    # constant c is the problem at eps' = c eps / 2, so no flag or config key
    # sets it
    _refused_as_unknown(tmp_path, capsys,
                        ["onedim-root", "--s", "0.5", "--alpha", "0.5",
                         "--eps", "1e-3"], "--c-coupling", "c_coupling")


@pytest.mark.parametrize("command", ["energy", "curvature", "potential",
                                     "diagnose", "onedim-root",
                                     "onedim-sweep", "optimize2d"])
def test_mass_is_no_key(tmp_path, capsys, command):
    # eps is the one coupling: a volume m is stated as
    # eps = m ** (1 - alpha/n + s/n), so no flag or config key sets a mass
    _refused_as_unknown(tmp_path, capsys, [command], "--mass", "mass")


@pytest.mark.parametrize("argv, flag", [
    (["onedim-root", "--s", "0.5", "--alpha", "0.5", "--eps", "1e-3"],
     ["--nq", "0"]),
    (["onedim-sweep", "--s", "0.5", "--alpha", "0.5"], ["--resolution", "64"]),
    (["calibrate", "--n", "1", "--s", "0.5"], ["--alpha", "7"]),
], ids=["onedim-root-nq", "onedim-sweep-resolution", "calibrate-alpha"])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv,
                                                   flag):
    # a command takes as flags only the keys it reads: a flag it would leave
    # unread would also go unchecked, so it is refused; a config file, which
    # may drive several commands, still sets the key
    out = tmp_path / "flag"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
    key = flag[0][2:].replace("-", "_")
    conf = _write(tmp_path, "run.conf", f"{key} = {flag[1]}\n")
    assert main(["--config", str(conf), *argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{argv[0]}.csv").exists()


def test_radius_dependent_calibration_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(diagnostics, "_CALIBRATION_SPREAD_TOL", -1.0)
    assert main(["calibrate", "--n", "1", "--s", "0.5",
                 "--out", str(tmp_path)]) == 1
    assert "radius-dependent" in capsys.readouterr().err
    assert not (tmp_path / "calibrate.csv").exists()


_BASE_FLAGS = [
    (("--config",), "config", None), (("--out",), "out", None),
    (("--prefix",), "prefix", None), (("--n",), "n", int),
    (("--s",), "s", float)]
_PARAMS_FLAGS = [(("--alpha",), "alpha", float), (("--eps",), "eps", float)]
_MESH_FLAGS = [(("--resolution",), "resolution", int), (("--nq",), "nq", int)]
_GEOMETRY_FLAG = [(("--geometry",), "geometry", None)]
_F_TOL_FLAG = [(("--f-tol",), "f_tol", float)]
_SHAPE_FLAGS = _BASE_FLAGS + _PARAMS_FLAGS + _MESH_FLAGS + _GEOMETRY_FLAG


def test_subcommand_flags_keep_their_names_dests_and_types():
    # each subcommand takes as flags only the keys it reads, under the names
    # of earlier releases: the onedim commands read no mesh, calibrate no
    # alpha or eps, and no command a mass, a coupling constant, optimize2d's
    # --step or --c-var. Each subcommand's (option strings, dest, type), in
    # order
    import argparse
    from nlshape import cli
    sub, = [a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: [(tuple(a.option_strings), a.dest, a.type)
                  for a in sp._actions if a.dest != "help"]
           for name, sp in sub.choices.items()}
    assert got == {
        "energy": _SHAPE_FLAGS,
        "curvature": _SHAPE_FLAGS,
        "diagnose": _SHAPE_FLAGS,
        "potential": _SHAPE_FLAGS + [(("--point",), "point", None)],
        "onedim-root": _BASE_FLAGS + _PARAMS_FLAGS + _F_TOL_FLAG,
        "onedim-sweep": _BASE_FLAGS + _PARAMS_FLAGS + _F_TOL_FLAG
        + [(("--eps-grid",), "eps_grid", None)],
        "optimize2d": _BASE_FLAGS + _PARAMS_FLAGS + _MESH_FLAGS + [
            (("--init",), "geometry", None), (("--modes",), "k_max", int),
            (("--tol",), "tol", float), (("--max-iter",), "max_iter", int)],
        "calibrate": _BASE_FLAGS + _MESH_FLAGS
        + [(("--radii",), "radii", None)],
    }
    assert sum(map(len, got.values())) == 79
    help_of = {a.dest: a.help for a in sub.choices["optimize2d"]._actions}
    assert "unit-area disk" in help_of["geometry"]


# ------------------------------------------------------------------- commands

def _interval_geom(tmp_path):
    path = tmp_path / "unit.json"
    save_geometry(IntervalSet([(0.0, 1.0)]), path)
    return path


def _star_geom(tmp_path, a3=0.05):
    path = tmp_path / "star.json"
    save_geometry(volume_project(fourier_shape({"r0": 1.0, "a3": a3})), path)
    return path


@pytest.mark.parametrize("command", ["energy", "curvature", "potential",
                                     "diagnose"])
def test_params_of_another_dimension_exit_2(tmp_path, capsys, command):
    # `diagnose --n 1` on a disk exited 0 with Au2 0.57 read off n - s = 0.5
    assert main([command, "--geometry", str(_star_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--eps", "1e-3", "--n", "1",
                 "--out", str(tmp_path)]) == 2
    assert "n = 1" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


def test_energy_unit_interval(tmp_path):
    geom = _interval_geom(tmp_path)
    assert main(["energy", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--eps", "1e-3", "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "energy.csv")
    assert header == ["perimeter_term", "riesz_term", "eps", "total"]
    (per, rz, eps, total), = [list(map(float, r)) for r in rows]
    assert per == pytest.approx(8.0, rel=1e-12)
    assert rz == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert eps == 1e-3
    assert total == pytest.approx(8.0 + 1e-3 * 8.0 / 3.0, rel=1e-12)
    meta = json.loads((tmp_path / "energy.meta.json").read_text())
    assert meta["command"] == "energy"
    assert meta["params"]["s"] == 0.5
    assert meta["files"] == ["energy.csv"]
    assert set(meta) >= {"version", "settings", "started", "wall_seconds"}


def test_curvature_interval_endpoints(tmp_path):
    geom = _interval_geom(tmp_path)
    assert main(["curvature", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "curvature.csv")
    assert header == ["index", "x", "kappa"]
    assert len(rows) == 2
    k0, k1 = (float(r[2]) for r in rows)
    assert k0 == pytest.approx(k1, rel=1e-12)  # symmetric interval


def test_potential_point_query(tmp_path):
    geom = _interval_geom(tmp_path)
    assert main(["potential", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--point", "0.5",
                 "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "potential.csv")
    assert header == ["x", "potential"]
    assert float(rows[0][1]) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_potential_point_needs_matching_arity(tmp_path, capsys):
    geom = _star_geom(tmp_path)
    assert main(["potential", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--point", "0.5",
                 "--out", str(tmp_path)]) == 2
    assert "coordinates" in capsys.readouterr().err


def test_potential_point_refuses_a_non_numeric_coordinate(tmp_path, capsys):
    assert main(["potential", "--geometry", str(_star_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", "--point", "0.2,x",
                 "--out", str(tmp_path)]) == 2
    assert ("invalid point coordinates: '0.2,x'"
            in capsys.readouterr().err)
    assert not (tmp_path / "potential.csv").exists()


def test_potential_boundary_sweep_2d(tmp_path):
    geom = _star_geom(tmp_path)
    assert main(["potential", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--resolution", "32", "--nq", "8",
                 "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "potential.csv")
    assert header == ["index", "x", "y", "potential"]
    assert len(rows) == 32
    assert all(float(r[3]) > 0.0 for r in rows)


def test_diagnose_interval_report(tmp_path):
    geom = _interval_geom(tmp_path)
    assert main(["diagnose", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", "0.5", "--eps", "1e-3",
                 "--out", str(tmp_path), "--prefix", "d1"]) == 0
    header, rows = _rows(tmp_path / "d1.csv")
    assert header[:7] == ["delta_s", "eta_s", "rho", "iso_ratio", "lambda_hat",
                          "el_residual", "mesh_resolution"]
    assert header[7:] == ["res_au1", "res_au2", "res_minkowski", "res_lal",
                          "res_tangentialball"]
    row = rows[0]
    # 1D sets have no annulus deficit and no tangential comparison
    assert row[header.index("rho")] == ""
    assert row[header.index("res_tangentialball")] == ""
    assert float(row[header.index("res_minkowski")]) < 1e-10
    report = json.loads((tmp_path / "d1.report.json").read_text())
    assert report["rho"] is None
    assert "Au1" in report["identity_residuals"]


@pytest.mark.parametrize("shape,alpha", [
    (AUDIT_SHAPE, 0.5), (AUDIT_SHAPE, 0.9),
    (IntervalSet(CLOSED_FORM_SETS[4]), 0.5)],
    ids=["audit-0.5", "audit-0.9", "gap-1e6"])
def test_diagnose_reports_the_identity_residuals(tmp_path, shape, alpha):
    # the first seed-101 audit shape and the paper's two-interval set at gap
    # d = 1e6: diagnose exits 0 and reports identity_check's residuals, whose
    # bounds test_diagnostics and test_interior_rule hold
    geom = tmp_path / "shape.json"
    save_geometry(shape, geom)
    assert main(["diagnose", "--geometry", str(geom), "--s", "0.5",
                 "--alpha", repr(alpha), "--eps", "1e-3",
                 "--resolution", "256", "--nq", "48",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnose.report.json").read_text())
    ids = report["identity_residuals"]
    assert {"Au1", "Au2"} <= ids.keys()
    p = Params(n=shape.n, s=0.5, alpha=alpha, eps=1e-3)
    S = load_geometry(geom)
    assert ids == {kind: identity_check(S, p, kind, 256, 48) for kind in ids}


def test_onedim_root_output(tmp_path):
    assert main(["onedim-root", "--s", "0.5", "--alpha", "0.5",
                 "--eps", "1e-3", "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "onedim-root.csv")
    assert header == ["eps", "d_star", "d_eps", "diameter", "f_at_root",
                      "residual"]
    row = dict(zip(header, map(float, rows[0])))
    assert row["d_star"] == pytest.approx(3000.000034722222, rel=1e-12)
    assert row["d_eps"] == pytest.approx(1500.0, rel=1e-12)
    assert row["diameter"] == row["d_star"] + 0.5
    assert abs(row["f_at_root"]) <= 1e-10
    assert row["residual"] <= 1e-9


def test_onedim_sweep_output(tmp_path):
    grid = "1e-3,1e-4,1e-5,1e-6"
    assert main(["onedim-sweep", "--s", "0.5", "--alpha", "0.5",
                 "--eps-grid", grid, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "onedim-sweep.csv")
    assert len(rows) == 4
    eps_col = [float(r[0]) for r in rows]
    assert eps_col == sorted(eps_col, reverse=True)
    fit = json.loads((tmp_path / "onedim-sweep.summary.json").read_text())
    assert set(fit) == {"slope", "slope_target", "slope_rel_err", "c_implied",
                        "failed"}
    assert fit["failed"] == []
    assert fit["slope_target"] == pytest.approx(1.0)
    assert fit["slope_rel_err"] < 0.03


def test_onedim_sweep_bad_grid_exits_2(tmp_path, capsys):
    assert main(["onedim-sweep", "--s", "0.5", "--alpha", "0.5",
                 "--eps-grid", "1e-3,fast,1e-5,1e-6",
                 "--out", str(tmp_path)]) == 2
    assert "eps_grid" in capsys.readouterr().err


def test_optimize2d_default_disk(tmp_path):
    assert main(["optimize2d", "--s", "0.5", "--alpha", "0.5", "--eps", "1e-3",
                 "--resolution", "32", "--nq", "8", "--tol", "1e-3",
                 "--out", str(tmp_path)]) == 0
    shape = json.loads((tmp_path / "optimize2d.shape.json").read_text())
    assert shape["kind"] == "star"
    header, rows = _rows(tmp_path / "optimize2d.history.csv")
    assert header == ["iteration", "residual"]
    meta = json.loads((tmp_path / "optimize2d.meta.json").read_text())
    assert meta["final_volume"] == pytest.approx(1.0, abs=1e-10)
    # the disk start is already critical at this tolerance
    assert meta["iterations"] == 0
    report = json.loads((tmp_path / "optimize2d.report.json").read_text())
    assert report["el_residual"] <= 1e-3


def test_optimize2d_rejects_interval_init(tmp_path, capsys):
    geom = _interval_geom(tmp_path)
    assert main(["optimize2d", "--s", "0.5", "--alpha", "0.5", "--eps", "1e-3",
                 "--init", str(geom), "--out", str(tmp_path)]) == 2
    assert "planar" in capsys.readouterr().err


def test_optimize2d_projects_init_volume(tmp_path):
    # a non-normalized star init is rescaled, not rejected
    path = tmp_path / "big.json"
    save_geometry(StarShape2D((0.0, 0.0), 2.0), path)
    assert main(["optimize2d", "--s", "0.5", "--alpha", "0.5", "--eps", "1e-3",
                 "--init", str(path), "--resolution", "32", "--nq", "8",
                 "--tol", "1e-3", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "optimize2d.meta.json").read_text())
    assert meta["final_volume"] == pytest.approx(1.0, abs=1e-10)


def test_optimize2d_from_a_star_writes_its_modes(tmp_path):
    # the descent's shape keeps its coefficients as numpy floats; the shape
    # file holds them as JSON numbers and reads back as that shape
    init = _star_geom(tmp_path)
    assert main([*_OPT, "--init", str(init), "--tol", "1e-3",
                 "--out", str(tmp_path)]) == 0
    got = load_geometry(tmp_path / "optimize2d.shape.json")
    want, _, state = shapeopt.find_critical_2d(
        volume_project(load_geometry(init)),
        Params(n=2, s=0.5, alpha=0.5, eps=1e-3), tol=1e-3, resolution=32,
        nq=8, full_output=True)
    assert state.iteration >= 1 and want.kmax > 0
    assert got.center == want.center and got.r0 == want.r0
    assert got.a.tobytes() == want.a.tobytes()
    assert got.b.tobytes() == want.b.tobytes()


def test_non_finite_report_values_are_written_as_null(tmp_path,
                                                     monkeypatch):
    # the report file is strict JSON: a non-finite value, a Python or a
    # numpy float, reads back as null, which the benchmark's audit reads as
    # a missing value
    from dataclasses import replace

    from nlshape import cli

    def non_finite(*args, **kwargs):
        report = diagnostics.diagnose(*args, **kwargs)
        return replace(report, rho=math.nan, error_estimates={
            **report.error_estimates, "perimeter": math.inf,
            "riesz": np.float64(-math.inf)})
    monkeypatch.setattr(cli, "diagnose", non_finite)
    assert main(["diagnose", "--geometry", str(_star_geom(tmp_path)), *_SA,
                 "--eps", "1e-3", "--resolution", "32", "--nq", "8",
                 "--out", str(tmp_path)]) == 0

    def refuse(constant):
        raise AssertionError(f"{constant} written to the report")
    report = json.loads((tmp_path / "diagnose.report.json").read_text(),
                        parse_constant=refuse)
    assert report["rho"] is None
    assert report["error_estimates"]["perimeter"] is None
    assert report["error_estimates"]["riesz"] is None
    assert math.isfinite(report["el_residual"])


def test_calibrate_closed_form(tmp_path):
    assert main(["calibrate", "--n", "1", "--s", "0.5",
                 "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "calibrate.csv")
    assert header == ["n", "s", "c_var"]
    assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-10)


def test_calibrate_bad_radii_exits_2(tmp_path, capsys):
    assert main(["calibrate", "--n", "1", "--s", "0.5", "--config",
                 str(_write(tmp_path, "c.conf", "radii = 1.0;2.0\n")),
                 "--out", str(tmp_path)]) == 2
    assert "radii" in capsys.readouterr().err


def test_calibrate_reads_radii_from_a_config(tmp_path):
    # the value at radii (0.5, 2), 1 ulp off the default radii's
    assert main(["calibrate", "--n", "2", "--s", "0.5", "--resolution", "64",
                 "--nq", "16", "--config",
                 str(_write(tmp_path, "c.conf", "radii = 0.5,2\n")),
                 "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "calibrate.csv")
    assert header == ["n", "s", "c_var"]
    assert float(rows[0][2]) == diagnostics.calibrate_variation_constant(
        0.5, 2, 64, 16, radii=(0.5, 2.0))


def test_calibrate_reads_radii_from_a_flag_as_from_a_config(tmp_path):
    argv = ["calibrate", "--n", "2", "--s", "0.5", "--resolution", "64",
            "--nq", "16"]
    conf = _write(tmp_path, "c.conf", "radii = 0.5,2\n")
    assert main([*argv, "--config", str(conf), "--prefix", "file",
                 "--out", str(tmp_path)]) == 0
    assert main([*argv, "--radii", "0.5,2", "--prefix", "flag",
                 "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "flag.csv").read_bytes()
            == (tmp_path / "file.csv").read_bytes())
    meta = json.loads((tmp_path / "flag.meta.json").read_text())
    assert meta["settings"]["radii"] == "0.5,2"


@pytest.mark.parametrize("radii", ["", " , ", "1,-1", "0", "1,nan", "inf"])
def test_calibrate_empty_or_non_positive_radii_exit_2(tmp_path, capsys, radii):
    # configuration, not a runtime failure: no traceback, no Ball error. An
    # empty list fails the parse; a radius outside (0, inf) is refused by
    # the library's check, with its message
    assert main(["calibrate", "--n", "1", "--s", "0.5", "--config",
                 str(_write(tmp_path, "c.conf", f"radii = {radii}\n")),
                 "--out", str(tmp_path)]) == 2
    bad = [r for r in radii.split(",") if r.strip() and not 0 < float(r) < math.inf]
    assert (f"radius must lie in (0, inf), got {float(bad[0])!r}" if bad
            else "invalid radii") in capsys.readouterr().err


# ------------------------------------------------------- precedence and output

def test_main_parses_through_one_parser_as_fresh_ones_do(tmp_path,
                                                         monkeypatch):
    # consecutive main calls share one parser; each call, also one after a
    # --config before the subcommand and one after an argparse error, parses
    # as a freshly built parser does
    from nlshape import cli
    conf = _write(tmp_path, "run.conf", "command = calibrate\nn = 1\n")
    parsed, merged = [], []
    merge = cli._merged_config

    def recording(args):
        parsed.append(vars(args))
        merged.append(merge(args))
        return merged[-1]
    monkeypatch.setattr(cli, "_merged_config", recording)
    monkeypatch.setattr(cli, "run_command", lambda cfg: 0)
    argvs = [["--config", str(conf), "calibrate", "--s", "0.25"],
             ["energy", "--s", "0.5", "--alpha", "0.5", "--geometry", "g.json"],
             ["potential", "--point", "0.1,0.2", "--nq", "16"],
             ["diagnose", "--resolution", "64", "--config", str(conf)],
             ["calibrate", "--n", "2"]]
    cli._build_parser.cache_clear()
    for i, argv in enumerate(argvs):
        assert main(argv) == 0
        if i == 1:
            with pytest.raises(SystemExit) as exc:
                main(["energy", "--nq", "many"])
            assert exc.value.code == 2
    assert cli._build_parser.cache_info().misses == 1
    fresh = [cli._build_parser.__wrapped__().parse_args(a) for a in argvs]
    assert parsed == [vars(ns) for ns in fresh]
    assert merged == [merge(ns) for ns in fresh]
    # the first call's file does not leak into the calls after it
    assert parsed[0]["config"] == str(conf)
    assert parsed[1]["config"] is None and parsed[4]["config"] is None
    assert merged[4].get("n") == 2 and merged[1].get("n") is None


def test_flag_overrides_file(tmp_path):
    conf = _write(tmp_path, "run.conf",
                  f"command = calibrate\nn = 1\ns = 0.25\nout = {tmp_path}\n")
    assert main(["--config", str(conf)]) == 0
    _, rows = _rows(tmp_path / "calibrate.csv")
    assert float(rows[0][1]) == 0.25

    assert main(["calibrate", "--config", str(conf), "--s", "0.5",
                 "--prefix", "over"]) == 0
    _, rows = _rows(tmp_path / "over.csv")
    assert float(rows[0][1]) == 0.5


def test_sidecar_settings_are_the_keys_the_command_read(tmp_path):
    # one file may drive several commands, so keys the command does not
    # read stay legal there; the sidecar names them apart from its settings
    # (onedim-root recorded nq 0, resolution 3 and radii -1 as settings)
    conf = _write(tmp_path, "run.conf",
                  "command = onedim-root\ns = 0.5\nalpha = 0.5\neps = 1e-3\n"
                  f"nq = 0\nresolution = 3\nradii = -1\nout = {tmp_path}\n")
    assert main(["--config", str(conf)]) == 0
    meta = json.loads((tmp_path / "onedim-root.meta.json").read_text())
    assert meta["settings"] == {"s": 0.5, "alpha": 0.5, "eps": 1e-3,
                                "out": str(tmp_path)}
    assert meta["unread_keys"] == ["nq", "radii", "resolution"]


def test_csv_bodies_are_deterministic(tmp_path):
    geom = _star_geom(tmp_path)
    bodies = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        args = ["curvature", "--geometry", str(geom), "--s", "0.5",
                "--alpha", "0.5", "--resolution", "32", "--nq", "8",
                "--out", str(out)]
        assert main(args) == 0
        bodies.append((out / "curvature.csv").read_bytes())
    assert bodies[0] == bodies[1]
    # sidecars carry the clock and may differ; CSV must not
    assert b"started" not in bodies[0]


def test_sweep_csv_deterministic(tmp_path):
    bodies = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["onedim-sweep", "--s", "0.75", "--alpha", "0.25",
                     "--eps-grid", "1e-3,1e-4,1e-5,1e-6",
                     "--out", str(out)]) == 0
        bodies.append((out / "onedim-sweep.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_onedim_sweep_lists_the_failed_eps(tmp_path):
    # at 1 + s - alpha = 0.35 the gaps of the two smallest eps pass 2^52:
    # the CSV holds the five solved rows and the summary names the others
    grid = "1e-3,3.1623e-4,1e-4,3.1623e-5,1e-5,3.1623e-6,1e-6"
    assert main(["onedim-sweep", "--s", "0.1", "--alpha", "0.75",
                 "--eps-grid", grid, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "onedim-sweep.csv")
    assert len(rows) == 5
    fit = json.loads((tmp_path / "onedim-sweep.summary.json").read_text())
    assert [f["eps"] for f in fit["failed"]] == [3.1623e-6, 1e-6]
