"""Config parsing, command dispatch, output files, and exit codes."""

import json
import math

import pytest

from nlshape.cli import RunConfig, load_config, main, run_command
from nlshape.errors import ConfigError, ConfigNotFoundError, ParamError
from nlshape.sets import IntervalSet, StarShape2D, save_geometry
from nlshape import diagnostics, shapeopt
from nlshape.shapeopt import fourier_shape, volume_project


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
    assert "r0" in err and "finite" in err and "points" not in err


def test_onedim_rejects_planar_dimension(capsys):
    assert main(["onedim-root", "--n", "2", "--s", "0.5",
                 "--alpha", "0.5", "--eps", "1e-3"]) == 2
    assert "n = 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps", "--c-coupling"])
def test_nonfinite_param_exits_2(tmp_path, capsys, flag):
    assert main(["energy", "--geometry", str(_interval_geom(tmp_path)),
                 "--s", "0.5", "--alpha", "0.5", flag, "nan",
                 "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
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
    (["onedim-root", *_SA], 2, "g and d_eps need eps > 0"),
    (["onedim-sweep", *_SA, "--eps-grid", "1e-3,1e-4,1e-5"], 2,
     "at least 4 eps values"),
    ([*_OPT, "--step", "-1"], 2, "step size must be finite and positive"),
    (["onedim-root", *_SA, "--eps", "1e-3", "--n", "2"], 2,
     "needs n = 1, got n = 2"),
    ([*_OPT, "--n", "1"], 2, "needs n = 2, got n = 1"),
    (["onedim-root", *_SA, "--eps", "1e-3", "--f-tol", "nan"], 2,
     "f_tol must lie in [0, inf)"),
    ([*_OPT, "--tol", "nan"], 2, "tol must be nonnegative"),
    ([*_OPT, "--step", "nan"], 2, "step size must be finite and positive"),
    ([*_OPT, "--modes", "-2"], 2, "k_max must be an integer of at least 1"),
    ([*_OPT, "--modes", "0"], 2, "k_max must be an integer of at least 1"),
    ([*_OPT, "--max-iter", "-1"], 2,
     "max_iter must be an integer of at least 0"),
    (["energy", *_SA, "--geometry", "BAD"], 1, "JSON"),
    ([*_OPT, "--init", "STAR", "--tol", "1e-6"], 1,
     "no energy-non-increasing step"),
    (["onedim-root", "--s", "0.01", "--alpha", "0.997", "--eps", "1e-3"], 1,
     "f underflows to 0"),
    (["curvature", "--s", "0.97", "--alpha", "0.5", "--geometry", "GAP"], 1,
     "the gap (0.0, 5e-324) is too short for s = 0.97"),
], ids=["no-eps", "short-grid", "negative-step", "onedim-n2", "optimize-n1",
        "nan-f-tol", "nan-tol", "nan-step", "negative-modes", "zero-modes",
        "negative-max-iter", "corrupt-geometry", "stall", "bracket",
        "subnormal-gap"])
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, code, message):
    # a first trial step below the least step stalls the descent at once
    monkeypatch.setattr(shapeopt, "_MIN_STEP", 2.0)
    files = {"BAD": str(_write(tmp_path, "bad.json", "{not json")),
             "STAR": str(_star_geom(tmp_path)),
             "GAP": str(_write(tmp_path, "gap.json", json.dumps(
                 {"kind": "intervals", "intervals": [[-1, 0], [5e-324, 1]]})))}
    argv = [files.get(a, a) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_radius_dependent_calibration_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(diagnostics, "_CALIBRATION_SPREAD_TOL", -1.0)
    assert main(["calibrate", "--n", "1", "--s", "0.5",
                 "--out", str(tmp_path)]) == 1
    assert "radius-dependent" in capsys.readouterr().err
    assert not (tmp_path / "calibrate.csv").exists()


_COMMON_FLAGS = [
    (("--config",), "config", None), (("--out",), "out", None),
    (("--prefix",), "prefix", None), (("--n",), "n", int),
    (("--s",), "s", float), (("--alpha",), "alpha", float),
    (("--eps",), "eps", float), (("--mass",), "mass", float),
    (("--c-coupling",), "c_coupling", float), (("--c-var",), "c_var", float),
    (("--resolution",), "resolution", int), (("--nq",), "nq", int)]
_GEOMETRY_FLAG = [(("--geometry",), "geometry", None)]
_F_TOL_FLAG = [(("--f-tol",), "f_tol", float)]


def test_subcommand_flags_keep_their_names_dests_and_types():
    # scripts and config files written against any earlier release keep
    # working: each subcommand's (option strings, dest, type), in order
    import argparse
    from nlshape import cli
    sub, = [a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: [(tuple(a.option_strings), a.dest, a.type)
                  for a in sp._actions if a.dest != "help"]
           for name, sp in sub.choices.items()}
    assert got == {
        "energy": _COMMON_FLAGS + _GEOMETRY_FLAG,
        "curvature": _COMMON_FLAGS + _GEOMETRY_FLAG,
        "diagnose": _COMMON_FLAGS + _GEOMETRY_FLAG,
        "potential": _COMMON_FLAGS + _GEOMETRY_FLAG
        + [(("--point",), "point", None)],
        "onedim-root": _COMMON_FLAGS + _F_TOL_FLAG,
        "onedim-sweep": _COMMON_FLAGS + _F_TOL_FLAG
        + [(("--eps-grid",), "eps_grid", None)],
        "optimize2d": _COMMON_FLAGS + [
            (("--init",), "geometry", None), (("--modes",), "k_max", int),
            (("--tol",), "tol", float), (("--max-iter",), "max_iter", int),
            (("--step",), "step", float)],
        "calibrate": _COMMON_FLAGS,
    }
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


@pytest.mark.parametrize("radii", ["", " , ", "1,-1", "0", "1,nan", "inf"])
def test_calibrate_empty_or_non_positive_radii_exit_2(tmp_path, capsys, radii):
    # configuration, not a runtime failure: no traceback, no Ball error
    assert main(["calibrate", "--n", "1", "--s", "0.5", "--config",
                 str(_write(tmp_path, "c.conf", f"radii = {radii}\n")),
                 "--out", str(tmp_path)]) == 2
    assert "invalid radii" in capsys.readouterr().err


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
