"""README.md's examples, run as they stand, so that an example that still
names a removed function or flag fails here: every ```python block, and
every `nlshape` line of the Command line block, with --out, beside a
unit-area shape.json."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import nlshape
from nlshape import cli, save_geometry
from nlshape.shapeopt import fourier_shape, volume_project

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
_COMMANDS = re.search(r"^## Command line\n.*?^```\n(.*?)^```", TEXT,
                      re.S | re.M)
COMMAND_LINES = [line for line in (_COMMANDS.group(1) if _COMMANDS else "")
                 .splitlines() if line.startswith("nlshape ")]


def test_readme_has_examples():
    # patterns that no longer match the README would run nothing
    assert PYTHON_BLOCKS and COMMAND_LINES


@pytest.mark.parametrize("number", range(1, len(PYTHON_BLOCKS) + 1))
def test_readme_python_block_runs(number, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(PYTHON_BLOCKS[number - 1],
                   f"README.md python block {number}", "exec")
    exec(code, {"__name__": "__main__"})


@pytest.fixture
def shape_dir(tmp_path):
    save_geometry(volume_project(fourier_shape({"r0": 1.0, "a3": 0.05})),
                  tmp_path / "shape.json")
    return tmp_path


def _argv(line):
    return [*shlex.split(line)[1:], "--out", "out"]


@pytest.mark.parametrize("line", COMMAND_LINES[1:],
                         ids=lambda line: shlex.split(line)[1])
def test_readme_command_line_exits_0(line, shape_dir, monkeypatch):
    monkeypatch.chdir(shape_dir)
    assert cli.main(_argv(line)) == 0


def test_readme_first_command_line_runs_as_a_module(shape_dir):
    # `python -m nlshape.cli`, so the module's own entry point runs too
    src = str(pathlib.Path(nlshape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "nlshape.cli", *_argv(COMMAND_LINES[0])],
        cwd=shape_dir, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
