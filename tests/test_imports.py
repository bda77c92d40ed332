"""numpy stays off the start-up path: only simulation and the grid oracle
load it. Each check runs in a fresh interpreter, since this one has numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liqgame

SRC = str(Path(liqgame.__file__).resolve().parents[1])


def run_fresh(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NUMPY_LOADED = "import sys; print('numpy' in sys.modules)"


@pytest.mark.parametrize("module", ["liqgame", "liqgame.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert run_fresh(f"import {module}; {NUMPY_LOADED}") == "False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--bi", "3", "--bj", "-3"],
        ["bayes"],
        ["market", "--published", "final_4x4"],
        ["lp", "--receiver", "13", "--sender", "10"],
    ],
)
def test_subcommand_leaves_numpy_unloaded(argv):
    code = (
        "import contextlib, io; from liqgame import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        + NUMPY_LOADED
    )
    assert run_fresh(code) == "False\n"


def test_simulate_and_oracle_still_load_numpy():
    code = (
        "import contextlib, io; from liqgame import cli, core, solver\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['simulate', '--trials', '50', '--seed', '1']) == 0\n"
        "matrix = core.build_payoff_matrix(core.build_instance(2, -2, 10))\n"
        "assert solver.brute_force_oracle(matrix, 4)\n"
        + NUMPY_LOADED
    )
    assert run_fresh(code) == "True\n"


def test_every_public_name_resolves():
    code = "import liqgame; [getattr(liqgame, name) for name in liqgame.__all__]\n" + NUMPY_LOADED
    assert run_fresh(code) == "False\n"
