"""Each process imports only what it runs: ``import liqgame`` loads no
submodule, a CLI subcommand loads its own adapter and the modules its
handler uses, and nothing
in the library loads numpy, which is not a runtime dependency, or
dataclasses, which costs milliseconds of start-up.
Each check runs in a fresh interpreter, since this one has loaded them all."""

import json
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


ALL_SUBCOMMANDS = [
    ["solve", "--bi", "3", "--bj", "-3"],
    ["bayes"],
    ["market", "--published", "final_4x4"],
    ["market", "--constructive"],
    ["lp", "--receiver", "13", "--sender", "10"],
    ["simulate", "--trials", "2000", "--seed", "1"],
    ["simulate", "--trials", "50", "--seed", "1", "--mode", "repeated"],
]


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


def test_windowed_oracle_leaves_numpy_unloaded():
    code = (
        "from liqgame import core, solver\n"
        "matrix = core.build_payoff_matrix(core.build_instance(3, -3, 10))\n"
        "for profile in solver.solve_mixed(matrix):\n"
        "    assert solver.brute_force_oracle(matrix, 200, around=profile, radius=1)\n"
        + NUMPY_LOADED
    )
    assert run_fresh(code) == "False\n"


def test_every_entry_point_runs_without_numpy():
    # a None entry in sys.modules makes any import of numpy raise ImportError
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import contextlib, io; from liqgame import cli, core, sim, solver\n"
        f"for argv in {ALL_SUBCOMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "spec = sim.StrategySpec('fixed_fraction', 0.7)\n"
        "assert 0 < sim.analytic_hit_ratio((1, 50), (-60, -1), spec, sim.HIGH_STRATEGY) < 1\n"
        "assert 0 < sim.analytic_hit_ratio((1, 50), (-60, -1), sim.StrategySpec('uniform_random'), spec) < 1\n"
        "matrix = core.build_payoff_matrix(core.build_instance(3, -3, 10))\n"
        "assert solver.brute_force_oracle(matrix, 12)\n"
        "for profile in solver.solve_mixed(matrix):\n"
        "    assert solver.brute_force_oracle(matrix, 200, around=profile, radius=1)\n"
        "print('ok')"
    )
    assert run_fresh(code) == "ok\n"


def test_every_public_name_resolves():
    code = "import liqgame; [getattr(liqgame, name) for name in liqgame.__all__]\n" + NUMPY_LOADED
    assert run_fresh(code) == "False\n"


def loaded_after_main(argv):
    code = (
        "import contextlib, io, json, sys; from liqgame import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "watched = ('liqgame', 'numpy', 'secrets', 'traceback', 'dataclasses', 'inspect',\n"
        "           'fractions', 'decimal', 'csv')\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] in watched]))"
    )
    return set(json.loads(run_fresh(code)))


CLI_BASE = {"liqgame", "liqgame.cli", "liqgame.commands", "liqgame.core"}


def adapter(argv):
    return f"liqgame.commands.{argv[0]}"


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["lp", "--receiver", "13", "--sender", "10"], {"liqgame.lp"}),
        # the closed form's weights are written from integers, so neither
        # fractions nor decimal loads. Support enumeration and the exact
        # checkers, in liqgame.solver, stay unloaded: solve compiles only the
        # code it runs
        (["solve", "--bi", "3", "--bj", "-3"], {"liqgame.equilibria"}),
        (["solve", "--bi", "3", "--bj", "-3", "--format", "csv"], set()),
        # bayes reads its game document and its payoff tables through liqgame.documents,
        # and computes in exact rationals; fractions imports decimal
        (["bayes"], {"liqgame.bayes", "liqgame.documents", "fractions", "decimal"}),
        # market rounds every volume half up on integers read by core.decimal_ratio, so
        # neither decimal nor fractions loads; csv loads only to write --format csv
        (["market", "--published", "final_4x4"], {"liqgame.market", "liqgame.documents"}),
        (
            ["market", "--published", "final_4x4", "--format", "csv"],
            {"liqgame.market", "liqgame.documents", "csv"},
        ),
        (
            ["market", "--constructive"],
            {"liqgame.market", "liqgame.bayes", "liqgame.documents"},
        ),
    ],
    ids=[
        "lp", "solve", "solve-csv", "bayes", "market-published", "market-published-csv",
        "market-constructive",
    ],
)
def test_subcommand_loads_only_its_modules(argv, modules):
    # its own adapter and no other; numpy, secrets (the simulate seed draw),
    # traceback (the exit-1 branch), dataclasses and inspect (records are
    # NamedTuples) stay unloaded too, fractions and decimal where no
    # exact rational or decimal arithmetic runs, and csv where no CSV is written
    assert loaded_after_main(argv) == CLI_BASE | {adapter(argv)} | modules


def test_simulate_loads_sim_only():
    # with --seed nothing is drawn from secrets, the engine needs no numpy,
    # and random strategies parse no fraction
    argv = ["simulate", "--trials", "50", "--seed", "1"]
    assert loaded_after_main(argv) == CLI_BASE | {adapter(argv), "liqgame.sim"}


def test_simulate_fixed_fraction_loads_no_fractions():
    # a fixed fraction's p/q is read by core.decimal_ratio, in integers alone
    argv = ["simulate", "--trials", "50", "--seed", "1", "--strategy-i", "high"]
    assert loaded_after_main(argv) == CLI_BASE | {adapter(argv), "liqgame.sim"}


@pytest.mark.parametrize("strategy", ["random", "high"])
def test_simulate_loads_no_numbers(strategy):
    # a fixed fraction is checked by core.decimal_ratio's reading of it, not as a numbers.Real
    code = (
        "import contextlib, io, sys; from liqgame import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['simulate', '--trials', '50', '--seed', '1', '--strategy-i', {strategy!r}]) == 0\n"
        "print('numbers' in sys.modules)"
    )
    assert run_fresh(code) == "False\n"


def test_help_loads_no_adapter():
    # every subcommand is listed by name and help line alone
    code = (
        "import contextlib, io, sys; from liqgame import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['-h'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('liqgame')))"
    )
    assert run_fresh(code) == "['liqgame', 'liqgame.cli', 'liqgame.commands', 'liqgame.core']\n"


def importtime(*args):
    """The modules ``python -X importtime *args`` lists on stderr: each one
    that an import statement or ``__import__`` loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}


def test_module_run_imports_no_second_cli():
    # under python -m the running cli is __main__: a module that imported
    # liqgame.cli would compile and run it a second time
    imported = importtime("-m", "liqgame.cli", "solve", "--bi", "3", "--bj", "-3")
    assert {"liqgame.core", "liqgame.commands.solve"} <= imported
    assert {"liqgame.cli", "fractions", "decimal"}.isdisjoint(imported)


def test_public_name_import_is_listed_by_importtime():
    # a name resolved on first access loads its module as the CLI loads its adapter
    assert "liqgame.solver" in importtime("-c", "import liqgame; liqgame.solve_mixed")


def test_solver_loads_no_equilibria():
    # support enumeration and its checkers own MixedProfile and read their tables through
    # documents.integer_tables; the closed form that solve prints is not theirs to load
    code = "import sys, liqgame.solver; print(sorted(m for m in sys.modules if m.startswith('liqgame')))"
    assert run_fresh(code) == "['liqgame', 'liqgame.core', 'liqgame.documents', 'liqgame.solver']\n"


def test_documents_loads_no_fractions_or_decimal():
    # market loads documents, and computes without either
    code = "import sys, liqgame.documents; print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    assert run_fresh(code) == "[]\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds of
    # every process's start-up
    code = (
        "import sys, liqgame.cli\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    assert run_fresh(code) == "[]\n"


def test_import_loads_no_submodule():
    code = "import sys, liqgame; print(sorted(m for m in sys.modules if m.startswith('liqgame')))"
    assert run_fresh(code) == "['liqgame']\n"


def test_star_import_binds_every_public_name():
    code = (
        "from liqgame import *\n"
        "import liqgame\n"
        "print([n for n in liqgame.__all__ if globals().get(n) is not getattr(liqgame, n)])"
    )
    assert run_fresh(code) == "[]\n"


def test_names_resolve_to_their_defining_module():
    code = (
        "import liqgame\n"
        "from liqgame import core, equilibria, sim, solver\n"
        "assert liqgame.solve_mixed is solver.solve_mixed\n"
        "assert liqgame.find_pure_equilibria is equilibria.find_pure_equilibria\n"
        "assert liqgame.MixedProfile is solver.MixedProfile\n"
        "assert liqgame.PayoffMatrix is core.PayoffMatrix\n"
        "assert liqgame.run_simulation is sim.run_simulation\n"
        "assert set(liqgame.__all__) <= set(dir(liqgame))\n"
        "assert len(liqgame.__all__) == len(set(liqgame.__all__))\n"
        "print('ok')"
    )
    assert run_fresh(code) == "ok\n"


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import liqgame\n"
        "try:\n"
        "    liqgame.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(liqgame, 'load_game_document'))"
    )
    assert run_fresh(code) == (
        "module 'liqgame' has no attribute 'no_such_name'\nFalse\n"
    )


def test_lazy_exports_resolve_in_this_process():
    # the checks above run in fresh interpreters; these run __getattr__ and __dir__ here
    for name in liqgame.__all__:
        module = __import__(f"liqgame.{liqgame._EXPORTS[name]}", fromlist=[name])
        assert getattr(liqgame, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="^module 'liqgame' has no attribute 'no_such_name'$"):
        liqgame.no_such_name
    assert set(liqgame.__all__) <= set(dir(liqgame))


def test_bundled_data_directory_is_no_module():
    # the data directory's name is not an identifier, so it cannot import as
    # an empty namespace package where fixtures.py used to be
    code = (
        "try:\n"
        "    from liqgame import fixtures\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)"
    )
    assert run_fresh(code) == "ImportError\n"


def test_public_name_list_is_pinned():
    assert liqgame.__all__ == [
        "ConditionalGame",
        "GameInstance",
        "LiquidityGameError",
        "MixedProfile",
        "PayoffMatrix",
        "PureEquilibrium",
        "QuadrantReport",
        "SimConfig",
        "SimReport",
        "StrategySpec",
        "TransferProblem",
        "analytic_hit_ratio",
        "best_quadrant",
        "best_response_envelope",
        "brute_force_oracle",
        "build_instance",
        "build_payoff_matrix",
        "dominant_strategy_per_type",
        "expected_payoffs",
        "find_pure_equilibria",
        "load_bundled_game",
        "load_published_matrix",
        "max_transfer",
        "quadrant_analysis",
        "run_simulation",
        "solve_mixed",
        "verify_equilibrium",
        "weight_by_priors",
    ]
