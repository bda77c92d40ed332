"""``liqgame solve``: the payoff matrix and equilibria of one instance game."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .. import core

if TYPE_CHECKING:
    import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--bi", type=int, help="long player's balance (positive)")
    parser.add_argument("--bj", type=int, help="short player's balance (negative)")
    parser.add_argument("--cap", type=int, help="bonds on issue")
    parser.add_argument("--config", type=Path, help="JSON instance document")


def build_solve_report(instance: core.GameInstance) -> dict:
    from .. import equilibria
    matrix = core.build_payoff_matrix(instance)
    return {
        "instance": instance._asdict(),
        "actions_i": list(matrix.actions_i),
        "actions_j": list(matrix.actions_j),
        "payoff_matrix": matrix.to_jsonable(),
        "pure_equilibria": [eq.to_jsonable() for eq in equilibria.find_pure_equilibria(matrix)],
        "mixed_equilibria": equilibria.instance_mixed_jsonable(instance),
    }


def handle(args: argparse.Namespace) -> str | dict:
    if args.config is not None:
        for flag in ("bi", "bj", "cap"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--config takes no --{flag}")
        instance = core.instance_from_json(args.config.read_text())
    else:
        if args.bi is None or args.bj is None:
            raise ValueError("pass --bi and --bj, or --config <file>")
        cap = core.DEFAULT_ISSUE_CAP if args.cap is None else args.cap
        instance = core.build_instance(args.bi, args.bj, cap)
    # |B_i| x |B_j| is the matrix shape, so count what is printed before building it
    m, n = abs(instance.balance_i), abs(instance.balance_j)
    if args.format == "csv":
        # in cells; a row or a column (its action, tuple and line) holds about six cells' bytes
        core.check_work(m * n + 6 * (m + n), f"solve of a {m}x{n} game as CSV")
        return core.build_payoff_matrix(instance).to_csv()
    from .. import equilibria
    core.check_work(equilibria.report_work(m, n), f"solve of a {m}x{n} game")
    return build_solve_report(instance)
