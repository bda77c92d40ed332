"""Command-line interface: solve, bayes, market, simulate, lp.

``main`` runs the adapter in ``liqgame.commands`` of the one subcommand
named, and only that one is imported, then writes its report in one place.
Reports are machine-readable; plots are left to downstream tools fed by the
CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .commands import atomic_write
from .core import LiquidityGameError

# Each subcommand, in the order help lists them, and its help line.
SUBCOMMANDS = {
    "solve": "payoff matrix and equilibria",
    "bayes": "two-type threshold analysis",
    "market": "composition aggregates",
    "simulate": "seeded Monte Carlo runs",
    "lp": "largest feasible transfer",
}


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _adapter(command: str):
    # __import__, unlike importlib.import_module, is listed by -X importtime
    return __import__(f"liqgame.commands.{command}", fromlist=["handle"])


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand is listed, and only the one
    that the first argument not starting with ``-`` names gets its options,
    so only that subcommand's adapter is imported."""
    parser = argparse.ArgumentParser(
        prog="liqgame",
        description="Equilibria, Bayesian analysis and simulation of bilateral "
        "bond-transfer games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for command, text in SUBCOMMANDS.items():
        subparser = sub.add_parser(command, help=text)
        if command == chosen:
            subparser.add_argument("--output", type=Path, help="write the report here (atomic)")
            _adapter(command).add_arguments(subparser)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        report = _adapter(args.command).handle(args)
        text = report if isinstance(report, str) else _dumps(report)
        if args.output is None:
            sys.stdout.write(text)
        else:
            atomic_write(args.output, text)
        return 0
    except (LiquidityGameError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 1


def run() -> None:
    """Process entry point of ``python -m liqgame.cli`` and the ``liqgame``
    script: ``main``, then ``gc.freeze()`` so that the collections of
    interpreter shutdown skip the request's objects (none needs a finaliser;
    atexit handlers, flushes and module teardown still run), then exit."""
    code = main()
    import gc
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
