"""``liqgame lp``: the largest feasible single transfer."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import lp

if TYPE_CHECKING:
    import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json",))
    parser.add_argument("--receiver", type=int, required=True, help="absolute need of the short side")
    parser.add_argument("--sender", type=int, required=True, help="holding of the long side")


def handle(args: argparse.Namespace) -> str | dict:
    problem = lp.TransferProblem(args.receiver, args.sender)
    transfer = lp.max_transfer(problem)
    if args.format == "json":
        return {"receiver": args.receiver, "sender": args.sender, "max_transfer": transfer}
    return f"{transfer}\n"
