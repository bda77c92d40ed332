"""``liqgame market``: composition aggregates of a bundled or a prior-weighted table."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .. import core, documents, market

if TYPE_CHECKING:
    import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"))
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--published",
        choices=sorted(market.PUBLISHED_TABLES),
        help="bundled table; intermediate_2x4 has untyped rows, so only --format csv reports it",
    )
    mode.add_argument(
        "--constructive", action="store_true", help="weight per-type-pair tables by priors"
    )
    parser.add_argument("--config", type=Path, help="constructive base document")
    parser.add_argument("--priors", type=str, help="type weights for both sides, e.g. 0.35,0.65")
    parser.add_argument("--priors-j", type=str, help="column-side weights when different")


def build_market_report(matrix: core.PayoffMatrix, mode: str, table: Optional[str]) -> dict:
    analysis = market.quadrant_analysis(matrix)
    best = market.best_quadrant(analysis)
    report = {"mode": mode}
    if table is not None:
        report["table"] = table
    report.update(analysis.to_jsonable())
    report["best_quadrant"] = list(best)
    return report


def handle(args: argparse.Namespace) -> str | dict:
    if args.published is not None:
        for flag in ("config", "priors", "priors_j"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--published takes no --{flag.replace('_', '-')}")
        matrix = market.load_published_matrix(args.published)
        mode, table = "published", args.published
    else:
        if args.config is not None:
            types, strategies, matrices, prior_i, prior_j = market.load_base_document(args.config)
        else:
            from .. import bayes
            game = bayes.load_bundled_game()
            types, strategies, prior_i = game.types, game.strategies_i, game.prior
            matrices, prior_j = market.pairwise_base_from_conditional(game), prior_i
        if args.priors is not None:
            prior_i = prior_j = documents.parse_numbers(args.priors, "--priors")
        if args.priors_j is not None:
            prior_j = documents.parse_numbers(args.priors_j, "--priors-j")
        matrix = market.weight_by_priors(types, strategies, matrices, prior_i, prior_j)
        mode, table = "constructive", None
    if args.format == "csv":
        return market.cells_csv(matrix)
    return build_market_report(matrix, mode, table)
