"""``liqgame bayes``: the two-type threshold analysis of a game document."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .. import bayes, documents
from ..core import LiquidityGameError

if TYPE_CHECKING:
    import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--game", type=Path, help="game document (default: bundled)")
    parser.add_argument("--prior", type=str, help="override prior, e.g. 0.35,0.65")
    parser.add_argument(
        "--response", type=str, help="counterfactual responses, e.g. a=high,b=low"
    )


def build_bayes_report(
    game: bayes.ConditionalGame, responses: Optional[dict[str, str]] = None
) -> dict:
    found = [bayes.dominant_strategy_per_type(game, k) for k in range(len(game.types))]
    dominant = {
        t: None if f is None else {"strategy": f[0], "strictness": f[1]}
        for t, f in zip(game.types, found)
    }
    if responses is None:
        responses = {}
        for type_label, info in dominant.items():
            if info is None:
                raise LiquidityGameError(
                    f"type {type_label!r} has no dominant strategy; "
                    "pass an explicit response map"
                )
            responses[type_label] = info["strategy"]
    breakpoints, best = bayes.best_response_envelope(game, responses)
    payoffs = bayes.expected_payoffs(game, responses)  # exact, so a tie names the first strategy
    return {
        "types": list(game.types),
        "prior": list(game.prior),
        "strategies_i": list(game.strategies_i),
        "strategies_j": list(game.strategies_j),
        "dominant_strategies": dominant,
        "expected_payoffs_at_prior": {s: float(v) for s, v in payoffs.items()},
        "best_strategy_at_prior": max(payoffs, key=payoffs.get),
        "responses": dict(responses),
        # the first breakpoint; with none, 1 when the one best strategy is the first, else 0
        "threshold_p": breakpoints[0] if breakpoints else float(best[0] == game.strategies_i[0]),
        "strategy_above": best[-1],
        "strategy_below": best[0],
        "interior": bool(breakpoints),
        "breakpoints": breakpoints,
        "best_strategies": best,
    }


def _parse_responses(text: str) -> dict[str, str]:
    responses = {}
    for item in text.split(","):
        type_label, _, strategy = (part.strip() for part in item.partition("="))
        if not _:
            raise ValueError(f"response must look like type=strategy, got {item!r}")
        if type_label in responses:
            raise ValueError(f"response for type {type_label!r} given twice")
        responses[type_label] = strategy
    return responses


def handle(args: argparse.Namespace) -> dict:
    game = bayes.load_bundled_game() if args.game is None else bayes.load_game_document(args.game)
    if args.prior is not None:
        game = game._replace(prior=documents.parse_numbers(args.prior, "--prior"))
    responses = _parse_responses(args.response) if args.response else None
    return build_bayes_report(game, responses)
