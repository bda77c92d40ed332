"""Command-line interface: solve, bayes, market, simulate, lp.

Every subcommand is a thin adapter over the library: its handler returns
the report text, exactly what the corresponding report builder serialises,
so scripted use and library use cannot drift apart, and ``main`` writes that
text in one place. Reports are machine-readable; plots are left to
downstream tools fed by the CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import core
from .core import LiquidityGameError

if TYPE_CHECKING:
    from . import bayes, market, sim


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    # Never leave a partial file behind: write next to the target, then rename.
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_solve_report(instance: core.GameInstance) -> dict:
    from . import equilibria
    matrix = core.build_payoff_matrix(instance)
    return {
        "instance": instance._asdict(),
        "actions_i": list(matrix.actions_i),
        "actions_j": list(matrix.actions_j),
        "payoff_matrix": matrix.to_jsonable(),
        "pure_equilibria": [eq.to_jsonable() for eq in equilibria.find_pure_equilibria(matrix)],
        "mixed_equilibria": [p.to_jsonable() for p in equilibria.instance_mixed_profiles(instance)],
    }


def build_bayes_report(
    game: bayes.ConditionalGame, responses: Optional[dict[str, str]] = None
) -> dict:
    from . import bayes
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
    solution = bayes.indifference_threshold(game, responses)
    payoffs_at_prior = {s: bayes.expected_payoff(game, s, responses) for s in game.strategies_i}
    best_at_prior = max(game.strategies_i, key=lambda s: payoffs_at_prior[s])
    report = {
        "types": list(game.types),
        "prior": list(game.prior),
        "strategies_i": list(game.strategies_i),
        "strategies_j": list(game.strategies_j),
        "dominant_strategies": dominant,
        "expected_payoffs_at_prior": payoffs_at_prior,
        "best_strategy_at_prior": best_at_prior,
    }
    report.update(solution._asdict())
    return report


def build_market_report(matrix: core.PayoffMatrix, mode: str, table: Optional[str]) -> dict:
    from . import market
    analysis = market.quadrant_analysis(matrix)
    best = market.best_quadrant(analysis)
    report = {"mode": mode}
    if table is not None:
        report["table"] = table
    report.update(analysis.to_jsonable())
    report["best_quadrant"] = list(best)
    return report


def _parse_strategy(text: str, flag: str) -> sim.StrategySpec:
    from . import sim
    aliases = {
        "high": sim.HIGH_STRATEGY,
        "low": sim.LOW_STRATEGY,
        "full": sim.StrategySpec("full_balance"),
        "full_balance": sim.StrategySpec("full_balance"),
        "random": sim.StrategySpec("uniform_random"),
        "uniform_random": sim.StrategySpec("uniform_random"),
    }
    if text in aliases:
        return aliases[text]
    if text.startswith("fraction:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            pass
        else:  # a number outside (0, 1] is StrategySpec's refusal
            return sim.StrategySpec("fixed_fraction", value)
    raise ValueError(f"{flag} must be high, low, full, random or fraction:<x>, got {text!r}")


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:  # not one colon, or not integers
        raise ValueError(f"{flag} must be two integers lo:hi, got {text!r}") from None


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be numbers separated by commas, got {text!r}") from None


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


def _cmd_solve(args: argparse.Namespace) -> str:
    if args.config is not None:
        instance = core.instance_from_json(args.config.read_text())
    else:
        if args.bi is None or args.bj is None:
            raise ValueError("pass --bi and --bj, or --config <file>")
        instance = core.build_instance(args.bi, args.bj, args.cap)
    # |B_i| x |B_j| is the matrix shape, so refuse before building it, in either format
    core.check_dimension_cap(abs(instance.balance_i), abs(instance.balance_j), args.dimension_cap)
    if args.format == "csv":
        return core.build_payoff_matrix(instance).to_csv()
    return _dumps(build_solve_report(instance))


def _cmd_bayes(args: argparse.Namespace) -> str:
    from . import bayes
    game = bayes.load_bundled_game() if args.game is None else bayes.load_game_document(args.game)
    if args.prior is not None:
        game = game._replace(prior=_parse_floats(args.prior, "--prior"))
    responses = _parse_responses(args.response) if args.response else None
    if args.format == "csv":
        raise ValueError("bayes reports have no csv form; use --format json")
    return _dumps(build_bayes_report(game, responses))


def _cmd_market(args: argparse.Namespace) -> str:
    from . import market
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
            from . import bayes
            game = bayes.load_bundled_game()
            types, strategies, prior_i = game.types, game.strategies_i, game.prior
            matrices, prior_j = market.pairwise_base_from_conditional(game), prior_i
        if args.priors is not None:
            prior_i = prior_j = _parse_floats(args.priors, "--priors")
        if args.priors_j is not None:
            prior_j = _parse_floats(args.priors_j, "--priors-j")
        matrix = market.weight_by_priors(types, strategies, matrices, prior_i, prior_j)
        mode, table = "constructive", None
    if args.format == "csv":
        return market.cells_csv(matrix)
    return _dumps(build_market_report(matrix, mode, table))


def _cmd_simulate(args: argparse.Namespace) -> str:
    from . import sim
    raw: dict = {"trials": 10_000}
    if args.config is not None:
        document = json.loads(args.config.read_text())
        # the flags below are merged in, so a non-object or unknown key fails first
        core.check_document(document, "simulation config", (), sim.SimConfig._fields)
        raw.update(document)
    if args.range_i is not None:
        raw["balance_range_i"] = list(_parse_range(args.range_i, "--range-i"))
    if args.range_j is not None:
        raw["balance_range_j"] = list(_parse_range(args.range_j, "--range-j"))
    if args.strategy_i is not None:
        raw["strategy_i"] = _parse_strategy(args.strategy_i, "--strategy-i")._asdict()
    if args.strategy_j is not None:
        raw["strategy_j"] = _parse_strategy(args.strategy_j, "--strategy-j")._asdict()
    flags = {key: getattr(args, key) for key in ("trials", "mode", "max_rounds", "seed")}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    config = sim.SimConfig.from_jsonable(raw)
    if "seed" not in raw:  # drawn and echoed only for a config that is otherwise valid
        import secrets
        config = config._replace(seed=secrets.randbits(64))
        print(f"seed: {config.seed}", file=sys.stderr)
    report = sim.run_simulation(config)
    if args.histogram is not None:
        _atomic_write(args.histogram, report.histogram_csv())
    if args.format == "csv":
        return report.histogram_csv()
    return _dumps(report.to_jsonable())


def _cmd_lp(args: argparse.Namespace) -> str:
    from . import lp
    problem = lp.TransferProblem(args.receiver, args.sender)
    if args.format == "csv":
        raise ValueError("lp has no csv form; use --format json or the default")
    transfer = lp.max_transfer(problem)
    if args.format == "json":
        return _dumps({"receiver": args.receiver, "sender": args.sender, "max_transfer": transfer})
    return f"{transfer}\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=Path, help="write the report here (atomic)")
    common.add_argument("--format", choices=("json", "csv"), default=None)

    parser = argparse.ArgumentParser(
        prog="liqgame",
        description="Equilibria, Bayesian analysis and simulation of bilateral "
        "bond-transfer games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="payoff matrix and equilibria")
    p_solve.add_argument("--bi", type=int, help="long player's balance (positive)")
    p_solve.add_argument("--bj", type=int, help="short player's balance (negative)")
    p_solve.add_argument("--cap", type=int, default=core.DEFAULT_ISSUE_CAP, help="bonds on issue")
    p_solve.add_argument("--config", type=Path, help="JSON instance document")
    p_solve.add_argument(
        "--dimension-cap",
        type=int,
        default=core.DEFAULT_DIMENSION_CAP,
        help="refuse games with more than this many actions per side",
    )
    p_solve.set_defaults(handler=_cmd_solve)

    p_bayes = sub.add_parser("bayes", parents=[common], help="two-type threshold analysis")
    p_bayes.add_argument("--game", type=Path, help="game document (default: bundled)")
    p_bayes.add_argument("--prior", type=str, help="override prior, e.g. 0.35,0.65")
    p_bayes.add_argument(
        "--response", type=str, help="counterfactual responses, e.g. a=high,b=low"
    )
    p_bayes.set_defaults(handler=_cmd_bayes)

    p_market = sub.add_parser("market", parents=[common], help="composition aggregates")
    mode = p_market.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--published",
        choices=sorted(core.PUBLISHED_TABLES),
        help="bundled table; intermediate_2x4 has untyped rows, so only --format csv reports it",
    )
    mode.add_argument(
        "--constructive", action="store_true", help="weight per-type-pair tables by priors"
    )
    p_market.add_argument("--config", type=Path, help="constructive base document")
    p_market.add_argument("--priors", type=str, help="type weights for both sides, e.g. 0.35,0.65")
    p_market.add_argument("--priors-j", type=str, help="column-side weights when different")
    p_market.set_defaults(handler=_cmd_market)

    p_sim = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo runs")
    p_sim.add_argument("--config", type=Path, help="JSON simulation config")
    p_sim.add_argument("--seed", type=int, default=None, help="RNG seed (unsigned 64-bit)")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--range-i", type=str, help="long balance range lo:hi")
    p_sim.add_argument("--range-j", type=str, help="short balance range lo:hi")
    p_sim.add_argument("--strategy-i", type=str, help="high|low|full|random|fraction:<x>")
    p_sim.add_argument("--strategy-j", type=str)
    p_sim.add_argument("--mode", help="play mode, one of liqgame.sim.MODES")
    p_sim.add_argument("--max-rounds", type=int)
    p_sim.add_argument("--histogram", type=Path, help="also write the rounds,count CSV here")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_lp = sub.add_parser("lp", parents=[common], help="largest feasible transfer")
    p_lp.add_argument("--receiver", type=int, required=True, help="absolute need of the short side")
    p_lp.add_argument("--sender", type=int, required=True, help="holding of the long side")
    p_lp.set_defaults(handler=_cmd_lp)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            _atomic_write(args.output, text)
        return 0
    except (LiquidityGameError, ValueError, OSError) as exc:
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
