"""``liqgame simulate``: seeded Monte Carlo runs of the simulator."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .. import core, sim
from . import atomic_write

if TYPE_CHECKING:
    import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--config", type=Path, help="JSON simulation config")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (unsigned 64-bit)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--range-i", type=str, help="long balance range lo:hi")
    parser.add_argument("--range-j", type=str, help="short balance range, written --range-j=lo:hi")
    parser.add_argument("--strategy-i", type=str, help="high|low|full|random|fraction:<x>")
    parser.add_argument("--strategy-j", type=str)
    parser.add_argument("--mode", help="play mode, one of liqgame.sim.MODES")
    parser.add_argument("--max-rounds", type=int)
    parser.add_argument("--histogram", type=Path, help="also write the rounds,count CSV here")


def _parse_strategy(text: str, flag: str) -> sim.StrategySpec:
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


def handle(args: argparse.Namespace) -> str | dict:
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
    if config.mode == "one_shot":  # one round per trial: no max_rounds to read, no histogram
        for flag, given in (
            ("--format csv", args.format == "csv"),
            ("--histogram", args.histogram is not None),
            ("--max-rounds", args.max_rounds is not None),
            ("simulation config key 'max_rounds'", "max_rounds" in raw),  # the document's
        ):
            if given:
                raise ValueError(f"{flag} needs --mode repeated")
    if "seed" not in raw:  # drawn here, echoed once the work check has passed and the run is done
        import secrets
        config = config._replace(seed=secrets.randbits(64))
    report = sim.run_simulation(config)
    if "seed" not in raw:
        print(f"seed: {config.seed}", file=sys.stderr)
    if args.histogram is not None:
        atomic_write(args.histogram, report.histogram_csv())
    if args.format == "csv":
        return report.histogram_csv()
    return report.to_jsonable()
