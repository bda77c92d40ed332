"""Seeded Monte Carlo play of bilateral transfer games over sampled holdings.

Each trial samples one balance per player uniformly from its range, derives
parcel sizes from the configured strategies and plays the acceptance rule.
Repeated mode keeps trading the same pair until one side clears or the round
budget runs out. Every trial draws from its own RNG substream, so reports
are bit-reproducible for a given seed regardless of execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

import numpy as np

from . import core
from .core import LiquidityGameError

STRATEGY_KINDS = ("fixed_fraction", "uniform_random", "full_balance")
MODES = ("one_shot", "repeated")


class IntractableStrategy(LiquidityGameError):
    pass


@dataclass(frozen=True)
class StrategySpec:
    """How a player turns a balance into a parcel size."""

    kind: str
    fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fixed_fraction":
            if self.fraction is None or not 0 < self.fraction <= 1:
                raise ValueError("fixed_fraction needs a fraction in (0, 1]")
        elif self.fraction is not None:
            raise ValueError(f"fraction is only valid for fixed_fraction, not {self.kind}")

    @property
    def needs_rng(self) -> bool:
        return self.kind == "uniform_random"

    def to_jsonable(self) -> dict:
        doc = {"kind": self.kind}
        if self.fraction is not None:
            doc["fraction"] = self.fraction
        return doc

    @classmethod
    def from_jsonable(cls, raw: dict) -> "StrategySpec":
        return cls(kind=raw["kind"], fraction=raw.get("fraction"))


# Default "high" / "low" parcel fractions. The proportions themselves are a
# modelling choice surfaced in configuration, never baked into game logic.
HIGH_STRATEGY = StrategySpec("fixed_fraction", 0.9)
LOW_STRATEGY = StrategySpec("fixed_fraction", 0.3)


def parcel_size(strategy: StrategySpec, balance_abs: int) -> int:
    """Deterministic parcel for a balance; random kinds sample elsewhere."""
    if strategy.kind == "full_balance":
        return balance_abs
    if strategy.kind == "fixed_fraction":
        return max(1, math.floor(strategy.fraction * balance_abs + 0.5))
    raise IntractableStrategy(f"{strategy.kind} has no deterministic parcel")


@dataclass(frozen=True)
class SimConfig:
    trials: int
    balance_range_i: tuple[int, int] = (1, 1000)
    balance_range_j: tuple[int, int] = (-1000, -1)
    strategy_i: StrategySpec = StrategySpec("uniform_random")
    strategy_j: StrategySpec = StrategySpec("uniform_random")
    seed: int = 0
    mode: str = "one_shot"
    max_rounds: int = 100

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo_i, hi_i = self.balance_range_i
        lo_j, hi_j = self.balance_range_j
        if lo_i > hi_i or lo_j > hi_j:
            raise ValueError("balance ranges must be nonempty (lo <= hi)")
        if lo_i < 1:
            raise ValueError("balance_range_i must be strictly positive")
        if hi_j > -1:
            raise ValueError("balance_range_j must be strictly negative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "balance_range_i": list(self.balance_range_i),
            "balance_range_j": list(self.balance_range_j),
            "strategy_i": self.strategy_i.to_jsonable(),
            "strategy_j": self.strategy_j.to_jsonable(),
            "seed": self.seed,
            "mode": self.mode,
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_jsonable(cls, raw: Mapping) -> "SimConfig":
        kwargs = {"trials": raw["trials"]}
        if "balance_range_i" in raw:
            kwargs["balance_range_i"] = tuple(raw["balance_range_i"])
        if "balance_range_j" in raw:
            kwargs["balance_range_j"] = tuple(raw["balance_range_j"])
        if "strategy_i" in raw:
            kwargs["strategy_i"] = StrategySpec.from_jsonable(raw["strategy_i"])
        if "strategy_j" in raw:
            kwargs["strategy_j"] = StrategySpec.from_jsonable(raw["strategy_j"])
        for key in ("seed", "mode", "max_rounds"):
            if key in raw:
                kwargs[key] = raw[key]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, doc: str) -> "SimConfig":
        return cls.from_jsonable(json.loads(doc))


@dataclass(frozen=True)
class TrialRecord:
    balance_i: int
    balance_j: int
    volume: int
    rounds_played: int
    trades: int
    cleared: bool


@dataclass(frozen=True)
class SimReport:
    trials: int
    trades_executed: int
    opportunities: int
    hit_ratio: float
    total_volume: int
    mean_volume_per_trial: float
    rounds_to_clear_histogram: Mapping[int, int]
    uncleared_trials: Optional[int]
    seed: int
    mode: str

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "trades_executed": self.trades_executed,
            "opportunities": self.opportunities,
            "hit_ratio": self.hit_ratio,
            "total_volume": self.total_volume,
            "mean_volume_per_trial": self.mean_volume_per_trial,
            "rounds_to_clear_histogram": {
                str(k): self.rounds_to_clear_histogram[k]
                for k in sorted(self.rounds_to_clear_histogram)
            },
            "uncleared_trials": self.uncleared_trials,
            "seed": self.seed,
            "mode": self.mode,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"

    def histogram_csv(self) -> str:
        lines = ["rounds,count"]
        lines.extend(
            f"{k},{self.rounds_to_clear_histogram[k]}"
            for k in sorted(self.rounds_to_clear_histogram)
        )
        return "\n".join(lines) + "\n"


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # Per-trial substream: same draws whether trials run serially or not.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _draw_parcel(strategy: StrategySpec, balance_abs: int, rng: np.random.Generator) -> int:
    if strategy.kind == "uniform_random":
        return int(rng.integers(1, balance_abs + 1))
    return parcel_size(strategy, balance_abs)


def iter_trials(config: SimConfig) -> Iterator[TrialRecord]:
    """Play each trial independently and yield its record."""
    lo_i, hi_i = config.balance_range_i
    lo_j, hi_j = config.balance_range_j
    issue_cap = max(hi_i, -lo_j)
    one_shot = config.mode == "one_shot"
    for index in range(config.trials):
        rng = _trial_rng(config.seed, index)
        balance_i = int(rng.integers(lo_i, hi_i + 1))
        balance_j = int(rng.integers(lo_j, hi_j + 1))
        instance = core.build_instance(balance_i, balance_j, issue_cap)
        initial_sum = instance.balance_i + instance.balance_j
        volume = 0
        trades = 0
        rounds = 0
        max_rounds = 1 if one_shot else config.max_rounds
        while rounds < max_rounds:
            rounds += 1
            offer = _draw_parcel(config.strategy_i, instance.balance_i, rng)
            capacity = _draw_parcel(config.strategy_j, -instance.balance_j, rng)
            payoff, _ = core.bilateral_payoff(core.Action(offer), core.Action(capacity))
            if payoff > 0:
                trades += 1
                volume += payoff
                if not one_shot:
                    instance = core.apply_trade(instance, payoff)
                    if instance.balance_i + instance.balance_j != initial_sum:
                        raise AssertionError("trade failed to conserve total balance")
                    if instance.balance_i < 0 or instance.balance_j > 0:
                        raise AssertionError("trade flipped a balance sign")
            if instance.balance_i == 0 or instance.balance_j == 0:
                break
        cleared = instance.balance_i == 0 or instance.balance_j == 0
        yield TrialRecord(
            balance_i=balance_i,
            balance_j=balance_j,
            volume=volume,
            rounds_played=rounds,
            trades=trades,
            cleared=cleared,
        )


def run_simulation(config: SimConfig) -> SimReport:
    """Aggregate all trials into a report; same (config, seed) gives
    byte-identical JSON."""
    trades = 0
    opportunities = 0
    volume = 0
    histogram: dict[int, int] = {}
    cleared_count = 0
    for record in iter_trials(config):
        trades += record.trades
        opportunities += record.rounds_played
        volume += record.volume
        if config.mode == "repeated" and record.cleared:
            cleared_count += 1
            histogram[record.rounds_played] = histogram.get(record.rounds_played, 0) + 1
    return SimReport(
        trials=config.trials,
        trades_executed=trades,
        opportunities=opportunities,
        hit_ratio=trades / opportunities,
        total_volume=volume,
        mean_volume_per_trial=volume / config.trials,
        rounds_to_clear_histogram=histogram,
        uncleared_trials=(config.trials - cleared_count) if config.mode == "repeated" else None,
        seed=config.seed,
        mode=config.mode,
    )


def _parcel_distribution(
    strategy: StrategySpec, lo_abs: int, hi_abs: int
) -> dict[int, Fraction]:
    """Exact parcel-size distribution under a uniform balance draw."""
    count = hi_abs - lo_abs + 1
    weight = Fraction(1, count)
    pmf: dict[int, Fraction] = {}
    for balance in range(lo_abs, hi_abs + 1):
        if strategy.kind == "uniform_random":
            share = weight / balance
            for parcel in range(1, balance + 1):
                pmf[parcel] = pmf.get(parcel, Fraction(0)) + share
        else:
            parcel = parcel_size(strategy, balance)
            pmf[parcel] = pmf.get(parcel, Fraction(0)) + weight
    return pmf


def analytic_hit_ratio(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
) -> float:
    """Exact success probability P(offer <= capacity) by direct summation
    over the joint parcel distribution. Serves as the convergence oracle
    for ``run_simulation``."""
    lo_i, hi_i = range_i
    lo_j, hi_j = range_j
    offer_pmf = _parcel_distribution(strategy_i, lo_i, hi_i)
    capacity_pmf = _parcel_distribution(strategy_j, -hi_j, -lo_j)
    # Tail sums of the capacity distribution: P(capacity >= v).
    capacity_values = sorted(capacity_pmf)
    tail: dict[int, Fraction] = {}
    acc = Fraction(0)
    for v in reversed(capacity_values):
        acc += capacity_pmf[v]
        tail[v] = acc
    def capacity_at_least(v: int) -> Fraction:
        for w in capacity_values:
            if w >= v:
                return tail[w]
        return Fraction(0)
    total = Fraction(0)
    for v, p in offer_pmf.items():
        total += p * capacity_at_least(v)
    return float(total)
