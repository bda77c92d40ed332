"""Seeded Monte Carlo play of bilateral transfer games over sampled holdings.

Each trial samples one balance per player uniformly from its range, derives
parcel sizes from the configured strategies and plays the acceptance rule.
Repeated mode keeps trading the same pair until one side clears or the round
budget runs out; one-shot mode is repeated mode stopped after round 1.

Trials are played in blocks of ``BLOCK`` = 1024; block b draws, as arrays,
its balances and then each round's parcels for its active trials from the
substream ``PCG64(SeedSequence(seed, spawn_key=(b,)))``. So a (config, seed)
gives byte-identical reports, a full block's trials do not depend on the
total trial count, and round 1 of a repeated trial is its one-shot play.
Seeded results differ from earlier versions, which drew per trial.
numpy is imported only inside the functions that compute arrays.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .core import LiquidityGameError

STRATEGY_KINDS = ("fixed_fraction", "uniform_random", "full_balance")
MODES = ("one_shot", "repeated")
# Trials per RNG substream. Changing it changes every seeded result.
BLOCK = 1024


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


def parcel_size(strategy: StrategySpec, balance_abs):
    """Deterministic parcel for an absolute balance, or for each entry of an
    int64 array of them; random kinds sample elsewhere.

    fixed_fraction rounds fraction * balance half up, at least 1, in exact
    integer arithmetic: max(1, (2 p b + q) // 2q), where p/q is the decimal
    the fraction is written as (0.7 is 7/10, not the nearest binary float).
    """
    import numpy as np
    if strategy.kind == "full_balance":
        return balance_abs
    if strategy.kind == "fixed_fraction":
        p, q = Fraction(str(strategy.fraction)).as_integer_ratio()
        if 2 * q * int(np.max(balance_abs)) >= 2**63:
            raise ValueError(f"fraction {strategy.fraction} times the balance overflows int64")
        rounded = (2 * p * balance_abs + q) // (2 * q)
        return rounded + (rounded == 0)  # max(1, rounded) for ints and arrays alike
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


def _play_block(config: SimConfig, first: int) -> tuple:
    """Play the block of trials from index ``first`` (a multiple of BLOCK)
    together; returns the TrialRecord fields as arrays, in field order."""
    import numpy as np
    size = min(BLOCK, config.trials - first)
    seeds = np.random.SeedSequence(config.seed, spawn_key=(first // BLOCK,))
    rng = np.random.Generator(np.random.PCG64(seeds))
    lo_i, hi_i = config.balance_range_i
    lo_j, hi_j = config.balance_range_j
    start_i = rng.integers(lo_i, hi_i, size, endpoint=True)
    start_j = rng.integers(-hi_j, -lo_j, size, endpoint=True)
    left_i, left_j = start_i.copy(), start_j.copy()
    volume = np.zeros(size, dtype=np.int64)
    trades = np.zeros(size, dtype=np.int64)
    rounds = np.zeros(size, dtype=np.int64)
    active = np.arange(size)
    max_rounds = 1 if config.mode == "one_shot" else config.max_rounds
    # Deterministic parcels repeat after a round that moves nothing: such a
    # trial would idle until max_rounds, so settle it at once, uncleared.
    deterministic = "uniform_random" not in (config.strategy_i.kind, config.strategy_j.kind)
    for round_no in range(1, max_rounds + 1):
        if not active.size:
            break
        held, needed = left_i[active], left_j[active]
        offer = _parcels(config.strategy_i, held, rng)
        capacity = _parcels(config.strategy_j, needed, rng)
        # The acceptance rule: the offer moves in full iff it fits the capacity.
        moved = np.where(offer <= capacity, offer, 0)
        held -= moved
        needed -= moved
        broken = (held < 0) | (needed < 0) | (held - needed != start_i[active] - start_j[active])
        if broken.any():
            raise AssertionError("trade flipped a balance sign or failed to conserve the total")
        left_i[active], left_j[active] = held, needed
        volume[active] += moved
        trades[active] += moved > 0
        rounds[active] = round_no
        live = (held > 0) & (needed > 0)
        if deterministic:
            rounds[active[live & (moved == 0)]] = max_rounds
            live &= moved > 0
        active = active[live]
    cleared = (left_i == 0) | (left_j == 0)
    return start_i, -start_j, volume, rounds, trades, cleared


def _parcels(strategy: StrategySpec, balance_abs, rng):
    if strategy.kind == "uniform_random":
        return rng.integers(1, balance_abs, endpoint=True)
    return parcel_size(strategy, balance_abs)


def iter_trials(config: SimConfig) -> Iterator[TrialRecord]:
    """Yield each trial's record, in trial order."""
    for first in range(0, config.trials, BLOCK):
        for fields in zip(*(a.tolist() for a in _play_block(config, first))):
            yield TrialRecord(*fields)


def run_simulation(config: SimConfig) -> SimReport:
    """Aggregate all trials into a report; same (config, seed) gives
    byte-identical JSON."""
    repeated = config.mode == "repeated"
    trades = opportunities = volume = 0
    histogram: Counter[int] = Counter()
    for first in range(0, config.trials, BLOCK):
        _, _, block_volume, rounds, block_trades, cleared = _play_block(config, first)
        trades += int(block_trades.sum())
        opportunities += int(rounds.sum())
        # Python-int sum: a block of large balances can exceed int64.
        volume += sum(block_volume.tolist())
        if repeated:
            histogram.update(rounds[cleared].tolist())
    return SimReport(
        trials=config.trials,
        trades_executed=trades,
        opportunities=opportunities,
        hit_ratio=trades / opportunities,
        total_volume=volume,
        mean_volume_per_trial=volume / config.trials,
        rounds_to_clear_histogram=dict(histogram),
        uncleared_trials=(config.trials - histogram.total()) if repeated else None,
        seed=config.seed,
        mode=config.mode,
    )


def _parcel_weights(strategy: StrategySpec, lo_abs: int, hi_abs: int, top: int) -> tuple[list, int]:
    """Parcel distribution under a uniform draw of the absolute balance from
    lo_abs..hi_abs, as integer weights w[0..top] over one denominator."""
    import numpy as np
    width = hi_abs - lo_abs + 1
    weights = [0] * (top + 1)
    if strategy.kind == "uniform_random":
        # P(parcel = v) = (1/width) * sum of 1/b over balances b >= max(v, lo_abs).
        lcm = math.lcm(*range(lo_abs, hi_abs + 1))
        tail = 0
        for b in range(hi_abs, 0, -1):
            if b >= lo_abs:
                tail += lcm // b
            weights[b] = tail
        return weights, width * lcm
    for parcel in parcel_size(strategy, np.arange(lo_abs, hi_abs + 1)).tolist():
        weights[parcel] += 1
    return weights, width


def analytic_hit_ratio(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
) -> float:
    """Exact success probability P(offer <= capacity) of one round over the
    joint parcel distribution, in integer operations linear in the largest
    balance. Serves as the convergence oracle for ``run_simulation``."""
    top = max(range_i[1], -range_j[0])
    offers, denom_i = _parcel_weights(strategy_i, range_i[0], range_i[1], top)
    capacities, denom_j = _parcel_weights(strategy_j, -range_j[1], -range_j[0], top)
    # One backward pass: at_least is the capacity weight on parcels >= v.
    total = at_least = 0
    for offer, capacity in zip(reversed(offers), reversed(capacities)):
        at_least += capacity
        total += offer * at_least
    return float(Fraction(total, denom_i * denom_j))
