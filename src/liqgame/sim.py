"""Seeded Monte Carlo play of bilateral transfer games over sampled holdings.

Each trial samples one balance per player uniformly from its range, derives
parcel sizes from the configured strategies and plays the acceptance rule.
Repeated mode keeps trading the same pair until one side clears or the round
budget runs out; one-shot mode is repeated mode stopped after round 1.

Trials are played in blocks of ``BLOCK`` = 1024. Block b draws from its own
MT19937 substream, ``random.Random(b * 2**64 + seed)``: first its balances,
then, round by round, the random parcels of its trials still in play. Every
draw is a rejection sample on ``getrandbits``, whose output Python keeps
stable (the ``randrange`` algorithm may change between versions). So a
(config, seed) gives byte-identical reports on every supported Python, a full
block's trials do not depend on the total trial count, and round 1 of a
repeated trial is its one-shot play. Seeded results differ from earlier
versions, which drew from PCG64 generators.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import random
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .core import Checked, LiquidityGameError, check_document, check_ints, is_int, transferred

STRATEGY_KINDS = ("fixed_fraction", "uniform_random", "full_balance")
MODES = ("one_shot", "repeated")
# Trials per RNG substream. Changing it changes every seeded result.
BLOCK = 1024


class IntractableStrategy(LiquidityGameError):
    pass


class _StrategySpec(NamedTuple):
    kind: str
    fraction: Optional[float] = None


class StrategySpec(Checked, _StrategySpec):
    """How a player turns a balance into a parcel size."""

    __slots__ = ()

    def _check(self) -> "StrategySpec":
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fixed_fraction":
            # bool is a numbers.Real, but JSON true/false is no fraction
            real = isinstance(self.fraction, numbers.Real) and not isinstance(self.fraction, bool)
            if not real or not 0 < self.fraction <= 1:
                raise ValueError("fixed_fraction needs a fraction in (0, 1]")
        elif self.fraction is not None:
            raise ValueError(f"fraction is only valid for fixed_fraction, not {self.kind}")
        return self

    @classmethod
    def from_jsonable(cls, raw) -> "StrategySpec":
        """Read a strategy document: ``kind``, and ``fraction`` for a fixed fraction."""
        check_document(raw, "strategy", ("kind",), ("fraction",))
        return cls(**raw)


# Default "high" / "low" parcel fractions. The proportions themselves are a
# modelling choice surfaced in configuration, never baked into game logic.
HIGH_STRATEGY = StrategySpec("fixed_fraction", 0.9)
LOW_STRATEGY = StrategySpec("fixed_fraction", 0.3)


def _deterministic_parcel(strategy: StrategySpec) -> Callable[[int], int]:
    """The parcel as a function of the absolute balance; a fixed fraction's
    p/q is parsed here, once."""
    if strategy.kind == "full_balance":
        return lambda balance: balance
    if strategy.kind == "fixed_fraction":
        from fractions import Fraction  # here, so random strategies load neither it nor decimal
        p, q = Fraction(str(strategy.fraction)).as_integer_ratio()
        twice_p, twice_q = 2 * p, 2 * q
        return lambda balance: (twice_p * balance + q) // twice_q or 1
    raise IntractableStrategy(f"{strategy.kind} has no deterministic parcel")


def parcel_size(strategy: StrategySpec, balance_abs: int) -> int:
    """Deterministic parcel for an absolute balance; random kinds sample
    elsewhere.

    fixed_fraction rounds fraction * balance half up, at least 1, in exact
    integer arithmetic: max(1, (2 p b + q) // 2q), where p/q is the decimal
    the fraction is written as (0.7 is 7/10, not the nearest binary float).
    """
    return _deterministic_parcel(strategy)(balance_abs)


def _check_ranges(range_i, range_j) -> None:
    """The balance-range rule: each range a pair of integers (lo, hi) with
    lo <= hi, i's strictly positive and j's strictly negative; ValueError
    otherwise."""
    for name, pair in (("balance_range_i", range_i), ("balance_range_j", range_j)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(is_int, pair))):
            raise ValueError(f"{name} must be a pair of integers")
    (lo_i, hi_i), (lo_j, hi_j) = range_i, range_j
    if lo_i > hi_i or lo_j > hi_j:
        raise ValueError("balance ranges must be nonempty (lo <= hi)")
    if lo_i < 1:
        raise ValueError("balance_range_i must be strictly positive")
    if hi_j > -1:
        raise ValueError("balance_range_j must be strictly negative")


class _SimConfig(NamedTuple):
    trials: int
    balance_range_i: tuple[int, int] = (1, 1000)
    balance_range_j: tuple[int, int] = (-1000, -1)
    strategy_i: StrategySpec = StrategySpec("uniform_random")
    strategy_j: StrategySpec = StrategySpec("uniform_random")
    seed: int = 0
    mode: str = "one_shot"
    max_rounds: int = 100


class SimConfig(Checked, _SimConfig):
    __slots__ = ()

    def _check(self) -> "SimConfig":
        check_ints(self, ("trials", "seed", "max_rounds"))
        ranges = self.balance_range_i, self.balance_range_j
        _check_ranges(*ranges)
        if any(isinstance(pair, list) for pair in ranges):  # _replace runs these checks again
            return self._replace(balance_range_i=tuple(ranges[0]), balance_range_j=tuple(ranges[1]))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        return self

    @classmethod
    def from_jsonable(cls, raw) -> "SimConfig":
        """Read a config document: ``trials`` and other fields, strategies as strategy documents."""
        check_document(raw, "simulation config", ("trials",), cls._fields)
        specs = {k: StrategySpec.from_jsonable(v) for k, v in raw.items() if k.startswith("strategy")}
        return cls(**{**raw, **specs})


class TrialRecord(NamedTuple):
    balance_i: int
    balance_j: int
    volume: int
    rounds_played: int
    trades: int
    cleared: bool


class SimReport(NamedTuple):
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
        # JSON keys are strings: the writer's sort_keys puts "10" before "2"
        histogram = {str(k): n for k, n in self.rounds_to_clear_histogram.items()}
        return {**self._asdict(), "rounds_to_clear_histogram": histogram}

    def histogram_csv(self) -> str:
        lines = ["rounds,count"]
        lines.extend(
            f"{k},{self.rounds_to_clear_histogram[k]}"
            for k in sorted(self.rounds_to_clear_histogram)
        )
        return "\n".join(lines) + "\n"


def _draw_below(bounds: Iterable[int], bits) -> list[int]:
    """One uniform draw from 0..n-1 for each n in ``bounds``, by rejection
    on the block's ``getrandbits``."""
    draws = []
    for n in bounds:
        k = (n - 1).bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        draws.append(r)
    return draws


def _parcel_rule(strategy: StrategySpec):
    """The engine's parcel hook: (absolute balances, getrandbits) -> their
    parcels, called once per round for each side."""
    if strategy.kind == "uniform_random":
        return lambda balances, bits: [1 + r for r in _draw_below(balances, bits)]
    parcel = _deterministic_parcel(strategy)
    return lambda balances, bits: list(map(parcel, balances))


def _play(config: SimConfig) -> Iterator[tuple[list, ...]]:
    """Play the blocks in order; yields each block's TrialRecord fields as
    lists, in field order."""
    parcels_i = _parcel_rule(config.strategy_i)
    parcels_j = _parcel_rule(config.strategy_j)
    lo_i, hi_i = config.balance_range_i
    lo_j, hi_j = config.balance_range_j
    max_rounds = 1 if config.mode == "one_shot" else config.max_rounds
    # Deterministic parcels repeat after a round that moves nothing: such a
    # trial would idle until max_rounds, so settle it at once, uncleared.
    deterministic = "uniform_random" not in (config.strategy_i.kind, config.strategy_j.kind)
    for first in range(0, config.trials, BLOCK):
        size = min(BLOCK, config.trials - first)
        bits = random.Random((first // BLOCK) << 64 | config.seed).getrandbits
        start_i = [lo_i + r for r in _draw_below(itertools.repeat(hi_i - lo_i + 1, size), bits)]
        start_j = [-hi_j + r for r in _draw_below(itertools.repeat(hi_j - lo_j + 1, size), bits)]
        left_i, left_j = start_i[:], start_j[:]
        volume, trades = [0] * size, [0] * size
        rounds = [max_rounds] * size  # until the trial clears
        active = range(size)
        for round_no in range(1, max_rounds + 1):
            if not active:
                break
            offers = parcels_i([left_i[t] for t in active], bits)
            capacities = parcels_j([left_j[t] for t in active], bits)
            live = []
            for t, moved in zip(active, map(transferred, offers, capacities)):
                if moved:  # parcels are at least 1, so 0 means refused
                    held, needed = left_i[t] - moved, left_j[t] - moved
                    if held < 0 or needed < 0 or held - needed != start_i[t] - start_j[t]:
                        raise AssertionError(
                            "trade flipped a balance sign or failed to conserve the total"
                        )
                    left_i[t], left_j[t] = held, needed
                    volume[t] += moved
                    trades[t] += 1
                    if held and needed:
                        live.append(t)
                    else:
                        rounds[t] = round_no
                elif not deterministic:
                    live.append(t)
            active = live
        cleared = [not (held and needed) for held, needed in zip(left_i, left_j)]
        yield start_i, [-b for b in start_j], volume, rounds, trades, cleared


def iter_trials(config: SimConfig) -> Iterator[TrialRecord]:
    """Yield each trial's record, in trial order."""
    for fields in _play(config):
        for record in zip(*fields):
            yield TrialRecord(*record)


def run_simulation(config: SimConfig) -> SimReport:
    """Aggregate all trials into a report; same (config, seed) gives
    byte-identical JSON."""
    repeated = config.mode == "repeated"
    trades = opportunities = volume = 0
    histogram: Counter[int] = Counter()
    for _, _, block_volume, rounds, block_trades, cleared in _play(config):
        trades += sum(block_trades)
        opportunities += sum(rounds)
        volume += sum(block_volume)
        if repeated:
            histogram.update(itertools.compress(rounds, cleared))
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


def _histogram(strategy: StrategySpec, lo_abs: int, hi_abs: int, base: int, top: int) -> list[int]:
    """Counts over base..top, one per absolute balance in lo_abs..hi_abs: of
    the balance for uniform_random, of its parcel for a deterministic kind."""
    counts = [0] * (top - base + 1)
    if strategy.kind == "uniform_random":
        counts[lo_abs - base : hi_abs - base + 1] = [1] * (hi_abs - lo_abs + 1)
    else:
        for parcel in map(_deterministic_parcel(strategy), range(lo_abs, hi_abs + 1)):
            counts[parcel - base] += 1
    return counts


def _sum_of_ratios(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of p/q over ``terms`` as one unreduced (p, q), by binary
    splitting: neighbours merge pairwise until one is left, so the operands
    of each product stay about equal in size, and no gcd or lcm is taken."""
    while len(terms) > 1:
        merged = [(p1 * q2 + p2 * q1, q1 * q2) for (p1, q1), (p2, q2) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0] if terms else (0, 1)


def analytic_hit_ratio(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
) -> float:
    """Exact success probability P(offer <= capacity) of one round, under
    uniform draws of both balances; the convergence oracle for
    ``run_simulation``. Ranges follow ``SimConfig``'s rule (ValueError).

    A sum over balance pairs (b, b'), as absolute values. Per pair the hit
    probability is 1 + (1 - b)/(2b') when b <= b', else (b' + 1)/(2b), for
    two uniform_random parcels; min(b, y)/b against a deterministic capacity
    y; (b' - y + 1)/b' for a deterministic offer y <= b'; 0 or 1 for two
    deterministic parcels. So the sum is (scale * pairs + the sum of c[x]/x)
    over scale * width_i * width_j, with small integers c[x] from prefix
    sums. The c[x]/x are added by binary splitting, and one int true division
    rounds the exact quotient correctly.
    """
    _check_ranges(range_i, range_j)
    (lo_i, hi_i), (lo_j, hi_j) = range_i, (-range_j[1], -range_j[0])
    random_i = strategy_i.kind == "uniform_random"
    random_j = strategy_j.kind == "uniform_random"
    # x runs from the smallest balance or parcel, as a parcel grows with its balance
    sides = ((strategy_i, lo_i, hi_i), (strategy_j, lo_j, hi_j))
    base = min(lo if s.kind == "uniform_random" else parcel_size(s, lo) for s, lo, _ in sides)
    counts_i, counts_j = (_histogram(*side, base, max(hi_i, hi_j)) for side in sides)
    at_most_i = list(itertools.accumulate(counts_i))
    pairs = sum(map(operator.mul, counts_j, at_most_i))
    numerators = []
    if random_j:  # x = b': the sum over b <= b' (or y <= b') of 1 - b (or 1 - y)
        sum_i = itertools.accumulate(map(operator.mul, counts_i, itertools.count(base)))
        numerators = list(map(operator.mul, counts_j, map(operator.sub, at_most_i, sum_i)))
    if random_i:  # x = b: the sum over b' < b (or y < b) of b' + 1 (or y)
        weights_j = map(operator.mul, counts_j, itertools.count(base + random_j))
        below_j = itertools.accumulate(weights_j, initial=0)
        per_b = map(operator.mul, counts_i, below_j)
        numerators = list(map(operator.add, numerators, per_b) if numerators else per_b)
    p, q = _sum_of_ratios([(c, x) for x, c in enumerate(numerators, base) if c])
    scale = 2 if random_i and random_j else 1
    width = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    return (scale * pairs * q + p) / (scale * width * q)
