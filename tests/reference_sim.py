"""Exact reference oracles for ``liqgame.sim`` over ``fractions.Fraction``.

``reference_hit_probability`` is the plain double sum over the joint parcel
distribution; ``analytic_hit_ratio`` must return exactly its value.
``convolution_hit_probability`` convolves the two parcel laws over one lcm
denominator, an exact oracle fast enough for ranges thousands wide.
``repeated_play_distribution`` is a Markov chain over (balance_i,
|balance_j|) states that gives repeated mode's rounds-to-clear distribution,
which has no closed form.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from liqgame.sim import StrategySpec, parcel_size


def _parcels_given_balance(strategy: StrategySpec, balance_abs: int) -> dict[int, Fraction]:
    if strategy.kind == "uniform_random":
        return {v: Fraction(1, balance_abs) for v in range(1, balance_abs + 1)}
    return {int(parcel_size(strategy, balance_abs)): Fraction(1)}


def _parcel_distribution(strategy: StrategySpec, lo_abs: int, hi_abs: int) -> dict[int, Fraction]:
    """Parcel distribution under a uniform draw of the absolute balance."""
    weight = Fraction(1, hi_abs - lo_abs + 1)
    pmf: dict[int, Fraction] = {}
    for balance in range(lo_abs, hi_abs + 1):
        for parcel, p in _parcels_given_balance(strategy, balance).items():
            pmf[parcel] = pmf.get(parcel, Fraction(0)) + weight * p
    return pmf


def reference_hit_probability(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
) -> Fraction:
    """P(offer <= capacity) in one round, summed over every offer and every
    capacity value."""
    offers = _parcel_distribution(strategy_i, range_i[0], range_i[1])
    capacities = _parcel_distribution(strategy_j, -range_j[1], -range_j[0])
    return sum(
        (p * q for v, p in offers.items() for w, q in capacities.items() if v <= w),
        Fraction(0),
    )


def _parcel_weights(strategy: StrategySpec, lo_abs: int, hi_abs: int, top: int) -> tuple[list, int]:
    """Parcel distribution under a uniform draw of the absolute balance from
    lo_abs..hi_abs, as integer weights w[0..top] over one denominator."""
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
    for balance in range(lo_abs, hi_abs + 1):
        weights[parcel_size(strategy, balance)] += 1
    return weights, width


def convolution_hit_probability(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
) -> Fraction:
    """P(offer <= capacity) in one round, from the two parcel laws: one
    backward pass over parcel values, whose running sum is the capacity
    weight on parcels >= v. Its integers carry lcm(lo..hi), so time grows
    about as width**2.6 on uniform ranges."""
    top = max(range_i[1], -range_j[0])
    offers, denom_i = _parcel_weights(strategy_i, range_i[0], range_i[1], top)
    capacities, denom_j = _parcel_weights(strategy_j, -range_j[1], -range_j[0], top)
    at_least = itertools.accumulate(reversed(capacities))
    total = sum(map(operator.mul, reversed(offers), at_least))
    return Fraction(total, denom_i * denom_j)


def repeated_play_distribution(
    range_i: tuple[int, int],
    range_j: tuple[int, int],
    strategy_i: StrategySpec,
    strategy_j: StrategySpec,
    max_rounds: int,
) -> tuple[dict[int, Fraction], Fraction]:
    """P(a side clears in round k) for k = 1..max_rounds, and the mass still
    uncleared after max_rounds, for repeated play from uniform balances."""
    states: dict[tuple[int, int], Fraction] = {}
    width = (range_i[1] - range_i[0] + 1) * (range_j[1] - range_j[0] + 1)
    for b_i in range(range_i[0], range_i[1] + 1):
        for b_j in range(-range_j[1], -range_j[0] + 1):
            states[(b_i, b_j)] = Fraction(1, width)
    clears: dict[int, Fraction] = {}
    for round_no in range(1, max_rounds + 1):
        following: dict[tuple[int, int], Fraction] = {}
        for (b_i, b_j), mass in states.items():
            for offer, p in _parcels_given_balance(strategy_i, b_i).items():
                for capacity, q in _parcels_given_balance(strategy_j, b_j).items():
                    moved = offer if offer <= capacity else 0
                    state = (b_i - moved, b_j - moved)
                    if 0 in state:
                        clears[round_no] = clears.get(round_no, Fraction(0)) + mass * p * q
                    else:
                        following[state] = following.get(state, Fraction(0)) + mass * p * q
        states = following
    return clears, sum(states.values(), Fraction(0))
