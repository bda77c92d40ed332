"""Exact reference oracles for ``liqgame.sim`` over ``fractions.Fraction``.

``reference_hit_probability`` is the plain double sum over the joint parcel
distribution; ``analytic_hit_ratio`` must return exactly its value.
``convolution_hit_probability`` convolves the two parcel laws over one lcm
denominator, an exact oracle fast enough for ranges thousands wide.
``repeated_play_distribution`` is a Markov chain over (balance_i,
|balance_j|) states that gives repeated mode's rounds-to-clear distribution,
which has no closed form. ``random_pair_chain`` is the same law for two
uniform_random players, split into one chain per conserved difference of the
balances, which runs at ranges a thousand wide; ``fixed_offer_chain`` is the
law of a full_balance or fixed_fraction I against a uniform_random J, over the
trades made so far. Deterministic parcels come from
``reference_parcel``, the rule written out apart from the engine's integer form
of it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from liqgame.sim import StrategySpec


def reference_parcel(strategy: StrategySpec, balance_abs: int) -> int:
    """The whole balance, or the written decimal fraction of it rounded half
    up, at least 1: max(1, floor(f * b + 1/2)) in Fractions."""
    if strategy.kind == "full_balance":
        return balance_abs
    return max(1, math.floor(Fraction(str(strategy.fraction)) * balance_abs + Fraction(1, 2)))


def _parcels_given_balance(strategy: StrategySpec, balance_abs: int) -> dict[int, Fraction]:
    if strategy.kind == "uniform_random":
        return {v: Fraction(1, balance_abs) for v in range(1, balance_abs + 1)}
    return {reference_parcel(strategy, balance_abs): Fraction(1)}


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
        weights[reference_parcel(strategy, balance)] += 1
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


def random_pair_chain(
    range_i: tuple[int, int], range_j: tuple[int, int], max_rounds: int, one=1.0
) -> tuple[list, object, object, object]:
    """Repeated play of uniform_random against uniform_random from uniform
    balances: P(a side clears in round k) for k = 1..max_rounds, the mass
    still uncleared after max_rounds, E[trades] and E[volume] per trial, in
    the arithmetic of ``one`` (1.0, or Fraction(1) for exact values).

    A trade takes the same quantity off both balances, so d = b_i - |b_j| is
    conserved, and a trial is a chain over x = min(b_i, |b_j|) for its d,
    with b_i = x + max(d, 0) and |b_j| = x + max(-d, 0). From x, a move of
    v <= x has probability (|b_j| - v + 1)/(b_i |b_j|); it lands at y = x - v
    with weight |b_j|(y) + 1 over b_i |b_j| at x, so a round's arrivals at y
    are one sum over x > y. Every d runs at once, as one array of x
    (descending, rows) by d (columns), padded with states no trial reaches;
    the chain carries g = mass / (b_i |b_j|). Volume is x at the start less
    x at the end, 0 once a trial clears."""
    (lo_i, hi_i), (lo_j, hi_j) = range_i, (-range_j[1], -range_j[0])
    d = np.arange(lo_i - hi_j, hi_i - lo_j + 1)
    x = np.arange(min(hi_i, hi_j), 0, -1)[:, None]
    b_i, b_j = x + np.maximum(d, 0), x + np.maximum(-d, 0)
    pair = b_i * b_j
    inside = (lo_i <= b_i) & (b_i <= hi_i) & (lo_j <= b_j) & (b_j <= hi_j)
    mass = np.where(inside, one / ((hi_i - lo_i + 1) * (hi_j - lo_j + 1)), 0 * one)
    trade = x * (2 * b_j - x + 1) // 2  # b_i |b_j| P(trade): the sum over v of |b_j| - v + 1
    g, stay, lands = mass / pair, 1 - trade * one / pair, (b_j + 1) * one / pair
    seen, above, clears = 0 * g, 0 * g, []
    for _ in range(max_rounds):
        seen += g
        total = 0 * g[0]
        for row, out in zip(g, above):  # out: the sum of g over the rows of larger x
            out[...] = total
            total += row
        clears.append(total @ (np.maximum(-d, 0) + 1))  # the arrivals at x = 0
        g *= stay
        above *= lands
        g += above
    left = g * pair
    return clears, left.sum(), (seen * trade).sum(), (mass * x).sum() - (left * x).sum()


def fixed_offer_chain(
    range_i: tuple[int, int], range_j: tuple[int, int], strategy_i: StrategySpec, max_rounds: int, one=1.0
) -> tuple[list, object, object, object]:
    """Repeated play of a full_balance or fixed_fraction I against uniform_random J from uniform
    balances: P(a side clears in round k) for k = 1..max_rounds, the mass still uncleared after
    max_rounds, E[trades] and E[volume] per trial, in the arithmetic of ``one``.

    I's offers do not depend on J, so from a start pair the k-th trade is the k-th step of I's own
    path b_i = h_0 > h_1 > ... > 0, h_{k+1} = h_k - y_k with y_k = ``reference_parcel`` of h_k, and
    J's need after k trades is |b_j| - (b_i - h_k). A round at k trades with probability
    (need - y_k + 1)/need, the chance that J's capacity, uniform on 1..need, holds the offer; an
    offer larger than the need never trades, so that trial plays every round and stays uncleared.
    Every start pair runs at once, as one array over (b_i, |b_j|, k)."""
    (lo_i, hi_i), (lo_j, hi_j) = range_i, (-range_j[1], -range_j[0])
    paths = []
    for b in range(lo_i, hi_i + 1):
        path = [b]
        while path[-1]:
            path.append(path[-1] - reference_parcel(strategy_i, path[-1]))
        paths.append(path)
    depth = max(map(len, paths))
    held = np.array([path + [0] * (depth - len(path)) for path in paths])[:, None, :]  # 0 once I has cleared
    need = np.arange(lo_j, hi_j + 1)[None, :, None] - (held[..., :1] - held)
    open_ = (held > 0) & (need > 0)  # neither side cleared after k trades
    offer, ahead = held[..., :-1] - held[..., 1:], ~open_[..., 1:]
    fits = open_[..., :-1] & (offer <= need[..., :-1])
    trade = np.where(fits, (need[..., :-1] - offer + 1) * one / np.maximum(need[..., :-1], 1), 0 * one)
    mass = np.zeros(open_.shape, dtype=type(one))
    mass[..., 0] = one / ((hi_i - lo_i + 1) * (hi_j - lo_j + 1))
    clears, trades, volume = [], 0 * one, 0 * one
    for _ in range(max_rounds):
        moved = mass[..., :-1] * trade
        mass[..., :-1] -= moved
        mass[..., 1:] += moved
        clears.append((moved * ahead).sum())
        trades, volume = trades + moved.sum(), volume + (moved * offer).sum()
    return clears, (mass * open_).sum(), trades, volume
