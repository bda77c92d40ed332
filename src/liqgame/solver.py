"""Equilibrium computation for bimatrix games.

Pure equilibria come from an exhaustive best-response scan. Mixed equilibria
of an instance game have a closed form; those of any bimatrix game come from
support enumeration, which solves the indifference system of every pair of
equal-size candidate supports by Cramer's rule in integers, from minors
shared by all pairs with the same own support. So the published profiles
(1/2, 1/3, 1/6, ...) are exact. A grid-search oracle cross-checks them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import GameInstance, LiquidityGameError, PayoffMatrix

DEFAULT_DIMENSION_CAP = 12
ORACLE_DIMENSION_CAP = 4


class DimensionCapExceeded(LiquidityGameError):
    pass


class DimensionMismatch(LiquidityGameError):
    pass


class PureEquilibrium(NamedTuple):
    """A cell where neither player gains by a unilateral deviation."""

    row_index: int
    col_index: int
    payoffs: tuple[int, int]

    def to_jsonable(self) -> dict:
        return {
            "row": self.row_index,
            "col": self.col_index,
            "payoffs": [self.payoffs[0], self.payoffs[1]],
        }


class MixedProfile(NamedTuple):
    """Per-player probability vectors over the action sets.

    Exact-rational entries when produced by ``solve_mixed``; grid rationals
    (multiples of 1/resolution) when produced by the oracle.
    """

    probs_i: tuple[Fraction, ...]
    probs_j: tuple[Fraction, ...]

    def to_jsonable(self) -> dict:
        return {
            "probs_i": [str(p) for p in self.probs_i],
            "probs_j": [str(q) for q in self.probs_j],
        }


def find_pure_equilibria(matrix: PayoffMatrix) -> list[PureEquilibrium]:
    """All cells with the exact best-response property, in row-major order."""
    u_i, u_j = matrix.u_i, matrix.u_j
    col_max_i = [max(col) for col in zip(*u_i)]
    row_max_j = [max(row) for row in u_j]
    found = []
    for r in range(matrix.rows):
        for c in range(matrix.cols):
            if u_i[r][c] == col_max_i[c] and u_j[r][c] == row_max_j[r]:
                found.append(PureEquilibrium(r, c, (u_i[r][c], u_j[r][c])))
    return found


def _laplace_plan(opp_count: int, max_size: int) -> list[dict]:
    """Per size t = 1..max_size (index 0 is empty), per t-subset C of the
    opponent's actions in combinations order: getters of C's columns and of
    minor(C - c_j) * (-1)^(t - 1 + j), j = 0..t-1, from a table of the
    (t - 1)-subsets' minors by rank followed by their negations."""
    plan, ranks = [{}], {(): 0}
    for t in range(1, max_size + 1):
        offsets = [len(ranks) * ((t - 1 + j) % 2) for j in range(t)]
        # itemgetter of one index returns the item, so size 1 takes a slice
        get = operator.itemgetter if t > 1 else lambda i: operator.itemgetter(slice(i, i + 1))
        plan.append({
            c: (get(*c), get(*[ranks[c[:j] + c[j + 1 :]] + o for j, o in enumerate(offsets)]))
            for c in itertools.combinations(range(opp_count), t)
        })
        ranks = {c: r for r, c in enumerate(plan[t])}
    return plan


def _next_minors(minors: list[int], row: Sequence[int], level: dict) -> list[int]:
    """Laplace expansion along ``row``: from the signed table of the minors of
    the rows above, that of those rows and ``row``, over the subsets of ``level``."""
    table = [sum(map(operator.mul, cols(row), signed(minors))) for cols, signed in level.values()]
    return table + [-x for x in table]


def _support_weights(
    differences: list[list[list[int]]], plan: list[dict], pairs
) -> dict[tuple[tuple, tuple], tuple[Sequence[int], int]]:
    """The opponent weights over T that make the owner indifferent across S,
    as integer numerators over a positive common denominator, keyed by (S, T),
    for each (S, T) of ``pairs``, all of one size and sorted by S. Left out:
    singular systems, negative weights and an action outside S earning more
    than the common value. ``differences[r0][r]`` is row r minus row r0; with
    D those of S_1.. against S_0, [1 ... 1; D] x = e_1 has by Cramer's rule
    the numerators (-1)^j minor(D over T - T_j) and their sum as determinant.
    """
    weights, current, stack = {}, (-1,), [[1, -1]]  # stack[t]: minors of D_1..D_t, negated too
    for own, opp in pairs:
        if own != current:
            t = 0
            while own[t] == current[t]:  # stack[t] holds for own[: t + 1]
                t += 1
            del stack[max(t, 1) :]
            diffs = differences[own[0]]
            for t in range(len(stack), len(own)):
                stack.append(_next_minors(stack[-1], diffs[own[t]], plan[t]))
            rest = [d for r, d in enumerate(diffs) if r not in own]
            current, level, minors = own, plan[len(own)], stack[-1]
        cols, signed = level[opp]
        # the expansion along a last row of ones: the numerators, all negated
        # at even sizes, which the sign rule below undoes
        nums = signed(minors)
        det = sum(nums)
        if det < 0:
            nums, det = [-x for x in nums], -det
        if det and min(nums) >= 0 and all(sum(map(operator.mul, cols(d), nums)) <= 0 for d in rest):
            weights[own, opp] = nums, det
    return weights


def _lowest_terms(
    support: Sequence[int], nums: Sequence[int], det: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """One side's probabilities ``nums / det`` over ``support`` as a
    canonical integer key: the common denominator and the non-zero
    (action, numerator) pairs, all divided by their gcd. Two equal
    probability vectors have equal keys, whichever support they came from."""
    g = math.gcd(det, *nums)
    return det // g, tuple((k, x // g) for k, x in zip(support, nums) if x)


def _probabilities(
    size: int, support: Sequence[int], nums: Sequence[int], det: int
) -> tuple[Fraction, ...]:
    probs = [Fraction(0)] * size
    for k, x in zip(support, nums):
        probs[k] = Fraction(x, det)
    return tuple(probs)


def check_dimension_cap(rows: int, cols: int, dimension_cap: int) -> None:
    """Raise DimensionCapExceeded when either side of a rows x cols game is
    above ``dimension_cap``, the size ``solve_mixed`` or the grid oracle
    enumerates to."""
    if rows > dimension_cap or cols > dimension_cap:
        raise DimensionCapExceeded(
            f"matrix is {rows}x{cols}, enumeration capped at {dimension_cap} per side"
        )


def solve_mixed(
    matrix: PayoffMatrix, dimension_cap: int = DEFAULT_DIMENSION_CAP
) -> list[MixedProfile]:
    """Enumerate candidate supports of equal size, smallest first, and keep
    every exactly-solved profile that is non-negative and has no better
    reply outside its support.

    Each support system is solved by Cramer's rule in integers, from minors
    that Laplace expansion shares among all pairs with the same own support;
    one player's weights are computed only where the other's passed. Checks
    and de-duplication run on the integer numerators; rationals are formed
    only for accepted, new profiles.

    Degenerate profiles are kept: a solution may place probability zero on
    part of its candidate support, which is how boundary equilibria of
    weakly dominated games surface. Pure equilibria appear as the size-1
    supports. Singular support systems are skipped.
    """
    m, n = matrix.rows, matrix.cols
    check_dimension_cap(m, n, dimension_cap)
    diffs_i = [[list(map(operator.sub, row, base)) for row in matrix.u_i] for base in matrix.u_i]
    u_j_t = list(zip(*matrix.u_j))
    diffs_j = [[list(map(operator.sub, row, base)) for row in u_j_t] for base in u_j_t]
    plan_i = _laplace_plan(n, min(m, n))
    plan_j = plan_i if m == n else _laplace_plan(m, min(m, n))
    profiles: list[MixedProfile] = []
    seen: set[tuple[tuple, tuple]] = set()
    for size in range(1, min(m, n) + 1):
        supports_i, supports_j = (itertools.combinations(range(k), size) for k in (m, n))
        qs = _support_weights(diffs_i, plan_i, itertools.product(supports_i, supports_j))
        # I's weights only where J's passed, sorted by J's support
        ps = _support_weights(diffs_j, plan_j, sorted((s_j, s_i) for s_i, s_j in qs))
        # back in enumeration order, (S_i, S_j)
        for (s_j, s_i), p in sorted(ps.items(), key=lambda item: item[0][::-1]):
            q = qs[s_i, s_j]
            key = (_lowest_terms(s_i, *p), _lowest_terms(s_j, *q))
            if key not in seen:
                seen.add(key)
                probs_i, probs_j = _probabilities(m, s_i, *p), _probabilities(n, s_j, *q)
                profiles.append(MixedProfile(probs_i, probs_j))
    return profiles


def instance_mixed_profiles(instance: GameInstance) -> list[MixedProfile]:
    """``solve_mixed`` of the instance's payoff matrix, values and order, in
    closed form: 2^(k-1)*(c+1) - 1 profiles, k = min(m, n), c = max(n-m+1, 1).

    I holds m = |B_i|, J needs n = |B_j|; parcel x is row m - x, column n - x.
    I's x against J's y pays both x if x <= y, else 0, so J's parcels >= m pay
    alike: cap them at m. Each nonempty set S of J's parcels with at most one
    >= m gives one profile: with capped values s_1 < ... < s_k, I plays s_1
    and J plays s_j or more with probability s_1/s_j.

    Proof. Against s_1 every y >= s_1 pays J the most, s_1; against J, I's x
    in (s_{j-1}, s_j] earns x*s_1/s_j <= s_1, with equality at s_j. Conversely
    let support enumeration accept rows R and columns C capped to c_1 < ... <
    c_k (two parcels >= m are equal columns: singular). Parcel c_1 earns c_1,
    so R, all earning I's value, holds no parcel above n. J's payoff grows
    with y and may not gain from c_1 to n, so I's mass lies on parcels <= c_1,
    each earning itself: I is pure on c_1 = r_1. The system [c_j >= r_i] then
    has nested suffix rows, nonsingular iff c_{i-1} < r_i <= c_i, and x in
    (r_i, c_i] would earn x*c_1/r_i > c_1, so r_i = c_i. All weights are
    positive, so profiles differ; enumeration meets them in (|S|, R, C) order.
    """
    m, n = abs(instance.balance_i), abs(instance.balance_j)
    small = [((), (y,)) for y in range(1, min(m, n + 1))]  # each parcel < m: out or in
    tops = [(), *((y,) for y in range(m, n + 1))]  # no parcel >= m, or one of them
    sets = [sum(parts, ()) for parts in itertools.product(*small, tops)]
    sets.sort(key=lambda s: (len(s), [m - min(y, m) for y in s[::-1]], [n - y for y in s[::-1]]))
    profiles, zero, one = [], Fraction(0), Fraction(1)
    for s in sets[1:]:  # sets[0] is the empty set
        capped = [min(y, m) for y in s]
        probs_i, probs_j = [zero] * m, [zero] * n
        probs_i[m - capped[0]] = one
        # s_1/s_j - s_1/s_(j+1) on s_j, in one Fraction, and s_1/s_k on s_k
        for y, here, beyond in zip(s, capped, capped[1:]):
            probs_j[n - y] = Fraction(capped[0] * (beyond - here), here * beyond)
        probs_j[n - s[-1]] = Fraction(capped[0], capped[-1])
        profiles.append(MixedProfile(tuple(probs_i), tuple(probs_j)))
    return profiles


def _ratio(x) -> tuple[int, int]:
    """``x`` as (numerator, denominator) in lowest terms, at its exact value:
    a float at its binary one. ``Fraction(x)`` is built only for values that
    are not already an int or a Fraction; a string, which it would parse, is
    refused with ValueError. The per-entry loops below take a Fraction's
    ratio themselves and call this only for other types."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    if isinstance(x, str):
        raise ValueError(f"{x!r} is a string, not a number")
    return Fraction(x).as_integer_ratio()


def _scaled_distribution(probs: Sequence[Fraction], side: str) -> tuple[list[int], int]:
    """Integer weights over the lcm ``d`` of the denominators, so that
    ``probs[k] == weights[k] / d``; ValueError unless ``probs`` is a
    probability distribution (non-negative, summing to exactly 1)."""
    try:
        ratios = [x.as_integer_ratio() if type(x) is Fraction else _ratio(x) for x in probs]
    except (OverflowError, ValueError):  # an infinite or NaN float, or a string
        ratios = [(-1, 1)]  # refused below, as a negative entry is
    d = math.lcm(*[den for _, den in ratios])
    weights = [num * (d // den) for num, den in ratios]
    if min(weights) < 0 or sum(weights) != d:
        raise ValueError(f"probs_{side} is not a probability distribution")
    return weights, d


def verify_equilibrium(
    matrix: PayoffMatrix, profile: MixedProfile, tolerance: Fraction = Fraction(0)
) -> bool:
    """True iff no unilateral pure deviation gains more than ``tolerance``.

    Exact rationals; float entries and tolerances are taken at their exact
    binary value. Each side's probabilities are scaled to integers over the
    lcm of their denominators, so every payoff is an integer sum, and each
    deviation gain is decided by one integer cross-multiplication against
    the tolerance's ratio. An infinite or NaN tolerance gives the verdict a
    Fraction comparison gives: +inf passes every profile, -inf and NaN none.
    Raises ValueError when either side is not a probability distribution.
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    if len(profile.probs_i) != m or len(profile.probs_j) != n:
        raise DimensionMismatch(
            f"profile is {len(profile.probs_i)}x{len(profile.probs_j)}, "
            f"matrix is {m}x{n}"
        )
    p, d_i = _scaled_distribution(profile.probs_i, "i")
    q, d_j = _scaled_distribution(profile.probs_j, "j")
    try:
        num, den = _ratio(tolerance)
    except (OverflowError, ValueError):  # infinite or NaN: every finite gain compares as 0 does
        return 0 <= tolerance
    # row_payoffs are scaled by d_j, col_payoffs by d_i, both expectations
    # and both gains by d_i * d_j: gain <= num / den iff gain * den <= num * d_i * d_j.
    mul = operator.mul
    row_payoffs = [sum(map(mul, row, q)) for row in matrix.u_i]
    col_payoffs = [sum(map(mul, col, p)) for col in zip(*matrix.u_j)]
    bound = num * d_i * d_j
    return (
        (max(row_payoffs) * d_i - sum(map(mul, p, row_payoffs))) * den <= bound
        and (max(col_payoffs) * d_j - sum(map(mul, q, col_payoffs))) * den <= bound
    )


def _window_grid(total: int, center: Sequence[Fraction], radius: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` whose coordinates all lie within
    ``radius`` grid steps of ``center``, in lexicographic order."""
    choices = []
    for x in center:
        num, den = x.as_integer_ratio() if type(x) is Fraction else _ratio(x)
        num *= total
        # integer k with |k - num / den| <= radius: ceil(num / den) - radius
        # up to floor(num / den) + radius, clipped to [0, total]
        low, high = -(-num // den) - radius, num // den + radius
        choices.append(range(low if low > 0 else 0, (high if high < total else total) + 1))
    # The last coordinate is fixed by the others; the product over ascending,
    # duplicate-free choices is already sorted and unique.
    *head, last = choices
    return [(*p, k) for p in itertools.product(*head) if (k := total - sum(p)) in last]


def brute_force_oracle(
    matrix: PayoffMatrix,
    grid_resolution: int,
    around: Optional[MixedProfile] = None,
    radius: int = 1,
) -> list[MixedProfile]:
    """Independent grid-search check: profiles on the 1/resolution lattice
    whose maximum deviation gain is below 1/resolution, in row-major order
    of the two players' grid points.

    Every gain test is evaluated in Python integers (scaled by the
    resolution), so acceptance is exact. Without ``around`` the full product
    of both simplex grids is swept, which is combinatorial; pass ``around``
    to restrict both grids to the points within ``radius`` steps of a
    candidate profile (the sweep restricted to that window).
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    check_dimension_cap(m, n, ORACLE_DIMENSION_CAP)
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    r_scale = grid_resolution
    if around is None:
        # the window of radius r_scale around any point is the whole simplex
        centre_i, centre_j, radius = (0,) * m, (0,) * n, r_scale
    elif len(around.probs_i) != m or len(around.probs_j) != n:
        raise DimensionMismatch("around profile does not match matrix dimensions")
    else:
        centre_i, centre_j = around.probs_i, around.probs_j
    grid_p = _window_grid(r_scale, centre_i, radius)
    # A pair (p, q) passes when both expected payoffs exceed the cut-off
    # r_scale * best - r_scale of the best reply to the other side's point,
    # all scaled by r_scale ** 2.
    mul = operator.mul
    by_q = []
    for q in _window_grid(r_scale, centre_j, radius):
        row_payoffs = [sum(map(mul, row, q)) for row in matrix.u_i]
        by_q.append((q, row_payoffs, r_scale * max(row_payoffs) - r_scale))
    cols_j = list(zip(*matrix.u_j))
    hits = []
    for p in grid_p:
        col_payoffs = [sum(map(mul, col, p)) for col in cols_j]
        cut_j = r_scale * max(col_payoffs) - r_scale
        for q, row_payoffs, cut_i in by_q:
            if sum(map(mul, p, row_payoffs)) > cut_i and sum(map(mul, q, col_payoffs)) > cut_j:
                hits.append((p, q))
    # one Fraction per grid value that occurs in a hit
    steps = dict.fromkeys(itertools.chain.from_iterable(itertools.chain.from_iterable(hits)))
    for k in steps:
        steps[k] = Fraction(k, r_scale)
    step = steps.__getitem__
    return [MixedProfile(tuple(map(step, p)), tuple(map(step, q))) for p, q in hits]
