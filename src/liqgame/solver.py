"""Equilibrium computation for bimatrix games.

Pure equilibria come from an exhaustive best-response scan. Mixed equilibria
of an instance game have a closed form; those of any bimatrix game come from
support enumeration, which solves the indifference system of every pair of
equal-size candidate supports by integer (fraction-free) elimination, so the
published small-fraction profiles (1/2, 1/3, 1/6, ...) are reproduced with
zero tolerance. A grid-search oracle provides an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import GameInstance, LiquidityGameError, PayoffMatrix, Player, dominance_relations

DEFAULT_DIMENSION_CAP = 12
ORACLE_DIMENSION_CAP = 4


class DimensionCapExceeded(LiquidityGameError):
    pass


class DimensionMismatch(LiquidityGameError):
    pass


@dataclass(frozen=True)
class PureEquilibrium:
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


@dataclass(frozen=True)
class MixedProfile:
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
    if matrix.rows == 0 or matrix.cols == 0:
        raise ValueError("matrix must be non-empty")
    u_i, u_j = matrix.u_i, matrix.u_j
    col_max_i = [max(col) for col in zip(*u_i)]
    row_max_j = [max(row) for row in u_j]
    found = []
    for r in range(matrix.rows):
        for c in range(matrix.cols):
            if u_i[r][c] == col_max_i[c] and u_j[r][c] == row_max_j[r]:
                found.append(PureEquilibrium(r, c, (u_i[r][c], u_j[r][c])))
    return found


def _solve_fraction_free(a: list[list[int]]) -> Optional[tuple[list[int], int]]:
    """Solve the augmented integer system ``a`` (n rows of n + 1 entries) by
    Bareiss elimination, overwriting ``a``.

    Returns ``(nums, det)`` with ``det > 0`` and solution ``nums[i] / det``,
    or None when the system is singular. Every division is exact, so no
    rational is ever formed.
    """
    n = len(a)
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        piv = top[col]
        for row in a[col + 1 :]:
            f = row[col]
            for c in range(col + 1, n + 1):
                row[c] = (piv * row[c] - f * top[c]) // prev
        prev = piv
    # prev is now the determinant of the row-permuted system, so Cramer's
    # rule makes every prev * x_i an integer and each division below exact.
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = prev * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if prev < 0:
        return [-x for x in nums], -prev
    return nums, prev


def _support_weights(
    own_payoffs: Sequence[Sequence[int]], support_own: Sequence[int], support_opp: Sequence[int]
) -> Optional[tuple[list[int], int]]:
    """Opponent weights over ``support_opp`` that make the owner indifferent
    across ``support_own``, as integer numerators over a positive common
    denominator.

    None when the system is singular, a weight is negative, or an action
    outside ``support_own`` earns more than the common value.
    """
    base = [own_payoffs[support_own[0]][c] for c in support_opp]
    # Differences against the first support row remove the common value
    # from the system; the leading row makes the weights sum to one.
    system = [[1] * len(support_opp) + [1]]
    for r in support_own[1:]:
        row = own_payoffs[r]
        system.append([row[c] - b for c, b in zip(support_opp, base)] + [0])
    solved = _solve_fraction_free(system)
    if solved is None:
        return None
    nums, det = solved
    if any(x < 0 for x in nums):
        return None
    value = sum(b * x for b, x in zip(base, nums))
    for r, row in enumerate(own_payoffs):
        if r not in support_own and sum(row[c] * x for c, x in zip(support_opp, nums)) > value:
            return None
    return nums, det


def _lowest_terms(
    support: Sequence[int], nums: list[int], det: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """One side's probabilities ``nums / det`` over ``support`` as a
    canonical integer key: the common denominator and the non-zero
    (action, numerator) pairs, all divided by their gcd. Two equal
    probability vectors have equal keys, whichever support they came from."""
    g = math.gcd(det, *nums)
    return det // g, tuple((k, x // g) for k, x in zip(support, nums) if x)


def _probabilities(
    size: int, support: Sequence[int], nums: list[int], det: int
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

    Each support system is solved by fraction-free (Bareiss) elimination on
    the integer payoffs, and both checks and the de-duplication run on the
    resulting integer numerators; rationals are formed only for accepted,
    new profiles.

    Degenerate profiles are kept: a solution may place probability zero on
    part of its candidate support, which is how boundary equilibria of
    weakly dominated games surface. Pure equilibria appear as the size-1
    supports. Singular support systems are skipped.
    """
    m, n = matrix.rows, matrix.cols
    if m == 0 or n == 0:
        raise ValueError("matrix must be non-empty")
    check_dimension_cap(m, n, dimension_cap)
    u_i = matrix.u_i
    u_j_t = list(zip(*matrix.u_j))
    profiles: list[MixedProfile] = []
    seen: set[tuple[tuple, tuple]] = set()
    for size in range(1, min(m, n) + 1):
        for support_i in itertools.combinations(range(m), size):
            for support_j in itertools.combinations(range(n), size):
                q = _support_weights(u_i, support_i, support_j)
                if q is None:
                    continue
                p = _support_weights(u_j_t, support_j, support_i)
                if p is None:
                    continue
                key = (_lowest_terms(support_i, *p), _lowest_terms(support_j, *q))
                if key not in seen:
                    seen.add(key)
                    profiles.append(
                        MixedProfile(
                            _probabilities(m, support_i, *p), _probabilities(n, support_j, *q)
                        )
                    )
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
    if m == 0 or n == 0:
        raise ValueError("matrix must be non-empty")
    small = [((), (y,)) for y in range(1, min(m, n + 1))]  # each parcel < m: out or in
    tops = [(), *((y,) for y in range(m, n + 1))]  # no parcel >= m, or one of them
    sets = [sum(parts, ()) for parts in itertools.product(*small, tops)]
    sets.sort(key=lambda s: (len(s), [m - min(y, m) for y in s[::-1]], [n - y for y in s[::-1]]))
    profiles = []
    for s in sets[1:]:  # sets[0] is the empty set
        reach = [Fraction(min(s[0], m), min(y, m)) for y in s] + [0]
        probs_i, probs_j = [Fraction(0)] * m, [Fraction(0)] * n
        probs_i[m - min(s[0], m)] = Fraction(1)
        for y, here, beyond in zip(s, reach, reach[1:]):
            probs_j[n - y] = here - beyond
        profiles.append(MixedProfile(tuple(probs_i), tuple(probs_j)))
    return profiles


def _ratio(x) -> tuple[int, int]:
    """``x`` as (numerator, denominator) in lowest terms; ``Fraction(x)`` is
    built only for values that are not already an int or a Fraction, so
    floats count at their exact binary value."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _scaled_distribution(probs: Sequence[Fraction], side: str) -> tuple[list[int], int]:
    """Integer weights over the lcm ``d`` of the denominators, so that
    ``probs[k] == weights[k] / d``; ValueError unless ``probs`` is a
    probability distribution (non-negative, summing to exactly 1)."""
    error = ValueError(f"probs_{side} is not a probability distribution")
    try:
        ratios = [_ratio(x) for x in probs]
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise error from None
    d = math.lcm(*(den for _, den in ratios))
    weights = [num * (d // den) for num, den in ratios]
    if any(w < 0 for w in weights) or sum(weights) != d:
        raise error
    return weights, d


def verify_equilibrium(
    matrix: PayoffMatrix, profile: MixedProfile, tolerance: Fraction = Fraction(0)
) -> bool:
    """True iff no unilateral pure deviation gains more than ``tolerance``.

    Exact rationals; float entries are taken at their exact binary value.
    Each side's probabilities are scaled to integers over the lcm of their
    denominators, so every payoff is an integer sum and each deviation gain
    a single ratio. Raises ValueError when either side is not a probability
    distribution.
    """
    m, n = matrix.rows, matrix.cols
    if len(profile.probs_i) != m or len(profile.probs_j) != n:
        raise DimensionMismatch(
            f"profile is {len(profile.probs_i)}x{len(profile.probs_j)}, "
            f"matrix is {m}x{n}"
        )
    p, d_i = _scaled_distribution(profile.probs_i, "i")
    q, d_j = _scaled_distribution(profile.probs_j, "j")
    # row_payoffs are scaled by d_j, col_payoffs by d_i, both expectations
    # and both gains by d_i * d_j.
    row_payoffs = [sum(u * x for u, x in zip(row, q)) for row in matrix.u_i]
    col_payoffs = [sum(u * x for u, x in zip(col, p)) for col in zip(*matrix.u_j)]
    expected_i = sum(x * v for x, v in zip(p, row_payoffs))
    expected_j = sum(x * v for x, v in zip(q, col_payoffs))
    scale = d_i * d_j
    return (
        Fraction(max(row_payoffs) * d_i - expected_i, scale) <= tolerance
        and Fraction(max(col_payoffs) * d_j - expected_j, scale) <= tolerance
    )


def dominated_actions(
    matrix: PayoffMatrix, player: Player
) -> list[tuple[int, int, str]]:
    """All ordered pairs (dominated, dominating, strictness) for one player,
    as ``core.dominance_relations`` finds them over the player's payoff
    vectors: matrix rows for I, columns for J."""
    if matrix.rows == 0 or matrix.cols == 0:
        raise ValueError("matrix must be non-empty")
    return dominance_relations(matrix.u_i if player is Player.I else list(zip(*matrix.u_j)))


def _window_grid(total: int, center: Sequence[Fraction], radius: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` whose coordinates all lie within
    ``radius`` grid steps of ``center``, in lexicographic order."""
    choices = []
    for x in center:
        num, den = _ratio(x)
        num *= total
        # integer k with |k - num / den| <= radius: ceil(num / den) - radius
        # up to floor(num / den) + radius, clipped to [0, total]
        choices.append(range(max(0, -(-num // den) - radius), min(total, num // den + radius) + 1))
    # The last coordinate is fixed by the others; the product over ascending,
    # duplicate-free choices is already sorted and unique.
    *head, last = choices
    return [(*p, k) for p in itertools.product(*head) if (k := total - sum(p)) in last]


_Hits = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _window_hits(
    matrix: PayoffMatrix,
    grid_p: Sequence[tuple[int, ...]],
    grid_q: Sequence[tuple[int, ...]],
    r_scale: int,
) -> _Hits:
    """Every (p, q) pair of the two point lists that passes the gain test,
    in Python integers, in row-major (p, q) order. A pair passes when both
    expected payoffs exceed the cut-off ``r_scale * best - r_scale`` of the
    best reply to the other side's point, all scaled by ``r_scale ** 2``."""
    mul = operator.mul
    by_q = []
    for q in grid_q:
        row_payoffs = [sum(map(mul, row, q)) for row in matrix.u_i]
        by_q.append((q, row_payoffs, r_scale * max(row_payoffs) - r_scale))
    cols_j = list(zip(*matrix.u_j))
    hits: _Hits = []
    for p in grid_p:
        col_payoffs = [sum(map(mul, col, p)) for col in cols_j]
        cut_j = r_scale * max(col_payoffs) - r_scale
        for q, row_payoffs, cut_i in by_q:
            if sum(map(mul, p, row_payoffs)) > cut_i and sum(map(mul, q, col_payoffs)) > cut_j:
                hits.append((p, q))
    return hits


def brute_force_oracle(
    matrix: PayoffMatrix,
    grid_resolution: int,
    around: Optional[MixedProfile] = None,
    radius: int = 1,
) -> list[MixedProfile]:
    """Independent grid-search check: profiles on the 1/resolution lattice
    whose maximum deviation gain is below 1/resolution.

    Every gain test is evaluated in Python integers (scaled by the
    resolution), so acceptance is exact. Without ``around`` the full product
    of both simplex grids is swept, which is combinatorial; pass ``around``
    to restrict both grids to the points within ``radius`` steps of a
    candidate profile (the sweep restricted to that window).
    """
    m, n = matrix.rows, matrix.cols
    if m == 0 or n == 0:
        raise ValueError("matrix must be non-empty")
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
    grid_q = _window_grid(r_scale, centre_j, radius)
    hits = _window_hits(matrix, grid_p, grid_q, r_scale)
    steps = {k: Fraction(k, r_scale) for k in {k for p, q in hits for k in p + q}}
    return [
        MixedProfile(tuple(steps[k] for k in p), tuple(steps[k] for k in q)) for p, q in hits
    ]
