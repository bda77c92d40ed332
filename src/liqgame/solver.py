"""Equilibrium computation for any bimatrix game.

Mixed equilibria come from support enumeration, which solves the
indifference system of every pair of equal-size candidate supports by
Cramer's rule in integers, from minors shared by all pairs with the same
own support. So the published profiles (1/2, 1/3, 1/6, ...) are exact. An
exact equilibrium test and a grid-search oracle cross-check them. The pure
scan and the closed form of instance games, which ``liqgame solve`` runs,
are in ``equilibria``, and the work limit that both solvers here check in ``core``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import LiquidityGameError, PayoffMatrix, check_work


class DimensionMismatch(LiquidityGameError):
    pass


class MixedProfile(NamedTuple):
    """Per-player probability vectors over the action sets.

    Exact-rational entries when produced by ``solve_mixed``; grid rationals
    (multiples of 1/resolution) when produced by the oracle.
    """

    probs_i: tuple[Fraction, ...]
    probs_j: tuple[Fraction, ...]


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
    table: Sequence[Sequence[int]], plan: list[dict], pairs
) -> dict[tuple[tuple, tuple], Sequence[int]]:
    """The opponent weights over T that make the owner indifferent across S,
    as integer numerators whose sum is their positive common denominator, keyed by (S, T),
    for each (S, T) of ``pairs``, all of one size and sorted by S. Left out:
    singular systems, negative weights and an action outside S earning more
    than the common value. ``table`` holds the owner's payoff rows; with D
    the rows of S_1.. minus that of S_0, [1 ... 1; D] x = e_1 has by Cramer's
    rule the numerators (-1)^j minor(D over T - T_j) and their sum as determinant.
    """
    weights, current, stack = {}, (-1,), [[1, -1]]  # stack[t]: minors of D_1..D_t, negated too
    for own, opp in pairs:
        if own != current:
            t = 0
            while own[t] == current[t]:  # stack[t] holds for own[: t + 1]
                t += 1
            del stack[max(t, 1) :]
            base = table[own[0]]
            for t in range(len(stack), len(own)):
                stack.append(_next_minors(stack[-1], list(map(operator.sub, table[own[t]], base)), plan[t]))
            rest = list(table)
            for r in reversed(own):
                del rest[r]
            current, level, minors = own, plan[len(own)], stack[-1]
        cols, signed = level[opp]
        # the expansion along a last row of ones: the numerators, all negated
        # at even sizes, which the sign rule below undoes
        nums = signed(minors)
        if (det := sum(nums)) < 0:
            nums = [-x for x in nums]
        if det and min(nums) >= 0:
            value = sum(map(operator.mul, cols(base), nums))  # S's rows tie by construction
            if all(sum(map(operator.mul, cols(row), nums)) <= value for row in rest):
                weights[own, opp] = nums
    return weights


def _lowest_terms(support: Sequence[int], nums: Sequence[int]) -> tuple[int, ...]:
    """The weights nums / sum(nums) over ``support`` in lowest terms, as one flat tuple:
    action, numerator, ... for the nonzero weights only; the numerators sum to the denominator."""
    g = math.gcd(*nums)
    return tuple(v for k, x in zip(support, nums) if x for v in (k, x // g))


def solve_mixed(matrix: PayoffMatrix) -> list[MixedProfile]:
    """Enumerate candidate supports of equal size, smallest first, and keep
    every exactly-solved profile that is non-negative and has no better
    reply outside its support.

    Each support system is solved by Cramer's rule in integers, from minors
    that Laplace expansion shares among all pairs with the same own support;
    one player's weights are computed only where the other's passed. Checks
    run on the integer numerators; repeats are dropped by their lowest-terms
    integer weights, and one Fraction is built per distinct value, at the end.

    Degenerate profiles are kept: a solution may place probability zero on
    part of its candidate support, which is how boundary equilibria of
    weakly dominated games surface. Pure equilibria appear as the size-1
    supports. Unequal-size supports are not tried and singular systems are
    skipped, so degenerate games can lose extreme equilibria: u_i = [[-2, 2],
    [0, 1]], u_j = [[1, 1], [0, 0]] has four, the list two. Payoffs are ints or
    Fractions, each table read as ints over its lcm (``_integer_table``); others raise ValueError.
    """
    m, n, k = matrix.rows, matrix.cols, min(matrix.rows, matrix.cols)
    # In units of about 2 µs or 100 bytes. Two to a unit, each about 1 µs: the support pairs, the minors of
    # I's stack (C(n, d) per distinct d + 1 prefix of I's supports of size s, C(m - s + d + 1, d + 1) of them,
    # summed over s) and the m*n*(m + n) outside rows the pure pairs' checks read at most; 8 per plan entry
    # (800 bytes at peak), all times 1 + d(d + 2048)/2^17 at d bits past 16 in the largest scaled entry.
    minors = sum(
        math.comb(n, d) * (math.comb(m + 1, d + 2) - math.comb(m - k + d + 1, d + 2)) for d in range(1, k)
    )
    plans = sum(math.comb(m, t) + math.comb(n, t) for t in range(1, k + 1))
    work = (math.comb(m + n, m) - 1 + minors + m * n * (m + n)) // 2 + 8 * plans
    u_i, u_j = matrix.u_i, matrix.u_j
    kinds = set(map(type, itertools.chain(*u_i, *u_j)))
    if not all(t is not bool and issubclass(t, (int, Fraction)) for t in kinds):
        raise ValueError("solve_mixed needs exact rational payoffs: ints or Fractions")
    bits = math.ceil(max(map(abs, itertools.chain(*u_i, *u_j)))).bit_length()
    if kinds != {int}:  # the lcm divides the largest denominator t times each d / gcd(d, t)
        ds = [{x.denominator for x in itertools.chain(*u)} for u in (u_i, u_j)]
        bits += max(sum((d // math.gcd(d, t) - 1).bit_length() for d in s) + (t - 1).bit_length()
                    for s, t in zip(ds, map(max, ds)))
    over = max(bits - 16, 0)
    check_work(work + (work * over * (over + 2048) >> 17), f"solve_mixed of a {m}x{n} game")
    if kinds != {int}:  # each table as ints over its lcm: the same equilibria
        (u_i, _), (u_j, _) = _integer_table(u_i), _integer_table(u_j)
    u_j_t = list(zip(*u_j))
    plan_i = _laplace_plan(n, k)
    plan_j = plan_i if m == n else _laplace_plan(m, k)
    keys: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}
    for size in range(1, k + 1):
        supports_i, supports_j = (itertools.combinations(range(side), size) for side in (m, n))
        qs = _support_weights(u_i, plan_i, itertools.product(supports_i, supports_j))
        # I's weights only where J's passed, sorted by J's support
        ps = _support_weights(u_j_t, plan_j, sorted((s_j, s_i) for s_i, s_j in qs))
        # in enumeration order, (S_i, S_j); a repeated profile keeps its first place
        for (s_i, s_j), q in qs.items():
            if (p := ps.get((s_j, s_i))) is not None:
                keys[_lowest_terms(s_i, p), _lowest_terms(s_j, q)] = None
    zero, values = Fraction(0), {}  # one Fraction per distinct (numerator, denominator)

    def probabilities(size: int, key: tuple[int, ...]) -> tuple[Fraction, ...]:
        probs, den = [zero] * size, sum(key[1::2])
        for action, num in zip(key[::2], key[1::2]):  # num > 0: a stored Fraction is never falsy
            probs[action] = values.get((num, den)) or values.setdefault((num, den), Fraction(num, den))
        return tuple(probs)
    return [MixedProfile(probabilities(m, key_i), probabilities(n, key_j)) for key_i, key_j in keys]


def _ratio(x) -> tuple[int, int]:
    """``x`` as (numerator, denominator) in lowest terms, at its exact value: a float at
    its binary one, and a number without ``as_integer_ratio``, such as ``numpy.int64``,
    as ``Fraction`` reads it. ValueError for a string, which ``Fraction`` would parse,
    and for an infinite or NaN value, which has no ratio."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        if isinstance(x, str):
            raise ValueError(f"{x!r} is a string, not a number") from None
        num, den = Fraction(x).as_integer_ratio()  # numpy.int64's stay int64s there
        return int(num), int(den)
    except OverflowError:
        raise ValueError(f"{x!r} has no exact value") from None


def _over_lcm(xs) -> tuple[list[int], int]:
    """The numbers ``xs`` as integers over the lcm ``l`` of their denominators, and ``l``."""
    ratios = [x.as_integer_ratio() if type(x) is Fraction else _ratio(x) for x in xs]  # Fractions skip a call
    lcm = math.lcm(*[den for _, den in ratios])
    return [num * (lcm // den) for num, den in ratios], lcm


def _integer_table(u: Sequence[Sequence]) -> tuple[Sequence[Sequence[int]], int]:
    """The payoff table ``u`` as integer rows over the lcm ``l`` of its denominators, and
    ``l``; a table of ints is itself, over 1."""
    try:
        if type(sum(itertools.chain(*u))) is int:
            return u, 1
    except TypeError:  # a Decimal beside a float or a Fraction, or a string
        pass
    ints, lcm = _over_lcm(itertools.chain(*u))
    return list(zip(*[iter(ints)] * len(u[0]))), lcm


def _scaled_distribution(probs: Sequence[Fraction], side: str) -> tuple[list[int], int]:
    """Integer weights over the lcm ``d`` of the denominators, so that
    ``probs[k] == weights[k] / d``; ValueError unless ``probs`` is a
    probability distribution (non-negative, summing to exactly 1)."""
    try:
        weights, d = _over_lcm(probs)
    except ValueError:  # an infinite or NaN entry, or a string
        weights, d = [-1], 1  # refused below, as a negative entry is
    if min(weights) < 0 or sum(weights) != d:
        raise ValueError(f"probs_{side} is not a probability distribution")
    return weights, d


def verify_equilibrium(
    matrix: PayoffMatrix, profile: MixedProfile, tolerance: Fraction = Fraction(0)
) -> bool:
    """True iff no unilateral pure deviation gains more than ``tolerance``.

    Integer arithmetic only, on every number at its exact value (a float at its
    binary one): each side's probabilities are integers over the lcm d_i or d_j
    of their denominators, and each player's payoffs over the lcm l_i or l_j of
    theirs, 1 for a table of ints. I's gain is then an integer over l_i * d_i * d_j,
    within the tolerance num / den iff it times den is at most num * l_i * d_i * d_j;
    J's likewise with l_j. An infinite or NaN tolerance gives the verdict a Fraction
    comparison gives: +inf passes every profile, -inf and NaN none. Raises ValueError
    when either side is not a probability distribution, or for a payoff with no exact
    value (infinite, NaN or a string).
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    if len(profile.probs_i) != m or len(profile.probs_j) != n:
        raise DimensionMismatch(f"profile is {len(profile.probs_i)}x{len(profile.probs_j)}, matrix is {m}x{n}")
    p, d_i = _scaled_distribution(profile.probs_i, "i")
    q, d_j = _scaled_distribution(profile.probs_j, "j")
    try:
        num, den = _ratio(tolerance)
    except ValueError:  # infinite or NaN: every finite gain compares as 0 does
        return 0 <= tolerance
    (u_i, l_i), (u_j, l_j) = _integer_table(matrix.u_i), _integer_table(matrix.u_j)
    mul = operator.mul  # row_payoffs over l_i * d_j, col_payoffs over l_j * d_i
    row_payoffs = [sum(map(mul, row, q)) for row in u_i]
    col_payoffs = [sum(map(mul, col, p)) for col in zip(*u_j)]
    bound = num * d_i * d_j
    return (
        (max(row_payoffs) * d_i - sum(map(mul, p, row_payoffs))) * den <= bound * l_i
        and (max(col_payoffs) * d_j - sum(map(mul, q, col_payoffs))) * den <= bound * l_j
    )


def _window_grid(total: int, center: Sequence[Fraction], radius: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` whose coordinates all lie within
    ``radius`` grid steps of ``center``, in lexicographic order."""
    choices = []
    for x in center:
        num, den = _ratio(x)
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

    Every gain test is integer arithmetic: each player's payoffs are read as
    integers over the lcm of their denominators, as ``verify_equilibrium``
    reads them, and each gain is scaled by that lcm and the resolution squared;
    the only Fractions built are the result's. Without ``around`` the full product
    of both simplex grids is swept, which is combinatorial; pass ``around``
    to restrict both grids to the points within ``radius`` steps of a
    candidate profile (the sweep restricted to that window). A resolution
    below 1 or a negative radius raises ValueError.
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    r_scale = grid_resolution
    if around is None:
        # the window of radius r_scale around any point is the whole simplex
        centre_i, centre_j, radius = (0,) * m, (0,) * n, r_scale
    elif len(around.probs_i) != m or len(around.probs_j) != n:
        raise DimensionMismatch("around profile does not match matrix dimensions")
    else:
        centre_i, centre_j = around.probs_i, around.probs_j
    # Before either grid is built: with at most w values per coordinate, each
    # walks a box of w^(k-1) heads and keeps C(r + k - 1, k - 1) points of it
    # when windowless, at most the whole box in a window.
    w = min(2 * radius, r_scale) + 1
    box_p, box_q = w ** (m - 1), w ** (n - 1)
    pairs = (
        box_p * box_q if around is not None
        else math.comb(r_scale + m - 1, m - 1) * math.comb(r_scale + n - 1, n - 1)
    )
    check_work(box_p + box_q + pairs, f"a {m}x{n} grid sweep at resolution {r_scale}")
    (u_i, l_i), (u_j, l_j) = _integer_table(matrix.u_i), _integer_table(matrix.u_j)
    grid_p = _window_grid(r_scale, centre_i, radius)
    # A pair (p, q) passes when both expected payoffs exceed the cut-off
    # r_scale * best - r_scale * l of the best reply to the other side's point,
    # all scaled by r_scale ** 2 and by the player's own lcm l.
    mul = operator.mul
    by_q = []
    for q in _window_grid(r_scale, centre_j, radius):
        row_payoffs = [sum(map(mul, row, q)) for row in u_i]
        by_q.append((q, row_payoffs, r_scale * (max(row_payoffs) - l_i)))
    cols_j = list(zip(*u_j))
    hits = []
    for p in grid_p:
        col_payoffs = [sum(map(mul, col, p)) for col in cols_j]
        cut_j = r_scale * (max(col_payoffs) - l_j)
        for q, row_payoffs, cut_i in by_q:
            if sum(map(mul, p, row_payoffs)) > cut_i and sum(map(mul, q, col_payoffs)) > cut_j:
                hits.append((p, q))
    # one Fraction per grid value that occurs in a hit
    steps = dict.fromkeys(itertools.chain.from_iterable(itertools.chain.from_iterable(hits)))
    for k in steps:
        steps[k] = Fraction(k, r_scale)
    step = steps.__getitem__
    return [MixedProfile(tuple(map(step, p)), tuple(map(step, q))) for p, q in hits]
