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

from .core import LiquidityGameError, PayoffMatrix, check_work, decimal_ratio, is_int
from .documents import MAX_BITS, integer_tables


class DimensionMismatch(LiquidityGameError):
    pass


class MixedProfile(NamedTuple):
    """Per-player probability vectors over the action sets: exact rationals from
    ``solve_mixed``, grid rationals (multiples of 1/resolution) from the oracle."""

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
    [0, 1]], u_j = [[1, 1], [0, 0]] has four, the list two. DimensionCapExceeded past the work limit below, by the
    shape alone before any payoff is read, then past MAX_BITS bits as ``documents.integer_tables`` reads both tables
    (a float is its decimal), then past the limit with the largest scaled entry weighed in, before anything is built.
    """
    m, n, k = matrix.rows, matrix.cols, min(matrix.rows, matrix.cols)
    # In units of about 2 µs or 100 bytes. Two to a unit, each about 1 µs: the support pairs, the minors of
    # I's stack (C(n, d) per distinct d + 1 prefix of I's supports of size s, C(m - s + d + 1, d + 1) of them,
    # summed over s) and the m*n*(m + n) outside rows the pure pairs' checks read at most; 8 per plan entry
    # (800 bytes at peak), all times 1 + d(d + 2048)/2^17 at d bits past 16 in the largest scaled entry.
    what, pairs = f"solve_mixed of a {m}x{n} game", math.comb(m + n, m)
    check_work((pairs - 1) // 2, what)  # the support pairs alone, a lower bound of work, before the sums below
    minors = sum(math.comb(n, d) * (math.comb(m + 1, d + 2) - math.comb(m - k + d + 1, d + 2)) for d in range(1, k))
    plans = sum(math.comb(m, t) + math.comb(n, t) for t in range(1, k + 1))
    work = (pairs - 1 + minors + m * n * (m + n)) // 2 + 8 * plans
    check_work(work, what)  # the shape alone, before any payoff is read
    (u_i, _), (u_j, _), bits = integer_tables(what, matrix.u_i, matrix.u_j)
    check_work(work + (work * (d := max(bits - 16, 0)) * (d + 2048) >> 17), what)
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


def verify_equilibrium(matrix: PayoffMatrix, profile: MixedProfile, tolerance: Fraction = Fraction(0)) -> bool:
    """True iff no unilateral pure deviation gains more than ``tolerance``.

    Integer arithmetic only, every number read by ``core.decimal_ratio`` (a float as the decimal its ``str``
    writes): both sides' probabilities are integers over the lcm d of all their denominators, and each player's payoffs
    over the lcm l_i or l_j of theirs, 1 for a table of ints. I's gain is then an integer over l_i * d * d, within the
    tolerance num / den iff it times den is at most num * l_i * d * d; J's likewise with l_j. Faults are named in read
    order: first ``documents.integer_tables`` counts the entries against the work limit, then reads the probabilities,
    then I's and J's payoffs, with ValueError for a string, a bool, an infinity, a NaN or a text past
    ``core.decimal_ratio``'s digit limit, DimensionCapExceeded for a weight or d past Hadamard's bound on any d of
    ``solve_mixed``, 2k(2 MAX_BITS + 1 + ceil(lg k)) at k = min(m, n), or a payoff or lcm past MAX_BITS bits; then
    ValueError when probs_i, then probs_j, is not a probability distribution; then the tolerance is read as a payoff
    is, except that +inf passes every profile, and -inf and NaN none.
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    if len(profile.probs_i) != m or len(profile.probs_j) != n:
        raise DimensionMismatch(f"profile is {len(profile.probs_i)}x{len(profile.probs_j)}, matrix is {m}x{n}")
    weight_bits = 2 * (k := min(m, n)) * (2 * MAX_BITS + 1 + (k - 1).bit_length())
    ((w,), d), (u_i, l_i), (u_j, l_j), _ = integer_tables("verify_equilibrium's read", (  # both sides as one row
        (*profile.probs_i, *profile.probs_j),), matrix.u_i, matrix.u_j, bits=(weight_bits, MAX_BITS, MAX_BITS))
    p, q = w[:m], w[m:]
    if min(w) < 0 or sum(p) != d or sum(q) != d:
        raise ValueError(f"probs_{'i' if min(p) < 0 or sum(p) != d else 'j'} is not a probability distribution")
    try:
        num, den = decimal_ratio(tolerance)
    except ValueError:
        if isinstance(tolerance, str) or math.isfinite(tolerance):
            raise  # a string, a bool or a text past the reader's digit limit
        return tolerance == math.inf  # +inf passes every profile, -inf and NaN none
    mul = operator.mul  # row_payoffs over l_i * d, col_payoffs over l_j * d
    row_payoffs = [sum(map(mul, row, q)) for row in u_i]
    col_payoffs = [sum(map(mul, col, p)) for col in zip(*u_j)]
    bound = num * d * d
    return (
        (max(row_payoffs) * d - sum(map(mul, p, row_payoffs))) * den <= bound * l_i
        and (max(col_payoffs) * d - sum(map(mul, q, col_payoffs))) * den <= bound * l_j
    )


def _window_grid(total: int, center: Sequence[Fraction], radius: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` whose coordinates all lie within
    ``radius`` grid steps of ``center``, in lexicographic order."""
    choices = []
    for x in center:
        num, den = decimal_ratio(x)
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
    matrix: PayoffMatrix, grid_resolution: int, around: Optional[MixedProfile] = None, radius: int = 1
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
    candidate profile (the sweep restricted to that window). A resolution or radius that is a bool or no int, a
    resolution below 1 or a negative radius raises ValueError; DimensionCapExceeded when the grids, counted from the
    shape alone before any payoff is read, then the payoffs' read (``documents.integer_tables``: a payoff or an lcm
    past MAX_BITS bits), would pass their bounds.
    """
    m, n = len(matrix.actions_i), len(matrix.actions_j)
    if not (is_int(grid_resolution) and is_int(radius)):
        raise ValueError("grid_resolution and radius must be ints")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    r_scale = grid_resolution
    if around is None:  # the window of radius r_scale around any point is the whole simplex
        centre_i, centre_j, radius = (0,) * m, (0,) * n, r_scale
    elif len(around.probs_i) != m or len(around.probs_j) != n:
        raise DimensionMismatch("around profile does not match matrix dimensions")
    else:
        centre_i, centre_j = around.probs_i, around.probs_j
    # Before either grid is built: with at most w values per coordinate, each walks a box of w^(k-1)
    # heads and keeps C(r + k - 1, k - 1) points of it when windowless, at most the whole box in a window.
    w = min(2 * radius, r_scale) + 1
    box_p, box_q = w ** (m - 1), w ** (n - 1)
    pairs = (box_p * box_q if around is not None
             else math.comb(r_scale + m - 1, m - 1) * math.comb(r_scale + n - 1, n - 1))
    check_work(box_p + box_q + pairs, f"a {m}x{n} grid sweep at resolution {r_scale}")
    (u_i, l_i), (u_j, l_j), _ = integer_tables("brute_force_oracle's read", matrix.u_i, matrix.u_j)
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
    values = set(itertools.chain.from_iterable(itertools.chain.from_iterable(hits)))
    step = {k: Fraction(k, r_scale) for k in values}.__getitem__
    return [MixedProfile(tuple(map(step, p)), tuple(map(step, q))) for p, q in hits]
