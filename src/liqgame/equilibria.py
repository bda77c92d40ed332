"""Equilibria of instance games: what ``liqgame solve`` prints.

Pure equilibria come from an exhaustive best-response scan, and the mixed
equilibria of an instance game from a closed form in exact integer ratios,
which the report writes as text from integers alone. This module holds only
what ``solve`` prints, so a ``solve`` process compiles no more than it runs;
``solver`` holds support enumeration, the exact checkers of any bimatrix
game and their ``MixedProfile`` record.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .core import WORK_LIMIT, GameInstance, PayoffMatrix


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


def _closed_form(m: int, n: int):
    """Each profile of the closed form, in ``instance_mixed_jsonable``'s order,
    for I holding m and J needing n: I's pure row, and J's nonzero weights
    as (column, p, q), p/q in lowest terms, in integers alone."""
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(max(m - n, 0), m), k):
            capped = [m - r for r in reversed(rows)]  # s_1 < ... < s_k
            # s_1/s_j - s_1/s_(j+1) on s_j, and s_1/s_k on the top parcel
            below_top = []
            for here, beyond in zip(capped, capped[1:]):
                p, q = capped[0] * (beyond - here), here * beyond
                g = math.gcd(p, q)
                below_top.append((n - here, p // g, q // g))
            g = math.gcd(capped[0], capped[-1])
            p, q = capped[0] // g, capped[-1] // g
            for top in range(n, m - 1, -1) if rows[0] == 0 else capped[-1:]:
                yield rows[-1], [*below_top, (n - top, p, q)]


def report_work(m: int, n: int) -> int:
    """The lines of the JSON ``solve`` report of an m x n instance game: 4 per cell,
    3 per row (its brackets and action), 9 per column (its action and its one pure
    equilibrium), m + n + 6 per closed-form profile, and 17 more. Past WORK_LIMIT's
    bit length, k only has to keep the count above the limit."""
    k, c = min(m, n, WORK_LIMIT.bit_length()), max(n - m + 1, 1)
    return 4 * m * n + 3 * m + 9 * n + (2 ** (k - 1) * (c + 1) - 1) * (m + n + 6) + 17


def instance_mixed_jsonable(instance: GameInstance) -> list[dict]:
    """``to_jsonable`` of each profile of ``solve_mixed`` on the instance's
    payoff matrix, in its order, written from a closed form in integers as
    "p/q", or "p" when q is 1: 2^(k-1)*(c+1) - 1 profiles, k = min(m, n),
    c = max(n-m+1, 1).

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
    positive, so profiles differ. They are generated in enumeration's (|S|,
    R, C) order: R = {m - s_j} by combinations, and for R holding row 0 the
    top parcel from n down to m, as column n - y ascends.
    """
    m, n = abs(instance.balance_i), abs(instance.balance_j)
    found = []
    for row, weights in _closed_form(m, n):
        probs_i, probs_j = ["0"] * m, ["0"] * n
        probs_i[row] = "1"
        for column, p, q in weights:
            probs_j[column] = f"{p}/{q}" if q != 1 else str(p)
        found.append({"probs_i": probs_i, "probs_j": probs_j})
    return found
