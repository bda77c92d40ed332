"""Reference implementations of the exact solver layer over ``fractions.Fraction``.

A deliberately plain Gaussian-elimination enumerator kept only as a test
oracle for ``liqgame.solver.solve_mixed``: the two must return equal lists,
including order, de-duplication and degenerate profiles. A second,
independent oracle, ``extreme_equilibria``, enumerates the vertices of the
two best-response polytopes instead of support pairs. A Gaussian
determinant checks the solver's table of minors. The ``Fraction``
forms of ``verify_equilibrium``, of both deviation gains and of the oracle's
window grid are kept for the same purpose against the integer versions in
``liqgame.solver``, and so is the numpy full sweep of the grid oracle, which
is exact on int payoffs only.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from liqgame.core import PayoffMatrix, decimal_ratio
from liqgame.solver import DimensionMismatch, MixedProfile


def _solve_linear_exact(
    a: list[list[Fraction]], b: list[Fraction]
) -> Optional[list[Fraction]]:
    """Gaussian elimination over rationals; None when the system has no
    unique solution."""
    n = len(a)
    aug = [row[:] + [b[k]] for k, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        for r in range(col + 1, n):
            if aug[r][col] == 0:
                continue
            factor = aug[r][col] / inv
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n]
        for c in range(r + 1, n):
            acc -= aug[r][c] * x[c]
        x[r] = acc / aug[r][r]
    return x


def reference_determinant(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over rationals,
    swapping rows past zero pivots; 1 for the empty matrix."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def _indifference_solution(
    own_payoffs: list[list[int]], support_own: Sequence[int], support_opp: Sequence[int]
) -> Optional[tuple[list[Fraction], Fraction]]:
    """Probabilities over ``support_opp`` that equalise the owner's payoff
    across ``support_own``, plus the common payoff value."""
    k = len(support_opp)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for r in support_own:
        rows.append([Fraction(own_payoffs[r][c]) for c in support_opp] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs.append(Fraction(1))
    solution = _solve_linear_exact(rows, rhs)
    if solution is None:
        return None
    return solution[:k], solution[k]


def _profile_for_supports(
    u_i: Sequence[Sequence[int]],
    u_j: Sequence[Sequence[int]],
    si: Sequence[int],
    sj: Sequence[int],
) -> Optional[MixedProfile]:
    m, n = len(u_i), len(u_i[0])
    solved_q = _indifference_solution(u_i, si, sj)
    if solved_q is None:
        return None
    q_support, value_i = solved_q
    if any(q < 0 for q in q_support):
        return None
    for r in range(m):
        if r not in si and sum(Fraction(u_i[r][c]) * q for c, q in zip(sj, q_support)) > value_i:
            return None
    u_j_t = [[u_j[r][c] for r in range(m)] for c in range(n)]
    solved_p = _indifference_solution(u_j_t, sj, si)
    if solved_p is None:
        return None
    p_support, value_j = solved_p
    if any(p < 0 for p in p_support):
        return None
    for c in range(n):
        if c not in sj and sum(Fraction(u_j[r][c]) * p for r, p in zip(si, p_support)) > value_j:
            return None
    probs_i = [Fraction(0)] * m
    for r, p in zip(si, p_support):
        probs_i[r] = p
    probs_j = [Fraction(0)] * n
    for c, q in zip(sj, q_support):
        probs_j[c] = q
    return MixedProfile(tuple(probs_i), tuple(probs_j))


def reference_solve_mixed(matrix: PayoffMatrix) -> list[MixedProfile]:
    """Every accepted profile in enumeration order, duplicates dropped."""
    m, n = matrix.rows, matrix.cols
    u_i, u_j = matrix.u_i, matrix.u_j
    profiles: list[MixedProfile] = []
    seen = set()
    for size in range(1, min(m, n) + 1):
        for si in itertools.combinations(range(m), size):
            for sj in itertools.combinations(range(n), size):
                profile = _profile_for_supports(u_i, u_j, si, sj)
                if profile is not None and profile not in seen:
                    seen.add(profile)
                    profiles.append(profile)
    return profiles


def _vertices(constraints: list[tuple[list[Fraction], int, int]], dim: int) -> dict[tuple, frozenset]:
    """Each nonzero vertex of {z : a . z <= b for every (a, b, label) of
    ``constraints``}, with the labels of the constraints tight at it: the
    feasible unique solutions of every ``dim`` of the constraints made tight."""
    vertices = {}
    for basis in itertools.combinations(constraints, dim):
        z = _solve_linear_exact([a for a, _, _ in basis], [Fraction(b) for _, b, _ in basis])
        if z is None or not any(z) or tuple(z) in vertices:
            continue
        slacks = [b - sum(map(operator.mul, a, z)) for a, b, _ in constraints]
        if min(slacks) >= 0:
            vertices[tuple(z)] = frozenset(label for (_, _, label), s in zip(constraints, slacks) if s == 0)
    return vertices


def extreme_equilibria(matrix: PayoffMatrix) -> set[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """The game's extreme equilibria, as (probs_i, probs_j) pairs (Mangasarian 1964;
    von Stengel 2002). With both payoff tables A = u_i and B = u_j shifted to be
    positive, the best-response polytopes are P = {x >= 0, B^T x <= 1} and
    Q = {A y <= 1, y >= 0}. A vertex is labelled by each of I's actions r where
    x_r = 0 or (A y)_r = 1, and by each of J's actions c where (B^T x)_c = 1 or
    y_c = 0. The pairs of nonzero vertices whose labels cover all m + n actions,
    each side scaled to sum to 1, are the extreme equilibria. Every payoff is
    read by the library's number rule, ``core.decimal_ratio`` (a float as the
    decimal its ``str`` writes), and every vertex is solved basis by basis in
    Fractions; nothing of ``liqgame.solver`` is used."""
    m, n = matrix.rows, matrix.cols
    u_i, u_j = ([[Fraction(*decimal_ratio(x)) for x in row] for row in u] for u in (matrix.u_i, matrix.u_j))
    shift = 1 - min(itertools.chain(*u_i, *u_j))
    a = [[x + shift for x in row] for row in u_i]
    b = [[x + shift for x in row] for row in u_j]

    def minus_unit(k: int, size: int) -> list[Fraction]:
        return [Fraction(-(k == c)) for c in range(size)]

    p = _vertices(
        [(minus_unit(r, m), 0, r) for r in range(m)] + [([row[c] for row in b], 1, m + c) for c in range(n)], m
    )
    q = _vertices([(a[r], 1, r) for r in range(m)] + [(minus_unit(c, n), 0, m + c) for c in range(n)], n)
    every = frozenset(range(m + n))
    return {
        (tuple(v / sum(x) for v in x), tuple(v / sum(y) for v in y))
        for x, labels_x in p.items()
        for y, labels_y in q.items()
        if labels_x | labels_y == every
    }


def exact(x) -> Fraction:
    """``x`` as the library's one number rule reads it, by ``Fraction``'s own text parser: an int
    or a Fraction at its value, a float as ``Fraction(repr(x))``, the shortest text that reads back
    to it (Steele & White, 1990), and any other number by its ``str``, since the repr of a
    ``Decimal`` or a numpy scalar names its type. A bool, an infinity or a NaN raises ValueError."""
    if type(x) is not bool and isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(repr(x) if isinstance(x, float) else str(x))


def reference_verify_equilibrium(
    matrix: PayoffMatrix, profile: MixedProfile, tolerance: Fraction = Fraction(0)
) -> bool:
    """True iff no unilateral pure deviation gains more than ``tolerance``,
    in the profile's own arithmetic, every payoff read as ``exact(x)``, the
    decimal its text writes (a Fraction times a float would be a float)."""
    m, n = matrix.rows, matrix.cols
    if len(profile.probs_i) != m or len(profile.probs_j) != n:
        raise DimensionMismatch(
            f"profile is {len(profile.probs_i)}x{len(profile.probs_j)}, "
            f"matrix is {m}x{n}"
        )
    u_i, u_j = ([[x if type(x) in (int, Fraction) else exact(x) for x in row] for row in table]
                for table in (matrix.u_i, matrix.u_j))
    row_payoffs = [
        sum(u_i[r][c] * profile.probs_j[c] for c in range(n)) for r in range(m)
    ]
    col_payoffs = [
        sum(u_j[r][c] * profile.probs_i[r] for r in range(m)) for c in range(n)
    ]
    expected_i = sum(profile.probs_i[r] * row_payoffs[r] for r in range(m))
    expected_j = sum(profile.probs_j[c] * col_payoffs[c] for c in range(n))
    return (
        max(row_payoffs) - expected_i <= tolerance
        and max(col_payoffs) - expected_j <= tolerance
    )


def reference_gains(matrix: PayoffMatrix, profile: MixedProfile) -> tuple[Fraction, Fraction]:
    """I's and J's largest gain from a unilateral pure deviation, with every
    payoff and probability read as ``exact(x)``, the decimal its text writes."""
    u_i, u_j = ([list(map(exact, row)) for row in table] for table in (matrix.u_i, matrix.u_j))
    p, q = list(map(exact, profile.probs_i)), list(map(exact, profile.probs_j))
    row_payoffs = [sum(map(operator.mul, row, q)) for row in u_i]
    col_payoffs = [sum(map(operator.mul, col, p)) for col in zip(*u_j)]
    return (
        max(row_payoffs) - sum(map(operator.mul, p, row_payoffs)),
        max(col_payoffs) - sum(map(operator.mul, q, col_payoffs)),
    )


def reference_window_grid(
    total: int, center: Sequence[Fraction], radius: int
) -> list[tuple[int, ...]]:
    """Sorted compositions of ``total`` whose coordinates all lie within
    ``radius`` grid steps of ``center``."""
    choices = []
    for x in center:
        scaled = x * total
        lo = max(0, int(scaled) - radius)
        hi = min(total, int(scaled) + radius + 1)
        choices.append([k for k in range(lo, hi + 1) if abs(Fraction(k) - scaled) <= radius])
    pts = [p for p in itertools.product(*choices) if sum(p) == total]
    return sorted(set(pts))


def _simplex_grid(parts: int, total: int) -> np.ndarray:
    """All integer compositions of ``total`` into ``parts`` parts, sorted."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    combos = itertools.combinations(range(total + parts - 1), parts - 1)
    bars = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64).reshape(-1, parts - 1)
    padded = np.hstack(
        [
            np.full((bars.shape[0], 1), -1, dtype=np.int64),
            bars,
            np.full((bars.shape[0], 1), total + parts - 1, dtype=np.int64),
        ]
    )
    return np.diff(padded, axis=1) - 1


def reference_sweep(matrix: PayoffMatrix, resolution: int) -> list[MixedProfile]:
    """Every profile of the two full simplex grids at ``resolution`` whose
    deviation gains are both below 1/resolution, by float64 matrix products
    (exact while the scaled payoffs stay below 2**52), in row-major (p, q)
    order."""
    u_i = np.array(matrix.u_i, dtype=np.float64)
    u_j = np.array(matrix.u_j, dtype=np.float64)
    max_abs = max(1.0, float(np.max(np.abs(u_i))), float(np.max(np.abs(u_j))))
    if max_abs * resolution * resolution >= 2**52:
        raise ValueError("payoffs too large for exact float64 evaluation")
    grid_p = _simplex_grid(matrix.rows, resolution)
    grid_q = _simplex_grid(matrix.cols, resolution)
    kp, kq = grid_p.astype(np.float64), grid_q.astype(np.float64)
    best_i_by_q = (kq @ u_i.T).max(axis=1)  # scaled by resolution
    best_j_by_p = (kp @ u_j).max(axis=1)
    gain_i = resolution * best_i_by_q[None, :] - kp @ u_i @ kq.T
    gain_j = resolution * best_j_by_p[:, None] - kp @ u_j @ kq.T
    return [
        MixedProfile(
            tuple(Fraction(k, resolution) for k in grid_p[ip].tolist()),
            tuple(Fraction(k, resolution) for k in grid_q[iq].tolist()),
        )
        for ip, iq in np.argwhere((gain_i < resolution) & (gain_j < resolution)).tolist()
    ]
