import itertools
import json
import math
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liqgame.core import (
    DimensionCapExceeded,
    GameInstance,
    PayoffMatrix,
    ZeroBalance,
    build_instance,
    build_payoff_matrix,
    decimal_ratio,
)
from liqgame import cli, documents, market, solver
from liqgame.commands.solve import build_solve_report
from liqgame.equilibria import find_pure_equilibria, instance_mixed_jsonable, report_work
from liqgame.solver import (
    DimensionMismatch,
    MixedProfile,
    brute_force_oracle,
    solve_mixed,
    verify_equilibrium,
)

from reference_solver import (
    exact,
    extreme_equilibria,
    reference_determinant,
    reference_gains,
    reference_solve_mixed,
    reference_sweep,
    reference_verify_equilibrium,
    reference_window_grid,
)

F = Fraction


def game_matrix(b_i: int, b_j: int) -> PayoffMatrix:
    return build_payoff_matrix(build_instance(b_i, b_j, 10_000))


def profile(probs_i, probs_j) -> MixedProfile:
    return MixedProfile(
        tuple(F(p) for p in probs_i), tuple(F(q) for q in probs_j)
    )


# the first shape solve_mixed refuses for each shorter side 1..7, in both
# orientations, and the first square
FIRST_REFUSED = [
    (1, 2888), (2888, 1), (2, 894), (854, 2), (3, 144), (136, 3), (4, 59), (56, 4),
    (5, 37), (35, 5), (6, 28), (26, 6), (7, 23), (21, 7), (13, 13),
]

GOLDEN_2X2_MIXED = profile([0, 1], [F(1, 2), F(1, 2)])
GOLDEN_3X3_MIXED = profile([0, 0, 1], [F(1, 3), F(1, 6), F(1, 2)])


class TestPureEquilibria:
    def test_two_by_two(self):
        cells = [(e.row_index, e.col_index) for e in find_pure_equilibria(game_matrix(2, -2))]
        assert cells == [(0, 0), (1, 1)]

    def test_three_by_three_diagonal(self):
        cells = [(e.row_index, e.col_index) for e in find_pure_equilibria(game_matrix(3, -3))]
        assert cells == [(0, 0), (1, 1), (2, 2)]

    def test_constant_zero_matrix(self):
        matrix = PayoffMatrix.from_entries([[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        assert len(find_pure_equilibria(matrix)) == 4

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PayoffMatrix.from_entries([[]]),
            lambda: PayoffMatrix(actions_i=(), actions_j=(1,), u_i=(), u_j=()),
        ],
        ids=["1x0", "0x1"],
    )
    def test_empty_side_rejected(self, build):
        # either empty side alone is refused where the matrix is built, so no
        # scan ever meets one
        with pytest.raises(ValueError, match="^matrix must be non-empty$"):
            build()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diagonal_theorem_small(self, n):
        equilibria = find_pure_equilibria(game_matrix(n, -n))
        assert len(equilibria) == n
        assert all(e.row_index == e.col_index for e in equilibria)

    def test_best_response_property_holds(self):
        matrix = game_matrix(5, -3)
        for eq in find_pure_equilibria(matrix):
            u = matrix.u_i[eq.row_index][eq.col_index]
            v = matrix.u_j[eq.row_index][eq.col_index]
            assert all(row[eq.col_index] <= u for row in matrix.u_i)
            assert all(w <= v for w in matrix.u_j[eq.row_index])


class TestSolveMixed:
    def test_two_by_two_contains_published_profile(self):
        assert GOLDEN_2X2_MIXED in solve_mixed(game_matrix(2, -2))

    def test_three_by_three_contains_published_profile(self):
        assert GOLDEN_3X3_MIXED in solve_mixed(game_matrix(3, -3))

    def test_singleton_game(self):
        assert solve_mixed(game_matrix(1, -1)) == [profile([1], [1])]

    def test_probabilities_sum_to_one_exactly(self):
        for prof in solve_mixed(game_matrix(4, -4)):
            assert sum(prof.probs_i) == 1
            assert sum(prof.probs_j) == 1

    def test_pure_equilibria_appear_as_degenerate_profiles(self):
        matrix = game_matrix(4, -3)
        profiles = solve_mixed(matrix)
        for eq in find_pure_equilibria(matrix):
            degenerate = profile(
                [1 if r == eq.row_index else 0 for r in range(matrix.rows)],
                [1 if c == eq.col_index else 0 for c in range(matrix.cols)],
            )
            assert degenerate in profiles

    @pytest.mark.parametrize("m,n", FIRST_REFUSED)
    def test_work_limit_refuses_before_the_plan_is_built(self, monkeypatch, m, n):
        # pairs, minors and the pure pairs' outside rows, two to a unit, and eight
        # units per plan entry: the first shape refused for each shorter side
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        with pytest.raises(DimensionCapExceeded) as caught:
            solve_mixed(game_matrix(m, -n))
        assert str(caught.value) == f"solve_mixed of a {m}x{n} game exceeds the work limit of 4194304"

    @pytest.mark.parametrize("m,n", FIRST_REFUSED)
    def test_one_step_smaller_gets_past_the_work_limit(self, monkeypatch, m, n):
        # the longer side one shorter, or 12x12 for the square
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        m, n = (m - 1, n - 1) if m == n else (m - (m > n), n - (n > m))
        with pytest.raises(AssertionError, match="^_laplace_plan called$"):
            solve_mixed(game_matrix(m, -n))

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "^True writes no finite decimal$"), ("1/2", "^'1/2' is a string, not a number$")],
        ids=["bool-payoff", "string-payoff"],
    )
    def test_non_integer_payoffs_refused_before_the_plan_is_built(self, monkeypatch, bad, message):
        # neither is a number the decimal rule reads, and a string's text would read as 1/2
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        with pytest.raises(ValueError, match=message):
            solve_mixed(PayoffMatrix.from_cells((1, 2), (1,), [[(bad, 0)], [(0, 0)]]))

    def test_float_payoffs_solve_as_their_decimals(self):
        # a float dilemma, read as the decimals its str writes, is the int game
        floats = PayoffMatrix.from_cells((1, 2), (1, 2), [[(3.0, 3.0), (0.0, 5.0)], [(5.0, 0.0), (1.0, 1.0)]])
        assert solve_mixed(floats) == solve_mixed(PayoffMatrix.from_entries([[(3, 3), (0, 5)], [(5, 0), (1, 1)]]))
        tenths = float_game(((0.1, 0.7), (0.3, 0.6)), ((1, 0), (0, 1)))
        assert solve_mixed(tenths) == [profile([F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)])]

    def test_fraction_payoffs_solve_as_their_scaled_integers(self):
        # J's payoffs times 2, the lcm of their denominators: J's second column, against I's one row
        fractions = PayoffMatrix.from_cells((1,), (1, 2), [[(0, 0), (0, F(1, 2))]])
        integers = PayoffMatrix.from_entries([[(0, 0), (0, 1)]])
        assert solve_mixed(fractions) == solve_mixed(integers) == [profile([1], [0, 1])]
        # a Fraction of denominator 1 is read as its int
        whole = PayoffMatrix.from_cells((1,), (1, 2), [[(0, F(0)), (0, F(1))]])
        assert solve_mixed(whole) == [profile([1], [0, 1])]

    @pytest.mark.parametrize("kind", ["int", "denominator", "numerator"])
    @pytest.mark.parametrize("bits, refused", [(64, 12), (1024, 10)])
    def test_entry_size_weighs_the_count(self, monkeypatch, bits, refused, kind):
        # at d bits past 16 of the largest scaled entry, each unit counts 1 + d (d + 2048) / 2^17 times:
        # the first square refused at each size, and the one below it admitted. A Fraction game's
        # scaled entries reach about that size through its one large denominator, or through its
        # large numerators over 3.
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        big = {
            "int": 2 ** (bits - 1) + 1,
            "denominator": F(8, 2 ** (bits - 4) + 1),
            "numerator": F(2 ** (bits - 1) + 1, 3),
        }[kind]

        def game(side):
            cells = [[(big if (r + c) % 2 else r - c, 8) for c in range(side)] for r in range(side)]
            return PayoffMatrix.from_cells(range(side), range(side), cells)

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        with pytest.raises(DimensionCapExceeded) as caught:
            solve_mixed(game(refused))
        assert str(caught.value) == f"solve_mixed of a {refused}x{refused} game exceeds the work limit of 4194304"
        with pytest.raises(AssertionError, match="^_laplace_plan called$"):
            solve_mixed(game(refused - 1))

    @pytest.mark.parametrize("bits, refused", [(16, False), (17, True)])
    def test_entries_past_16_bits_weigh_the_count(self, monkeypatch, bits, refused):
        # 1x2887 counts 4,193,375 units, 929 below the limit: unchanged at 16 bits,
        # and 1 + 2049 / 2^17 times as many at 17
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        matrix = PayoffMatrix.from_entries([[(-(2 ** (bits - 1)), c % 5) for c in range(2887)]])
        with pytest.raises(DimensionCapExceeded if refused else AssertionError):
            solve_mixed(matrix)

    def test_large_denominators_refused_before_the_lcm_is_built(self, monkeypatch):
        # 2887 distinct denominators of 1001 bits, none dividing another: a lcm of about 2.9
        # million bits, times every entry, had it been built; the reader takes it one denominator
        # at a time and refuses the game at its second step, past the bound of MAX_BITS
        steps, lcm = [], math.lcm
        monkeypatch.setattr(documents.math, "lcm", lambda *args: steps.append(args) or lcm(*args))
        row = [(F(1, 2**1000 + 2 * c + 1), 0) for c in range(2887)]
        with pytest.raises(DimensionCapExceeded) as caught:
            solve_mixed(PayoffMatrix.from_cells((1,), range(2887), [row]))
        assert str(caught.value) == "solve_mixed of a 1x2887 game holds a number past the bound of 1077 bits"
        assert len(steps) == 2

    @pytest.mark.parametrize(
        "huge", [Decimal("1e-99999999"), Decimal("1e+99999999"), Decimal("-9.9E-99999999"), Decimal("1" * 5000)]
    )
    def test_decimal_past_the_digit_limit_refused_by_the_reader(self, huge):
        # 10^99999999 would take minutes to build; core.decimal_ratio refuses its shift first, in
        # solve_mixed and both checkers alike
        matrix = float_game(((huge, 1), (0, 0)), ((0, 0), (1, 1)))
        pure = profile([1, 0], [1, 0])
        for call in (solve_mixed, lambda m: verify_equilibrium(m, pure), lambda m: brute_force_oracle(m, 2)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^Decimal exceeds the limit of 4300 digits$"):
                call(matrix)
            assert time.perf_counter() - start < 1

    def test_a_decimal_table_is_read_once(self, monkeypatch):
        # each number that is no int and no Fraction is read once, sized from that reading, then scaled;
        # the reader takes ints and Fractions at their value, with no text
        texts = []

        def read(x):
            if not isinstance(x, (int, F)):
                texts.append(str(x))
            return decimal_ratio(x)

        monkeypatch.setattr(documents, "decimal_ratio", read)
        matrix = float_game(((0.1, 3), (F(1, 3), Decimal("0.7"))), ((2, 0.5), (1, 1)))
        assert solve_mixed(matrix) == solve_mixed(exact_copy(matrix))
        assert texts == ["0.1", "0.7", "0.5"]

    def test_shared_denominator_factors_counted_once(self, monkeypatch):
        # the lcm of 6, 10 and 15 is 30, 5 bits; the bound counts 15's 4 bits, and 1 bit each for
        # 6 / gcd(6, 15) = 2 and 10 / gcd(10, 15) = 2, 6 in all, where counting every denominator
        # that does not divide 15 whole gave 4 + 3 + 4 = 11. With payoffs up to 5000 (13 bits, 18
        # once scaled by 30) that is 19 bits against 24: 1x2800 counts 3,945,208 units, which at 3
        # bits past 16 weigh 4,130,410, admitted, and at 8 weighed 4,440,285, refused.
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        row = [(F(1, 6), 0), (F(1, 10), 0), (F(1, 15), 0)] + [(5000 - c % 7, c % 5) for c in range(2797)]
        with pytest.raises(AssertionError, match="^_laplace_plan called$"):
            solve_mixed(PayoffMatrix.from_cells((1,), range(2800), [row]))

    @pytest.mark.parametrize(
        "name, mixed",
        [
            ("final_4x4", profile([0, 0, 1, 0], [F(3, 7), F(4, 7), 0, 0])),
            ("intermediate_2x4", profile([1, 0], [F(14, 33), F(19, 33), 0, 0])),
        ],
    )
    def test_published_tables_read_as_exact_decimals(self, name, mixed):
        raw = json.loads(documents.fixture_path(f"market_{name}.json").read_text(), parse_float=F)
        matrix = PayoffMatrix.from_cells(raw["rows"], raw["cols"], raw["matrix"])
        profiles = solve_mixed(matrix)
        assert len(profiles) == 3 and mixed in profiles
        assert set(profiles) == extreme_equilibria(matrix)
        assert all(verify_equilibrium(matrix, prof, F(0)) for prof in profiles)
        # the float tables load_published_matrix returns read as the same decimals, in the oracle too
        floats = market.load_published_matrix(name)
        assert solve_mixed(floats) == profiles and extreme_equilibria(floats) == set(profiles)

    @pytest.mark.parametrize("m,n", [(1, 600), (600, 1)])
    def test_thin_game_holds_no_row_by_row_table(self, m, n):
        # support enumeration reads the payoff rows it is given: a table of every
        # row minus every other would alone hold 360,000 ints here. A random game
        # has few best replies, so its profiles take little room of their own.
        rng = random.Random(1)
        matrix = PayoffMatrix.from_entries(
            [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
        )
        tracemalloc.start()
        try:
            profiles = solve_mixed(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profiles
        assert peak < 4 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(b_i=st.integers(1, 4), b_j=st.integers(1, 4))
    def test_every_profile_verifies_exactly(self, b_i, b_j):
        matrix = game_matrix(b_i, -b_j)
        profiles = solve_mixed(matrix)
        assert profiles
        for prof in profiles:
            assert verify_equilibrium(matrix, prof, F(0))


@st.composite
def general_games(draw, max_side: int = 5) -> PayoffMatrix:
    """from_entries games with sides 1..max_side over a small value pool, so
    ties, zeros, negatives and duplicated rows and columns are common."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    pool = draw(st.lists(st.integers(-10, 1000), min_size=1, max_size=4)) + [0, -1]
    value = st.sampled_from(pool)
    grid = draw(
        st.lists(
            st.lists(st.tuples(value, value), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows < max_side and draw(st.booleans()):
        grid.append(list(grid[draw(st.integers(0, rows - 1))]))
    if cols < max_side and draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        grid = [row + [row[c]] for row in grid]
    return PayoffMatrix.from_entries(grid)


class TestReferenceAgreement:
    """solve_mixed must return exactly the Fraction enumerator's list."""

    @pytest.mark.parametrize("b_i", range(1, 8))
    @pytest.mark.parametrize("b_j", range(1, 8))
    def test_instance_games(self, b_i, b_j):
        matrix = game_matrix(b_i, -b_j)
        assert solve_mixed(matrix) == reference_solve_mixed(matrix)

    @settings(max_examples=150, deadline=None)
    @given(matrix=general_games())
    def test_general_games(self, matrix):
        assert solve_mixed(matrix) == reference_solve_mixed(matrix)

    @settings(max_examples=25, deadline=None)
    @given(matrix=general_games(max_side=7))
    def test_general_games_up_to_seven_a_side(self, matrix):
        assert solve_mixed(matrix) == reference_solve_mixed(matrix)

    @pytest.mark.parametrize(
        "grid, expected",
        [
            # rock-paper-scissors: I's first difference row is (1, 1, -2), so
            # elimination of the full support system meets a zero pivot
            (
                [
                    [(0, 0), (-1, 1), (1, -1)],
                    [(1, -1), (0, 0), (-1, 1)],
                    [(-1, 1), (1, -1), (0, 0)],
                ],
                [profile([F(1, 3)] * 3, [F(1, 3)] * 3)],
            ),
            # matching pennies: J's 2x2 system has determinant -4, I's +4
            (
                [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
                [profile([F(1, 2)] * 2, [F(1, 2)] * 2)],
            ),
            # I's rows are equal, so every 2x2 system of I's is singular
            (
                [[(2, 1), (0, 0)], [(2, 0), (0, 1)]],
                [profile([1, 0], [1, 0]), profile([0, 1], [0, 1])],
            ),
            # J's columns are equal, so every 2x2 system of J's is singular
            (
                [[(1, 2), (0, 2)], [(0, 0), (1, 0)]],
                [profile([1, 0], [1, 0]), profile([0, 1], [0, 1])],
            ),
            # all zero: every system above size 1 is singular, every cell pure
            (
                [[(0, 0)] * 3] * 2,
                [
                    profile(p, q)
                    for p in ([1, 0], [0, 1])
                    for q in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
                ],
            ),
        ],
        ids=["zero-pivot", "negative-determinant", "equal-rows", "equal-columns", "all-zero"],
    )
    def test_games_for_each_branch(self, grid, expected):
        matrix = PayoffMatrix.from_entries(grid)
        assert solve_mixed(matrix) == expected == reference_solve_mixed(matrix)

    @settings(max_examples=150, deadline=None)
    @given(matrix=general_games())
    def test_general_profiles_are_exact_equilibria(self, matrix):
        for prof in solve_mixed(matrix):
            assert sum(prof.probs_i) == 1 and sum(prof.probs_j) == 1
            assert verify_equilibrium(matrix, prof, F(0))


@st.composite
def fraction_games(draw) -> PayoffMatrix:
    """Games of 1-4 actions a side with payoffs n/d, n in -4..4 and d in 1..10."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.builds(F, st.integers(-4, 4), st.integers(1, 10))
    cell = st.tuples(value, value)
    grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return PayoffMatrix.from_cells(range(rows), range(cols), grid)


def scaled_copy(matrix: PayoffMatrix) -> PayoffMatrix:
    """The game with each player's payoffs times the product of that player's
    denominators, a positive multiple of their lcm, as ints."""

    def scaled(table):
        factor = math.prod(x.denominator for x in itertools.chain(*table))
        return tuple(tuple(int(x * factor) for x in row) for row in table)

    return matrix._replace(u_i=scaled(matrix.u_i), u_j=scaled(matrix.u_j))


class TestRationalPayoffs:
    """A Fraction game has the equilibria of any positive scaling of each player's payoffs."""

    @settings(max_examples=120, deadline=None)
    @given(matrix=fraction_games())
    def test_fraction_game_solves_as_its_scaled_copy(self, matrix):
        profiles = solve_mixed(matrix)
        assert repr(profiles) == repr(solve_mixed(scaled_copy(matrix))) == repr(reference_solve_mixed(matrix))
        assert set(profiles) <= extreme_equilibria(matrix)


def transposed(matrix: PayoffMatrix) -> PayoffMatrix:
    """The game with the players swapped: u_i' = u_j^T and u_j' = u_i^T."""
    return PayoffMatrix.from_entries(
        [list(zip(col_j, col_i)) for col_j, col_i in zip(zip(*matrix.u_j), zip(*matrix.u_i))]
    )


@st.composite
def thin_games(draw) -> PayoffMatrix:
    """Games of 1-2 rows and 10-30 columns over a small value pool, so ties are common."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(10, 30))
    value = st.integers(-3, 3)
    cell = st.tuples(value, value)
    row = st.lists(cell, min_size=cols, max_size=cols)
    return PayoffMatrix.from_entries(draw(st.lists(row, min_size=rows, max_size=rows)))


class TestOrientation:
    """Swapping the players swaps each profile's two sides, whichever player owns the longer side."""

    @settings(max_examples=60, deadline=None)
    @given(matrix=general_games(max_side=4) | thin_games())
    def test_transposed_game_swaps_the_profiles(self, matrix):
        swapped = {MixedProfile(prof.probs_j, prof.probs_i) for prof in solve_mixed(matrix)}
        assert set(solve_mixed(transposed(matrix))) == swapped


class TestMinorTable:
    """The Laplace tables of solve_mixed hold every minor of the rows so far,
    by subset rank, then negated."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_minors_are_determinants(self, data):
        n = data.draw(st.integers(1, 6))
        row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=1, max_size=n))
        plan = solver._laplace_plan(n, len(rows))
        minors = [1, -1]
        for t in range(1, len(rows) + 1):
            minors = solver._next_minors(minors, rows[t - 1], plan[t])
            expected = [
                reference_determinant([[r[c] for c in cols] for r in rows[:t]])
                for cols in itertools.combinations(range(n), t)
            ]
            assert minors == expected + [-x for x in expected]


def profile_text(prof: MixedProfile) -> dict:
    """The profile as the solve report writes it: ``str`` of each weight."""
    return {"probs_i": list(map(str, prof.probs_i)), "probs_j": list(map(str, prof.probs_j))}


def profile_count(m: int, n: int) -> int:
    """2^(k-1)*(c+1) - 1 with k = min(m, n) and c = max(n - m + 1, 1)."""
    return 2 ** (min(m, n) - 1) * (max(n - m + 1, 1) + 1) - 1


class TestInstanceMixedProfiles:
    """The closed form prints exactly what support enumeration lists."""

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_support_enumeration(self, m, n):
        instance = build_instance(m, -n, 10_000)
        expected = solve_mixed(build_payoff_matrix(instance))
        assert instance_mixed_jsonable(instance) == list(map(profile_text, expected))
        assert len(expected) == profile_count(m, n)
        # an int 0 compares equal to Fraction(0), so equality alone lets one through
        assert all(type(x) is Fraction for prof in expected for x in prof.probs_i + prof.probs_j)

    @settings(max_examples=50, deadline=None)
    @given(thin=st.integers(1, 3), wide=st.integers(1, 200), transpose=st.booleans())
    def test_thin_shapes_beyond_the_cap(self, thin, wide, transpose):
        m, n = (wide, thin) if transpose else (thin, wide)
        instance = build_instance(m, -n, 10_000)
        matrix = build_payoff_matrix(instance)
        printed = instance_mixed_jsonable(instance)
        assert len(printed) == profile_count(m, n)
        for prof in printed:
            assert verify_equilibrium(matrix, profile(prof["probs_i"], prof["probs_j"]), F(0))

    @settings(max_examples=15, deadline=None)
    @given(thin=st.integers(1, 3), wide=st.integers(13, 40), transpose=st.booleans())
    @example(thin=2, wide=27, transpose=False)
    def test_thin_shapes_equal_support_enumeration(self, thin, wide, transpose):
        # past twelve per side, where the work limit still admits support enumeration
        m, n = (wide, thin) if transpose else (thin, wide)
        instance = build_instance(m, -n, 10_000)
        expected = solve_mixed(build_payoff_matrix(instance))
        assert instance_mixed_jsonable(instance) == list(map(profile_text, expected))
        assert len(expected) == profile_count(m, n)
        assert all(type(x) is Fraction for prof in expected for x in prof.probs_i + prof.probs_j)

    @pytest.mark.parametrize(
        "m,n",
        [*itertools.product(range(1, 13), repeat=2), (1, 300), (300, 1), (2, 150), (150, 2), (14, 3)],
    )
    def test_report_work_is_the_lines_printed(self, m, n):
        report = cli._dumps(build_solve_report(build_instance(m, -n, 10_000)))
        assert report_work(m, n) == report.count("\n")

    @pytest.mark.parametrize("m", range(1, 13))
    def test_report_text_is_the_profiles_text(self, m):
        # solve's report writes each weight from the closed form's integers,
        # with no Fraction: it must read as str() of a Fraction in [0, 1],
        # "0", "1" or "p/q" in lowest terms with 0 < p < q
        for n in range(1, 13):
            for prof in instance_mixed_jsonable(build_instance(m, -n, 10_000)):
                for weight in prof["probs_i"] + prof["probs_j"]:
                    if weight not in ("0", "1"):
                        p, q = map(int, weight.split("/"))
                        assert weight == f"{p}/{q}" and 0 < p < q and math.gcd(p, q) == 1

    def test_cleared_player_has_no_game(self):
        # no instance with a cleared player is built, so none reaches the closed form
        with pytest.raises(ZeroBalance, match="^balance_i must be nonzero$"):
            GameInstance(0, -2, 10)


@st.composite
def small_integer_games(draw) -> PayoffMatrix:
    """Games of 1-4 actions a side with payoffs in -2..2."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return PayoffMatrix.from_entries(
        draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    )


# four extreme equilibria: the two pure cells, and I's either row against J's
# (1/3, 2/3), which pairs a support of one with one of two
DEGENERATE_2X2 = PayoffMatrix.from_entries([[(-2, 1), (2, 1)], [(0, 0), (1, 0)]])


class TestExtremeEquilibria:
    """The vertex-pair oracle against the closed form and support enumeration."""

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_is_the_extreme_set(self, m, n):
        instance = build_instance(m, -n, 10_000)
        printed = [(tuple(p["probs_i"]), tuple(p["probs_j"])) for p in instance_mixed_jsonable(instance)]
        extreme = extreme_equilibria(build_payoff_matrix(instance))
        assert len(set(printed)) == len(printed)
        assert set(printed) == {(tuple(map(str, x)), tuple(map(str, y))) for x, y in extreme}

    @settings(max_examples=60, deadline=None)
    @given(matrix=small_integer_games())
    @example(matrix=DEGENERATE_2X2)
    @example(matrix=PayoffMatrix.from_entries([[(1, 0), (0, 1)], [(1, 0), (0, -1)]]))  # I's rows repeat
    def test_every_profile_is_extreme(self, matrix):
        # a subset, not yet the set: degenerate games can lose extreme equilibria
        profiles = solve_mixed(matrix)
        assert len(set(profiles)) == len(profiles)
        assert set(profiles) <= extreme_equilibria(matrix)

    def test_degenerate_game_loses_two(self):
        # support enumeration tries equal sizes only, and the 2x2 system that
        # would hold (row, (1/3, 2/3)) as degenerate is singular for I's weights
        extreme = extreme_equilibria(DEGENERATE_2X2)
        found = solve_mixed(DEGENERATE_2X2)
        assert len(extreme) == 4 and set(found) <= extreme
        missed = extreme - set(found)
        assert missed == {((F(1), F(0)), (F(1, 3), F(2, 3))), ((F(0), F(1)), (F(1, 3), F(2, 3)))}
        assert all(verify_equilibrium(DEGENERATE_2X2, MixedProfile(*prof)) for prof in missed)


def distributions(size: int):
    """Probability vectors of ``size`` entries with mixed denominators: the
    gaps between cuts of [0, 1] at random fractions."""
    cuts = st.lists(
        st.fractions(0, 1, max_denominator=12), min_size=size - 1, max_size=size - 1
    )
    return cuts.map(
        lambda cut: tuple(b - a for a, b in itertools.pairwise([0, *sorted(cut), 1]))
    )


def rational_vectors(size: int):
    """Arbitrary rationals: negative, zero, or not summing to one."""
    return st.lists(
        st.fractions(-2, 2, max_denominator=12), min_size=size, max_size=size
    ).map(tuple)


TOLERANCES = st.sampled_from([F(0), F(1, 7), F(1, 2), F(-1, 3), 0.25])


class TestVerifyAgainstReference:
    """The integer verify_equilibrium against the Fraction reference."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_verdict_on_distributions(self, data):
        matrix = data.draw(general_games())
        prof = MixedProfile(
            data.draw(distributions(matrix.rows)), data.draw(distributions(matrix.cols))
        )
        tolerance = data.draw(TOLERANCES)
        expected = reference_verify_equilibrium(matrix, prof, tolerance)
        assert verify_equilibrium(matrix, prof, tolerance) is expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_other_vectors_raise(self, data):
        matrix = data.draw(general_games())
        probs_i = data.draw(distributions(matrix.rows) | rational_vectors(matrix.rows))
        probs_j = data.draw(rational_vectors(matrix.cols))
        prof = MixedProfile(probs_i, probs_j)
        if all(x >= 0 for x in probs_i + probs_j) and sum(probs_i) == sum(probs_j) == 1:
            assert verify_equilibrium(matrix, prof) is reference_verify_equilibrium(matrix, prof)
        else:
            with pytest.raises(ValueError, match="not a probability distribution"):
                verify_equilibrium(matrix, prof, data.draw(TOLERANCES))


class TestWindowGridAgainstReference:
    """The integer window grid against the Fraction reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.integers(1, 4).flatmap(lambda k: distributions(k) | rational_vectors(k)),
        total=st.sampled_from([1, 2, 7, 50, 200]) | st.integers(1, 300),
        radius=st.integers(-1, 3),
    )
    def test_same_points_in_the_same_order(self, center, total, radius):
        expected = reference_window_grid(total, center, radius)
        assert solver._window_grid(total, center, radius) == expected


def exact_copy(matrix: PayoffMatrix) -> PayoffMatrix:
    """The game with every payoff as ``exact(x)``, the decimal its text writes, as a Fraction."""
    u_i, u_j = (tuple(tuple(map(exact, row)) for row in table) for table in (matrix.u_i, matrix.u_j))
    return matrix._replace(u_i=u_i, u_j=u_j)


def float_game(u_i, u_j) -> PayoffMatrix:
    cells = [list(zip(*rows)) for rows in zip(u_i, u_j)]
    return PayoffMatrix.from_cells(range(len(u_i)), range(len(u_i[0])), cells)


@st.composite
def one_decimal_games(draw):
    """A 2x2 or 3x3 game whose tables hold one-decimal float payoffs, none of them
    exact in binary but the halves, or, for at most one player, ints; and a profile
    of mixed denominators on it."""
    side = draw(st.sampled_from([2, 3]))
    row = st.lists(st.integers(-20, 20), min_size=side, max_size=side)
    tenths = st.lists(row, min_size=side, max_size=side)
    u_i, u_j = ([[k / 10 for k in row] for row in draw(tenths)] for _ in range(2))
    kept = draw(st.sampled_from(["both", "u_i", "u_j"]))  # the table left as floats
    u_i, u_j = ([[round(x * 10) for x in row] for row in u] if kept not in ("both", name) else u
                for u, name in ((u_i, "u_i"), (u_j, "u_j")))
    return float_game(u_i, u_j), MixedProfile(draw(distributions(side)), draw(distributions(side)))


# a float drawn over its whole range or as tenths, or a Decimal of up to 3 places or of any exponent
DECIMAL_ENTRIES = (
    st.floats(-50, 50, allow_nan=False)
    | st.integers(-120, 120).map(lambda k: k / 10)
    | st.decimals(-50, 50, places=3, allow_nan=False, allow_infinity=False)
    | st.builds(lambda k, e: Decimal(k).scaleb(e), st.integers(-99, 99), st.integers(-30, 30))
)


@st.composite
def decimal_games(draw):
    """A game of 1..3 actions a side whose payoffs are floats and Decimals of DECIMAL_ENTRIES."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    table = st.lists(st.lists(DECIMAL_ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return float_game(draw(table), draw(table))


# against J at (1/3, 2/3), I's rows earn 0.2 / 3 + 1.1 * 2 / 3 and 0.1 / 3 + 1.1500000000000001 * 2 / 3,
# alike in float arithmetic; as decimals the second earns 2e-16 / 3 more, so I at (1/2, 1/2) gains half
# of that by moving to it. The second game is the first with the players swapped.
VERIFY_FLOAT_GAME = (
    float_game(((0.2, 1.1), (0.1, 1.1500000000000001)), ((0, 0), (0, 0))),
    MixedProfile((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))),
)
VERIFY_FLOAT_GAME_J = (
    float_game(((0, 0), (0, 0)), ((0.2, 0.1), (1.1, 1.1500000000000001))),
    MixedProfile((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))),
)
# at the pure cell (row 1, column 0) J gains 0.7 - 0.6, exactly 1/10 as decimals, so the grid test at
# resolution 10 (a gain below 1/10) drops it; at their binary values the gain falls short of 1/10 by
# 1/(10 * 2^52) and the cell passed. J's floats alone, against I's payoffs times 10, give the same
# gain, and so do I's floats alone, against J's times 10, for I at (1/5, 4/5) against J's second column.
ORACLE_FLOAT_GAME = (
    float_game(((1.1, 0.1), (1.1, 0.6)), ((0.2, 0.7), (0.6, 0.7))),
    MixedProfile((F(0), F(1)), (F(1), F(0))),
)
ORACLE_FLOAT_GAME_J = (float_game(((11, 1), (11, 6)), ORACLE_FLOAT_GAME[0].u_j), ORACLE_FLOAT_GAME[1])
ORACLE_FLOAT_GAME_I = (
    float_game(ORACLE_FLOAT_GAME[0].u_i, ((2, 7), (6, 7))),
    MixedProfile((F(1, 5), F(4, 5)), (F(0), F(1))),
)


class TestFloatPayoffs:
    """solve_mixed and both checkers read a float payoff as the decimal its ``str`` writes."""

    @settings(max_examples=100, deadline=None)
    @given(case=one_decimal_games(), tolerance=TOLERANCES)
    @example(case=VERIFY_FLOAT_GAME, tolerance=F(0))
    @example(case=VERIFY_FLOAT_GAME_J, tolerance=F(0))
    @example(case=ORACLE_FLOAT_GAME, tolerance=F(0))
    def test_verify_equilibrium_is_exact(self, case, tolerance):
        # the float game's own equilibria, solved on its floats, tie as decimals, where float
        # arithmetic or the binary values can break the tie
        matrix, drawn = case
        profiles = solve_mixed(matrix)
        assert profiles == solve_mixed(exact_copy(matrix))
        assert all(verify_equilibrium(matrix, prof, F(0)) for prof in profiles)
        for prof in [drawn, *profiles]:
            expected = verify_equilibrium(exact_copy(matrix), prof, tolerance)
            assert verify_equilibrium(matrix, prof, tolerance) is expected
            assert reference_verify_equilibrium(matrix, prof, tolerance) is expected

    @settings(max_examples=60, deadline=None)
    @given(case=one_decimal_games())
    @example(case=VERIFY_FLOAT_GAME)
    @example(case=ORACLE_FLOAT_GAME)
    @example(case=ORACLE_FLOAT_GAME_J)
    @example(case=ORACLE_FLOAT_GAME_I)
    def test_brute_force_oracle_is_exact(self, case):
        matrix, prof = case
        resolution = 10 if matrix.rows == 2 else 5
        assert brute_force_oracle(matrix, resolution) == brute_force_oracle(exact_copy(matrix), resolution)
        window = brute_force_oracle(matrix, 4 * resolution, around=prof, radius=2)
        assert window == brute_force_oracle(exact_copy(matrix), 4 * resolution, around=prof, radius=2)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), Decimal("Infinity")])
    def test_non_finite_payoff_refused(self, bad):
        # it has no exact value, so neither checker can read it
        matrix = float_game(((bad, 1), (1, 1)), ((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            verify_equilibrium(matrix, profile([1, 0], [1, 0]))
        with pytest.raises(ValueError):
            brute_force_oracle(matrix, 4)

    def test_the_two_games(self):
        # half of 2e-16 / 3 is I's gain: refused exactly, passed within 1e-16
        for matrix, point in (VERIFY_FLOAT_GAME, VERIFY_FLOAT_GAME_J):
            assert max(reference_gains(matrix, point)) == F(1, 3 * 10**16)
            assert not verify_equilibrium(matrix, point)
            assert verify_equilibrium(matrix, point, F(1, 10**16))
        # a gain of exactly 1/10 is not below 1/10
        for matrix, point in (ORACLE_FLOAT_GAME, ORACLE_FLOAT_GAME_J, ORACLE_FLOAT_GAME_I):
            assert max(reference_gains(matrix, point)) == F(1, 10)
            assert point not in brute_force_oracle(matrix, 10)
            assert verify_equilibrium(matrix, point, 0.1) and not verify_equilibrium(matrix, point, 0.09)

    @pytest.mark.parametrize("name", market.PUBLISHED_TABLES)
    def test_bundled_float_tables_verify_at_zero_tolerance(self, name):
        # load_published_matrix returns floats: their decimals solve to the 3 profiles read from the
        # JSON text as Fractions, and each is an equilibrium of the float table at tolerance 0
        matrix = market.load_published_matrix(name)
        profiles = solve_mixed(matrix)
        assert len(profiles) == 3 and profiles == solve_mixed(exact_copy(matrix))
        assert all(verify_equilibrium(matrix, prof, F(0)) for prof in profiles)
        # 231 = 7 * 33 puts both mixed profiles, (3/7, 4/7) and (14/33, 19/33), on the grid
        assert all(brute_force_oracle(matrix, 231, around=prof, radius=0) == [prof] for prof in profiles)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_decimal_game_and_its_fraction_copy_agree(self, data):
        # floats of every size and Decimals of any exponent, read as the Fractions of their texts
        matrix = data.draw(decimal_games())
        copy = exact_copy(matrix)
        profiles = solve_mixed(matrix)
        assert repr(profiles) == repr(solve_mixed(copy))
        drawn = MixedProfile(data.draw(distributions(matrix.rows)), data.draw(distributions(matrix.cols)))
        for prof in [drawn, *profiles]:
            for tolerance in (0, F(1, 7), 0.25, Decimal("0.1"), 1e-300):
                assert verify_equilibrium(matrix, prof, tolerance) is verify_equilibrium(copy, prof, tolerance)
            window = brute_force_oracle(matrix, 40, around=prof, radius=1)
            assert window == brute_force_oracle(copy, 40, around=prof, radius=1)
        assert all(verify_equilibrium(matrix, prof) for prof in profiles)
        resolution = 6 if max(matrix.rows, matrix.cols) < 3 else 3
        assert brute_force_oracle(matrix, resolution) == brute_force_oracle(copy, resolution)

    def test_int64_table_past_2_to_the_63_reads_without_overflow(self):
        # the table's entries sum past 2^63; telling an int table by its types sums nothing, so
        # numpy has no int64 addition to warn about (a warning fails this run)
        big = np.int64(2**62)
        matrix = PayoffMatrix.from_cells((1, 2), (1, 2), [[(big, 1), (big, 0)], [(0, 0), (1, 1)]])
        pure = profile([1, 0], [1, 0])
        assert brute_force_oracle(matrix, 2) == [pure]
        assert verify_equilibrium(matrix, pure)
        assert solve_mixed(matrix) == solve_mixed(exact_copy(matrix))


# each payoff k in -12..12 as one number kind; the float k / 10 reads as the decimal k/10
PAYOFF_KINDS = {
    "Decimal": lambda k: Decimal(k) / 10,
    "float": lambda k: k / 10,
    "Fraction": lambda k: F(k, 6),
    "int64": np.int64,
    "int": int,
}


@st.composite
def kind_tables(draw, rows: int, cols: int):
    """A rows x cols table of one kind of PAYOFF_KINDS but int, or of a kind drawn per entry."""
    kind = draw(st.sampled_from(["Decimal", "float", "Fraction", "int64", "mixed"]))
    entry = st.sampled_from(list(PAYOFF_KINDS.values())) if kind == "mixed" else st.just(PAYOFF_KINDS[kind])
    cell = st.builds(lambda make, k: make(k), entry, st.integers(-12, 12))
    return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def int_tables(rows: int, cols: int):
    """A rows x cols table of ints, some past 2^64."""
    cell = st.integers(-12, 12) | st.integers(-(2**70), 2**70)
    return st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def kind_games(draw, max_side: int = 3) -> PayoffMatrix:
    """A game of 1..max_side actions a side whose two tables come from kind_tables."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    return float_game(draw(kind_tables(rows, cols)), draw(kind_tables(rows, cols)))


# one or two tables of one shape, each of kind_tables or of ints
TABLE_LISTS = st.integers(1, 3).flatmap(
    lambda k: st.lists(kind_tables(k, 4 - k) | int_tables(k, 4 - k), min_size=1, max_size=2)
)


class TestExactReaders:
    """Both checkers read Decimal, float, Fraction, numpy.int64 and mixed tables as
    integers over each table's lcm, and agree with the Fraction references."""

    @settings(max_examples=150, deadline=None)
    @given(tables=TABLE_LISTS)
    def test_integer_tables_are_the_tables_over_their_lcms(self, tables):
        *scaled, bits = documents.integer_tables("x", *tables)
        assert bits == max(abs(x) for ints, _ in scaled for x in itertools.chain(*ints)).bit_length()
        for table, (ints, lcm) in zip(tables, scaled, strict=True):
            ints_only = all(type(x) is int for x in itertools.chain(*table))
            assert all(type(x) is int for row in ints for x in row)
            assert lcm == math.lcm(*(exact(x).denominator for x in itertools.chain(*table)))
            assert [[F(x, lcm) for x in row] for row in ints] == [list(map(exact, row)) for row in table]
            assert (ints is table) is ints_only  # a table of ints only is used as it is

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_refused_exactly_past_the_bound(self, data):
        # a table is refused exactly when a numerator in lowest terms, or math.lcm of its denominators, has
        # more bits than its bound: at small bounds over small numbers, and at MAX_BITS over numbers near it
        bound = data.draw(st.sampled_from([documents.MAX_BITS, 4, 9, 16, 30]))
        nums = st.integers(-9, 9) | st.integers(-(2 ** (bound + 1)), 2 ** (bound + 1))
        entry = nums | st.builds(F, nums, st.integers(1, 9) | st.integers(1, 2 ** (bound // 2 + 2)))
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        table = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        tables = data.draw(st.lists(table, min_size=1, max_size=2))
        past = any(max(math.lcm(*(F(x).denominator for x in itertools.chain(*u))).bit_length(),
                       *(F(x).numerator.bit_length() for x in itertools.chain(*u))) > bound for u in tables)
        start = time.perf_counter()
        try:
            *scaled, bits = documents.integer_tables("x", *tables, bits=(bound,) * len(tables))
        except DimensionCapExceeded as refused:
            assert past and str(refused) == f"x holds a number past the bound of {bound} bits"
        else:
            assert not past and bits == max(abs(x) for ints, _ in scaled for x in itertools.chain(*ints)).bit_length()
            assert [lcm for _, lcm in scaled] == [math.lcm(*(F(x).denominator for x in itertools.chain(*u))) for u in tables]
        assert time.perf_counter() - start < 0.05

    def test_a_table_given_twice_is_read_once(self):
        # one table for both players, as an instance game has, is read and counted once, each entry
        # weighed 1 + 1077 // 128 = 9 at 1,077 bits: 466,033 of them are within the work limit, twice
        # as many are not
        table = [[2**1076] * 466_033]
        first, second, bits = documents.integer_tables("x", table, table)
        assert first is second and bits == 1077
        with pytest.raises(DimensionCapExceeded, match="^x exceeds the work limit of 4194304$"):
            documents.integer_tables("x", table, [list(table[0])])
        with pytest.raises(DimensionCapExceeded, match="^x exceeds the work limit of 4194304$"):
            documents.integer_tables("x", [[2**1076] * 466_034])
        assert documents.integer_tables("x", [[1] * 466_034])[-1] == 1  # a small int weighs 1

    @pytest.mark.parametrize("refused", [True, False])
    @pytest.mark.parametrize(
        "case", ["verify_equilibrium payoffs", "brute_force_oracle payoffs", "brute_force_oracle 19-bit payoffs",
                 "verify_equilibrium probabilities"],
    )
    def test_large_denominators_refused_before_the_lcm_is_built(self, case, refused):
        # n distinct denominators of 1,001 or 19 bits, in I's payoffs of a 1 x n game beside J's zeros, with a
        # pure profile, or in J's probabilities against a game of zeros: refused at once from the first n whose
        # lcm passes the bound, MAX_BITS for payoffs and 2k(2 MAX_BITS + 1 + ceil(lg k)) = 4310 bits for the
        # weights of a 1 x n game (k = 1), and read below it
        large = [F(1, 2 ** (18 if "19-bit" in case else 1000) + 2 * c + 1) for c in range(200)]
        bound = 4310 if case.endswith("probabilities") else documents.MAX_BITS
        lcms = itertools.accumulate((x.denominator for x in large), math.lcm)
        n = next(k for k, lcm in enumerate(lcms, 1) if lcm.bit_length() > bound) - (not refused)
        pure = MixedProfile((1,), (1,) + (0,) * (n - 1))
        if case.endswith("payoffs"):
            matrix, prof = PayoffMatrix.from_cells((1,), range(n), [[(x, 0) for x in large[:n]]]), pure
        else:  # no distribution, which verify_equilibrium names once it has read it
            matrix, prof = PayoffMatrix.from_entries([[(0, 0)] * n]), MixedProfile((1,), tuple(large[:n]))
        check = (lambda: verify_equilibrium(matrix, prof)) if case.startswith("verify") else (
            lambda: brute_force_oracle(matrix, 1, around=prof, radius=0))
        what = case.split()[0]
        start = time.perf_counter()
        if refused:
            with pytest.raises(DimensionCapExceeded) as caught:
                check()
            assert str(caught.value) == f"{what}'s read holds a number past the bound of {bound} bits"
            assert time.perf_counter() - start < 0.05
        elif case.endswith("probabilities"):
            with pytest.raises(ValueError, match="^probs_j is not a probability distribution$"):
                check()
        else:
            check()

    def test_shapes_past_the_work_limit_refused_before_any_read(self, monkeypatch):
        # a 600x600 game of floats passes both solvers' work limits by its shape alone, so neither reads a
        # payoff: each refuses within 50 ms (best of three) with the reader made to fail; and a table of
        # 2048 x 2049 = 4,196,352 entries passes the read's own limit by its count alone
        row = (0.5,) * 600
        matrix = PayoffMatrix(tuple(range(600)), tuple(range(600)), (row,) * 600, (row,) * 600)
        monkeypatch.setattr(documents, "decimal_ratio", lambda x: pytest.fail(f"{x!r} was read"))
        for call, what in ((lambda: solve_mixed(matrix), "solve_mixed of a 600x600 game"),
                           (lambda: brute_force_oracle(matrix, 50), "a 600x600 grid sweep at resolution 50")):
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(DimensionCapExceeded, match=f"^{what} exceeds the work limit of 4194304$"):
                    call()
                seconds.append(time.perf_counter() - start)
            assert min(seconds) < 0.05
        with pytest.raises(DimensionCapExceeded, match="^x exceeds the work limit of 4194304$"):
            documents.integer_tables("x", [[0.5] * 2049] * 2048)

    @pytest.mark.parametrize("side", [1200, 2000])
    def test_shape_refused_by_its_support_pairs_first(self, side):
        # the support pairs alone, C(2n, n), refuse these shapes before the ~1,200 comb calls of the
        # minors and plans terms, which took 169 and 557 ms; within 50 ms, best of three
        row = (0.5,) * side
        matrix = PayoffMatrix(tuple(range(side)), tuple(range(side)), (row,) * side, (row,) * side)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DimensionCapExceeded, match=f"^solve_mixed of a {side}x{side} game exceeds the work"):
                solve_mixed(matrix)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.05

    def test_refusal_is_monotone_in_the_denominators(self):
        # the lcm of a table's denominators only grows with them, so once the odd 19-bit denominators
        # 2^18 + 2c + 1 pass the bound, every longer row is refused too, 1x13,294 and 1x13,686 alike
        row = [(F(1, 2**18 + 2 * c + 1), 0) for c in range(13_686)]
        lcms = itertools.accumulate((x.denominator for x, _ in row), math.lcm)
        first = next(k for k, lcm in enumerate(lcms, 1) if lcm.bit_length() > documents.MAX_BITS)
        for n in (first - 1, *range(first, first + 40), 13_294, 13_686):
            matrix = PayoffMatrix.from_cells((1,), range(n), [row[:n]])
            pure = MixedProfile((1,), (1,) + (0,) * (n - 1))
            if n < first:
                assert brute_force_oracle(matrix, 1, around=pure, radius=0) == [pure]
            else:
                with pytest.raises(DimensionCapExceeded, match="^brute_force_oracle's read holds a number past"):
                    brute_force_oracle(matrix, 1, around=pure, radius=0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_verify_agrees_with_the_references(self, data):
        matrix = data.draw(kind_games())
        prof = data.draw(
            st.builds(MixedProfile, distributions(matrix.rows), distributions(matrix.cols))
            | st.sampled_from(solve_mixed(exact_copy(matrix)))
        )
        tolerance = data.draw(TOLERANCES | st.sampled_from([Decimal("0.1"), F(1, 20), F(1, 60)]))
        expected = reference_verify_equilibrium(matrix, prof, tolerance)
        assert expected is (max(reference_gains(matrix, prof)) <= tolerance)
        assert verify_equilibrium(matrix, prof, tolerance) is expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_full_sweep_hits_are_the_grid_points_within_one_step(self, data):
        # every grid pair, in row-major order, whose two gains, every number read as the decimal
        # its text writes, are both below 1/r
        matrix = data.draw(kind_games())
        resolution = data.draw(st.integers(1, 8 if max(matrix.rows, matrix.cols) < 3 else 4))
        grid_p, grid_q = (reference_window_grid(resolution, (0,) * k, resolution) for k in (matrix.rows, matrix.cols))
        step = lambda point: tuple(F(k, resolution) for k in point)
        pairs = [MixedProfile(step(p), step(q)) for p in grid_p for q in grid_q]
        expected = [prof for prof in pairs if max(reference_gains(matrix, prof)) < F(1, resolution)]
        assert brute_force_oracle(matrix, resolution) == expected

    def test_numpy_int64_payoffs_and_probabilities_are_read(self):
        # numpy.int64 has no as_integer_ratio, but its str is the decimal both checkers read:
        # a prisoner's dilemma whose one equilibrium is the pure cell (1, 1). The verdict is a
        # bool, not a numpy.bool_ of int64 arithmetic.
        i64 = np.int64
        matrix = float_game(((i64(3), i64(0)), (i64(5), i64(1))), ((i64(3), i64(5)), (i64(0), i64(1))))
        defect = MixedProfile((i64(0), i64(1)), (i64(0), i64(1)))
        assert verify_equilibrium(matrix, defect, i64(0)) is True
        assert not verify_equilibrium(matrix, MixedProfile((i64(1), i64(0)), (i64(1), i64(0))), i64(1))
        assert brute_force_oracle(matrix, 4) == [profile([0, 1], [0, 1])]
        assert brute_force_oracle(matrix, 4, around=defect, radius=1) == [profile([0, 1], [0, 1])]


# an int or a Fraction's numerator of up to MAX_BITS bits, or a small int
BOUND_NUMERATORS = st.integers(-3, 3) | st.integers(-(2**1077) + 1, 2**1077 - 1)


@st.composite
def bound_games(draw) -> PayoffMatrix:
    """A game of 2..4 actions a side whose tables each hold ints, Fractions over divisors of one
    denominator, or finite floats, every one of them within MAX_BITS bits."""
    side = draw(st.integers(2, 4))

    def table():
        kind = draw(st.sampled_from(["int", "Fraction", "float"]))
        den = draw(st.integers(1, 7) | st.integers(1, 2**1077 - 1))
        entry = {"int": BOUND_NUMERATORS, "Fraction": BOUND_NUMERATORS.map(lambda x: F(x, den)),
                 "float": st.floats(allow_nan=False, allow_infinity=False)}[kind]
        return draw(st.lists(st.lists(entry, min_size=side, max_size=side), min_size=side, max_size=side))

    return float_game(table(), table())


class TestBound:
    """Every number is bounded where solver reads it: MAX_BITS bits for a payoff or a table's lcm,
    and Hadamard's bound on the denominators of solve_mixed's profiles for verify_equilibrium's weights."""

    @settings(max_examples=80, deadline=None)
    @given(matrix=bound_games())
    def test_every_profile_verifies_at_the_bound(self, matrix):
        assert all(verify_equilibrium(matrix, prof, 0) for prof in solve_mixed(matrix))

    def test_a_game_at_the_bound_round_trips(self):
        # a 6x6 game of 1,077-bit entries, signed, and the float extremes 1.797e308 and 5e-324 beside each
        # other, whose decimals scale to 2,098 bits
        rng = random.Random(1)
        big = 2**1077
        ints = PayoffMatrix.from_entries([[(rng.randrange(-big + 1, big), rng.randrange(-big + 1, big))
                                           for _ in range(6)] for _ in range(6)])
        top, tiny = 1.7976931348623157e308, 5e-324
        floats = float_game(((top, tiny), (tiny, top)), ((tiny, top), (top, tiny)))
        for matrix in (ints, floats):
            profiles = solve_mixed(matrix)
            assert profiles and all(verify_equilibrium(matrix, prof, 0) for prof in profiles)
        assert solve_mixed(floats) == [profile([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])]

    @pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
    @pytest.mark.parametrize("edge", ["int", "denominator", "lcm"])
    def test_each_function_admits_the_bound_and_refuses_one_bit_past(self, edge, past):
        # an int, a Fraction's denominator, or the lcm of two coprime denominators, 3^400 (634 bits) and a
        # power of two, of MAX_BITS bits, then of one more
        b = documents.MAX_BITS + past
        x, y = {"int": (2 ** (b - 1), 1), "denominator": (F(1, 2 ** (b - 1)), 1),
                "lcm": (F(1, 3**400), F(1, 2 ** (b - 634)))}[edge]
        matrix = PayoffMatrix.from_cells((1, 2), (1, 2), [[(x, 0), (y, 0)], [(0, 1), (0, 1)]])
        pure = profile([1, 0], [1, 0])
        calls = {"solve_mixed of a 2x2 game": lambda: solve_mixed(matrix),
                 "verify_equilibrium's read": lambda: verify_equilibrium(matrix, pure),
                 "brute_force_oracle's read": lambda: brute_force_oracle(matrix, 4)}
        for what, call in calls.items():
            if past:
                with pytest.raises(DimensionCapExceeded) as caught:
                    call()
                assert str(caught.value) == f"{what} holds a number past the bound of 1077 bits"
            else:
                call()

    @pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 3), (5, 3)])
    def test_weights_bounded_by_hadamard(self, m, n, past):
        # at k = min(m, n), a weight whose denominator has 2k(2 MAX_BITS + 1 + ceil(lg k)) bits is read,
        # and one of a bit more refused
        k = min(m, n)
        bound = 2 * k * (2 * documents.MAX_BITS + 1 + (k - 1).bit_length())
        t = F(1, 2 ** (bound - 1 + past))
        matrix = PayoffMatrix.from_entries([[(0, 0)] * n] * m)
        prof = MixedProfile((1,) + (0,) * (m - 1), (1 - t, t) + (0,) * (n - 2))
        if past:
            with pytest.raises(DimensionCapExceeded) as caught:
                verify_equilibrium(matrix, prof)
            assert str(caught.value) == f"verify_equilibrium's read holds a number past the bound of {bound} bits"
        else:
            assert verify_equilibrium(matrix, prof) is True


class TestVerifyEquilibrium:
    def test_published_mixed_profile(self):
        assert verify_equilibrium(game_matrix(2, -2), GOLDEN_2X2_MIXED, F(0))

    def test_uniform_profile_rejected(self):
        # against uniform row play the column player prefers the big parcel:
        # E[col 2] = 3/2 beats E[col 1] = 1/2, so uniform/uniform cannot hold
        uniform = profile([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        assert not verify_equilibrium(game_matrix(2, -2), uniform, F(0))

    def test_pure_equilibrium_as_degenerate_profile(self):
        matrix = game_matrix(3, -3)
        for eq in find_pure_equilibria(matrix):
            degenerate = profile(
                [1 if r == eq.row_index else 0 for r in range(matrix.rows)],
                [1 if c == eq.col_index else 0 for c in range(matrix.cols)],
            )
            assert verify_equilibrium(matrix, degenerate, F(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_equilibrium(game_matrix(2, -2), profile([1], [1]), F(0))

    @pytest.mark.parametrize(
        "probs_i, probs_j", [([1], [F(1, 2), F(1, 2)]), ([0, 1], [1])], ids=["row", "column"]
    )
    def test_dimension_mismatch_on_one_side(self, probs_i, probs_j):
        with pytest.raises(DimensionMismatch):
            verify_equilibrium(game_matrix(2, -2), profile(probs_i, probs_j))

    def test_default_tolerance_is_zero(self):
        # the column player's deviation gain is 1/2, inside (0, 1]: only an
        # exact test refuses it
        uniform = profile([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        assert not verify_equilibrium(game_matrix(2, -2), uniform)

    def test_tolerance_loosens_the_check(self):
        uniform = profile([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        assert verify_equilibrium(game_matrix(2, -2), uniform, F(1, 2))

    @pytest.mark.parametrize(
        "probs_i, probs_j",
        [
            ([0, 0], [0, 0]),  # zero profile
            ([0, 1], [0, 0]),
            ([F(3, 2), F(-1, 2)], [F(1, 2), F(1, 2)]),  # negative entry, sums to 1
            ([0, 1], [F(-1, 2), F(3, 2)]),
            ([1, 1], [F(1, 2), F(1, 2)]),  # over-unit sum
            ([0, 1], [F(2, 3), F(1, 2)]),
            ([F(1, 3), F(1, 3)], [F(1, 2), F(1, 2)]),  # under-unit sum
        ],
    )
    def test_non_distribution_rejected(self, probs_i, probs_j):
        with pytest.raises(ValueError, match="not a probability distribution"):
            verify_equilibrium(game_matrix(2, -2), profile(probs_i, probs_j), F(0))

    def test_float_entries_read_as_their_decimals(self):
        # the binary values of 0.1, 0.2 and 0.7 do not sum to 1; their decimals do, and so
        # does (0.2, 0.3, 0.5): J's largest gain is 11/25, 0.44 as a decimal
        matrix = game_matrix(3, -3)
        floats = MixedProfile((0.1, 0.2, 0.7), (0.2, 0.3, 0.5))
        assert reference_gains(matrix, floats) == (F(1, 25), F(11, 25))
        assert verify_equilibrium(matrix, floats, 0.44) and not verify_equilibrium(matrix, floats, 0.43)
        with pytest.raises(ValueError, match="^probs_i is not a probability distribution$"):
            verify_equilibrium(matrix, MixedProfile((0.1, 0.2, 0.6), (0.2, 0.3, 0.5)))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_entry_rejected(self, bad):
        # refused by the reader, with the message solve_mixed and the oracle give
        with pytest.raises(ValueError, match=f"^{bad!r} writes no finite decimal$"):
            verify_equilibrium(game_matrix(2, -2), MixedProfile((0.5, 0.5), (bad, 0.0)))

    @pytest.mark.parametrize(
        "probs_i, probs_j, payoff, tolerance, message",
        [((F(1, 2), F(1, 3)), (1, 0), 1, math.inf, "^probs_i is not a probability distribution$"),
         ((1, 0), (F(1, 2), "1/2"), 1, "1/4", "^'1/2' is a string, not a number$"),
         ((F(1, 2), F(1, 2)), (F(2, 3), F(2, 3)), math.nan, F(0), "^nan writes no finite decimal$"),
         ((1, 0), (1, 0), math.nan, F(0), "^nan writes no finite decimal$"),
         ((1, 0), (1, 0), math.nan, math.inf, "^nan writes no finite decimal$")],
        ids=["inf-tolerance", "string-tolerance", "nan-payoff", "valid-profile", "inf-passes-unread"],
    )
    def test_a_fault_of_the_profile_is_named_first(self, probs_i, probs_j, payoff, tolerance, message):
        # faults are named in read order: the profile's entries, then the payoffs, then each side
        # as a distribution, then the tolerance; an infinite tolerance gives no verdict over a
        # payoff the reader refuses
        matrix = float_game(((payoff, 1), (1, 1)), ((1, 1), (1, 1)))
        with pytest.raises(ValueError, match=message):
            verify_equilibrium(matrix, MixedProfile(probs_i, probs_j), tolerance)

    def test_string_entry_rejected(self):
        # Fraction("1/2") would parse it, and the row would sum to 1
        with pytest.raises(ValueError, match="^'1/2' is a string, not a number$"):
            verify_equilibrium(game_matrix(2, -2), MixedProfile(("1/2", F(1, 2)), (F(1, 2), F(1, 2))))

    @pytest.mark.parametrize(
        "tolerance, verdicts",
        [
            (F(0), (True, False)),
            (0, (True, False)),
            (0.25, (True, False)),
            (Decimal("0.1"), (True, False)),
            (F(1, 7), (True, False)),
            (F(-1, 3), (False, False)),
            (float("-inf"), (False, False)),
            (float("nan"), (False, False)),
            (float("inf"), (True, True)),
        ],
        ids=["Fraction-0", "int-0", "float", "Decimal", "Fraction", "negative", "-inf", "nan", "inf"],
    )
    def test_every_tolerance_kind(self, tolerance, verdicts):
        # an equilibrium (gains 0) and I on the last row against J on the
        # first column, where I gains 2 by moving to the first row
        matrix = game_matrix(3, -3)
        pair = (solve_mixed(matrix)[0], profile([0, 0, 1], [1, 0, 0]))
        assert tuple(verify_equilibrium(matrix, prof, tolerance) for prof in pair) == verdicts
        assert all(type(verify_equilibrium(matrix, prof, tolerance)) is bool for prof in pair)

    @pytest.mark.parametrize("tolerance", [True, False, np.True_, "1/2"], ids=["True", "False", "numpy-True", "string"])
    def test_bool_or_string_tolerance_refused(self, tolerance):
        # the tolerance is read by the rule the payoffs and probabilities are, which reads no
        # bool; a string's text would read as a number
        with pytest.raises(ValueError):
            verify_equilibrium(game_matrix(3, -3), profile([0, 0, 1], [1, 0, 0]), tolerance)


def assert_contains_grid_point(points, target, tolerance):
    for pt in points:
        close_i = all(abs(a - b) <= tolerance for a, b in zip(pt.probs_i, target.probs_i))
        close_j = all(abs(a - b) <= tolerance for a, b in zip(pt.probs_j, target.probs_j))
        if close_i and close_j:
            return
    raise AssertionError(f"no grid point within {tolerance} of {target}")


class TestBruteForceOracle:
    def test_two_by_two_sweep_finds_published_profile(self):
        points = brute_force_oracle(game_matrix(2, -2), 1000)
        assert_contains_grid_point(points, GOLDEN_2X2_MIXED, F(1, 1000))

    def test_singleton_matrix(self):
        points = brute_force_oracle(game_matrix(1, -1), 17)
        assert points == [profile([1], [1])]

    def test_three_by_three_windowed_at_200(self):
        points = brute_force_oracle(
            game_matrix(3, -3), 200, around=GOLDEN_3X3_MIXED, radius=1
        )
        assert_contains_grid_point(points, GOLDEN_3X3_MIXED, F(1, 200))

    def test_every_swept_point_nearly_verifies(self):
        resolution = 60
        for point in brute_force_oracle(game_matrix(3, -3), resolution):
            assert verify_equilibrium(game_matrix(3, -3), point, F(1, resolution))

    def test_sweep_rejects_far_from_equilibrium_points(self):
        points = brute_force_oracle(game_matrix(2, -2), 40)
        bad = profile([1, 0], [0, 1])  # the (0,0) cell, clearly not stable
        for pt in points:
            assert pt != bad

    def test_clusters_have_exact_counterparts(self):
        # group passing grid points by rounding to coarse cells; each group
        # must sit on or near an exactly-solved equilibrium region
        matrix = game_matrix(2, -2)
        resolution = 50
        exact = solve_mixed(matrix)
        points = brute_force_oracle(matrix, resolution)
        assert points
        for pt in points:
            nearest = min(
                exact,
                key=lambda e: max(
                    *[abs(a - b) for a, b in zip(e.probs_i, pt.probs_i)],
                    *[abs(a - b) for a, b in zip(e.probs_j, pt.probs_j)],
                ),
            )
            # the 2x2 game's equilibrium set is the two pure cells plus the
            # segment q0 in [0, 1/2] at p=(0,1); every oracle point must be
            # within grid slack of that set
            on_segment = (
                pt.probs_i[0] * 25 <= 1  # p0 within two grid steps of 0
                and pt.probs_j[0] <= F(1, 2) + F(1, resolution)
            )
            near_pure = max(
                *[abs(a - b) for a, b in zip(nearest.probs_i, pt.probs_i)],
                *[abs(a - b) for a, b in zip(nearest.probs_j, pt.probs_j)],
            ) <= F(2, resolution)
            assert on_segment or near_pure

    @pytest.mark.parametrize(
        "sides,resolution",
        # 201^3 candidates per side; 4,194,304^2 pairs; a box past any C int
        [(4, 200), (2, 4_194_303), (2, 10**30)],
    )
    def test_work_limit_refuses_before_the_grid_is_walked(self, monkeypatch, sides, resolution):
        def product(*args):
            raise AssertionError("grid walked")

        monkeypatch.setattr(solver.itertools, "product", product)
        with pytest.raises(DimensionCapExceeded) as caught:
            brute_force_oracle(game_matrix(sides, -sides), resolution)
        assert str(caught.value) == (
            f"a {sides}x{sides} grid sweep at resolution {resolution} "
            "exceeds the work limit of 4194304"
        )

    @pytest.mark.parametrize("sides,refused", [(2, 2047), (3, 63), (4, 22), (5, 13)])
    def test_work_limit_counts_boxes_and_pairs(self, monkeypatch, sides, refused):
        # 2 (r+1)^(k-1) candidates walked plus C(r+k-1, k-1)^2 pairs: one step
        # below the refused resolution is admitted and goes on to walk its grid
        def product(*args):
            raise AssertionError("grid walked")

        monkeypatch.setattr(solver.itertools, "product", product)
        matrix = game_matrix(sides, -sides)
        with pytest.raises(DimensionCapExceeded):
            brute_force_oracle(matrix, refused)
        with pytest.raises(AssertionError, match="^grid walked$"):
            brute_force_oracle(matrix, refused - 1)

    @pytest.mark.parametrize("kind,bits,sides", [
        (int, 10_000, 2), (F, 10_000, 2), (int, 100_000, 2), (F, 100_000, 2), (int, 100_000, 5), (int, 1_000_000, 2),
    ])
    def test_payoffs_past_the_bound_refused_by_the_read(self, monkeypatch, kind, bits, sides):
        # a payoff past MAX_BITS bits, an int or a Fraction's numerator, is refused by the read, at the
        # resolution that small payoffs are admitted to, before the grid is walked
        def product(*args):
            raise AssertionError("grid walked")

        monkeypatch.setattr(solver.itertools, "product", product)
        value = (lambda x: F(x, 3**20)) if kind is F else int
        big = 2 ** (bits - 1)
        matrix = PayoffMatrix.from_cells(range(sides), range(sides), [
            [(value(big), value(big + 3 * (r == c))) for c in range(sides)] for r in range(sides)])
        start = time.perf_counter()
        with pytest.raises(DimensionCapExceeded) as caught:
            brute_force_oracle(matrix, {2: 2046, 5: 12}[sides])
        assert time.perf_counter() - start < 0.05
        assert str(caught.value) == "brute_force_oracle's read holds a number past the bound of 1077 bits"

    @pytest.mark.parametrize("kind", [int, F])
    def test_work_limit_at_the_bound_is_that_of_small_payoffs(self, monkeypatch, kind):
        # the sweep's count is not weighed by payoff size: over 1,077-bit ints, and over Fractions whose
        # 1,077-bit numerators sit over a 1,077-bit denominator, the 2x2 sweep goes up to 2046 as on 4-bit ones
        def product(*args):
            raise AssertionError("grid walked")

        monkeypatch.setattr(solver.itertools, "product", product)
        value = (lambda x: F(x, 2**1076 + 1)) if kind is F else int
        big = 2**1076
        matrix = PayoffMatrix.from_cells(range(2), range(2), [
            [(value(big), value(big + 3 * (r == c))) for c in range(2)] for r in range(2)])
        with pytest.raises(DimensionCapExceeded, match="^a 2x2 grid sweep at resolution 2047 "):
            brute_force_oracle(matrix, 2047)
        with pytest.raises(AssertionError, match="^grid walked$"):
            brute_force_oracle(matrix, 2046)

    def test_sweep_over_large_payoffs_refused_at_once(self, monkeypatch):
        # resolution 2046, the largest 2x2 sweep admitted, multiplied these 100,001-bit payoffs for
        # about 100 s before they were bounded; the read refuses them, and the grid is not walked
        def product(*args):
            raise AssertionError("grid walked")

        monkeypatch.setattr(solver.itertools, "product", product)
        big = 2**100_000
        matrix = PayoffMatrix.from_entries([[(big, big + 3), (big, big)], [(big, big), (big, big + 3)]])
        start = time.perf_counter()
        with pytest.raises(DimensionCapExceeded) as caught:
            brute_force_oracle(matrix, 2046)
        assert time.perf_counter() - start < 0.05
        assert str(caught.value) == "brute_force_oracle's read holds a number past the bound of 1077 bits"

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_refused(self, resolution):
        with pytest.raises(ValueError, match="^grid_resolution must be >= 1$"):
            brute_force_oracle(game_matrix(2, -2), resolution)

    @pytest.mark.parametrize(
        "resolution, radius",
        [(True, 1), (2.5, 1), ("4", 1), (np.int64(4), 1), (4, True), (4, 2.5), (4, "1")],
        ids=["bool-resolution", "float-resolution", "string-resolution", "numpy-resolution",
             "bool-radius", "float-radius", "string-radius"],
    )
    def test_non_int_argument_refused(self, resolution, radius):
        # True would sweep at resolution 1 and 2.5 fail inside range, were they not refused
        with pytest.raises(ValueError, match="^grid_resolution and radius must be ints$"):
            brute_force_oracle(game_matrix(2, -2), resolution, around=GOLDEN_2X2_MIXED, radius=radius)

    @pytest.mark.parametrize("around", [GOLDEN_2X2_MIXED, None], ids=["window", "sweep"])
    @pytest.mark.parametrize("radius", [-1, -5])
    def test_negative_radius_refused(self, around, radius):
        # a window of negative radius holds no point, which would read as no
        # equilibrium near the centre
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            brute_force_oracle(game_matrix(2, -2), 10, around=around, radius=radius)

    @pytest.mark.parametrize(
        "around",
        [profile([0, 0, 1], [F(1, 2), F(1, 2)]), profile([0, 1], [F(1, 3), F(1, 3), F(1, 3)])],
        ids=["rows", "columns"],
    )
    def test_misshapen_window_refused(self, around):
        with pytest.raises(DimensionMismatch) as caught:
            brute_force_oracle(game_matrix(2, -2), 10, around=around, radius=1)
        assert str(caught.value) == "around profile does not match matrix dimensions"

    @pytest.mark.parametrize("entries", [[], [[]]])
    def test_empty_matrix_rejected(self, entries):
        # refused where it is built, so neither sweep, full or windowed, meets it
        with pytest.raises(ValueError, match="^matrix must be non-empty$"):
            PayoffMatrix.from_entries(entries)


class TestCrossChecks:
    @settings(max_examples=20, deadline=None)
    @given(b_i=st.integers(1, 4), b_j=st.integers(1, 4))
    def test_exact_solutions_have_nearby_grid_points(self, b_i, b_j):
        matrix = game_matrix(b_i, -b_j)
        for prof in solve_mixed(matrix):
            points = brute_force_oracle(matrix, 200, around=prof, radius=1)
            assert_contains_grid_point(points, prof, F(1, 200))


class TestWindowAgainstSweep:
    """The integer window path equals the numpy full sweep of the reference
    restricted to the window's points: same profiles, same order, same
    Fraction values. Without a window the oracle is the whole sweep."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_full_sweep_is_the_reference_sweep(self, data):
        matrix = data.draw(
            general_games(max_side=4)
            | st.builds(game_matrix, st.integers(1, 4), st.integers(-4, -1))
        )
        resolution = data.draw(st.integers(1, 12))
        found = brute_force_oracle(matrix, resolution)
        assert found == reference_sweep(matrix, resolution)
        assert all(type(x) is Fraction for pt in found for x in pt.probs_i + pt.probs_j)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_is_the_restricted_sweep(self, data):
        matrix = data.draw(
            general_games(max_side=4)
            | st.builds(game_matrix, st.integers(1, 4), st.integers(-4, -1))
        )
        resolution = data.draw(st.integers(1, 12))
        radius = data.draw(st.integers(0, 2))
        centre = data.draw(
            st.sampled_from(solve_mixed(matrix))
            | st.builds(MixedProfile, distributions(matrix.rows), distributions(matrix.cols))
        )
        window_p = set(reference_window_grid(resolution, centre.probs_i, radius))
        window_q = set(reference_window_grid(resolution, centre.probs_j, radius))

        def in_window(pt):
            return (
                tuple(int(x * resolution) for x in pt.probs_i) in window_p
                and tuple(int(x * resolution) for x in pt.probs_j) in window_q
            )

        expected = [pt for pt in reference_sweep(matrix, resolution) if in_window(pt)]
        found = brute_force_oracle(matrix, resolution, around=centre, radius=radius)
        assert found == expected
        assert all(type(x) is Fraction for pt in found for x in pt.probs_i + pt.probs_j)
