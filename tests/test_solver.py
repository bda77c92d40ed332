import itertools
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

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
)
from liqgame import cli, market, solver
from liqgame.commands.solve import build_solve_report
from liqgame.equilibria import (
    MixedProfile,
    find_pure_equilibria,
    instance_mixed_jsonable,
    instance_mixed_profiles,
    report_work,
)
from liqgame.solver import DimensionMismatch, brute_force_oracle, solve_mixed, verify_equilibrium

from reference_solver import (
    reference_determinant,
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

    @pytest.mark.parametrize(
        "m,n", [(13, 13), (1, 2046), (2046, 1), (2, 965), (965, 2), (3, 170), (170, 3)]
    )
    def test_work_limit_refuses_before_the_plan_is_built(self, monkeypatch, m, n):
        # C(m + n, m) - 1 support pairs, m*n*(m + n) difference entries and
        # four per plan entry: 13x13 for its pairs, each thin shape one past
        # the largest admitted for its tables and plans
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        with pytest.raises(DimensionCapExceeded) as caught:
            solve_mixed(game_matrix(m, -n))
        assert str(caught.value) == f"solve_mixed of a {m}x{n} game exceeds the work limit of 4194304"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: market.load_published_matrix("final_4x4"),
            lambda: PayoffMatrix.from_cells(
                (1, 2), (1, 2), [[(3.0, 3.0), (0.0, 5.0)], [(5.0, 0.0), (1.0, 1.0)]]
            ),
            lambda: PayoffMatrix.from_cells((1, 2), (1,), [[(True, 0)], [(0, 0)]]),
            lambda: PayoffMatrix.from_cells((1,), (1, 2), [[(0, 0), (0, F(1, 2))]]),
        ],
        ids=["published-volumes", "float-dilemma", "bool-payoff", "fraction-payoff"],
    )
    def test_non_integer_payoffs_refused_before_the_plan_is_built(self, monkeypatch, build):
        def plan(*args):
            raise AssertionError("_laplace_plan called")

        monkeypatch.setattr(solver, "_laplace_plan", plan)
        with pytest.raises(ValueError, match="^solve_mixed needs integer payoffs$"):
            solve_mixed(build())

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


def profile_count(m: int, n: int) -> int:
    """2^(k-1)*(c+1) - 1 with k = min(m, n) and c = max(n - m + 1, 1)."""
    return 2 ** (min(m, n) - 1) * (max(n - m + 1, 1) + 1) - 1


class TestInstanceMixedProfiles:
    """The closed form lists exactly what support enumeration lists."""

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_support_enumeration(self, m, n):
        instance = build_instance(m, -n, 10_000)
        expected = solve_mixed(build_payoff_matrix(instance))
        found = instance_mixed_profiles(instance)
        assert found == expected
        assert len(expected) == profile_count(m, n)
        # an int 0 compares equal to Fraction(0), so equality alone lets one through
        assert all(type(x) is Fraction for prof in found for x in prof.probs_i + prof.probs_j)

    @settings(max_examples=50, deadline=None)
    @given(thin=st.integers(1, 3), wide=st.integers(1, 200), transpose=st.booleans())
    def test_thin_shapes_beyond_the_cap(self, thin, wide, transpose):
        m, n = (wide, thin) if transpose else (thin, wide)
        instance = build_instance(m, -n, 10_000)
        matrix = build_payoff_matrix(instance)
        profiles = instance_mixed_profiles(instance)
        assert len(profiles) == profile_count(m, n)
        for prof in profiles:
            assert verify_equilibrium(matrix, prof, F(0))
        assert instance_mixed_jsonable(instance) == [prof.to_jsonable() for prof in profiles]

    @settings(max_examples=15, deadline=None)
    @given(thin=st.integers(1, 3), wide=st.integers(13, 40), transpose=st.booleans())
    @example(thin=2, wide=27, transpose=False)
    def test_thin_shapes_equal_support_enumeration(self, thin, wide, transpose):
        # past twelve per side, where the work limit still admits support enumeration
        m, n = (wide, thin) if transpose else (thin, wide)
        instance = build_instance(m, -n, 10_000)
        expected = solve_mixed(build_payoff_matrix(instance))
        found = instance_mixed_profiles(instance)
        assert found == expected
        assert len(found) == profile_count(m, n)
        assert all(type(x) is Fraction for prof in found for x in prof.probs_i + prof.probs_j)

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
        # with no Fraction: it must read as str() of the profile's Fraction
        for n in range(1, 13):
            instance = build_instance(m, -n, 10_000)
            expected = [prof.to_jsonable() for prof in instance_mixed_profiles(instance)]
            assert instance_mixed_jsonable(instance) == expected

    def test_cleared_player_has_no_game(self):
        # no instance with a cleared player is built, so none reaches the closed form
        with pytest.raises(ZeroBalance, match="^balance_i must be nonzero$"):
            GameInstance(0, -2, 10)


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

    def test_float_entries_taken_at_their_binary_value(self):
        # 0.5 is exact in binary; the binary values of 0.1 and 0.9 do not
        # sum to exactly 1, although 0.1 + 0.9 == 1.0 in float arithmetic
        matrix = game_matrix(2, -2)
        exact = MixedProfile((0.0, 1.0), (0.5, 0.5))
        assert verify_equilibrium(matrix, exact, F(0))
        with pytest.raises(ValueError):
            verify_equilibrium(matrix, MixedProfile((0.1, 0.9), (0.5, 0.5)), F(0))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="not a probability distribution"):
            verify_equilibrium(game_matrix(2, -2), MixedProfile((0.5, 0.5), (bad, 0.0)))

    def test_string_entry_rejected(self):
        # Fraction("1/2") would parse it, and the row would sum to 1
        with pytest.raises(ValueError, match="^probs_i is not a probability distribution$"):
            verify_equilibrium(game_matrix(2, -2), MixedProfile(("1/2", F(1, 2)), (F(1, 2), F(1, 2))))

    @pytest.mark.parametrize(
        "tolerance, verdicts",
        [
            (F(0), (True, False)),
            (0, (True, False)),
            (True, (True, False)),
            (0.25, (True, False)),
            (Decimal("0.1"), (True, False)),
            (F(1, 7), (True, False)),
            (F(-1, 3), (False, False)),
            (float("-inf"), (False, False)),
            (float("nan"), (False, False)),
            (float("inf"), (True, True)),
        ],
        ids=["Fraction-0", "int-0", "True", "float", "Decimal", "Fraction", "negative", "-inf", "nan", "inf"],
    )
    def test_every_tolerance_kind(self, tolerance, verdicts):
        # an equilibrium (gains 0) and I on the last row against J on the
        # first column, where I gains 2 by moving to the first row
        matrix = game_matrix(3, -3)
        pair = (solve_mixed(matrix)[0], profile([0, 0, 1], [1, 0, 0]))
        assert tuple(verify_equilibrium(matrix, prof, tolerance) for prof in pair) == verdicts
        assert all(type(verify_equilibrium(matrix, prof, tolerance)) is bool for prof in pair)


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

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_refused(self, resolution):
        with pytest.raises(ValueError, match="^grid_resolution must be >= 1$"):
            brute_force_oracle(game_matrix(2, -2), resolution)

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
