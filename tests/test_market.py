import math
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liqgame.bayes import load_bundled_game
from liqgame.fixtures import PUBLISHED_TABLES, fixture_path
from liqgame.market import (
    CompositionMatrix,
    NotTwoTypes,
    UnknownTable,
    best_quadrant,
    composition_from_csv,
    load_published_matrix,
    pairwise_base_from_conditional,
    parse_label,
    quadrant_analysis,
    round1,
    weight_by_priors,
)

GEMM_PRIOR = (0.35, 0.65)


def two_type_base(payoff=10.0):
    grid = (((payoff, payoff), (0.0, 0.0)), ((0.0, 0.0), (payoff, payoff)))
    return {pair: grid for pair in (("L", "L"), ("L", "s"), ("s", "L"), ("s", "s"))}


class TestPublishedTables:
    def test_final_table_cells(self):
        matrix = load_published_matrix("final_4x4")
        assert matrix.row_labels[0] == ("L", "H")
        assert matrix.entries[0][0] == (1.2, 1.2)
        assert matrix.entries[3][0] == (3.5, 3.1)

    def test_intermediate_table_cells(self):
        matrix = load_published_matrix("intermediate_2x4")
        assert matrix.row_labels == ((None, "high"), (None, "low"))
        by_col = dict(zip(matrix.col_labels, matrix.entries[1]))
        assert by_col[("s", "high")] == (5.0, 4.4)

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            load_published_matrix("final_5x5")

    def test_quadrant_aggregates(self):
        report = quadrant_analysis(load_published_matrix("final_4x4"))
        rounded = {key: round1(total) for key, total in report.quadrants.items()}
        assert rounded == {
            ("L", "L"): 9.7,
            ("L", "s"): 4.5,
            ("s", "L"): 18.6,
            ("s", "s"): 8.3,
        }
        assert round1(report.system_total) == 41.1
        assert report.hit_ratio == 0.75

    def test_best_quadrant_small_vs_large(self):
        report = quadrant_analysis(load_published_matrix("final_4x4"))
        assert best_quadrant(report) == ("s", "L")
        assert round1(report.quadrants[("s", "L")]) == 18.6

    def test_intermediate_rows_carry_no_types(self):
        with pytest.raises(NotTwoTypes):
            quadrant_analysis(load_published_matrix("intermediate_2x4"))


class TestWeighting:
    def test_large_large_high_cell(self):
        game = load_bundled_game()
        base = pairwise_base_from_conditional(game)
        matrix = weight_by_priors(game.types, game.strategies_i, base, GEMM_PRIOR, GEMM_PRIOR)
        top_left = matrix.entries[0][0]
        assert top_left == (0.35 * 0.35 * 10, 0.35 * 0.35 * 10)
        assert round1(top_left[0]) == 1.2

    def test_small_row_large_column_cell(self):
        assert round1(0.65 * 0.35 * 10) == 2.3

    def test_degenerate_priors_reproduce_raw_table(self):
        game = load_bundled_game()
        base = pairwise_base_from_conditional(game)
        matrix = weight_by_priors(game.types, game.strategies_i, base, (1, 0), (1, 0))
        for r in range(2):
            for c in range(2):
                assert matrix.entries[r][c] == tuple(game.matrices["a"][r][c])
        # every cell outside the (a, a) quadrant is weighted away
        for r in range(4):
            for c in range(4):
                if r >= 2 or c >= 2:
                    assert matrix.entries[r][c] == (0.0, 0.0)

    def test_missing_pair_rejected(self):
        base = two_type_base()
        del base[("s", "L")]
        with pytest.raises(ValueError, match=r"^missing matrix for type pair \('s', 'L'\)$"):
            weight_by_priors(("L", "s"), ("x", "y"), base, GEMM_PRIOR, GEMM_PRIOR)

    @pytest.mark.parametrize("bad", [(math.nan, math.nan), (math.inf, 0.0), (0.5, math.nan)])
    @pytest.mark.parametrize("side", ["i", "j"])
    def test_non_finite_priors_rejected(self, bad, side):
        prior_i, prior_j = (bad, GEMM_PRIOR) if side == "i" else (GEMM_PRIOR, bad)
        with pytest.raises(ValueError, match="finite"):
            weight_by_priors(("L", "s"), ("x", "y"), two_type_base(), prior_i, prior_j)

    @given(t=st.floats(0, 1))
    def test_linear_along_the_simplex(self, t):
        base = two_type_base()
        base[("L", "s")] = (((3.0, 1.0), (0.0, 0.0)), ((2.0, 5.0), (7.0, 4.0)))

        def table(prior_i):
            return weight_by_priors(("L", "s"), ("x", "y"), base, prior_i, GEMM_PRIOR).entries

        mixed, first, second = table((t, 1 - t)), table((1, 0)), table((0, 1))
        for r in range(4):
            for c in range(4):
                for side in range(2):
                    assert mixed[r][c][side] == pytest.approx(
                        t * first[r][c][side] + (1 - t) * second[r][c][side]
                    )


class TestQuadrantReport:
    def test_all_zero_matrix(self):
        labels = (("L", "H"), ("L", "l"), ("s", "H"), ("s", "l"))
        zero = CompositionMatrix(
            labels, labels, tuple(tuple((0.0, 0.0) for _ in labels) for _ in labels)
        )
        report = quadrant_analysis(zero)
        assert all(total == 0.0 for total in report.quadrants.values())
        assert report.hit_ratio == 0.0
        assert report.system_total == 0.0

    def test_tie_break_is_row_major(self):
        labels = (("L", "H"), ("s", "H"))
        flat = CompositionMatrix(
            labels, labels, tuple(tuple((1.0, 1.0) for _ in labels) for _ in labels)
        )
        assert best_quadrant(quadrant_analysis(flat)) == ("L", "L")

    def test_large_only_dominant_fixture(self):
        labels = (("L", "H"), ("s", "H"))
        entries = (((9.0, 9.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)))
        assert best_quadrant(quadrant_analysis(CompositionMatrix(labels, labels, entries))) == ("L", "L")

    def test_system_total_matches_direct_summation(self):
        matrix = load_published_matrix("final_4x4")
        direct = sum(u + v for row in matrix.entries for (u, v) in row)
        report = quadrant_analysis(matrix)
        assert report.system_total == pytest.approx(direct, abs=1e-12)
        assert report.system_total == pytest.approx(
            sum(report.quadrants.values()), abs=1e-12
        )

    def test_system_total_adds_the_quadrants_left_to_right(self):
        # The default constructive table's quadrants add to 20.549999999999997
        # left to right, and to 20.55 under the compensated sum() of Python
        # 3.12+; the report rounds these to 20.5 and 20.6.
        game = load_bundled_game()
        base = pairwise_base_from_conditional(game)
        report = quadrant_analysis(
            weight_by_priors(game.types, game.strategies_i, base, game.prior, game.prior)
        )
        total = 0
        for quadrant_total in report.quadrants.values():
            total += quadrant_total
        assert report.system_total == total
        assert report.to_jsonable()["system_total"] == round1(total)

    @given(scale=st.floats(0.01, 100))
    def test_hit_ratio_invariant_under_rescaling(self, scale):
        matrix = load_published_matrix("final_4x4")
        rescaled = CompositionMatrix(
            matrix.row_labels,
            matrix.col_labels,
            tuple(
                tuple((u * scale, v * scale) for (u, v) in row)
                for row in matrix.entries
            ),
        )
        assert quadrant_analysis(rescaled).hit_ratio == 0.75


class TestSerialization:
    @pytest.mark.parametrize("table", ["final_4x4", "intermediate_2x4"])
    def test_every_bundled_cell_is_the_float_of_its_csv_text(self, table):
        matrix = load_published_matrix(table)
        header, *lines = fixture_path(PUBLISHED_TABLES[table]).read_text().splitlines()
        assert header == "row_label,col_label,u_i,u_j"
        assert len(lines) == len(matrix.row_labels) * len(matrix.col_labels)
        for line in lines:
            row_text, col_text, u, v = line.split(",")
            r = matrix.row_labels.index(parse_label(row_text))
            c = matrix.col_labels.index(parse_label(col_text))
            assert matrix.entries[r][c] == (float(u), float(v))

    def test_labels_keep_their_csv_order(self):
        doc = "row_label,col_label,u_i,u_j\ns+l,L+H,1,2\ns+l,l,3,4\nL+H,L+H,5,6\nL+H,l,7,8\n"
        matrix = composition_from_csv(doc)
        assert matrix.row_labels == (("s", "l"), ("L", "H"))
        assert matrix.col_labels == (("L", "H"), (None, "l"))
        assert matrix.entries == (((1.0, 2.0), (3.0, 4.0)), ((5.0, 6.0), (7.0, 8.0)))

    def test_cells_csv_header(self):
        lines = load_published_matrix("final_4x4").cells_csv().splitlines()
        assert lines[0] == "row_label,col_label,volume"
        assert lines[1] == "L+H,L+H,2.4"

    def test_half_up_rounding(self):
        assert round1(1.25) == 1.3
        assert round1(1.225) == 1.2
        assert round1(2.275) == 2.3

    @given(st.floats(-1e25, 1e25) | st.integers(-10**6, 10**6).map(lambda k: k / 100 + 0.05))
    def test_rounding_is_half_up_on_the_shortest_decimal(self, value):
        # the rule round1 and the CSV writer share, stated on Decimal directly
        expected = Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        assert repr(round1(value)) == repr(float(expected))
