import json
import math
import re
from types import SimpleNamespace
from unittest import mock
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liqgame import market
from liqgame.bayes import load_bundled_game
from liqgame.core import PayoffMatrix
from liqgame.documents import fixture_path
from liqgame.market import (
    NotTwoTypes,
    QuadrantReport,
    UnknownTable,
    best_quadrant,
    cells_csv,
    label_text,
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
        assert matrix.actions_i[0] == ("L", "H")
        assert (matrix.u_i[0][0], matrix.u_j[0][0]) == (1.2, 1.2)
        assert (matrix.u_i[3][0], matrix.u_j[3][0]) == (3.5, 3.1)

    def test_intermediate_table_cells(self):
        matrix = load_published_matrix("intermediate_2x4")
        assert matrix.actions_i == ((None, "high"), (None, "low"))
        by_col = dict(zip(matrix.actions_j, zip(matrix.u_i[1], matrix.u_j[1])))
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
        top_left = (matrix.u_i[0][0], matrix.u_j[0][0])
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
                assert (matrix.u_i[r][c], matrix.u_j[r][c]) == tuple(game.matrices["a"][r][c])
        # every cell outside the (a, a) quadrant is weighted away
        for r in range(4):
            for c in range(4):
                if r >= 2 or c >= 2:
                    assert (matrix.u_i[r][c], matrix.u_j[r][c]) == (0.0, 0.0)

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

    @pytest.mark.parametrize("bad", [(Decimal("0.35"), Decimal("0.65")), (Fraction(7, 20), Fraction(13, 20)), (True, False)])
    @pytest.mark.parametrize("side", ["i", "j"])
    def test_priors_other_than_ints_and_floats_refused(self, bad, side):
        # each weight is read by documents.finite_number, as a JSON prior is: a Decimal sum
        # raised TypeError, and a Fraction or a bool was accepted
        prior_i, prior_j = (bad, GEMM_PRIOR) if side == "i" else (GEMM_PRIOR, bad)
        with pytest.raises(ValueError, match=rf"^prior must be a number, got {re.escape(repr(bad[0]))}$"):
            weight_by_priors(("L", "s"), ("x", "y"), two_type_base(), prior_i, prior_j)

    @given(t=st.floats(0, 1))
    def test_linear_along_the_simplex(self, t):
        base = two_type_base()
        base[("L", "s")] = (((3.0, 1.0), (0.0, 0.0)), ((2.0, 5.0), (7.0, 4.0)))

        def tables(prior_i):
            matrix = weight_by_priors(("L", "s"), ("x", "y"), base, prior_i, GEMM_PRIOR)
            return matrix.u_i, matrix.u_j

        mixed, first, second = tables((t, 1 - t)), tables((1, 0)), tables((0, 1))
        for side in range(2):
            for r in range(4):
                for c in range(4):
                    assert mixed[side][r][c] == pytest.approx(
                        t * first[side][r][c] + (1 - t) * second[side][r][c]
                    )


class TestQuadrantReport:
    def test_all_zero_matrix(self):
        labels = (("L", "H"), ("L", "l"), ("s", "H"), ("s", "l"))
        table = tuple(tuple(0.0 for _ in labels) for _ in labels)
        zero = PayoffMatrix(labels, labels, table, table)
        report = quadrant_analysis(zero)
        assert all(total == 0.0 for total in report.quadrants.values())
        assert report.hit_ratio == 0.0
        assert report.system_total == 0.0

    def test_tie_break_is_row_major(self):
        labels = (("L", "H"), ("s", "H"))
        table = tuple(tuple(1.0 for _ in labels) for _ in labels)
        flat = PayoffMatrix(labels, labels, table, table)
        assert best_quadrant(quadrant_analysis(flat)) == ("L", "L")

    @pytest.mark.parametrize(
        "row_types, col_types", [("Lms", "Lms"), ("Lms", "Ls"), ("Ls", "Lms")],
        ids=["both", "rows", "columns"],
    )
    def test_three_types_on_a_side_refused(self, row_types, col_types):
        rows, cols = (tuple((t, "H") for t in types) for types in (row_types, col_types))
        table = tuple(tuple(1.0 for _ in cols) for _ in rows)
        with pytest.raises(NotTwoTypes) as caught:
            quadrant_analysis(PayoffMatrix(rows, cols, table, table))
        assert str(caught.value) == (
            f"expected exactly two types per side, got {list(row_types)} x {list(col_types)}"
        )

    def test_best_quadrant_of_an_empty_report(self):
        with pytest.raises(ValueError, match="^report has no quadrants$"):
            best_quadrant(QuadrantReport({}, 0.0, 0.0))

    def test_large_only_dominant_fixture(self):
        labels = (("L", "H"), ("s", "H"))
        table = ((9.0, 0.0), (0.0, 1.0))
        matrix = PayoffMatrix(labels, labels, table, table)
        assert best_quadrant(quadrant_analysis(matrix)) == ("L", "L")

    def test_system_total_matches_direct_summation(self):
        matrix = load_published_matrix("final_4x4")
        direct = sum(map(sum, matrix.u_i)) + sum(map(sum, matrix.u_j))
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
        rescaled = matrix._replace(
            u_i=tuple(tuple(u * scale for u in row) for row in matrix.u_i),
            u_j=tuple(tuple(v * scale for v in row) for row in matrix.u_j),
        )
        assert quadrant_analysis(rescaled).hit_ratio == 0.75


def load_table(raw) -> PayoffMatrix:
    """``load_published_matrix`` on ``raw``, a document or its text, in place of
    the bundled final_4x4 table."""
    text = raw if isinstance(raw, str) else json.dumps(raw)
    document = SimpleNamespace(read_text=lambda: text)
    with mock.patch.object(market, "fixture_path", lambda name: document):
        return load_published_matrix("final_4x4")


SMALL_TABLE = {
    "rows": ["L+H", "s+H"],
    "cols": ["L+H", "s+H"],
    "matrix": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
}


def small_table(**fields):
    return {**SMALL_TABLE, **fields}


class TestSerialization:
    @pytest.mark.parametrize("table", ["final_4x4", "intermediate_2x4"])
    def test_every_bundled_cell_is_the_float_of_its_json_text(self, table):
        matrix = load_published_matrix(table)
        # each number as the text the table prints, 1.2 and 0 alike
        text = fixture_path(f"market_{table}.json").read_text()
        raw = json.loads(text, parse_float=str, parse_int=str)
        assert matrix.actions_i == tuple(map(parse_label, raw["rows"]))
        assert matrix.actions_j == tuple(map(parse_label, raw["cols"]))
        assert len(raw["matrix"]) == matrix.rows
        for r, row in enumerate(raw["matrix"]):
            assert len(row) == matrix.cols
            for c, (u, v) in enumerate(row):
                assert (matrix.u_i[r][c], matrix.u_j[r][c]) == (float(u), float(v))

    def test_labels_keep_their_document_order(self):
        doc = {
            "rows": ["s+l", "L+H"],
            "cols": ["L+H", "l"],
            "matrix": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
        }
        matrix = load_table(doc)
        assert matrix.actions_i == (("s", "l"), ("L", "H"))
        assert matrix.actions_j == (("L", "H"), (None, "l"))
        assert matrix.u_i == ((1.0, 3.0), (5.0, 7.0))
        assert matrix.u_j == ((2.0, 4.0), (6.0, 8.0))

    @given(data=st.data())
    def test_json_round_trip(self, data):
        # a type holds no "+", which splits it from the strategy
        type_text = st.text('aLs ,"', max_size=3)
        types = data.draw(st.lists(type_text, min_size=2, max_size=2, unique=True))
        strategies = st.lists(st.text('xH+ ,"', max_size=3), min_size=1, max_size=3, unique=True)
        rows = tuple((t, s) for t in types for s in data.draw(strategies))
        cols = tuple((t, s) for t in types for s in data.draw(strategies))
        payoff = st.floats(allow_nan=False, allow_infinity=False)
        row = st.lists(payoff, min_size=len(cols), max_size=len(cols))
        tables = st.lists(row, min_size=len(rows), max_size=len(rows))
        u_i, u_j = (tuple(map(tuple, data.draw(tables))) for _ in range(2))
        doc = {
            "rows": [label_text(label) for label in rows],
            "cols": [label_text(label) for label in cols],
            "matrix": [[[u, v] for u, v in zip(row_i, row_j)] for row_i, row_j in zip(u_i, u_j)],
        }
        assert load_table(doc) == PayoffMatrix(rows, cols, u_i, u_j)

    @pytest.mark.parametrize(
        "raw,message",
        [
            (small_table(matrix=[[[math.nan, 2], [3, 4]], [[5, 6], [7, 8]]]),
             "payoff must be finite, got nan"),
            (small_table(matrix=[[[1, -math.inf], [3, 4]], [[5, 6], [7, 8]]]),
             "payoff must be finite, got -inf"),
            (json.dumps(SMALL_TABLE).replace("[1, 2]", "[1, 1e999]"),
             "payoff must be finite, got inf"),
            (small_table(matrix=[[["one", 2], [3, 4]], [[5, 6], [7, 8]]]),
             "payoff must be a number, got 'one'"),
            (small_table(matrix=[[[True, 2], [3, 4]], [[5, 6], [7, 8]]]),
             "payoff must be a number, got True"),
            (small_table(matrix=[[[1], [3, 4]], [[5, 6], [7, 8]]]),
             "every payoff cell must be a [u, v] pair"),
            (small_table(matrix=[[[1, 2, 9], [3, 4]], [[5, 6], [7, 8]]]),
             "every payoff cell must be a [u, v] pair"),
            (small_table(matrix=[[1, 2], [3, 4]]), "every payoff cell must be a [u, v] pair"),
            (small_table(rows=["L+H", "L+H"]), "labels must be distinct, got ['L+H', 'L+H']"),
            (small_table(cols=["s+H", "s+H"]), "labels must be distinct, got ['s+H', 's+H']"),
            (small_table(rows=["L+H", 2]), "labels must be strings, got ['L+H', 2]"),
            (small_table(cols="L+H"), "cols must be a list of labels, got 'L+H'"),
            (small_table(matrix=[[[1, 2], [3, 4]], [[5, 6]]]),
             "matrix for u_i has wrong dimensions"),
            (small_table(matrix=[[[1, 2], [3, 4]]]), "matrix for u_i has wrong dimensions"),
            (small_table(cols=["L+H", "s+H", "l"]), "matrix for u_i has wrong dimensions"),
            ({"rows": [], "cols": [], "matrix": []}, "matrix must be non-empty"),
            (small_table(note="1.2 as printed"), "unknown published table key 'note'"),
            ({"rows": ["L+H"], "matrix": [[[1, 2]]]}, "missing published table key 'cols'"),
            ([SMALL_TABLE], "published table must be a JSON object, got list"),
        ],
        ids=[
            "nan", "-inf", "1e999", "string-payoff", "bool-payoff", "one-payoff-cell",
            "three-payoff-cell", "bare-number-cell", "repeated-row", "repeated-col",
            "number-label", "cols-not-a-list", "short-row", "missing-row", "extra-col",
            "empty", "unknown-key", "missing-key", "not-an-object",
        ],
    )
    def test_bad_tables_refused(self, raw, message):
        with pytest.raises(ValueError) as caught:
            load_table(raw)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    def test_cells_csv_header(self):
        lines = cells_csv(load_published_matrix("final_4x4")).splitlines()
        assert lines[0] == "row_label,col_label,volume"
        assert lines[1] == "L+H,L+H,2.4"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_volume_refused(self, value):
        with pytest.raises(ValueError, match=f"^volume must be finite, got {value!r}$"):
            round1(value)

    def test_half_up_rounding(self):
        assert round1(1.25) == 1.3
        assert round1(1.225) == 1.2
        assert round1(2.275) == 2.3

    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-10**6, 10**6).map(lambda k: k / 100 + 0.05)
    )
    @example(1e27)
    @example(-1.7976931348623157e308)
    @example(5e-324)
    @example(-0.04)
    def test_rounding_is_half_up_on_the_shortest_decimal(self, value):
        # the rule round1 and the CSV writer share, stated on Decimal directly, in a
        # context wide enough for every finite float; a zero is unsigned (+ 0.0)
        expected = Decimal(repr(value)).quantize(
            Decimal("0.1"), rounding=ROUND_HALF_UP, context=Context(prec=1000)
        )
        assert repr(round1(value)) == repr(float(expected) + 0.0)
