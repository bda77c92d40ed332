import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import liqgame
from liqgame.core import (
    MAX_DIGITS,
    CapExceeded,
    GameInstance,
    PayoffMatrix,
    SameSignBalances,
    ZeroBalance,
    build_instance,
    build_payoff_matrix,
    check_document,
    decimal_ratio,
    instance_from_json,
    transferred,
)
from liqgame.documents import parse_bimatrix, parse_tables

SRC = str(Path(liqgame.__file__).resolve().parents[1])


class TestBuildInstance:
    def test_two_by_two_action_sets(self):
        matrix = build_payoff_matrix(build_instance(2, -2, 100))
        assert matrix.actions_i == (2, 1)
        assert matrix.actions_j == (2, 1)

    def test_minimal_game_is_singleton(self):
        matrix = build_payoff_matrix(build_instance(1, -1, 100))
        assert matrix.actions_i == (1,)
        assert matrix.actions_j == (1,)

    def test_same_sign_rejected(self):
        with pytest.raises(SameSignBalances):
            build_instance(3, 3, 100)

    def test_zero_balance_rejected(self):
        with pytest.raises(ZeroBalance):
            build_instance(0, -2, 100)

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            build_instance(101, -2, 100)

    def test_orientation_normalised(self):
        inst = build_instance(-4, 7, 100)
        assert inst.balance_i == 7
        assert inst.balance_j == -4

    def test_zero_not_an_action(self):
        matrix = build_payoff_matrix(build_instance(5, -2, 100))
        assert 0 not in matrix.actions_i
        assert 0 not in matrix.actions_j


class TestBilateralPayoff:
    """Both sides of one play realise ``transferred(offer, capacity)``."""

    @pytest.mark.parametrize(
        "offer,capacity,expected",
        [
            (2, 2, (2, 2)),
            (2, 1, (0, 0)),
            (1, 2, (1, 1)),
            (0, 5, (0, 0)),
        ],
    )
    def test_published_cells(self, offer, capacity, expected):
        q = transferred(offer, capacity)
        assert (q, q) == expected

    @given(offer=st.integers(0, 200), capacity=st.integers(0, 200))
    def test_matches_indicator_form(self, offer, capacity):
        assert transferred(offer, capacity) == (offer if 0 < offer <= capacity else 0)


class TestPayoffMatrix:
    def test_two_by_two_table(self):
        matrix = build_payoff_matrix(build_instance(2, -2, 100))
        assert matrix.to_jsonable() == [[[2, 2], [0, 0]], [[1, 1], [1, 1]]]

    def test_three_by_three_table(self):
        matrix = build_payoff_matrix(build_instance(3, -3, 100))
        assert matrix.to_jsonable() == [
            [[3, 3], [0, 0], [0, 0]],
            [[2, 2], [2, 2], [0, 0]],
            [[1, 1], [1, 1], [1, 1]],
        ]

    def test_single_cell(self):
        matrix = build_payoff_matrix(build_instance(1, -1, 100))
        assert matrix.to_jsonable() == [[[1, 1]]]

    @given(n_i=st.integers(1, 12), n_j=st.integers(1, 12))
    def test_every_cell_matches_payoff_rule(self, n_i, n_j):
        matrix = build_payoff_matrix(build_instance(n_i, -n_j, 100))
        for r, offer in enumerate(matrix.actions_i):
            for c, capacity in enumerate(matrix.actions_j):
                q = transferred(offer, capacity)
                assert (matrix.u_i[r][c], matrix.u_j[r][c]) == (q, q)
                assert q >= 0

    @given(n=st.integers(1, 30))
    def test_descending_diagonal(self, n):
        matrix = build_payoff_matrix(build_instance(n, -n, 1000))
        for k in range(n):
            assert matrix.u_i[k][k] == matrix.u_j[k][k] == n - k
            for c in range(k + 1, n):
                assert matrix.u_i[k][c] == matrix.u_j[k][c] == 0

    def test_json_round_trip(self):
        matrix = build_payoff_matrix(build_instance(3, -2, 100))
        again = PayoffMatrix.from_entries(json.loads(json.dumps(matrix.to_jsonable())))
        assert again.to_jsonable() == matrix.to_jsonable()

    def test_csv_layout(self):
        matrix = build_payoff_matrix(build_instance(2, -2, 100))
        assert matrix.to_csv() == "2|2,0|0\n1|1,1|1\n"

    def test_from_cells_splits_each_cell(self):
        cells = [[(1.5, 2), (3, 4.5)]]
        matrix = PayoffMatrix.from_cells([("L", "H")], (("L", "H"), (None, "l")), cells)
        assert matrix == PayoffMatrix(
            (("L", "H"),), (("L", "H"), (None, "l")), ((1.5, 3),), ((2, 4.5),)
        )

    def test_entries_are_derived_from_the_payoff_rows(self):
        matrix = PayoffMatrix.from_entries([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert matrix.u_i == ((1, 3), (5, 7))
        assert matrix.u_j == ((2, 4), (6, 8))
        assert matrix.to_jsonable() == [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]

    @pytest.mark.parametrize(
        "payoff", [1.7, 0.5, 2.0, "3", True, None], ids=["1.7", "0.5", "2.0", "text", "bool", "none"]
    )
    @pytest.mark.parametrize("side", [0, 1], ids=["u_i", "u_j"])
    def test_from_entries_refuses_payoffs_that_are_not_ints(self, payoff, side):
        cell = [payoff, 1] if side == 0 else [1, payoff]
        with pytest.raises(ValueError, match="^payoffs must be integers, got "):
            PayoffMatrix.from_entries([[(1, 2), (3, 4)], [(5, 6), cell]])

    @pytest.mark.parametrize(
        "u_i, u_j",
        [
            (((1, 1),), ()),  # u_j short of a row
            (((1, 1),), ((1, 1), (1, 1))),  # u_j a row too many
            (((1, 1),), ((1,),)),  # u_j short of a column
            (((1, 1, 1),), ((1, 1),)),  # u_i a column too many
        ],
    )
    def test_row_shapes_checked(self, u_i, u_j):
        with pytest.raises(ValueError, match="^matrix for u_[ij] has wrong dimensions$"):
            PayoffMatrix(actions_i=(1,), actions_j=(2, 1), u_i=u_i, u_j=u_j)


class TestInstanceSerialization:
    def test_round_trip(self):
        inst = build_instance(17, -5, 400)
        doc = json.dumps(inst._asdict())
        assert json.loads(doc) == {"balance_i": 17, "balance_j": -5, "issue_cap": 400}
        again = instance_from_json(doc)
        assert (again.balance_i, again.balance_j, again.issue_cap) == (17, -5, 400)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="^missing instance document key 'balance_j'$"):
            instance_from_json('{"balance_i": 2}')

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="^issue_cap must be positive, got 0$"):
            instance_from_json('{"balance_i": 2, "balance_j": -2, "issue_cap": 0}')

    @pytest.mark.parametrize(
        "doc",
        ['{"balance_i": true, "balance_j": -2}', '{"balance_i": -2, "balance_j": true}'],
    )
    def test_boolean_balance_rejected(self, doc):
        with pytest.raises(ValueError, match="^balance_[ij] must be an integer$"):
            instance_from_json(doc)

    def test_boolean_cap_rejected(self):
        with pytest.raises(ValueError, match="^issue_cap must be an integer$"):
            instance_from_json('{"balance_i": 1, "balance_j": -1, "issue_cap": true}')

    def test_short_balance_first_is_swapped(self):
        instance = instance_from_json('{"balance_i": -2, "balance_j": 3}')
        assert instance == GameInstance(3, -2, 1_000_000)

    @pytest.mark.parametrize(
        "doc,error,message",
        [
            ('{"balance_i": -2, "balance_j": 0}', ZeroBalance, "balance_j must be nonzero"),
            (
                '{"balance_i": -2, "balance_j": -3}',
                SameSignBalances,
                "balances must have opposite signs, got -2 and -3",
            ),
            (
                '{"balance_i": -2, "balance_j": 11, "issue_cap": 10}',
                CapExceeded,
                r"\|balance\| exceeds issue_cap=10: 11, -2",
            ),
        ],
        ids=["zero", "same-sign", "cap"],
    )
    def test_instance_rules_after_the_swap(self, doc, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            instance_from_json(doc)


class TestDocumentRule:
    """``check_document``: a JSON object, then no unknown key, then no missing key."""

    @pytest.mark.parametrize("raw", [[], "x", 3, None, True], ids=["list", "str", "int", "null", "bool"])
    def test_non_object_refused(self, raw):
        with pytest.raises(ValueError) as caught:
            check_document(raw, "thing", ("a",))
        assert str(caught.value) == f"thing must be a JSON object, got {type(raw).__name__}"

    def test_first_unknown_key_in_document_order(self):
        with pytest.raises(ValueError, match="^unknown thing key 'z'$"):
            check_document({"a": 1, "z": 2, "y": 3}, "thing", ("a",), ("b",))

    def test_unknown_key_before_missing_key(self):
        with pytest.raises(ValueError, match="^unknown thing key 'y'$"):
            check_document({"y": 1}, "thing", ("a",))

    def test_first_missing_required_key(self):
        with pytest.raises(ValueError, match="^missing thing key 'b'$"):
            check_document({"a": 1}, "thing", ("a", "b", "c"), ("d",))

    @pytest.mark.parametrize(
        "raw", [{"a": 1}, {"a": 1, "d": 2}, {"d": 2, "a": 1}], ids=["required", "both", "any-order"]
    )
    def test_accepted(self, raw):
        assert check_document(raw, "thing", ("a",), ("d",)) is None

    def test_tables_must_be_an_object(self):
        with pytest.raises(ValueError, match="^matrices must be a JSON object, got list$"):
            parse_tables([[[[1, 1]]]])

    @pytest.mark.parametrize(
        "grid", [[1, 2], [[[1, 1]], 5], [[[1, 1]], "x"], "x", {"r": [[1, 1]]}, None],
        ids=["scalar-rows", "one-scalar-row", "text-row", "text", "object", "null"],
    )
    def test_bimatrix_rows_must_be_lists(self, grid):
        with pytest.raises(ValueError, match="^payoff matrix must be a list of rows$"):
            parse_bimatrix(grid)

    def test_tables_read_as_bimatrices(self):
        assert parse_tables({"a": [[[1, 2]]]}) == {"a": (((1.0, 2.0),),)}


def parse_payoff_csv(text):
    assert text.endswith("\n")
    return [
        [[int(part) for part in cell.split("|")] for cell in line.split(",")]
        for line in text[:-1].split("\n")
    ]


# Numbers at the reader's limit of 4,300 digits, in the mantissa, the denominator or the
# exponent's shift, and one past it, as source text for this process and a child's.
READ_AT_THE_LIMIT = [
    'Decimal("1" * 4300)', 'Decimal("-" + "9" * 4300)', 'Decimal("1." + "0" * 4299)',
    'Decimal("1e4300")', 'Decimal("1e-4300")', 'Decimal("-7E-4300")', 'Decimal("12.5E4301")',
    "10**4300 - 1", "Fraction(1, 10**4300 - 1)",
]
PAST_THE_LIMIT = [
    'Decimal("1" * 4301)', 'Decimal("1." + "0" * 4300)', 'Decimal("1e4301")', 'Decimal("1e-4301")',
    'Decimal("1e-99999999")', 'Decimal("-9.9E+99999999")', "10**4300", "Fraction(1, 10**4300)",
]


class TestDecimalRatio:
    @pytest.mark.parametrize(
        "value,ratio",
        [
            (0.7, (7, 10)),  # the decimal, not the binary float's 3152519739159347/2**52
            (1e-05, (1, 100000)),
            (Fraction(7, 10), (7, 10)),
        ],
    )
    def test_reads_the_text_str_writes(self, value, ratio):
        assert decimal_ratio(value) == ratio

    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(1 - 10**MAX_DIGITS, 10**MAX_DIGITS - 1)
        | st.fractions()
    )
    @example(10**MAX_DIGITS - 1)
    @example(1 - 10**MAX_DIGITS)
    @example(10**MAX_DIGITS)
    @example(-(10**MAX_DIGITS))
    @example(1e27)
    @example(5e-324)
    @example(-0.0)
    @example(-0.02)
    @example(1.7976931348623157e308)
    @example(1e-05)
    @example(Fraction(-7, 10))
    def test_is_the_fraction_of_the_text(self, value):
        # Fraction parses the same text independently, exponent and sign included
        if isinstance(value, int) and abs(value) >= 10**MAX_DIGITS:  # past the bound drawn from
            with pytest.raises(ValueError, match=f"^int exceeds the limit of {MAX_DIGITS} digits$"):
                decimal_ratio(value)
            return
        p, q = decimal_ratio(value)
        assert type(p) is int and type(q) is int and q > 0
        assert Fraction(p, q) == Fraction(str(value))

    @pytest.mark.skipif(not hasattr(sys.int_info, "default_max_str_digits"), reason="Python's limit is new in 3.10.7")
    def test_digit_limit_is_python_s_default(self):
        assert MAX_DIGITS == sys.int_info.default_max_str_digits

    @pytest.mark.parametrize("case", READ_AT_THE_LIMIT)
    def test_read_at_the_digit_limit(self, case):
        value = eval(case)
        assert Fraction(*decimal_ratio(value)) == value

    @pytest.mark.parametrize("case", PAST_THE_LIMIT)
    def test_refused_past_the_digit_limit_before_any_power_is_built(self, case):
        # 10^99999999 would take minutes to build
        value = eval(case)
        message = f"^{type(value).__name__} exceeds the limit of {MAX_DIGITS} digits$"
        with pytest.raises(ValueError, match=message):
            decimal_ratio(value)

    @pytest.mark.parametrize(
        "value, message",
        [("1/2", "'1/2' is a string, not a number"), (True, "True writes no finite decimal"),
         (float("inf"), "inf writes no finite decimal"), (float("nan"), "nan writes no finite decimal"),
         (Decimal("-Infinity"), "Decimal('-Infinity') writes no finite decimal")],
    )
    def test_no_number_text_refused(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decimal_ratio(value)

    def test_limit_holds_without_python_s_own(self):
        # PYTHONINTMAXSTRDIGITS=0 lifts Python's int() and str() limit; the reader's stays
        code = (
            "from decimal import Decimal\n"
            "from fractions import Fraction\n"
            "from liqgame.core import decimal_ratio\n"
            f"for case in {READ_AT_THE_LIMIT + PAST_THE_LIMIT!r}:\n"
            "    try:\n"
            "        print(hash(decimal_ratio(eval(case))))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": "0"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        expected = [str(hash(decimal_ratio(eval(case)))) for case in READ_AT_THE_LIMIT]
        expected += [f"{type(eval(case)).__name__} exceeds the limit of {MAX_DIGITS} digits" for case in PAST_THE_LIMIT]
        assert proc.stdout.splitlines() == expected

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python's limit is new in 3.10.7")
    def test_a_lower_python_limit_is_the_limit_named(self):
        # PYTHONINTMAXSTRDIGITS=1000: int() of a 2,000-digit mantissa and str() of 10^2000 both
        # fail under it, and each is refused as past that limit, not as no decimal or past 4,300
        code = (
            "from decimal import Decimal\n"
            "from liqgame.core import decimal_ratio\n"
            "for value in (Decimal('1' * 2000), 10**2000, Decimal('1' * 1000), 10**1000 - 1):\n"
            "    try:\n"
            "        print(sum(map(len, map(str, decimal_ratio(value)))))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": "1000"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "Decimal exceeds the limit of 1000 digits", "int exceeds the limit of 1000 digits", "1001", "1001",
        ]


class TestRoundTripProperties:
    @given(
        long=st.integers(1, 10**9),
        short=st.integers(1, 10**9),
        headroom=st.integers(0, 10**9),
        long_first=st.booleans(),
    )
    def test_instance_json_round_trip(self, long, short, headroom, long_first):
        cap = max(long, short) + headroom
        args = (long, -short) if long_first else (-short, long)
        inst = build_instance(*args, cap)
        assert instance_from_json(json.dumps(inst._asdict())) == inst

    @given(
        st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_payoff_matrix_json_round_trip(self, entries):
        matrix = PayoffMatrix.from_entries(entries)
        assert PayoffMatrix.from_entries(json.loads(json.dumps(matrix.to_jsonable()))) == matrix

    @given(n_i=st.integers(1, 12), n_j=st.integers(1, 12))
    def test_instance_json_and_csv_round_trip_matrix(self, n_i, n_j):
        matrix = build_payoff_matrix(build_instance(n_i, -n_j, 100))
        assert PayoffMatrix.from_entries(json.loads(json.dumps(matrix.to_jsonable()))) == matrix
        assert parse_payoff_csv(matrix.to_csv()) == matrix.to_jsonable()
