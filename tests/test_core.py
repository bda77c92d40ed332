import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liqgame.core import (
    CapExceeded,
    PayoffMatrix,
    SameSignBalances,
    ZeroBalance,
    build_instance,
    build_payoff_matrix,
    instance_from_json,
    transferred,
)


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
        assert matrix.entries == (((2, 2), (0, 0)), ((1, 1), (1, 1)))

    def test_three_by_three_table(self):
        matrix = build_payoff_matrix(build_instance(3, -3, 100))
        assert matrix.entries == (
            ((3, 3), (0, 0), (0, 0)),
            ((2, 2), (2, 2), (0, 0)),
            ((1, 1), (1, 1), (1, 1)),
        )

    def test_single_cell(self):
        matrix = build_payoff_matrix(build_instance(1, -1, 100))
        assert matrix.entries == (((1, 1),),)

    @given(n_i=st.integers(1, 12), n_j=st.integers(1, 12))
    def test_every_cell_matches_payoff_rule(self, n_i, n_j):
        matrix = build_payoff_matrix(build_instance(n_i, -n_j, 100))
        for r, offer in enumerate(matrix.actions_i):
            for c, capacity in enumerate(matrix.actions_j):
                q = transferred(offer, capacity)
                assert matrix.entries[r][c] == (q, q)
                assert q >= 0

    @given(n=st.integers(1, 30))
    def test_descending_diagonal(self, n):
        matrix = build_payoff_matrix(build_instance(n, -n, 1000))
        for k in range(n):
            assert matrix.entries[k][k] == (n - k, n - k)
            for c in range(k + 1, n):
                assert matrix.entries[k][c] == (0, 0)

    def test_json_round_trip(self):
        matrix = build_payoff_matrix(build_instance(3, -2, 100))
        again = PayoffMatrix.from_entries(json.loads(json.dumps(matrix.to_jsonable())))
        assert again.entries == matrix.entries

    def test_csv_layout(self):
        matrix = build_payoff_matrix(build_instance(2, -2, 100))
        assert matrix.to_csv() == "2|2,0|0\n1|1,1|1\n"

    def test_entries_are_derived_from_the_payoff_rows(self):
        matrix = PayoffMatrix.from_entries([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert matrix.u_i == ((1, 3), (5, 7))
        assert matrix.u_j == ((2, 4), (6, 8))
        assert matrix.entries == (((1, 2), (3, 4)), ((5, 6), (7, 8)))

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
        with pytest.raises(ValueError, match="does not match"):
            PayoffMatrix(actions_i=(1,), actions_j=(2, 1), u_i=u_i, u_j=u_j)


class TestInstanceSerialization:
    def test_round_trip(self):
        inst = build_instance(17, -5, 400)
        doc = json.dumps(inst._asdict())
        assert json.loads(doc) == {"balance_i": 17, "balance_j": -5, "issue_cap": 400}
        again = instance_from_json(doc)
        assert (again.balance_i, again.balance_j, again.issue_cap) == (17, -5, 400)

    def test_missing_field_rejected(self):
        with pytest.raises(ZeroBalance):
            instance_from_json('{"balance_i": 2}')

    def test_bad_cap_rejected(self):
        with pytest.raises(CapExceeded):
            instance_from_json('{"balance_i": 2, "balance_j": -2, "issue_cap": 0}')

    @pytest.mark.parametrize(
        "doc",
        ['{"balance_i": true, "balance_j": -2}', '{"balance_i": -2, "balance_j": true}'],
    )
    def test_boolean_balance_rejected(self, doc):
        with pytest.raises(ZeroBalance):
            instance_from_json(doc)

    def test_boolean_cap_rejected(self):
        with pytest.raises(CapExceeded):
            instance_from_json('{"balance_i": 1, "balance_j": -1, "issue_cap": true}')


def parse_payoff_csv(text):
    assert text.endswith("\n")
    return tuple(
        tuple(tuple(int(part) for part in cell.split("|")) for cell in line.split(","))
        for line in text[:-1].split("\n")
    )


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
        assert parse_payoff_csv(matrix.to_csv()) == matrix.entries
