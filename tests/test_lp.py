import pytest
from hypothesis import given
from hypothesis import strategies as st

from liqgame.lp import TransferProblem, max_transfer


def test_published_constants():
    assert max_transfer(TransferProblem(capacity_receiver=10, capacity_sender=20)) == 10


def test_receiver_needs_nothing():
    assert max_transfer(TransferProblem(0, 7)) == 0


def test_symmetric_bound():
    assert max_transfer(TransferProblem(13, 13)) == 13


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        TransferProblem(-1, 5)
    with pytest.raises(ValueError):
        TransferProblem(5, -1)


@pytest.mark.parametrize(
    "value", [True, False, 1.5, 2.0, float("nan"), float("inf"), "5", None],
    ids=["true", "false", "1.5", "2.0", "nan", "inf", "text", "none"],
)
@pytest.mark.parametrize("field", ["capacity_receiver", "capacity_sender"])
def test_capacities_must_be_integers(field, value):
    # True used to pass as 1, 1.5 came back as the optimum, nan tripped
    # max_transfer's assertion and "5" raised TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        TransferProblem(**{"capacity_receiver": 3, "capacity_sender": 3, field: value})


@given(a=st.integers(0, 10**9), b=st.integers(0, 10**9))
def test_symmetry_and_feasibility(a, b):
    result = max_transfer(TransferProblem(a, b))
    assert result == max_transfer(TransferProblem(b, a))
    assert 0 <= result <= a and result <= b
    assert result == a or result == b


@given(b_i=st.integers(1, 1000), b_j=st.integers(1, 1000))
def test_transfer_clears_at_least_one_player(b_i, b_j):
    quantity = max_transfer(TransferProblem(b_j, b_i))
    held, owed = b_i - quantity, b_j - quantity
    assert held >= 0 and owed >= 0
    assert held == 0 or owed == 0
