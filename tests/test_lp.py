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
