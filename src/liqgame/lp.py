"""Largest single transfer between a long and a short player.

The optimisation "maximise x subject to 0 <= x <= A and x <= B" has the
closed-form optimum min(A, B); a general-purpose LP routine would add
nothing, so the analytic solution is returned with its feasibility and
optimality asserted.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Checked, check_ints


class _TransferProblem(NamedTuple):
    capacity_receiver: int
    capacity_sender: int


class TransferProblem(Checked, _TransferProblem):
    """Receiver's absolute need (A) and sender's holding (B)."""

    __slots__ = ()

    def _check(self) -> "TransferProblem":
        check_ints(self, self._fields)
        if self.capacity_receiver < 0:
            raise ValueError("capacity_receiver must be >= 0")
        if self.capacity_sender < 0:
            raise ValueError("capacity_sender must be >= 0")
        return self


def max_transfer(problem: TransferProblem) -> int:
    """The largest parcel the sender can pass without either bound breaking."""
    a, b = problem.capacity_receiver, problem.capacity_sender
    best = min(a, b)
    assert 0 <= best <= a and best <= b, "optimum must be feasible"
    assert best == a or best == b, "a larger transfer would break a bound"
    return best
