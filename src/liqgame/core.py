"""Game instances and payoff construction for bilateral bond-transfer games.

Two dealers hold opposite-signed bond inventories and simultaneously play
parcel sizes. A play succeeds only when the offered parcel fits within the
counterparty's absolute need; both sides then realise the transferred
quantity as utility. Prices play no part: utility is the quantity moved.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import NamedTuple, Sequence


class LiquidityGameError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroBalance(LiquidityGameError):
    pass


class SameSignBalances(LiquidityGameError):
    pass


class CapExceeded(LiquidityGameError):
    pass


class DimensionCapExceeded(LiquidityGameError):
    pass


class Checked:
    """Base of the records that check their fields.

    Put first among the bases of a NamedTuple subclass, it runs the
    subclass's ``_check`` on every record built, by a class call, ``_make``
    or ``_replace`` (which builds through ``_make``). ``_check`` raises on a
    bad field and returns the record to keep.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._check()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_ISSUE_CAP = 1_000_000
WORK_LIMIT = 2**22


def check_work(count: int, what: str) -> None:
    """Raise DimensionCapExceeded when ``what`` would enumerate or print more
    than WORK_LIMIT items; ``count`` is the caller's own count of them, taken
    before anything is built."""
    if count > WORK_LIMIT:
        raise DimensionCapExceeded(f"{what} exceeds the work limit of {WORK_LIMIT}")


class _GameInstance(NamedTuple):
    balance_i: int
    balance_j: int
    issue_cap: int


class GameInstance(Checked, _GameInstance):
    """A canonical two-player game state: I long, J short, neither beyond the
    bonds on issue. ``build_instance`` takes the balances in either order."""

    __slots__ = ()

    def _check(self) -> "GameInstance":
        check_ints(self, self._fields)
        b_i, b_j, cap = self
        if cap <= 0:
            raise ValueError(f"issue_cap must be positive, got {cap}")
        if b_i == 0 or b_j == 0:
            raise ZeroBalance(f"balance_{'i' if b_i == 0 else 'j'} must be nonzero")
        if (b_i > 0) == (b_j > 0):
            raise SameSignBalances(f"balances must have opposite signs, got {b_i} and {b_j}")
        if abs(b_i) > cap or abs(b_j) > cap:
            raise CapExceeded(f"|balance| exceeds issue_cap={cap}: {b_i}, {b_j}")
        if b_i < 0:
            raise ValueError(f"balance_i must be the long (positive) balance, got {b_i}")
        return self


class _PayoffMatrix(NamedTuple):
    actions_i: tuple
    actions_j: tuple
    u_i: tuple[tuple[float, ...], ...]
    u_j: tuple[tuple[float, ...], ...]


class PayoffMatrix(Checked, _PayoffMatrix):
    """Bimatrix of payoffs, one table per player, every action labelled.

    ``u_i[r][c]`` and ``u_j[r][c]`` are the row and column player's payoffs
    for the row player's action ``actions_i[r]`` against the column player's
    action ``actions_j[c]``. Each player has at least one action, so no
    solver meets an empty side. A game's actions are parcel sizes in
    descending order and its payoffs are integers, as ``build_payoff_matrix``
    and ``from_entries`` require; a market composition table's actions are
    (type, strategy) labels and its payoffs are real volumes. ``solver`` reads
    each table as ints over its lcm, a float as the decimal its ``str`` writes.
    """

    __slots__ = ()

    def _check(self) -> "PayoffMatrix":
        if not (self.actions_i and self.actions_j):
            raise ValueError("matrix must be non-empty")
        check_table(self.u_i, self.actions_i, self.actions_j, "u_i")
        check_table(self.u_j, self.actions_i, self.actions_j, "u_j")
        return self

    @property
    def rows(self) -> int:
        return len(self.actions_i)

    @property
    def cols(self) -> int:
        return len(self.actions_j)

    @classmethod
    def from_cells(cls, actions_i, actions_j, cells) -> "PayoffMatrix":
        """The table of a grid of ``(u_i, u_j)`` cells, rows labelled ``actions_i``
        and columns ``actions_j``."""
        u_i = tuple(tuple(u for u, _ in row) for row in cells)
        u_j = tuple(tuple(v for _, v in row) for row in cells)
        return cls(tuple(actions_i), tuple(actions_j), u_i, u_j)

    @classmethod
    def from_entries(cls, entries) -> "PayoffMatrix":
        """Wrap a nested list of (u_i, u_j) pairs of ints; ValueError for any other payoff.

        Row and column actions are labelled n..1 descending, matching how
        instance-built matrices are laid out.
        """
        grid = [[(a, b) for a, b in row] for row in entries]
        for a, b in itertools.chain.from_iterable(grid):
            if not (is_int(a) and is_int(b)):
                raise ValueError(f"payoffs must be integers, got {[a, b]!r}")
        n_cols = len(grid[0]) if grid else 0
        return cls.from_cells(range(len(grid), 0, -1), range(n_cols, 0, -1), grid)

    def to_jsonable(self) -> list[list[list[int]]]:
        return [[[u, v] for u, v in zip(row_i, row_j)] for row_i, row_j in zip(self.u_i, self.u_j)]

    def to_csv(self) -> str:
        """One line per row, cells rendered ``u_i|u_j``."""
        lines = [
            ",".join(f"{u}|{v}" for u, v in zip(row_i, row_j))
            for row_i, row_j in zip(self.u_i, self.u_j)
        ]
        return "\n".join(lines) + "\n"


def build_instance(
    balance_i: int, balance_j: int, issue_cap: int = DEFAULT_ISSUE_CAP
) -> GameInstance:
    """The instance with I long and J short, whichever order the two
    balances come in; ``GameInstance`` checks the rest."""
    if is_int(balance_i) and is_int(balance_j) and balance_i < 0 < balance_j:
        balance_i, balance_j = balance_j, balance_i
    return GameInstance(balance_i, balance_j, issue_cap)


def transferred(offer: int, capacity: int) -> int:
    """The acceptance rule: a play moves the whole ``offer`` when it fits
    the counterparty's ``capacity``, and nothing otherwise."""
    return offer if offer <= capacity else 0


def build_payoff_matrix(instance: GameInstance) -> PayoffMatrix:
    """Evaluate the payoff rule over the full action-set cross product.

    Both sides realise the transferred quantity, so one table serves as
    ``u_i`` and ``u_j``.
    """
    qi = range(abs(instance.balance_i), 0, -1)
    qj = range(abs(instance.balance_j), 0, -1)
    u = tuple(tuple(map(transferred, itertools.repeat(q), qj)) for q in qi)
    return PayoffMatrix(actions_i=tuple(qi), actions_j=tuple(qj), u_i=u, u_j=u)


def is_int(value) -> bool:
    """True for an int; bool is a subclass of int, but JSON true/false are
    not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


# CPython's default int() limit on a decimal string: the most digits decimal_ratio reads in a mantissa, a
# denominator or an exponent's shift, so PYTHONINTMAXSTRDIGITS=0 admits no more; a lower setting is the limit.
MAX_DIGITS = 4300


def decimal_ratio(x) -> tuple[int, int]:
    """The number that ``str(x)`` writes as exact integers (p, q), q > 0: 0.7 is (7, 10), not the
    nearest binary float, and a Fraction's 7/10 is (7, 10). ValueError for a string, which it would read,
    for a text past the digit limit and for one that writes no finite decimal (a bool, inf, NaN)."""
    if isinstance(x, str):
        raise ValueError(f"{x!r} is a string, not a number")
    limit = min(MAX_DIGITS, getattr(sys, "get_int_max_str_digits", int)() or MAX_DIGITS)  # int() is 0: none
    try:
        number, _, den = str(x).partition("/")
        mantissa, _, exponent = number.lower().partition("e")
        shift = int(exponent or 0) - len(mantissa.partition(".")[2])
        digits = max(len(mantissa.lstrip("+-")) - ("." in mantissa), len(den), abs(shift))
    except ValueError:  # str(x) of an int past Python's own limit
        digits = limit + 1
    if digits > limit:
        raise ValueError(f"{type(x).__name__} exceeds the limit of {limit} digits")
    try:
        return int(mantissa.replace(".", "")) * 10**max(shift, 0), int(den or 1) * 10**max(-shift, 0)
    except ValueError:
        raise ValueError(f"{x!r} writes no finite decimal") from None


def check_ints(record, names: Sequence[str]) -> None:
    """ValueError naming the first of the record's fields ``names`` that is not an int."""
    for name in names:
        if not is_int(getattr(record, name)):
            raise ValueError(f"{name} must be an integer")


def check_table(grid, rows: Sequence, cols: Sequence, what: str) -> None:
    """The shape rule of every payoff table: ValueError unless the table
    for ``what`` has one row per entry of ``rows`` and one cell per entry of
    ``cols`` in every row."""
    if len(grid) != len(rows) or any(len(row) != len(cols) for row in grid):
        raise ValueError(f"matrix for {what} has wrong dimensions")


def check_document(raw, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    """The key rule of every JSON input document: ValueError, naming ``what``, unless ``raw``
    is a JSON object, then for its first key outside ``required`` and ``optional`` (a mistyped
    key must not leave its field at the default), then for the first ``required`` key it lacks."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in required and key not in optional:
            raise ValueError(f"unknown {what} key {key!r}")
    for key in required:
        if key not in raw:
            raise ValueError(f"missing {what} key {key!r}")


def instance_from_json(doc: str) -> GameInstance:
    """Read the instance document: ``balance_i`` and ``balance_j``, in
    either order of sign, and optionally ``issue_cap``."""
    raw = json.loads(doc)
    check_document(raw, "instance document", ("balance_i", "balance_j"), ("issue_cap",))
    return build_instance(**raw)
