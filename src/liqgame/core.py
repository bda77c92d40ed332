"""Game instances and payoff construction for bilateral bond-transfer games.

Two dealers hold opposite-signed bond inventories and simultaneously play
parcel sizes. A play succeeds only when the offered parcel fits within the
counterparty's absolute need; both sides then realise the transferred
quantity as utility. Prices play no part: utility is the quantity moved.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Mapping, NamedTuple, Sequence


class LiquidityGameError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroBalance(LiquidityGameError):
    pass


class SameSignBalances(LiquidityGameError):
    pass


class CapExceeded(LiquidityGameError):
    pass


class GameInstance(NamedTuple):
    """A canonical two-player game state.

    ``build_instance`` is the validated entry point; the record itself runs
    no checks.
    """

    balance_i: int
    balance_j: int
    issue_cap: int


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


class _PayoffMatrix(NamedTuple):
    actions_i: tuple[int, ...]
    actions_j: tuple[int, ...]
    u_i: tuple[tuple[int, ...], ...]
    u_j: tuple[tuple[int, ...], ...]


class PayoffMatrix(Checked, _PayoffMatrix):
    """Bimatrix of integer payoffs, rows and columns in descending parcel size.

    ``u_i[r][c]`` and ``u_j[r][c]`` are the row and column player's payoffs
    for the row player's parcel ``actions_i[r]`` against the column player's
    parcel ``actions_j[c]``. Each player has at least one action, so no
    solver meets an empty side.
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
        return cls(
            actions_i=tuple(range(len(grid), 0, -1)),
            actions_j=tuple(range(n_cols, 0, -1)),
            u_i=tuple(tuple(a for a, _ in row) for row in grid),
            u_j=tuple(tuple(b for _, b in row) for row in grid),
        )

    def to_jsonable(self) -> list[list[list[int]]]:
        return [[[u, v] for u, v in zip(row_i, row_j)] for row_i, row_j in zip(self.u_i, self.u_j)]

    def to_csv(self) -> str:
        """One line per row, cells rendered ``u_i|u_j``."""
        lines = [
            ",".join(f"{u}|{v}" for u, v in zip(row_i, row_j))
            for row_i, row_j in zip(self.u_i, self.u_j)
        ]
        return "\n".join(lines) + "\n"


def build_instance(balance_i: int, balance_j: int, issue_cap: int = 1_000_000) -> GameInstance:
    """Validate balances and return the canonical instance (I long, J short).

    Callers may pass the long and short balances in either order; roles are
    assigned from the signs.

    Raises ZeroBalance, SameSignBalances or CapExceeded on rule violations.
    """
    if issue_cap <= 0:
        raise ValueError(f"issue_cap must be positive, got {issue_cap}")
    if balance_i == 0 or balance_j == 0:
        field = "balance_i" if balance_i == 0 else "balance_j"
        raise ZeroBalance(f"{field} must be nonzero")
    if (balance_i > 0) == (balance_j > 0):
        raise SameSignBalances(
            f"balances must have opposite signs, got {balance_i} and {balance_j}"
        )
    if balance_i < 0:
        balance_i, balance_j = balance_j, balance_i
    if abs(balance_i) > issue_cap or abs(balance_j) > issue_cap:
        raise CapExceeded(
            f"|balance| exceeds issue_cap={issue_cap}: {balance_i}, {balance_j}"
        )
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


Bimatrix = tuple[tuple[tuple[float, float], ...], ...]


def _finite_number(value, what: str) -> float:
    """A finite JSON number as a float; ValueError naming ``what`` for
    anything else."""
    if not (isinstance(value, float) or is_int(value)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def parse_prior(values) -> tuple[float, ...]:
    """Read a JSON list of type weights; ValueError unless every weight is
    a finite number."""
    if not isinstance(values, list):
        raise ValueError(f"prior must be a list of numbers, got {values!r}")
    return tuple(_finite_number(p, "prior") for p in values)


EQUALITY_TOLERANCE = 1e-12


def check_prior(prior: Sequence[float], types: Sequence[str]) -> None:
    """The common prior's rule: one finite, non-negative weight per type,
    summing to 1 within ``EQUALITY_TOLERANCE``; ValueError otherwise."""
    if len(prior) != len(types):
        raise ValueError("prior length must match number of types")
    if not all(math.isfinite(p) for p in prior):
        raise ValueError("prior entries must be finite")
    if any(p < 0 for p in prior):
        raise ValueError("prior entries must be non-negative")
    if abs(sum(prior) - 1.0) > EQUALITY_TOLERANCE:
        raise ValueError(f"prior must sum to 1, got {sum(prior)}")


def parse_labels(values, what: str) -> tuple:
    """Read a JSON list of labels; ValueError for any other JSON value."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of labels, got {values!r}")
    return tuple(values)


def check_labels(*label_sets: Sequence[str]) -> None:
    """ValueError when a label is not a string, or repeats within its set."""
    for labels in label_sets:
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"labels must be strings, got {list(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {list(labels)}")


def check_table(grid, rows: Sequence, cols: Sequence, what: str) -> None:
    """The shape rule of every payoff table: ValueError unless the table
    for ``what`` has one row per entry of ``rows`` and one cell per entry of
    ``cols`` in every row."""
    if len(grid) != len(rows) or any(len(row) != len(cols) for row in grid):
        raise ValueError(f"matrix for {what} has wrong dimensions")


def check_tables(
    tables: Mapping, keys: Sequence, rows: Sequence, cols: Sequence, what: str
) -> None:
    """The table-set rule: ValueError, naming ``what`` and the key's repr,
    for a key of ``keys`` with no table in ``tables``, then for a table of
    the wrong shape (``check_table``), key by key, and last for a table under
    a key outside ``keys``: no rule would check that table, and no result
    would use it."""
    for key in keys:
        if key not in tables:
            raise ValueError(f"missing matrix for {what} {key!r}")
        check_table(tables[key], rows, cols, f"{what} {key!r}")
    for key in tables:
        if key not in keys:
            raise ValueError(f"matrix for unlisted {what} {key!r}")


def parse_bimatrix(grid) -> Bimatrix:
    """Read a JSON bimatrix, a list of rows of ``[u, v]`` cells, as rows of
    float pairs; ValueError unless every payoff is a finite number."""
    if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
        raise ValueError("payoff matrix must be a list of rows")
    if not all(isinstance(cell, list) and len(cell) == 2 for row in grid for cell in row):
        raise ValueError("every payoff cell must be a [u, v] pair")
    return tuple(
        tuple((_finite_number(u, "payoff"), _finite_number(v, "payoff")) for u, v in row)
        for row in grid
    )


def json_object(doc: str, what: str) -> dict:
    """Parse ``doc``; ValueError unless it holds a JSON object."""
    raw = json.loads(doc)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def instance_from_json(doc: str) -> GameInstance:
    """Parse and validate the ``{"balance_i", "balance_j", "issue_cap"}`` document."""
    raw = json_object(doc, "instance document")
    for field in ("balance_i", "balance_j"):
        if field not in raw:
            raise ZeroBalance(f"missing field {field}")
        if not is_int(raw[field]):
            raise ZeroBalance(f"field {field} must be an integer")
    cap = raw.get("issue_cap", 1_000_000)
    if not is_int(cap) or cap <= 0:
        raise CapExceeded("field issue_cap must be a positive integer")
    return build_instance(raw["balance_i"], raw["balance_j"], cap)
