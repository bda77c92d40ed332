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
from enum import Enum
from typing import NamedTuple, Sequence


class LiquidityGameError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroBalance(LiquidityGameError):
    pass


class SameSignBalances(LiquidityGameError):
    pass


class CapExceeded(LiquidityGameError):
    pass


class OverTrade(LiquidityGameError):
    pass


class Player(Enum):
    """The long side (I, positive balance) or the short side (J, negative)."""

    I = "I"
    J = "J"


class GameInstance(NamedTuple):
    """A canonical two-player game state.

    ``build_instance`` is the validated entry point; instances produced by
    ``apply_trade`` may carry a zero balance (a cleared player).
    """

    balance_i: int
    balance_j: int
    issue_cap: int


class _PayoffMatrix(NamedTuple):
    actions_i: tuple[int, ...]
    actions_j: tuple[int, ...]
    u_i: tuple[tuple[int, ...], ...]
    u_j: tuple[tuple[int, ...], ...]


class PayoffMatrix(_PayoffMatrix):
    """Bimatrix of integer payoffs, rows and columns in descending parcel size.

    ``u_i[r][c]`` and ``u_j[r][c]`` are the row and column player's payoffs
    for the row player's parcel ``actions_i[r]`` against the column player's
    parcel ``actions_j[c]``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PayoffMatrix":
        self = super().__new__(cls, *args, **kwargs)
        if len(self.u_i) != len(self.actions_i) or len(self.u_j) != len(self.actions_i):
            raise ValueError("row count does not match actions_i")
        for row in (*self.u_i, *self.u_j):
            if len(row) != len(self.actions_j):
                raise ValueError("column count does not match actions_j")
        return self

    @property
    def rows(self) -> int:
        return len(self.actions_i)

    @property
    def cols(self) -> int:
        return len(self.actions_j)

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``entries[r][c]`` is the pair ``(u_i[r][c], u_j[r][c])``."""
        return tuple(tuple(zip(row_i, row_j)) for row_i, row_j in zip(self.u_i, self.u_j))

    @classmethod
    def from_entries(cls, entries) -> "PayoffMatrix":
        """Wrap a plain nested list of (u_i, u_j) pairs.

        Row and column actions are labelled n..1 descending, matching how
        instance-built matrices are laid out.
        """
        grid = [[(int(a), int(b)) for a, b in row] for row in entries]
        n_rows = len(grid)
        n_cols = len(grid[0]) if grid else 0
        return cls(
            actions_i=tuple(range(n_rows, 0, -1)),
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


def dominance_relations(vectors: Sequence[Sequence]) -> list[tuple[int, int, str]]:
    """All ordered pairs (dominated, dominating, strictness) among one
    player's payoff vectors, each listing the payoffs against every
    opponent action.

    ``g`` dominates ``d`` when g's payoff is at least d's everywhere;
    "strict" when strictly greater everywhere, "weak" otherwise (equal
    vectors therefore dominate each other weakly).
    """
    relations = []
    for d, g in itertools.permutations(range(len(vectors)), 2):
        if all(vg >= vd for vg, vd in zip(vectors[g], vectors[d])):
            strict = all(vg > vd for vg, vd in zip(vectors[g], vectors[d]))
            relations.append((d, g, "strict" if strict else "weak"))
    return relations


def apply_trade(instance: GameInstance, quantity: int) -> GameInstance:
    """Move ``quantity`` bonds from the long to the short player.

    Balance totals are conserved and neither balance may cross zero; a
    quantity that would flip a sign raises OverTrade.
    """
    if quantity <= 0:
        raise ValueError(f"trade quantity must be positive, got {quantity}")
    if quantity > min(abs(instance.balance_i), abs(instance.balance_j)):
        raise OverTrade(
            f"trade of {quantity} would flip a sign: balances "
            f"{instance.balance_i}, {instance.balance_j}"
        )
    return GameInstance(
        instance.balance_i - quantity, instance.balance_j + quantity, instance.issue_cap
    )


def instance_to_jsonable(instance: GameInstance) -> dict:
    return {
        "balance_i": instance.balance_i,
        "balance_j": instance.balance_j,
        "issue_cap": instance.issue_cap,
    }


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
