"""Game instances and payoff construction for bilateral bond-transfer games.

Two dealers hold opposite-signed bond inventories and simultaneously play
parcel sizes. A play succeeds only when the offered parcel fits within the
counterparty's absolute need; both sides then realise the transferred
quantity as utility. Prices play no part: utility is the quantity moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


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


@dataclass(frozen=True)
class Holding:
    """A player's signed bond inventory."""

    player: Player
    balance: int


@dataclass(frozen=True)
class Action:
    """A parcel size played into the game, stored as an absolute quantity."""

    quantity: int

    def __post_init__(self) -> None:
        if self.quantity < 0:
            raise ValueError(f"action quantity must be >= 0, got {self.quantity}")


@dataclass(frozen=True)
class GameInstance:
    """A canonical two-player game state.

    ``build_instance`` is the validated entry point; instances produced by
    ``apply_trade`` may carry a zero balance (a cleared player) and then
    have an empty action set on that side.
    """

    holding_i: Holding
    holding_j: Holding
    issue_cap: int

    @property
    def balance_i(self) -> int:
        return self.holding_i.balance

    @property
    def balance_j(self) -> int:
        return self.holding_j.balance

    @cached_property
    def action_set_i(self) -> tuple[Action, ...]:
        """Parcel sizes |B_i|..1 in descending order; 0 is never playable."""
        return tuple(Action(q) for q in range(abs(self.balance_i), 0, -1))

    @cached_property
    def action_set_j(self) -> tuple[Action, ...]:
        return tuple(Action(q) for q in range(abs(self.balance_j), 0, -1))


@dataclass(frozen=True)
class PayoffMatrix:
    """Bimatrix of integer payoffs, rows and columns in descending parcel size.

    ``u_i[r][c]`` and ``u_j[r][c]`` are the row and column player's payoffs
    for the row player's parcel ``actions_i[r]`` against the column player's
    parcel ``actions_j[c]``.
    """

    actions_i: tuple[int, ...]
    actions_j: tuple[int, ...]
    u_i: tuple[tuple[int, ...], ...]
    u_j: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.u_i) != len(self.actions_i) or len(self.u_j) != len(self.actions_i):
            raise ValueError("row count does not match actions_i")
        for row in (*self.u_i, *self.u_j):
            if len(row) != len(self.actions_j):
                raise ValueError("column count does not match actions_j")

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

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_json(cls, doc: str) -> "PayoffMatrix":
        return cls.from_entries(json.loads(doc))

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
    return GameInstance(
        holding_i=Holding(Player.I, balance_i),
        holding_j=Holding(Player.J, balance_j),
        issue_cap=issue_cap,
    )


def bilateral_payoff(offer: Action, capacity: Action) -> tuple[int, int]:
    """Payoff pair for one play: the offer clears iff it fits the capacity.

    Returns ``(q, q)`` with ``q = offer.quantity`` when ``0 < q <= capacity``,
    else ``(0, 0)``. Both sides realise the same transferred quantity.
    """
    q = offer.quantity
    if 0 < q <= capacity.quantity:
        return (q, q)
    return (0, 0)


def build_payoff_matrix(instance: GameInstance) -> PayoffMatrix:
    """Evaluate the payoff rule over the full action-set cross product.

    Both sides realise the transferred quantity, so one table serves as
    ``u_i`` and ``u_j``.
    """
    qi = range(abs(instance.balance_i), 0, -1)
    qj = range(abs(instance.balance_j), 0, -1)
    u = tuple(tuple(q if q <= cap else 0 for cap in qj) for q in qi)
    return PayoffMatrix(actions_i=tuple(qi), actions_j=tuple(qj), u_i=u, u_j=u)


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
        holding_i=Holding(Player.I, instance.balance_i - quantity),
        holding_j=Holding(Player.J, instance.balance_j + quantity),
        issue_cap=instance.issue_cap,
    )


def instance_to_jsonable(instance: GameInstance) -> dict:
    return {
        "balance_i": instance.balance_i,
        "balance_j": instance.balance_j,
        "issue_cap": instance.issue_cap,
    }


def instance_to_json(instance: GameInstance) -> str:
    return json.dumps(instance_to_jsonable(instance))


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
        # bool is a subclass of int, but true/false are not balances.
        if not isinstance(raw[field], int) or isinstance(raw[field], bool):
            raise ZeroBalance(f"field {field} must be an integer")
    cap = raw.get("issue_cap", 1_000_000)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
        raise CapExceeded("field issue_cap must be a positive integer")
    return build_instance(raw["balance_i"], raw["balance_j"], cap)
