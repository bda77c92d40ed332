"""Two-type incomplete-information layer.

The initiating dealer does not know whether the counterparty is a large or a
small bank, only a prior. Each type has its own payoff table; the solver
finds the counterparty's per-type dominant strategy and the prior weight at
which the initiator is indifferent between its two strategies.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .core import (
    Bimatrix,
    LiquidityGameError,
    dominance_relations,
    json_object,
    parse_bimatrix,
    parse_prior,
)
from .fixtures import fixture_path

EQUALITY_TOLERANCE = 1e-12


class UnknownLabel(LiquidityGameError):
    pass


class NoDependenceOnPrior(LiquidityGameError):
    pass


class _TypeSpace(NamedTuple):
    types: tuple[str, ...]
    prior: tuple[float, ...]


class TypeSpace(_TypeSpace):
    """Ordered type labels and a prior over them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TypeSpace":
        self = super().__new__(cls, *args, **kwargs)
        if len(self.types) != len(self.prior):
            raise ValueError("prior length must match number of types")
        if not all(math.isfinite(p) for p in self.prior):
            raise ValueError("prior entries must be finite")
        if any(p < 0 for p in self.prior):
            raise ValueError("prior entries must be non-negative")
        if abs(sum(self.prior) - 1.0) > EQUALITY_TOLERANCE:
            raise ValueError(f"prior must sum to 1, got {sum(self.prior)}")
        return self


class _ConditionalGame(NamedTuple):
    types: tuple[str, ...]
    strategies_i: tuple[str, ...]
    strategies_j: tuple[str, ...]
    matrices: Mapping[str, Bimatrix]


class ConditionalGame(_ConditionalGame):
    """One real-valued bimatrix per counterparty type.

    Rows are the initiator's strategies, columns the counterparty's;
    entries are (initiator payoff, counterparty payoff). Payoffs may be
    asymmetric here: the tables are stylised levels, not transfer counts.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ConditionalGame":
        self = super().__new__(cls, *args, **kwargs)
        for t in self.types:
            if t not in self.matrices:
                raise ValueError(f"missing matrix for type {t!r}")
            grid = self.matrices[t]
            if len(grid) != len(self.strategies_i) or any(
                len(row) != len(self.strategies_j) for row in grid
            ):
                raise ValueError(f"matrix for type {t!r} has wrong dimensions")
        return self

    def payoff(self, type_label: str, strategy_i: str, strategy_j: str) -> tuple[float, float]:
        if type_label not in self.matrices:
            raise UnknownLabel(f"unknown type {type_label!r}")
        try:
            r = self.strategies_i.index(strategy_i)
        except ValueError:
            raise UnknownLabel(f"unknown row strategy {strategy_i!r}") from None
        try:
            c = self.strategies_j.index(strategy_j)
        except ValueError:
            raise UnknownLabel(f"unknown column strategy {strategy_j!r}") from None
        return self.matrices[type_label][r][c]

    @classmethod
    def from_jsonable(cls, raw: dict) -> "ConditionalGame":
        try:
            types = tuple(raw["types"])
            if "strategies" in raw:
                strategies_i = strategies_j = tuple(raw["strategies"])
            else:
                strategies_i = tuple(raw["strategies_i"])
                strategies_j = tuple(raw["strategies_j"])
            matrices = {t: parse_bimatrix(grid) for t, grid in raw["matrices"].items()}
        except (TypeError, AttributeError) as exc:  # a field of the wrong JSON type
            raise ValueError(f"malformed game document: {exc}") from None
        return cls(types, strategies_i, strategies_j, matrices)


def load_game_document(path: Path) -> tuple[ConditionalGame, TypeSpace]:
    """Read a game file carrying both the matrices and the prior."""
    raw = json_object(path.read_text(), "game document")
    game = ConditionalGame.from_jsonable(raw)
    return game, TypeSpace(types=game.types, prior=parse_prior(raw["prior"]))


def load_bundled_game() -> tuple[ConditionalGame, TypeSpace]:
    """The large-bank / small-bank game shipped with the package."""
    return load_game_document(fixture_path("bayes_large_small.json"))


class BayesianSolution(NamedTuple):
    """Threshold summary: what the counterparty plays per type, and which
    initiator strategy is preferred on each side of the prior threshold."""

    per_type_strategy_j: Mapping[str, str]
    threshold_p: float
    strategy_i_above: str
    strategy_i_below: str
    interior: bool

    def to_jsonable(self) -> dict:
        return {
            "responses": dict(self.per_type_strategy_j),
            "threshold_p": self.threshold_p,
            "strategy_above": self.strategy_i_above,
            "strategy_below": self.strategy_i_below,
            "interior": self.interior,
        }


def dominant_strategy_per_type(
    game: ConditionalGame, type_index: int
) -> Optional[tuple[str, str]]:
    """The counterparty strategy weakly dominating all others in one type's
    table, with its strictness, or None when no strategy dominates.

    Read off ``core.dominance_relations`` over the columns: the strategy
    dominates every other column, strictly only if every relation is strict.
    Ties are resolved in favour of the earlier label in ``strategies_j``.
    """
    if not 0 <= type_index < len(game.types):
        raise ValueError(f"type index {type_index} out of range")
    grid = game.matrices[game.types[type_index]]
    columns = [[row[c][1] for row in grid] for c in range(len(game.strategies_j))]
    won: list[list[str]] = [[] for _ in columns]
    for _, g, strictness in dominance_relations(columns):
        won[g].append(strictness)
    for c, strictnesses in enumerate(won):
        if len(strictnesses) == len(columns) - 1:
            return (game.strategies_j[c], "weak" if "weak" in strictnesses else "strict")
    return None


def expected_payoff(
    game: ConditionalGame,
    space: TypeSpace,
    strategy_i: str,
    response_j: Mapping[str, str],
) -> float:
    """Prior-weighted initiator payoff against a per-type response map."""
    total = 0.0
    for t, weight in zip(space.types, space.prior):
        if t not in response_j:
            raise UnknownLabel(f"no response for type {t!r}")
        total += weight * game.payoff(t, strategy_i, response_j[t])[0]
    return total


def indifference_threshold(
    game: ConditionalGame, space: TypeSpace, response_j: Mapping[str, str]
) -> BayesianSolution:
    """Solve for the weight on the first type at which the initiator's two
    strategies have equal expected payoff.

    When the two expected payoffs never cross inside [0, 1] the threshold
    is clamped (1 when the first strategy is preferred throughout, else 0)
    and the solution is flagged non-interior. Identical payoff lines raise
    NoDependenceOnPrior.
    """
    if len(game.strategies_i) != 2:
        raise ValueError("threshold analysis needs exactly two row strategies")
    if len(game.types) != 2:
        raise ValueError("threshold analysis needs exactly two types")
    s1, s2 = game.strategies_i
    t_first, t_second = game.types
    for t in game.types:
        if t not in response_j:
            raise UnknownLabel(f"no response for type {t!r}")
    a1 = game.payoff(t_first, s1, response_j[t_first])[0]
    a2 = game.payoff(t_first, s2, response_j[t_first])[0]
    b1 = game.payoff(t_second, s1, response_j[t_second])[0]
    b2 = game.payoff(t_second, s2, response_j[t_second])[0]
    # payoff difference f(p) = p*(a1-a2) + (1-p)*(b1-b2), positive favours s1
    slope = (a1 - a2) - (b1 - b2)
    intercept = b1 - b2
    if slope == 0 and intercept == 0:
        raise NoDependenceOnPrior(
            "both strategies have identical expected payoff for every prior"
        )
    if slope != 0:
        root = -intercept / slope
        if 0.0 <= root <= 1.0:
            above, below = (s1, s2) if slope > 0 else (s2, s1)
            return BayesianSolution(
                per_type_strategy_j=dict(response_j),
                threshold_p=root,
                strategy_i_above=above,
                strategy_i_below=below,
                interior=True,
            )
    # No interior crossing: one strategy is preferred on all of [0, 1].
    midpoint_value = slope * 0.5 + intercept
    preferred = s1 if midpoint_value > 0 else s2
    return BayesianSolution(
        per_type_strategy_j=dict(response_j),
        threshold_p=1.0 if preferred == s1 else 0.0,
        strategy_i_above=preferred,
        strategy_i_below=preferred,
        interior=False,
    )
