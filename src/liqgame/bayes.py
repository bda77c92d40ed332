"""Two-type incomplete-information layer.

The initiating dealer does not know whether the counterparty is a large or a
small bank, only a prior. Each type has its own payoff table; the solver
finds the counterparty's per-type dominant strategy and the prior weight at
which the initiator is indifferent between its two strategies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .core import Checked, LiquidityGameError, check_document
from .documents import (
    Bimatrix,
    check_labels,
    check_prior,
    check_tables,
    fixture_path,
    parse_labels,
    parse_prior,
    parse_tables,
)


class UnknownLabel(LiquidityGameError):
    pass


class NoDependenceOnPrior(LiquidityGameError):
    pass


class _ConditionalGame(NamedTuple):
    types: tuple[str, ...]
    strategies_i: tuple[str, ...]
    strategies_j: tuple[str, ...]
    matrices: Mapping[str, Bimatrix]
    prior: tuple[float, ...]


class ConditionalGame(Checked, _ConditionalGame):
    """One real-valued bimatrix per counterparty type, and the common prior
    over the types.

    Rows are the initiator's strategies, columns the counterparty's;
    entries are (initiator payoff, counterparty payoff). Payoffs may be
    asymmetric here: the tables are stylised levels, not transfer counts.
    """

    __slots__ = ()

    def _check(self) -> "ConditionalGame":
        check_labels(self.types, self.strategies_i, self.strategies_j)
        check_tables(self.matrices, self.types, self.strategies_i, self.strategies_j, "type")
        check_prior(self.prior, self.types)
        return self

    @classmethod
    def from_jsonable(cls, raw) -> "ConditionalGame":
        """Read a game document: ``types``, ``matrices`` keyed by type, ``prior``, and
        ``strategies`` for both sides or the pair ``strategies_i``, ``strategies_j`` (a key
        of the form not chosen is unknown); ``type_names`` may ride along, unread."""
        shared = isinstance(raw, dict) and "strategies" in raw
        keys = ("strategies",) * 2 if shared else ("strategies_i", "strategies_j")
        check_document(raw, "game document", ("types", "matrices", "prior", *keys), ("type_names",))
        types = parse_labels(raw["types"], "types")
        strategies_i, strategies_j = (parse_labels(raw[key], key) for key in keys)
        matrices, prior = parse_tables(raw["matrices"]), parse_prior(raw["prior"])
        return cls(types, strategies_i, strategies_j, matrices, prior)


def load_game_document(path: Path) -> ConditionalGame:
    """Read a game file carrying both the matrices and the prior."""
    return ConditionalGame.from_jsonable(json.loads(path.read_text()))


def load_bundled_game() -> ConditionalGame:
    """The large-bank / small-bank game shipped with the package."""
    return load_game_document(fixture_path("bayes_large_small.json"))


class BayesianSolution(NamedTuple):
    """Threshold summary: what the counterparty plays per type, and which
    initiator strategy is preferred on each side of the prior threshold."""

    responses: Mapping[str, str]
    threshold_p: float
    strategy_above: str
    strategy_below: str
    interior: bool


def dominant_strategy_per_type(
    game: ConditionalGame, type_index: int
) -> Optional[tuple[str, str]]:
    """The first counterparty strategy, in ``strategies_j`` order, whose
    payoffs in one type's table are at least every other column's, row by
    row, with its strictness; None when no strategy qualifies.

    The strategy is "strict" when it beats every other column strictly in
    every row, and "weak" otherwise; a table with one column is "strict".
    """
    if not 0 <= type_index < len(game.types):
        raise ValueError(f"type index {type_index} out of range")
    grid = game.matrices[game.types[type_index]]
    columns = [[row[c][1] for row in grid] for c in range(len(game.strategies_j))]
    for c, column in enumerate(columns):
        pairs = [(x, y) for other in columns[:c] + columns[c + 1 :] for x, y in zip(column, other)]
        if all(x >= y for x, y in pairs):
            return game.strategies_j[c], "strict" if all(x > y for x, y in pairs) else "weak"
    return None


def check_responses(game: ConditionalGame, response_j: Mapping[str, str]) -> list[int]:
    """The response column of each type, in type order; UnknownLabel unless
    ``response_j`` maps exactly the types to column strategies."""
    for t in game.types:
        if t not in response_j:
            raise UnknownLabel(f"no response for type {t!r}")
    for t, strategy in response_j.items():
        if t not in game.types:
            raise UnknownLabel(f"response for unknown type {t!r}")
        if strategy not in game.strategies_j:
            raise UnknownLabel(f"unknown column strategy {strategy!r}")
    return [game.strategies_j.index(response_j[t]) for t in game.types]


def expected_payoff(
    game: ConditionalGame, strategy_i: str, response_j: Mapping[str, str]
) -> float:
    """Prior-weighted initiator payoff against a per-type response map."""
    columns = check_responses(game, response_j)
    if strategy_i not in game.strategies_i:
        raise UnknownLabel(f"unknown row strategy {strategy_i!r}")
    r = game.strategies_i.index(strategy_i)
    total = 0.0
    for t, weight, c in zip(game.types, game.prior, columns):
        total += weight * game.matrices[t][r][c][0]
    return total


def indifference_threshold(
    game: ConditionalGame, response_j: Mapping[str, str]
) -> BayesianSolution:
    """Solve for the weight on the first type at which the initiator's two
    strategies have equal expected payoff. The game's own prior plays no part.

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
    columns = check_responses(game, response_j)
    # a: the first type's payoffs to s1 and s2, b: the second type's
    (a1, a2), (b1, b2) = ([row[c][0] for row in game.matrices[t]]
                          for t, c in zip(game.types, columns))
    # payoff difference f(p) = p*(a1-a2) + (1-p)*(b1-b2), positive favours s1
    slope = (a1 - a2) - (b1 - b2)
    intercept = b1 - b2
    if slope == 0 and intercept == 0:
        raise NoDependenceOnPrior(
            "both strategies have identical expected payoff for every prior"
        )
    if slope != 0:
        root = -intercept / slope + 0.0  # a zero root is 0.0, not -0.0
        if 0.0 <= root <= 1.0:
            above, below = (s1, s2) if slope > 0 else (s2, s1)
            return BayesianSolution(dict(response_j), root, above, below, interior=True)
    # No interior crossing: one strategy is preferred on all of [0, 1].
    midpoint_value = slope * 0.5 + intercept
    preferred = s1 if midpoint_value > 0 else s2
    threshold = 1.0 if preferred == s1 else 0.0
    return BayesianSolution(dict(response_j), threshold, preferred, preferred, interior=False)
