"""Two-type incomplete-information layer.

The initiating dealer does not know whether the counterparty is a large or a
small bank, only a prior. Each type has its own payoff table; the solver
finds the counterparty's per-type dominant strategy and the initiator's best
strategy at each prior weight, which switches at the weights of indifference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .core import LiquidityGameError, check_document, checked
from .documents import Bimatrix, check_labels, check_prior, check_tables, fixture_path, integer_tables


class UnknownLabel(LiquidityGameError):
    pass


class NoDependenceOnPrior(LiquidityGameError):
    pass


@checked
class ConditionalGame(NamedTuple):
    """One real-valued bimatrix per counterparty type, and the common prior
    over the types.

    Rows are the initiator's strategies, columns the counterparty's;
    entries are (initiator payoff, counterparty payoff). Payoffs may be
    asymmetric here: the tables are stylised levels, not transfer counts.
    """

    types: tuple[str, ...]
    strategies_i: tuple[str, ...]
    strategies_j: tuple[str, ...]
    matrices: Mapping[str, Bimatrix]
    prior: tuple[float, ...]

    def _check(self) -> "ConditionalGame":
        for labels, field in zip(self[:3], self._fields):
            check_labels(labels, field)
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
        types = check_labels(raw["types"], "types")
        strategies_i, strategies_j = (check_labels(raw[key], key) for key in keys)
        matrices = check_tables(raw["matrices"], types, strategies_i, strategies_j, "type")
        return cls(types, strategies_i, strategies_j, matrices, check_prior(raw["prior"], types))


def load_game_document(path: Path) -> ConditionalGame:
    """Read a game file carrying both the matrices and the prior."""
    return ConditionalGame.from_jsonable(json.loads(path.read_text()))


def load_bundled_game() -> ConditionalGame:
    """The large-bank / small-bank game shipped with the package."""
    return load_game_document(fixture_path("bayes_large_small.json"))


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


def response_payoffs(game: ConditionalGame, response_j: Mapping[str, str]) -> list[list]:
    """The initiator's payoffs against each type's response, a row per type in type order and a
    column per row strategy; UnknownLabel unless ``response_j`` maps exactly the types to column strategies."""
    for t in game.types:
        if t not in response_j:
            raise UnknownLabel(f"no response for type {t!r}")
    for t, strategy in response_j.items():
        if t not in game.types:
            raise UnknownLabel(f"response for unknown type {t!r}")
        if strategy not in game.strategies_j:
            raise UnknownLabel(f"unknown column strategy {strategy!r}")
    return [[row[game.strategies_j.index(response_j[t])][0] for row in game.matrices[t]] for t in game.types]


def expected_payoffs(game: ConditionalGame, response_j: Mapping[str, str]) -> dict:
    """Each row strategy's prior-weighted payoff against a per-type response map, exactly: the prior as one row
    and ``response_payoffs`` as one table, each ints over one lcm (``documents.integer_tables``)."""
    from fractions import Fraction  # here: market imports this module but loads no fractions
    table = response_payoffs(game, response_j)
    ((w,), l_w), (u, l_u), _ = integer_tables("expected_payoffs's read", (game.prior,), table)
    return {s: Fraction(sum(x * y for x, y in zip(w, col)), l_w * l_u) for s, col in zip(game.strategies_i, zip(*u))}


def best_response_envelope(
    game: ConditionalGame, response_j: Mapping[str, str]
) -> tuple[list[float], list[str]]:
    """The upper envelope of the lines p*a + (1 - p)*b that the initiator's
    strategies earn against ``response_j``, a and b their payoffs in the two
    types' tables and p the weight on the first type, whatever the prior: its
    breakpoints in the closed [0, 1], ascending, and the strategy best on each
    side of each, the one beyond a breakpoint at 0 or 1 included. Of lines tied
    on an interval the first in ``strategies_i`` is named; a line best at one
    point only is not. NoDependenceOnPrior when two or more lines all coincide.
    The payoffs are read as in ``expected_payoffs``, over one lcm that each crossing cancels; each crossing
    is one Fraction, rounded once, on return, and crossings that round to one float are one breakpoint.
    """
    from fractions import Fraction  # as in expected_payoffs
    if len(game.types) != 2:
        raise ValueError("threshold analysis needs exactly two types")
    ((a, b), _), _ = integer_tables("best_response_envelope's read", response_payoffs(game, response_j))
    if len(a) > 1 and len(set(zip(a, b))) == 1:
        raise NoDependenceOnPrior("every strategy has the same expected payoff for every prior")
    slope = [x - y for x, y in zip(a, b)]
    # From p = -inf: the flattest line (the highest, then the first, of those), then each
    # time the line that overtakes it first. One that does so where it began (lines that
    # meet at one point) takes its place.
    line = min(range(len(a)), key=lambda r: (slope[r], -b[r]))
    lines, crossings = [line], [float("-inf")]  # lines[i] is best from crossings[i]
    while ahead := {s: Fraction(b[line] - b[s], slope[s] - slope[line])
                    for s in range(len(a)) if slope[s] > slope[line]}:
        line = min(ahead, key=ahead.get)
        kept = len(lines) - (ahead[line] == crossings[-1])
        lines[kept:], crossings[kept:] = [line], [ahead[line]]
    first, last = sum(p < 0 for p in crossings), sum(p <= 1 for p in crossings)
    # each rounded once, in order; of crossings that round to one float, the last line is named
    after = {float(p): r for p, r in zip(crossings[first:last], lines[first:last])}
    return list(after), [game.strategies_i[r] for r in (lines[first - 1], *after.values())]
