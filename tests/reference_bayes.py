"""The two-strategy form of the threshold a ``liqgame bayes`` report reads off
the best-response envelope, kept only as a test oracle: a closed-form root of
the one payoff difference, with its clamp when the root falls outside [0, 1],
in exact rationals, each payoff read as the decimal its ``str`` writes and the
root rounded to a float once. For two row strategies the report's threshold
fields must have equal ``repr``, and the report must raise
``NoDependenceOnPrior`` for the same games.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from liqgame.bayes import ConditionalGame, NoDependenceOnPrior, check_responses


def two_strategy_threshold(
    game: ConditionalGame, response_j: Mapping[str, str]
) -> tuple[float, str, str, bool]:
    """(threshold_p, strategy_above, strategy_below, interior): the weight on
    the first type at which the initiator's two strategies have equal expected
    payoff, the strategies best above and below it, and True; when there is no
    such weight in [0, 1], 1 (the first strategy preferred throughout) or 0,
    the preferred strategy twice, and False. Identical payoff lines raise
    NoDependenceOnPrior.
    """
    if len(game.strategies_i) != 2:
        raise ValueError("threshold analysis needs exactly two row strategies")
    if len(game.types) != 2:
        raise ValueError("threshold analysis needs exactly two types")
    s1, s2 = game.strategies_i
    columns = check_responses(game, response_j)
    # a: the first type's payoffs to s1 and s2, b: the second type's
    (a1, a2), (b1, b2) = ([Fraction(str(row[c][0])) for row in game.matrices[t]]
                          for t, c in zip(game.types, columns))
    # payoff difference f(p) = p*(a1-a2) + (1-p)*(b1-b2), positive favours s1
    slope = (a1 - a2) - (b1 - b2)
    intercept = b1 - b2
    if slope == 0 and intercept == 0:
        raise NoDependenceOnPrior(
            "both strategies have identical expected payoff for every prior"
        )
    if slope != 0:
        root = -intercept / slope
        if 0 <= root <= 1:
            above, below = (s1, s2) if slope > 0 else (s2, s1)
            return float(root), above, below, True
    # No interior crossing: one strategy is preferred on all of [0, 1].
    midpoint_value = slope / 2 + intercept
    preferred = s1 if midpoint_value > 0 else s2
    threshold = 1.0 if preferred == s1 else 0.0
    return threshold, preferred, preferred, False
