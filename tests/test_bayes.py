import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liqgame.bayes import (
    ConditionalGame,
    NoDependenceOnPrior,
    UnknownLabel,
    best_response_envelope,
    dominant_strategy_per_type,
    expected_payoffs,
    load_bundled_game,
    load_game_document,
)
from liqgame.commands.bayes import build_bayes_report
from liqgame.documents import fixture_path
from reference_bayes import two_strategy_threshold

THRESHOLD = 5 / 9


@pytest.fixture()
def bundled():
    return load_bundled_game()


def conditional(matrix_a, matrix_b, prior=(0.5, 0.5)) -> ConditionalGame:
    return ConditionalGame(
        types=("a", "b"),
        strategies_i=("high", "low"),
        strategies_j=("high", "low"),
        matrices={"a": matrix_a, "b": matrix_b},
        prior=prior,
    )


def row_lines(lines, prior=(0.5, 0.5)) -> ConditionalGame:
    """A two-type game whose row strategy s<k> earns lines[k] = (a, b), its
    payoffs in types a and b, against the one counterparty strategy "y"."""
    return ConditionalGame(
        types=("a", "b"),
        strategies_i=tuple(f"s{k}" for k in range(len(lines))),
        strategies_j=("y",),
        matrices={t: tuple(((line[i], 0),) for line in lines) for i, t in enumerate("ab")},
        prior=prior,
    )


ONE_COLUMN = {"a": "y", "b": "y"}


def threshold(game, responses=None):
    """The report's threshold fields, in ``reference_bayes.two_strategy_threshold``'s order:
    (threshold_p, strategy_above, strategy_below, interior)."""
    report = build_bayes_report(game, responses)
    return tuple(report[key] for key in ("threshold_p", "strategy_above", "strategy_below", "interior"))


class TestBundledGame:
    def test_fixture_loads_with_its_unread_type_names(self, bundled):
        # type_names is the one optional game document key; the reader skips it
        raw = json.loads(fixture_path("bayes_large_small.json").read_text())
        assert raw["type_names"] == {"a": "large", "b": "small"}
        assert bundled == conditional(
            (((10, 10), (0, 0)), ((6, 6), (5, 5))),
            (((0, 0), (0, 0)), ((5, 4), (0, 0))),
            prior=(0.35, 0.65),
        )

    def test_tables_as_shipped(self, bundled):
        assert bundled.matrices["a"] == (((10, 10), (0, 0)), ((6, 6), (5, 5)))
        assert bundled.matrices["b"] == (((0, 0), (0, 0)), ((5, 4), (0, 0)))
        assert bundled.prior == (0.35, 0.65)

    def test_large_type_dominance_is_strict(self, bundled):
        assert dominant_strategy_per_type(bundled, 0) == ("high", "strict")

    def test_small_type_dominance_is_weak(self, bundled):
        assert dominant_strategy_per_type(bundled, 1) == ("high", "weak")

    def test_threshold_five_ninths(self, bundled):
        threshold_p, above, below, interior = threshold(bundled, {"a": "high", "b": "high"})
        assert abs(threshold_p - THRESHOLD) < 1e-12
        assert above == "high"
        assert below == "low"
        assert interior

    @given(p=st.floats(0.0, 1.0))
    def test_threshold_does_not_read_the_prior(self, p):
        game = load_bundled_game()
        responses = {"a": "high", "b": "high"}
        solution = threshold(game._replace(prior=(p, 1 - p)), responses)
        assert solution == threshold(game, responses)
        assert abs(solution[0] - THRESHOLD) < 1e-12

    def test_payoffs_cross_at_the_threshold(self, bundled):
        at = bundled._replace(prior=(THRESHOLD, 1 - THRESHOLD))
        responses = {"a": "high", "b": "high"}
        payoffs = expected_payoffs(at, responses)
        high, low = float(payoffs["high"]), float(payoffs["low"])
        assert abs(high - 50 / 9) < 1e-12
        assert abs(high - low) < 1e-12
        for delta, better in ((0.01, "high"), (-0.01, "low")):
            game = bundled._replace(prior=(THRESHOLD + delta, 1 - THRESHOLD - delta))
            payoffs = expected_payoffs(game, responses)
            assert max(payoffs, key=payoffs.get) == better

    def test_degenerate_prior_reduces_to_single_matrix(self, bundled):
        game = bundled._replace(prior=(1.0, 0.0))
        responses = {"a": "high", "b": "high"}
        assert expected_payoffs(game, responses) == {"high": 10.0, "low": 6.0}
        threshold_p, above, _, _ = threshold(game, responses)
        # prior weight 1 sits above 5/9, matching the type-a best response
        assert above == "high"
        assert 1.0 > threshold_p


class TestDominance:
    def test_constant_matrix_returns_first_label_weak(self):
        flat = tuple(tuple((1.0, 1.0) for _ in range(2)) for _ in range(2))
        game = conditional(flat, flat)
        assert dominant_strategy_per_type(game, 0) == ("high", "weak")

    def test_no_dominant_strategy_is_none(self):
        cycling = (((0, 1), (0, 0)), ((0, 0), (0, 1)))
        game = conditional(cycling, cycling)
        assert dominant_strategy_per_type(game, 0) is None

    @pytest.mark.parametrize("index", [2, -1])
    def test_type_index_out_of_range(self, bundled, index):
        # -1 would otherwise read the last type's table
        with pytest.raises(ValueError, match=f"^type index {index} out of range$"):
            dominant_strategy_per_type(bundled, index)

    @given(scale=st.floats(0.1, 50), shift=st.floats(-20, 20))
    def test_invariant_under_positive_affine_transform(self, scale, shift):
        game = load_bundled_game()
        transformed = {
            t: tuple(
                tuple((u, scale * v + shift) for (u, v) in row) for row in grid
            )
            for t, grid in game.matrices.items()
        }
        rescaled = game._replace(matrices=transformed)
        for index in range(2):
            assert dominant_strategy_per_type(
                rescaled, index
            ) == dominant_strategy_per_type(game, index)

    @given(st.data())
    def test_agrees_with_pairwise_dominance(self, data):
        # Few distinct values and columns drawn with repetition, so ties and
        # duplicate columns are common; one-column tables are included.
        n_rows = data.draw(st.integers(1, 3), label="rows")
        column = st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows)
        distinct = data.draw(st.lists(column, min_size=1, max_size=4), label="distinct")
        n_cols = data.draw(st.integers(1, 4), label="cols")
        columns = [data.draw(st.sampled_from(distinct)) for _ in range(n_cols)]
        row_payoffs = data.draw(
            st.lists(column, min_size=n_cols, max_size=n_cols), label="row payoffs"
        )
        grid = [
            [(row_payoffs[c][r], columns[c][r]) for c in range(n_cols)] for r in range(n_rows)
        ]
        labels = tuple(f"s{c}" for c in range(n_cols))
        game = ConditionalGame(
            types=("t",),
            strategies_i=tuple(f"r{r}" for r in range(n_rows)),
            strategies_j=labels,
            matrices={"t": grid},
            prior=(1.0,),
        )
        # every ordered pair (dominated, dominating, strictness) of columns
        relations = []
        for d in range(n_cols):
            for g in range(n_cols):
                if g != d and all(columns[g][r] >= columns[d][r] for r in range(n_rows)):
                    strict = all(columns[g][r] > columns[d][r] for r in range(n_rows))
                    relations.append((d, g, "strict" if strict else "weak"))
        expected = None
        for c in range(n_cols):
            won = [strictness for _, g, strictness in relations if g == c]
            if len(won) == n_cols - 1:
                expected = (labels[c], "strict" if all(s == "strict" for s in won) else "weak")
                break
        assert dominant_strategy_per_type(game, 0) == expected


class TestThreshold:
    def test_hand_solved_half(self):
        # E[high] = 10p and E[low] = 5, so the crossing is at p = 1/2
        game = conditional(
            (((10, 0), (10, 0)), ((5, 0), (5, 0))),
            (((0, 0), (0, 0)), ((5, 0), (5, 0))),
        )
        threshold_p, _, _, interior = threshold(game, {"a": "high", "b": "high"})
        assert math.isclose(threshold_p, 0.5, abs_tol=1e-12)
        assert interior

    def test_always_preferred_clamps_to_one(self):
        # f(p) = 2 - p stays positive on [0, 1]: "high" dominates throughout
        game = conditional(
            (((3, 0), (3, 0)), ((2, 0), (2, 0))),
            (((2, 0), (2, 0)), ((0, 0), (0, 0))),
        )
        assert threshold(game, {"a": "high", "b": "high"}) == (1.0, "high", "high", False)

    def test_never_preferred_clamps_to_zero(self):
        game = conditional(
            (((0, 0), (0, 0)), ((5, 0), (5, 0))),
            (((0, 0), (0, 0)), ((5, 0), (5, 0))),
        )
        assert threshold(game, {"a": "high", "b": "high"}) == (0.0, "low", "low", False)

    def test_identical_payoff_lines_raise(self):
        flat = tuple(tuple((2.0, 0.0) for _ in range(2)) for _ in range(2))
        game = conditional(flat, flat)
        with pytest.raises(NoDependenceOnPrior):
            build_bayes_report(game, {"a": "high", "b": "high"})

    def test_three_strategies_two_breakpoints(self, bundled):
        # against "high": E[high] = 10p, E[mid] = 5p + 3, E[low] = p + 5, so low
        # gives way to mid at 1/2 and mid to high at 3/5; high and low meet at 5/9 below mid
        mid = {"a": ((8, 8), (0, 0)), "b": ((3, 3), (0, 0))}
        matrices = {t: (grid[0], mid[t], grid[1]) for t, grid in bundled.matrices.items()}
        game = bundled._replace(strategies_i=("high", "mid", "low"), matrices=matrices)
        responses = {"a": "high", "b": "high"}
        assert best_response_envelope(game, responses) == ([0.5, 0.6], ["low", "mid", "high"])
        assert threshold(game, responses) == (0.5, "high", "low", True)

    def test_one_strategy_is_best_throughout(self, bundled):
        matrices = {t: grid[:1] for t, grid in bundled.matrices.items()}
        game = bundled._replace(strategies_i=("high",), matrices=matrices)
        responses = {"a": "high", "b": "high"}
        assert best_response_envelope(game, responses) == ([], ["high"])
        assert threshold(game, responses) == (1.0, "high", "high", False)

    def test_a_strategy_best_at_one_point_only_is_not_named(self):
        # 2 - 2p, 1 and 2p meet at 1/2, where the middle line alone touches the top
        game = row_lines([(0, 2), (1, 1), (2, 0)])
        assert best_response_envelope(game, ONE_COLUMN) == ([0.5], ["s0", "s2"])

    def test_overflowing_slopes_cross_exactly(self):
        # the lines cross at 1/2; their slopes, 2e308 and -2e308, overflow a float but
        # not a Fraction, so the crossing is exact and each side names its strategy
        game = row_lines([(1e308, -1e308), (-1e308, 1e308)])
        assert best_response_envelope(game, ONE_COLUMN) == ([0.5], ["s1", "s0"])
        assert threshold(game, ONE_COLUMN) == (0.5, "s0", "s1", True)

    def test_needs_two_types(self, bundled):
        game = bundled._replace(
            types=("a", "b", "c"),
            matrices={**bundled.matrices, "c": bundled.matrices["a"]},
            prior=(0.25, 0.25, 0.5),
        )
        with pytest.raises(ValueError, match="^threshold analysis needs exactly two types$"):
            best_response_envelope(game, {"a": "high", "b": "high", "c": "high"})

    def test_counterfactual_low_response(self):
        # responses {a: high, b: low}: E[high] = 10p vs E[low] = 6p, crossing at 0
        threshold_p, above, _, _ = threshold(load_bundled_game(), {"a": "high", "b": "low"})
        assert threshold_p == 0.0
        assert math.copysign(1.0, threshold_p) == 1.0  # reported as 0.0, not -0.0
        assert above == "high"


def outcome(threshold, game, responses):
    try:
        return repr(threshold(game, responses))
    except NoDependenceOnPrior:
        return "NoDependenceOnPrior"


def exact_argmax(lines, p):
    """The index of the first line highest at p, in exact arithmetic."""
    values = [p * a + (1 - p) * b for a, b in lines]
    return values.index(max(values))


class TestEnvelope:
    @given(
        st.one_of(
            st.lists(st.tuples(payoff, payoff), min_size=2, max_size=2)
            for payoff in (
                st.integers(-9, 9),
                st.floats(-10, 10),
                st.integers(-20, 20).map(lambda n: n / 10),
            )
        )
    )
    # parallel lines that a per-line slope a - b, rounded, would call crossing
    @example([(0.1, -0.7), (1.6, 0.8)])
    @example([(5.9, 6.0), (1.7, 1.8)])
    def test_two_strategies_match_the_closed_form(self, lines):
        game = row_lines(lines)
        assert outcome(threshold, game, ONE_COLUMN) == outcome(two_strategy_threshold, game, ONE_COLUMN)

    @given(
        st.one_of(
            st.lists(st.tuples(payoff, payoff), min_size=1, max_size=4)
            for payoff in (
                st.integers(-9, 9),
                st.integers(-20, 20).map(lambda n: n / 10),
                st.floats(-10, 10),
            )
        )
    )
    # a strategy best at one point only; no crossing in [0, 1], the first and then the
    # second strategy best throughout; one strategy
    @example([(0, 2), (1, 1), (2, 0)])
    @example([(3, 2), (2, 0)])
    @example([(0, 0), (2, 1)])
    @example([(0, 1)])
    def test_threshold_fields_are_read_off_the_envelope(self, lines):
        game = row_lines(lines)
        try:
            report = build_bayes_report(game)
        except NoDependenceOnPrior:
            assert len(lines) > 1 and len(set(lines)) == 1
            return
        assert report["responses"] == ONE_COLUMN
        breakpoints, best = report["breakpoints"], report["best_strategies"]
        assert (breakpoints, best) == best_response_envelope(game, ONE_COLUMN)
        assert report["strategy_below"] == best[0] and report["strategy_above"] == best[-1]
        assert report["interior"] == bool(breakpoints)
        if breakpoints:
            assert report["threshold_p"] == breakpoints[0]
        else:
            # one strategy best throughout: the threshold is 1 when it is the first, else 0
            (only,) = best
            assert report["threshold_p"] == (1.0 if only == "s0" else 0.0)
        if len(lines) == 2:
            assert repr(threshold(game)) == repr(two_strategy_threshold(game, ONE_COLUMN))

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=5))
    # three lines that meet at 1/3: the middle one, met first, gives way where it began
    @example([(0, 0), (2, -1), (4, -2)])
    def test_names_the_exact_argmax_on_every_interval(self, lines):
        game = row_lines(lines)
        if len(lines) > 1 and len(set(lines)) == 1:
            with pytest.raises(NoDependenceOnPrior):
                best_response_envelope(game, ONE_COLUMN)
            return
        breakpoints, best = best_response_envelope(game, ONE_COLUMN)
        assert len(best) == len(breakpoints) + 1
        assert breakpoints == sorted(set(breakpoints))
        assert all(0 <= p <= 1 for p in breakpoints)
        index = [game.strategies_i.index(name) for name in best]
        # two lines of payoffs in -6..6 that cross do so at a multiple of 1/k, k <= 24,
        # so past 0 and 1 the first and last strategies stay best for at least 1/64
        edges = [Fraction(-1, 64), *map(Fraction, breakpoints), Fraction(65, 64)]
        for r, lo, hi in zip(index, edges, edges[1:]):
            assert exact_argmax(lines, (lo + hi) / 2) == r
        # neighbours meet on top of every other line, where the breakpoint says
        for (r, s), p in zip(zip(index, index[1:]), breakpoints):
            (a_r, b_r), (a_s, b_s) = lines[r], lines[s]
            at = Fraction(b_s - b_r, (a_r - a_s) - (b_r - b_s))
            assert float(at) == p
            assert at * a_r + (1 - at) * b_r == max(at * a + (1 - at) * b for a, b in lines)

    @given(
        st.one_of(
            *(
                st.lists(st.tuples(payoff, payoff), min_size=1, max_size=5)
                for payoff in (
                    st.integers(-9, 9),
                    st.integers(-20, 20).map(lambda n: n / 10),
                    st.floats(-10, 10),
                    st.floats(allow_nan=False, allow_infinity=False),  # every finite magnitude
                )
            ),
            # lines n*(x, y)/10 all meet where they earn 0
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)).flatmap(
                lambda xy: st.lists(
                    st.integers(-6, 6).map(lambda n: (n * xy[0] / 10, n * xy[1] / 10)),
                    min_size=2,
                    max_size=5,
                )
            ),
        ),
        st.floats(0, 1),
    )
    # a tie at the prior that float sums split, and payoffs 1 and 1 + 1e-16 that one
    # float holds; slopes that overflow a float
    @example([(0.3, 0), (0.1, 0.2)], 0.5)
    @example([(1, 1), (1.0000000000000002, 1)], 0.5)
    @example([(1e308, -1e308), (-1e308, 1e308)], 0.35)
    # the float extremes in one table, read over one lcm of 10^324; an int beside floats
    @example([(5e-324, 1.7976931348623157e308), (1.7976931348623157e308, -5e-324)], 0.35)
    @example([(3, 0.25), (1.5, 2), (0, 4.75)], 0.4)
    # a prior whose decimals sum to 1 + 1.1e-16 over payoffs at the float limit
    @example([(1.7976931348623157e308, 1.7976931348623157e308), (0.0, 0.0)], 7.2681310911722e-10)
    # three lines that meet at 1/3, and three that meet at 2/5, whose float crossings
    # with the middle line rounded together, or to before the point where it began
    @example([(0, 0), (0.2, -0.1), (0.6, -0.3)], 0.5)
    @example([(-5.4, 3.6), (-1.8, 1.2), (0.0, 0.0)], 0.4)
    # crossings 1/(1 + 1.6e-301) and 1, exactly apart but one float: one breakpoint 1.0
    @example([(0.0, 0.0), (1.5966996607758508e-301, -1.0), (1.5966996607758508e-301, -2.0)],
             0.5)
    def test_exact_in_the_decimals_the_payoffs_print(self, lines, p):
        game = row_lines(lines, prior=(p, 1 - p))
        exact = [tuple(Fraction(str(x)) for x in line) for line in lines]
        try:
            breakpoints, best = best_response_envelope(game, ONE_COLUMN)
        except NoDependenceOnPrior:
            assert len(lines) > 1 and len(set(exact)) == 1
            return
        # the payoffs at the prior, each rounded once, and the first of those exactly best
        weights = Fraction(str(p)), Fraction(str(1 - p))
        values = [weights[0] * a + weights[1] * b for a, b in exact]
        try:
            at_prior = dict(zip(game.strategies_i, map(float, values)))
        except OverflowError:  # a prior whose decimals sum past 1 weighs payoffs near the float limit past it
            assert sum(weights) > 1
            with pytest.raises(ValueError, match="^an expected payoff at the prior is past the float range$"):
                build_bayes_report(game, ONE_COLUMN)
            report = None
        else:
            report = build_bayes_report(game, ONE_COLUMN)
            assert report["expected_payoffs_at_prior"] == at_prior
            assert report["best_strategy_at_prior"] == game.strategies_i[values.index(max(values))]

        def crossing(r, s):
            (a_r, b_r), (a_s, b_s) = exact[r], exact[s]
            return (b_s - b_r) / ((a_r - a_s) - (b_r - b_s))

        # each breakpoint is the rounded exact crossing of the strategies named on its two sides
        index = [game.strategies_i.index(name) for name in best]
        assert len(best) == len(breakpoints) + 1 and all(r != s for r, s in zip(index, index[1:]))
        assert breakpoints == sorted(set(breakpoints)) and all(0 <= x <= 1 for x in breakpoints)
        at = [crossing(r, s) for r, s in zip(index, index[1:])]
        assert at == sorted(set(at)) and breakpoints == [float(x) for x in at]
        assert report is None or report["threshold_p"] == (breakpoints[0] if breakpoints else float(index[0] == 0))
        # between any two neighbouring crossings of two lines, -1, 0, 1 and 2 that round to
        # two floats, the strategy named there is the exact argmax, from below 0 to above 1
        pairs = itertools.combinations(range(len(lines)), 2)
        slope = [a - b for a, b in exact]
        cuts = {crossing(r, s) for r, s in pairs if slope[r] != slope[s]}
        cuts = sorted({Fraction(n) for n in range(-1, 3)} | {x for x in cuts if -1 < x < 2})
        for lo, hi in zip(cuts, cuts[1:]):
            if hi >= 0 and lo <= 1 and float(lo) != float(hi):
                mid = (lo + hi) / 2
                assert exact_argmax(exact, mid) == index[sum(x < mid for x in at)]

    @given(
        lines=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=2, max_size=5),
        step=st.integers(0, 48),
    )
    def test_best_strategy_at_prior_agrees_off_the_breakpoints(self, lines, step):
        # priors on a 1/48 grid sit at least 1/1152 from any crossing they miss
        p = step / 48
        game = row_lines(lines, prior=(p, 1 - p))
        try:
            breakpoints, best = best_response_envelope(game, ONE_COLUMN)
        except NoDependenceOnPrior:
            return
        if p not in breakpoints:
            report = build_bayes_report(game, ONE_COLUMN)
            assert report["best_strategy_at_prior"] == best[sum(x < p for x in breakpoints)]


class TestValidation:
    def test_unknown_response_label(self, bundled):
        with pytest.raises(UnknownLabel):
            expected_payoffs(bundled, {"a": "sideways", "b": "high"})

    def test_missing_response_type(self, bundled):
        with pytest.raises(UnknownLabel):
            best_response_envelope(bundled, {"a": "high"})

    @pytest.mark.parametrize(
        "responses, message",
        [
            ({"a": "high", "b": "high", "c": "high"}, "response for unknown type 'c'"),
            ({"a": "high", "b": "low", "c": "mid"}, "response for unknown type 'c'"),
        ],
        ids=["extra-type", "extra-type-and-strategy"],
    )
    def test_response_map_names_exactly_the_types(self, bundled, responses, message):
        with pytest.raises(UnknownLabel, match=f"^{message}$"):
            best_response_envelope(bundled, responses)
        with pytest.raises(UnknownLabel, match=f"^{message}$"):
            expected_payoffs(bundled, responses)

    @pytest.mark.parametrize(
        "field, labels",
        [("types", ("a", 1)), ("strategies_i", (("high",), ("low",))), ("strategies_j", (None, "low"))],
    )
    def test_labels_must_be_strings(self, bundled, field, labels):
        matrices = dict(zip(labels, bundled.matrices.values())) if field == "types" else bundled.matrices
        with pytest.raises(ValueError, match="^labels must be strings, got "):
            bundled._replace(**{field: labels, "matrices": matrices})

    def test_table_for_unlisted_type(self, bundled):
        matrices = {**bundled.matrices, "c": (((99.0, 99.0),),)}
        with pytest.raises(ValueError, match="^matrix for unlisted type 'c'$"):
            bundled._replace(matrices=matrices)

    def test_prior_must_sum_to_one(self, bundled):
        with pytest.raises(ValueError):
            bundled._replace(prior=(0.6, 0.6))

    def test_prior_must_be_non_negative(self, bundled):
        with pytest.raises(ValueError):
            bundled._replace(prior=(1.5, -0.5))

    @pytest.mark.parametrize(
        "prior", [(math.nan, math.nan), (math.inf, 0.0), (0.5, math.nan), (-math.inf, 1.0)]
    )
    def test_prior_must_be_finite(self, bundled, prior):
        # nan passes both the sign and the sum check, since comparisons with nan are False
        with pytest.raises(ValueError, match="finite"):
            bundled._replace(prior=prior)

    @pytest.mark.parametrize(
        "prior", [(Decimal("0.35"), Decimal("0.65")), (Fraction(7, 20), Fraction(13, 20)), (True, False)]
    )
    def test_prior_weights_are_ints_or_floats(self, bundled, prior):
        # each weight is read by documents.finite_number, as a JSON prior and every payoff are:
        # a Decimal prior raised TypeError from the float sum, a Fraction or a bool one was accepted
        with pytest.raises(ValueError, match=r"^prior must be a number, got "):
            bundled._replace(prior=prior)

    @pytest.mark.parametrize("payoff", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_library_game_payoffs_must_be_finite(self, bundled, payoff, side):
        # the rule of the JSON reader, so no threshold or expected payoff reads a nan
        cell = [(payoff, 4), (5, payoff)][side]
        matrices = {**bundled.matrices, "b": (bundled.matrices["b"][0], (cell, (0, 0)))}
        with pytest.raises(ValueError, match=f"^payoff must be finite, got {payoff!r}$"):
            bundled._replace(matrices=matrices)

    @pytest.mark.parametrize(
        "cell",
        [
            [float("nan"), 1],
            [1, float("inf")],
            ["nan", 1],
            ["1", 1],
            [True, 1],
            [10**400, 1],
            [1],
            5,
        ],
        ids=["nan", "inf", "nan-text", "digit-text", "bool", "huge-int", "single", "scalar"],
    )
    def test_payoff_cells_must_be_finite_number_pairs(self, cell):
        raw = json.loads(fixture_path("bayes_large_small.json").read_text())
        raw["matrices"]["b"][1][0] = cell
        with pytest.raises(ValueError, match="payoff"):
            ConditionalGame.from_jsonable(raw)

    @pytest.mark.parametrize(
        "prior",
        [[True, False], ["0.35", "0.65"], [10**400, 0], [math.inf, 0], "0.35,0.65", 1],
        ids=["bools", "digit-text", "huge-int", "inf", "text", "scalar"],
    )
    def test_document_prior_must_be_a_list_of_finite_numbers(self, tmp_path, prior):
        raw = json.loads(fixture_path("bayes_large_small.json").read_text())
        path = tmp_path / "game.json"
        path.write_text(json.dumps({**raw, "prior": prior}))
        with pytest.raises(ValueError, match="^prior must be"):
            load_game_document(path)
