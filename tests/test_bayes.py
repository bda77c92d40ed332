import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liqgame.bayes import (
    ConditionalGame,
    NoDependenceOnPrior,
    UnknownLabel,
    dominant_strategy_per_type,
    expected_payoff,
    indifference_threshold,
    load_bundled_game,
    load_game_document,
)
from liqgame.fixtures import fixture_path

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
        solution = indifference_threshold(bundled, {"a": "high", "b": "high"})
        assert abs(solution.threshold_p - THRESHOLD) < 1e-12
        assert solution.strategy_above == "high"
        assert solution.strategy_below == "low"
        assert solution.interior

    @given(p=st.floats(0.0, 1.0))
    def test_threshold_does_not_read_the_prior(self, p):
        game = load_bundled_game()
        responses = {"a": "high", "b": "high"}
        solution = indifference_threshold(game._replace(prior=(p, 1 - p)), responses)
        assert solution == indifference_threshold(game, responses)
        assert abs(solution.threshold_p - THRESHOLD) < 1e-12

    def test_payoffs_cross_at_the_threshold(self, bundled):
        at = bundled._replace(prior=(THRESHOLD, 1 - THRESHOLD))
        responses = {"a": "high", "b": "high"}
        high = expected_payoff(at, "high", responses)
        low = expected_payoff(at, "low", responses)
        assert abs(high - 50 / 9) < 1e-12
        assert abs(high - low) < 1e-12
        for delta, better in ((0.01, "high"), (-0.01, "low")):
            game = bundled._replace(prior=(THRESHOLD + delta, 1 - THRESHOLD - delta))
            payoffs = {s: expected_payoff(game, s, responses) for s in ("high", "low")}
            assert max(payoffs, key=payoffs.get) == better

    def test_degenerate_prior_reduces_to_single_matrix(self, bundled):
        game = bundled._replace(prior=(1.0, 0.0))
        responses = {"a": "high", "b": "high"}
        assert expected_payoff(game, "high", responses) == 10.0
        assert expected_payoff(game, "low", responses) == 6.0
        solution = indifference_threshold(game, responses)
        # prior weight 1 sits above 5/9, matching the type-a best response
        assert solution.strategy_above == "high"
        assert 1.0 > solution.threshold_p


class TestDominance:
    def test_constant_matrix_returns_first_label_weak(self):
        flat = tuple(tuple((1.0, 1.0) for _ in range(2)) for _ in range(2))
        game = conditional(flat, flat)
        assert dominant_strategy_per_type(game, 0) == ("high", "weak")

    def test_no_dominant_strategy_is_none(self):
        cycling = (((0, 1), (0, 0)), ((0, 0), (0, 1)))
        game = conditional(cycling, cycling)
        assert dominant_strategy_per_type(game, 0) is None

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
        solution = indifference_threshold(game, {"a": "high", "b": "high"})
        assert math.isclose(solution.threshold_p, 0.5, abs_tol=1e-12)
        assert solution.interior

    def test_always_preferred_clamps_to_one(self):
        # f(p) = 2 - p stays positive on [0, 1]: "high" dominates throughout
        game = conditional(
            (((3, 0), (3, 0)), ((2, 0), (2, 0))),
            (((2, 0), (2, 0)), ((0, 0), (0, 0))),
        )
        solution = indifference_threshold(game, {"a": "high", "b": "high"})
        assert solution.threshold_p == 1.0
        assert not solution.interior
        assert solution.strategy_above == solution.strategy_below == "high"

    def test_never_preferred_clamps_to_zero(self):
        game = conditional(
            (((0, 0), (0, 0)), ((5, 0), (5, 0))),
            (((0, 0), (0, 0)), ((5, 0), (5, 0))),
        )
        solution = indifference_threshold(game, {"a": "high", "b": "high"})
        assert solution.threshold_p == 0.0
        assert not solution.interior
        assert solution.strategy_above == solution.strategy_below == "low"

    def test_identical_payoff_lines_raise(self):
        flat = tuple(tuple((2.0, 0.0) for _ in range(2)) for _ in range(2))
        game = conditional(flat, flat)
        with pytest.raises(NoDependenceOnPrior):
            indifference_threshold(game, {"a": "high", "b": "high"})

    def test_counterfactual_low_response(self):
        # responses {a: high, b: low}: E[high] = 10p vs E[low] = 6p, crossing at 0
        solution = indifference_threshold(load_bundled_game(), {"a": "high", "b": "low"})
        assert solution.threshold_p == 0.0
        assert solution.strategy_above == "high"


class TestValidation:
    def test_unknown_strategy_label(self, bundled):
        with pytest.raises(UnknownLabel):
            expected_payoff(bundled, "medium", {"a": "high", "b": "high"})

    def test_unknown_response_label(self, bundled):
        with pytest.raises(UnknownLabel):
            expected_payoff(bundled, "high", {"a": "sideways", "b": "high"})

    def test_missing_response_type(self, bundled):
        with pytest.raises(UnknownLabel):
            indifference_threshold(bundled, {"a": "high"})

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
            indifference_threshold(bundled, responses)
        with pytest.raises(UnknownLabel, match=f"^{message}$"):
            expected_payoff(bundled, "high", responses)

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
