import copy
import json
import shutil
import subprocess
import sys

import pytest

from liqgame import bayes, cli, core, fixtures, solver


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE = ["solve", "--config"]
BAYES = ["bayes", "--game"]
MARKET = ["market", "--constructive", "--config"]
SIMULATE = ["simulate", "--config"]
BAYES_DOCUMENT = json.loads(fixtures.fixture_path("bayes_large_small.json").read_text())
# the bundled game with one strategy list per side
BAYES_PAIR_DOCUMENT = {
    **{key: value for key, value in BAYES_DOCUMENT.items() if key != "strategies"},
    "strategies_i": ["high", "low"],
    "strategies_j": ["high", "low"],
}
MARKET_DOCUMENT = {
    "types": ["L"],
    "strategies": ["x"],
    "prior_i": [1],
    "prior_j": [1],
    "matrices": {"L,L": [[[1, 1]]]},
}


class TestSolveCommand:
    def test_golden_two_by_two(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "2", "--bj", "-2")
        assert code == 0
        report = json.loads(out)
        assert report["payoff_matrix"] == [[[2, 2], [0, 0]], [[1, 1], [1, 1]]]
        cells = [(eq["row"], eq["col"]) for eq in report["pure_equilibria"]]
        assert cells == [(0, 0), (1, 1)]
        assert {"probs_i": ["0", "1"], "probs_j": ["1/2", "1/2"]} in report[
            "mixed_equilibria"
        ]

    def test_golden_three_by_three(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "3", "--bj", "-3")
        assert code == 0
        report = json.loads(out)
        assert {"probs_i": ["0", "0", "1"], "probs_j": ["1/3", "1/6", "1/2"]} in report[
            "mixed_equilibria"
        ]

    def test_same_sign_balances_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--bi", "2", "--bj", "2")
        assert code == 2
        assert "SameSignBalances" in err

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text('{"balance_i": 2, "balance_j": -2, "issue_cap": 50}')
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        assert json.loads(out)["instance"]["issue_cap"] == 50

    def test_csv_format_prints_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "2", "--bj", "-2", "--format", "csv")
        assert code == 0
        assert out == "2|2,0|0\n1|1,1|1\n"

    def test_oversized_request_refused_before_the_matrix_is_built(self, capsys, monkeypatch):
        def build(instance):
            raise AssertionError("build_payoff_matrix called")

        monkeypatch.setattr(core, "build_payoff_matrix", build)
        code, out, err = run_cli(capsys, "solve", "--bi", "1000000", "--bj", "-1000000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: DimensionCapExceeded: matrix is 1000000x1000000, "
            "enumeration capped at 12 per side\n"
        )

    def test_dimension_cap_option_still_applies(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--bi", "3", "--bj", "-4", "--dimension-cap", "3")
        assert code == 2
        assert "matrix is 3x4, enumeration capped at 3 per side" in err

    def test_twelve_by_twelve_needs_no_support_enumeration(self, capsys, monkeypatch):
        def enumerate_supports(*args, **kwargs):
            raise AssertionError("solve_mixed called")

        monkeypatch.setattr(solver, "solve_mixed", enumerate_supports)
        code, out, _ = run_cli(capsys, "solve", "--bi", "12", "--bj", "-12")
        assert code == 0
        assert len(json.loads(out)["mixed_equilibria"]) == 4095

    def test_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "3", "--bj", "-2")
        assert code == 0
        instance = core.build_instance(3, -2, 1_000_000)
        assert out == cli._dumps(cli.build_solve_report(instance, 12))


class TestBayesCommand:
    def test_bundled_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "bayes")
        assert code == 0
        report = json.loads(out)
        assert report["dominant_strategies"]["a"] == {
            "strategy": "high",
            "strictness": "strict",
        }
        assert report["dominant_strategies"]["b"] == {
            "strategy": "high",
            "strictness": "weak",
        }
        assert abs(report["threshold_p"] - 5 / 9) < 1e-12
        assert report["strategy_above"] == "high"

    def test_degenerate_prior_best_response(self, capsys):
        code, out, _ = run_cli(capsys, "bayes", "--prior", "1,0")
        assert code == 0
        report = json.loads(out)
        # all weight on the large type: the type-a table's best reply to "high"
        assert report["best_strategy_at_prior"] == "high"
        assert report["expected_payoffs_at_prior"]["high"] == 10.0
        assert report["expected_payoffs_at_prior"]["low"] == 6.0

    def test_counterfactual_response(self, capsys):
        code, out, _ = run_cli(capsys, "bayes", "--response", "a=high,b=low")
        assert code == 0
        report = json.loads(out)
        assert report["threshold_p"] == 0.0
        assert report["responses"] == {"a": "high", "b": "low"}

    @pytest.mark.parametrize(
        "responses, message",
        [
            ("a=high,b=low,c=mid", "UnknownLabel: response for unknown type 'c'"),
            ("a=high,a=low,b=low", "ValueError: response for type 'a' given twice"),
        ],
        ids=["unknown-type", "repeated-type"],
    )
    def test_response_map_names_each_type_once(self, capsys, responses, message):
        code, out, err = run_cli(capsys, "bayes", "--response", responses)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_malformed_document_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "game.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "bayes", "--game", str(bad))
        assert code == 2
        assert err.startswith("error: JSONDecodeError: Expecting property name")

    @pytest.mark.parametrize("prior", ["nan,nan", "inf,0"])
    def test_non_finite_prior_exit_two(self, capsys, prior):
        code, out, err = run_cli(capsys, "bayes", "--prior", prior)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_csv_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "bayes", "--format", "csv")
        assert code == 2

    def test_fixture_directory_override(self, capsys, tmp_path, monkeypatch):
        fixture_dir = tmp_path / "alt"
        fixture_dir.mkdir()
        doc = {
            "types": ["a", "b"],
            "prior": [0.5, 0.5],
            "strategies": ["high", "low"],
            "matrices": {
                "a": [[[8, 8], [0, 0]], [[4, 4], [4, 4]]],
                "b": [[[0, 0], [0, 0]], [[4, 3], [0, 0]]],
            },
        }
        (fixture_dir / "bayes_large_small.json").write_text(json.dumps(doc))
        monkeypatch.setenv("LIQGAME_FIXTURES", str(fixture_dir))
        code, out, _ = run_cli(capsys, "bayes")
        assert code == 0
        report = json.loads(out)
        # threshold for the override game: 8p = 4p + 4(1-p) -> p = 1/2
        assert abs(report["threshold_p"] - 0.5) < 1e-12


class TestMarketCommand:
    def test_published_final_table(self, capsys):
        code, out, _ = run_cli(capsys, "market", "--published", "final_4x4")
        assert code == 0
        report = json.loads(out)
        assert report["system_total"] == 41.1
        assert report["hit_ratio"] == 0.75
        assert report["quadrants"] == {"L,L": 9.7, "L,s": 4.5, "s,L": 18.6, "s,s": 8.3}
        assert report["best_quadrant"] == ["s", "L"]

    def test_constructive_degenerate_priors(self, capsys):
        code, out, _ = run_cli(capsys, "market", "--constructive", "--priors", "1,0")
        assert code == 0
        report = json.loads(out)
        game = bayes.load_bundled_game()
        raw_total = sum(u + v for row in game.matrices["a"] for (u, v) in row)
        assert report["quadrants"]["a,a"] == pytest.approx(raw_total)
        assert report["quadrants"]["b,b"] == 0.0

    def test_cells_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "market", "--published", "final_4x4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "row_label,col_label,volume"
        assert len(out.splitlines()) == 17

    def test_constructive_missing_pair_exit_two(self, capsys, tmp_path):
        config = tmp_path / "base.json"
        config.write_text(
            json.dumps(
                {
                    "types": ["L", "s"],
                    "strategies": ["x"],
                    "prior_i": [0.5, 0.5],
                    "prior_j": [0.5, 0.5],
                    "matrices": {"L,L": [[[1, 1]]]},
                }
            )
        )
        code, _, err = run_cli(
            capsys, "market", "--constructive", "--config", str(config)
        )
        assert code == 2
        assert err == "error: ValueError: missing matrix for type pair ('L', 's')\n"

    def test_mode_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["market"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "one of the arguments --published --constructive is required" in err

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["market", "--published", "final_4x4", "--constructive"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [("--config", "/nonexistent"), ("--priors", "0.5,0.5"), ("--priors-j", "0.5,0.5")]
    )
    def test_published_refuses_constructive_options(self, capsys, option):
        code, out, err = run_cli(capsys, "market", "--published", "final_4x4", *option)
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: --published takes no {option[0]}\n"

    @pytest.mark.parametrize(
        "priors",
        [("--priors", "nan,nan"), ("--priors", "inf,0"), ("--priors-j", "0.5,nan")],
    )
    def test_constructive_non_finite_priors_exit_two(self, capsys, priors):
        code, out, err = run_cli(capsys, "market", "--constructive", *priors)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_unknown_table_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["market", "--published", "final_5x5"])
        assert exc.value.code == 2
        assert "final_4x4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,fmt,message",
        [
            (lambda lines: [lines[0].replace(",1.2,1.2", ",nan,1.2"), *lines[1:]], "json",
             "payoff must be finite, got nan"),
            (lambda lines: [lines[0].replace(",1.2,1.2", ",1.2,inf"), *lines[1:]], "json",
             "payoff must be finite, got inf"),
            (lambda lines: [lines[0].rpartition(",")[0], *lines[1:]], "json",
             "line 2: expected 4 fields, got 3"),
            (lambda lines: [lines[0] + ",9", *lines[1:]], "json",
             "line 2: expected 4 fields, got 5"),
            # the later cell used to replace the earlier one, moving the best quadrant to L,L
            (lambda lines: [*lines, "L+H,L+H,99,99"], "json", "repeated cell L+H,L+H"),
            # a bare header used to print a bare header
            (lambda lines: [], "csv", "matrix must be non-empty"),
        ],
        ids=["nan", "inf", "three-fields", "five-fields", "repeated-cell", "header-only"],
    )
    def test_bad_published_table_exit_two(self, capsys, tmp_path, monkeypatch, edit, fmt, message):
        name = fixtures.PUBLISHED_TABLES["final_4x4"]
        header, *lines = fixtures.fixture_path(name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join([header, *edit(lines)]) + "\n")
        monkeypatch.setenv("LIQGAME_FIXTURES", str(tmp_path))
        code, out, err = run_cli(capsys, "market", "--published", "final_4x4", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {message}\n"


class TestSimulateCommand:
    def test_deterministic_bytes_for_same_seed(self, capsys):
        args = ["simulate", "--trials", "200", "--seed", "42"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_seed_echoed_in_report(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--trials", "50", "--seed", "9")
        assert json.loads(out)["seed"] == 9

    def test_missing_seed_is_drawn_and_embedded(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--trials", "10")
        assert code == 0
        drawn = int(err.strip().split(":")[1])
        assert json.loads(out)["seed"] == drawn

    def test_config_file_with_overrides(self, capsys, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {
                    "trials": 5,
                    "balance_range_i": [3, 3],
                    "balance_range_j": [-5, -5],
                    "strategy_i": {"kind": "full_balance"},
                    "strategy_j": {"kind": "full_balance"},
                    "seed": 1,
                }
            )
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        report = json.loads(out)
        assert report["trades_executed"] == 5
        assert report["total_volume"] == 15

    def test_unknown_mode_exit_two(self, capsys):
        # the library's SimConfig check is the only validation of --mode
        code, out, err = run_cli(
            capsys, "simulate", "--trials", "5", "--seed", "1", "--mode", "twice"
        )
        assert code == 2
        assert out == ""
        assert "one_shot" in err

    def test_boolean_fraction_in_config_exit_two(self, capsys, tmp_path):
        config = tmp_path / "sim.json"
        strategy = {"kind": "fixed_fraction", "fraction": True}
        config.write_text(json.dumps({"trials": 5, "seed": 1, "strategy_i": strategy}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: fixed_fraction needs a fraction in (0, 1]\n"

    @pytest.mark.parametrize(
        "argv,document,message",
        [
            (
                SIMULATE,
                {"trials": 50, "seed": 1, "mod": "repeated"},
                "unknown simulation config key 'mod'",
            ),
            (SIMULATE, {"trials": 50, "sede": 1}, "unknown simulation config key 'sede'"),
            (
                SIMULATE,
                {"trials": 50, "seed": 1, "strategy_i": {"kind": "full_balance", "frac": 1}},
                "unknown strategy key 'frac'",
            ),
            (SIMULATE, [50, 1], "simulation config must be a JSON object, got list"),
            (
                SIMULATE,
                {"trials": 5, "seed": 1, "strategy_j": {"fraction": 0.5}},
                "missing strategy key 'kind'",
            ),
            (
                SIMULATE,
                {"trials": 5, "seed": 1, "strategy_i": "high"},
                "strategy must be a JSON object, got str",
            ),
            (
                SOLVE,
                {"balance_i": 3, "balance_j": -2, "issue_kap": 1},
                "unknown instance document key 'issue_kap'",
            ),
            (SOLVE, {"balance_j": -2}, "missing instance document key 'balance_i'"),
            (SOLVE, [3, -2], "instance document must be a JSON object, got list"),
            (
                BAYES,
                {**BAYES_DOCUMENT, "strategies_j": ["high", "low"], "promptly": True},
                "unknown game document key 'strategies_j'",
            ),
            (BAYES, {**BAYES_DOCUMENT, "promptly": True}, "unknown game document key 'promptly'"),
            (
                BAYES,
                {**BAYES_PAIR_DOCUMENT, "strategy_j": ["high", "low"]},
                "unknown game document key 'strategy_j'",
            ),
            (
                BAYES,
                {key: value for key, value in BAYES_DOCUMENT.items() if key != "types"},
                "missing game document key 'types'",
            ),
            (
                BAYES,
                {key: value for key, value in BAYES_PAIR_DOCUMENT.items() if key != "strategies_j"},
                "missing game document key 'strategies_j'",
            ),
            (BAYES, [BAYES_DOCUMENT], "game document must be a JSON object, got list"),
            (
                BAYES,
                {**BAYES_DOCUMENT, "matrices": list(BAYES_DOCUMENT["matrices"].values())},
                "matrices must be a JSON object, got list",
            ),
            (
                MARKET,
                {**MARKET_DOCUMENT, "extra": 1},
                "unknown constructive base document key 'extra'",
            ),
            (
                MARKET,
                {key: value for key, value in MARKET_DOCUMENT.items() if key != "prior_j"},
                "missing constructive base document key 'prior_j'",
            ),
            (MARKET, "L,L", "constructive base document must be a JSON object, got str"),
            (
                MARKET,
                {**MARKET_DOCUMENT, "matrices": [[[[1, 1]]]]},
                "matrices must be a JSON object, got list",
            ),
        ],
        ids=[
            "mode",
            "seed",
            "strategy",
            "simulate-not-object",
            "strategy-missing-kind",
            "strategy-not-object",
            "instance-unknown",
            "instance-missing",
            "instance-not-object",
            "game-both-forms",
            "game-unknown",
            "game-pair-form-unknown",
            "game-missing-types",
            "game-missing-pair-side",
            "game-not-object",
            "game-matrices-not-object",
            "base-unknown",
            "base-missing",
            "base-not-object",
            "base-matrices-not-object",
        ],
    )
    def test_unknown_config_key_exit_two(self, capsys, tmp_path, argv, document, message):
        # a mistyped key must not fall back to the default it meant to
        # replace: one-shot play, a drawn seed, an unread fraction, the
        # default issue cap or one side's strategies for both; every JSON
        # document follows one key rule
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_invalid_range_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--trials", "5", "--seed", "1", "--range-i", "0:10"
        )
        assert code == 2
        assert "balance_range_i" in err

    def test_writes_histogram_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        hist_path = tmp_path / "rounds.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--trials",
            "20",
            "--seed",
            "3",
            "--mode",
            "repeated",
            "--range-i",
            "1:10",
            "--range-j=-10:-1",
            "--output",
            str(out_path),
            "--histogram",
            str(hist_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["mode"] == "repeated"
        assert hist_path.read_text().startswith("rounds,count\n")


class TestLpCommand:
    def test_prints_integer(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "--receiver", "10", "--sender", "20")
        assert code == 0
        assert out == "10\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "lp", "--receiver", "0", "--sender", "7", "--format", "json"
        )
        assert json.loads(out) == {"receiver": 0, "sender": 7, "max_transfer": 0}

    def test_negative_input_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "lp", "--receiver", "-1", "--sender", "7")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--bi", "2", "--bj", "-2"),
        ("bayes",),
        ("market", "--published", "final_4x4"),
        ("lp", "--receiver", "10", "--sender", "20"),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_rejected_where_nothing_is_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["5", "null", "[1, 2]"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config"],
        ["simulate", "--seed", "1", "--config"],
        ["bayes", "--game"],
        ["market", "--constructive", "--config"],
    ],
    ids=["solve", "simulate", "bayes", "market"],
)
def test_non_object_document_exit_two(capsys, tmp_path, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(document)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert "ValueError" in err and "must be a JSON object" in err


@pytest.mark.parametrize(
    "argv,document",
    [
        (["simulate", "--config"], {"trials": "many", "seed": 1}),
        (["simulate", "--config"], {"trials": 10, "seed": "x"}),
        (["simulate", "--config"], {"trials": 10, "seed": 1, "balance_range_i": 5}),
        (["bayes", "--game"], {**BAYES_DOCUMENT, "types": 5}),
        (["market", "--constructive", "--config"], {**MARKET_DOCUMENT, "matrices": 5}),
    ],
    ids=["simulate-trials", "simulate-seed", "simulate-range", "bayes-types", "market-matrices"],
)
def test_wrong_typed_field_exit_two(capsys, tmp_path, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config"],
        ["market", "--constructive", "--config"],
        ["simulate", "--config"],
    ],
    ids=["solve", "market", "simulate"],
)
def test_malformed_json_exit_two(capsys, tmp_path, argv):
    # as TestBayesCommand's --game case: JSONDecodeError is a ValueError,
    # which main reports under its own name
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: JSONDecodeError: Expecting property name")


# a complete two-type base, so a bad cell is the only fault
MARKET_TWO_TYPES = {
    "types": ["L", "s"],
    "strategies": ["x"],
    "prior_i": [0.5, 0.5],
    "prior_j": [0.5, 0.5],
    "matrices": {key: [[[1, 1]]] for key in ("L,L", "L,s", "s,L", "s,s")},
}


@pytest.mark.parametrize(
    "cell",
    [["nan", 1], [float("nan"), 1], [1, float("inf")], [float("-inf"), 1]],
    ids=["nan-text", "nan", "inf", "minus-inf"],
)
@pytest.mark.parametrize(
    "argv,document,key",
    [
        (["bayes", "--game"], BAYES_DOCUMENT, "a"),
        (["market", "--constructive", "--config"], MARKET_TWO_TYPES, "L,L"),
    ],
    ids=["bayes", "market"],
)
def test_non_finite_payoff_cell_exit_two(capsys, tmp_path, argv, document, key, cell):
    document = copy.deepcopy(document)
    document["matrices"][key][0][0] = cell
    path = tmp_path / "doc.json"
    # json writes NaN and Infinity tokens, which the readers' json.loads accepts
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError: payoff must be")


@pytest.mark.parametrize(
    "weight",
    [True, "0.5", float("nan"), float("inf"), 10**400],
    ids=["boolean", "numeric-text", "nan", "inf", "400-digit-int"],
)
@pytest.mark.parametrize(
    "argv,document,key",
    [
        (["bayes", "--game"], BAYES_DOCUMENT, "prior"),
        (["market", "--constructive", "--config"], MARKET_TWO_TYPES, "prior_i"),
        (["market", "--constructive", "--config"], MARKET_TWO_TYPES, "prior_j"),
    ],
    ids=["bayes", "market-i", "market-j"],
)
def test_prior_weights_must_be_finite_numbers(capsys, tmp_path, argv, document, key, weight):
    document = copy.deepcopy(document)
    document[key][0] = weight
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError: prior must be")


# a two-type, two-strategy base, so one fault at a time can be planted
MARKET_TWO_BY_TWO = {
    **MARKET_TWO_TYPES,
    "strategies": ["x", "y"],
    "matrices": {key: [[[1, 1], [0, 0]], [[0, 0], [1, 1]]] for key in MARKET_TWO_TYPES["matrices"]},
}


class TestOneGameRule:
    """``bayes`` and ``market --constructive`` share one rule for priors,
    table shapes and labels."""

    @pytest.mark.parametrize(
        "option", [("--priors", "0.3,0.3"), ("--priors-j", "0.3,0.3")], ids=["both", "column"]
    )
    def test_constructive_priors_must_sum_to_one(self, capsys, option):
        code, out, err = run_cli(capsys, "market", "--constructive", *option)
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: prior must sum to 1, got 0.6\n"

    @pytest.mark.parametrize("key", ["prior_i", "prior_j"])
    def test_config_priors_must_sum_to_one(self, capsys, tmp_path, key):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({**MARKET_TWO_BY_TWO, key: [0.3, 0.3]}))
        code, out, err = run_cli(capsys, "market", "--constructive", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: prior must sum to 1, got 0.6\n"

    @pytest.mark.parametrize(
        "grid",
        [[[[1, 1]]], [[[1, 1], [0, 0], [2, 2]], [[0, 0], [1, 1], [2, 2]], [[2, 2], [2, 2], [2, 2]]]],
        ids=["smaller", "larger"],
    )
    def test_config_table_shape_is_checked(self, capsys, tmp_path, grid):
        document = copy.deepcopy(MARKET_TWO_BY_TWO)
        document["matrices"]["L,L"] = grid
        path = tmp_path / "base.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "market", "--constructive", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: matrix for type pair ('L', 'L') has wrong dimensions\n"

    @pytest.mark.parametrize(
        "argv,document,labels",
        [
            (["bayes", "--game"], {**BAYES_DOCUMENT, "types": ["a", "a"]}, ["a", "a"]),
            (
                ["bayes", "--game"],
                {**BAYES_DOCUMENT, "strategies": ["high", "high"]},
                ["high", "high"],
            ),
            (
                ["market", "--constructive", "--config"],
                {**MARKET_TWO_BY_TWO, "strategies": ["x", "x"]},
                ["x", "x"],
            ),
            (
                ["market", "--constructive", "--config"],
                {
                    **MARKET_TWO_BY_TWO,
                    "types": ["L", "s", "s"],
                    "prior_i": [0.5, 0.25, 0.25],
                    "prior_j": [0.5, 0.25, 0.25],
                },
                ["L", "s", "s"],
            ),
        ],
        ids=["bayes-types", "bayes-strategies", "market-strategies", "market-types"],
    )
    def test_repeated_labels_exit_two(self, capsys, tmp_path, argv, document, labels):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: labels must be distinct, got {labels}\n"


    @pytest.mark.parametrize(
        "argv,document,labels",
        [
            (["bayes", "--game"], {**BAYES_DOCUMENT, "types": [["a"], ["b"]]}, [["a"], ["b"]]),
            (["bayes", "--game"], {**BAYES_DOCUMENT, "strategies": [1, 2]}, [1, 2]),
            (
                ["market", "--constructive", "--config"],
                {**MARKET_TWO_BY_TWO, "types": [["L"], ["s"]]},
                [["L"], ["s"]],
            ),
            (
                ["market", "--constructive", "--config"],
                {**MARKET_TWO_BY_TWO, "strategies": ["x", None]},
                ["x", None],
            ),
        ],
        ids=["bayes-types", "bayes-strategies", "market-types", "market-strategies"],
    )
    def test_labels_must_be_strings(self, capsys, tmp_path, argv, document, labels):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: labels must be strings, got {labels}\n"

    @pytest.mark.parametrize(
        "argv,document,field,value",
        [
            (["bayes", "--game"], BAYES_DOCUMENT, "types", "ab"),
            (["bayes", "--game"], BAYES_DOCUMENT, "strategies", "hl"),
            (["bayes", "--game"], BAYES_DOCUMENT, "strategies", {"high": 1, "low": 2}),
            (["market", "--constructive", "--config"], MARKET_TWO_BY_TWO, "types", "Ls"),
            (["market", "--constructive", "--config"], MARKET_TWO_BY_TWO, "strategies", "xy"),
        ],
        ids=["bayes-types", "bayes-strategies", "bayes-object", "market-types", "market-strategies"],
    )
    def test_labels_must_be_a_list(self, capsys, tmp_path, argv, document, field, value):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**document, field: value}))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {field} must be a list of labels, got {value!r}\n"

    def test_split_strategy_labels_must_be_lists(self, capsys, tmp_path):
        document = {k: v for k, v in BAYES_DOCUMENT.items() if k != "strategies"}
        document.update(strategies_i=["high", "low"], strategies_j="hl")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "bayes", "--game", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: strategies_j must be a list of labels, got 'hl'\n"

    @pytest.mark.parametrize(
        "key,message",
        [
            ("c", "type 'c'"),
            ("zz,qq", "type pair ('zz', 'qq')"),
            ("nocomma", "type pair ('nocomma', '')"),
            ("L,s,s", "type pair ('L', 's,s')"),
        ],
        ids=["bayes", "market-unlisted-types", "market-no-comma", "market-two-commas"],
    )
    def test_table_for_unlisted_type_exit_two(self, capsys, tmp_path, key, message):
        if key == "c":
            argv, document = ["bayes", "--game"], copy.deepcopy(BAYES_DOCUMENT)
        else:
            argv, document = ["market", "--constructive", "--config"], copy.deepcopy(MARKET_TWO_BY_TWO)
        # a well-shaped table, so the key is the only fault
        document["matrices"][key] = next(iter(document["matrices"].values()))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: matrix for unlisted {message}\n"

    @pytest.mark.parametrize("fault", ["missing", "misshapen", "unlisted"])
    @pytest.mark.parametrize(
        "argv,base,listed,unlisted",
        [
            (["bayes", "--game"], BAYES_DOCUMENT, ("b", "type 'b'"), ("c", "type 'c'")),
            (
                ["market", "--constructive", "--config"],
                MARKET_TWO_BY_TWO,
                ("L,s", "type pair ('L', 's')"),
                ("zz,qq", "type pair ('zz', 'qq')"),
            ),
        ],
        ids=["bayes", "market"],
    )
    def test_table_faults_meet_one_rule(
        self, capsys, tmp_path, fault, argv, base, listed, unlisted
    ):
        # both readers hand their tables to core.check_tables, so each fault
        # reads the same, the key written as its repr
        (key, name), (extra_key, extra_name) = listed, unlisted
        document = copy.deepcopy(base)
        tables = document["matrices"]
        if fault == "missing":
            del tables[key]
            message = f"missing matrix for {name}"
        elif fault == "misshapen":
            tables[key] = [[[1, 1]]]
            message = f"matrix for {name} has wrong dimensions"
        else:
            tables[extra_key] = tables[key]
            message = f"matrix for unlisted {extra_name}"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {message}\n"


class TestThinAdapter:
    def test_market_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "market", "--published", "final_4x4")
        assert code == 0
        from liqgame import market

        matrix = market.load_published_matrix("final_4x4")
        assert out == cli._dumps(cli.build_market_report(matrix, "published", "final_4x4"))

    def test_bayes_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "bayes")
        assert code == 0
        assert out == cli._dumps(cli.build_bayes_report(bayes.load_bundled_game()))

    def test_simulate_matches_library_serialization(self, capsys):
        from liqgame import sim

        code, out, _ = run_cli(capsys, "simulate", "--trials", "500", "--seed", "42")
        assert code == 0
        assert out == cli._dumps(sim.run_simulation(sim.SimConfig(trials=500, seed=42)).to_jsonable())

    @pytest.mark.parametrize(
        "name,kind,fraction",
        [
            ("fraction:0.7", "fixed_fraction", 0.7),
            ("low", "fixed_fraction", 0.3),
            ("full", "full_balance", None),
        ],
    )
    def test_simulate_strategy_flags_reach_the_config(self, capsys, name, kind, fraction):
        from liqgame import sim

        argv = ["simulate", "--trials", "50", "--seed", "3", "--strategy-i", name]
        code, out, _ = run_cli(capsys, *argv, "--strategy-j", "random")
        assert code == 0
        config = sim.SimConfig(trials=50, strategy_i=sim.StrategySpec(kind, fraction), seed=3)
        assert out == cli._dumps(sim.run_simulation(config).to_jsonable())


# every subcommand form that writes a report
OUTPUT_FORMS = [
    ("solve", "--bi", "3", "--bj", "-2"),
    ("solve", "--bi", "3", "--bj", "-2", "--format", "csv"),
    ("bayes",),
    ("market", "--published", "final_4x4"),
    ("market", "--published", "final_4x4", "--format", "csv"),
    ("market", "--constructive"),
    ("simulate", "--trials", "50", "--seed", "5"),
    ("simulate", "--trials", "50", "--seed", "5", "--format", "csv"),
    ("lp", "--receiver", "10", "--sender", "20"),
    ("lp", "--receiver", "10", "--sender", "20", "--format", "json"),
]


class TestOutputHandling:
    @pytest.mark.parametrize("argv", OUTPUT_FORMS, ids="-".join)
    def test_output_file_holds_the_printed_bytes(self, capsys, tmp_path, argv):
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert printed
        target = tmp_path / "report"
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes() == printed.encode()
        assert list(tmp_path.iterdir()) == [target]

    def test_histogram_holds_the_csv_report(self, capsys, tmp_path):
        argv = ("simulate", "--trials", "200", "--seed", "3", "--mode", "repeated")
        code, printed, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        histogram = tmp_path / "rounds.csv"
        code, _, _ = run_cli(capsys, *argv, "--histogram", str(histogram))
        assert code == 0
        assert histogram.read_bytes() == printed.encode()

    def test_report_written_after_the_histogram(self, capsys, tmp_path):
        # one file named twice ends up holding the report
        target = tmp_path / "both"
        argv = ("simulate", "--trials", "20", "--seed", "3", "--output", str(target))
        code, _, _ = run_cli(capsys, *argv, "--histogram", str(target))
        assert code == 0
        assert json.loads(target.read_text())["seed"] == 3
        assert list(tmp_path.iterdir()) == [target]

    def test_output_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "solve", "--bi", "2", "--bj", "-2", "--output", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["instance"]["balance_i"] == 2
        assert list(tmp_path.iterdir()) == [target]

    def test_no_output_file_on_failure(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "solve", "--bi", "2", "--bj", "2", "--output", str(target)
        )
        assert code == 2
        assert not target.exists()

    def test_key_error_is_a_program_fault(self, capsys, monkeypatch):
        # every reader checks its document's keys first, so a KeyError that
        # reaches main is a bug, reported as any other: exit 1, with a traceback
        def broken(args):
            raise KeyError("capacity")

        monkeypatch.setattr(cli, "_cmd_lp", broken)
        code, out, err = run_cli(capsys, "lp", "--receiver", "1", "--sender", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("KeyError: 'capacity'\n")

    def test_unexpected_exception_exits_one_with_traceback(self, capsys, monkeypatch):
        from liqgame import lp

        def broken(problem):
            raise RuntimeError("broken layer")

        monkeypatch.setattr(lp, "max_transfer", broken)
        code, out, err = run_cli(capsys, "lp", "--receiver", "1", "--sender", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: broken layer\n")

    def test_console_entry_point(self):
        exe = shutil.which("liqgame")
        if exe is None:
            command = [sys.executable, "-m", "liqgame.cli"]
        else:
            command = [exe]
        proc = subprocess.run(
            command + ["lp", "--receiver", "13", "--sender", "13"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "13\n"
