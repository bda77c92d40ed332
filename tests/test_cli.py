import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liqgame import bayes, cli, commands, core, documents, solver
from liqgame.commands import bayes as bayes_command
from liqgame.commands import lp as lp_command
from liqgame.commands import market as market_command
from liqgame.commands import solve as solve_command


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE = ["solve", "--config"]
# `liqgame solve --bi 12 --bj -12`; CI checks the installed package against it too
SOLVE_12X12_SHA256 = "a79fab3c7ff256b675b6d76a2ddb2f367ba35d26b727620b41286e422d769d34"
BAYES = ["bayes", "--game"]
MARKET = ["market", "--constructive", "--config"]
SIMULATE = ["simulate", "--config"]
BAYES_DOCUMENT = json.loads(documents.fixture_path("bayes_large_small.json").read_text())
# the bundled game with one strategy list per side
BAYES_PAIR_DOCUMENT = {
    **{key: value for key, value in BAYES_DOCUMENT.items() if key != "strategies"},
    "strategies_i": ["high", "low"],
    "strategies_j": ["high", "low"],
}
# the bundled game with a row strategy between its two, earning 8 and 3 against "high"
BAYES_THREE_DOCUMENT = {
    **BAYES_PAIR_DOCUMENT,
    "strategies_i": ["high", "mid", "low"],
    "matrices": {
        "a": [[[10, 10], [0, 0]], [[8, 8], [0, 0]], [[6, 6], [5, 5]]],
        "b": [[[0, 0], [0, 0]], [[3, 3], [0, 0]], [[5, 4], [0, 0]]],
    },
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

    def test_cap_option_sets_the_issue_cap(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "2", "--bj", "-2", "--cap", "50")
        assert code == 0
        assert json.loads(out)["instance"]["issue_cap"] == 50
        code, out, err = run_cli(capsys, "solve", "--bi", "3", "--bj", "-2", "--cap", "2")
        assert (code, out) == (2, "")
        assert err == "error: CapExceeded: |balance| exceeds issue_cap=2: 3, -2\n"

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text('{"balance_i": 2, "balance_j": -2, "issue_cap": 50}')
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        assert json.loads(out)["instance"]["issue_cap"] == 50

    @pytest.mark.parametrize("flag,value", [("--bi", "5"), ("--bj", "-5"), ("--cap", "50")])
    def test_config_takes_no_instance_flags(self, capsys, tmp_path, flag, value):
        # the document is the whole instance: a flag beside it used to be ignored without a word
        config = tmp_path / "instance.json"
        config.write_text('{"balance_i": 2, "balance_j": -2}')
        assert run_cli(capsys, "solve", "--config", str(config), flag, value) == (
            2,
            "",
            f"error: ValueError: --config takes no {flag}\n",
        )

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
            "error: DimensionCapExceeded: solve of a 1000000x1000000 game "
            "exceeds the work limit of 4194304\n"
        )

    def test_closed_form_count_stays_small_for_any_issue_cap(self, capsys):
        # 2^(k-1) profiles: past the limit the count is not worked out in full
        bound = str(10**30)
        argv = ["solve", "--bi", bound, "--bj", "-" + bound, "--cap", bound]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: DimensionCapExceeded: ")

    @pytest.mark.parametrize(
        "refused,admitted",
        [
            # the lines the JSON report prints: 5,244,217 and 3,835,123
            (["--bi", "17", "--bj", "-17"], ["--bi", "16", "--bj", "-17"]),
            # 8m + 33 lines for m x 1: 4,194,305 and 4,194,297
            (["--bi", "524284", "--bj", "-1"], ["--bi", "524283", "--bj", "-1"]),
            # n^2 + 20n + 20 lines for 1 x n: 4,198,321 and 4,194,224
            (["--bi", "1", "--bj", "-2039"], ["--bi", "1", "--bj", "-2038"]),
            # m*n + 6(m + n) cells: 4,196,316 and 4,194,268
            (["--bi", "2043", "--bj", "-2042", "--format", "csv"], ["--bi", "2042", "--bj", "-2042", "--format", "csv"]),
            # 7n + 6 for a thin CSV: 4,194,308 and 4,194,301
            (["--bi", "1", "--bj", "-599186", "--format", "csv"], ["--bi", "599185", "--bj", "-1", "--format", "csv"]),
        ],
        ids=["json", "json-tall", "json-wide", "csv", "csv-thin"],
    )
    def test_work_limit_refused_before_the_matrix_is_built(
        self, capsys, monkeypatch, refused, admitted
    ):
        # each format counts what it prints, one past the limit refused and
        # the count at or just under it admitted
        def build(instance):
            raise AssertionError("build_payoff_matrix called")

        with monkeypatch.context() as patched:
            patched.setattr(core, "build_payoff_matrix", build)
            code, out, err = run_cli(capsys, "solve", *refused)
            assert (code, out) == (2, "")
            m, n = refused[1], refused[3][1:]
            form = " as CSV" if "csv" in refused else ""
            assert err == (
                f"error: DimensionCapExceeded: solve of a {m}x{n} game{form} "
                "exceeds the work limit of 4194304\n"
            )
            # admitted, it goes on to build the matrix, which here fails with exit 1
            code, out, err = run_cli(capsys, "solve", *admitted)
            assert (code, out) == (1, "")
            assert err.endswith("AssertionError: build_payoff_matrix called\n")

    def test_csv_past_twelve_per_side_prints_matrix(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--bi", "13", "--bj", "-13", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            ",".join(f"{x}|{x}" if x <= y else "0|0" for y in range(13, 0, -1))
            for x in range(13, 0, -1)
        ]

    def test_dimension_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--bi", "3", "--bj", "-3", "--dimension-cap", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --dimension-cap 3\n"
        )

    def test_twelve_by_twelve_needs_no_support_enumeration(self, capsys, monkeypatch):
        def enumerate_supports(*args, **kwargs):
            raise AssertionError("solve_mixed called")

        monkeypatch.setattr(solver, "solve_mixed", enumerate_supports)
        code, out, _ = run_cli(capsys, "solve", "--bi", "12", "--bj", "-12")
        assert code == 0
        assert len(json.loads(out)["mixed_equilibria"]) == 4095
        # about 1.6 MB; perfbench/digests.json pins sides 2..8 only
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_12X12_SHA256

    def test_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bi", "3", "--bj", "-2")
        assert code == 0
        instance = core.build_instance(3, -2, 1_000_000)
        assert out == cli._dumps(solve_command.build_solve_report(instance))


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

    @pytest.mark.parametrize(
        "document, envelope",
        [
            (BAYES_THREE_DOCUMENT, ([0.5, 0.6], ["low", "mid", "high"])),
            (BAYES_PAIR_DOCUMENT, ([5 / 9], ["low", "high"])),
        ],
        ids=["three-strategies", "two-strategies"],
    )
    def test_every_report_carries_the_envelope(self, capsys, tmp_path, document, envelope):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(document))
        code, out, _ = run_cli(capsys, *BAYES, str(path))
        assert code == 0
        report = json.loads(out)
        assert (report["breakpoints"], report["best_strategies"]) == envelope
        # the threshold fields are read off the envelope: its first breakpoint and its two ends
        assert report["threshold_p"] == envelope[0][0]
        assert (report["strategy_below"], report["strategy_above"]) == (envelope[1][0], envelope[1][-1])

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

    @pytest.mark.parametrize(
        "matrices, expected",
        [
            # slopes of 2e308 overflow a float, but the lines cross exactly at 1/2
            (
                {"a": [[[1e308, 0]], [[-1e308, 0]]], "b": [[[-1e308, 0]], [[1e308, 0]]]},
                {"threshold_p": 0.5, "strategy_below": "s1", "strategy_above": "s0"},
            ),
            # both earn exactly 0.15 at the prior; summed in floats s1 earned
            # 0.15000000000000002 and was named, against the first-strategy tie rule
            (
                {"a": [[[0.3, 0]], [[0.1, 0]]], "b": [[[0, 0]], [[0.2, 0]]]},
                {"expected_payoffs_at_prior": {"s0": 0.15, "s1": 0.15}, "best_strategy_at_prior": "s0"},
            ),
        ],
        ids=["overflowing-slopes", "tie-at-the-prior"],
    )
    def test_exact_arithmetic(self, capsys, tmp_path, matrices, expected):
        document = {
            **BAYES_PAIR_DOCUMENT,
            "strategies_i": ["s0", "s1"],
            "strategies_j": ["x"],
            "prior": [0.5, 0.5],
            "matrices": matrices,
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *BAYES, str(path))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert {key: report[key] for key in expected} == expected

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

    def test_type_without_dominant_strategy_exit_two(self, capsys, tmp_path):
        # no counterparty column of type b's table is at least the other in both rows
        document = copy.deepcopy(BAYES_DOCUMENT)
        document["matrices"]["b"] = [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "bayes", "--game", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "error: LiquidityGameError: type 'b' has no dominant strategy; "
            "pass an explicit response map\n"
        )

    def test_game_document_threshold(self, capsys, tmp_path):
        doc = {
            "types": ["a", "b"],
            "prior": [0.5, 0.5],
            "strategies": ["high", "low"],
            "matrices": {
                "a": [[[8, 8], [0, 0]], [[4, 4], [4, 4]]],
                "b": [[[0, 0], [0, 0]], [[4, 3], [0, 0]]],
            },
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "bayes", "--game", str(path))
        assert code == 0
        report = json.loads(out)
        # threshold for this game: 8p = 4p + 4(1-p) -> p = 1/2
        assert abs(report["threshold_p"] - 0.5) < 1e-12


# a constructive base whose a,a cell sums to -0.04 and the other three to 0
ROUNDS_TO_ZERO = {
    "types": ["a", "b"],
    "strategies": ["x"],
    "prior_i": [1, 0],
    "prior_j": [1, 0],
    "matrices": {
        key: [[[-0.02, -0.02]]] if key == "a,a" else [[[0, 0]]]
        for key in ("a,a", "a,b", "b,a", "b,b")
    },
}


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

    def test_no_negative_zero(self, capsys, tmp_path):
        # a,a's cell sums to -0.04, which rounds to zero: written unsigned in both forms
        path = tmp_path / "base.json"
        path.write_text(json.dumps(ROUNDS_TO_ZERO))
        code, out, _ = run_cli(capsys, *MARKET, str(path), "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["a+x,a+x,0", "a+x,b+x,0", "b+x,a+x,0", "b+x,b+x,0"]
        code, out, _ = run_cli(capsys, *MARKET, str(path))
        assert code == 0
        assert "-0" not in out
        report = json.loads(out)
        assert report["quadrants"] == {"a,a": 0.0, "a,b": 0.0, "b,a": 0.0, "b,b": 0.0}
        assert math.copysign(1.0, report["quadrants"]["a,a"]) == 1.0
        assert math.copysign(1.0, report["system_total"]) == 1.0

    def test_best_quadrant_reads_the_printed_sums(self, capsys, tmp_path):
        # a,a's -0.04 prints as 0.0 like the other three, so the tie goes to a,a,
        # the earliest in table order, not to a,b, the first unrounded maximum
        path = tmp_path / "base.json"
        path.write_text(json.dumps(ROUNDS_TO_ZERO))
        code, out, _ = run_cli(capsys, *MARKET, str(path))
        assert code == 0
        assert json.loads(out)["best_quadrant"] == ["a", "a"]

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

    @staticmethod
    def one_cell_base(tmp_path, cell):
        """A two-type base document whose ("a", "a") cell is ``cell``, weighted 1."""
        zero = [[[0, 0]]]
        matrices = {"a,a": [[cell]], "a,b": zero, "b,a": zero, "b,b": zero}
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"types": ["a", "b"], "strategies": ["x"], "prior_i": [1, 0],
                                    "prior_j": [1, 0], "matrices": matrices}))
        return str(path)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_volumes_past_the_default_decimal_precision(self, capsys, tmp_path, fmt):
        # 1e27 rounded to one decimal has 29 digits, past the 28 of decimal's default context
        code, out, err = run_cli(capsys, *MARKET, self.one_cell_base(tmp_path, [1e27, 0]), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert out.splitlines()[1] == "a+x,a+x,1000000000000000000000000000"
        else:
            report = json.loads(out)
            assert (report["quadrants"]["a,a"], report["system_total"]) == (1e27, 1e27)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_volume_exit_two(self, capsys, tmp_path, fmt):
        # two finite payoffs whose sum, the cell's volume, overflows a float
        code, out, err = run_cli(capsys, *MARKET, self.one_cell_base(tmp_path, [1.7e308, 1.7e308]),
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: ValueError: volume must be finite, got inf\n"

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

    def test_intermediate_table_has_no_json_report(self, capsys):
        # its rows carry no type, so it has no quadrants; --format csv prints its cells
        for fmt in ((), ("--format", "json")):
            code, out, err = run_cli(capsys, "market", "--published", "intermediate_2x4", *fmt)
            assert code == 2
            assert out == ""
            assert err == "error: NotTwoTypes: row labels carry no type component\n"

    def test_intermediate_table_csv_bytes(self, capsys):
        # the labels as the paper writes them, "L+High" beside "s+high"
        code, out, err = run_cli(
            capsys, "market", "--published", "intermediate_2x4", "--format", "csv"
        )
        assert code == 0
        assert err == ""
        assert out == (
            "row_label,col_label,volume\n"
            "high,L+High,7\nhigh,L+low,7\nhigh,s+high,0\nhigh,s+low,0\n"
            "low,L+High,10.8\nlow,L+low,4.2\nlow,s+high,9.4\nlow,s+low,3.6\n"
        )

    def test_unknown_table_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["market", "--published", "final_5x5"])
        assert exc.value.code == 2
        assert "final_4x4" in capsys.readouterr().err

    # The ids name each fault as it read when the tables were CSV lines of
    # row_label,col_label,u_i,u_j: a three-field line was a cell of one payoff,
    # a five-field line a cell of three, and a repeated cell a label given twice.
    @pytest.mark.parametrize(
        "edit,fmt,message",
        [
            (lambda doc: doc.replace("[1.2, 1.2]", "[NaN, 1.2]", 1), "json",
             "payoff must be finite, got nan"),
            (lambda doc: doc.replace("[1.2, 1.2]", "[1.2, Infinity]", 1), "json",
             "payoff must be finite, got inf"),
            (lambda doc: doc.replace("[1.2, 1.2]", "[1.2]", 1), "json",
             "every payoff cell must be a [u, v] pair"),
            (lambda doc: doc.replace("[1.2, 1.2]", "[1.2, 1.2, 9]", 1), "json",
             "every payoff cell must be a [u, v] pair"),
            # two rows named L+H would split one quadrant's cells between them
            (lambda doc: doc.replace('"L+l", "s+H"', '"L+H", "s+H"', 1), "json",
             "labels must be distinct, got ['L+H', 'L+H', 's+H', 's+l']"),
            # an empty table used to print a bare header
            (lambda doc: '{"rows": [], "cols": [], "matrix": []}', "csv",
             "matrix must be non-empty"),
        ],
        ids=["nan", "inf", "three-fields", "five-fields", "repeated-cell", "header-only"],
    )
    def test_bad_published_table_exit_two(self, capsys, tmp_path, monkeypatch, edit, fmt, message):
        from liqgame import market

        name = "market_final_4x4.json"
        doc = edit(documents.fixture_path(name).read_text())
        (tmp_path / name).write_text(doc)
        monkeypatch.setattr(market, "fixture_path", lambda file: tmp_path / file)
        code, out, err = run_cli(capsys, "market", "--published", "final_4x4", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {message}\n"


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "argv,trials,rounds",
        [
            (["--trials", "1398102"], 1_398_102, 1),
            (["--trials", str(10**30)], 10**30, 1),
            (["--trials", "1", "--mode", "repeated", "--max-rounds", "1398102"], 1, 1_398_102),
            (["--trials", "13982", "--mode", "repeated"], 13_982, 100),
            (
                ["--trials", "10", "--mode", "repeated", "--strategy-i", "fraction:0.5", "--strategy-j", "random",
                 "--range-i", "1:20", "--range-j=-20:-1", "--max-rounds", str(10**30)],
                10,
                10**30,
            ),
        ],
        ids=["first-refused-trials", "trials-1e30", "first-refused-rounds", "default-rounds", "rounds-1e30"],
    )
    def test_work_limit_exit_two(self, capsys, argv, trials, rounds):
        # three units per trial and round: 1,398,101 of them fit under 2^22
        code, out, err = run_cli(capsys, "simulate", "--seed", "1", *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: DimensionCapExceeded: simulate of {trials} trials with a {rounds}-round budget "
            "exceeds the work limit of 4194304\n"
        )

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
        assert re.fullmatch(r"seed: \d+\n", err)
        drawn = int(err.strip().split(":")[1])
        assert json.loads(out)["seed"] == drawn

    def test_refused_request_echoes_no_seed(self, capsys):
        # the seed is drawn, but echoed only once the work check has passed
        code, out, err = run_cli(capsys, "simulate", "--trials", "1398102")
        assert (code, out) == (2, "")
        assert err == (
            "error: DimensionCapExceeded: simulate of 1398102 trials with a 1-round budget "
            "exceeds the work limit of 4194304\n"
        )

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


@pytest.mark.parametrize(
    "argv,message",
    [
        (("solve",), "pass --bi and --bj, or --config <file>"),
        (("solve", "--bi", "2"), "pass --bi and --bj, or --config <file>"),
        (("solve", "--bj", "-2"), "pass --bi and --bj, or --config <file>"),
        (("bayes", "--response", "a"), "response must look like type=strategy, got 'a'"),
        (
            ("simulate", "--seed", "1", "--strategy-i", "bogus"),
            "--strategy-i must be high, low, full, random or fraction:<x>, got 'bogus'",
        ),
        (
            ("simulate", "--seed", "1", "--strategy-i", "fraction:x"),
            "--strategy-i must be high, low, full, random or fraction:<x>, got 'fraction:x'",
        ),
        (
            ("simulate", "--seed", "1", "--strategy-j", "fraction"),
            "--strategy-j must be high, low, full, random or fraction:<x>, got 'fraction'",
        ),
        (("simulate", "--seed", "1", "--range-i", "5"), "--range-i must be two integers lo:hi, got '5'"),
        (
            ("simulate", "--seed", "1", "--range-i", "a:b"),
            "--range-i must be two integers lo:hi, got 'a:b'",
        ),
        (
            ("simulate", "--seed", "1", "--range-j", "1:x"),
            "--range-j must be two integers lo:hi, got '1:x'",
        ),
        (("bayes", "--prior", "0.5,x"), "--prior must be numbers separated by commas, got '0.5,x'"),
        (
            ("market", "--constructive", "--priors", "0.5,"),
            "--priors must be numbers separated by commas, got '0.5,'",
        ),
        (
            ("market", "--constructive", "--priors-j", "half,half"),
            "--priors-j must be numbers separated by commas, got 'half,half'",
        ),
    ],
    ids=["solve-no-input", "solve-bi-only", "solve-bj-only", "bayes-response", "strategy",
         "strategy-fraction", "strategy-fraction-empty", "range", "range-int", "range-j-int",
         "bayes-prior", "market-priors", "market-priors-j"],
)
def test_malformed_request_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bayes", "--format", "json"),
        ("bayes", "--format", "csv"),
        ("lp", "--receiver", "1", "--sender", "2", "--format", "csv"),
    ],
    ids=["bayes-json", "bayes-csv", "lp-csv"],
)
def test_format_the_subcommand_does_not_write_exits_two(capsys, tmp_path, argv):
    # bayes writes JSON alone and takes no --format; lp's is json or its plain number
    target = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--output", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,named",
    [(("--format", "csv"), "--format csv"), (("--histogram", "rounds.csv"), "--histogram"),
     (("--max-rounds", "7"), "--max-rounds")],
    ids=["format-csv", "histogram", "max-rounds"],
)
def test_one_shot_refuses_what_it_would_ignore(capsys, tmp_path, monkeypatch, flags, named):
    # one round per trial fills no histogram and reads no round limit; the refusal
    # comes before a seed is drawn, a trial is played or a file is written
    from liqgame import sim

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "run_simulation", None)
    code, out, err = run_cli(capsys, "simulate", "--trials", "5", "--output", "report", *flags)
    assert (code, out, err) == (2, "", f"error: ValueError: {named} needs --mode repeated\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "document,flags,named",
    [
        ({"trials": 10, "max_rounds": 5, "seed": 1}, (), "simulation config key 'max_rounds'"),
        ({"trials": 10, "max_rounds": 5, "seed": 1, "mode": "one_shot"}, (), "simulation config key 'max_rounds'"),
        ({"trials": 10, "max_rounds": 5, "seed": 1, "mode": "repeated"}, ("--mode", "one_shot"),
         "simulation config key 'max_rounds'"),
        ({"trials": 10, "max_rounds": 5, "seed": 1}, ("--max-rounds", "7"), "--max-rounds"),
    ],
    ids=["default-mode", "one-shot-mode", "mode-flag", "max-rounds-flag"],
)
def test_one_shot_document_refuses_max_rounds(capsys, tmp_path, monkeypatch, document, flags, named):
    # a document's round limit is refused as the flag is, not read and ignored; the
    # refusal names the flag when it was given, else the document's key
    from liqgame import sim

    monkeypatch.setattr(sim, "run_simulation", None)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *SIMULATE, str(config), *flags)
    assert (code, out, err) == (2, "", f"error: ValueError: {named} needs --mode repeated\n")


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


@pytest.mark.parametrize(
    "document",
    ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
    ids=["array", "object"],
)
@pytest.mark.parametrize(
    "argv", [SOLVE, BAYES, MARKET, SIMULATE], ids=["solve", "bayes", "market", "simulate"]
)
def test_deeply_nested_json_exit_two(capsys, tmp_path, argv, document):
    # json.loads recurses once per level and raises RecursionError, which is bad input too
    path = tmp_path / "doc.json"
    path.write_text(document)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: RecursionError: maximum recursion depth exceeded")
    assert "Traceback" not in err


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


# Leaf replacements for the reader fuzz, as JSON text: huge and tiny numbers, a
# negative zero, 2^53 + 1, the non-finite tokens json.loads accepts, bools, null,
# strings, lists, objects, and a list nested 100,000 deep (RecursionError).
FUZZ_VALUES = [
    "1" + "0" * 30, "-1" + "0" * 30, "1" + "0" * 400, "1e400", "-1e400", "1e308", "-1e308", "1e-400",
    "5e-324", "-0.0", "0", "1", "-1", "0.5", "2", "9007199254740993", "NaN", "Infinity", "-Infinity",
    "true", "false", "null", '""', '"x"', '"0.5"', '"a"', "[]", "[1, 2]", "[[1, 1]]", "{}",
    '{"kind": "uniform_random"}', "[" * 100_000 + "]" * 100_000,
]
# A valid document for each reader that a flag names.
FUZZ_DOCUMENTS = [
    (SOLVE, {"balance_i": 3, "balance_j": -2, "issue_cap": 10}),
    (BAYES, BAYES_DOCUMENT),
    (MARKET, MARKET_TWO_BY_TWO),
    (
        SIMULATE,
        {
            "trials": 40, "seed": 3, "mode": "repeated", "max_rounds": 30,
            "balance_range_i": [1, 20], "balance_range_j": [-20, -1],
            "strategy_i": {"kind": "fixed_fraction", "fraction": 0.5}, "strategy_j": {"kind": "uniform_random"},
        },
    ),
]


def _leaf_paths(node, path=()):
    """The key paths of every scalar and empty container in a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = [p for key, child in children for p in _leaf_paths(child, (*path, key))]
    return paths or [path]


class _Overran(BaseException):
    """Raised by the per-example alarm; a BaseException, so no handler of cli.main catches it."""


DEEP = FUZZ_VALUES[-1]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a real-time interval timer")
@settings(max_examples=200, deadline=None)
@given(
    reader=st.integers(0, len(FUZZ_DOCUMENTS) - 1),
    edits=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=2),
)
@example(reader=3, edits=[(0, "1" + "0" * 30)])  # simulate's trials
@example(reader=3, edits=[(3, "1" + "0" * 30)])  # simulate's max_rounds, with trials that can stall
@example(reader=2, edits=[(8, "1e308")])  # a market volume past decimal's default 28 digits
@example(reader=0, edits=[(0, DEEP)])
def test_mutated_documents_exit_zero_or_two(reader, edits):
    # one or two leaves of a valid document replaced, each picked by its index
    # modulo the leaf count; each example must finish within its 2 s alarm,
    # exit 0 or 2, print no traceback and, on exit 2, no report
    argv, document = FUZZ_DOCUMENTS[reader]
    document = copy.deepcopy(document)
    paths = _leaf_paths(document)
    replaced = {}
    for leaf, value in edits:
        *parents, last = paths[leaf % len(paths)]
        node = document
        for key in parents:
            node = node[key]
        node[last] = marker = f"@fuzz{len(replaced)}@"
        replaced[json.dumps(marker)] = value
    text = json.dumps(document)
    for marker, value in replaced.items():
        text = text.replace(marker, value)
    out, err = io.StringIO(), io.StringIO()

    def ring(signum, frame):
        raise _Overran("the example ran past its 2 s alarm")

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.json"
        path.write_text(text)
        previous = signal.signal(signal.SIGALRM, ring)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, str(path)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


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
        # both readers hand their tables to documents.check_tables, so each fault
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
        assert out == cli._dumps(market_command.build_market_report(matrix, "published", "final_4x4"))

    def test_bayes_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "bayes")
        assert code == 0
        assert out == cli._dumps(bayes_command.build_bayes_report(bayes.load_bundled_game()))

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


# each subcommand's help line and its options, in the order -h lists them, after
# the --output that every subcommand takes; --format with the forms it writes
SUBCOMMANDS = {
    "solve": (
        "payoff matrix and equilibria",
        ["--format {json,csv}", "--bi", "--bj", "--cap", "--config"],
    ),
    "bayes": ("two-type threshold analysis", ["--game", "--prior", "--response"]),
    "market": (
        "composition aggregates",
        ["--format {json,csv}", "--published", "--constructive", "--config", "--priors", "--priors-j"],
    ),
    "simulate": (
        "seeded Monte Carlo runs",
        ["--format {json,csv}", "--config", "--seed", "--trials", "--range-i", "--range-j",
         "--strategy-i", "--strategy-j", "--mode", "--max-rounds", "--histogram"],
    ),
    "lp": ("largest feasible transfer", ["--format {json}", "--receiver", "--sender"]),
}


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    """The parser adds options for the named subcommand only, and neither
    help nor errors may show it: argparse's layout varies across Python
    versions, so these check what is listed, not the bytes."""

    def test_top_level_lists_every_subcommand(self, capsys):
        out = help_text(capsys, "-h")
        assert "{solve,bayes,market,simulate,lp}" in out
        listed = re.findall(r"^ +(\w+) +(\S.*)$", out.split("positional arguments:")[1], re.M)
        assert listed == [(name, text) for name, (text, _) in SUBCOMMANDS.items()]

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_subcommand_lists_every_option(self, capsys, command):
        out = help_text(capsys, command, "-h")
        listed = re.findall(r"^  (?:-h, )?(--format \S+|--[a-z-]+)", out, re.M)
        assert listed == ["--help", "--output", *SUBCOMMANDS[command][1]]

    def test_subcommand_named_after_an_unknown_option(self, capsys):
        # the subcommand is the first argument without a dash, wherever it
        # stands, so only the unknown option is refused
        with pytest.raises(SystemExit) as exc:
            cli.main(["--bogus", "solve", "--bi", "2", "--bj", "-2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")


# every subcommand form that writes a report
OUTPUT_FORMS = [
    ("solve", "--bi", "3", "--bj", "-2"),
    ("solve", "--bi", "3", "--bj", "-2", "--format", "csv"),
    ("bayes",),
    ("market", "--published", "final_4x4"),
    ("market", "--published", "final_4x4", "--format", "csv"),
    ("market", "--constructive"),
    ("simulate", "--trials", "50", "--seed", "5"),
    ("simulate", "--trials", "50", "--seed", "5", "--mode", "repeated", "--format", "csv"),
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
        argv = ("simulate", "--trials", "20", "--seed", "3", "--mode", "repeated", "--output", str(target))
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

    def test_failed_rename_leaves_the_target_as_it_was(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "report.txt"
        target.write_text("old report\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(commands.os, "replace", refuse)
        code, out, err = run_cli(
            capsys, "lp", "--receiver", "1", "--sender", "2", "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert err == "error: OSError: rename refused\n"
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old report\n"

    def test_key_error_is_a_program_fault(self, capsys, monkeypatch):
        # every reader checks its document's keys first, so a KeyError that
        # reaches main is a bug, reported as any other: exit 1, with a traceback
        def broken(args):
            raise KeyError("capacity")

        monkeypatch.setattr(lp_command, "handle", broken)
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


class TestProcessExit:
    """``python -m liqgame.cli`` and the ``liqgame`` script run ``cli.run``:
    ``main``, then ``gc.freeze()`` so that interpreter shutdown does not
    sweep the request's heap, then ``sys.exit``."""

    SRC = str(Path(cli.__file__).resolve().parents[1])

    def child(self, *args):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": self.SRC},
            timeout=120,
        )

    def test_report_bytes_match_main_in_process(self, capsys):
        argv = ["lp", "--receiver", "13", "--sender", "10", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        proc = self.child("-m", "liqgame.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
        assert code == 0

    def test_refusal_exits_two(self):
        proc = self.child("-m", "liqgame.cli", "simulate", "--seed", "1", "--range-i", "a:b")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: ValueError: --range-i must be two integers lo:hi, got 'a:b'\n"

    def test_heap_is_frozen_when_atexit_runs(self):
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['liqgame', 'lp', '--receiver', '13', '--sender', '10']\n"
            "runpy.run_module('liqgame.cli', run_name='__main__', alter_sys=True)\n"
        )
        proc = self.child("-c", code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"10\n", b"frozen True\n")

    def test_main_in_process_freezes_nothing(self):
        code = (
            "import contextlib, gc, io; from liqgame import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['lp', '--receiver', '13', '--sender', '10']) == 0\n"
            "print(gc.get_freeze_count())\n"
        )
        proc = self.child("-c", code)
        assert (proc.returncode, proc.stdout) == (0, b"0\n")

    def test_console_script_freezes_once_after_the_report(self, capsys, monkeypatch):
        pyproject = (Path(self.SRC).parent / "pyproject.toml").read_text()
        assert 'liqgame = "liqgame.cli:run"' in pyproject.splitlines()
        written = []
        monkeypatch.setattr(gc, "freeze", lambda: written.append(capsys.readouterr().out))
        monkeypatch.setattr(sys, "argv", ["liqgame", "lp", "--receiver", "13", "--sender", "10"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert written == ["10\n"]
        assert capsys.readouterr().out == ""
