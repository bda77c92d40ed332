"""Self-test of the benchmark's generators, checkers and span arithmetic.

Usage, from the repository root: python3 perfbench/selftest.py

Every checker must pass a real report from the CLI and fail the same report
once corrupted; generation must be a pure function of (workload, seed).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from collections import Counter
from fractions import Fraction

import checks
import tracing
import workloads
from run import PER_LAYER, tail

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def cli(*argv: str) -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "liqgame.cli", *argv], env=ENV, check=True, capture_output=True
    ).stdout


def edit(report: bytes, change) -> bytes:
    doc = json.loads(report)
    change(doc)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class Generation(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            first = workloads.generate(name, 7, 3)
            again = workloads.generate(name, 7, 3)
            self.assertEqual(repr(first), repr(again), name)
            self.assertNotEqual(repr(first), repr(workloads.generate(name, 8, 3)), name)

    def test_passes_cost_the_same_on_every_seed(self):
        def shape(requests):
            return Counter(
                (r.kind, r.params.get("rows"), r.params.get("cols"), r.params.get("trials"), r.params.get("width"))
                for r in requests
            )

        for name in workloads.WORKLOADS:
            shapes = [shape(p) for seed in range(5) for p in workloads.generate(name, seed, 2)]
            self.assertTrue(all(s == shapes[0] for s in shapes), name)

    def test_solve_ladder_has_both_orientations(self):
        shapes = [(r.params["rows"], r.params["cols"]) for r in workloads.generate("solve_ladder", 1, 1)[0]]
        self.assertTrue(any(r > c for r, c in shapes) and any(r < c for r, c in shapes))


class Checkers(unittest.TestCase):
    def test_solve(self):
        good = cli("solve", "--bi", "-3", "--bj", "2")  # roles from signs: 2x3
        self.assertEqual(checks.check_solve(good, 2, 3), [])
        self.assertTrue(checks.check_solve(good, 3, 2))
        self.assertTrue(checks.check_solve(good.replace(b"\n", b"\n ", 1), 2, 3))  # digest

        def shift(doc):
            doc["mixed_equilibria"][-1]["probs_i"] = ["1", "0"]
            doc["mixed_equilibria"][-1]["probs_j"] = ["0", "0", "1"]

        self.assertTrue(checks.check_solve(edit(good, shift), 2, 3))
        self.assertTrue(checks.check_solve(b"{", 2, 3))

    def test_one_shot(self):
        good = cli("simulate", "--trials", "2000", "--seed", "5")
        p = checks.hit_probability("random", (1, 1000), "random", (-1000, -1))
        self.assertEqual(checks.check_one_shot(good, 2000, 5, p), [])
        self.assertTrue(checks.check_one_shot(good, 2000, 6, p))

        def bias(doc):
            doc["trades_executed"] = round(doc["opportunities"] * (p + 0.1))
            doc["hit_ratio"] = doc["trades_executed"] / doc["opportunities"]

        self.assertTrue(checks.check_one_shot(edit(good, bias), 2000, 5, p))

    def test_repeated(self):
        path = os.path.join(workloads.TMP, "selftest-rounds.csv")
        os.makedirs(workloads.TMP, exist_ok=True)
        good = cli("simulate", "--trials", "300", "--seed", "3", "--mode", "repeated", "--histogram", path)
        with open(path, "rb") as handle:
            csv = handle.read()
        os.unlink(path)
        self.assertEqual(checks.check_repeated(good, csv, 300, 3, 100), [])
        lost = edit(good, lambda doc: doc.update(uncleared_trials=doc["uncleared_trials"] + 1))
        self.assertTrue(checks.check_repeated(lost, csv, 300, 3, 100))
        self.assertTrue(checks.check_repeated(good, csv.replace(b"\n1,", b"\n1,9", 1), 300, 3, 100))

    def test_bayes(self):
        good = cli("bayes", "--prior", "0.75,0.25")
        self.assertEqual(checks.check_bayes(good, (0.75, 0.25)), [])
        self.assertTrue(checks.check_bayes(edit(good, lambda d: d.update(threshold_p=0.56)), (0.75, 0.25)))
        self.assertTrue(checks.check_bayes(edit(good, lambda d: d.update(best_strategy_at_prior="low")), (0.75, 0.25)))

    def test_market(self):
        good = cli("market", "--published", "final_4x4")
        self.assertEqual(checks.check_market(good, checks.PUBLISHED_FINAL), [])
        self.assertTrue(checks.check_market(edit(good, lambda d: d.update(system_total=41.2)), checks.PUBLISHED_FINAL))
        self.assertTrue(checks.check_market(edit(good, lambda d: d.update(best_quadrant=["L", "L"])), checks.PUBLISHED_FINAL))
        constructive = cli("market", "--constructive")
        self.assertEqual(checks.check_market(constructive, checks.CONSTRUCTIVE_DEFAULT), [])
        csv = cli("market", "--published", "final_4x4", "--format", "csv")
        self.assertEqual(checks.check_market_csv(csv, 41.1, 16), [])
        self.assertTrue(checks.check_market_csv(csv.replace(b"6.6", b"6.7"), 41.1, 16))

    def test_lp(self):
        self.assertEqual(checks.check_lp(cli("lp", "--receiver", "10", "--sender", "20"), 10, 20, False), [])
        self.assertTrue(checks.check_lp(b"11\n", 10, 20, False))
        good = cli("lp", "--receiver", "7", "--sender", "5", "--format", "json")
        self.assertEqual(checks.check_lp(good, 7, 5, True), [])
        self.assertTrue(checks.check_lp(edit(good, lambda d: d.update(max_transfer=7)), 7, 5, True))


class Oracles(unittest.TestCase):
    def test_exact_half_up_matches_the_cli_fractions(self):
        # The CLI's high/low fractions round the same in float and exactly,
        # so the reference parcels stay valid if the library's rounding is
        # made exact.
        for fraction in workloads.FRACTIONS.values():
            for balance in range(1, 3001):
                self.assertEqual(checks.parcel(fraction, balance), max(1, int(float(fraction) * balance + 0.5)))

    def test_hit_probability_matches_library_oracle(self):
        sys.path.insert(0, "src")
        from liqgame import sim

        specs = {"random": sim.StrategySpec("uniform_random"), "0.9": sim.HIGH_STRATEGY, "0.3": sim.LOW_STRATEGY}
        for s_i, r_i, s_j, r_j in [
            ("random", (1, 60), "random", (-60, -1)),
            ("random", (5, 40), "0.3", (-70, -9)),
            ("0.9", (3, 50), "0.3", (-45, -2)),
        ]:
            expected = sim.analytic_hit_ratio(r_i, r_j, specs[s_i], specs[s_j])
            self.assertAlmostEqual(checks.hit_probability(s_i, r_i, s_j, r_j), expected, delta=1e-12)

    def test_equilibrium_test_rejects_a_deviation(self):
        u = checks.instance_payoffs(2, 2)
        half = Fraction(1, 2)
        self.assertEqual(checks.equilibrium_problems(u, [Fraction(0), Fraction(1)], [half, half]), [])
        self.assertTrue(checks.equilibrium_problems(u, [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]))


class Measurement(unittest.TestCase):
    def test_tail_leaves_ten_requests_beyond(self):
        value, level = tail([float(k) for k in range(40)])
        self.assertEqual((value, level), (29.0, 75.0))

    def test_self_time_subtracts_children(self):
        spans = [["cli.main", 0.0, 10.0, -1], ["bayes.a", 1.0, 4.0, 0], ["bayes.b", 2.0, 3.0, 1]]
        self.assertEqual(tracing.self_times(spans), [7.0, 2.0, 1.0])
        totals, layer_self, calls = tracing.summarise(spans)
        self.assertEqual((layer_self["bayes"], calls["bayes"], totals["bayes.b"]), (3.0, 1, 1.0))

    def test_layer_metric_names_are_valid(self):
        for name in PER_LAYER:
            self.assertLessEqual(len(name), 64)


if __name__ == "__main__":
    unittest.main()
