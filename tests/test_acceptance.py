"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

from liqgame import cli
from liqgame.bayes import dominant_strategy_per_type, indifference_threshold, load_bundled_game
from liqgame.core import build_instance, build_payoff_matrix
from liqgame.lp import TransferProblem, max_transfer
from liqgame.market import best_quadrant, load_published_matrix, quadrant_analysis, round1
from liqgame.sim import SimConfig, StrategySpec, analytic_hit_ratio, run_simulation
from liqgame.solver import (
    brute_force_oracle,
    find_pure_equilibria,
    solve_mixed,
    verify_equilibrium,
)

F = Fraction


def criterion(number, description):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


def run_solve(capsys, bi, bj):
    start = time.perf_counter()
    code = cli.main(["solve", "--bi", str(bi), "--bj", str(bj)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out), elapsed


@criterion(1, "golden 2x2 game: published matrix, pure set and exact mixed profile")
def test_criterion_1_golden_2x2(capsys):
    report, elapsed = run_solve(capsys, 2, -2)
    assert report["payoff_matrix"] == [[[2, 2], [0, 0]], [[1, 1], [1, 1]]]
    pure = {(eq["row"], eq["col"]) for eq in report["pure_equilibria"]}
    assert pure == {(0, 0), (1, 1)}  # the (2,2) and (1,1) parcel pairs
    assert {"probs_i": ["0", "1"], "probs_j": ["1/2", "1/2"]} in report["mixed_equilibria"]
    assert elapsed < 1.0


@criterion(2, "golden 3x3 game: diagonal pure set and exact mixed weights")
def test_criterion_2_golden_3x3(capsys):
    report, elapsed = run_solve(capsys, 3, -3)
    pure = {(eq["row"], eq["col"]) for eq in report["pure_equilibria"]}
    assert pure == {(0, 0), (1, 1), (2, 2)}
    assert {"probs_i": ["0", "0", "1"], "probs_j": ["1/3", "1/6", "1/2"]} in report[
        "mixed_equilibria"
    ]
    assert elapsed < 1.0


@criterion(3, "Bayesian threshold 5/9 with 'high' dominant for both types")
def test_criterion_3_bayesian_threshold():
    game = load_bundled_game()
    assert dominant_strategy_per_type(game, 0) == ("high", "strict")
    assert dominant_strategy_per_type(game, 1) == ("high", "weak")
    solution = indifference_threshold(game, {"a": "high", "b": "high"})
    assert abs(solution.threshold_p - 5 / 9) <= 1e-12
    assert solution.strategy_above == "high"
    assert solution.strategy_below == "low"


@criterion(4, "market aggregates: 41.1 total, 9.7/8.3 quadrants, 18.6 best, 75% hits")
def test_criterion_4_market_aggregates(capsys):
    code = cli.main(["market", "--published", "final_4x4"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["system_total"] == 41.1
    assert report["quadrants"]["L,L"] == 9.7
    assert report["quadrants"]["s,s"] == 8.3
    assert report["best_quadrant"] == ["s", "L"]
    assert report["quadrants"]["s,L"] == 18.6
    assert report["hit_ratio"] == 0.75
    # same numbers straight from the library, rounded at published precision
    analysis = quadrant_analysis(load_published_matrix("final_4x4"))
    assert round1(analysis.system_total) == 41.1
    assert best_quadrant(analysis) == ("s", "L")


@criterion(5, "diagonal theorem: instance(n, -n) has exactly its n diagonal pure equilibria")
def test_criterion_5_diagonal_theorem():
    start = time.perf_counter()
    for n in range(1, 51):
        matrix = build_payoff_matrix(build_instance(n, -n, 10_000))
        equilibria = find_pure_equilibria(matrix)
        assert len(equilibria) == n
        assert all(eq.row_index == eq.col_index for eq in equilibria)
    assert time.perf_counter() - start < 10.0


@criterion(6, "solver soundness: exact verification at 0 and oracle grid cross-check")
def test_criterion_6_solver_soundness():
    rng = random.Random(20240614)
    solved = {}
    for _ in range(500):
        b_i, b_j = rng.randint(1, 6), rng.randint(1, 6)
        if (b_i, b_j) not in solved:
            matrix = build_payoff_matrix(build_instance(b_i, -b_j, 100))
            solved[(b_i, b_j)] = (matrix, solve_mixed(matrix))
        matrix, profiles = solved[(b_i, b_j)]
        assert profiles
        for profile in profiles:
            assert verify_equilibrium(matrix, profile, F(0))
    # every exact equilibrium of the games up to 4 actions per side has a
    # passing point on the 1/200 grid within one grid step
    for b_i in range(1, 5):
        for b_j in range(1, 5):
            matrix = build_payoff_matrix(build_instance(b_i, -b_j, 100))
            for profile in solve_mixed(matrix):
                hits = brute_force_oracle(matrix, 200, around=profile, radius=1)
                assert hits, f"no grid point near {profile} for ({b_i},-{b_j})"
                tol = F(1, 200)
                assert any(
                    all(abs(a - b) <= tol for a, b in zip(hit.probs_i, profile.probs_i))
                    and all(abs(a - b) <= tol for a, b in zip(hit.probs_j, profile.probs_j))
                    for hit in hits
                )


@criterion(7, "simulation: 1e5 trials converge to the analytic hit ratio, byte-stable")
def test_criterion_7_simulation_convergence():
    start = time.perf_counter()
    config = SimConfig(
        trials=100_000,
        balance_range_i=(1, 1000),
        balance_range_j=(-1000, -1),
        strategy_i=StrategySpec("uniform_random"),
        strategy_j=StrategySpec("uniform_random"),
        seed=1234,
        mode="one_shot",
    )
    first = run_simulation(config)
    second = run_simulation(config)
    assert cli._dumps(first.to_jsonable()) == cli._dumps(second.to_jsonable())
    expected = analytic_hit_ratio(
        config.balance_range_i,
        config.balance_range_j,
        config.strategy_i,
        config.strategy_j,
    )
    sigma = math.sqrt(expected * (1 - expected) / config.trials)
    assert abs(first.hit_ratio - expected) < 3 * sigma
    assert time.perf_counter() - start < 30.0


@criterion(8, "transfer LP: published optimum plus symmetry and feasibility at scale")
def test_criterion_8_transfer_lp():
    assert max_transfer(TransferProblem(capacity_receiver=10, capacity_sender=20)) == 10
    rng = random.Random(99)
    for _ in range(10_000):
        a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
        forward = max_transfer(TransferProblem(a, b))
        assert forward == max_transfer(TransferProblem(b, a))
        assert 0 <= forward <= a and forward <= b
        assert forward == a or forward == b
