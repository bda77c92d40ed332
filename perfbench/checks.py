"""Output checks, independent of liqgame's code and of its random stream.

Each ``check_*`` function returns a list of problems; an empty list means the
report is correct. The reference values come from the paper (5/9 threshold,
41.1 total, hit ratio 0.75, best quadrant s,L, transfer 10), from exact
arithmetic done here, and from report digests recorded from the seed code
(``digests.json``) for outputs that must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())
DEFAULT_CAP = 1_000_000
SIGMAS = 5  # one-shot hit ratio must lie within this many standard errors


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def instance_payoffs(rows: int, cols: int) -> list[list[int]]:
    """Both players' payoff in the rows x cols instance game: the row parcel
    moves when it fits the column capacity. Actions run n..1."""
    return [[q if q <= cap else 0 for cap in range(cols, 0, -1)] for q in range(rows, 0, -1)]


def equilibrium_problems(u: list[list[int]], probs_i, probs_j) -> list[str]:
    """Zero-tolerance Nash test of an exact profile in a game where both
    players receive the same payoff ``u``."""
    rows, cols = len(u), len(u[0])
    if len(probs_i) != rows or len(probs_j) != cols:
        return [f"profile shape {len(probs_i)}x{len(probs_j)} != {rows}x{cols}"]
    for probs in (probs_i, probs_j):
        if any(p < 0 for p in probs) or sum(probs) != 1:
            return [f"not a distribution: {[str(p) for p in probs]}"]
    row_values = [sum(u[r][c] * probs_j[c] for c in range(cols)) for r in range(rows)]
    col_values = [sum(u[r][c] * probs_i[r] for r in range(rows)) for c in range(cols)]
    value_i = sum(p * v for p, v in zip(probs_i, row_values))
    value_j = sum(q * v for q, v in zip(probs_j, col_values))
    if max(row_values) > value_i or max(col_values) > value_j:
        return [f"profile {[str(p) for p in probs_i]} / {[str(q) for q in probs_j]} has a gainful deviation"]
    return []


def check_solve(stdout: bytes, rows: int, cols: int) -> list[str]:
    key = f"{rows}x{cols}"
    if key not in DIGESTS:
        return [f"no reference digest for {key}"]
    try:
        report = json.loads(stdout)
        u = instance_payoffs(rows, cols)
        problems = []
        if report["instance"] != {"balance_i": rows, "balance_j": -cols, "issue_cap": DEFAULT_CAP}:
            problems.append(f"instance {report['instance']}")
        if report["payoff_matrix"] != [[[v, v] for v in row] for row in u]:
            problems.append("payoff matrix differs from the acceptance rule")
        for eq in report["pure_equilibria"]:
            r, c = eq["row"], eq["col"]
            if u[r][c] != max(u[k][c] for k in range(rows)) or u[r][c] != max(u[r]):
                problems.append(f"pure cell ({r},{c}) is not an equilibrium")
        mixed = report["mixed_equilibria"]
        if not mixed:
            problems.append("no mixed equilibria")
        for profile in mixed:
            probs_i = [Fraction(p) for p in profile["probs_i"]]
            probs_j = [Fraction(q) for q in profile["probs_j"]]
            problems += equilibrium_problems(u, probs_i, probs_j)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed solve report: {exc!r}"]
    if digest(stdout) != DIGESTS[key]:
        problems.append(f"{key} report bytes differ from the reference digest")
    return problems


def parcel(fraction: str, balance: int) -> int:
    """Half-up rounding of fraction x balance, done exactly, at least 1."""
    return max(1, math.floor(Fraction(fraction) * balance + Fraction(1, 2)))


def _parcel_pmf(strategy: str, lo: int, hi: int) -> dict[int, float]:
    """Parcel distribution when the absolute balance is uniform on lo..hi.
    ``strategy`` is "random" or a decimal fraction such as "0.9"."""
    width = hi - lo + 1
    if strategy == "random":
        # P(parcel = v) = (1/width) * sum over balances b >= v of 1/b.
        pmf, tail = {}, 0.0
        for b in range(hi, 0, -1):
            if b >= lo:
                tail += 1.0 / b
            pmf[b] = tail / width
        return pmf
    pmf: dict[int, float] = {}
    for b in range(lo, hi + 1):
        v = parcel(strategy, b)
        pmf[v] = pmf.get(v, 0.0) + 1.0 / width
    return pmf


def hit_probability(strategy_i: str, range_i, strategy_j: str, range_j) -> float:
    """P(offer <= capacity) for one round: balances uniform on their ranges
    (range_j negative), parcels drawn by each player's strategy."""
    offers = _parcel_pmf(strategy_i, range_i[0], range_i[1])
    capacities = _parcel_pmf(strategy_j, -range_j[1], -range_j[0])
    top = max(max(offers), max(capacities))
    at_least = [0.0] * (top + 2)  # at_least[v] = P(capacity >= v)
    for v in range(top, 0, -1):
        at_least[v] = at_least[v + 1] + capacities.get(v, 0.0)
    return sum(p * at_least[v] for v, p in offers.items())


def _sim_common(report: dict, trials: int, seed: int, mode: str) -> list[str]:
    problems = []
    if (report["trials"], report["seed"], report["mode"]) != (trials, seed, mode):
        problems.append(f"echoed config {report['trials']}, {report['seed']}, {report['mode']}")
    trades, rounds = report["trades_executed"], report["opportunities"]
    if not 0 <= trades <= rounds or report["hit_ratio"] != trades / rounds:
        problems.append(f"hit ratio {report['hit_ratio']} from {trades}/{rounds}")
    if not math.isclose(report["mean_volume_per_trial"], report["total_volume"] / trials, rel_tol=1e-12):
        problems.append("mean volume disagrees with total volume")
    return problems


def check_one_shot(stdout: bytes, trials: int, seed: int, expected_hit: float) -> list[str]:
    try:
        report = json.loads(stdout)
        problems = _sim_common(report, trials, seed, "one_shot")
        if report["opportunities"] != trials:
            problems.append(f"one-shot played {report['opportunities']} rounds for {trials} trials")
        if report["rounds_to_clear_histogram"] or report["uncleared_trials"] is not None:
            problems.append("one-shot report carries repeated-mode fields")
        expected_hit = min(1.0, max(0.0, expected_hit))  # float sums may overshoot
        sigma = math.sqrt(expected_hit * (1 - expected_hit) / trials)
        if abs(report["hit_ratio"] - expected_hit) > SIGMAS * sigma + 1e-12:
            problems.append(f"hit ratio {report['hit_ratio']} vs exact {expected_hit:.6f} (sigma {sigma:.2g})")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed simulate report: {exc!r}"]
    return problems


def check_repeated(stdout: bytes, histogram_csv: bytes, trials: int, seed: int, max_rounds: int) -> list[str]:
    try:
        report = json.loads(stdout)
        problems = _sim_common(report, trials, seed, "repeated")
        histogram = {int(k): v for k, v in report["rounds_to_clear_histogram"].items()}
        if sum(histogram.values()) + report["uncleared_trials"] != trials:
            problems.append("histogram total + uncleared_trials != trials")
        if any(not 1 <= k <= max_rounds or v < 1 for k, v in histogram.items()):
            problems.append("histogram key outside 1..max_rounds or empty bin")
        if report["opportunities"] < trials:
            problems.append("fewer rounds than trials")
        lines = histogram_csv.decode().splitlines()
        csv = {int(k): int(v) for k, v in (line.split(",") for line in lines[1:])}
        if lines[0] != "rounds,count" or csv != histogram:
            problems.append("histogram CSV differs from the report")
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, UnicodeDecodeError) as exc:
        return [f"malformed repeated report: {exc!r}"]
    return problems


def check_bayes(stdout: bytes, prior: tuple[float, float]) -> list[str]:
    # Bundled game with both types answering "high": E[high] = 10p, E[low] = 5 + p,
    # which cross at p = 5/9.
    try:
        report = json.loads(stdout)
        problems = []
        if not math.isclose(report["threshold_p"], 5 / 9, rel_tol=0, abs_tol=1e-12):
            problems.append(f"threshold {report['threshold_p']} != 5/9")
        if report["prior"] != list(prior):
            problems.append(f"prior {report['prior']}")
        expected = {"high": 10 * prior[0], "low": 5 + prior[0]}
        payoffs = report["expected_payoffs_at_prior"]
        if set(payoffs) != set(expected) or any(
            not math.isclose(payoffs[s], v, abs_tol=1e-9) for s, v in expected.items()
        ):
            problems.append(f"expected payoffs {payoffs} != {expected}")
        if report["best_strategy_at_prior"] != max(expected, key=expected.get):
            problems.append(f"best strategy {report['best_strategy_at_prior']}")
        if (report["strategy_above"], report["strategy_below"], report["interior"]) != ("high", "low", True):
            problems.append("threshold orientation")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed bayes report: {exc!r}"]
    return problems


PUBLISHED_FINAL = {"system_total": 41.1, "hit_ratio": 0.75, "best_quadrant": ["s", "L"]}
CONSTRUCTIVE_DEFAULT = {"system_total": 20.5, "hit_ratio": 0.5, "best_quadrant": ["b", "a"]}


def check_market(stdout: bytes, expected: dict) -> list[str]:
    try:
        report = json.loads(stdout)
        problems = [
            f"{key} {report[key]} != {value}" for key, value in expected.items() if report[key] != value
        ]
        quadrants = report["quadrants"]
        if abs(sum(quadrants.values()) - report["system_total"]) > 0.05 * len(quadrants):
            problems.append("quadrants do not add up to the system total")
        if report["best_quadrant"] != max(quadrants, key=quadrants.get).split(","):
            problems.append("best quadrant is not the largest")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed market report: {exc!r}"]
    return problems


def check_market_csv(stdout: bytes, total: float, cells: int) -> list[str]:
    try:
        lines = stdout.decode().splitlines()
        volumes = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"malformed market csv: {exc!r}"]
    problems = []
    if lines[:1] != ["row_label,col_label,volume"] or len(volumes) != cells:
        problems.append(f"csv header or cell count ({len(volumes)})")
    if round(sum(volumes), 1) != total:
        problems.append(f"csv volumes add up to {sum(volumes)}, not {total}")
    return problems


def check_lp(stdout: bytes, receiver: int, sender: int, as_json: bool) -> list[str]:
    best = min(receiver, sender)
    if not as_json:
        return [] if stdout == f"{best}\n".encode() else [f"lp printed {stdout!r}, not {best}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"malformed lp report: {exc!r}"]
    expected = {"max_transfer": best, "receiver": receiver, "sender": sender}
    return [] if report == expected else [f"lp report {report} != {expected}"]


def near(hit, probs_i, probs_j, step: Fraction) -> bool:
    """True when every coordinate of the oracle hit is within ``step`` of the profile."""
    return all(
        abs(a - b) <= step
        for a, b in zip((*hit.probs_i, *hit.probs_j), (*probs_i, *probs_j))
    )
