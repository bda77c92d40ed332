"""Seeded request lists for the four workloads.

A run of a workload is a fixed list of passes; a pass is a fixed multiset of
requests whose order and argument spellings come from the seed. Every pass of
a workload therefore costs the same on every seed, which keeps figures from
different seeds comparable. The same (workload, seed, passes) always gives
the same list. Why each workload exists is written in NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TMP = ".perfbench_out/tmp"


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    For the CLI workloads ``argv`` follows ``python -m liqgame.cli``; for
    ``oracle_exact`` it names a library call. ``kind`` selects the output
    check, ``params`` holds what that check needs, and ``files`` are paths the
    request writes besides stdout.
    """

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)
    files: tuple[str, ...] = ()


# Shapes with sides 4..8; rows >= cols and rows < cols give different
# equilibrium counts and solve costs, so both orientations appear. Their
# costs form three groups: two cheap, three middle (about 0.1 s of solving)
# and four heavy (0.35-0.65 s). At four passes the median falls inside the
# middle group and the tail rank (10 beyond) inside the 6x7/8x6 pair, where
# many requests cost the same, so neither rank sits in a gap between groups.
SOLVE_SHAPES = ((8, 4), (4, 8), (7, 5), (5, 7), (8, 5), (6, 7), (8, 6), (7, 7), (6, 8))
SIM_TRIALS = {"one_shot": 10_000, "hilo": 10_000, "repeated": 1_000}
QUICK_SIM_TRIALS = 300
ORACLE_WIDTHS = (125, 250, 500)
ORACLE_GAME_SIDES = range(1, 5)
ORACLE_RESOLUTION = 200
# Parcel fractions behind the CLI's "high" and "low" strategies.
FRACTIONS = {"high": "0.9", "low": "0.3"}
PRIORS = (("0.2", "0.8"), ("0.3", "0.7"), ("0.45", "0.55"), ("0.65", "0.35"), ("0.75", "0.25"), ("0.9", "0.1"))


def _solve_argv(rng: random.Random, rows: int, cols: int) -> tuple:
    # Roles come from the signs, so the short side may be passed as --bi.
    if rng.random() < 0.5:
        argv = ("solve", "--bi", str(rows), "--bj", str(-cols))
    else:
        argv = ("solve", "--bi", str(-cols), "--bj", str(rows))
    if rng.random() < 0.5:
        argv += ("--cap", "1000000")
    return argv


def _solve(rng: random.Random, rows: int, cols: int) -> Request:
    return Request("solve", _solve_argv(rng, rows, cols), {"rows": rows, "cols": cols})


def _sim_seed(rng: random.Random) -> int:
    return rng.randrange(2**64)


def _one_shot(rng: random.Random, trials: int) -> Request:
    seed = _sim_seed(rng)
    argv = ("simulate", "--trials", str(trials), "--seed", str(seed))
    if rng.random() < 0.5:
        argv += ("--strategy-i", "random", "--strategy-j", "random", "--range-i", "1:1000", "--range-j=-1000:-1")
    params = {"trials": trials, "seed": seed, "strategies": ("random", "random"), "ranges": ((1, 1000), (-1000, -1))}
    return Request("one_shot", argv, params)


def _hilo(rng: random.Random, trials: int) -> Request:
    seed = _sim_seed(rng)
    lo_i, lo_j = rng.randint(1, 1000), rng.randint(1, 1000)
    range_i, range_j = (lo_i, lo_i + 999), (-(lo_j + 999), -lo_j)
    names = ("high", "low") if rng.random() < 0.5 else ("low", "high")
    fractions = tuple(FRACTIONS[n] for n in names)
    argv = (
        "simulate", "--trials", str(trials), "--seed", str(seed),
        "--strategy-i", names[0], "--strategy-j", names[1],
        "--range-i", f"{range_i[0]}:{range_i[1]}", f"--range-j={range_j[0]}:{range_j[1]}",
    )
    params = {"trials": trials, "seed": seed, "strategies": fractions, "ranges": (range_i, range_j)}
    return Request("one_shot", argv, params)


def _repeated(rng: random.Random, trials: int) -> Request:
    seed = _sim_seed(rng)
    histogram = f"{TMP}/rounds.csv"
    argv = ("simulate", "--trials", str(trials), "--seed", str(seed), "--mode", "repeated", "--histogram", histogram)
    return Request("repeated", argv, {"trials": trials, "seed": seed, "max_rounds": 100}, (histogram,))


def solve_ladder(rng: random.Random) -> list[Request]:
    shapes = list(SOLVE_SHAPES)
    rng.shuffle(shapes)
    return [_solve(rng, rows, cols) for rows, cols in shapes]


def simulate_mc(rng: random.Random) -> list[Request]:
    requests = [
        _one_shot(rng, SIM_TRIALS["one_shot"]),
        _hilo(rng, SIM_TRIALS["hilo"]),
        _repeated(rng, SIM_TRIALS["repeated"]),
    ]
    rng.shuffle(requests)
    return requests


def cli_quick(rng: random.Random) -> list[Request]:
    prior = rng.choice(PRIORS)
    receiver, sender = rng.randint(0, 10**6), rng.randint(0, 10**6)
    requests = [
        Request("bayes", ("bayes",), {"prior": (0.35, 0.65)}),
        Request("bayes", ("bayes", "--prior", ",".join(prior)), {"prior": tuple(map(float, prior))}),
        Request("market", ("market", "--published", "final_4x4"), {"table": "final"}),
        Request("market_csv", ("market", "--published", "final_4x4", "--format", "csv")),
        Request("market", ("market", "--constructive"), {"table": "constructive"}),
        Request("lp", ("lp", "--receiver", "10", "--sender", "20"), {"receiver": 10, "sender": 20, "json": False}),
        Request(
            "lp",
            ("lp", "--receiver", str(receiver), "--sender", str(sender), "--format", "json"),
            {"receiver": receiver, "sender": sender, "json": True},
        ),
        _solve(rng, 2, 2),
        _solve(rng, 3, 3),
        _one_shot(rng, QUICK_SIM_TRIALS),
    ]
    # One bayes report goes to a file instead of stdout.
    target = rng.choice(requests[:2])
    path = f"{TMP}/report.json"
    requests.append(Request(target.kind, target.argv + ("--output", path), target.params, (path,)))
    rng.shuffle(requests)
    return requests


def oracle_exact(rng: random.Random) -> list[Request]:
    requests = []
    for width in ORACLE_WIDTHS:
        requests.append(Request(
            "analytic", ("random", (1, width), "random", (-width, -1)), {"width": width},
        ))
        lo_i, lo_j = rng.randint(1, width), rng.randint(1, width)
        fractions = (rng.choice(tuple(FRACTIONS.values())), rng.choice(tuple(FRACTIONS.values())))
        requests.append(Request(
            "analytic",
            (fractions[0], (lo_i, lo_i + width - 1), fractions[1], (-(lo_j + width - 1), -lo_j)),
            {"width": width},
        ))
    games = [(a, b) for a in ORACLE_GAME_SIDES for b in ORACLE_GAME_SIDES]
    rng.shuffle(games)
    requests += [Request("games", (rows, cols), {"rows": rows, "cols": cols}) for rows, cols in games]
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "solve_ladder": solve_ladder,
    "simulate_mc": simulate_mc,
    "cli_quick": cli_quick,
    "oracle_exact": oracle_exact,
}

# Seconds one pass takes at the seed commit on a 2-vCPU x86 VM, with the
# requests pinned to the faster vCPU (run.pin_fastest_cpu); a run of
# --seconds S makes round(S / PASS_SECONDS) passes, so a run's work depends
# only on S and its duration is about S there. solve_ladder keeps four passes
# at 20 s, where its median and tail ranks fall inside a group of shapes of
# equal cost (see SOLVE_SHAPES).
PASS_SECONDS = {"solve_ladder": 5.0, "simulate_mc": 1.65, "cli_quick": 2.15, "oracle_exact": 1.1}

# What work_per_s counts on each workload.
WORK_UNIT = {
    "solve_ladder": "support pairs",
    "simulate_mc": "trials",
    "cli_quick": "requests",
    "oracle_exact": "library calls",
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def generate(workload: str, seed: int, passes: int) -> list[list[Request]]:
    rng = random.Random(f"{workload}:{seed}")
    return [WORKLOADS[workload](rng) for _ in range(passes)]
