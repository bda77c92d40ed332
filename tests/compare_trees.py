"""Compare what two source trees of liqgame write, form by form.

Usage: python tests/compare_trees.py PARENT [CHANGE]

PARENT and CHANGE each name a directory that holds ``src/liqgame``, or a git
revision of this repository, which is extracted with ``git archive``. CHANGE
defaults to the tree this script lives in. Both trees run one corpus, each in
a fresh interpreter with only its own ``src`` on the path, side by side:

- the CLI corpus, each form run in-process through ``liqgame.cli.main`` in an
  empty working directory, its input documents beside it: the exit code,
  stdout, stderr and every file it writes;
- the library corpus: the ``repr`` of each call's result, or its exception.

The script prints each form whose result differs and the count it compared,
and exits 1 when any differs. Its name does not match ``test_*.py``, so pytest
does not collect it. The corpus is built from this repository: the README's
CLI examples, the request lists of ``perfbench/workloads.py`` for seeds 1-3,
and the forms listed in ``cli_corpus`` and ``library_corpus`` below.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FIXED = ("high", "low", "full", "fraction:0.7", "fraction:0.001", "fraction:0.35")


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------- the corpus


def readme_examples() -> list[str]:
    """The ``liqgame`` lines of the first bash block after README's ``## CLI``."""
    text = (REPO / "README.md").read_text()
    block = re.search(r"```bash\n(.*?)```", text[text.index("\n## CLI\n"):], re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("liqgame ")]


def workload_forms() -> list[tuple]:
    """Every request form of the CLI workloads, and oracle_exact's library calls, for SEEDS."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    cli, library = [], []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for request in workloads.generate(name, seed, 1)[0]:
                (library if name == "oracle_exact" else cli).append(tuple(request.argv))
    return cli, library


def base_document(aa, prior=(1, 0)) -> str:
    """A constructive base of one strategy, whose a,a cell is ``aa``."""
    zero = [[[0, 0]]]
    return json.dumps({
        "types": ["a", "b"], "strategies": ["x"], "prior_i": list(prior), "prior_j": list(prior),
        "matrices": {"a,a": [[aa]], "a,b": zero, "b,a": zero, "b,b": zero},
    })


THREE_STRATEGIES = json.dumps({
    "types": ["a", "b"], "prior": [0.35, 0.65],
    "strategies_i": ["high", "mid", "low"], "strategies_j": ["high", "low"],
    "matrices": {"a": [[[10, 10], [0, 0]], [[8, 8], [0, 0]], [[6, 6], [5, 5]]],
                 "b": [[[0, 0], [0, 0]], [[3, 3], [0, 0]], [[5, 4], [0, 0]]]},
})
OVERFLOW = json.dumps({
    "types": ["a", "b"], "prior": [0.5, 0.5], "strategies_i": ["s0", "s1", "s2"], "strategies_j": ["x"],
    "matrices": {"a": [[[1e308, 0]], [[-1e308, 0]], [[0, 0]]], "b": [[[-1e308, 0]], [[1e308, 0]], [[0, 0]]]},
})


def cli_corpus() -> list[tuple[str, list[str], dict]]:
    """(name, argv, input documents by file name) for every CLI form, each named once."""
    forms = [(shlex.split(line, comments=True)[1:], {}) for line in readme_examples()]
    requests, _ = workload_forms()
    forms += [(list(argv), {}) for argv in requests]
    forms += [(["-h"], {})] + [([command, "-h"], {}) for command in ("solve", "bayes", "market", "simulate", "lp")]
    for m in range(1, 13):
        for n in range(1, 13):
            for fmt in ((), ("--format", "csv")):
                forms.append((["solve", "--bi", str(m), "--bj", str(-n), *fmt], {}))
                forms.append((["solve", "--bi", str(-n), "--bj", str(m), *fmt], {}))
    repeated = ["simulate", "--trials", "300", "--seed", "4", "--mode", "repeated"]
    forms += [(repeated + extra, {}) for extra in
              (["--format", "csv"], ["--histogram", "h.csv"], ["--format", "csv", "--histogram", "h.csv"])]
    # market: both tables in both forms, constructive priors, and volumes at the edges
    for table in ("final_4x4", "intermediate_2x4"):
        forms += [(["market", "--published", table, *fmt], {}) for fmt in ((), ("--format", "csv"))]
    for priors in ((), ("--priors", "0.2,0.8"), ("--priors", "0.5,0.5"), ("--priors", "1,0"),
                   ("--priors", "0,1"), ("--priors", "0.35,0.65", "--priors-j", "0.7,0.3")):
        forms += [(["market", "--constructive", *priors, *fmt], {}) for fmt in ((), ("--format", "csv"))]
    for aa, prior in (([1e27, 0], (1, 0)), ([-0.02, -0.02], (1, 0)), ([1.7e308, 1.7e308], (1, 0)),
                      ([0.05, 0.1], (0.5, 0.5)), ([-0.25, 0.2], (1, 0))):
        doc = {"base.json": base_document(aa, prior)}
        forms += [(["market", "--constructive", "--config", "base.json", *fmt], doc)
                  for fmt in ((), ("--format", "csv"))]
    # fixed-fraction simulate against random and against each other, in both modes
    pairs = [(s, "random") for s in FIXED] + [("random", s) for s in FIXED]
    pairs += [(s, t) for s in FIXED for t in FIXED]
    for mode in ("one_shot", "repeated"):
        for s, t in pairs:
            forms.append((["simulate", "--trials", "200", "--seed", "1", "--mode", mode,
                           "--strategy-i", s, "--strategy-j", t, "--range-i", "1:60", "--range-j=-60:-1"], {}))
    # bayes: the bundled game, priors and responses, and the three-strategy and overflow games
    forms += [(["bayes", *extra], {}) for extra in
              ((), ("--prior", "1,0"), ("--prior", "0,1"), ("--prior", "0.2,0.8"),
               ("--response", "a=high,b=low"), ("--response", "a=low,b=high"))]
    forms += [(["bayes", "--game", "three.json"], {"three.json": THREE_STRATEGIES}),
              (["bayes", "--game", "overflow.json"], {"overflow.json": OVERFLOW})]
    # malformed requests, as tests/test_cli.py makes them
    for argv in (
        ["solve"], ["solve", "--bi", "2"], ["solve", "--bj", "-2"], ["solve", "--bi", "2", "--bj", "2"],
        ["bayes", "--response", "a"], ["bayes", "--prior", "0.5,x"], ["bayes", "--prior", "nan,nan"],
        ["bayes", "--response", "a=high,b=low,c=mid"], ["bayes", "--response", "a=high,a=low,b=low"],
        ["simulate", "--seed", "1", "--strategy-i", "bogus"],
        ["simulate", "--seed", "1", "--strategy-i", "fraction:x"],
        ["simulate", "--seed", "1", "--strategy-j", "fraction"],
        ["simulate", "--seed", "1", "--strategy-i", "fraction:1.5"],
        ["simulate", "--seed", "1", "--range-i", "5"], ["simulate", "--seed", "1", "--range-i", "a:b"],
        ["simulate", "--seed", "1", "--range-j", "1:x"], ["simulate", "--seed", "1", "--range-i", "0:10"],
        ["simulate", "--trials", "5", "--seed", "1", "--mode", "twice"],
        ["market"], ["market", "--published", "final_4x4", "--constructive"],
        ["market", "--published", "final_5x5"], ["market", "--published", "final_4x4", "--priors", "0.5,0.5"],
        ["market", "--constructive", "--priors", "0.5,"], ["market", "--constructive", "--priors-j", "half,half"],
        ["market", "--constructive", "--priors", "inf,0"], ["market", "--constructive", "--priors", "0.5,0.6"],
        ["lp", "--receiver", "-1", "--sender", "7"],
        ["bayes", "--format", "json"], ["bayes", "--format", "csv"],
        ["lp", "--receiver", "1", "--sender", "2", "--format", "csv"],
        ["simulate", "--trials", "5", "--seed", "1", "--format", "csv"],
        ["simulate", "--trials", "5", "--seed", "1", "--histogram", "h.csv"],
        ["simulate", "--trials", "5", "--seed", "1", "--max-rounds", "7"],
    ):
        forms.append((argv, {}))
    for argv in (["solve", "--bi", "2", "--bj", "-2"], ["bayes"], ["market", "--published", "final_4x4"],
                 ["lp", "--receiver", "10", "--sender", "20"]):
        forms.append((argv + ["--seed", "1"], {}))
    one_shot = {"trials": 10, "max_rounds": 5, "seed": 1}
    for doc, flags in ((one_shot, []), ({**one_shot, "mode": "one_shot"}, []),
                       ({**one_shot, "mode": "repeated"}, ["--mode", "one_shot"]), (one_shot, ["--max-rounds", "7"])):
        forms.append((["simulate", "--config", "sim.json", *flags], {"sim.json": json.dumps(doc)}))
    readers = (["solve", "--config"], ["simulate", "--seed", "1", "--config"], ["bayes", "--game"],
               ["market", "--constructive", "--config"])
    for reader in readers:
        for text in ("5", "null", "[1, 2]", "{", '{"bogus": 1}', "[" * 100_000 + "]" * 100_000):
            forms.append((reader + ["doc.json"], {"doc.json": text}))
        forms.append((reader + ["missing.json"], {}))
    named, seen = [], set()
    for argv, inputs in forms:
        name = shlex.join(argv) + "".join(f" [{k}:{sha(v)}]" for k, v in sorted(inputs.items()))
        if name not in seen:
            seen.add(name)
            named.append((name, argv, inputs))
    return named


# ----------------------------------------------------------------------------- a tree's side


def run_cli_form(cli, argv: list[str], inputs: dict, src: str) -> list:
    """Exit code, stdout, stderr and written files of one CLI form, run in a fresh directory."""
    work = Path(tempfile.mkdtemp(dir="."))
    for name, text in inputs.items():
        (work / name).write_text(text)
    for flag in ("--output", "--histogram"):  # the directory a request writes into exists
        if flag in argv[:-1]:
            (work / argv[argv.index(flag) + 1]).parent.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(work)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a form that escapes main is a result too
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(here)
    written = {str(p.relative_to(work)): sha(p.read_bytes()) for p in sorted(work.rglob("*"))
               if p.is_file() and str(p.relative_to(work)) not in inputs}
    shutil.rmtree(work)
    text = [s.getvalue().replace(src, "<src>") for s in (out, err)]
    if text[1].startswith("Traceback"):  # an exit-1 fault: its frames name lines that any edit moves
        text[1] = text[1].strip().splitlines()[-1]
    return [code, sha(text[0]), sha(text[1]), written, text[1].strip().splitlines()[-1:]]


def finite_floats(rng: random.Random, count: int):
    """``count`` finite floats of uniformly random bit patterns."""
    while count:
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            count -= 1
            yield value


def decimal_copy(matrix):
    """The game with every payoff that is not an int or a Fraction as ``Fraction(str(x))``,
    the decimal its text writes, read by ``fractions`` alone."""
    from fractions import Fraction

    u_i, u_j = ([[x if type(x) in (int, Fraction) else Fraction(str(x)) for x in row] for row in u]
                for u in (matrix.u_i, matrix.u_j))
    return matrix._replace(u_i=u_i, u_j=u_j)


def checker_corpus():
    """(name, thunk) for both exact checkers on seeded 2x2 to 4x4 games whose tables hold
    floats, Decimals, Fractions, numpy.int64s or a mix, and on the inputs they refuse."""
    from decimal import Decimal
    from fractions import Fraction

    import numpy as np

    from liqgame import core, solver

    makers = {"float": lambda k: k / 10, "Decimal": lambda k: Decimal(k) / 10,
              "Fraction": lambda k: Fraction(k, 6), "int64": np.int64}
    # a mix draws each entry's kind; a Decimal does not add to a float or a Fraction, so
    # "Decimal mix" puts Decimals beside ints only and "Decimal beside float" beside floats
    kinds = {**{name: (make,) for name, make in makers.items()},
             "mix": (int, np.int64, makers["Fraction"], makers["float"]),
             "Decimal mix": (int, np.int64, makers["Decimal"]),
             "Decimal beside float": (makers["Decimal"], makers["float"])}
    tolerances = (0, Fraction(1, 7), 0.25, Decimal("0.1"), math.inf, -math.inf, math.nan)
    resolutions = {2: 12, 3: 5, 4: 3}  # the full sweep's, by the longer side
    rng, forms = random.Random(5), []
    for k in range(42):
        kind = list(kinds)[k % len(kinds)]
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        u_i, u_j = ([[rng.choice(kinds[kind])(rng.randint(-12, 12)) for _ in range(n)] for _ in range(m)]
                    for _ in range(2))
        matrix = core.PayoffMatrix(tuple(range(m)), tuple(range(n)), u_i, u_j)
        cuts = [sorted(Fraction(rng.randint(0, 12), 12) for _ in range(side - 1)) for side in (m, n)]
        drawn = solver.MixedProfile(*(tuple(b - a for a, b in zip([0, *c], [*c, 1])) for c in cuts))

        def profiles(g=matrix, drawn=drawn):
            # the equilibria of the game's decimal copy, and one drawn profile
            return [*solver.solve_mixed(decimal_copy(g)), drawn]

        name = f"{kind} game #{k} {m}x{n}"
        forms.append((f"verify_equilibrium {name}", lambda g=matrix, p=profiles: [
            [solver.verify_equilibrium(g, prof, t) for t in tolerances] for prof in p()]))
        forms.append((f"brute_force_oracle sweep {name}",
                      lambda g=matrix, r=resolutions[max(m, n)]: solver.brute_force_oracle(g, r)))
        forms.append((f"brute_force_oracle windows {name}", lambda g=matrix, p=profiles: [
            solver.brute_force_oracle(g, 40, around=prof, radius=1) for prof in p()]))
    forms += decimal_corpus()
    good = core.PayoffMatrix.from_entries([[(3, 3), (0, 5)], [(5, 0), (1, 1)]])
    pure = solver.MixedProfile((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    for bad in ("1/2", math.inf, math.nan, Decimal("Infinity")):
        game = good._replace(u_i=((bad, 0), (5, 1)))
        forms += [
            (f"verify_equilibrium payoff {bad!r}", lambda g=game: solver.verify_equilibrium(g, pure)),
            (f"brute_force_oracle sweep payoff {bad!r}", lambda g=game: solver.brute_force_oracle(g, 4)),
            (f"brute_force_oracle window payoff {bad!r}",
             lambda g=game: solver.brute_force_oracle(g, 4, around=pure)),
            (f"verify_equilibrium probs_i {bad!r}",
             lambda b=bad: solver.verify_equilibrium(good, pure._replace(probs_i=(b, Fraction(1, 2))))),
            (f"verify_equilibrium probs_j {bad!r}",
             lambda b=bad: solver.verify_equilibrium(good, pure._replace(probs_j=(Fraction(1, 2), b)))),
            (f"brute_force_oracle centre {bad!r}",
             lambda b=bad: solver.brute_force_oracle(good, 4, around=pure._replace(probs_j=(b, 0)))),
        ]
    # faults named in read order: a profile entry, then a payoff, then a side's sum, then the tolerance
    nan_payoff = good._replace(u_i=((math.nan, 0), (5, 1)))
    forms += [
        ("verify_equilibrium probs_j True", lambda: solver.verify_equilibrium(good, pure._replace(probs_j=(True, 0)))),
        ("verify_equilibrium nan payoff beside an over-unit probs_i",
         lambda: solver.verify_equilibrium(nan_payoff, pure._replace(probs_i=(1, 1)), "1/2")),
        ("verify_equilibrium inf tolerance over a nan payoff",
         lambda: solver.verify_equilibrium(nan_payoff, pure, math.inf)),
        ("brute_force_oracle bool resolution", lambda: solver.brute_force_oracle(good, True)),
        ("brute_force_oracle bool radius", lambda: solver.brute_force_oracle(good, 4, around=pure, radius=True)),
        ("brute_force_oracle float resolution", lambda: solver.brute_force_oracle(good, 2.5)),
        ("brute_force_oracle float radius", lambda: solver.brute_force_oracle(good, 4, around=pure, radius=2.5)),
    ]
    return forms


def decimal_corpus():
    """(name, thunk) for solve_mixed and both exact checkers on the two bundled float tables
    and on seeded games of floats and Decimals: the profiles checked are those of the game's
    copy in Fraction(str(x))s, the decimals its numbers write, and one drawn profile."""
    from decimal import Decimal
    from fractions import Fraction

    from liqgame import core, market, solver

    makers = {"float": lambda rng: rng.uniform(-9, 9), "float tenths": lambda rng: rng.randint(-90, 90) / 10,
              "Decimal": lambda rng: Decimal(rng.randint(-999, 999)).scaleb(rng.randint(-6, 2))}
    makers["Decimal beside float"] = lambda rng: rng.choice((makers["float tenths"], makers["Decimal"]))(rng)
    games = [(f"published {name}", market.load_published_matrix(name), 3) for name in market.PUBLISHED_TABLES]
    rng = random.Random(6)
    for k in range(12):
        kind = list(makers)[k % len(makers)]
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        u_i, u_j = ([[makers[kind](rng) for _ in range(n)] for _ in range(m)] for _ in range(2))
        games.append((f"seeded {kind} #{k} {m}x{n}", core.PayoffMatrix(tuple(range(m)), tuple(range(n)), u_i, u_j),
                      6 if max(m, n) < 3 else 4))
    forms = []
    for name, matrix, resolution in games:
        sides = (matrix.rows, matrix.cols)
        cuts = [sorted(Fraction(rng.randint(0, 12), 12) for _ in range(side - 1)) for side in sides]
        drawn = solver.MixedProfile(*(tuple(b - a for a, b in zip([0, *c], [*c, 1])) for c in cuts))

        def profiles(g=matrix, drawn=drawn):
            return [*solver.solve_mixed(decimal_copy(g)), drawn]

        forms += [
            (f"solve_mixed {name}", lambda g=matrix: solver.solve_mixed(g)),
            (f"verify_equilibrium {name}", lambda g=matrix, p=profiles: [
                [solver.verify_equilibrium(g, prof, t) for t in (0, 1e-15, Fraction(1, 7))] for prof in p()]),
            (f"brute_force_oracle sweep {name}", lambda g=matrix, r=resolution: solver.brute_force_oracle(g, r)),
            (f"brute_force_oracle windows {name}", lambda g=matrix, p=profiles: [
                solver.brute_force_oracle(g, 40, around=prof, radius=1) for prof in p()]),
        ]
    return forms


def reader_corpus():
    """(name, thunk) for solve_mixed and both exact checkers on 2x2 games holding a Decimal at
    and past the 4,300 digits core.decimal_ratio reads, and an int, a denominator or the lcm of two
    at and one bit past solver.MAX_BITS; for verify_equilibrium's weights at and past their bound;
    for the float extremes 1.797e308 and 5e-324 in one game; for both checkers on 1 x n games over n
    distinct 1,001-bit denominators; for the oracle's sweep over payoffs of up to 100,001 bits and
    over a Decimal no reader builds; and for priors given as Decimals."""
    from decimal import Decimal
    from fractions import Fraction

    from liqgame import bayes, core, market, solver

    pure = solver.MixedProfile((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
    forms = []
    for digits in (4300, 5000):
        game = core.PayoffMatrix.from_cells((1, 2), (1, 2), [[(Decimal("1" * digits), 1), (0, 0)], [(0, 0), (1, 1)]])
        forms += [(f"solve_mixed {digits}-digit Decimal", lambda g=game: solver.solve_mixed(g)),
                  (f"verify_equilibrium {digits}-digit Decimal", lambda g=game: solver.verify_equilibrium(g, pure)),
                  (f"brute_force_oracle {digits}-digit Decimal", lambda g=game: solver.brute_force_oracle(g, 4))]
    for b in (1077, 1078):  # the bits of solver.MAX_BITS, then one more
        for edge, (x, y) in {"int": (2 ** (b - 1), 1), "denominator": (Fraction(1, 2 ** (b - 1)), 1),
                             "lcm": (Fraction(1, 3**400), Fraction(1, 2 ** (b - 634)))}.items():
            game = core.PayoffMatrix.from_cells((1, 2), (1, 2), [[(x, 0), (y, 0)], [(0, 1), (0, 1)]])
            forms += [(f"solve_mixed {edge} of {b} bits", lambda g=game: solver.solve_mixed(g)),
                      (f"verify_equilibrium {edge} of {b} bits", lambda g=game: solver.verify_equilibrium(g, pure)),
                      (f"brute_force_oracle {edge} of {b} bits", lambda g=game: solver.brute_force_oracle(g, 4))]
    zeros = core.PayoffMatrix.from_entries([[(0, 0)] * 3] * 3)
    for b in (12942, 12943):  # 2k(2 * 1077 + 1 + ceil(lg k)) bits at k = 3, then one more
        t = Fraction(1, 2 ** (b - 1))
        forms.append((f"verify_equilibrium 3x3 weight over {b} bits",
                      lambda t=t: solver.verify_equilibrium(zeros, solver.MixedProfile((1, 0, 0), (1 - t, t, 0)))))
    top, tiny = 1.7976931348623157e308, 5e-324
    game = core.PayoffMatrix.from_cells((1, 2), (1, 2), [[(top, tiny), (tiny, top)], [(tiny, top), (top, tiny)]])
    forms += [("solve_mixed float extremes", lambda g=game: solver.solve_mixed(g)),
              ("verify_equilibrium float extremes", lambda g=game: [
                  solver.verify_equilibrium(g, prof, 0) for prof in solver.solve_mixed(g)])]
    for n in (100, 400, 1198):  # 1198 was the first n the checkers' count refused
        game = core.PayoffMatrix.from_cells((1,), range(n), [[(Fraction(1, 2**1000 + 2 * c + 1), 0) for c in range(n)]])
        ints = solver.MixedProfile((1,), (1,) + (0,) * (n - 1))
        forms += [(f"verify_equilibrium 1x{n} over 1,001-bit denominators",
                   lambda g=game, p=ints: solver.verify_equilibrium(g, p)),
                  (f"brute_force_oracle 1x{n} over 1,001-bit denominators",
                   lambda g=game, p=ints: solver.brute_force_oracle(g, 1, around=p, radius=0))]
    for e in (64, 10_000, 100_000):  # I indifferent, so each pair takes both sums; J gains 3 on the diagonal
        big = 2**e
        game = core.PayoffMatrix.from_entries([[(big, big + 3), (big, big)], [(big, big), (big, big + 3)]])
        forms.append((f"brute_force_oracle 2x2 sweep at 40 over 2^{e}", lambda g=game: solver.brute_force_oracle(g, 40)))
        if e == 10_000:  # the first resolution the sweep's count refused on 10,001-bit payoffs
            forms.append(("brute_force_oracle 2x2 sweep at 1181 over 2^10000",
                          lambda g=game: solver.brute_force_oracle(g, 1181)))
    game = core.PayoffMatrix.from_cells((1, 2), (1, 2), [[(Decimal("1e-99999999"), 1), (0, 0)], [(0, 0), (1, 1)]])
    forms.append(("brute_force_oracle sweep at 10**30 with a Decimal past the digit limit",
                  lambda g=game: solver.brute_force_oracle(g, 10**30)))
    prior, other = (Decimal("0.35"), Decimal("0.65")), (0.5, 0.5)
    grid = (((1.0, 1.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)))
    tables = {pair: grid for pair in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))}
    forms += [("ConditionalGame Decimal prior", lambda: bayes.load_bundled_game()._replace(prior=prior)),
              ("weight_by_priors Decimal prior_i", lambda: market.weight_by_priors("ab", "xy", tables, prior, other)),
              ("weight_by_priors Decimal prior_j", lambda: market.weight_by_priors("ab", "xy", tables, other, prior))]
    return forms


def library_corpus(oracle_requests):
    """(name, thunk) for every library form; each thunk's repr is compared."""
    from fractions import Fraction

    from liqgame import core, market, sim, solver

    forms = []
    for m in range(1, 9):
        for n in range(1, 9):
            forms.append((f"solve_mixed instance {m}x{n}", lambda m=m, n=n: solver.solve_mixed(
                core.build_payoff_matrix(core.build_instance(m, -n, 100)))))
    rng = random.Random(1)
    for k in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        entries = [[(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        forms.append((f"solve_mixed general #{k} {m}x{n}",
                      lambda e=entries: solver.solve_mixed(core.PayoffMatrix.from_entries(e))))
    # oracle_exact's calls: analytic ranges, and per instance game its profiles, checks and oracle hits
    for argv in oracle_requests:
        if len(argv) == 4:
            forms.append((f"oracle_exact analytic {argv}", lambda a=argv: sim.analytic_hit_ratio(
                a[1], a[3], *(sim.StrategySpec("uniform_random") if s == "random"
                              else sim.StrategySpec("fixed_fraction", float(s)) for s in (a[0], a[2])))))
        else:
            def checked(rows=argv[0], cols=argv[1]):
                matrix = core.build_payoff_matrix(core.build_instance(rows, -cols))
                profiles = solver.solve_mixed(matrix)
                return profiles, [(solver.verify_equilibrium(matrix, p, Fraction(0)),
                                   solver.brute_force_oracle(matrix, 200, around=p, radius=1)) for p in profiles]
            forms.append((f"oracle_exact games {argv}", checked))
    forms += checker_corpus() + reader_corpus()
    rng = random.Random(2)
    kinds = [sim.StrategySpec("uniform_random"), sim.StrategySpec("full_balance"), sim.HIGH_STRATEGY,
             sim.LOW_STRATEGY, sim.StrategySpec("fixed_fraction", 0.7), sim.StrategySpec("fixed_fraction", 0.35)]
    for k in range(120):
        scale = rng.choice((1, 10**3, 10**6, 10**30))
        lo_i, lo_j = rng.randint(1, 1000) * scale, rng.randint(1, 1000) * scale
        r_i, r_j = (lo_i, lo_i + rng.randint(0, 300)), (-(lo_j + rng.randint(0, 300)), -lo_j)
        s_i, s_j = rng.choice(kinds), rng.choice(kinds)
        forms.append((f"analytic_hit_ratio #{k} {r_i} {r_j} {s_i} {s_j}",
                      lambda a=(r_i, r_j, s_i, s_j): sim.analytic_hit_ratio(*a)))

    def envelope(seed):
        from liqgame import bayes
        rng = random.Random(seed)
        rows, decimals = rng.randint(1, 5), rng.random() < 0.5
        value = (lambda: round(rng.uniform(-9, 9), 2)) if decimals else (lambda: rng.randint(-5, 5))
        labels = tuple(f"s{r}" for r in range(rows))
        matrices = {t: tuple(tuple((value(), value()) for _ in range(2)) for _ in range(rows)) for t in "ab"}
        weight = round(rng.random(), 2)
        game = bayes.ConditionalGame(("a", "b"), labels, ("x", "y"), matrices, (weight, round(1 - weight, 2)))
        response = {"a": rng.choice("xy"), "b": rng.choice("xy")}
        return bayes.best_response_envelope(game, response), bayes.expected_payoffs(game, response)

    forms += [(f"best_response_envelope #{seed}", lambda s=seed: envelope(s)) for seed in range(300)]

    def fmt1_digest():
        rng = random.Random(3)
        values = [rng.uniform(-1e3, 1e3) for _ in range(100_000)]
        values += [k / 100 + 0.05 for k in range(-100_000, 100_001)]
        values += list(finite_floats(rng, 100_000))
        values += [0.0, -0.0, 1e27, 5e-324, -5e-324, 1.7976931348623157e308, -0.05, -0.02, 0.05, 7, -7, 0]
        digest = hashlib.sha256()
        for value in values:
            digest.update(market._fmt1(value).encode() + b"\n")
        return len(values), digest.hexdigest()

    def parcel_digest():
        rng = random.Random(4)
        fractions = [0.9, 0.3, 0.7, 0.001, 0.35, 1, 1.0, 5e-324, 1e-05, 0.1 + 0.2, 0.5, 0.05, 0.15]
        fractions += [rng.random() or 1.0 for _ in range(200)] + [rng.randint(1, 1000) / 1000 for _ in range(200)]
        digest, pairs = hashlib.sha256(), 0
        for fraction in fractions:
            parcel = sim._deterministic_parcel(sim.StrategySpec("fixed_fraction", fraction))
            for _ in range(100):
                balance = rng.getrandbits(rng.choice((4, 10, 30, 64, 200, 1000))) + 1
                digest.update(b"%d\n" % parcel(balance))
                pairs += 1
        return pairs, digest.hexdigest()

    forms += [("market._fmt1 on seeded floats", fmt1_digest),
              ("sim._deterministic_parcel on seeded pairs", parcel_digest)]
    return forms


def child(corpus_path: str, out_path: str) -> None:
    """Run the corpus against the liqgame on the path and write each form's result."""
    import liqgame
    from liqgame import cli

    src = str(Path(liqgame.__file__).resolve().parents[1])
    corpus = json.loads(Path(corpus_path).read_text())
    results = {}
    for name, argv, inputs in corpus["cli"]:
        results[f"cli: {name}"] = run_cli_form(cli, argv, inputs, src)
    oracle_requests = [tuple(tuple(x) if isinstance(x, list) else x for x in a) for a in corpus["oracle_exact"]]
    for name, thunk in library_corpus(oracle_requests):
        try:
            value = repr(thunk())
        except Exception as exc:  # the exception is the result
            value = f"raised {type(exc).__name__}: {exc}"
        results[f"library: {name}"] = [sha(value.replace(src, "<src>")), value[:120]]
    Path(out_path).write_text(json.dumps({"liqgame": src, "results": results}))


# ----------------------------------------------------------------------------- the comparison


def tree_source(spec: str, target: Path) -> Path:
    """The ``src`` directory of a tree named by a directory or by a git revision of this
    repository, which is extracted into ``target``; ValueError when it names neither."""
    if not Path(spec).is_dir():
        git = subprocess.run(["git", "-C", str(REPO), "archive", spec], capture_output=True)
        if git.returncode:
            raise ValueError(f"{spec!r} is no directory and no revision: {git.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
            tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        spec = target
    if not (Path(spec) / "src" / "liqgame").is_dir():
        raise ValueError(f"{spec!r} holds no src/liqgame")
    return Path(spec).resolve() / "src"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(*argv[1:])
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        try:
            specs = (*argv, str(REPO))[:2]
            sources = [tree_source(spec, scratch / f"tree{k}") for k, spec in enumerate(specs)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cli_forms, oracle_requests = cli_corpus(), workload_forms()[1]
        corpus = scratch / "corpus.json"
        corpus.write_text(json.dumps({"cli": cli_forms, "oracle_exact": oracle_requests}))
        children = []
        for k, src in enumerate(sources):
            work = scratch / f"run{k}"
            work.mkdir()
            env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "100", "PYTHONHASHSEED": "0"}
            command = [sys.executable, str(Path(__file__).resolve()), "--child", str(corpus), str(work / "out.json")]
            children.append((subprocess.Popen(command, cwd=work, env=env), work / "out.json"))
        for process, _ in children:
            if process.wait():
                print(f"a tree's run failed with exit {process.returncode}", file=sys.stderr)
                return 2
        (old, new) = (json.loads(path.read_text()) for _, path in children)
    for got, src in zip((old, new), sources):
        if got["liqgame"] != str(src.resolve()):
            print(f"liqgame loaded from {got['liqgame']}, not {src}", file=sys.stderr)
            return 2
    old, new = old["results"], new["results"]
    names = list(dict.fromkeys([*old, *new]))
    differing = [name for name in names if old.get(name) != new.get(name)]
    for name in differing:
        print(f"DIFFERS {name}")
        for label, got in (("parent", old.get(name)), ("change", new.get(name))):
            print(f"    {label}: {got}")
    print(f"{len(differing)} of {len(names)} forms differ "
          f"({sum(n.startswith('cli: ') for n in names)} CLI, {sum(n.startswith('library: ') for n in names)} library), "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
