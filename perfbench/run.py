"""liqgame benchmark: closed-loop workloads over the CLI and the library.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is solve_ladder, simulate_mc, cli_quick, oracle_exact, or ``all``. One
client sends each request only after the previous one returned. A request is
one ``python -m liqgame.cli ...`` process with PYTHONPATH=src, or one library
call in oracle_exact. Every output is checked; a failed request is a non-zero
exit or a report that fails its check.

With --trace 0 the run measures the end-to-end metrics. With --trace 1 each
pass runs once untraced and once traced (spans recorded by the benchmark's own
wrappers, see tracing.py), and the run reports the per-layer metrics plus
trace.overhead_s. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; details, run metadata and spans go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads
from workloads import Request

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
TMP = Path(workloads.TMP)
SETUP_PROBES = 9
REQUEST_TIMEOUT_S = 120
FAILED_LATENCY_S = 1e6  # a failed request misses every latency limit
# The host's vCPUs differ in speed at the same moment (host_loop() takes about
# 2.1 ms on one and 3.3 ms on the other), and which one is fast changes from
# one tenth of a second to the next. Requests therefore run pinned to the
# vCPU that is faster just before them (pin_fastest_cpu), and every timing is
# multiplied by (REFERENCE_HOST_LOOP_S / host) ** HOST_ELASTICITY, where host
# is the median host_loop() time of its pass. The figures then read as times
# on a host where host_loop() takes REFERENCE_HOST_LOOP_S. host_loop() reacts
# to the host's speed about twice as strongly as the requests do: over 135
# passes of three workloads the slope of log pass time on log host_loop()
# time was 0.48-0.49. See NOTES.md.
REFERENCE_HOST_LOOP_S = 0.0031
HOST_ELASTICITY = 0.5
HOST_SAMPLE_GAP_S = 0.2
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.numpy_s": "s",
    "import.liqgame_s": "s",
    "cli.self_s": "s",
    "cli.requests": "count",
    "core.build_payoff_matrix_s": "s",
    "core.payoff_cells": "count",
    "solver.solve_mixed_s": "s",
    "solver.support_pairs": "count",
    "solver.equilibria": "count",
    "solver.accept_ratio": "ratio",
    "solver.us_per_support_pair": "us",
    "solver.find_pure_equilibria_s": "s",
    "sim.run_simulation_s.one_shot": "s",
    "sim.run_simulation_s.repeated": "s",
    "sim.trials": "count",
    "sim.rounds": "count",
    "sim.trades": "count",
    "sim.rounds_per_busy_s": "1/s",
    **{f"sim.analytic_hit_ratio_s.w{w}": "s" for w in workloads.ORACLE_WIDTHS},
    "solver.brute_force_oracle_s": "s",
    "solver.oracle_hits": "count",
    "solver.verify_equilibrium_s": "s",
    "bayes.self_s": "s",
    "bayes.calls": "count",
    "market.self_s": "s",
    "market.calls": "count",
    "lp.self_s": "s",
    "lp.calls": "count",
    "trace.overhead_s": "s",
}


class Pass:
    """What one pass measured: latencies, failures, work, layer figures and
    the host-speed samples taken between its requests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall = 0.0  # checks run between requests and are not timed
        self.failures: list[str] = []
        self.work = 0
        self.layers: dict[str, float] = defaultdict(float)
        self.host: list[float] = []
        self.last_sample = -math.inf

    def record(self, latency: float, problems: list[str], label: str) -> None:
        self.wall += latency
        self.latencies.append(FAILED_LATENCY_S if problems else latency)
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def sample_host(self, force: bool = False) -> None:
        """Time the reference loop between requests, at most every
        HOST_SAMPLE_GAP_S unless forced (at the start and end of a pass)."""
        now = perf_counter()
        if force or now - self.last_sample >= HOST_SAMPLE_GAP_S:
            self.host.append(pin_fastest_cpu())
            self.last_sample = perf_counter()

    def scale(self) -> float:
        """Factor that turns this pass's timings into reference-host timings."""
        return host_scale(statistics.median(self.host))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion: exit code, stdout, stderr, wall seconds.

    The wait blocks in waitpid. A timeout on the wait itself would poll with
    sleeps of up to 50 ms and round every latency up to that grid, so a
    watchdog thread kills a child that runs too long instead.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stdout, stderr, perf_counter() - start


class CliRunner:
    """Runs CLI requests as child processes and checks their output."""

    def __init__(self) -> None:
        self.env = child_env()
        self.expected_hits: dict[tuple, float] = {}
        self.spans: list[dict] = []

    def request(self, req: Request, done: Pass, traced: bool, label: str) -> bytes:
        spans_path = TMP / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *req.argv]
        else:
            argv = [sys.executable, "-m", "liqgame.cli", *req.argv]
        code, stdout, stderr, latency = run_child(argv, self.env)
        files = {}
        for path in req.files:
            try:
                files[path] = Path(path).read_bytes()
                Path(path).unlink()
            except OSError:
                files[path] = None
        if code != 0:  # -9 when the watchdog killed it
            last_line = (stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
            problems = [f"exit {code}: {last_line[-300:]}"]
        else:
            try:
                problems = self.check(req, stdout, files)
            except Exception as exc:  # an output no checker foresaw still fails the request
                problems = [f"check raised {exc!r}"]
        done.record(latency, problems, label)
        # Counts come only from reports that passed their check.
        report = json.loads(stdout) if not problems and req.kind in ("solve", "one_shot", "repeated") else None
        self.count(req, report, done)
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.spans.append({"request": label, "argv": list(req.argv), "spans": spans})
            add_span_layers(spans, req, done.layers)
        return stdout + b"".join(v or b"" for v in files.values())

    def check(self, req: Request, stdout: bytes, files: dict) -> list[str]:
        p = req.params
        if "--output" in req.argv:
            if stdout:
                return ["--output request also wrote to stdout"]
            stdout = files[req.files[0]]
            if stdout is None:
                return ["--output file missing"]
        if req.kind == "solve":
            return checks.check_solve(stdout, p["rows"], p["cols"])
        if req.kind == "one_shot":
            key = (*p["strategies"], *p["ranges"])
            if key not in self.expected_hits:
                (s_i, s_j), (r_i, r_j) = p["strategies"], p["ranges"]
                self.expected_hits[key] = checks.hit_probability(s_i, r_i, s_j, r_j)
            return checks.check_one_shot(stdout, p["trials"], p["seed"], self.expected_hits[key])
        if req.kind == "repeated":
            histogram = files[req.files[0]]
            if histogram is None:
                return ["histogram file missing"]
            return checks.check_repeated(stdout, histogram, p["trials"], p["seed"], p["max_rounds"])
        if req.kind == "bayes":
            return checks.check_bayes(stdout, p["prior"])
        if req.kind == "market":
            expected = {"final": checks.PUBLISHED_FINAL, "constructive": checks.CONSTRUCTIVE_DEFAULT}
            return checks.check_market(stdout, expected[p["table"]])
        if req.kind == "market_csv":
            return checks.check_market_csv(stdout, checks.PUBLISHED_FINAL["system_total"], 16)
        if req.kind == "lp":
            return checks.check_lp(stdout, p["receiver"], p["sender"], p["json"])
        raise ValueError(f"no check for {req.kind!r}")

    @staticmethod
    def count(req: Request, report: dict | None, done: Pass) -> None:
        layers = done.layers
        layers["cli.requests"] += 1
        if req.kind == "solve":
            rows, cols = req.params["rows"], req.params["cols"]
            layers["core.payoff_cells"] += rows * cols
            # sum over k of C(rows, k) * C(cols, k) for k >= 1 (Vandermonde)
            layers["solver.support_pairs"] += math.comb(rows + cols, cols) - 1
            if report is not None:
                layers["solver.equilibria"] += len(report["mixed_equilibria"])
        elif req.kind in ("one_shot", "repeated"):
            layers["sim.trials"] += req.params["trials"]
            if report is not None:
                layers["sim.rounds"] += report["opportunities"]
                layers["sim.trades"] += report["trades_executed"]


def add_span_layers(spans: list[list], req: Request, layers: dict[str, float]) -> None:
    totals, layer_self, layer_calls = tracing.summarise(spans)
    layers["cli.self_s"] += layer_self["cli"]
    for name in ("core.build_payoff_matrix", "solver.solve_mixed", "solver.find_pure_equilibria"):
        layers[f"{name}_s"] += totals[name]
    if req.kind in ("one_shot", "repeated"):
        layers[f"sim.run_simulation_s.{req.kind}"] += totals["sim.run_simulation"]
    for layer in ("bayes", "market", "lp"):
        layers[f"{layer}.self_s"] += layer_self[layer]
        layers[f"{layer}.calls"] += layer_calls[layer]


class OracleRunner:
    """Runs oracle_exact's library calls in this process."""

    def __init__(self) -> None:
        sys.path.insert(0, "src")
        from liqgame import core, sim, solver

        self.core, self.sim, self.solver = core, sim, solver
        self.expected_hits: dict[tuple, float] = {}
        self.spans: list[dict] = []

    def strategy(self, text: str):
        if text == "random":
            return self.sim.StrategySpec("uniform_random")
        return self.sim.StrategySpec("fixed_fraction", float(text))

    def timed(self, call, *args, **kwargs):
        start = perf_counter()
        result = call(*args, **kwargs)
        return result, perf_counter() - start

    def request(self, req: Request, done: Pass, traced: bool, label: str) -> bytes:
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install(tracing.ORACLE_LAYERS)
        start = perf_counter()
        try:
            outputs = self.analytic(req, done) if req.kind == "analytic" else self.games(req, done)
        except Exception as exc:  # a library call that raises is a failed request
            done.record(perf_counter() - start, [f"raised {exc!r}"], label)
            outputs = repr(exc).encode()
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            self.spans.append({"request": label, "argv": repr(req.argv), "spans": tracer.spans})
            totals, _, _ = tracing.summarise(tracer.spans)
            layers = done.layers
            if req.kind == "analytic":
                layers[f"sim.analytic_hit_ratio_s.w{req.params['width']}"] += totals["sim.analytic_hit_ratio"]
            for name in ("core.build_payoff_matrix", "solver.solve_mixed", "solver.verify_equilibrium", "solver.brute_force_oracle"):
                layers[f"{name}_s"] += totals[name]
        return outputs

    def analytic(self, req: Request, done: Pass) -> bytes:
        s_i, r_i, s_j, r_j = req.argv
        spec_i, spec_j = self.strategy(s_i), self.strategy(s_j)
        value, latency = self.timed(self.sim.analytic_hit_ratio, r_i, r_j, spec_i, spec_j)
        if req.argv not in self.expected_hits:
            self.expected_hits[req.argv] = checks.hit_probability(s_i, r_i, s_j, r_j)
        expected = self.expected_hits[req.argv]
        problems = [] if abs(value - expected) <= 1e-9 else [f"hit ratio {value} != {expected}"]
        done.record(latency, problems, f"analytic {req.argv}")
        done.work += 1
        return repr(value).encode()

    def games(self, req: Request, done: Pass) -> bytes:
        rows, cols = req.params["rows"], req.params["cols"]
        core, solver = self.core, self.solver

        def solve():
            matrix = core.build_payoff_matrix(core.build_instance(rows, -cols))
            return matrix, solver.solve_mixed(matrix)

        (matrix, profiles), latency = self.timed(solve)
        u = checks.instance_payoffs(rows, cols)
        problems = [] if profiles else ["no equilibria"]
        for profile in profiles:
            problems += checks.equilibrium_problems(u, profile.probs_i, profile.probs_j)
        done.record(latency, problems, f"solve {rows}x{cols}")
        done.layers["core.payoff_cells"] += rows * cols
        done.layers["solver.support_pairs"] += math.comb(rows + cols, cols) - 1
        done.layers["solver.equilibria"] += len(profiles)
        step = Fraction(1, workloads.ORACLE_RESOLUTION)
        for profile in profiles:
            ok, latency = self.timed(solver.verify_equilibrium, matrix, profile, Fraction(0))
            done.record(latency, [] if ok is True else ["verify_equilibrium rejected an equilibrium"], f"verify {rows}x{cols}")
            hits, latency = self.timed(
                solver.brute_force_oracle, matrix, workloads.ORACLE_RESOLUTION, around=profile, radius=1
            )
            found = any(checks.near(hit, profile.probs_i, profile.probs_j, step) for hit in hits)
            done.record(latency, [] if found else ["no oracle hit within 1/200"], f"oracle {rows}x{cols}")
            done.layers["solver.oracle_hits"] += len(hits)
        done.work += 1 + 2 * len(profiles)
        return repr(profiles).encode()


def host_loop() -> float:
    """Seconds for a fixed pure-Python loop, the median of three: how fast
    the host runs now. The loop does integer arithmetic, calls and small
    allocations, like the interpreter work of the requests."""
    times = []
    for _ in range(3):
        start = perf_counter()
        table = {}
        total = 0
        for k in range(12_000):
            total += divmod(k * k, 7)[1]
            table[k & 255] = (k, total)
        times.append(perf_counter() - start)
    return statistics.median(times)


def pin_fastest_cpu() -> float:
    """Pin this process, and so the children it starts next, to the CPU on
    which host_loop() runs fastest now, and return that time.

    On a shared host the vCPUs run at different speeds at the same moment
    (one at about 2.1 ms of host_loop(), the other at about 3.3 ms, which
    one changes over time), so a request's time would otherwise depend on
    where the scheduler puts it."""
    timed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timed.append((host_loop(), cpu))
    best, cpu = min(timed)
    os.sched_setaffinity(0, {cpu})
    return best


def host_scale(host: float) -> float:
    """Factor that turns a timing taken while host_loop() took ``host``
    seconds into a reference-host timing."""
    return (REFERENCE_HOST_LOOP_S / host) ** HOST_ELASTICITY


def probe_setup(env: dict[str, str], traced: bool, samples: dict[str, list[float]], count: int) -> None:
    """Time ``count`` fresh interpreters that import liqgame.cli and exit."""
    spans_path = TMP / "probe.json"
    if traced:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "--probe"]
    else:
        argv = [sys.executable, "-c", "import liqgame.cli"]
    for _ in range(count):
        before = pin_fastest_cpu()
        code, _, stderr, elapsed = run_child(argv, env)
        if code != 0:
            raise RuntimeError(f"importing liqgame.cli failed: {stderr.decode(errors='replace')[-300:]}")
        host = statistics.median([before, host_loop(), host_loop()])
        samples["setup_s"].append(elapsed * host_scale(host))
        samples["setup_raw_s"].append(elapsed)
        if traced:
            totals, _, _ = tracing.summarise(json.loads(spans_path.read_text()))
            samples["import.numpy_s"].append(totals["import.numpy"])
            samples["import.liqgame_s"].append(totals["import.liqgame"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten requests beyond
    it (nearest rank), and that percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((root / "src/liqgame").rglob("*.py"))
    )
    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "src_liqgame_py_lines": src_lines,
    }


def derive_layers(layers: dict[str, float]) -> dict[str, float]:
    pairs = layers["solver.support_pairs"]
    busy = layers["sim.run_simulation_s.one_shot"] + layers["sim.run_simulation_s.repeated"]
    derived = dict(layers)
    derived["solver.accept_ratio"] = layers["solver.equilibria"] / pairs if pairs else 0.0
    derived["solver.us_per_support_pair"] = 1e6 * layers["solver.solve_mixed_s"] / pairs if pairs else 0.0
    derived["sim.rounds_per_busy_s"] = layers["sim.rounds"] / busy if busy else 0.0
    return derived


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    TMP.mkdir(parents=True, exist_ok=True)
    env = child_env()
    probe_setup(env, trace, defaultdict(list), 1)  # warms the bytecode cache
    setup: dict[str, list[float]] = defaultdict(list)
    probe_setup(env, trace, setup, 1)
    runner = OracleRunner() if workload == "oracle_exact" else CliRunner()
    plan = workloads.generate(workload, seed, workloads.pass_count(workload, seconds))
    if trace:
        # Each pass runs untraced and traced, in alternating order, so a
        # traced run takes about as long as an untraced one.
        plan = plan[: (len(plan) + 1) // 2]
    plain: list[Pass] = []
    traced: list[Pass] = []
    first_outputs: dict[int, bytes] = {}
    # The host's speed drifts over seconds, so set-up probes are spread
    # between the passes rather than taken in one burst.
    probes_per_gap = math.ceil((SETUP_PROBES - 1) / len(plan))
    started = perf_counter()
    for k, requests in enumerate(plan):
        if k and perf_counter() - started > 1.5 * seconds:
            break  # the host is far slower than usual; keep the run bounded
        modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for with_trace in modes:
            done = Pass()
            done.sample_host(force=True)
            for index, req in enumerate(requests):
                done.sample_host()
                output = runner.request(req, done, with_trace, f"pass {k} request {index} {req.kind}")
                if k == 0 and not with_trace:
                    first_outputs[index] = output
            done.sample_host(force=True)
            (traced if with_trace else plain).append(done)
            if workload == "solve_ladder":
                done.work = int(done.layers["solver.support_pairs"])
            elif workload == "simulate_mc":
                done.work = int(done.layers["sim.trials"])
            elif workload == "cli_quick":
                done.work = len(requests)
        probe_setup(env, trace, setup, min(probes_per_gap, SETUP_PROBES - len(setup["setup_s"])))
    probe_setup(env, trace, setup, SETUP_PROBES - len(setup["setup_s"]))
    # The same request with the same seed must give the same bytes.
    rerun = Pass()
    if workload == "simulate_mc":
        for index, req in enumerate(plan[0]):
            again = runner.request(req, rerun, False, f"rerun of pass 0 request {index}")
            if again != first_outputs[index]:
                rerun.failures.append(f"pass 0 request {index} {req.kind}: rerun gave different bytes")
    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes) + len(rerun.latencies)
    failures = [f for p in passes + [rerun] for f in p.failures]
    # Timings scaled to the reference host; a failed request stays at 10^6 s.
    latencies = [x if x == FAILED_LATENCY_S else x * p.scale() for p in plain for x in p.latencies]
    wall = statistics.median(p.wall * p.scale() for p in plain)
    tail_value, tail_level = tail(latencies)
    if workload == "oracle_exact":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(plain),
        "requests": len(latencies),
        "tail_percentile": tail_level,
        "work_unit": workloads.WORK_UNIT[workload],
        "host_loop_ms": 1e3 * statistics.median(h for p in plain for h in p.host),
        "reference_host_loop_ms": 1e3 * REFERENCE_HOST_LOOP_S,
        "pass_walls_s": [p.wall for p in plain],
        "pass_scales": [p.scale() for p in plain],
        "setup_raw_s": statistics.median(setup["setup_raw_s"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if trace:
        per_pass = [derive_layers(p.layers) for p in traced]
        metrics = {name: statistics.median(d.get(name, 0.0) for d in per_pass) for name in PER_LAYER}
        metrics["import.numpy_s"] = statistics.median(setup["import.numpy_s"])
        metrics["import.liqgame_s"] = statistics.median(setup["import.liqgame_s"])
        metrics["trace.overhead_s"] = statistics.median(p.wall * p.scale() for p in traced) - wall
        units = PER_LAYER
        result["spans"] = runner.spans
    else:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": wall,
            "request_p50_ms": 1e3 * statistics.median(latencies),
            "request_tail_ms": 1e3 * tail_value,
            "work_per_s": statistics.median(p.work / (p.wall * p.scale()) for p in plain),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result


def print_result(result: dict, meta: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  passes {result['passes']}  "
        f"requests {result['requests']}  trace {result['trace']}"
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(
        f"  tail at p{result['tail_percentile']:.1f} of {result['requests']} requests; "
        f"work_per_s counts {result['work_unit']}; host loop {result['host_loop_ms']:.3f} ms "
        f"(reference {result['reference_host_loop_ms']:.3f} ms)"
    )
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src/liqgame/cli.py").is_file():
        print("perfbench: run from the repository root; src/liqgame/cli.py is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    meta = metadata(root)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["meta"] = meta
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_result(result, meta)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory and imports stay
    per workload; the last line merges the results, metric names prefixed
    by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
