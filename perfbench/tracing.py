"""In-memory spans recorded around calls into liqgame's layers.

Tracing never edits the library: it rebinds public functions on the library's
modules to timing wrappers, so every caller that looks the function up on its
module (the CLI handlers, the oracle script, and calls between functions of
one module) passes through a span. ``restore`` puts the originals back.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1. Times are ``perf_counter`` seconds of the recording
process.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Functions the CLI handlers call, per module. The span name is
# "<module>.<function>"; a function missing from the library is skipped.
CLI_LAYERS = {
    "core": ("build_payoff_matrix",),
    "solver": ("find_pure_equilibria", "solve_mixed"),
    "sim": ("run_simulation",),
    "bayes": (
        "load_game_document",
        "load_bundled_game",
        "dominant_strategy_per_type",
        "expected_payoff",
        "indifference_threshold",
    ),
    "market": (
        "load_published_matrix",
        "pairwise_base_from_conditional",
        "weight_by_priors",
        "quadrant_analysis",
        "best_quadrant",
    ),
    "lp": ("max_transfer",),
}

# Functions the oracle workload calls.
ORACLE_LAYERS = {
    "core": ("build_payoff_matrix",),
    "solver": ("solve_mixed", "verify_equilibrium", "brute_force_oracle"),
    "sim": ("analytic_hit_ratio",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def _wrapper(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def install(self, layers: dict[str, tuple[str, ...]]) -> None:
        """Rebind each listed ``liqgame.<module>.<function>`` to a traced wrapper."""
        for module_name, functions in layers.items():
            module = importlib.import_module(f"liqgame.{module_name}")
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    continue
                self._saved.append((module, function, original))
                setattr(module, function, self._wrapper(f"{module_name}.{function}", original))

    def restore(self) -> None:
        while self._saved:
            module, function, original = self._saved.pop()
            setattr(module, function, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap: the traced program is single-threaded.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[k] for k, (_, start, end, _) in enumerate(spans)]


def summarise(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total time per span name, self time per layer (the name's module
    prefix) and entries per layer (spans whose parent is another layer)."""
    totals: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        totals[name] += end - start
        layer_self[layer] += own
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_calls[layer] += 1
    return totals, layer_self, layer_calls
