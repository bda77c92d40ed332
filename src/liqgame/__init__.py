"""Solver and simulator for bilateral, price-free bond-transfer games.

Public names are resolved on first access (PEP 562), so ``import liqgame``
loads no submodule and each caller pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "BayesianSolution": "bayes",
    "ConditionalGame": "bayes",
    "GameInstance": "core",
    "LiquidityGameError": "core",
    "MixedProfile": "solver",
    "PayoffMatrix": "core",
    "PureEquilibrium": "solver",
    "QuadrantReport": "market",
    "SimConfig": "sim",
    "SimReport": "sim",
    "StrategySpec": "sim",
    "TransferProblem": "lp",
    "analytic_hit_ratio": "sim",
    "best_quadrant": "market",
    "brute_force_oracle": "solver",
    "build_instance": "core",
    "build_payoff_matrix": "core",
    "dominant_strategy_per_type": "bayes",
    "expected_payoff": "bayes",
    "find_pure_equilibria": "solver",
    "indifference_threshold": "bayes",
    "load_bundled_game": "bayes",
    "load_published_matrix": "market",
    "max_transfer": "lp",
    "quadrant_analysis": "market",
    "run_simulation": "sim",
    "solve_mixed": "solver",
    "verify_equilibrium": "solver",
    "weight_by_priors": "market",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
