"""Readers and rules of the typed documents: the game that ``bayes`` reads and
the constructive base that ``market`` reads, both tables keyed by type, and
the bundled data files.

Only ``bayes`` and ``market`` load this module, so a ``solve``, ``simulate``
or ``lp`` process compiles none of it. The rules every input shares, the key
rule ``core.check_document`` and the shape rule ``core.check_table``, stay in
``core``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import check_table, is_int

if TYPE_CHECKING:
    from pathlib import Path

Bimatrix = tuple[tuple[tuple[float, float], ...], ...]


def fixture_path(name: str) -> Path:
    """A data file bundled with the package."""
    from pathlib import Path  # loaded here, so importing this module loads no new module
    return Path(__file__).parent / "bundled-data" / name  # not an identifier, so not importable


def parse_numbers(text: str, flag: str) -> tuple[float, ...]:
    """The comma-separated numbers of a command-line weight list such as
    ``0.35,0.65``; ValueError naming ``flag`` and the text for anything else."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be numbers separated by commas, got {text!r}") from None


def finite_number(value, what: str) -> float:
    """A finite number, an int or a float but not a bool, as a float;
    ValueError naming ``what`` for anything else."""
    if not (isinstance(value, float) or is_int(value)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def parse_prior(values) -> tuple[float, ...]:
    """Read a JSON list of type weights; ValueError unless every weight is
    a finite number."""
    if not isinstance(values, list):
        raise ValueError(f"prior must be a list of numbers, got {values!r}")
    return tuple(finite_number(p, "prior") for p in values)


EQUALITY_TOLERANCE = 1e-12


def check_prior(prior: Sequence[float], types: Sequence[str]) -> None:
    """The common prior's rule: one weight per type, each a ``finite_number``, non-negative,
    summing to 1 within ``EQUALITY_TOLERANCE``; ValueError otherwise."""
    if len(prior) != len(types):
        raise ValueError("prior length must match number of types")
    prior = [finite_number(p, "prior") for p in prior]
    if any(p < 0 for p in prior):
        raise ValueError("prior entries must be non-negative")
    if abs(sum(prior) - 1.0) > EQUALITY_TOLERANCE:
        raise ValueError(f"prior must sum to 1, got {sum(prior)}")


def parse_labels(values, what: str) -> tuple:
    """Read a JSON list of labels; ValueError for any other JSON value."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of labels, got {values!r}")
    return tuple(values)


def check_labels(*label_sets: Sequence[str]) -> None:
    """ValueError when a label is not a string, or repeats within its set."""
    for labels in label_sets:
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"labels must be strings, got {list(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {list(labels)}")


def check_tables(
    tables: Mapping, keys: Sequence, rows: Sequence, cols: Sequence, what: str
) -> None:
    """The table-set rule: ValueError, naming ``what`` and the key's repr,
    for a key of ``keys`` with no table in ``tables``, then for a table of
    the wrong shape (``core.check_table``), key by key, and last for a table
    under a key outside ``keys``: no rule would check that table, and no
    result would use it."""
    for key in keys:
        if key not in tables:
            raise ValueError(f"missing matrix for {what} {key!r}")
        check_table(tables[key], rows, cols, f"{what} {key!r}")
    for key in tables:
        if key not in keys:
            raise ValueError(f"matrix for unlisted {what} {key!r}")


def parse_bimatrix(grid) -> Bimatrix:
    """Read a JSON bimatrix, a list of rows of ``[u, v]`` cells, as rows of
    float pairs; ValueError unless every payoff is a finite number."""
    if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
        raise ValueError("payoff matrix must be a list of rows")
    if not all(isinstance(cell, list) and len(cell) == 2 for row in grid for cell in row):
        raise ValueError("every payoff cell must be a [u, v] pair")
    return tuple(
        tuple((finite_number(u, "payoff"), finite_number(v, "payoff")) for u, v in row)
        for row in grid
    )


def parse_tables(tables) -> dict[str, Bimatrix]:
    """Read a ``matrices`` object of ``parse_bimatrix`` grids; ValueError for any other value."""
    if not isinstance(tables, dict):
        raise ValueError(f"matrices must be a JSON object, got {type(tables).__name__}")
    return {key: parse_bimatrix(grid) for key, grid in tables.items()}
