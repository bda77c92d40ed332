"""Readers and rules of the typed documents: the game that ``bayes`` reads and
the constructive base that ``market`` reads, both tables keyed by type, and
the bundled data files; and ``integer_tables``, the one exact table reader.

Only ``bayes``, ``market`` and ``solver`` load this module, so a ``solve``,
``simulate`` or ``lp`` process compiles none of it, and it loads no ``fractions``
or ``decimal``. The rules every input shares, the key rule ``core.check_document``
and the shape rule ``core.check_table``, stay in ``core``.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import DimensionCapExceeded, check_table, check_work, decimal_ratio, is_int

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


EQUALITY_TOLERANCE = 1e-12


def check_labels(values, what: str) -> tuple:
    """The label rule: a list or a tuple of distinct strings, as a tuple; ValueError naming
    ``what`` for any other value, then for a label that is not a string or that repeats."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of labels, got {values!r}")
    if not all(isinstance(label, str) for label in values):
        raise ValueError(f"labels must be strings, got {list(values)}")
    if len(set(values)) != len(values):
        raise ValueError(f"labels must be distinct, got {list(values)}")
    return tuple(values)


def check_prior(values, types: Sequence[str]) -> tuple[float, ...]:
    """The prior rule: a list or a tuple of one weight per type, each a ``finite_number``,
    non-negative, summing to 1 within ``EQUALITY_TOLERANCE``, as floats; ValueError otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"prior must be a list of numbers, got {values!r}")
    if len(values) != len(types):
        raise ValueError("prior length must match number of types")
    prior = tuple(finite_number(p, "prior") for p in values)
    if any(p < 0 for p in prior):
        raise ValueError("prior entries must be non-negative")
    if abs(sum(prior) - 1.0) > EQUALITY_TOLERANCE:
        raise ValueError(f"prior must sum to 1, got {sum(prior)}")
    return prior


def check_tables(tables, keys: Sequence, rows: Sequence, cols: Sequence, what: str) -> dict[object, Bimatrix]:
    """The table-set rule: a mapping holding a ``parse_bimatrix`` grid under each of ``keys``, as
    float pairs, in the mapping's order. ValueError for any other value, then, naming ``what`` and
    the key's repr, key by key, for a key with no table, a grid ``parse_bimatrix`` refuses or one
    of the wrong shape (``core.check_table``), and last for a table under a key outside ``keys``:
    no rule would check that table, and no result would use it."""
    if not isinstance(tables, Mapping):
        raise ValueError(f"matrices must be a JSON object, got {type(tables).__name__}")
    grids = {}
    for key in keys:
        if key not in tables:
            raise ValueError(f"missing matrix for {what} {key!r}")
        grids[key] = parse_bimatrix(tables[key])
        check_table(grids[key], rows, cols, f"{what} {key!r}")
    for key in tables:
        if key not in keys:
            raise ValueError(f"matrix for unlisted {what} {key!r}")
    return {key: grids[key] for key in tables}


def parse_bimatrix(grid) -> Bimatrix:
    """Read a JSON bimatrix, a list of rows of ``[u, v]`` cells, as rows of
    float pairs; ValueError unless every payoff is a finite number."""
    if not (isinstance(grid, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in grid)):
        raise ValueError("payoff matrix must be a list of rows")
    if not all(isinstance(cell, (list, tuple)) and len(cell) == 2 for row in grid for cell in row):
        raise ValueError("every payoff cell must be a [u, v] pair")
    return tuple(
        tuple((finite_number(u, "payoff"), finite_number(v, "payoff")) for u, v in row)
        for row in grid
    )


MAX_BITS = 1077  # those of 10^324, the largest denominator of a float's decimal (Clinger, 1990)


def integer_tables(what: str, *tables: Sequence[Sequence], bits: Sequence[int] = ()) -> list:
    """Each table of ``tables`` as integer rows over the lcm ``l`` of its denominators, with ``l``, then the bits b of
    the largest scaled entry: a table of ints only is itself, over 1; each other's entries are read once, by
    ``core.decimal_ratio``. ``check_work`` gets the count of entries before any is read; then DimensionCapExceeded
    for a numerator, or an lcm built one distinct denominator at a time, past the table's bound of bits (one per table
    in ``bits``, or MAX_BITS); then ``check_work`` gets the entries again, weighed 1 + b // 128."""
    count = 0
    for k, u in enumerate(tables):  # a table given twice in a row is counted, and read, once
        count += 0 if k and u is tables[k - 1] else len(u) * len(u[0])
    check_work(count, what)  # the entries alone, before any is read
    scaled, top = [], 0
    for u, limit in zip(tables, bits or (MAX_BITS,) * len(tables)):
        if scaled and u is tables[len(scaled) - 1]:  # one table for both players, as in an instance game, is read once
            scaled.append(scaled[-1])
            continue
        lcm = size = 0
        for x in itertools.chain(*u):  # one walk tests for ints only and takes their largest bits
            if type(x) is not int:
                lcm = 1
                break
            size = b if (b := x.bit_length()) > size else size
        if lcm:
            nums, dens = zip(*map(decimal_ratio, itertools.chain(*u)))
            for d in set(dens):
                if (lcm := math.lcm(lcm, d)).bit_length() > limit:
                    raise DimensionCapExceeded(f"{what} holds a number past the bound of {limit} bits")
            flat = [x * (lcm // d) for x, d in zip(nums, dens)]
            u, size = [flat] if len(u) == 1 else list(zip(*[iter(flat)] * len(u[0]))), max(map(int.bit_length, flat))
        # a table of ints only is itself, over 1; a numerator has at most its scaled entry's bits
        if size > limit and (not lcm or max(map(int.bit_length, nums)) > limit):
            raise DimensionCapExceeded(f"{what} holds a number past the bound of {limit} bits")
        scaled.append((u, lcm or 1))
        top = size if size > top else top
    check_work(count * (1 + top // 128), what)
    return [*scaled, top]
