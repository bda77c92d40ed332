"""Market-composition analysis: prior-weighted volume tables and aggregates.

A composition table is a ``core.PayoffMatrix`` whose actions on each side are
(type, strategy) labels and whose payoffs are real volumes. Two modes build
one. Constructive mode weights caller-supplied per-type-pair payoff tables by
the type priors on each side. As-published mode loads the bundled composition
tables verbatim; several of their entries are not derivable from any single
weighting rule, so they ship as data, and the aggregates (quadrant sums,
system total, hit ratio) are computed from the table.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import operator
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .core import LiquidityGameError, PayoffMatrix, check_document, check_labels, check_prior
from .core import check_tables, finite_number, parse_labels, parse_prior, parse_tables
from .fixtures import PUBLISHED_TABLES, fixture_path

if TYPE_CHECKING:
    from .bayes import ConditionalGame

Label = tuple[Optional[str], str]


class UnknownTable(LiquidityGameError):
    pass


class NotTwoTypes(LiquidityGameError):
    pass


def _fmt1(value: float) -> str:
    """Half-up rounding of the float's shortest decimal text to one decimal,
    written without a trailing ".0"."""
    text = str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
    return text[:-2] if text.endswith(".0") else text


def round1(value: float) -> float:
    """Half-up rounding to one decimal, the precision used at serialization."""
    return float(_fmt1(value))


def label_text(label: Label) -> str:
    kind, strategy = label
    return strategy if kind is None else f"{kind}+{strategy}"


def parse_label(text: str) -> Label:
    if "+" in text:
        kind, strategy = text.split("+", 1)
        return (kind, strategy)
    return (None, text)


def _labelled(rows: tuple[Label, ...], cols: tuple[Label, ...], grid) -> PayoffMatrix:
    """The table of a grid of (u_i, u_j) cells, rows labelled ``rows``, columns ``cols``."""
    u_i = tuple(tuple(u for u, _ in row) for row in grid)
    u_j = tuple(tuple(v for _, v in row) for row in grid)
    return PayoffMatrix(rows, cols, u_i, u_j)


def cells_csv(matrix: PayoffMatrix) -> str:
    """Plot-ready long format: one line per cell with the summed volume."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row_label", "col_label", "volume"])
    for label_r, row_i, row_j in zip(matrix.actions_i, matrix.u_i, matrix.u_j):
        for label_c, u, v in zip(matrix.actions_j, row_i, row_j):
            writer.writerow([label_text(label_r), label_text(label_c), _fmt1(u + v)])
    return out.getvalue()


def composition_from_csv(doc: str) -> PayoffMatrix:
    """Parse a long-format CSV, one ``row_label,col_label,u_i,u_j`` line per
    cell, as the bundled tables are written; blank lines are skipped.

    ValueError for a record of other than four fields, a payoff that is not
    a finite number, a cell given twice or not at all, and a table with no
    cells (``PayoffMatrix`` refuses an empty side).
    """
    reader = csv.reader(io.StringIO(doc))
    header = next(reader, None)
    if header != ["row_label", "col_label", "u_i", "u_j"]:
        raise ValueError("expected header row_label,col_label,u_i,u_j")
    cells: dict[tuple[Label, Label], tuple[float, float]] = {}
    for record in reader:
        if not record:
            continue
        if len(record) != 4:
            raise ValueError(f"line {reader.line_num}: expected 4 fields, got {len(record)}")
        cell = (parse_label(record[0]), parse_label(record[1]))
        if cell in cells:
            raise ValueError(f"repeated cell {record[0]},{record[1]}")
        cells[cell] = tuple(finite_number(float(text), "payoff") for text in record[2:])
    rows = tuple(dict.fromkeys(label_r for label_r, _ in cells))
    cols = tuple(dict.fromkeys(label_c for _, label_c in cells))
    for label_r in rows:
        for label_c in cols:
            if (label_r, label_c) not in cells:
                raise ValueError(f"missing cell {label_text(label_r)},{label_text(label_c)}")
    return _labelled(rows, cols, [[cells[(r, c)] for c in cols] for r in rows])


def load_published_matrix(source: str) -> PayoffMatrix:
    """One of the bundled tables, exactly as printed (1-decimal values)."""
    if source not in PUBLISHED_TABLES:
        raise UnknownTable(
            f"unknown table {source!r}, expected one of {sorted(PUBLISHED_TABLES)}"
        )
    return composition_from_csv(fixture_path(PUBLISHED_TABLES[source]).read_text())


def weight_by_priors(
    types: Sequence[str],
    strategies: Sequence[str],
    matrices: Mapping[tuple[str, str], Sequence[Sequence[tuple[float, float]]]],
    prior_i: Sequence[float],
    prior_j: Sequence[float],
) -> PayoffMatrix:
    """Expected-volume table: each cell is the type-pair payoff scaled by
    the product of the two type weights.

    ``matrices`` must supply a bimatrix for every (row-type, col-type)
    pair, indexed [row strategy][col strategy], and no other, under
    ``core.check_tables``. Each side's weights are a prior under
    ``core.check_prior``, and labels must be distinct.
    """
    check_labels(types, strategies)
    check_prior(prior_i, types)
    check_prior(prior_j, types)
    pairs = [(t_i, t_j) for t_i in types for t_j in types]
    check_tables(matrices, pairs, strategies, strategies, "type pair")
    labels = tuple((t, s) for t in types for s in strategies)
    grid = []
    for t_i, w_i in zip(types, prior_i):
        # each row strategy's rows of the type pairs (t_i, *), side by side
        for rows in zip(*(matrices[(t_i, t_j)] for t_j in types)):
            grid.append(
                [(w_i * w_j * u, w_i * w_j * v) for w_j, r in zip(prior_j, rows) for u, v in r]
            )
    return _labelled(labels, labels, grid)


def load_base_document(path: Path) -> tuple:
    """Read a constructive base file: ``types``, ``strategies``, ``matrices`` keyed
    ``"row_type,col_type"``, ``prior_i`` and ``prior_j``, as ``weight_by_priors`` takes them."""
    raw = json.loads(path.read_text())
    fields = ("types", "strategies", "matrices", "prior_i", "prior_j")
    check_document(raw, "constructive base document", fields)
    types, strategies = (parse_labels(raw[key], key) for key in fields[:2])
    matrices = {k.partition(",")[::2]: grid for k, grid in parse_tables(raw["matrices"]).items()}
    return types, strategies, matrices, parse_prior(raw["prior_i"]), parse_prior(raw["prior_j"])


def pairwise_base_from_conditional(
    game: ConditionalGame,
) -> dict[tuple[str, str], tuple[tuple[tuple[float, float], ...], ...]]:
    """Type-pair tables built from a per-counterparty-type game: the
    counterparty's type selects the table, whatever the row player's type."""
    return {
        (t_i, t_j): game.matrices[t_j] for t_i in game.types for t_j in game.types
    }


class QuadrantReport(NamedTuple):
    """Volume sums per (row-type, col-type) quadrant, in table order."""

    quadrants: Mapping[tuple[str, str], float]
    system_total: float
    hit_ratio: float

    def to_jsonable(self) -> dict:
        return {
            "quadrants": {
                f"{rt},{ct}": round1(total) for (rt, ct), total in self.quadrants.items()
            },
            "system_total": round1(self.system_total),
            "hit_ratio": self.hit_ratio,
        }


def _label_types(labels: Sequence[Label], side: str) -> list[str]:
    """The distinct type components of one side's labels, in table order."""
    kinds = list(dict.fromkeys(kind for kind, _ in labels))
    if None in kinds:
        raise NotTwoTypes(f"{side} labels carry no type component")
    return kinds


def quadrant_analysis(matrix: PayoffMatrix) -> QuadrantReport:
    """Sum both payoff components per type quadrant; volume is the summed
    pair because only that convention reconciles the published totals."""
    row_types = _label_types(matrix.actions_i, "row")
    col_types = _label_types(matrix.actions_j, "column")
    if len(row_types) != 2 or len(col_types) != 2:
        raise NotTwoTypes(
            f"expected exactly two types per side, got {row_types} x {col_types}"
        )
    quadrants = {(rt, ct): 0.0 for rt in row_types for ct in col_types}
    nonzero = 0
    total_cells = 0
    for (row_kind, _), row_i, row_j in zip(matrix.actions_i, matrix.u_i, matrix.u_j):
        for (col_kind, _), u, v in zip(matrix.actions_j, row_i, row_j):
            quadrants[(row_kind, col_kind)] += u + v
            total_cells += 1
            if u != 0.0 or v != 0.0:
                nonzero += 1
    return QuadrantReport(
        quadrants=quadrants,
        # added left to right on every Python; 3.12's sum() compensates
        system_total=functools.reduce(operator.add, quadrants.values(), 0),
        hit_ratio=nonzero / total_cells,
    )


def best_quadrant(report: QuadrantReport) -> tuple[str, str]:
    """Highest-volume quadrant; ties go to the earliest in table order."""
    if not report.quadrants:
        raise ValueError("report has no quadrants")
    return max(report.quadrants, key=report.quadrants.get)
