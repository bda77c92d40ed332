"""Market-composition analysis: prior-weighted volume tables and aggregates.

A composition table is a ``core.PayoffMatrix`` whose actions on each side are
(type, strategy) labels and whose payoffs are real volumes. Two modes build
one. Constructive mode weights caller-supplied per-type-pair payoff tables by
the type priors on each side. As-published mode loads the bundled composition
tables, JSON documents, verbatim; several of their entries are not derivable
from any single weighting rule, so they ship as data, and the aggregates
(quadrant sums, system total, hit ratio) are computed from the table.
"""

from __future__ import annotations

import functools
import json
import operator
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .core import LiquidityGameError, PayoffMatrix, check_document, decimal_ratio
from .documents import check_labels, check_prior, check_tables, finite_number, fixture_path
from .documents import parse_bimatrix, parse_labels, parse_prior, parse_tables

if TYPE_CHECKING:
    from .bayes import ConditionalGame

Label = tuple[Optional[str], str]


# The bundled tables, by the name load_published_matrix accepts: market_<name>.json.
PUBLISHED_TABLES = ("final_4x4", "intermediate_2x4")


class UnknownTable(LiquidityGameError):
    pass


class NotTwoTypes(LiquidityGameError):
    pass


def _fmt1(value: float) -> str:
    """Half-up rounding of the float's shortest decimal text (``core.decimal_ratio``) to one
    decimal, no trailing ".0" and a zero unsigned; ValueError for a non-finite volume."""
    finite_number(value, "volume")
    p, q = decimal_ratio(value)
    whole, tenth = divmod((20 * abs(p) + q) // (2 * q), 10)  # tenths, half away from zero
    return ("-" if p < 0 and whole + tenth else "") + str(whole) + (f".{tenth}" if tenth else "")


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


def cells_csv(matrix: PayoffMatrix) -> str:
    """Plot-ready long format: one line per cell with the summed volume."""
    import csv  # here, so a JSON report loads no csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row_label", "col_label", "volume"])
    for label_r, row_i, row_j in zip(matrix.actions_i, matrix.u_i, matrix.u_j):
        for label_c, u, v in zip(matrix.actions_j, row_i, row_j):
            writer.writerow([label_text(label_r), label_text(label_c), _fmt1(u + v)])
    return out.getvalue()


def load_published_matrix(source: str) -> PayoffMatrix:
    """One of the bundled tables, exactly as printed (1-decimal values): distinct ``rows``
    and ``cols`` labels and a ``documents.parse_bimatrix`` grid of ``[u_i, u_j]`` cells."""
    if source not in PUBLISHED_TABLES:
        raise UnknownTable(
            f"unknown table {source!r}, expected one of {sorted(PUBLISHED_TABLES)}"
        )
    raw = json.loads(fixture_path(f"market_{source}.json").read_text())
    fields = ("rows", "cols", "matrix")
    check_document(raw, "published table", fields)
    labels = [parse_labels(raw[key], key) for key in fields[:2]]
    check_labels(*labels)  # a repeated label would name two cells alike
    rows, cols = (tuple(map(parse_label, side)) for side in labels)
    return PayoffMatrix.from_cells(rows, cols, parse_bimatrix(raw["matrix"]))


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
    ``documents.check_tables``. Each side's weights are a prior under
    ``documents.check_prior``, and labels must be distinct.
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
    return PayoffMatrix.from_cells(labels, labels, grid)


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
    """Highest-volume quadrant by the sums the report prints, rounded half up to
    one decimal (``round1``); ties go to the earliest in table order."""
    if not report.quadrants:
        raise ValueError("report has no quadrants")
    return max(report.quadrants, key=lambda quadrant: round1(report.quadrants[quadrant]))
