"""Row-by-row references for the context table, its CSV and its gaps.

`build_context_table` is the original one: it tests every row against every
UCA with `context_matches`, so it costs rows × UCAs, and it returns a `Table`
of the ascending rows each UCA marks and its own marks dict per row.
`render_context_csv` and `coverage_gaps` are the original loops over
`table.rows`, of a `Table` or a `ContextTable`. They serve only as the oracles
the implementations in `stpalint.analysis` and `stpalint.report` are compared
with.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

from stpalint.analysis import DEFAULT_MAX_ROWS, ContextRow, enumerate_contexts
from stpalint.model import AnalysisError, Context, GuideCategory, ProcessModelVariable, StpaModel, context_matches
from stpalint.report import WORKSHEET_COLUMNS


class Table(NamedTuple):
    """The oracle's table: (category, UCA id, ascending rows) per marking UCA, and each row's marks."""

    controller: str
    action: str
    variables: list[ProcessModelVariable]
    hits: list[tuple[GuideCategory, str, list[int]]]
    marks: list[dict[GuideCategory, list[str]]]

    @property
    def rows(self) -> list[ContextRow]:
        return [ContextRow(c, m) for c, m in zip(enumerate_contexts(self.variables), self.marks, strict=True)]


def build_context_table(
    model: StpaModel,
    controller: str,
    action: str,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> Table:
    variables = model.variables_of(controller)
    if not variables:
        raise AnalysisError(f"no process model: controller {controller} owns no variables")
    total = 1
    for var in variables:
        total *= len(var.values)
    if total > max_rows:
        raise AnalysisError(
            f"context table for {controller}/{action} would have {total} rows "
            f"(limit {max_rows}); abstract the process-model variables or raise the limit"
        )
    ucas = [u for u in model.ucas_on(action) if u.source_controller == controller]
    table_marks = []
    hit_rows: list[list[int]] = [[] for _ in ucas]
    for i, concrete in enumerate(enumerate_contexts(variables)):
        marks: dict[GuideCategory, list[str]] = {}
        for uca, rows in zip(ucas, hit_rows):
            if context_matches(uca.context, concrete):
                marks.setdefault(uca.guide.category, []).append(uca.id)
                rows.append(i)
        table_marks.append(marks)
    hits = [(uca.guide.category, uca.id, rows) for uca, rows in zip(ucas, hit_rows) if rows]
    return Table(controller, action, variables, hits, table_marks)


def render_context_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [v.label for v in table.variables] + [cat.value for cat, _ in WORKSHEET_COLUMNS]
    writer.writerow(header)
    for row in table.rows:
        record = [row.context.assignments[v.id] for v in table.variables]
        for cat, _ in WORKSHEET_COLUMNS:
            record.append(" ".join(row.ucas_for(cat)))
        writer.writerow(record)
    return buf.getvalue()


def coverage_gaps(table, category: GuideCategory) -> list[Context]:
    return [row.context for row in table.rows if not row.ucas_for(category)]
