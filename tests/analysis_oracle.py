"""Row-by-row reference for the context table.

This is the original `build_context_table`: it tests every row against every
UCA with `context_matches`, so it costs rows × UCAs. It serves only as the
oracle the indexed implementation in `stpalint.analysis` is compared with.
"""

from __future__ import annotations

from stpalint.analysis import DEFAULT_MAX_ROWS, ContextRow, ContextTable, enumerate_contexts
from stpalint.model import AnalysisError, GuideCategory, StpaModel, context_matches


def build_context_table(
    model: StpaModel,
    controller: str,
    action: str,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> ContextTable:
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
    rows = []
    for concrete in enumerate_contexts(variables):
        marks: dict[GuideCategory, list[str]] = {}
        for uca in ucas:
            if context_matches(uca.context, concrete):
                marks.setdefault(uca.guide.category, []).append(uca.id)
        rows.append(ContextRow(concrete, marks))
    return ContextTable(controller, action, variables, rows)
