"""Context enumeration, UCA coverage and conflict detection, traceability closure.

Context tables are the combinatorial heart of the tool: one row per concrete
assignment of a controller's process-model variables, marked per guide
category with the UCAs whose (partial) context matches the row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    AnalysisError,
    Context,
    Diagnostic,
    EntityKind,
    GuideCategory,
    ProcessModelVariable,
    Severity,
    StpaModel,
    UnsafeControlAction,
    FALLBACK_SPAN,
    context_matches,
)

DEFAULT_MAX_ROWS = 100_000


@dataclass
class ContextRow:
    context: Context
    marks: dict[GuideCategory, list[str]] = field(default_factory=dict)

    def ucas_for(self, category: GuideCategory) -> list[str]:
        return self.marks.get(category, [])


@dataclass
class ContextTable:
    controller: str
    action: str
    variables: list[ProcessModelVariable]
    rows: list[ContextRow]


@dataclass
class Conflict:
    """A NotProvided/ProvidedUnsafe UCA pair whose contexts overlap."""

    action: str
    uca_a: str
    uca_b: str
    shared: list[Context]


@dataclass
class ModelStats:
    losses: int = 0
    hazards: int = 0
    constraints: int = 0
    edges: int = 0
    variables: int = 0
    ucas: int = 0
    causal_factors: int = 0
    controller_constraints: int = 0
    entities_by_kind: dict[str, int] = field(default_factory=dict)
    ucas_by_guide: dict[str, int] = field(default_factory=dict)
    ucas_by_action_guide: dict[str, dict[str, int]] = field(default_factory=dict)
    ucas_per_hazard: dict[str, int] = field(default_factory=dict)
    cfs_by_category: dict[str, int] = field(default_factory=dict)


def enumerate_contexts(variables: list[ProcessModelVariable]) -> list[Context]:
    """Full cartesian product of the variable domains, declaration order.

    The empty variable list yields exactly one empty context.
    """
    seen = set()
    for var in variables:
        if var.id in seen:
            raise AnalysisError(f"duplicate variable id {var.id}")
        seen.add(var.id)
    ids = [v.id for v in variables]
    return [
        Context(dict(zip(ids, combo)))
        for combo in itertools.product(*(v.values for v in variables))
    ]


def expand(partial: Context, variables: list[ProcessModelVariable]) -> list[Context]:
    """All concrete contexts over `variables` that match the partial context."""
    by_id = {v.id: v for v in variables}
    for var_id, value in partial.assignments.items():
        var = by_id.get(var_id)
        if var is None:
            raise AnalysisError(f"foreign variable: {var_id}")
        if value not in var.values:
            raise AnalysisError(f"value {value!r} is not in the domain of variable {var_id}")
    pools = [
        [partial.assignments[v.id]] if v.id in partial.assignments else v.values
        for v in variables
    ]
    ids = [v.id for v in variables]
    return [Context(dict(zip(ids, combo))) for combo in itertools.product(*pools)]


def build_context_table(
    model: StpaModel,
    controller: str,
    action: str,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> ContextTable:
    """One row per concrete context, marked with the matching UCAs per guide category."""
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


def coverage_gaps(table: ContextTable, category: GuideCategory) -> list[Context]:
    """Rows never cited by any UCA under the given guide category, table order."""
    return [row.context for row in table.rows if not row.ucas_for(category)]


def detect_conflicts(model: StpaModel, action: str) -> list[Conflict]:
    """NotProvided vs ProvidedUnsafe UCA pairs on one action with overlapping contexts.

    An overlap means the analyst has declared both withholding and providing
    the action hazardous in the same concrete contexts; the tool reports the
    dilemma, judging it is left to the analyst.
    """
    ucas = model.ucas_on(action)
    not_provided = [u for u in ucas if u.guide.category is GuideCategory.NOT_PROVIDED]
    provided = [u for u in ucas if u.guide.category is GuideCategory.PROVIDED_UNSAFE]
    conflicts = []
    for np_uca in not_provided:
        variables = model.variables_of(np_uca.source_controller)
        for pu_uca in provided:
            merged = _merge_contexts(np_uca.context, pu_uca.context)
            if merged is None:
                continue
            shared = expand(merged, variables)
            if shared:
                conflicts.append(Conflict(action, np_uca.id, pu_uca.id, shared))
    conflicts.sort(key=lambda c: (c.uca_a, c.uca_b))
    return conflicts


def _merge_contexts(a: Context, b: Context) -> Context | None:
    """Conjunction of two partial contexts; None when they contradict."""
    merged = dict(a.assignments)
    for var_id, value in b.assignments.items():
        if merged.get(var_id, value) != value:
            return None
        merged[var_id] = value
    return Context(merged)


def trace_closure(model: StpaModel) -> list[Diagnostic]:
    """Cross-step linkage checks: every artifact should be reachable end to end."""
    diags: list[Diagnostic] = []

    def span(decl):
        return decl.span if decl.span is not None else FALLBACK_SPAN

    cited_hazards = {ref for uca in model.ucas for ref in uca.hazards}
    for hz in model.hazards:
        if hz.id not in cited_hazards:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "trace/orphan-hazard",
                    f"hazard {hz.id} is not cited by any uca",
                    span(hz),
                )
            )
    cited_losses = {ref for hz in model.hazards for ref in hz.leads_to}
    for loss in model.losses:
        if loss.id not in cited_losses:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "trace/unreachable-loss",
                    f"loss {loss.id} unreachable: no hazard leads to it",
                    span(loss),
                )
            )
    covered_ucas = {ref for cf in model.causal_factors for ref in cf.ucas}
    for uca in model.ucas:
        if uca.id not in covered_ucas:
            diags.append(
                Diagnostic(
                    Severity.INFO,
                    "trace/uca-without-cf",
                    f"uca {uca.id} has no causal factor",
                    span(uca),
                )
            )
    for sc in model.constraints:
        if not any(ref in cited_hazards for ref in sc.mitigates):
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "trace/constraint-unlinked",
                    f"constraint {sc.id} mitigates no hazard cited by any uca",
                    span(sc),
                )
            )
    ucas_by_id = model.uca_ids()
    for cf in model.causal_factors:
        controllers = {
            ucas_by_id[ref].source_controller for ref in cf.ucas if ref in ucas_by_id
        }
        if len(controllers) > 1:
            listed = ", ".join(sorted(controllers))
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "trace/cf-cross-controller",
                    f"causal factor {cf.id} cites ucas of different controllers ({listed})",
                    span(cf),
                )
            )
    return diags


def stats(model: StpaModel) -> ModelStats:
    """Summary counts used by reports and the CLI."""
    result = ModelStats(
        losses=len(model.losses),
        hazards=len(model.hazards),
        constraints=len(model.constraints),
        edges=len(model.edges),
        variables=len(model.variables),
        ucas=len(model.ucas),
        causal_factors=len(model.causal_factors),
        controller_constraints=len(model.controller_constraints),
    )
    for kind in EntityKind:
        count = sum(1 for e in model.entities if e.kind is kind)
        if count:
            result.entities_by_kind[kind.value] = count
    for category in GuideCategory:
        count = sum(1 for u in model.ucas if u.guide.category is category)
        if count:
            result.ucas_by_guide[category.value] = count
    for uca in model.ucas:
        per_action = result.ucas_by_action_guide.setdefault(uca.action, {})
        key = uca.guide.category.value
        per_action[key] = per_action.get(key, 0) + 1
    for hz in model.hazards:
        result.ucas_per_hazard[hz.id] = sum(1 for u in model.ucas if hz.id in u.hazards)
    for cf in model.causal_factors:
        key = cf.category.value
        result.cfs_by_category[key] = result.cfs_by_category.get(key, 0) + 1
    return result
