"""Context enumeration, UCA coverage and conflict detection, summary counts.

Context tables are the combinatorial heart of the tool: one row per concrete
assignment of a controller's process-model variables, marked per guide
category with the UCAs whose (partial) context matches the row. A table
holds no row: each UCA's hit keeps the domain positions it allows per
variable, and rows, marks and coverage gaps are views derived from them.

`trace_closure` lives in `model`, so that `check` does not load this module;
the name is imported here as well, for callers that take it from `analysis`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .model import (
    _KINDS,
    AnalysisError,
    Context,
    EntityKind,
    GuideCategory,
    ProcessModelVariable,
    Record,
    StpaModel,
    trace_closure,
)

DEFAULT_MAX_ROWS = 100_000


class ContextRow(Record, defaults={"marks": dict}):
    __slots__ = ("context", "marks")

    def ucas_for(self, category: GuideCategory) -> list[str]:
        return self.marks.get(category, [])


class ContextTable(Record):
    """The domain positions each UCA allows; row i's context is `enumerate_contexts(variables)[i]`."""

    # hits: (category, UCA id, positions) per marking UCA, UCA order; see `build_context_table`
    __slots__ = ("controller", "action", "variables", "hits")

    def checked_size(self) -> int:
        """The number of rows; ValueError if a hit has positions for another number of variables or outside a domain."""
        sizes = [len(v.values) for v in self.variables]
        lists = [positions for _, _, positions in self.hits]
        # each variable's distinct position tuples, with no loop step per hit: a table shares them between hits
        columns = [list(itertools.chain.from_iterable(filter(None, set(c)))) for c in zip(*lists)]
        if not all(map(len(sizes).__eq__, map(len, lists))) or not all(
            min(c, default=0) >= 0 and max(c, default=-1) < n for c, n in zip(columns, sizes)
        ):
            for _, uca_id, positions in self.hits:  # name the first bad hit
                outside = any(not 0 <= p < n for a, n in zip(positions, sizes) for p in a or ())
                if outside or len(positions) != len(sizes):
                    raise ValueError(f"uca {uca_id} marks a row outside the {math.prod(sizes)} rows of the table")
        return math.prod(sizes)

    def hit_rows(self, positions: list[tuple[int, ...] | None]) -> list[int]:
        """Ascending indices of the rows a hit's positions allow: mixed-radix numbers over the domain sizes."""
        rows = [0]
        for var, allowed in zip(self.variables, positions):
            size = len(var.values)
            rows = [r * size + p for r in rows for p in (range(size) if allowed is None else allowed)]
        return rows

    @property
    def marks(self) -> list[dict[GuideCategory, list[str]]]:
        """One dict per row, the UCAs that mark it per guide category, built on each access."""
        marks: list[dict[GuideCategory, list[str]]] = [{} for _ in range(self.checked_size())]
        for category, uca_id, positions in self.hits:
            for i in self.hit_rows(positions):
                marks[i].setdefault(category, []).append(uca_id)
        return marks

    @property
    def rows(self) -> list[ContextRow]:
        """The rows with their contexts, built on each access."""
        return [ContextRow(c, m) for c, m in zip(enumerate_contexts(self.variables), self.marks, strict=True)]


class Conflict(Record):
    """A NotProvided/ProvidedUnsafe UCA pair whose contexts overlap."""

    __slots__ = ("action", "uca_a", "uca_b", "shared")


# ModelStats' fields: the size of each model section but `entities`, then the breakdowns
_COUNTS = tuple(section for section in _KINDS if section != "entities")
_BREAKDOWNS = ("entities_by_kind", "ucas_by_guide", "ucas_by_action_guide", "ucas_per_hazard", "cfs_by_category")


class ModelStats(Record, defaults={**dict.fromkeys(_COUNTS, 0), **dict.fromkeys(_BREAKDOWNS, dict)}):
    __slots__ = _COUNTS + _BREAKDOWNS


def enumerate_contexts(variables: list[ProcessModelVariable]) -> list[Context]:
    """Full cartesian product of the variable domains, declaration order.

    The empty variable list yields exactly one empty context.
    """
    _require_unique_ids(variables)
    ids = [v.id for v in variables]
    return [
        Context(dict(zip(ids, combo)))
        for combo in itertools.product(*(v.values for v in variables))
    ]


def _require_unique_ids(variables: list[ProcessModelVariable]) -> None:
    seen = set()
    for var in variables:
        if var.id in seen:
            raise AnalysisError(f"duplicate variable id {var.id}")
        seen.add(var.id)


def expand(partial: Context, variables: list[ProcessModelVariable]) -> list[Context]:
    """All concrete contexts over `variables` that match the partial context."""
    _require_unique_ids(variables)
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
    total = math.prod(len(pool) for pool in pools)
    if total > DEFAULT_MAX_ROWS:
        raise AnalysisError(
            f"expansion of a partial context would have {total} rows "
            f"(limit {DEFAULT_MAX_ROWS}); abstract the process-model variables"
        )
    ids = [v.id for v in variables]
    return [Context(dict(zip(ids, combo))) for combo in itertools.product(*pools)]


def build_context_table(
    model: StpaModel,
    controller: str,
    action: str,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> ContextTable:
    """The domain positions each UCA of the pair allows, per variable: the table's `hits`.

    A UCA's hit keeps, for each variable it assigns, the ascending positions
    of its value in the domain, and None for each variable it leaves free; a UCA
    whose value is in no domain marks no row and has no hit. A UCA that names
    a variable the controller does not own raises `AnalysisError` for the
    foreign variable a row-by-row, UCA-by-UCA scan would meet first: the one
    met on the lowest row, and on a tie the earlier UCA's. The cost is one
    step per (UCA, assignment) pair plus one per variable and value: no row
    index, row or context is built.
    """
    variables = model.variables_of(controller)
    if not variables:
        raise AnalysisError(f"no process model: controller {controller} owns no variables")
    hits = []
    table = ContextTable(controller, action, variables, hits)
    total = table.checked_size()
    if total > max_rows:
        raise AnalysisError(
            f"context table for {controller}/{action} would have {total} rows "
            f"(limit {max_rows}); abstract the process-model variables or raise the limit"
        )
    _require_unique_ids(variables)
    index = _row_index(variables)
    # a table without rows (an empty domain) meets no UCA
    ucas = [u for u in model.ucas_on(action) if u.source_controller == controller] if total else []
    first = None  # (row, variable id): the foreign variable a row-by-row, UCA-by-UCA scan meets first
    for u in ucas:
        positions, foreign = _allowed(u.context, index)
        if foreign is not None:
            # `context_matches` stops at a row's first disagreeing assignment, so a scan meets `foreign` first
            # on the lowest row that agrees with the assignments before it: their first positions, 0 elsewhere
            row = table.hit_rows([(0,) if a is None else a[:1] for a in positions])[0]
            if first is None or row < first[0]:
                first = (row, foreign)
        elif positions is not None:
            hits.append((u.guide.category, u.id, positions))
    if first is not None:
        raise AnalysisError(f"foreign variable: {first[1]}")
    return table


def _row_index(variables: list[ProcessModelVariable]) -> dict[str, tuple[int, dict[str, tuple[int, ...]]]]:
    """Per variable id: its column and every position of each value."""
    index = {}
    for column, var in enumerate(variables):
        positions: dict[str, tuple[int, ...]] = {}
        for position, value in enumerate(var.values):
            positions[value] = (*positions.get(value, ()), position)
        index[var.id] = (column, positions)
    return index


def _allowed(partial: Context, index) -> tuple[list[tuple[int, ...] | None] | None, str | None]:
    """Per variable, the positions that agree with `partial` (None where it is free), and None.

    The positions are None when no row agrees. At the first foreign variable,
    the positions of the assignments before it come back with its id.
    """
    allowed: list[tuple[int, ...] | None] = [None] * len(index)
    for var_id, value in partial.assignments.items():
        entry = index.get(var_id)
        if entry is None:
            return allowed, var_id
        positions = entry[1].get(value)
        if positions is None:
            return None, None
        allowed[entry[0]] = positions
    return allowed, None


def coverage_gaps(table: ContextTable, category: GuideCategory) -> list[Context]:
    """Rows never cited by any UCA under the given guide category, table order."""
    contexts = enumerate_contexts(table.variables)
    return [c for c, marks in zip(contexts, table.marks, strict=True) if not marks.get(category)]


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


def stats(model: StpaModel) -> ModelStats:
    """Summary counts used by reports and the CLI: each breakdown is one `Counter` over its list."""
    kinds = Counter(e.kind for e in model.entities)
    guides = Counter(u.guide.category for u in model.ucas)
    by_action_guide: dict[str, dict[str, int]] = {}
    for (action, guide), count in Counter((u.action, u.guide.category.value) for u in model.ucas).items():
        by_action_guide.setdefault(action, {})[guide] = count
    cited = Counter(ref for u in model.ucas for ref in set(u.hazards))  # a UCA counts once per hazard
    return ModelStats(
        *(len(getattr(model, section)) for section in _COUNTS),
        {kind.value: kinds[kind] for kind in EntityKind if kind in kinds},  # kinds and guides in enum order
        {category.value: guides[category] for category in GuideCategory if category in guides},
        by_action_guide,
        {hz.id: cited[hz.id] for hz in model.hazards},
        dict(Counter(cf.category.value for cf in model.causal_factors)),
    )
