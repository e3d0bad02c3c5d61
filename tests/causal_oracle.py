"""Enumeration-based reference for the causal analysis.

These are the original implementations of `walk_paths`, `checklist`, the
on-path set and `validate_cfs`. The oracle lists every walk with its own
depth-first loop, a copy of `stpalint.causal._walks` kept apart so that a
change there shows, and reads the answer off the walks. They cost time
exponential in the depth of the feedback structure, so they serve only as
the oracle the searches of `stpalint.causal` are compared with.

The oracle builds its own id maps, where a repeated id means its last
declaration, and its own adjacency lists, so a wrong `ModelIndex` shows.
"""

from __future__ import annotations

from typing import Iterator

from stpalint.causal import (
    _PROMPTS,
    DEFAULT_MAX_WALKS,
    ChecklistItem,
    PathDirection,
    PathWalk,
    _is_network,
)
from stpalint.model import (
    AnalysisError,
    CausalFactor,
    CfCategory,
    Diagnostic,
    EdgeKind,
    EntityKind,
    GuideCategory,
    Severity,
    StpaModel,
    UnsafeControlAction,
    FALLBACK_SPAN,
)


def _adjacency(model: StpaModel, kind: EdgeKind, *, reverse: bool) -> dict[str, list[str]]:
    """Neighbours along the chains of every `kind` edge, in first-seen order.

    Maps each node to its successors, or to its predecessors when `reverse`.
    """
    adjacent: dict[str, list[str]] = {}
    for edge in model.edges:
        if edge.kind is not kind:
            continue
        chain = edge.chain()
        for a, b in zip(chain, chain[1:]):
            if reverse:
                a, b = b, a
            bucket = adjacent.setdefault(a, [])
            if b not in bucket:
                bucket.append(b)
    return adjacent


def _walks(path: list[str], step: dict[str, list[str]], stop) -> Iterator[list[str]]:
    """Every walk that extends `path` along `step`, depth-first in adjacency order.

    A walk ends at a `stop` node or where no neighbour off the walk is left.
    The stack is explicit, so a walk may be longer than the recursion limit.
    """
    path = list(path)
    base = len(path)
    on_path = set(path)

    def nexts() -> list[str]:
        node = path[-1]
        return [] if node in stop else [n for n in step.get(node, ()) if n not in on_path]

    first = nexts()
    if not first:
        yield list(path)
    stack = [iter(first)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if len(path) > base:
                on_path.discard(path.pop())
            continue
        path.append(child)
        on_path.add(child)
        children = nexts()
        if not children:
            yield list(path)
        stack.append(iter(children))


def walk_paths(model: StpaModel, uca: UnsafeControlAction) -> tuple[list[PathWalk], list[Diagnostic]]:
    """Feedback walks into the UCA's controller and control walks along its action.

    Feedback walks run origin-first (an environment entity is a legal origin);
    control walks start at the controller, follow the UCA's own action edge,
    and continue until a controlled process or a dead end. Cycles are cut with
    a per-path visited set. The number of walks can grow exponentially with
    the depth of the structure: more than DEFAULT_MAX_WALKS raises AnalysisError.
    """
    preds = _adjacency(model, EdgeKind.FEEDBACK, reverse=True)
    succs = _adjacency(model, EdgeKind.CONTROL_ACTION, reverse=False)
    entities = {e.id: e for e in model.entities}
    processes = {i for i, e in entities.items() if e.kind is EntityKind.CONTROLLED_PROCESS}
    controller = uca.source_controller
    walks: list[PathWalk] = []

    def record(direction: PathDirection, elements: list[str]) -> None:
        if len(walks) == DEFAULT_MAX_WALKS:
            raise AnalysisError(
                f"uca {uca.id} has more than {DEFAULT_MAX_WALKS} walks; "
                "simplify the feedback structure"
            )
        walks.append(PathWalk(uca.id, direction, elements))

    diags: list[Diagnostic] = []
    if controller in preds:
        for walk in _walks([controller], preds, ()):
            record(PathDirection.FEEDBACK_PATH, walk[::-1])
    elif controller:  # an action that names no edge has no controller to warn about
        diags.append(
            Diagnostic(
                Severity.WARNING,
                "causal/open-loop",
                f"controller {controller} is open-loop: no feedback reaches it",
                uca.span or FALLBACK_SPAN,
            )
        )

    action_edge = {e.id: e for e in model.edges}.get(uca.action)
    if action_edge is not None:
        for walk in _walks(action_edge.chain(), succs, processes):
            record(PathDirection.CONTROL_PATH, walk)

    return walks, diags


def checklist(model: StpaModel, uca: UnsafeControlAction) -> list[ChecklistItem]:
    walks, _ = walk_paths(model, uca)
    entities = {e.id: e for e in model.entities}
    controller = uca.source_controller

    items: list[ChecklistItem] = []
    emitted: set[tuple[CfCategory, str]] = set()

    def emit(category: CfCategory, entity_id: str) -> None:
        if (category, entity_id) in emitted:
            return
        emitted.add((category, entity_id))
        label = entities[entity_id].label if entity_id in entities else entity_id
        items.append(ChecklistItem(category, entity_id, _PROMPTS[category].format(label=label)))

    emit(CfCategory.MENTAL_MODEL_CONTENT, controller)
    emit(CfCategory.MENTAL_MODEL_UPDATE, controller)

    feedback_walks = [w for w in walks if w.direction is PathDirection.FEEDBACK_PATH]
    control_walks = [w for w in walks if w.direction is PathDirection.CONTROL_PATH]

    for walk in feedback_walks:
        for idx, entity_id in enumerate(walk.elements):
            if entity_id == controller:
                continue
            ent = entities.get(entity_id)
            if ent is None:
                continue
            if ent.kind in (EntityKind.ENVIRONMENT, EntityKind.CONTROLLED_PROCESS):
                emit(CfCategory.PROCESS_DISTURBANCE, entity_id)
            elif ent.kind is EntityKind.CONTROLLER:
                emit(CfCategory.PRE_PROCESSING, entity_id)
            elif _is_network(ent):
                emit(CfCategory.TRANSMISSION_LOSS, entity_id)
            elif idx + 1 < len(walk.elements) and walk.elements[idx + 1] == controller:
                emit(CfCategory.PRESENTATION, entity_id)
            else:
                emit(CfCategory.SENSING_LIMITATION, entity_id)
                emit(CfCategory.SENSOR_OPERATION, entity_id)

    emit(CfCategory.CONTROL_ALGORITHM, controller)

    if uca.guide.category is GuideCategory.WRONG_TIMING:
        for walk in feedback_walks:
            for entity_id in walk.elements:
                ent = entities.get(entity_id)
                if ent is not None and ent.kind is EntityKind.ENVIRONMENT:
                    continue
                emit(CfCategory.TIMING_DELAY, entity_id)

    for walk in control_walks:
        for entity_id in walk.elements:
            if entity_id == controller:
                continue
            ent = entities.get(entity_id)
            if ent is None:
                continue
            if ent.kind in (EntityKind.ENVIRONMENT, EntityKind.CONTROLLED_PROCESS):
                emit(CfCategory.PROCESS_DISTURBANCE, entity_id)
            elif ent.kind is EntityKind.CONTROLLER:
                emit(CfCategory.PRE_PROCESSING, entity_id)
            elif _is_network(ent):
                emit(CfCategory.CONTROL_PATH_TRANSMISSION, entity_id)
            else:
                emit(CfCategory.ACTUATION_FAILURE, entity_id)

    return items


def on_path_ids(model: StpaModel, uca: UnsafeControlAction) -> set[str]:
    walks, _ = walk_paths(model, uca)
    ids = {uca.source_controller}
    for walk in walks:
        ids.update(walk.elements)
    return ids


def normalize(text: str) -> str:
    return " ".join("".join(ch for ch in text.lower() if ch.isalnum() or ch.isspace()).split())


def validate_cfs(model: StpaModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    ucas_by_id = {u.id: u for u in model.ucas}
    edges = {e.id: e for e in model.edges}

    def span(decl):
        return decl.span if decl.span is not None else FALLBACK_SPAN

    on_path_cache: dict[str, set[str]] = {}

    def on_path(uca_id: str) -> set[str]:
        if uca_id not in on_path_cache:
            on_path_cache[uca_id] = on_path_ids(model, ucas_by_id[uca_id])
        return on_path_cache[uca_id]

    for cf in model.causal_factors:
        cited = [ref for ref in cf.ucas if ref in ucas_by_id]
        if not cited:
            continue
        reachable: set[str] = set()
        for ref in cited:
            reachable.update(on_path(ref))
        located = cf.located_at
        edge = edges.get(located)
        ok = located in reachable or (
            edge is not None and edge.source in reachable and edge.target in reachable
        )
        if not ok:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "cf/off-path",
                    f"causal factor off-path: {cf.id} is located at {located}, "
                    f"which is on no walk of its ucas",
                    span(cf),
                )
            )

    groups: dict[tuple[CfCategory, str, str], list[CausalFactor]] = {}
    for cf in model.causal_factors:
        groups.setdefault((cf.category, cf.located_at, normalize(cf.description)), []).append(cf)
    for (_, located, _), members in groups.items():
        for dup in members[1:]:
            first = members[0]
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "cf/possible-duplicate",
                    f"causal factor {dup.id} duplicates {first.id} "
                    f"(same category, location {located}, near-identical description)",
                    span(dup),
                    [("first declared here", span(first))],
                )
            )

    declared: dict[str, set[CfCategory]] = {}
    for cf in model.causal_factors:
        for ref in cf.ucas:
            declared.setdefault(ref, set()).add(cf.category)
    for uca in model.ucas:
        expected = []
        for item in checklist(model, uca):
            if item.category not in expected:
                expected.append(item.category)
        missing = [c for c in expected if c not in declared.get(uca.id, set())]
        for category in missing:
            diags.append(
                Diagnostic(
                    Severity.INFO,
                    "cf/unaddressed-category",
                    f"uca {uca.id} has no causal factor in category {category.value}",
                    span(uca),
                )
            )
    return diags
