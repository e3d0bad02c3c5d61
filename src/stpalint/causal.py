"""Path walks through the control structure and causal-factor checklists.

A safety constraint can be broken in two ways: the controller issues the
unsafe action itself (analyze the feedback path feeding its beliefs), or a
correct action is issued but not followed (analyze the control path down to
the process). Both walks drive the per-UCA checklist and validate where
declared causal factors may sit.

`walk_paths` lists the walks themselves, whose number can be exponential.
`check` and `checklist` never list them: they derive on-path sets by
reachability, and checklists by the same walk traversal with a prune test,
each memoized on the command's `ModelIndex`.
"""

from __future__ import annotations

import re
from collections import deque
from enum import Enum
from typing import Iterator

from .model import (
    AnalysisError,
    CausalFactor,
    CfCategory,
    Diagnostic,
    Entity,
    EntityKind,
    GuideCategory,
    ModelIndex,
    Record,
    StpaModel,
    UnsafeControlAction,
    diagnostic,
    indexed,
    span_of,
)

DEFAULT_MAX_WALKS = 100_000


class PathDirection(Enum):
    FEEDBACK_PATH = "feedback"
    CONTROL_PATH = "control"


class PathWalk(Record):
    # elements: entity ids, origin first
    __slots__ = ("uca", "direction", "elements")


class ChecklistItem(Record):
    __slots__ = ("category", "located_at", "prompt")


_PROMPTS: dict[CfCategory, str] = {
    CfCategory.MENTAL_MODEL_CONTENT: (
        "Does the process model of {label} contain missing or wrong beliefs about "
        "the controlled process, the environment, or the actuation chain?"
    ),
    CfCategory.MENTAL_MODEL_UPDATE: (
        "Is the process model of {label} updated too slowly, incompletely, or from "
        "an inadequate representation of the feedback?"
    ),
    CfCategory.CONTROL_ALGORITHM: (
        "Could the control algorithm of {label} (training, routine, stored rules) "
        "produce a wrong or missing action in this context?"
    ),
    CfCategory.SENSING_LIMITATION: (
        "Can {label} fail to capture the relevant state (field of view, occlusion, "
        "lighting, measurement range)?"
    ),
    CfCategory.SENSOR_OPERATION: (
        "Can {label} operate inadequately (hardware or power failure, connection "
        "errors, discretization or calibration inaccuracies)?"
    ),
    CfCategory.TRANSMISSION_LOSS: (
        "Can {label} drop, corrupt, or reorder the transmitted information?"
    ),
    CfCategory.PRE_PROCESSING: (
        "Can {label} distort the information while pre-processing it (wrong "
        "parameters, wrong internal beliefs, hardware failure)?"
    ),
    CfCategory.PRESENTATION: (
        "Can {label} mask or degrade the presented information (failure, dropped "
        "frames, low resolution, reflections)?"
    ),
    CfCategory.ACTUATION_FAILURE: (
        "Can {label} fail to execute or distort the commanded action?"
    ),
    CfCategory.CONTROL_PATH_TRANSMISSION: (
        "Can {label} delay, drop, or corrupt the command on its way to the process?"
    ),
    CfCategory.PROCESS_DISTURBANCE: (
        "Can disturbances at {label} change the outcome despite a correct command?"
    ),
    CfCategory.TIMING_DELAY: (
        "Can processing or transmission delays at {label} make the action come too "
        "early or too late?"
    ),
}


_PRESENTING = (CfCategory.PRESENTATION,)
_SENSING = (CfCategory.SENSING_LIMITATION, CfCategory.SENSOR_OPERATION)


def _is_network(entity: Entity) -> bool:
    # Network legs are ordinary sensors/actuators structurally; recognized by name.
    return "network" in entity.id.lower() or "network" in entity.label.lower()


def _reach(start: str, step: dict[str, dict], blocked, stop=frozenset()) -> set[str]:
    """`start` and every node reachable from it along `step`.

    The search enters no `blocked` node and does not continue past a `stop`
    node, so it finds exactly the nodes that some walk from `start` visits.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node in stop:
            continue
        for nxt in step.get(node, ()):
            if nxt not in seen and nxt not in blocked:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _walks(path: list[str], step: dict[str, dict], stop, prune=None) -> Iterator[list[str]]:
    """Every walk that extends `path` along `step`, depth-first in adjacency order.

    A walk ends at a `stop` node or where no neighbour off the walk is left.
    Where `prune(child, path, on_path)` holds, the walks under `child` are
    not entered and the current path is yielded once in their place. The
    stack is explicit, so a walk may be longer than the recursion limit.
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
        if prune is not None and prune(child, path, on_path):
            yield list(path)
            continue
        path.append(child)
        on_path.add(child)
        children = nexts()
        if not children:
            yield list(path)
        stack.append(iter(children))


def _emit_walks(path, step, stop, categories, emitted: dict, backward: bool) -> None:
    """Emit `categories(node, depth)` along every walk of `_walks`, in walk order.

    Each category is emitted as the key `(category, node)` of `emitted`,
    where a key already present keeps its place. `depth` is a node's index
    in the walk, and a walk is emitted last node first when `backward`. A
    neighbour is pruned when every node reachable from it off the current
    path is already emitted in the role it would have below it: each walk
    under it would emit nothing new but the current path. `_walks` is lazy,
    so each prune test sees what the walks before it emitted. So the
    traversal descends only where something is left to emit, and costs
    polynomial time where listing the walks costs exponential.
    """

    def done(node: str, depth: int) -> bool:
        return all((category, node) in emitted for category in categories(node, depth))

    def prune(child: str, path: list[str], on_path: set[str]) -> bool:
        return done(child, len(path)) and all(
            done(node, len(path) + 1) for node in _reach(child, step, on_path, stop) if node != child
        )

    for walk in _walks(path, step, stop, prune):
        for depth in range(len(walk) - 1, -1, -1) if backward else range(len(walk)):
            for category in categories(walk[depth], depth):
                emitted[category, walk[depth]] = None


def _open_loop(ucas: list[UnsafeControlAction], preds: dict[str, dict]) -> list[Diagnostic]:
    """One `causal/open-loop` warning per UCA whose controller no feedback reaches, in UCA order.

    A UCA without a source controller, one whose action names no edge, gets
    none: `resolve` already reports its dangling action.
    """
    return [
        diagnostic(
            "causal/open-loop",
            f"controller {uca.source_controller} is open-loop: no feedback reaches it",
            span_of(uca),
        )
        for uca in ucas
        if uca.source_controller and uca.source_controller not in preds
    ]


def open_loop(model: StpaModel | ModelIndex) -> list[Diagnostic]:
    """The `causal/open-loop` warnings of every UCA of the model; see `_open_loop`."""
    index = indexed(model)
    return _open_loop(index.model.ucas, index.preds)


def on_path(index: ModelIndex, uca: UnsafeControlAction) -> set[str]:
    """The UCA's controller and every element of its feedback and control walks.

    Found by reachability: a node lies on some walk exactly when a walk
    prefix reaches it, because every prefix extends to a whole walk. The
    set is memoized per (controller, action), the only parts of a UCA it
    depends on.
    """
    key = (uca.source_controller, uca.action)
    ids = index.on_paths.get(key)
    if ids is None:
        ids = _reach(uca.source_controller, index.preds, ())
        edge = index.ids["edges"].get(uca.action)
        if edge is not None:
            chain = edge.chain()
            ids.update(chain)
            ids |= _reach(chain[-1], index.succs, set(chain), index.processes)
        index.on_paths[key] = ids
    return ids


def _memo(index: ModelIndex, uca: UnsafeControlAction) -> tuple[dict, tuple[CfCategory, ...]]:
    """The UCA's checklist pairs and categories, memoized per (controller, action, wrong timing)."""
    key = (uca.source_controller, uca.action, uca.guide.category is GuideCategory.WRONG_TIMING)
    memo = index.checklists.get(key)
    if memo is None:
        pairs = _checklist(index, *key)
        memo = index.checklists[key] = (pairs, tuple(dict.fromkeys(category for category, _ in pairs)))
    return memo


def categories(index: ModelIndex, uca: UnsafeControlAction) -> tuple[CfCategory, ...]:
    """The distinct categories of the UCA's checklist, in order of first appearance."""
    return _memo(index, uca)[1]


def _checklist(index: ModelIndex, controller: str, action: str, wrong_timing: bool) -> dict[tuple, None]:
    """The key's (category, entity id) pairs, as dict keys in checklist order; no walk is listed."""
    entities = index.ids["entities"]

    def by_kind(entity_id: str, network: CfCategory, other: tuple[CfCategory, ...]):
        ent = entities.get(entity_id)
        if entity_id == controller or ent is None:
            return ()
        if ent.kind in (EntityKind.ENVIRONMENT, EntityKind.CONTROLLED_PROCESS):
            return (CfCategory.PROCESS_DISTURBANCE,)
        if ent.kind is EntityKind.CONTROLLER:
            return (CfCategory.PRE_PROCESSING,)
        if _is_network(ent):
            return (network,)
        return other

    def feedback(entity_id: str, depth: int) -> tuple[CfCategory, ...]:
        if depth == 1:  # the element presenting directly to the controller
            return by_kind(entity_id, CfCategory.TRANSMISSION_LOSS, _PRESENTING)
        return by_kind(entity_id, CfCategory.TRANSMISSION_LOSS, _SENSING)

    def timing(entity_id: str, depth: int) -> tuple[CfCategory, ...]:
        ent = entities.get(entity_id)
        if ent is not None and ent.kind is EntityKind.ENVIRONMENT:
            return ()  # reality itself carries no processing delay
        return (CfCategory.TIMING_DELAY,)

    def control(entity_id: str, depth: int) -> tuple[CfCategory, ...]:
        return by_kind(entity_id, CfCategory.CONTROL_PATH_TRANSMISSION, (CfCategory.ACTUATION_FAILURE,))

    closed_loop = controller in index.preds
    pairs = {(CfCategory.MENTAL_MODEL_CONTENT, controller): None}
    pairs[CfCategory.MENTAL_MODEL_UPDATE, controller] = None
    if closed_loop:
        _emit_walks([controller], index.preds, (), feedback, pairs, backward=True)
    pairs[CfCategory.CONTROL_ALGORITHM, controller] = None
    if wrong_timing and closed_loop:
        _emit_walks([controller], index.preds, (), timing, pairs, backward=True)
    edge = index.ids["edges"].get(action)
    if edge is not None:
        _emit_walks(edge.chain(), index.succs, index.processes, control, pairs, backward=False)
    return pairs


def walk_paths(model: StpaModel | ModelIndex, uca: UnsafeControlAction) -> tuple[list[PathWalk], list[Diagnostic]]:
    """Feedback walks into the UCA's controller and control walks along its action.

    Feedback walks run origin-first (an environment entity is a legal origin);
    control walks start at the controller, follow the UCA's own action edge,
    and continue until a controlled process or a dead end. Cycles are cut with
    a per-path visited set. The number of walks can grow exponentially with
    the depth of the structure: more than DEFAULT_MAX_WALKS raises AnalysisError.
    `check` and `checklist` never list walks.
    """
    index = indexed(model)
    controller = uca.source_controller
    walks: list[PathWalk] = []

    def record(direction: PathDirection, elements: list[str]) -> None:
        if len(walks) == DEFAULT_MAX_WALKS:
            raise AnalysisError(
                f"uca {uca.id} has more than {DEFAULT_MAX_WALKS} walks; "
                "simplify the feedback structure"
            )
        walks.append(PathWalk(uca.id, direction, elements))

    if controller in index.preds:
        for walk in _walks([controller], index.preds, ()):
            record(PathDirection.FEEDBACK_PATH, walk[::-1])

    action_edge = index.ids["edges"].get(uca.action)
    if action_edge is not None:
        for walk in _walks(action_edge.chain(), index.succs, index.processes):
            record(PathDirection.CONTROL_PATH, walk)

    return walks, _open_loop([uca], index.preds)


def checklist(model: StpaModel | ModelIndex, uca: UnsafeControlAction) -> list[ChecklistItem]:
    """Deterministic causal-factor prompts covering every walk element.

    Order: controller beliefs first, then the feedback walks element by
    element, the controller's algorithm, timing prompts for wrong-timing
    UCAs, and finally the control walks. Each prompt is written from the
    memoized pairs.
    """
    index = indexed(model)
    entities = index.ids["entities"]
    return [
        ChecklistItem(category, at, _PROMPTS[category].format(label=entities[at].label if at in entities else at))
        for category, at in _memo(index, uca)[0]
    ]


_PUNCTUATION = re.compile(r"[^\w\s]|_")  # keeps what str.isalnum or str.isspace accepts


def _normalize(text: str) -> str:
    return " ".join(_PUNCTUATION.sub("", text.lower()).split())


def validate_cfs(model: StpaModel | ModelIndex) -> list[Diagnostic]:
    """Check declared causal factors against the walk structure.

    Errors for factors located off every walk of their UCAs, warnings for
    likely duplicates, and one info per checklist category a UCA leaves
    unaddressed.
    """
    index = indexed(model)
    model, ucas_by_id = index.model, index.ids["ucas"]
    diags: list[Diagnostic] = []

    for cf in model.causal_factors:
        sets = [on_path(index, ucas_by_id[ref]) for ref in cf.ucas if ref in ucas_by_id]
        if not sets:
            continue
        located = cf.located_at
        edge = index.ids["edges"].get(located)
        ok = any(located in ids for ids in sets) or (
            edge is not None
            and any(edge.source in ids for ids in sets)
            and any(edge.target in ids for ids in sets)
        )
        if not ok:
            message = f"causal factor off-path: {cf.id} is located at {located}, which is on no walk of its ucas"
            diags.append(diagnostic("cf/off-path", message, span_of(cf)))

    groups: dict[tuple[CfCategory, str, str], list[CausalFactor]] = {}
    for cf in model.causal_factors:
        groups.setdefault((cf.category, cf.located_at, _normalize(cf.description)), []).append(cf)
    for (_, located, _), members in groups.items():
        for dup in members[1:]:
            first = members[0]
            diags.append(
                diagnostic(
                    "cf/possible-duplicate",
                    f"causal factor {dup.id} duplicates {first.id} "
                    f"(same category, location {located}, near-identical description)",
                    span_of(dup),
                    [("first declared here", span_of(first))],
                )
            )

    # lists, not sets: `in` compares identities and never calls the
    # Python-level `Enum.__hash__`
    declared: dict[str, list[CfCategory]] = {}
    for cf in model.causal_factors:
        for ref in cf.ucas:
            declared.setdefault(ref, []).append(cf.category)
    for uca in model.ucas:
        covered = declared.get(uca.id, ())
        for category in categories(index, uca):
            if category in covered:
                continue
            message = f"uca {uca.id} has no causal factor in category {category.value}"
            diags.append(diagnostic("cf/unaddressed-category", message, span_of(uca)))
    return diags
