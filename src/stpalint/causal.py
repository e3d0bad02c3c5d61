"""Path walks through the control structure and causal-factor checklists.

A safety constraint can be broken in two ways: the controller issues the
unsafe action itself (analyze the feedback path feeding its beliefs), or a
correct action is issued but not followed (analyze the control path down to
the process). Both walks drive the per-UCA checklist and validate where
declared causal factors may sit.

`walk_paths` lists the walks themselves, whose number can be exponential.
`check` and `checklist` never list them: one depth-first search per
feedback element next to the controller, one timing search and one control
search give a key's checklist and on-path set, in the order the walks
would, memoized on the command's `ModelIndex`.
"""

from __future__ import annotations

import re
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


def _walks(path: list[str], step: dict[str, dict], stop) -> Iterator[list[str]]:
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


def _search(path, step, stop, categories, emitted: dict, backward: bool) -> set[str]:
    """Emit `categories(node, depth)` in the order the walks of `_walks` would; return the nodes reached.

    Each category is emitted as the key `(category, node)` of `emitted`,
    where a key already present keeps its place; `depth` is a node's index
    in `path`. The search enters each node once. Forward, a node is emitted
    when it is entered. Backward, on entering a node whose first neighbour
    off `path` is missing or already seen, the part of `path` not yet
    emitted is emitted from the top down, as the first walk through that
    node emits it. That is the whole answer because a node seen before and
    now off `path` reaches only seen nodes without using `path` (the
    white-path property of depth-first search), so no walk through it emits
    anything new, as long as `categories` gives a node one answer at every
    depth past the start. The stack is explicit, so the search costs O(V+E)
    at any depth.
    """
    path = list(path)
    base = len(path)
    seen = set(path)
    on_path = set(path)
    done = 0  # how many nodes at the bottom of `path` are emitted

    def enter() -> Iterator[str]:
        nonlocal done
        nexts = () if path[-1] in stop else step.get(path[-1], ())
        if backward:
            first = next((n for n in nexts if n not in on_path), None)
            if first is not None and first not in seen:
                return iter(nexts)  # the first walk from here ends below `first`
        depths = range(done, len(path))
        for depth in reversed(depths) if backward else depths:
            for category in categories(path[depth], depth):
                emitted[category, path[depth]] = None
        done = len(path)
        return iter(nexts)

    stack = [enter()]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if len(path) > base:
                on_path.discard(path.pop())
                done = min(done, len(path))
        elif child not in seen:
            seen.add(child)
            on_path.add(child)
            path.append(child)
            stack.append(enter())
    return seen


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


def _memo(index: ModelIndex, uca: UnsafeControlAction) -> tuple[dict, tuple[CfCategory, ...], set[str]]:
    """The UCA's checklist pairs, their categories and its on-path set.

    Memoized per (controller, action, wrong timing), the only parts of a UCA
    they depend on.
    """
    key = (uca.source_controller, uca.action, uca.guide.category is GuideCategory.WRONG_TIMING)
    memo = index.checklists.get(key)
    if memo is None:
        pairs, ids = _checklist(index, *key)
        memo = index.checklists[key] = (pairs, tuple(dict.fromkeys(category for category, _ in pairs)), ids)
    return memo


def on_path(index: ModelIndex, uca: UnsafeControlAction) -> set[str]:
    """The UCA's controller and every element of its feedback and control walks."""
    return _memo(index, uca)[2]


def categories(index: ModelIndex, uca: UnsafeControlAction) -> tuple[CfCategory, ...]:
    """The distinct categories of the UCA's checklist, in order of first appearance."""
    return _memo(index, uca)[1]


def _checklist(index: ModelIndex, controller: str, action: str, wrong_timing: bool) -> tuple[dict, set[str]]:
    """The key's (category, entity id) pairs, as dict keys in checklist order, and the nodes on its walks.

    No walk is listed. The nodes the searches reach are the nodes on the
    walks. Depth 1 of a feedback walk has categories of its own, so each
    feedback element next to the controller gets a search of its own.
    """
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

    pairs = {(CfCategory.MENTAL_MODEL_CONTENT, controller): None}
    pairs[CfCategory.MENTAL_MODEL_UPDATE, controller] = None
    ids = {controller}
    for first in index.preds.get(controller, ()):
        if first != controller:
            ids |= _search([controller, first], index.preds, (), feedback, pairs, backward=True)
    pairs[CfCategory.CONTROL_ALGORITHM, controller] = None
    if wrong_timing and controller in index.preds:
        _search([controller], index.preds, (), timing, pairs, backward=True)
    edge = index.ids["edges"].get(action)
    if edge is not None:
        ids |= _search(edge.chain(), index.succs, index.processes, control, pairs, backward=False)
    return pairs, ids


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
# the same rule on ASCII text, with the lowercasing, as one `bytes.translate`
_ASCII_LOWER = bytes(range(256)).lower()
_ASCII_PUNCTUATION = "".join(_PUNCTUATION.findall(bytes(range(128)).decode())).encode()


def _normalize(text: str) -> str:
    if text.isascii():  # decoded before the split: `str.split` splits at \x1c-\x1f, `bytes.split` does not
        text = text.encode().translate(_ASCII_LOWER, _ASCII_PUNCTUATION).decode()
    else:
        text = _PUNCTUATION.sub("", text.lower())
    return " ".join(text.split())


def validate_cfs(model: StpaModel | ModelIndex) -> list[Diagnostic]:
    """Check declared causal factors against the walk structure.

    Errors for factors located off every walk of their UCAs, warnings for
    likely duplicates, and one info per checklist category a UCA leaves
    unaddressed.
    """
    index = indexed(model)
    model, ucas_by_id = index.model, index.ids["ucas"]
    diags: list[Diagnostic] = []

    declared: dict[str, list[CfCategory]] = {}  # each cited id's categories, in order of first citation
    for cf in model.causal_factors:
        for ref in cf.ucas:
            declared.setdefault(ref, []).append(cf.category)
    on_paths = {ref: on_path(index, ucas_by_id[ref]) for ref in declared if ref in ucas_by_id}  # memos in that order
    edges = index.ids["edges"]
    groups: dict[tuple[CfCategory, str, str], list[CausalFactor]] = {}
    for cf in model.causal_factors:
        groups.setdefault((cf.category, cf.located_at, _normalize(cf.description)), []).append(cf)
        sets = [on_paths[ref] for ref in cf.ucas if ref in on_paths]
        located = cf.located_at
        if not sets or located in sets[0] or any(located in ids for ids in sets):  # most cite one UCA
            continue
        edge = edges.get(located)
        if edge is None or not (any(edge.source in ids for ids in sets) and any(edge.target in ids for ids in sets)):
            message = f"causal factor off-path: {cf.id} is located at {located}, which is on no walk of its ucas"
            diags.append(diagnostic("cf/off-path", message, span_of(cf)))

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

    for uca in model.ucas:
        covered = declared.get(uca.id, ())
        for category in categories(index, uca):
            if category in covered:
                continue
            message = f"uca {uca.id} has no causal factor in category {category._value_}"
            diags.append(diagnostic("cf/unaddressed-category", message, span_of(uca)))
    return diags
