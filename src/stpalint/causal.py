"""Path walks through the control structure and causal-factor checklists.

A safety constraint can be broken in two ways: the controller issues the
unsafe action itself (analyze the feedback path feeding its beliefs), or a
correct action is issued but not followed (analyze the control path down to
the process). Both walks drive the per-UCA checklist and validate where
declared causal factors may sit.

`walk_paths` lists the walks themselves, whose number can be exponential.
`check` and `checklist` never list them: a CausalIndex derives on-path sets
by reachability and checklists by a pruned traversal, once per model.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .model import (
    AnalysisError,
    CausalFactor,
    CfCategory,
    Diagnostic,
    EdgeKind,
    Entity,
    EntityKind,
    GuideCategory,
    Severity,
    StpaModel,
    UnsafeControlAction,
    FALLBACK_SPAN,
)

DEFAULT_MAX_WALKS = 100_000


class PathDirection(Enum):
    FEEDBACK_PATH = "feedback"
    CONTROL_PATH = "control"


@dataclass
class PathWalk:
    uca: str
    direction: PathDirection
    elements: list[str]  # entity ids, origin first


@dataclass
class ChecklistItem:
    category: CfCategory
    located_at: str
    prompt: str


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


def _feedback_predecessors(model: StpaModel) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {}
    for edge in model.edges:
        if edge.kind is not EdgeKind.FEEDBACK:
            continue
        chain = edge.chain()
        for a, b in zip(chain, chain[1:]):
            bucket = preds.setdefault(b, [])
            if a not in bucket:
                bucket.append(a)
    return preds


def _control_successors(model: StpaModel) -> dict[str, list[str]]:
    succs: dict[str, list[str]] = {}
    for edge in model.edges:
        if edge.kind is not EdgeKind.CONTROL_ACTION:
            continue
        chain = edge.chain()
        for a, b in zip(chain, chain[1:]):
            bucket = succs.setdefault(a, [])
            if b not in bucket:
                bucket.append(b)
    return succs


def _reach(start: str, step: dict[str, list[str]], blocked, stop=frozenset()) -> set[str]:
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


def _emit_walks(path, step, stop, categories, emitted, emit, backward: bool) -> None:
    """Emit `categories(node, depth)` along every walk that extends `path`, in walk order.

    A walk extends `path` along `step` until it reaches a `stop` node or no
    neighbour off the walk is left, depth-first in adjacency order, exactly
    as `walk_paths` lists them; `depth` is a node's index in the walk, and
    each walk is emitted last node first when `backward`. Listing the walks
    costs time exponential in their length. Instead, a neighbour is skipped
    when every node reachable from it off the current path is already
    emitted in the role it would have below it: each walk under that
    neighbour would emit nothing new but the current path, so the current
    path is emitted once in its place. The traversal descends only where
    something is left to emit, so its cost is polynomial.
    """
    path = list(path)
    base = len(path)
    on_path = set(path)

    def done(node: str, depth: int) -> bool:
        return all((category, node) in emitted for category in categories(node, depth))

    def emit_path() -> None:
        depths = range(len(path) - 1, -1, -1) if backward else range(len(path))
        for depth in depths:
            for category in categories(path[depth], depth):
                emit(category, path[depth])

    def enter() -> Iterator[str]:
        node = path[-1]
        nexts = [] if node in stop else [n for n in step.get(node, ()) if n not in on_path]
        if not nexts:
            emit_path()  # a walk ends here
        return iter(nexts)

    stack = [enter()]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if len(path) > base:
                on_path.discard(path.pop())
            continue
        depth = len(path)
        if done(child, depth) and all(
            done(node, depth + 1) for node in _reach(child, step, on_path, stop) if node != child
        ):
            emit_path()
        else:
            path.append(child)
            on_path.add(child)
            stack.append(enter())


def _open_loop_warning(uca: UnsafeControlAction) -> Diagnostic:
    return Diagnostic(
        Severity.WARNING,
        "causal/open-loop",
        f"controller {uca.source_controller} is open-loop: no feedback reaches it",
        uca.span if uca.span is not None else FALLBACK_SPAN,
    )


class CausalIndex:
    """The derived structures of one model, built once and shared by its UCAs.

    Holds the entity and edge maps and the feedback-predecessor and
    control-successor adjacency. On-path sets are memoized per (controller,
    action) and checklists per (controller, action, wrong timing), the only
    parts of a UCA they depend on. Nothing here lists walks.
    """

    def __init__(self, model: StpaModel):
        self.entities = model.entity_ids()
        self.edges = model.edge_ids()
        self.preds = _feedback_predecessors(model)
        self.succs = _control_successors(model)
        self.processes = {
            i for i, e in self.entities.items() if e.kind is EntityKind.CONTROLLED_PROCESS
        }
        self._on_path: dict[tuple[str, str], set[str]] = {}
        self._checklists: dict[tuple[str, str, bool], list[ChecklistItem]] = {}

    def on_path(self, uca: UnsafeControlAction) -> set[str]:
        """The UCA's controller and every element of its feedback and control walks.

        Found by reachability: a node lies on some walk exactly when a walk
        prefix reaches it, because every prefix extends to a whole walk.
        """
        key = (uca.source_controller, uca.action)
        ids = self._on_path.get(key)
        if ids is None:
            ids = _reach(uca.source_controller, self.preds, ())
            edge = self.edges.get(uca.action)
            if edge is not None:
                chain = edge.chain()
                ids.update(chain)
                ids |= _reach(chain[-1], self.succs, set(chain), self.processes)
            self._on_path[key] = ids
        return ids

    def checklist(self, uca: UnsafeControlAction) -> list[ChecklistItem]:
        """The items `checklist(model, uca)` returns, computed once per key."""
        key = (uca.source_controller, uca.action, uca.guide.category is GuideCategory.WRONG_TIMING)
        if key not in self._checklists:
            self._checklists[key] = self._checklist(*key)
        return list(self._checklists[key])

    def _checklist(self, controller: str, action: str, wrong_timing: bool) -> list[ChecklistItem]:
        entities = self.entities
        items: list[ChecklistItem] = []
        emitted: set[tuple[CfCategory, str]] = set()

        def emit(category: CfCategory, entity_id: str) -> None:
            if (category, entity_id) in emitted:
                return
            emitted.add((category, entity_id))
            label = entities[entity_id].label if entity_id in entities else entity_id
            items.append(ChecklistItem(category, entity_id, _PROMPTS[category].format(label=label)))

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

        closed_loop = controller in self.preds
        emit(CfCategory.MENTAL_MODEL_CONTENT, controller)
        emit(CfCategory.MENTAL_MODEL_UPDATE, controller)
        if closed_loop:
            _emit_walks([controller], self.preds, (), feedback, emitted, emit, backward=True)
        emit(CfCategory.CONTROL_ALGORITHM, controller)
        if wrong_timing and closed_loop:
            _emit_walks([controller], self.preds, (), timing, emitted, emit, backward=True)
        edge = self.edges.get(action)
        if edge is not None:
            _emit_walks(edge.chain(), self.succs, self.processes, control, emitted, emit, backward=False)
        return items


def walk_paths(model: StpaModel, uca: UnsafeControlAction) -> tuple[list[PathWalk], list[Diagnostic]]:
    """Feedback walks into the UCA's controller and control walks along its action.

    Feedback walks run origin-first (an environment entity is a legal origin);
    control walks start at the controller, follow the UCA's own action edge,
    and continue until a controlled process or a dead end. Cycles are cut with
    a per-path visited set. The number of walks can grow exponentially with
    the depth of the structure: more than DEFAULT_MAX_WALKS raises AnalysisError.
    `check` and `checklist` never list walks; they use CausalIndex.
    """
    index = CausalIndex(model)
    controller = uca.source_controller
    walks: list[PathWalk] = []

    def record(direction: PathDirection, elements: list[str]) -> None:
        if len(walks) == DEFAULT_MAX_WALKS:
            raise AnalysisError(
                f"uca {uca.id} has more than {DEFAULT_MAX_WALKS} walks; "
                "simplify the feedback structure"
            )
        walks.append(PathWalk(uca.id, direction, elements))

    preds = index.preds

    def extend_back(path: list[str]) -> None:
        # path is reversed: controller first
        node = path[-1]
        incoming = [p for p in preds.get(node, []) if p not in path]
        if not incoming:
            record(PathDirection.FEEDBACK_PATH, list(reversed(path)))
            return
        for pred in incoming:
            extend_back(path + [pred])

    diags: list[Diagnostic] = []
    if controller in preds:
        extend_back([controller])
    else:
        diags.append(_open_loop_warning(uca))

    succs = index.succs
    feedback_count = len(walks)
    action_edge = index.edges.get(uca.action)

    def extend_forward(path: list[str]) -> None:
        node = path[-1]
        if node in index.processes:
            record(PathDirection.CONTROL_PATH, path)
            return
        outgoing = [s for s in succs.get(node, []) if s not in path]
        if not outgoing:
            record(PathDirection.CONTROL_PATH, path)
            return
        for succ in outgoing:
            extend_forward(path + [succ])

    if action_edge is not None:
        chain = action_edge.chain()
        # walk the action's own chain first, then continue from its target
        if chain[-1] in index.processes:
            record(PathDirection.CONTROL_PATH, chain)
        else:
            for succ in [s for s in succs.get(chain[-1], []) if s not in chain]:
                extend_forward(chain + [succ])
            if len(walks) == feedback_count:
                record(PathDirection.CONTROL_PATH, chain)

    return walks, diags


def checklist(model: StpaModel, uca: UnsafeControlAction) -> list[ChecklistItem]:
    """Deterministic causal-factor prompts covering every walk element.

    Order: controller beliefs first, then the feedback walks element by
    element, the controller's algorithm, timing prompts for wrong-timing
    UCAs, and finally the control walks.
    """
    return CausalIndex(model).checklist(uca)


_PUNCTUATION = re.compile(r"[^\w\s]|_")  # keeps what str.isalnum or str.isspace accepts


def _normalize(text: str) -> str:
    return " ".join(_PUNCTUATION.sub("", text.lower()).split())


def validate_cfs(model: StpaModel) -> list[Diagnostic]:
    """Check declared causal factors against the walk structure.

    Errors for factors located off every walk of their UCAs, warnings for
    likely duplicates, and one info per checklist category a UCA leaves
    unaddressed.
    """
    index = CausalIndex(model)
    diags: list[Diagnostic] = []
    ucas_by_id = model.uca_ids()
    edges = index.edges

    def span(decl):
        return decl.span if decl.span is not None else FALLBACK_SPAN

    for cf in model.causal_factors:
        on_path = [index.on_path(ucas_by_id[ref]) for ref in cf.ucas if ref in ucas_by_id]
        if not on_path:
            continue
        located = cf.located_at
        edge = edges.get(located)
        ok = any(located in ids for ids in on_path) or (
            edge is not None
            and any(edge.source in ids for ids in on_path)
            and any(edge.target in ids for ids in on_path)
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
        groups.setdefault((cf.category, cf.located_at, _normalize(cf.description)), []).append(cf)
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
        covered = declared.get(uca.id, set())
        expected = dict.fromkeys(item.category for item in index.checklist(uca))
        for category in expected:
            if category in covered:
                continue
            diags.append(
                Diagnostic(
                    Severity.INFO,
                    "cf/unaddressed-category",
                    f"uca {uca.id} has no causal factor in category {category.value}",
                    span(uca),
                )
            )
    return diags
