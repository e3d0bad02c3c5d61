"""Domain types for STPA safety models.

The model is an aggregate of the four analysis steps: purpose (losses,
hazards, constraints), control structure (entities, edges), unsafe control
actions over process-model contexts, and causal factors. Everything here is
plain data; all checks are pure functions returning diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")

FALLBACK_SPAN: "SourceSpan"


class AnalysisError(ValueError):
    """Precondition violation in an analysis operation."""


class EntityKind(Enum):
    CONTROLLER = "controller"
    SENSOR = "sensor"
    ACTUATOR = "actuator"
    CONTROLLED_PROCESS = "process"
    ENVIRONMENT = "environment"


class EdgeKind(Enum):
    CONTROL_ACTION = "action"
    FEEDBACK = "feedback"


class GuideCategory(Enum):
    NOT_PROVIDED = "NotProvided"
    PROVIDED_UNSAFE = "ProvidedUnsafe"
    WRONG_TIMING = "WrongTiming"
    WRONG_DURATION = "WrongDuration"


class GuideQualifier(Enum):
    TOO_EARLY = "TooEarly"
    TOO_LATE = "TooLate"
    OUT_OF_ORDER = "OutOfOrder"
    STOPPED_TOO_SOON = "StoppedTooSoon"
    APPLIED_TOO_LONG = "AppliedTooLong"
    INSUFFICIENT = "Insufficient"
    EXCESSIVE = "Excessive"
    INSUFFICIENT_OR_EXCESSIVE = "InsufficientOrExcessive"


ALLOWED_QUALIFIERS: dict[GuideCategory, frozenset[GuideQualifier]] = {
    GuideCategory.NOT_PROVIDED: frozenset(),
    GuideCategory.PROVIDED_UNSAFE: frozenset(
        {
            GuideQualifier.INSUFFICIENT,
            GuideQualifier.EXCESSIVE,
            GuideQualifier.INSUFFICIENT_OR_EXCESSIVE,
        }
    ),
    GuideCategory.WRONG_TIMING: frozenset(
        {
            GuideQualifier.TOO_EARLY,
            GuideQualifier.TOO_LATE,
            GuideQualifier.OUT_OF_ORDER,
        }
    ),
    GuideCategory.WRONG_DURATION: frozenset(
        {
            GuideQualifier.STOPPED_TOO_SOON,
            GuideQualifier.APPLIED_TOO_LONG,
        }
    ),
}


def qualifier_allowed(category: GuideCategory, qualifier: GuideQualifier | None) -> bool:
    """Total legality relation over (category, qualifier) pairs."""
    if qualifier is None:
        return True
    return qualifier in ALLOWED_QUALIFIERS[category]


class CfCategory(Enum):
    MENTAL_MODEL_CONTENT = "MentalModelContent"
    MENTAL_MODEL_UPDATE = "MentalModelUpdate"
    CONTROL_ALGORITHM = "ControlAlgorithm"
    SENSING_LIMITATION = "SensingLimitation"
    SENSOR_OPERATION = "SensorOperation"
    TRANSMISSION_LOSS = "TransmissionLoss"
    PRE_PROCESSING = "PreProcessing"
    PRESENTATION = "Presentation"
    ACTUATION_FAILURE = "ActuationFailure"
    CONTROL_PATH_TRANSMISSION = "ControlPathTransmission"
    PROCESS_DISTURBANCE = "ProcessDisturbance"
    TIMING_DELAY = "TimingDelay"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line_start: int
    col_start: int
    line_end: int
    col_end: int


FALLBACK_SPAN = SourceSpan("<model>", 1, 1, 1, 1)


@dataclass
class Diagnostic:
    severity: Severity
    rule: str
    message: str
    span: SourceSpan
    related: list[tuple[str, SourceSpan]] = field(default_factory=list)

    def format(self) -> str:
        s = self.span
        return f"{s.file}:{s.line_start}:{s.col_start}: {self.severity.value}[{self.rule}]: {self.message}"


@dataclass
class Loss:
    id: str
    description: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Hazard:
    id: str
    description: str
    leads_to: list[str]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class SystemConstraint:
    id: str
    description: str
    mitigates: list[str]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Entity:
    id: str
    kind: EntityKind
    label: str
    in_system_boundary: bool = True
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Edge:
    id: str
    kind: EdgeKind
    label: str
    source: str
    target: str
    via: list[str] = field(default_factory=list)
    signals: list[str] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False)

    def chain(self) -> list[str]:
        """Entity ids along the edge, source to target, via elements inlined."""
        return [self.source, *self.via, self.target]


@dataclass
class ProcessModelVariable:
    id: str
    owner: str
    label: str
    values: list[str]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GuideWord:
    category: GuideCategory
    qualifier: GuideQualifier | None = None


@dataclass
class Context:
    """Partial assignment of process-model variables; unmentioned = wildcard."""

    assignments: dict[str, str] = field(default_factory=dict)

    def key(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.assignments.items()))


@dataclass
class UnsafeControlAction:
    id: str
    action: str
    source_controller: str
    guide: GuideWord
    context: Context
    hazards: list[str]
    description: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class CausalFactor:
    id: str
    category: CfCategory
    located_at: str
    ucas: list[str]
    description: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class ControllerConstraint:
    id: str
    derived_from: str
    description: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class StpaModel:
    losses: list[Loss] = field(default_factory=list)
    hazards: list[Hazard] = field(default_factory=list)
    constraints: list[SystemConstraint] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    variables: list[ProcessModelVariable] = field(default_factory=list)
    ucas: list[UnsafeControlAction] = field(default_factory=list)
    causal_factors: list[CausalFactor] = field(default_factory=list)
    controller_constraints: list[ControllerConstraint] = field(default_factory=list)

    def loss_ids(self) -> dict[str, Loss]:
        return {d.id: d for d in self.losses}

    def hazard_ids(self) -> dict[str, Hazard]:
        return {d.id: d for d in self.hazards}

    def entity_ids(self) -> dict[str, Entity]:
        return {d.id: d for d in self.entities}

    def edge_ids(self) -> dict[str, Edge]:
        return {d.id: d for d in self.edges}

    def variable_ids(self) -> dict[str, ProcessModelVariable]:
        return {d.id: d for d in self.variables}

    def uca_ids(self) -> dict[str, UnsafeControlAction]:
        return {d.id: d for d in self.ucas}

    def variables_of(self, controller: str) -> list[ProcessModelVariable]:
        """Process-model variables owned by a controller, declaration order."""
        return [v for v in self.variables if v.owner == controller]

    def ucas_on(self, action: str) -> list[UnsafeControlAction]:
        return [u for u in self.ucas if u.action == action]


def _span(decl) -> SourceSpan:
    return decl.span if decl.span is not None else FALLBACK_SPAN


def _error(rule: str, message: str, decl, related=None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, rule, message, _span(decl), related or [])


def resolve(model: StpaModel) -> list[Diagnostic]:
    """Check id uniqueness, reference closure and structural invariants.

    Returns one diagnostic per violation; an empty list means the model is
    internally consistent. Diagnostics are data, not failures.
    """
    diags: list[Diagnostic] = []

    kinds = [
        ("loss", model.losses),
        ("hazard", model.hazards),
        ("constraint", model.constraints),
        ("entity", model.entities),
        ("edge", model.edges),
        ("variable", model.variables),
        ("uca", model.ucas),
        ("causal factor", model.causal_factors),
        ("controller constraint", model.controller_constraints),
    ]
    for kind_name, decls in kinds:
        seen: dict[str, object] = {}
        for decl in decls:
            if not decl.id or not ID_PATTERN.match(decl.id):
                diags.append(
                    _error("resolve/bad-identifier", f"invalid {kind_name} id {decl.id!r}", decl)
                )
            if decl.id in seen:
                first = seen[decl.id]
                diags.append(
                    _error(
                        "resolve/duplicate-id",
                        f"duplicate id {decl.id}",
                        decl,
                        [("first declared here", _span(first))],
                    )
                )
            else:
                seen[decl.id] = decl

    losses = model.loss_ids()
    hazards = model.hazard_ids()
    entities = model.entity_ids()
    edges = model.edge_ids()
    variables = model.variable_ids()
    ucas = model.uca_ids()

    for loss in model.losses:
        if not loss.description:
            diags.append(_error("resolve/empty-description", f"loss {loss.id} has an empty description", loss))

    for hz in model.hazards:
        if not hz.description:
            diags.append(_error("resolve/empty-description", f"hazard {hz.id} has an empty description", hz))
        if not hz.leads_to:
            diags.append(_error("resolve/empty-ref-list", "hazard must reference at least one loss", hz))
        for ref in hz.leads_to:
            if ref not in losses:
                diags.append(_error("resolve/unresolved-ref", f"unresolved loss {ref}", hz))

    for sc in model.constraints:
        if not sc.mitigates:
            diags.append(_error("resolve/empty-ref-list", "constraint must reference at least one hazard", sc))
        for ref in sc.mitigates:
            if ref not in hazards:
                diags.append(_error("resolve/unresolved-ref", f"unresolved hazard {ref}", sc))

    for ent in model.entities:
        outside = ent.kind is EntityKind.ENVIRONMENT
        if ent.in_system_boundary == outside:
            which = "outside" if outside else "inside"
            diags.append(
                _error(
                    "resolve/boundary-mismatch",
                    f"entity {ent.id} of kind {ent.kind.value} must be {which} the system boundary",
                    ent,
                )
            )

    for edge in model.edges:
        if edge.source == edge.target:
            diags.append(_error("resolve/self-loop", f"edge {edge.id} connects {edge.source} to itself", edge))
        for ref in (edge.source, edge.target):
            if ref not in entities:
                diags.append(_error("resolve/unresolved-ref", f"unresolved entity {ref}", edge))
        for ref in edge.via:
            ent = entities.get(ref)
            if ent is None:
                diags.append(_error("resolve/unresolved-ref", f"unresolved entity {ref}", edge))
            elif ent.kind not in (EntityKind.SENSOR, EntityKind.ACTUATOR):
                diags.append(
                    _error("resolve/via-kind", f"via element {ref} must be a sensor or actuator", edge)
                )

    for var in model.variables:
        owner = entities.get(var.owner)
        if owner is None:
            diags.append(_error("resolve/unresolved-ref", f"unresolved entity {var.owner}", var))
        elif owner.kind is not EntityKind.CONTROLLER:
            diags.append(_error("resolve/variable-owner", f"variable owner {var.owner} must be a controller", var))
        if len(var.values) < 2:
            diags.append(_error("resolve/too-few-values", f"variable {var.id} needs at least two values", var))
        seen_values: set[str] = set()
        for value in var.values:
            if value in seen_values:
                diags.append(_error("resolve/duplicate-value", f"duplicate value label {value!r} in {var.id}", var))
            seen_values.add(value)

    for uca in model.ucas:
        edge = edges.get(uca.action)
        if edge is None:
            diags.append(_error("resolve/unresolved-ref", f"unresolved edge {uca.action}", uca))
        else:
            if edge.kind is not EdgeKind.CONTROL_ACTION:
                diags.append(
                    _error("resolve/not-a-control-action", f"uca {uca.id} must reference a control action edge", uca)
                )
            if uca.source_controller != edge.source:
                diags.append(
                    _error(
                        "resolve/uca-source-mismatch",
                        f"uca {uca.id} source controller {uca.source_controller} does not match action source {edge.source}",
                        uca,
                    )
                )
        if not qualifier_allowed(uca.guide.category, uca.guide.qualifier):
            qual = uca.guide.qualifier.value if uca.guide.qualifier else "none"
            diags.append(
                _error(
                    "resolve/qualifier-mismatch",
                    f"qualifier {qual} not allowed with guide category {uca.guide.category.value}",
                    uca,
                )
            )
        for var_id, value in uca.context.assignments.items():
            var = variables.get(var_id)
            if var is None:
                diags.append(_error("resolve/unresolved-ref", f"unresolved variable {var_id}", uca))
                continue
            if var.owner != uca.source_controller:
                diags.append(
                    _error(
                        "resolve/foreign-context-variable",
                        f"context variable {var_id} is not owned by controller {uca.source_controller}",
                        uca,
                    )
                )
            if value not in var.values:
                diags.append(
                    _error(
                        "resolve/bad-context-value",
                        f"value {value!r} is not in the domain of variable {var_id}",
                        uca,
                    )
                )
        if not uca.hazards:
            diags.append(_error("resolve/empty-ref-list", "uca must reference at least one hazard", uca))
        for ref in uca.hazards:
            if ref not in hazards:
                diags.append(_error("resolve/unresolved-ref", f"unresolved hazard {ref}", uca))

    for cf in model.causal_factors:
        if cf.located_at not in entities and cf.located_at not in edges:
            diags.append(_error("resolve/unresolved-ref", f"unresolved entity or edge {cf.located_at}", cf))
        if not cf.ucas:
            diags.append(_error("resolve/empty-ref-list", "causal factor must reference at least one uca", cf))
        for ref in cf.ucas:
            if ref not in ucas:
                diags.append(_error("resolve/unresolved-ref", f"unresolved uca {ref}", cf))

    for cc in model.controller_constraints:
        if cc.derived_from not in ucas:
            diags.append(_error("resolve/unresolved-ref", f"unresolved uca {cc.derived_from}", cc))

    return diags


def context_matches(partial: Context, concrete: Context) -> bool:
    """True iff every assignment in the partial context agrees with the concrete one.

    The empty partial context matches everything. A variable assigned in the
    partial context but absent from the concrete one is a usage error
    (AnalysisError).
    """
    for var_id, value in partial.assignments.items():
        if var_id not in concrete.assignments:
            raise AnalysisError(f"foreign variable: {var_id}")
        if concrete.assignments[var_id] != value:
            return False
    return True
