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


# Each rule id and its severity: the one place that decides how grave a
# diagnostic is, and so the exit code of `check`.
RULES: dict[str, Severity] = {
    "parse/unterminated-string": Severity.ERROR,
    "parse/unexpected-character": Severity.ERROR,
    "parse/unknown-keyword": Severity.ERROR,
    "parse/syntax": Severity.ERROR,
    "parse/duplicate-context-variable": Severity.ERROR,
    "resolve/bad-identifier": Severity.ERROR,
    "resolve/duplicate-id": Severity.ERROR,
    "resolve/empty-description": Severity.ERROR,
    "resolve/empty-ref-list": Severity.ERROR,
    "resolve/unresolved-ref": Severity.ERROR,
    "resolve/self-loop": Severity.ERROR,
    "resolve/via-kind": Severity.ERROR,
    "resolve/variable-owner": Severity.ERROR,
    "resolve/too-few-values": Severity.ERROR,
    "resolve/duplicate-value": Severity.ERROR,
    "resolve/not-a-control-action": Severity.ERROR,
    "resolve/uca-source-mismatch": Severity.ERROR,
    "resolve/qualifier-mismatch": Severity.ERROR,
    "resolve/foreign-context-variable": Severity.ERROR,
    "resolve/bad-context-value": Severity.ERROR,
    "trace/orphan-hazard": Severity.WARNING,
    "trace/unreachable-loss": Severity.WARNING,
    "trace/uca-without-cf": Severity.INFO,
    "trace/constraint-unlinked": Severity.WARNING,
    "trace/cf-cross-controller": Severity.ERROR,
    "causal/open-loop": Severity.WARNING,
    "cf/off-path": Severity.ERROR,
    "cf/possible-duplicate": Severity.WARNING,
    "cf/unaddressed-category": Severity.INFO,
}


def diagnostic(rule: str, message: str, span: SourceSpan, related=None) -> Diagnostic:
    """A diagnostic of `rule` at `span`, with the severity `RULES` gives the rule."""
    return Diagnostic(RULES[rule], rule, message, span, related or [])


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
    span: SourceSpan | None = field(default=None, compare=False)

    @property
    def in_system_boundary(self) -> bool:
        return self.kind is not EntityKind.ENVIRONMENT


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

    def entity_ids(self) -> dict[str, Entity]:
        return {d.id: d for d in self.entities}

    def edge_ids(self) -> dict[str, Edge]:
        return {d.id: d for d in self.edges}

    def uca_ids(self) -> dict[str, UnsafeControlAction]:
        return {d.id: d for d in self.ucas}

    def variables_of(self, controller: str) -> list[ProcessModelVariable]:
        """Process-model variables owned by a controller, declaration order."""
        return [v for v in self.variables if v.owner == controller]

    def ucas_on(self, action: str) -> list[UnsafeControlAction]:
        return [u for u in self.ucas if u.action == action]


def span_of(decl) -> SourceSpan:
    """The declaration's source span, or `FALLBACK_SPAN` for one built in code."""
    return decl.span if decl.span is not None else FALLBACK_SPAN


# Each model section and the kind name its diagnostics use.
_KINDS = {
    "losses": "loss",
    "hazards": "hazard",
    "constraints": "constraint",
    "entities": "entity",
    "edges": "edge",
    "variables": "variable",
    "ucas": "uca",
    "causal_factors": "causal factor",
    "controller_constraints": "controller constraint",
}


def resolve(model: StpaModel) -> list[Diagnostic]:
    """Check id uniqueness, reference closure and structural invariants.

    Returns one diagnostic per violation; an empty list means the model is
    internally consistent. Diagnostics are data, not failures.
    """
    diags: list[Diagnostic] = []

    def flag(rule: str, message: str, decl, related=None) -> None:
        diags.append(diagnostic(rule, message, span_of(decl), related))

    ids: dict[str, dict] = {}
    for section, kind_name in _KINDS.items():
        decls = getattr(model, section)
        seen: dict[str, object] = {}
        for decl in decls:
            if not decl.id or not ID_PATTERN.match(decl.id):
                flag("resolve/bad-identifier", f"invalid {kind_name} id {decl.id!r}", decl)
            if decl.id in seen:
                related = [("first declared here", span_of(seen[decl.id]))]
                flag("resolve/duplicate-id", f"duplicate id {decl.id}", decl, related)
            else:
                seen[decl.id] = decl
        # A duplicated id resolves to its last declaration.
        ids[section] = {d.id: d for d in decls}

    def refs(decl, values, section: str, required: str | None = None) -> None:
        """Flag an empty list if `required` names the citing kind, then each dangling id."""
        kind_name = _KINDS[section]
        if required and not values:
            flag("resolve/empty-ref-list", f"{required} must reference at least one {kind_name}", decl)
        for ref in values:
            if ref not in ids[section]:
                flag("resolve/unresolved-ref", f"unresolved {kind_name} {ref}", decl)

    entities = ids["entities"]
    edges = ids["edges"]
    variables = ids["variables"]

    for loss in model.losses:
        if not loss.description:
            flag("resolve/empty-description", f"loss {loss.id} has an empty description", loss)

    for hz in model.hazards:
        if not hz.description:
            flag("resolve/empty-description", f"hazard {hz.id} has an empty description", hz)
        refs(hz, hz.leads_to, "losses", "hazard")

    for sc in model.constraints:
        refs(sc, sc.mitigates, "hazards", "constraint")

    for edge in model.edges:
        if edge.source == edge.target:
            flag("resolve/self-loop", f"edge {edge.id} connects {edge.source} to itself", edge)
        refs(edge, (edge.source, edge.target), "entities")
        for ref in edge.via:
            ent = entities.get(ref)
            if ent is None:
                flag("resolve/unresolved-ref", f"unresolved entity {ref}", edge)
            elif ent.kind not in (EntityKind.SENSOR, EntityKind.ACTUATOR):
                flag("resolve/via-kind", f"via element {ref} must be a sensor or actuator", edge)

    for var in model.variables:
        owner = entities.get(var.owner)
        if owner is None:
            flag("resolve/unresolved-ref", f"unresolved entity {var.owner}", var)
        elif owner.kind is not EntityKind.CONTROLLER:
            flag("resolve/variable-owner", f"variable owner {var.owner} must be a controller", var)
        if len(var.values) < 2:
            flag("resolve/too-few-values", f"variable {var.id} needs at least two values", var)
        seen_values: set[str] = set()
        for value in var.values:
            if value in seen_values:
                flag("resolve/duplicate-value", f"duplicate value label {value!r} in {var.id}", var)
            seen_values.add(value)

    for uca in model.ucas:
        refs(uca, (uca.action,), "edges")
        edge = edges.get(uca.action)
        if edge is not None:
            if edge.kind is not EdgeKind.CONTROL_ACTION:
                flag("resolve/not-a-control-action", f"uca {uca.id} must reference a control action edge", uca)
            if uca.source_controller != edge.source:
                flag(
                    "resolve/uca-source-mismatch",
                    f"uca {uca.id} source controller {uca.source_controller} "
                    f"does not match action source {edge.source}",
                    uca,
                )
        if not qualifier_allowed(uca.guide.category, uca.guide.qualifier):
            qual = uca.guide.qualifier.value if uca.guide.qualifier else "none"
            flag(
                "resolve/qualifier-mismatch",
                f"qualifier {qual} not allowed with guide category {uca.guide.category.value}",
                uca,
            )
        for var_id, value in uca.context.assignments.items():
            var = variables.get(var_id)
            if var is None:
                flag("resolve/unresolved-ref", f"unresolved variable {var_id}", uca)
                continue
            if var.owner != uca.source_controller:
                flag(
                    "resolve/foreign-context-variable",
                    f"context variable {var_id} is not owned by controller {uca.source_controller}",
                    uca,
                )
            if value not in var.values:
                flag("resolve/bad-context-value", f"value {value!r} is not in the domain of variable {var_id}", uca)
        refs(uca, uca.hazards, "hazards", "uca")

    for cf in model.causal_factors:
        if cf.located_at not in entities and cf.located_at not in edges:
            flag("resolve/unresolved-ref", f"unresolved entity or edge {cf.located_at}", cf)
        refs(cf, cf.ucas, "ucas", "causal factor")

    for cc in model.controller_constraints:
        refs(cc, (cc.derived_from,), "ucas")

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
