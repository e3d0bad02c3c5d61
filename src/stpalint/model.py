"""Domain types for STPA safety models.

The model is an aggregate of the four analysis steps: purpose (losses,
hazards, constraints), control structure (entities, edges), unsafe control
actions over process-model contexts, and causal factors. Everything here is
plain data; all checks are pure functions returning diagnostics.

The two whole-model linkage checks live here too: `resolve` (ids, references
and structural invariants) and `trace_closure` (reachability across the
analysis steps). So `check` needs `model`, `parser` and `causal`, and not
the context-table module `analysis`.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")

FALLBACK_SPAN: "SourceSpan"


class AnalysisError(ValueError):
    """Precondition violation in an analysis operation."""


# The members of each enum here are singletons that compare by identity, so
# they hash by it, in C, and not through the Python-level `Enum.__hash__`.


class EntityKind(Enum):
    __hash__ = object.__hash__
    CONTROLLER = "controller"
    SENSOR = "sensor"
    ACTUATOR = "actuator"
    CONTROLLED_PROCESS = "process"
    ENVIRONMENT = "environment"


class EdgeKind(Enum):
    __hash__ = object.__hash__
    CONTROL_ACTION = "action"
    FEEDBACK = "feedback"


class GuideCategory(Enum):
    __hash__ = object.__hash__
    NOT_PROVIDED = "NotProvided"
    PROVIDED_UNSAFE = "ProvidedUnsafe"
    WRONG_TIMING = "WrongTiming"
    WRONG_DURATION = "WrongDuration"


class GuideQualifier(Enum):
    __hash__ = object.__hash__
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
    __hash__ = object.__hash__
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
    __hash__ = object.__hash__
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class Record:
    """Base of the mutable record classes; `__slots__` lists a record's fields in order.

    Each subclass that defines no `__init__` gets one taking its fields in
    `__slots__` order. The `defaults=` class keyword gives the optional
    fields: a type there (`list`, `dict`) builds a fresh value when the
    argument is None, any other value is a plain default. Two records are
    equal when they are of one class and their compared fields are equal; a
    declaration's `span` is not compared unless `compare_span=True`. Records
    are unhashable, and their `repr` names every field.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, compare_span: bool = False, defaults: dict | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._compared = attrgetter(*(name for name in cls.__slots__ if compare_span or name != "span"))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls, defaults or {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


def _constructor(cls, defaults: dict):
    """The `__init__` of record class `cls`, compiled once from its `__slots__` and `defaults`."""
    fields = cls.__slots__
    fresh = {name for name, value in defaults.items() if isinstance(value, type)}
    params = ", ".join(f"{name}=None" if name in defaults else name for name in fields)
    body = "".join(
        f"\n    self.{name} = _{name}() if {name} is None else {name}" if name in fresh else f"\n    self.{name} = {name}"
        for name in fields
    )
    namespace = {f"_{name}": defaults[name] for name in fresh}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(None if name in fresh else defaults[name] for name in fields if name in defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def _value_eq(self, other) -> bool:
    """`==` of an immutable value type: never equal to a plain tuple or to another type."""
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _value_ne(self, other) -> bool:
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


class SourceSpan(NamedTuple):
    file: str
    line_start: int
    col_start: int
    line_end: int
    col_end: int

    __eq__ = _value_eq
    __ne__ = _value_ne
    __hash__ = tuple.__hash__


FALLBACK_SPAN = SourceSpan("<model>", 1, 1, 1, 1)


class Diagnostic(Record, compare_span=True, defaults={"related": list}):
    __slots__ = ("severity", "rule", "message", "span", "related")

    def format(self) -> str:
        s = self.span
        return f"{s.file}:{s.line_start}:{s.col_start}: {self.severity._value_}[{self.rule}]: {self.message}"


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
    "resolve/duplicate-ref": Severity.INFO,
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
    return Diagnostic(RULES[rule], rule, message, span, related)


class Loss(Record, defaults={"span": None}):
    __slots__ = ("id", "description", "span")


class Hazard(Record, defaults={"span": None}):
    __slots__ = ("id", "description", "leads_to", "span")


class SystemConstraint(Record, defaults={"span": None}):
    __slots__ = ("id", "description", "mitigates", "span")


class Entity(Record, defaults={"span": None}):
    __slots__ = ("id", "kind", "label", "span")

    @property
    def in_system_boundary(self) -> bool:
        return self.kind is not EntityKind.ENVIRONMENT


class Edge(Record, defaults={"via": list, "signals": list, "span": None}):
    __slots__ = ("id", "kind", "label", "source", "target", "via", "signals", "span")

    def chain(self) -> list[str]:
        """Entity ids along the edge, source to target, via elements inlined."""
        return [self.source, *self.via, self.target]


class ProcessModelVariable(Record, defaults={"span": None}):
    __slots__ = ("id", "owner", "label", "values", "span")


class GuideWord(NamedTuple):
    category: GuideCategory
    qualifier: GuideQualifier | None = None

    __eq__ = _value_eq
    __ne__ = _value_ne
    __hash__ = tuple.__hash__


class Context(Record, defaults={"assignments": dict}):
    """Partial assignment of process-model variables; unmentioned = wildcard."""

    __slots__ = ("assignments",)

    def key(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.assignments.items()))


class UnsafeControlAction(Record, defaults={"span": None}):
    __slots__ = ("id", "action", "source_controller", "guide", "context", "hazards", "description", "span")


class CausalFactor(Record, defaults={"span": None}):
    __slots__ = ("id", "category", "located_at", "ucas", "description", "span")


class ControllerConstraint(Record, defaults={"span": None}):
    __slots__ = ("id", "derived_from", "description", "span")


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


class StpaModel(Record, defaults=dict.fromkeys(_KINDS, list)):
    __slots__ = tuple(_KINDS)

    def uca_ids(self) -> dict[str, UnsafeControlAction]:
        return ModelIndex(self).ids["ucas"]

    def variables_of(self, controller: str) -> list[ProcessModelVariable]:
        """Process-model variables owned by a controller, declaration order."""
        return [v for v in self.variables if v.owner == controller]

    def ucas_on(self, action: str) -> list[UnsafeControlAction]:
        return [u for u in self.ucas if u.action == action]


class ModelIndex:
    """The derived structures of one model, built once and read by every phase of a command.

    `ids[section]` maps each id of a section to its declaration: a repeated
    id means its last declaration, here and nowhere else. `preds` maps each
    node to its predecessors along the feedback chains, `succs` to its
    successors along the control-action chains, each as dict keys in
    first-seen order; `processes` holds the ids whose last declaration is a
    controlled process. `checklists` is the one causal memo: the checklist
    pairs, their categories and the on-path set of each (controller,
    action, wrong timing). A model keeps no index of its own: an index
    shows the model as it was when the index was built.
    """

    def __init__(self, model: StpaModel):
        self.model = model
        self.ids = {section: {d.id: d for d in getattr(model, section)} for section in _KINDS}
        self.preds: dict[str, dict[str, None]] = {}
        self.succs: dict[str, dict[str, None]] = {}
        for edge in model.edges:
            chain = edge.chain()
            for a, b in zip(chain, chain[1:]):
                if edge.kind is EdgeKind.FEEDBACK:
                    self.preds.setdefault(b, {})[a] = None
                elif edge.kind is EdgeKind.CONTROL_ACTION:
                    self.succs.setdefault(a, {})[b] = None
        self.processes = {i for i, e in self.ids["entities"].items() if e.kind is EntityKind.CONTROLLED_PROCESS}
        self.checklists: dict[tuple[str, str, bool], tuple[dict, tuple[CfCategory, ...], set[str]]] = {}


def indexed(model: StpaModel | ModelIndex) -> ModelIndex:
    """`model` if it is an index, else a fresh index of it."""
    return model if isinstance(model, ModelIndex) else ModelIndex(model)


def span_of(decl) -> SourceSpan:
    """The declaration's source span, or `FALLBACK_SPAN` for one built in code."""
    return decl.span if decl.span is not None else FALLBACK_SPAN


def resolve(model: StpaModel | ModelIndex) -> list[Diagnostic]:
    """Check id uniqueness, reference closure and structural invariants.

    Returns one diagnostic per violation; an empty list means the model is
    internally consistent. Diagnostics are data, not failures.
    """
    index = indexed(model)
    model, ids = index.model, index.ids
    diags: list[Diagnostic] = []

    def flag(rule: str, message: str, decl, related=None) -> None:
        diags.append(diagnostic(rule, message, span_of(decl), related))

    for section, kind_name in _KINDS.items():
        seen: dict[str, object] = {}
        for decl in getattr(model, section):
            if not decl.id or not ID_PATTERN.match(decl.id):
                flag("resolve/bad-identifier", f"invalid {kind_name} id {decl.id!r}", decl)
            if decl.id in seen:
                related = [("first declared here", span_of(seen[decl.id]))]
                flag("resolve/duplicate-id", f"duplicate id {decl.id}", decl, related)
            else:
                seen[decl.id] = decl

    def repeats(decl, values: list[str], kind_name: str) -> None:
        """Flag each id that the reference list `values` names more than once, once."""
        for ref, count in Counter(values).items():
            if count > 1:
                flag("resolve/duplicate-ref", f"{kind_name} {ref} is listed {count} times", decl)

    def refs(decl, values, section: str, required: str | None = None) -> None:
        """Flag each dangling id; for a list, whose citing kind `required` names, also emptiness and repeats."""
        kind_name = _KINDS[section]
        if required and not values:
            flag("resolve/empty-ref-list", f"{required} must reference at least one {kind_name}", decl)
        for ref in values:
            if ref not in ids[section]:
                flag("resolve/unresolved-ref", f"unresolved {kind_name} {ref}", decl)
        if required and len(values) > 1 and len(set(values)) < len(values):
            repeats(decl, values, kind_name)

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
            ent = ids["entities"].get(ref)
            if ent is None:
                flag("resolve/unresolved-ref", f"unresolved entity {ref}", edge)
            elif ent.kind not in (EntityKind.SENSOR, EntityKind.ACTUATOR):
                flag("resolve/via-kind", f"via element {ref} must be a sensor or actuator", edge)
        if len(set(edge.via)) < len(edge.via):
            repeats(edge, edge.via, "entity")

    for var in model.variables:
        owner = ids["entities"].get(var.owner)
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
        edge = ids["edges"].get(uca.action)
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
            var = ids["variables"].get(var_id)
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
        if cf.located_at not in ids["entities"] and cf.located_at not in ids["edges"]:
            flag("resolve/unresolved-ref", f"unresolved entity or edge {cf.located_at}", cf)
        refs(cf, cf.ucas, "ucas", "causal factor")

    for cc in model.controller_constraints:
        refs(cc, (cc.derived_from,), "ucas")

    return diags


def trace_closure(model: StpaModel | ModelIndex) -> list[Diagnostic]:
    """Cross-step linkage checks: every artifact should be reachable end to end."""
    index = indexed(model)
    model = index.model
    diags: list[Diagnostic] = []

    cited_hazards = {ref for uca in model.ucas for ref in uca.hazards}
    for hz in model.hazards:
        if hz.id not in cited_hazards:
            diags.append(diagnostic("trace/orphan-hazard", f"hazard {hz.id} is not cited by any uca", span_of(hz)))
    cited_losses = {ref for hz in model.hazards for ref in hz.leads_to}
    for loss in model.losses:
        if loss.id not in cited_losses:
            message = f"loss {loss.id} unreachable: no hazard leads to it"
            diags.append(diagnostic("trace/unreachable-loss", message, span_of(loss)))
    covered_ucas = {ref for cf in model.causal_factors for ref in cf.ucas}
    for uca in model.ucas:
        if uca.id not in covered_ucas:
            diags.append(diagnostic("trace/uca-without-cf", f"uca {uca.id} has no causal factor", span_of(uca)))
    for sc in model.constraints:
        if not any(ref in cited_hazards for ref in sc.mitigates):
            message = f"constraint {sc.id} mitigates no hazard cited by any uca"
            diags.append(diagnostic("trace/constraint-unlinked", message, span_of(sc)))
    ucas_by_id = index.ids["ucas"]
    for cf in model.causal_factors:
        controllers = {
            ucas_by_id[ref].source_controller for ref in cf.ucas if ref in ucas_by_id
        }
        if len(controllers) > 1:
            listed = ", ".join(sorted(controllers))
            message = f"causal factor {cf.id} cites ucas of different controllers ({listed})"
            diags.append(diagnostic("trace/cf-cross-controller", message, span_of(cf)))
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
