"""Canonical text output for STPA models.

`serialize` is the inverse of `parse` up to source spans: parsing the
emitted text yields an equal model. Formatting is fixed (one statement per
line, LF line endings) so output is diff-stable and `fmt` is idempotent.
"""

from __future__ import annotations

from .model import (
    CausalFactor,
    ControllerConstraint,
    Diagnostic,
    Edge,
    Entity,
    Hazard,
    Loss,
    ProcessModelVariable,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
    resolve,
)
from .parser import ESCAPES

HEADER = "# stpa model (canonical format)"

_QUOTE = str.maketrans({char: "\\" + letter for letter, char in ESCAPES.items()})


class UnresolvedModelError(ValueError):
    """Raised when asked to serialize a model that does not resolve cleanly."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__(f"model does not resolve: {len(diagnostics)} diagnostic(s)")
        self.diagnostics = diagnostics


def quote(text: str) -> str:
    return '"' + text.translate(_QUOTE) + '"'


def _id_list(ids: list[str]) -> str:
    return "[" + ", ".join(ids) + "]"


def _stmt(decl) -> str:
    if isinstance(decl, Loss):
        return f"loss {decl.id} {quote(decl.description)}"
    if isinstance(decl, Hazard):
        return f"hazard {decl.id} {quote(decl.description)} leads_to {_id_list(decl.leads_to)}"
    if isinstance(decl, SystemConstraint):
        return f"constraint {decl.id} {quote(decl.description)} mitigates {_id_list(decl.mitigates)}"
    if isinstance(decl, Entity):
        return f"{decl.kind.value} {decl.id} {quote(decl.label)}"
    if isinstance(decl, Edge):
        parts = [
            decl.kind.value,
            decl.id,
            quote(decl.label),
            "from",
            decl.source,
            "to",
            decl.target,
        ]
        if decl.via:
            parts.append("via " + _id_list(decl.via))
        if decl.signals:
            parts.append("signals [" + ", ".join(quote(s) for s in decl.signals) + "]")
        return " ".join(parts)
    if isinstance(decl, ProcessModelVariable):
        values = ", ".join(quote(v) for v in decl.values)
        return f"variable {decl.id} of {decl.owner} {quote(decl.label)} {{{values}}}"
    if isinstance(decl, UnsafeControlAction):
        parts = [f"uca {decl.id} action = {decl.action} guide = {decl.guide.category.value}"]
        if decl.guide.qualifier is not None:
            parts.append(f"qualifier = {decl.guide.qualifier.value}")
        if decl.context.assignments:
            inner = " ".join(f"{k} = {quote(v)}" for k, v in decl.context.assignments.items())
            parts.append("context { " + inner + " }")
        parts.append("hazards " + _id_list(decl.hazards))
        parts.append(quote(decl.description))
        return " ".join(parts)
    if isinstance(decl, CausalFactor):
        return (
            f"cf {decl.id} category = {decl.category.value} at {decl.located_at} "
            f"for {_id_list(decl.ucas)} {quote(decl.description)}"
        )
    if isinstance(decl, ControllerConstraint):
        return f"controller_constraint {decl.id} from {decl.derived_from} {quote(decl.description)}"
    raise TypeError(f"not a declaration: {decl!r}")


def _sections(model: StpaModel):
    return [
        model.losses,
        model.hazards,
        model.constraints,
        model.entities,
        model.edges,
        model.variables,
        model.ucas,
        model.causal_factors,
        model.controller_constraints,
    ]


def serialize(model: StpaModel, *, check: bool = True) -> str:
    """Render the whole model as canonical `.stpa` text.

    Declaration order is preserved within each statement kind. Refuses
    models that do not resolve unless `check` is disabled.
    """
    if check:
        diags = resolve(model)
        if diags:
            raise UnresolvedModelError(diags)
    lines = [HEADER]
    for section in _sections(model):
        if section:
            lines.append("")
            lines.extend(_stmt(decl) for decl in section)
    return "\n".join(lines) + "\n"


def serialize_file(model: StpaModel, path: str) -> str:
    """Render only the declarations whose source span names `path`.

    Used by `fmt` to rewrite one file of a multi-file model in place.
    """
    lines = [HEADER]
    for section in _sections(model):
        picked = [d for d in section if d.span is not None and d.span.file == path]
        if picked:
            lines.append("")
            lines.extend(_stmt(decl) for decl in picked)
    return "\n".join(lines) + "\n"
