"""The original reference resolver.

`resolve` is the original `stpalint.model.resolve`, with one loop per
section and one reference check written out per reference list. It serves
only as the oracle the table-driven `stpalint.model.resolve` is compared
with: the two must give the same diagnostics in the same order. The
`resolve/duplicate-ref` info, which came later, is written out after each
reference list as well.
"""

from __future__ import annotations

from stpalint.model import (
    ID_PATTERN,
    Diagnostic,
    EdgeKind,
    EntityKind,
    Severity,
    StpaModel,
    qualifier_allowed,
    span_of,
)


def _error(rule: str, message: str, decl, related=None) -> Diagnostic:
    """Every `resolve` rule is an error; set here, not read from `stpalint.model.RULES`."""
    return Diagnostic(Severity.ERROR, rule, message, span_of(decl), related or [])


def _repeats(values: list[str], kind_name: str, decl) -> list[Diagnostic]:
    """One info per id that `values` lists more than once, in order of first appearance."""
    return [
        Diagnostic(
            Severity.INFO,
            "resolve/duplicate-ref",
            f"{kind_name} {ref} is listed {values.count(ref)} times",
            span_of(decl),
            [],
        )
        for i, ref in enumerate(values)
        if values.count(ref) > 1 and ref not in values[:i]
    ]


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
                        [("first declared here", span_of(first))],
                    )
                )
            else:
                seen[decl.id] = decl

    losses = {d.id: d for d in model.losses}
    hazards = {d.id: d for d in model.hazards}
    entities = {d.id: d for d in model.entities}
    edges = {d.id: d for d in model.edges}
    variables = {d.id: d for d in model.variables}
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
        diags.extend(_repeats(hz.leads_to, "loss", hz))

    for sc in model.constraints:
        if not sc.mitigates:
            diags.append(_error("resolve/empty-ref-list", "constraint must reference at least one hazard", sc))
        for ref in sc.mitigates:
            if ref not in hazards:
                diags.append(_error("resolve/unresolved-ref", f"unresolved hazard {ref}", sc))
        diags.extend(_repeats(sc.mitigates, "hazard", sc))

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
        diags.extend(_repeats(edge.via, "entity", edge))

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
        diags.extend(_repeats(uca.hazards, "hazard", uca))

    for cf in model.causal_factors:
        if cf.located_at not in entities and cf.located_at not in edges:
            diags.append(_error("resolve/unresolved-ref", f"unresolved entity or edge {cf.located_at}", cf))
        if not cf.ucas:
            diags.append(_error("resolve/empty-ref-list", "causal factor must reference at least one uca", cf))
        for ref in cf.ucas:
            if ref not in ucas:
                diags.append(_error("resolve/unresolved-ref", f"unresolved uca {ref}", cf))
        diags.extend(_repeats(cf.ucas, "uca", cf))

    for cc in model.controller_constraints:
        if cc.derived_from not in ucas:
            diags.append(_error("resolve/unresolved-ref", f"unresolved uca {cc.derived_from}", cc))

    return diags
