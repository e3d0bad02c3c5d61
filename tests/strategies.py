"""Hypothesis strategies for random valid models and variable sets."""

from __future__ import annotations

from hypothesis import strategies as st

from stpalint import (
    ALLOWED_QUALIFIERS,
    CfCategory,
    Context,
    Edge,
    EdgeKind,
    Entity,
    EntityKind,
    GuideCategory,
    GuideWord,
    Hazard,
    Loss,
    ProcessModelVariable,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
)
from stpalint.model import CausalFactor, ControllerConstraint

# Escapable controls are included on purpose so round-trips cover them.
_chars = st.one_of(
    st.characters(blacklist_categories=("Cs", "Cc")),
    st.sampled_from('\n\t"\\µκ'),
)
texts = st.text(alphabet=_chars, min_size=1, max_size=15)
labels = st.text(alphabet=_chars, min_size=1, max_size=10)


@st.composite
def variable_sets(draw, max_vars: int = 6, max_values: int = 5) -> list[ProcessModelVariable]:
    count = draw(st.integers(min_value=0, max_value=max_vars))
    variables = []
    for i in range(count):
        size = draw(st.integers(min_value=2, max_value=max_values))
        values = [f"v{i}-{j}" for j in range(size)]
        variables.append(ProcessModelVariable(f"V-{i}", "C-1", draw(labels), values))
    return variables


@st.composite
def partial_contexts(draw, variables: list[ProcessModelVariable]) -> Context:
    assignments = {}
    for var in variables:
        if draw(st.booleans()):
            assignments[var.id] = draw(st.sampled_from(var.values))
    return Context(assignments)


@st.composite
def models(draw) -> StpaModel:
    m = StpaModel()

    loss_ids = [f"L-{i + 1}" for i in range(draw(st.integers(1, 3)))]
    for loss_id in loss_ids:
        m.losses.append(Loss(loss_id, draw(texts)))

    hazard_ids = [f"H-{i + 1}" for i in range(draw(st.integers(1, 3)))]
    for hazard_id in hazard_ids:
        leads_to = draw(st.lists(st.sampled_from(loss_ids), min_size=1, max_size=3, unique=True))
        m.hazards.append(Hazard(hazard_id, draw(texts), leads_to))

    for i in range(draw(st.integers(0, 2))):
        mitigates = draw(st.lists(st.sampled_from(hazard_ids), min_size=1, max_size=2, unique=True))
        m.constraints.append(SystemConstraint(f"SC-{i + 1}", draw(texts), mitigates))

    m.entities.append(Entity("C-1", EntityKind.CONTROLLER, draw(labels)))
    m.entities.append(Entity("P-1", EntityKind.CONTROLLED_PROCESS, draw(labels)))
    via_pool = []
    for i in range(draw(st.integers(0, 2))):
        m.entities.append(Entity(f"S-{i + 1}", EntityKind.SENSOR, draw(labels)))
        via_pool.append(f"S-{i + 1}")
    for i in range(draw(st.integers(0, 2))):
        m.entities.append(Entity(f"A-{i + 1}", EntityKind.ACTUATOR, draw(labels)))
        via_pool.append(f"A-{i + 1}")
    if draw(st.booleans()):
        m.entities.append(Entity("E-1", EntityKind.ENVIRONMENT, draw(labels), in_system_boundary=False))

    def via():
        if not via_pool:
            return []
        return draw(st.lists(st.sampled_from(via_pool), max_size=2, unique=True))

    m.edges.append(
        Edge("AC-1", EdgeKind.CONTROL_ACTION, draw(labels), "C-1", "P-1", via(), draw(st.lists(texts, max_size=2)))
    )
    if draw(st.booleans()):
        m.edges.append(
            Edge("FB-1", EdgeKind.FEEDBACK, draw(labels), "P-1", "C-1", via(), draw(st.lists(texts, max_size=2)))
        )

    variables = draw(variable_sets(max_vars=3, max_values=4))
    for var in variables:
        var.label = draw(labels)
        m.variables.append(var)

    uca_ids = []
    for i in range(draw(st.integers(0, 4))):
        category = draw(st.sampled_from(list(GuideCategory)))
        qualifier = draw(st.sampled_from([None] + sorted(ALLOWED_QUALIFIERS[category], key=lambda q: q.value)))
        context = draw(partial_contexts(variables))
        hazards = draw(st.lists(st.sampled_from(hazard_ids), min_size=1, max_size=2, unique=True))
        uca_id = f"UCA-{i + 1}"
        uca_ids.append(uca_id)
        m.ucas.append(
            UnsafeControlAction(
                uca_id, "AC-1", "C-1", GuideWord(category, qualifier), context, hazards, draw(texts)
            )
        )

    if uca_ids:
        entity_ids = [e.id for e in m.entities]
        for i in range(draw(st.integers(0, 3))):
            m.causal_factors.append(
                CausalFactor(
                    f"CF-{i + 1}",
                    draw(st.sampled_from(list(CfCategory))),
                    draw(st.sampled_from(entity_ids)),
                    draw(st.lists(st.sampled_from(uca_ids), min_size=1, max_size=2, unique=True)),
                    draw(texts),
                )
            )
        for i in range(draw(st.integers(0, 2))):
            m.controller_constraints.append(
                ControllerConstraint(f"CC-{i + 1}", draw(st.sampled_from(uca_ids)), draw(texts))
            )
    return m


@st.composite
def control_structures(draw) -> StpaModel:
    """Random control structures for the causal analysis, valid or not.

    Entities of every kind, some named as network legs; feedback and control
    edges between any two of them, self-loops included, with via chains that
    may name undeclared ids; UCAs on any edge or on a missing one, some with
    a source controller other than the edge's source; causal factors with
    near-duplicate descriptions. Walks stay few enough to list.
    """
    m = StpaModel()
    for i in range(draw(st.integers(1, 7))):
        kind = EntityKind.CONTROLLER if i == 0 else draw(st.sampled_from(list(EntityKind)))
        entity_id = draw(st.sampled_from([f"N-{i}", f"Network-{i}"]))
        label = draw(st.sampled_from([f"Node {i}", "Mobile NETWORK", "network uplink"]))
        if all(e.id != entity_id for e in m.entities):
            m.entities.append(Entity(entity_id, kind, label))
    nodes = [e.id for e in m.entities] + ["Ghost"]
    for j in range(draw(st.integers(0, 10))):
        m.edges.append(
            Edge(
                f"F-{j}",
                draw(st.sampled_from(list(EdgeKind))),
                "edge",
                draw(st.sampled_from(nodes)),
                draw(st.sampled_from(nodes)),
                draw(st.lists(st.sampled_from(nodes), max_size=2)),
            )
        )
    edges = {e.id: e for e in m.edges}
    uca_ids = [f"UCA-{i + 1}" for i in range(draw(st.integers(1, 4)))]
    for uca_id in uca_ids:
        action = draw(st.sampled_from(sorted(edges) + ["Missing"]))
        controller = edges[action].source if action in edges else nodes[0]
        if draw(st.integers(0, 4)) == 0:
            controller = draw(st.sampled_from(nodes))
        m.ucas.append(
            UnsafeControlAction(
                uca_id,
                action,
                controller,
                GuideWord(draw(st.sampled_from(list(GuideCategory)))),
                Context(),
                ["H-1"],
                "d",
            )
        )

    for i in range(draw(st.integers(0, 5))):
        m.causal_factors.append(
            CausalFactor(
                f"CF-{i + 1}",
                draw(st.sampled_from(list(CfCategory))),
                draw(st.sampled_from(nodes + sorted(edges))),
                draw(st.lists(st.sampled_from(uca_ids + ["UCA-X"]), min_size=1, max_size=2, unique=True)),
                draw(st.sampled_from(["Sensor fails", "sensor  fails!", "drops data", "drops_data"])),
            )
        )
    return m
