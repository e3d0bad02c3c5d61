import itertools

import pytest

from stpalint import (
    ALLOWED_QUALIFIERS,
    AnalysisError,
    Context,
    Edge,
    EdgeKind,
    Entity,
    EntityKind,
    GuideCategory,
    GuideQualifier,
    GuideWord,
    Hazard,
    Loss,
    ProcessModelVariable,
    Severity,
    context_matches,
    qualifier_allowed,
    resolve,
)
from stpalint.model import CausalFactor, CfCategory

from conftest import tiny_model


def rules(diags):
    return sorted(d.rule for d in diags)


def test_tiny_model_resolves_clean():
    assert resolve(tiny_model()) == []


def test_qualifier_relation_is_total():
    for category, qualifier in itertools.product(GuideCategory, list(GuideQualifier) + [None]):
        assert isinstance(qualifier_allowed(category, qualifier), bool)


def test_not_provided_rejects_every_qualifier():
    assert ALLOWED_QUALIFIERS[GuideCategory.NOT_PROVIDED] == frozenset()
    for qualifier in GuideQualifier:
        assert not qualifier_allowed(GuideCategory.NOT_PROVIDED, qualifier)
    assert qualifier_allowed(GuideCategory.NOT_PROVIDED, None)


def test_qualifier_sets_are_disjoint_across_categories():
    for a, b in itertools.combinations(GuideCategory, 2):
        assert not (ALLOWED_QUALIFIERS[a] & ALLOWED_QUALIFIERS[b])


def test_context_matches_empty_partial_matches_everything():
    concrete = Context({"V-1": "on", "V-2": "x"})
    assert context_matches(Context({}), concrete)


def test_context_matches_agreement_and_disagreement():
    concrete = Context({"V-1": "on", "V-2": "x"})
    assert context_matches(Context({"V-1": "on"}), concrete)
    assert not context_matches(Context({"V-1": "off"}), concrete)


def test_context_matches_foreign_variable_raises():
    with pytest.raises(AnalysisError, match="foreign variable: V-9"):
        context_matches(Context({"V-9": "on"}), Context({"V-1": "on"}))


def test_duplicate_id_reported_once_per_duplicate():
    m = tiny_model()
    m.losses.append(Loss("L-1", "again"))
    diags = resolve(m)
    assert rules(diags) == ["resolve/duplicate-id"]
    assert diags[0].related, "duplicate should point back at the first declaration"


def test_duplicate_ids_are_scoped_per_declaration_kind():
    m = tiny_model()
    m.hazards.append(Hazard("L-1", "same id as a loss is fine", ["L-1"]))
    m.ucas[0].hazards.append("L-1")
    assert resolve(m) == []


def test_bad_identifier():
    m = tiny_model()
    m.losses.append(Loss("-oops", "leading dash"))
    assert "resolve/bad-identifier" in rules(resolve(m))


def test_hazard_without_losses_is_an_error():
    m = tiny_model()
    m.hazards[0].leads_to = []
    diags = resolve(m)
    assert rules(diags) == ["resolve/empty-ref-list"]
    assert diags[0].message == "hazard must reference at least one loss"


def test_unresolved_loss_reference():
    m = tiny_model()
    m.hazards[0].leads_to = ["L-9"]
    assert "resolve/unresolved-ref" in rules(resolve(m))


def test_environment_must_be_outside_boundary():
    m = tiny_model()
    m.entities.append(Entity("E-1", EntityKind.ENVIRONMENT, "Env", in_system_boundary=True))
    assert "resolve/boundary-mismatch" in rules(resolve(m))


def test_controller_must_be_inside_boundary():
    m = tiny_model()
    m.entities[0].in_system_boundary = False
    assert "resolve/boundary-mismatch" in rules(resolve(m))


def test_edge_self_loop():
    m = tiny_model()
    m.edges.append(Edge("E-X", EdgeKind.FEEDBACK, "loop", "C-1", "C-1"))
    assert "resolve/self-loop" in rules(resolve(m))


def test_via_must_be_sensor_or_actuator():
    m = tiny_model()
    m.edges[0].via = ["P-1"]
    assert "resolve/via-kind" in rules(resolve(m))


def test_variable_owner_must_be_controller():
    m = tiny_model()
    m.variables[0].owner = "S-1"
    assert "resolve/variable-owner" in rules(resolve(m))


def test_variable_needs_two_values():
    m = tiny_model()
    m.variables[0].values = ["only"]
    assert "resolve/too-few-values" in rules(resolve(m))


def test_variable_duplicate_value_label():
    m = tiny_model()
    m.variables[0].values = ["on", "on"]
    assert "resolve/duplicate-value" in rules(resolve(m))


def test_uca_must_cite_a_control_action_edge():
    m = tiny_model()
    m.ucas[0].action = "FB-1"
    m.ucas[0].source_controller = "P-1"
    assert "resolve/not-a-control-action" in rules(resolve(m))


def test_uca_source_must_match_edge_source():
    m = tiny_model()
    m.ucas[0].source_controller = "P-1"
    assert "resolve/uca-source-mismatch" in rules(resolve(m))


def test_uca_qualifier_must_fit_category():
    m = tiny_model()
    m.ucas[0].guide = GuideWord(GuideCategory.NOT_PROVIDED, GuideQualifier.TOO_LATE)
    assert "resolve/qualifier-mismatch" in rules(resolve(m))


def test_uca_context_variable_must_belong_to_controller():
    m = tiny_model()
    m.entities.append(Entity("C-2", EntityKind.CONTROLLER, "Other"))
    m.variables.append(ProcessModelVariable("V-2", "C-2", "Foreign", ["a", "b"]))
    m.ucas[0].context = Context({"V-2": "a"})
    assert "resolve/foreign-context-variable" in rules(resolve(m))


def test_uca_context_value_must_be_in_domain():
    m = tiny_model()
    m.ucas[0].context = Context({"V-1": "sideways"})
    assert "resolve/bad-context-value" in rules(resolve(m))


def test_cf_location_may_be_entity_or_edge():
    m = tiny_model()
    m.causal_factors.append(
        CausalFactor("CF-1", CfCategory.TRANSMISSION_LOSS, "FB-1", ["UCA-1"], "x")
    )
    assert resolve(m) == []
    m.causal_factors[0].located_at = "nowhere"
    assert "resolve/unresolved-ref" in rules(resolve(m))


def test_diagnostic_format_shape():
    m = tiny_model()
    m.hazards[0].leads_to = []
    diag = resolve(m)[0]
    assert diag.severity is Severity.ERROR
    # no parse spans on a programmatic model: fallback position
    assert diag.format() == "<model>:1:1: error[resolve/empty-ref-list]: hazard must reference at least one loss"
