import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stpalint import (
    AnalysisError,
    analysis,
    Context,
    GuideCategory,
    ProcessModelVariable,
    Severity,
    build_context_table,
    context_matches,
    coverage_gaps,
    detect_conflicts,
    enumerate_contexts,
    expand,
    stats,
    trace_closure,
)
from stpalint.model import (
    CausalFactor,
    CfCategory,
    Entity,
    EntityKind,
    GuideWord,
    Hazard,
    Loss,
    StpaModel,
    UnsafeControlAction,
)

import strategies
from conftest import tiny_model


def var(vid, values):
    return ProcessModelVariable(vid, "C-1", vid, values)


def brute_force_expand(partial, variables):
    return [c for c in enumerate_contexts(variables) if context_matches(partial, c)]


# -- enumerate_contexts -------------------------------------------------------


def test_enumerate_empty_variable_list_is_one_empty_context():
    assert enumerate_contexts([]) == [Context({})]


def test_enumerate_cardinality_and_order():
    variables = [var("A", ["1", "2"]), var("B", ["x", "y", "z"])]
    contexts = enumerate_contexts(variables)
    assert len(contexts) == 6
    # rightmost variable varies fastest, declaration order preserved
    assert contexts[0].assignments == {"A": "1", "B": "x"}
    assert contexts[1].assignments == {"A": "1", "B": "y"}
    assert contexts[-1].assignments == {"A": "2", "B": "z"}


def test_enumerate_contexts_are_distinct():
    variables = [var("A", ["1", "2"]), var("B", ["x", "y"])]
    keys = [c.key() for c in enumerate_contexts(variables)]
    assert len(set(keys)) == len(keys)


def test_enumerate_duplicate_variable_id_raises():
    with pytest.raises(AnalysisError, match="duplicate variable id A"):
        enumerate_contexts([var("A", ["1", "2"]), var("A", ["x", "y"])])


# -- expand -------------------------------------------------------------------


def test_expand_matches_brute_force_on_a_fixed_example():
    variables = [var("A", ["1", "2"]), var("B", ["x", "y", "z"]), var("C", ["p", "q"])]
    partial = Context({"B": "y"})
    assert expand(partial, variables) == brute_force_expand(partial, variables)


def test_expand_empty_partial_is_full_enumeration():
    variables = [var("A", ["1", "2"]), var("B", ["x", "y"])]
    assert expand(Context({}), variables) == enumerate_contexts(variables)


def test_expand_fully_assigned_partial_is_singleton():
    variables = [var("A", ["1", "2"])]
    assert expand(Context({"A": "2"}), variables) == [Context({"A": "2"})]


def test_expand_foreign_variable_raises():
    with pytest.raises(AnalysisError, match="foreign variable: Z"):
        expand(Context({"Z": "1"}), [var("A", ["1", "2"])])


def test_expand_value_outside_domain_raises():
    with pytest.raises(AnalysisError, match="not in the domain"):
        expand(Context({"A": "3"}), [var("A", ["1", "2"])])


def test_expand_duplicate_variable_id_raises():
    # no value of the first declaration is lost, and no context is listed twice: the id is refused, as by its siblings
    for partial in (Context(), Context({"A": "c"}), Context({"A": "a"})):
        with pytest.raises(AnalysisError, match="^duplicate variable id A$"):
            expand(partial, [var("A", ["a", "b"]), var("A", ["c", "d"])])


def test_detect_conflicts_duplicate_variable_id_raises():
    from stpalint import GuideWord, UnsafeControlAction

    m = tiny_model()
    m.variables.append(ProcessModelVariable("V-1", "C-1", "State again", ["up", "down"]))
    guide = GuideWord(GuideCategory.PROVIDED_UNSAFE)
    m.ucas.append(UnsafeControlAction("UCA-2", "AC-1", "C-1", guide, Context(), ["H-1"], "acting at all"))
    with pytest.raises(AnalysisError, match="^duplicate variable id V-1$"):
        detect_conflicts(m, "AC-1")


# -- context tables -----------------------------------------------------------


def test_context_table_marks_matching_ucas():
    m = tiny_model()
    table = build_context_table(m, "C-1", "AC-1")
    assert len(table.rows) == 2
    by_value = {row.context.assignments["V-1"]: row for row in table.rows}
    assert by_value["on"].ucas_for(GuideCategory.NOT_PROVIDED) == ["UCA-1"]
    assert by_value["off"].ucas_for(GuideCategory.NOT_PROVIDED) == []


def test_context_table_requires_a_process_model():
    m = tiny_model()
    m.variables = []
    with pytest.raises(AnalysisError, match="no process model"):
        build_context_table(m, "C-1", "AC-1")


def test_context_table_row_guard():
    m = tiny_model()
    with pytest.raises(AnalysisError, match="limit 1"):
        build_context_table(m, "C-1", "AC-1", max_rows=1)


def test_context_table_corpus_has_64_rows(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    assert len(table.rows) == 64
    assert [v.id for v in table.variables] == ["Motion", "Traffic", "Surface", "Regulatory", "Lane"]


def test_context_table_corpus_marks_follow_partial_contexts(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    ucas = {u.id: u for u in corpus.ucas_on("BrakeCmd")}
    for row in table.rows:
        for category in GuideCategory:
            expected = [
                u.id
                for u in ucas.values()
                if u.guide.category is category and context_matches(u.context, row.context)
            ]
            assert row.ucas_for(category) == expected


def test_coverage_gaps_are_the_unmarked_rows(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    gaps = coverage_gaps(table, GuideCategory.NOT_PROVIDED)
    marked = sum(1 for row in table.rows if row.ucas_for(GuideCategory.NOT_PROVIDED))
    assert len(gaps) == 64 - marked
    for context in gaps:
        row = next(r for r in table.rows if r.context == context)
        assert not row.ucas_for(GuideCategory.NOT_PROVIDED)


# -- conflicts ----------------------------------------------------------------


def brute_force_conflict(model, a, b):
    variables = model.variables_of(a.source_controller)
    ea = {c.key() for c in expand(a.context, variables)}
    eb = {c.key() for c in expand(b.context, variables)}
    return ea & eb


def test_detect_conflicts_on_corpus(corpus):
    conflicts = detect_conflicts(corpus, "BrakeCmd")
    pairs = {(c.uca_a, c.uca_b) for c in conflicts}
    assert ("UCA-3", "UCA-7") in pairs
    ucas = corpus.uca_ids()
    for conflict in conflicts:
        expected = brute_force_conflict(corpus, ucas[conflict.uca_a], ucas[conflict.uca_b])
        assert {c.key() for c in conflict.shared} == expected
        assert len(conflict.shared) == len(expected)


def test_detect_conflicts_sorted_and_directional(corpus):
    conflicts = detect_conflicts(corpus, "BrakeCmd")
    ucas = corpus.uca_ids()
    keys = [(c.uca_a, c.uca_b) for c in conflicts]
    assert keys == sorted(keys)
    for c in conflicts:
        assert ucas[c.uca_a].guide.category is GuideCategory.NOT_PROVIDED
        assert ucas[c.uca_b].guide.category is GuideCategory.PROVIDED_UNSAFE


def test_contradicting_contexts_do_not_conflict():
    m = tiny_model()
    from stpalint import GuideWord, UnsafeControlAction

    m.ucas.append(
        UnsafeControlAction(
            "UCA-2",
            "AC-1",
            "C-1",
            GuideWord(GuideCategory.PROVIDED_UNSAFE),
            Context({"V-1": "off"}),
            ["H-1"],
            "acting while off",
        )
    )
    assert detect_conflicts(m, "AC-1") == []
    # flip to the same value: now the pair overlaps in exactly one context
    m.ucas[1].context = Context({"V-1": "on"})
    conflicts = detect_conflicts(m, "AC-1")
    assert [(c.uca_a, c.uca_b) for c in conflicts] == [("UCA-1", "UCA-2")]
    assert conflicts[0].shared == [Context({"V-1": "on"})]


def test_expand_guard_at_the_row_limit(monkeypatch):
    monkeypatch.setattr(analysis, "DEFAULT_MAX_ROWS", 4)
    variables = [var("A", ["1", "2"]), var("B", ["x", "y", "z"])]
    assert len(expand(Context({"B": "x"}), variables)) == 2
    assert len(expand(Context({"A": "1"}), variables)) == 3
    with pytest.raises(AnalysisError, match=r"would have 6 rows \(limit 4\)"):
        expand(Context({}), variables)
    monkeypatch.setattr(analysis, "DEFAULT_MAX_ROWS", 6)
    assert expand(Context({}), variables) == enumerate_contexts(variables)


def test_detect_conflicts_guard_stops_before_expanding(monkeypatch):
    from stpalint import GuideWord, StpaModel, UnsafeControlAction

    m = StpaModel()
    m.variables.extend(var(f"V-{k}", ["lo", "hi"]) for k in range(22))
    for uid, category in [("UCA-1", GuideCategory.NOT_PROVIDED), ("UCA-2", GuideCategory.PROVIDED_UNSAFE)]:
        m.ucas.append(UnsafeControlAction(uid, "AC-1", "C-1", GuideWord(category), Context({}), ["H-1"], uid))
    real_context = analysis.Context

    def partial_only(assignments):
        assert len(assignments) < 22, "a concrete context was built"
        return real_context(assignments)

    monkeypatch.setattr(analysis, "Context", partial_only)
    with pytest.raises(AnalysisError, match=r"would have 4194304 rows \(limit 100000\)"):
        detect_conflicts(m, "AC-1")


# -- trace closure ------------------------------------------------------------


def severities(diags):
    return {(d.rule, d.severity) for d in diags}


def test_trace_closure_clean_on_tiny_model_except_cf_info():
    diags = trace_closure(tiny_model())
    assert severities(diags) == {("trace/uca-without-cf", Severity.INFO)}


def test_trace_closure_orphan_hazard_and_unreachable_loss():
    m = tiny_model()
    m.losses.append(Loss("L-2", "nothing leads here"))
    m.hazards.append(Hazard("H-2", "never cited", ["L-1"]))
    rules = {d.rule for d in trace_closure(m)}
    assert "trace/orphan-hazard" in rules
    assert "trace/unreachable-loss" in rules


def test_trace_closure_constraint_unlinked():
    from stpalint.model import SystemConstraint

    m = tiny_model()
    m.hazards.append(Hazard("H-2", "never cited", ["L-1"]))
    m.constraints.append(SystemConstraint("SC-1", "mitigates only the orphan", ["H-2"]))
    assert any(d.rule == "trace/constraint-unlinked" for d in trace_closure(m))


def test_trace_closure_cf_cross_controller_is_an_error():
    from stpalint import Edge, EdgeKind, GuideWord, UnsafeControlAction

    m = tiny_model()
    m.entities.append(Entity("C-2", EntityKind.CONTROLLER, "Other"))
    m.edges.append(Edge("AC-2", EdgeKind.CONTROL_ACTION, "Act2", "C-2", "P-1"))
    m.ucas.append(
        UnsafeControlAction(
            "UCA-2", "AC-2", "C-2", GuideWord(GuideCategory.NOT_PROVIDED), Context({}), ["H-1"], "d"
        )
    )
    m.causal_factors.append(
        CausalFactor("CF-1", CfCategory.MENTAL_MODEL_CONTENT, "C-1", ["UCA-1", "UCA-2"], "d")
    )
    diags = trace_closure(m)
    cross = [d for d in diags if d.rule == "trace/cf-cross-controller"]
    assert len(cross) == 1 and cross[0].severity is Severity.ERROR


def test_trace_closure_on_corpus_is_info_only(corpus):
    diags = trace_closure(corpus)
    assert {d.severity for d in diags} == {Severity.INFO}
    assert {d.rule for d in diags} == {"trace/uca-without-cf"}
    covered = {ref for cf in corpus.causal_factors for ref in cf.ucas}
    assert covered == {"UCA-1", "UCA-12"}
    assert len(diags) == 15


# -- stats --------------------------------------------------------------------


def test_stats_corpus_counts(corpus):
    s = stats(corpus)
    assert (s.losses, s.hazards, s.constraints) == (2, 4, 2)
    assert (s.variables, s.ucas, s.causal_factors) == (5, 17, 30)
    assert s.ucas_by_guide == {
        "NotProvided": 4,
        "ProvidedUnsafe": 6,
        "WrongTiming": 4,
        "WrongDuration": 3,
    }
    assert s.entities_by_kind == {
        "controller": 2,
        "sensor": 6,
        "actuator": 5,
        "process": 1,
        "environment": 1,
    }
    assert s.ucas_by_action_guide["BrakeCmd"]["NotProvided"] == 4
    assert s.cfs_by_category["TimingDelay"] == 3


def test_stats_per_hazard_counts(corpus):
    s = stats(corpus)
    assert s.ucas_per_hazard == {"H-1": 8, "H-2": 5, "H-3": 5, "H-4": 4}


def brute_force_stats(m):
    """Each field of `stats(m)` as a list of (key, value) pairs, nested breakdowns too, counted item by item."""

    def first_seen(values):
        return [(v, values.count(v)) for v in dict.fromkeys(values)]

    kinds = [e.kind.value for e in m.entities]
    guides = [u.guide.category.value for u in m.ucas]
    actions = dict.fromkeys(u.action for u in m.ucas)
    by_action = [(a, first_seen([u.guide.category.value for u in m.ucas if u.action == a])) for a in actions]
    return {
        **{section: len(getattr(m, section)) for section in StpaModel.__slots__ if section != "entities"},
        "entities_by_kind": [(k.value, kinds.count(k.value)) for k in EntityKind if k.value in kinds],
        "ucas_by_guide": [(c.value, guides.count(c.value)) for c in GuideCategory if c.value in guides],
        "ucas_by_action_guide": by_action,
        "ucas_per_hazard": list({hz.id: sum(hz.id in u.hazards for u in m.ucas) for hz in m.hazards}.items()),
        "cfs_by_category": first_seen([cf.category.value for cf in m.causal_factors]),
    }


def ordered(value):
    """`value` with every dict turned into its list of (key, value) pairs, so that `==` compares key order too."""
    return [(k, ordered(v)) for k, v in value.items()] if isinstance(value, dict) else value


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(strategies.models(), strategies.control_structures(), strategies.hostile_models()))
# a UCA that lists H-1 twice counts once for it, and H-1 declared twice keeps its first place; the entities
# come in reverse kind order, which the breakdown does not keep, and the causal factors in reverse category
# order, which it keeps
@example(
    StpaModel(
        hazards=[Hazard("H-1", "h", ["L-1"]), Hazard("H-2", "h", ["L-1"]), Hazard("H-1", "again", ["L-1"])],
        entities=[Entity("P", EntityKind.CONTROLLED_PROCESS, "P"), Entity("C", EntityKind.CONTROLLER, "C")],
        ucas=[
            UnsafeControlAction("U-1", "A", "C", GuideWord(GuideCategory.NOT_PROVIDED), Context(), ["H-1", "H-1"], "u"),
        ],
        causal_factors=[
            CausalFactor("CF-1", CfCategory.TIMING_DELAY, "C", ["U-1"], "d"),
            CausalFactor("CF-2", CfCategory.MENTAL_MODEL_CONTENT, "C", ["U-1"], "e"),
            CausalFactor("CF-3", CfCategory.TIMING_DELAY, "C", ["U-1"], "f"),
        ],
    )
)
def test_stats_match_the_item_by_item_oracle(model):
    s = stats(model)
    assert {name: ordered(getattr(s, name)) for name in analysis.ModelStats.__slots__} == brute_force_stats(model)
