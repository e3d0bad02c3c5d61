"""The indexed causal analysis against the enumeration-based oracle.

`causal_oracle` lists every walk with `walk_paths` and reads checklists,
on-path sets and `validate_cfs` diagnostics off them. The indexed code must
give the same results, in the same order, without listing walks.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import causal_oracle
from stpalint import (
    AnalysisError,
    Context,
    Edge,
    EdgeKind,
    Entity,
    EntityKind,
    GuideCategory,
    GuideWord,
    Severity,
    StpaModel,
    UnsafeControlAction,
    analysis,
    causal,
    checklist,
    cli,
    model as model_module,
    validate_cfs,
    walk_paths,
)
from stpalint.causal import CausalIndex, _normalize
from stpalint.corpus import corpus_paths
from stpalint.model import CfCategory

from strategies import control_structures, models

relaxed = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_matches_oracle(model):
    index = CausalIndex(model)
    for uca in model.ucas:
        assert checklist(model, uca) == causal_oracle.checklist(model, uca), uca.id
        assert index.checklist(uca) == causal_oracle.checklist(model, uca), uca.id
        assert index.on_path(uca) == causal_oracle.on_path_ids(model, uca), uca.id
    assert validate_cfs(model) == causal_oracle.validate_cfs(model)


@relaxed
@given(control_structures())
def test_random_structures_match_the_oracle(model):
    assert_matches_oracle(model)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_random_valid_models_match_the_oracle(model):
    assert_matches_oracle(model)


def test_corpus_matches_the_oracle(corpus):
    assert_matches_oracle(corpus)


@relaxed
@given(st.text())
def test_normalize_matches_the_per_character_version(text):
    assert _normalize(text) == causal_oracle.normalize(text)


def test_normalize_keeps_exactly_alnum_and_space_characters():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(ch for ch in every if ch.isalnum() or ch.isspace())
    assert causal._PUNCTUATION.sub("", every) == kept


# -- adversarial structures ------------------------------------------------------


def feedback_model(sensors, hops, wrong_timing=True):
    """Controller C-1 acting on P-1 through A-1; feedback from P-1 through `hops`."""
    m = StpaModel()
    m.entities.append(Entity("C-1", EntityKind.CONTROLLER, "Controller"))
    m.entities.append(Entity("P-1", EntityKind.CONTROLLED_PROCESS, "Process"))
    m.entities.append(Entity("A-1", EntityKind.ACTUATOR, "Actuator"))
    m.entities.append(Entity("E-1", EntityKind.ENVIRONMENT, "Environment", in_system_boundary=False))
    for sensor_id, label in sensors:
        m.entities.append(Entity(sensor_id, EntityKind.SENSOR, label))
    m.edges.append(Edge("AC-1", EdgeKind.CONTROL_ACTION, "Act", "C-1", "P-1", ["A-1"]))
    m.edges.append(Edge("FB-E", EdgeKind.FEEDBACK, "Env", "E-1", "P-1"))
    for k, (a, b) in enumerate(hops):
        m.edges.append(Edge(f"FB-{k}", EdgeKind.FEEDBACK, "hop", a, b))
    guide = GuideCategory.WRONG_TIMING if wrong_timing else GuideCategory.NOT_PROVIDED
    m.ucas.append(UnsafeControlAction("UCA-1", "AC-1", "C-1", GuideWord(guide), Context(), ["H-1"], "d"))
    return m


def lattice(layers):
    """Width-2 feedback lattice; every other layer is a network leg."""
    names = [(f"L{k}a", f"L{k}b") for k in range(layers)]
    sensors = [
        (s, "Network hop" if k % 2 else f"Sensor {s}") for k, pair in enumerate(names) for s in pair
    ]
    hops = [("P-1", s) for s in names[0]]
    hops += [(a, b) for k in range(layers - 1) for a in names[k] for b in names[k + 1]]
    hops += [(s, "C-1") for s in names[-1]]
    return feedback_model(sensors, hops)


def complete(n):
    """n sensors, each feeding every other one and the controller: n! simple paths."""
    names = [f"S-{k}" for k in range(n)]
    hops = [("P-1", s) for s in names]
    hops += [(a, b) for a in names for b in names if a != b]
    hops += [(s, "C-1") for s in names]
    return feedback_model([(s, f"Sensor {s}") for s in names], hops)


@pytest.mark.parametrize("layers", [1, 2, 5, 8])
def test_small_lattices_match_the_oracle(layers):
    assert_matches_oracle(lattice(layers))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_small_complete_graphs_match_the_oracle(n):
    assert_matches_oracle(complete(n))


def test_eighteen_layer_lattice_checklist():
    m = lattice(18)
    uca = m.ucas[0]
    items = checklist(m, uca)
    keys = [(i.category, i.located_at) for i in items]
    assert len(keys) == len(set(keys))
    for k in range(18):
        for s in (f"L{k}a", f"L{k}b"):
            assert (CfCategory.TIMING_DELAY, s) in keys
            if k % 2:
                assert (CfCategory.TRANSMISSION_LOSS, s) in keys
            elif k == 17:
                assert (CfCategory.PRESENTATION, s) in keys
            else:
                assert (CfCategory.SENSOR_OPERATION, s) in keys
    assert CausalIndex(m).on_path(uca) == {e.id for e in m.entities}
    # 2**18 feedback walks: listing them trips the guard
    with pytest.raises(AnalysisError, match="more than 100000 walks"):
        walk_paths(m, uca)


def test_complete_feedback_graph_of_nine_sensors_checklist_completes():
    m = complete(9)
    items = checklist(m, m.ucas[0])
    assert {i.located_at for i in items} == {e.id for e in m.entities}


# -- walk guard and errors -------------------------------------------------------


def test_walk_guard_allows_exactly_the_limit(corpus, monkeypatch):
    uca = corpus.uca_ids()["UCA-1"]
    walks, _ = walk_paths(corpus, uca)
    assert len(walks) == 4
    monkeypatch.setattr(causal, "DEFAULT_MAX_WALKS", 4)
    assert walk_paths(corpus, uca) == (walks, [])
    monkeypatch.setattr(causal, "DEFAULT_MAX_WALKS", 3)
    with pytest.raises(AnalysisError, match="uca UCA-1 has more than 3 walks"):
        walk_paths(corpus, uca)


def test_analysis_error_is_one_class():
    import stpalint

    assert stpalint.AnalysisError is analysis.AnalysisError is model_module.AnalysisError
    assert issubclass(AnalysisError, ValueError)


def test_check_never_lists_walks(monkeypatch, capsys):
    args = ["check", *map(str, corpus_paths())]
    code = cli.run(args)
    expected = capsys.readouterr()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("check listed walks")

    monkeypatch.setattr(causal, "walk_paths", forbidden)
    assert cli.run(args) == code == 0
    assert capsys.readouterr() == expected


def test_check_reports_analysis_errors_without_traceback(monkeypatch, capsys):
    def failing(*_args, **_kwargs):
        raise AnalysisError("too much")

    monkeypatch.setattr(causal, "validate_cfs", failing)
    assert cli.run(["check", *map(str, corpus_paths())]) == 2
    err = capsys.readouterr().err
    assert err == "stpalint: too much\n"


def test_feedback_chain_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    names = [f"S-{k}" for k in range(n)]
    hops = [("P-1", names[0]), *zip(names, names[1:]), (names[-1], "C-1")]
    m = feedback_model([(s, f"Sensor {s}") for s in names], hops)
    items = checklist(m, m.ucas[0])
    assert {i.located_at for i in items} == {e.id for e in m.entities}
    assert not [d for d in validate_cfs(m) if d.severity is not Severity.INFO]
