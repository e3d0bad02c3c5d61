"""The indexed causal analysis against the enumeration-based oracle.

`causal_oracle` lists every walk with its own `walk_paths` and reads
checklists, on-path sets and `validate_cfs` diagnostics off them. The
indexed code must give the same results, in the same order, without listing
walks, and `causal.walk_paths` must list the oracle's walks and diagnostics.
"""

import itertools
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
from stpalint.causal import _normalize
from stpalint.corpus import corpus_paths
from stpalint.model import CfCategory, ModelIndex

from strategies import control_structures, hostile_models, models

relaxed = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_matches_oracle(model):
    index = ModelIndex(model)
    for uca in model.ucas:
        assert walk_paths(model, uca) == causal_oracle.walk_paths(model, uca), uca.id
        assert checklist(model, uca) == causal_oracle.checklist(model, uca), uca.id
        assert checklist(index, uca) == causal_oracle.checklist(model, uca), uca.id
        assert causal.categories(index, uca) == tuple(
            dict.fromkeys(i.category for i in causal_oracle.checklist(model, uca))
        )
        assert causal.on_path(index, uca) == causal_oracle.on_path_ids(model, uca), uca.id
    assert validate_cfs(model) == validate_cfs(index) == causal_oracle.validate_cfs(model)


@relaxed
@given(control_structures())
def test_random_structures_match_the_oracle(model):
    assert_matches_oracle(model)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_random_valid_models_match_the_oracle(model):
    assert_matches_oracle(model)


@relaxed
@given(hostile_models())
def test_hostile_models_match_the_oracle(model):
    assert_matches_oracle(model)


def test_corpus_matches_the_oracle(corpus):
    assert_matches_oracle(corpus)


@relaxed
@given(st.text())
def test_normalize_matches_the_per_character_version(text):
    assert _normalize(text) == causal_oracle.normalize(text)


def test_normalize_matches_the_regex_rule_on_every_pair_of_ascii_characters_between_words():
    """Each text is ASCII, so it takes the `bytes.translate` path, where `\\x1c`-`\\x1f` must still split words."""
    for a, b in itertools.product(map(chr, range(128)), repeat=2):
        text = f"Ab{a}{b}Cd"
        assert _normalize(text) == " ".join(causal._PUNCTUATION.sub("", text.lower()).split()), (a, b)


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
    m.entities.append(Entity("E-1", EntityKind.ENVIRONMENT, "Environment"))
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


@pytest.mark.parametrize(
    "first, last",
    [(EntityKind.CONTROLLED_PROCESS, EntityKind.ACTUATOR), (EntityKind.ACTUATOR, EntityKind.CONTROLLED_PROCESS)],
)
def test_a_control_walk_stops_where_the_last_declaration_is_a_process(first, last):
    """`X` is declared twice, with two kinds; the control walk through it goes on to `Y` unless `X` is a process."""
    m = feedback_model([], [("P-1", "C-1")])
    m.entities[2:2] = [Entity("X", first, "Relay"), Entity("Y", EntityKind.CONTROLLED_PROCESS, "Load")]
    m.entities.append(Entity("X", last, "Relay"))
    m.edges[0] = Edge("AC-1", EdgeKind.CONTROL_ACTION, "Act", "C-1", "X")
    m.edges.append(Edge("AC-2", EdgeKind.CONTROL_ACTION, "Pass", "X", "Y"))
    walks, _ = walk_paths(m, m.ucas[0])
    ends = ["Y"] if last is EntityKind.ACTUATOR else []
    assert [w.elements for w in walks if w.direction is causal.PathDirection.CONTROL_PATH] == [["C-1", "X", *ends]]
    assert_matches_oracle(m)


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
    assert causal.on_path(ModelIndex(m), uca) == {e.id for e in m.entities}
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


def test_check_builds_no_checklist_item(monkeypatch, capsys):
    args = ["check", *map(str, corpus_paths())]
    code = cli.run(args)
    expected = capsys.readouterr()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("check built a checklist item")

    monkeypatch.setattr(causal, "ChecklistItem", forbidden)
    assert cli.run(args) == code == 0
    assert capsys.readouterr() == expected


def test_check_makes_one_search_per_feedback_element_timing_and_control(monkeypatch, capsys):
    """Two checklist keys on the corpus, `Operator`'s one feedback element, and no search for on-path sets."""
    searches = []
    search = causal._search

    def counted(path, *args, backward):
        searches.append((list(path), backward))
        return search(path, *args, backward=backward)

    monkeypatch.setattr(causal, "_search", counted)
    assert cli.run(["check", *map(str, corpus_paths())]) == 0
    capsys.readouterr()
    feedback = (["Operator", "Display"], True)
    timing = (["Operator"], True)
    control = (["Operator", "Brakep", "Interface"], False)
    assert searches == [feedback, control, feedback, timing, control]


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
    walks, _ = walk_paths(m, m.ucas[0])
    assert [w.elements for w in walks] == [
        ["E-1", "P-1", *names, "C-1"],
        ["C-1", "A-1", "P-1"],
    ]
