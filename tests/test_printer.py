import pytest
from hypothesis import HealthCheck, given, settings

from stpalint import StpaModel, UnresolvedModelError, analysis, parse, serialize
from stpalint.model import _KINDS, ControllerConstraint
from stpalint.parser import STATEMENTS
from stpalint.printer import quote, serialize_file
from stpalint.report import render_stats

from conftest import REPO_ROOT, tiny_model
from strategies import models


def reparse(model):
    reparsed, diags = parse([("canon.stpa", serialize(model))])
    assert diags == [], [d.format() for d in diags]
    return reparsed


def test_quote_escapes():
    assert quote('a "b"\n\t\\') == '"a \\"b\\"\\n\\t\\\\"'
    assert quote("\r\n") == '"\\r\\n"'
    assert quote('"a\rb\\') == '"\\"a\\rb\\\\"'
    assert quote("plain µ") == '"plain µ"'
    assert quote("") == '""'


def test_serialize_empty_model():
    text = serialize(StpaModel())
    assert text == "# stpa model (canonical format)\n"


def test_round_trip_tiny_model():
    m = tiny_model()
    assert reparse(m) == m


def test_round_trip_abstract_structure():
    path = REPO_ROOT / "corpus" / "structure_abstract.stpa"
    model, diags = parse([(str(path), path.read_text(encoding="utf-8"))])
    assert diags == [], [d.format() for d in diags]
    assert reparse(model) == model


def test_round_trip_preserves_declaration_order():
    m = tiny_model()
    text = serialize(m)
    lines = [line.split()[0] for line in text.splitlines() if line and not line.startswith("#")]
    assert lines == [
        "loss",
        "hazard",
        "controller",
        "process",
        "sensor",
        "actuator",
        "action",
        "feedback",
        "variable",
        "uca",
    ]


def test_fmt_sections_and_stats_counts_follow_the_model_section_order(corpus):
    m = StpaModel(**{name: list(getattr(corpus, name)) for name in StpaModel.__slots__})
    m.controller_constraints.append(ControllerConstraint("CC-1", "UCA-1", "brake on time"))
    assert all(getattr(m, section) for section in _KINDS)
    words = [line.split()[0] for line in serialize(m).splitlines() if line and not line.startswith("#")]
    assert list(dict.fromkeys(STATEMENTS[word].section for word in words)) == list(_KINDS)
    counts = [section for section in _KINDS if section != "entities"]
    assert list(analysis.ModelStats.__slots__[: len(counts)]) == counts
    labels = [line[2:].split(":")[0] for line in render_stats(m).splitlines()[2 : 2 + len(counts)]]
    assert ["ucas" if label == "unsafe control actions" else label.replace(" ", "_") for label in labels] == counts


def test_serialize_refuses_unresolved_model():
    m = tiny_model()
    m.hazards[0].leads_to = ["L-9"]
    with pytest.raises(UnresolvedModelError) as err:
        serialize(m)
    assert err.value.diagnostics
    # escape hatch for debugging half-built models
    assert "L-9" in serialize(m, check=False)


def test_serialize_is_deterministic():
    m = tiny_model()
    assert serialize(m) == serialize(m)


def test_serialize_file_filters_by_source_file():
    files = [
        ("a.stpa", 'loss L-1 "one"\n'),
        ("b.stpa", 'loss L-2 "two"\nhazard H-1 "h" leads_to [L-1]\n'),
    ]
    model, diags = parse(files)
    assert diags == []
    a = serialize_file(model, "a.stpa")
    b = serialize_file(model, "b.stpa")
    assert "L-1" in a and "L-2" not in a and "hazard" not in a
    assert "L-2" in b and "H-1" in b and "L-1 " not in b


def test_fmt_output_is_idempotent():
    files = [("a.stpa", '# noise\nloss   L-1   "one"\n\n\nhazard H-1 "h" leads_to [L-1]\n')]
    model, diags = parse(files)
    once = serialize_file(model, "a.stpa")
    model2, diags2 = parse([("a.stpa", once)])
    assert diags2 == []
    assert serialize_file(model2, "a.stpa") == once


def test_round_trip_corpus(corpus):
    assert reparse(corpus) == corpus


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_round_trip_random_models(model):
    assert reparse(model) == model
