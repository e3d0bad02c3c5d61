"""The record contract of the model types.

The mutable record classes derive from `model.Record`: `__slots__` lists
their fields in constructor order, `Record` builds each constructor from it,
equality needs the same class and skips a declaration's `span`, they are
unhashable, and `repr` names every field.
`SourceSpan` and `GuideWord` are immutable, hashable value types.
"""

import ast
import inspect

import pytest

from stpalint import analysis, causal, parser
from stpalint.model import (
    CausalFactor,
    CfCategory,
    Context,
    ControllerConstraint,
    Diagnostic,
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
    Record,
    Severity,
    SourceSpan,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
)

from conftest import REPO_ROOT

SPAN = SourceSpan("a.stpa", 1, 1, 1, 9)
OTHER_SPAN = SourceSpan("b.stpa", 2, 1, 2, 9)
GUIDE = GuideWord(GuideCategory.WRONG_TIMING, GuideQualifier.TOO_LATE)


def samples():
    """One instance of every record class of `src/`, built by keyword."""
    return [
        Loss(id="L-1", description="loss", span=SPAN),
        Hazard(id="H-1", description="hazard", leads_to=["L-1"], span=SPAN),
        SystemConstraint(id="SC-1", description="constraint", mitigates=["H-1"], span=SPAN),
        Entity(id="C", kind=EntityKind.CONTROLLER, label="Controller", span=SPAN),
        Edge(id="A", kind=EdgeKind.CONTROL_ACTION, label="act", source="C", target="P", via=["S"], signals=["s"], span=SPAN),
        ProcessModelVariable(id="V", owner="C", label="v", values=["a", "b"], span=SPAN),
        Context(assignments={"V": "a"}),
        UnsafeControlAction(
            id="U-1",
            action="A",
            source_controller="C",
            guide=GUIDE,
            context=Context({"V": "a"}),
            hazards=["H-1"],
            description="u",
            span=SPAN,
        ),
        CausalFactor(id="CF-1", category=CfCategory.CONTROL_ALGORITHM, located_at="C", ucas=["U-1"], description="cf", span=SPAN),
        ControllerConstraint(id="CC-1", derived_from="U-1", description="cc", span=SPAN),
        StpaModel(losses=[Loss("L-1", "loss")]),
        Diagnostic(severity=Severity.INFO, rule="trace/uca-without-cf", message="m", span=SPAN, related=[("n", SPAN)]),
        analysis.ContextRow(context=Context({"V": "a"}), marks={GuideCategory.NOT_PROVIDED: ["U-1"]}),
        analysis.ContextTable(controller="C", action="A", variables=[], hits=[]),
        analysis.Conflict(action="A", uca_a="U-1", uca_b="U-2", shared=[Context({"V": "a"})]),
        analysis.ModelStats(losses=1, entities_by_kind={"controller": 1}),
        causal.PathWalk(uca="U-1", direction=causal.PathDirection.FEEDBACK_PATH, elements=["P", "S", "C"]),
        causal.ChecklistItem(category=CfCategory.CONTROL_ALGORITHM, located_at="C", prompt="p"),
        parser.Field(name="leads_to", shape="ids", what="identifier", keyword="leads_to"),
        parser.Statement(section="losses", cls=Loss, fixed={}, slots=(parser.Field("id", "id", "loss id"),)),
    ]


def copy(record):
    return type(record)(*(getattr(record, name) for name in type(record).__slots__))


def test_the_samples_cover_every_record_class():
    in_src = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("stpalint.")}
    assert {type(r) for r in samples()} == in_src


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_slots_list_the_fields_in_constructor_order(record):
    cls = type(record)
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
    assert copy(record) == record


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_no_record_has_a_dict_or_takes_a_new_attribute(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_a_record_never_equals_an_instance_of_another_class(record):
    cls = type(record)
    # a record class of the same name, fields and constructor
    twin_class = type(cls.__name__, (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    twin = twin_class(*(getattr(record, name) for name in cls.__slots__))
    assert repr(twin) == repr(record)
    assert record != twin and twin != record
    assert not record == twin
    assert record != object()
    assert record != tuple(getattr(record, name) for name in cls.__slots__)


def test_declarations_compare_every_field_but_the_span():
    for record in samples():
        if "span" not in type(record).__slots__ or isinstance(record, Diagnostic):
            continue
        moved = copy(record)
        moved.span = OTHER_SPAN
        assert moved == record
        for name in type(record).__slots__:
            if name != "span":
                changed = copy(record)
                setattr(changed, name, "changed")
                assert changed != record, name


def test_a_diagnostic_compares_all_five_fields_the_span_included():
    diag = Diagnostic(Severity.ERROR, "resolve/self-loop", "m", SPAN, [("note", SPAN)])
    assert Diagnostic.__slots__ == ("severity", "rule", "message", "span", "related")
    assert copy(diag) == diag
    for name in Diagnostic.__slots__:
        changed = copy(diag)
        setattr(changed, name, OTHER_SPAN if name == "span" else "changed")
        assert changed != diag, name


def test_fresh_records_never_share_a_default_container():
    assert Edge("A", EdgeKind.FEEDBACK, "a", "P", "C").via is not Edge("B", EdgeKind.FEEDBACK, "b", "P", "C").via
    assert Edge("A", EdgeKind.FEEDBACK, "a", "P", "C").signals is not Edge("B", EdgeKind.FEEDBACK, "b", "P", "C").signals
    first, second = StpaModel(), StpaModel()
    for name in StpaModel.__slots__:
        assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name), name
    first.losses.append(Loss("L-1", "loss"))
    assert second.losses == []
    assert Context().assignments is not Context().assignments
    assert Diagnostic(Severity.INFO, "r", "m", SPAN).related is not Diagnostic(Severity.INFO, "r", "m", SPAN).related
    stats = analysis.ModelStats(), analysis.ModelStats()
    assert all(getattr(stats[0], n) is not getattr(stats[1], n) for n in analysis.ModelStats.__slots__[8:])
    assert analysis.ContextRow(Context()).marks is not analysis.ContextRow(Context()).marks


def test_a_given_container_is_kept_not_copied():
    via = ["S"]
    assert Edge("A", EdgeKind.FEEDBACK, "a", "P", "C", via).via is via


@pytest.mark.parametrize("value", [SPAN, GUIDE, GuideWord(GuideCategory.NOT_PROVIDED)], ids=repr)
def test_spans_and_guide_words_are_hashable_immutable_values(value):
    cls = type(value)
    same = cls(*value)
    assert same == value and not same != value
    assert hash(same) == hash(value)
    assert len({value, same}) == 1
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    assert value != tuple(value) and tuple(value) != value and not value == tuple(value)


def test_repr_keeps_the_dataclass_format():
    assert repr(SPAN) == "SourceSpan(file='a.stpa', line_start=1, col_start=1, line_end=1, col_end=9)"
    assert repr(Loss("L-1", "loss", SPAN)) == f"Loss(id='L-1', description='loss', span={SPAN!r})"
    assert repr(Context({"V": "a"})) == "Context(assignments={'V': 'a'})"
    assert repr(GUIDE) == (
        "GuideWord(category=<GuideCategory.WRONG_TIMING: 'WrongTiming'>, "
        "qualifier=<GuideQualifier.TOO_LATE: 'TooLate'>)"
    )
    assert repr(causal.ChecklistItem(CfCategory.CONTROL_ALGORITHM, "C", "p")) == (
        "ChecklistItem(category=<CfCategory.CONTROL_ALGORITHM: 'ControlAlgorithm'>, located_at='C', prompt='p')"
    )


# Each record class: its required fields, then each optional field and the
# value it takes when left out (a container there is built fresh per record).
CONSTRUCTORS = {
    Loss: (("id", "description"), {"span": None}),
    Hazard: (("id", "description", "leads_to"), {"span": None}),
    SystemConstraint: (("id", "description", "mitigates"), {"span": None}),
    Entity: (("id", "kind", "label"), {"span": None}),
    Edge: (("id", "kind", "label", "source", "target"), {"via": [], "signals": [], "span": None}),
    ProcessModelVariable: (("id", "owner", "label", "values"), {"span": None}),
    Context: ((), {"assignments": {}}),
    UnsafeControlAction: (
        ("id", "action", "source_controller", "guide", "context", "hazards", "description"),
        {"span": None},
    ),
    CausalFactor: (("id", "category", "located_at", "ucas", "description"), {"span": None}),
    ControllerConstraint: (("id", "derived_from", "description"), {"span": None}),
    StpaModel: (
        (),
        {
            "losses": [],
            "hazards": [],
            "constraints": [],
            "entities": [],
            "edges": [],
            "variables": [],
            "ucas": [],
            "causal_factors": [],
            "controller_constraints": [],
        },
    ),
    Diagnostic: (("severity", "rule", "message", "span"), {"related": []}),
    analysis.ContextRow: (("context",), {"marks": {}}),
    analysis.ContextTable: (("controller", "action", "variables", "hits"), {}),
    analysis.Conflict: (("action", "uca_a", "uca_b", "shared"), {}),
    analysis.ModelStats: (
        (),
        {
            "losses": 0,
            "hazards": 0,
            "constraints": 0,
            "edges": 0,
            "variables": 0,
            "ucas": 0,
            "causal_factors": 0,
            "controller_constraints": 0,
            "entities_by_kind": {},
            "ucas_by_guide": {},
            "ucas_by_action_guide": {},
            "ucas_per_hazard": {},
            "cfs_by_category": {},
        },
    ),
    causal.PathWalk: (("uca", "direction", "elements"), {}),
    causal.ChecklistItem: (("category", "located_at", "prompt"), {}),
    parser.Field: (("name", "shape", "what"), {"keyword": None}),
    parser.Statement: (("section", "cls", "fixed", "slots"), {}),
}


def test_the_constructor_table_covers_every_record_class():
    assert set(CONSTRUCTORS) == {type(r) for r in samples()}


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_each_constructor_requires_and_defaults_the_listed_fields(record):
    cls = type(record)
    required, defaults = CONSTRUCTORS[cls]
    assert cls.__slots__ == (*required, *defaults)
    built = cls(*(getattr(record, name) for name in required))
    for name in required:
        assert getattr(built, name) is getattr(record, name), name
    for name, value in defaults.items():
        assert getattr(built, name) == value and type(getattr(built, name)) is type(value), name
    if required:
        with pytest.raises(TypeError, match=rf"missing 1 required positional argument: '{required[-1]}'"):
            cls(*(getattr(record, name) for name in required[:-1]))


def test_a_missing_field_names_the_class_and_the_field():
    with pytest.raises(TypeError) as info:
        Loss("L-1")
    assert str(info.value) == "Loss.__init__() missing 1 required positional argument: 'description'"
    assert Loss.__init__.__qualname__ == "Loss.__init__"
    assert analysis.ModelStats.__init__.__qualname__ == "ModelStats.__init__"


def test_no_record_class_in_src_writes_its_own_constructor():
    """Record classes get `__init__` from `Record`, so none may define one by hand."""
    checked = set()
    for path in sorted((REPO_ROOT / "src" / "stpalint").glob("*.py")):
        records = {"Record"}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in records for b in node.bases):
                records.add(node.name)
                checked.add(node.name)
                methods = {n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                assert "__init__" not in methods, f"{path.name}: {node.name}"
    assert checked == {cls.__name__ for cls in CONSTRUCTORS}
