"""The indexed context table against the row-by-row oracle.

`analysis_oracle` tests every row against every UCA with `context_matches`.
The rows that the positions of each hit of `build_context_table` allow must
be the oracle's rows of that UCA, its marks must come in the same order, and
its `AnalysisError` message must be the same, on any input. Its CSV and
coverage gaps must equal the old loops over `table.rows`.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import analysis_oracle
from stpalint import (
    AnalysisError,
    Context,
    GuideCategory,
    GuideWord,
    ProcessModelVariable,
    StpaModel,
    UnsafeControlAction,
    analysis,
    build_context_table,
    coverage_gaps,
)
from stpalint.analysis import ContextTable
from stpalint.report import render_context_csv

from conftest import GOLDEN_DIR, planner_model

CONTROLLER, ACTION = "C-1", "AC-1"
VALUES = ["a", "b", "c"]
HOSTILE = [",", '"', "\n", "\r", " a", ""]  # labels, values and UCA ids that CSV must quote or keep
FOREIGN = ["X", "W-0"]  # an undeclared id and a variable of another controller


def row_lists(table):
    """(category, UCA id, ascending rows) per hit: the oracle's hits, derived from positions for a `ContextTable`."""
    if isinstance(table, ContextTable):
        return [(category, uca_id, table.hit_rows(positions)) for category, uca_id, positions in table.hits]
    return table.hits


def outcome(build, model, **kwargs):
    """The pair, the variables, each hit's rows and the insertion order of every row's marks, or the error message.

    The oracle keeps its own marks; the marks of `build_context_table` are
    derived from its hits' positions, and its rows must carry them.
    """
    try:
        table = build(model, CONTROLLER, ACTION, **kwargs)
    except AnalysisError as err:
        return str(err)
    if isinstance(table, ContextTable):
        assert [row.marks for row in table.rows] == table.marks
    return table.controller, table.action, table.variables, row_lists(table), [list(m.items()) for m in table.marks]


def uca(uid, context, category=GuideCategory.NOT_PROVIDED, controller=CONTROLLER, action=ACTION):
    return UnsafeControlAction(uid, action, controller, GuideWord(category), Context(context), ["H-1"], uid)


@st.composite
def table_inputs(draw):
    """Models with duplicate ids, repeated values, empty domains and foreign variables."""
    m = StpaModel()
    ids = [f"V-{i}" for i in range(draw(st.integers(0, 4)))]
    if len(ids) >= 2 and draw(st.integers(0, 4)) == 0:
        ids[draw(st.integers(1, len(ids) - 1))] = ids[0]
    for var_id in ids:
        empty = draw(st.integers(0, 5)) == 5
        values = [] if empty else draw(st.lists(st.sampled_from(VALUES + HOSTILE), min_size=1, max_size=4))
        if draw(st.booleans()):
            m.variables.append(ProcessModelVariable("W-0", "C-2", "other", ["a"]))
        label = draw(st.sampled_from([var_id, *HOSTILE]))
        m.variables.append(ProcessModelVariable(var_id, CONTROLLER, label, values))
    keys = st.sampled_from(sorted(set(ids)) + FOREIGN) if ids else st.sampled_from(FOREIGN)
    # out-of-domain values and foreign ids land anywhere in the assignment order
    pairs = st.lists(
        st.tuples(keys, st.sampled_from([*VALUES, *HOSTILE, "z"])), unique_by=lambda kv: kv[0], max_size=4
    )
    for n in range(draw(st.integers(0, 6))):
        m.ucas.append(
            uca(
                draw(st.sampled_from([f"U-{n}", *(f"U{c}{n}" for c in HOSTILE), f"U-{n}" + "".join(HOSTILE)])),
                dict(draw(pairs)),
                draw(st.sampled_from(list(GuideCategory))),
                draw(st.sampled_from([CONTROLLER, CONTROLLER, "C-2"])),
                draw(st.sampled_from([ACTION, ACTION, "AC-2"])),
            )
        )
    total = math.prod(len(v.values) for v in m.variables_of(CONTROLLER))
    limit = draw(st.sampled_from([None, total, total - 1]))
    return m, ({} if limit is None else {"max_rows": limit})


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_inputs())
def test_indexed_table_equals_row_by_row_oracle(inputs):
    m, kwargs = inputs
    assert outcome(build_context_table, m, **kwargs) == outcome(analysis_oracle.build_context_table, m, **kwargs)


def one_var_model(values, *ucas):
    m = StpaModel()
    m.variables.append(ProcessModelVariable("A", CONTROLLER, 'tricky, "label"\n', values))
    m.ucas.extend(ucas)
    return m


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_inputs())
@example((one_var_model(HOSTILE, uca("U-1", {"A": "\r"}), uca("U-2", {}, GuideCategory.WRONG_TIMING)), {}))
@example((one_var_model(HOSTILE, *(uca(uid, {}) for uid in ["", "U,1", "", ' U"2', "U\n3", ""])), {}))
@example((one_var_model([], uca("U-1", {})), {}))
def test_csv_and_gaps_equal_the_row_loop_oracle(inputs):
    m, kwargs = inputs
    try:
        table = build_context_table(m, CONTROLLER, ACTION, **kwargs)
    except AnalysisError:
        return  # the error itself is compared with the oracle's above
    expected = analysis_oracle.build_context_table(m, CONTROLLER, ACTION, **kwargs)
    assert render_context_csv(table) == analysis_oracle.render_context_csv(expected)
    for category in GuideCategory:
        assert coverage_gaps(table, category) == analysis_oracle.coverage_gaps(expected, category)


def test_zero_row_table_csv_is_the_header_only():
    table = build_context_table(one_var_model([], uca("U-1", {})), CONTROLLER, ACTION)
    assert table.hits == []
    assert table.marks == []
    assert render_context_csv(table) == '"tricky, ""label""\n",NotProvided,ProvidedUnsafe,WrongTiming,WrongDuration\n'
    # a hand-built table: more free hits than one mask holds, the empty domain at each place
    for empty in range(3):
        variables = [ProcessModelVariable(v, CONTROLLER, v, ["a", "b"]) for v in "ABC"]
        variables[empty].values = []
        hits = [(GuideCategory.NOT_PROVIDED, f"U-{i}", [None] * 3) for i in range(70)]
        table = ContextTable(CONTROLLER, ACTION, variables, hits)
        assert render_context_csv(table) == "A,B,C,NotProvided,ProvidedUnsafe,WrongTiming,WrongDuration\n"


def test_csv_builds_no_row_context(corpus, monkeypatch):
    """The table and its CSV read only the hits' positions: no row index, marks dict, row view or context."""
    planner = planner_model()
    planner_csv = analysis_oracle.render_context_csv(analysis_oracle.build_context_table(planner, "Planner", "Plan"))

    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(analysis, "enumerate_contexts", refuse)
    monkeypatch.setattr(ContextTable, "hit_rows", refuse)
    monkeypatch.setattr(ContextTable, "marks", property(refuse))
    monkeypatch.setattr(ContextTable, "rows", property(refuse))
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    assert render_context_csv(table) == (GOLDEN_DIR / "contexts_brake.csv").read_text(encoding="utf-8")
    assert render_context_csv(build_context_table(planner, "Planner", "Plan")) == planner_csv


@pytest.mark.parametrize("rows", [5, 7, 0])
def test_marks_of_another_length_raise_instead_of_dropping_rows(rows):
    """Hits made for a domain one value longer, at either end, or for one variable more or fewer, raise.

    No row is dropped, no index wraps and no position list is cut short.
    """
    variables = [ProcessModelVariable("A", CONTROLLER, "A", [f"v{i}" for i in range(rows)])]
    for positions in ([(*range(rows), rows)], [(-1, *range(rows))], [None, None], []):
        table = ContextTable(CONTROLLER, ACTION, variables, [(GuideCategory.NOT_PROVIDED, "U-1", positions)])
        with pytest.raises(ValueError):
            render_context_csv(table)
        with pytest.raises(ValueError):
            table.rows
        with pytest.raises(ValueError):
            table.marks
        with pytest.raises(ValueError):
            coverage_gaps(table, GuideCategory.WRONG_TIMING)


def two_var_model(*ucas):
    m = StpaModel()
    m.variables.append(ProcessModelVariable("A", CONTROLLER, "A", ["a", "b"]))
    m.variables.append(ProcessModelVariable("B", CONTROLLER, "B", ["a", "b", "c"]))
    m.ucas.extend(ucas)
    return m


def test_foreign_variable_after_an_out_of_domain_value_is_never_met():
    m = two_var_model(uca("U-1", {"A": "z", "X": "a"}), uca("U-2", {"B": "c"}))
    table = build_context_table(m, CONTROLLER, ACTION)
    assert [row.ucas_for(GuideCategory.NOT_PROVIDED) for row in table.rows] == [[], [], ["U-2"]] * 2
    assert outcome(build_context_table, m) == outcome(analysis_oracle.build_context_table, m)


def test_foreign_variable_met_first_in_row_major_order():
    # U-1 meets X only on rows with B = "c" (row 2), U-2 meets W on row 0
    m = two_var_model(uca("U-1", {"B": "c", "X": "a"}), uca("U-2", {"W": "a"}))
    assert outcome(build_context_table, m) == "foreign variable: W"
    assert outcome(analysis_oracle.build_context_table, m) == "foreign variable: W"
    # on the same row the earlier UCA wins
    m = two_var_model(uca("U-1", {"A": "a", "X": "a"}), uca("U-2", {"W": "a"}))
    assert outcome(build_context_table, m) == "foreign variable: X"


def test_empty_domain_meets_no_foreign_variable():
    m = two_var_model(uca("U-1", {"X": "a"}))
    m.variables[1].values = []
    table = build_context_table(m, CONTROLLER, ACTION)
    assert table.rows == []


def test_repeated_value_marks_every_row_holding_it():
    m = two_var_model(uca("U-1", {"B": "a"}))
    m.variables[1].values = ["a", "b", "a"]
    table = build_context_table(m, CONTROLLER, ACTION)
    marked = [row.context.assignments for row in table.rows if row.ucas_for(GuideCategory.NOT_PROVIDED)]
    assert marked == [{"A": "a", "B": "a"}] * 2 + [{"A": "b", "B": "a"}] * 2


def test_row_guard_comes_before_the_duplicate_id_error():
    m = two_var_model()
    m.variables[1].id = "A"
    with pytest.raises(AnalysisError, match=r"would have 6 rows \(limit 5\)"):
        build_context_table(m, CONTROLLER, ACTION, max_rows=5)
    with pytest.raises(AnalysisError, match="duplicate variable id A"):
        build_context_table(m, CONTROLLER, ACTION, max_rows=6)


def test_corpus_table_equals_oracle(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    expected = analysis_oracle.build_context_table(corpus, "Operator", "BrakeCmd")
    assert (table.controller, table.action, table.variables) == expected[:3]
    assert row_lists(table) == expected.hits
    assert [list(m.items()) for m in table.marks] == [list(m.items()) for m in expected.marks]


def test_generated_model_csv_equals_oracle():
    m = planner_model()
    table = build_context_table(m, "Planner", "Plan")
    expected = analysis_oracle.build_context_table(m, "Planner", "Plan")
    assert len(table.rows) == 2**11
    assert (table.controller, table.action, table.variables) == expected[:3]
    assert row_lists(table) == expected.hits
    assert [list(m.items()) for m in table.marks] == [list(m.items()) for m in expected.marks]
    assert render_context_csv(table) == analysis_oracle.render_context_csv(expected)


def test_masks_wider_than_a_machine_word_equal_the_oracle():
    """70 UCAs on one action, so 69 hits: repeated values, an out-of-domain value, an id to quote, every category."""
    m = StpaModel()
    for var_id, values in (("A", ["a", "b", "a", "c"]), ("B", ["x", "y", "z"]), ("C", ["p", "q"]), ("D", ["m", "n"])):
        m.variables.append(ProcessModelVariable(var_id, CONTROLLER, var_id, values))
    categories = list(GuideCategory)
    for i in range(70):
        context = {"A": "abc"[i % 3], "B": "xyz"[i // 3 % 3], "C": "pq"[i % 2], "D": "mn"[i // 7 % 2]}
        context = {var: value for j, (var, value) in enumerate(context.items()) if i >> j & 1 or i % 11 == j}
        if i == 13:
            context["B"] = "w"  # in no domain: U-13 marks no row
        uid = 'U-40,"quoted"' if i == 40 else f"U-{i}"
        m.ucas.append(uca(uid, context, categories[i % len(categories)]))
    table = build_context_table(m, CONTROLLER, ACTION)
    expected = analysis_oracle.build_context_table(m, CONTROLLER, ACTION)
    assert len(table.hits) == 69
    assert outcome(build_context_table, m) == outcome(analysis_oracle.build_context_table, m)
    assert render_context_csv(table) == analysis_oracle.render_context_csv(expected)
    assert 'U-40,""quoted""' in render_context_csv(table)
    for category in GuideCategory:
        assert coverage_gaps(table, category) == analysis_oracle.coverage_gaps(expected, category)


@pytest.mark.parametrize("shape", ["one UCA per row", "more than 64 UCAs on one row"])
def test_tables_with_many_hits_per_action_equal_the_oracle(shape):
    """More than 64 hits: the CSV numbers them per group of rows, down to single rows if a row has more."""
    m = StpaModel()
    categories = list(GuideCategory)
    if shape == "one UCA per row":  # 7 binary variables, their 128 rows in another order, and some partial UCAs
        for j in range(7):
            m.variables.append(ProcessModelVariable(f"V-{j}", CONTROLLER, f"V-{j}", ["off", "on"]))
        for i in range(128):
            row = i * 37 % 128
            context = {f"V-{j}": "on" if row >> (6 - j) & 1 else "off" for j in range(7)}
            m.ucas.append(uca(f"U-{row}", context, categories[i % 4]))
        for i, context in enumerate([{}, {"V-3": "on"}, {"V-0": "off", "V-6": "on"}, {"V-6": "off"}]):
            m.ucas.append(uca(f"P-{i}", context, categories[i]))
    else:  # a repeated value, an id to quote, every category
        m.variables.append(ProcessModelVariable("A", CONTROLLER, "A", ["a", "b", "a"]))
        m.variables.append(ProcessModelVariable("B", CONTROLLER, "B", ["x", "y"]))
        for i in range(70):
            context = [{}, {"A": "a"}, {"B": "y"}, {"A": "a", "B": "y"}][i % 4]  # 70 hits on rows (a, y)
            m.ucas.append(uca('U,"1"' if i == 1 else f"U-{i}", context, categories[i // 4 % 4]))
    table = build_context_table(m, CONTROLLER, ACTION)
    expected = analysis_oracle.build_context_table(m, CONTROLLER, ACTION)
    assert len(table.hits) > 64
    assert outcome(build_context_table, m) == outcome(analysis_oracle.build_context_table, m)
    assert render_context_csv(table) == analysis_oracle.render_context_csv(expected)
    for category in GuideCategory:
        assert coverage_gaps(table, category) == analysis_oracle.coverage_gaps(expected, category)
