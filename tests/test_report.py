import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from stpalint import StpaModel, build_context_table, checklist, stats
from stpalint.analysis import ContextTable
from stpalint.model import GuideCategory, GuideWord, ProcessModelVariable, UnsafeControlAction
from stpalint.report import (
    render_checklist,
    render_context_csv,
    render_graph,
    render_json,
    render_stats,
    render_trace_matrix,
    render_worksheet,
    to_json,
)

import report_oracle
import strategies
from conftest import GOLDEN_DIR, tiny_model
from dot_check import check_dot


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


# -- worksheet ----------------------------------------------------------------


def test_worksheet_golden(corpus):
    assert render_worksheet(corpus, "BrakeCmd") == golden("worksheet_brake.md")


def test_worksheet_column_headers(corpus):
    text = render_worksheet(corpus, "BrakeCmd")
    header = next(line for line in text.splitlines() if line.startswith("|"))
    assert header == (
        "| Not providing causes hazards | Providing causes hazards "
        "| Too early, too late, out of order | Stopped too soon, applied too long |"
    )


def test_worksheet_cites_ucas_with_hazards(corpus):
    text = render_worksheet(corpus, "BrakeCmd")
    assert "UCA-3:" in text and "[H-4, H-2]" in text


def test_worksheet_without_ucas_has_placeholder(corpus):
    text = render_worksheet(corpus, "ChangeSWA")
    assert "_No unsafe control actions declared for this action._" in text


def test_worksheet_escapes_pipes_and_newlines():
    m = tiny_model()
    m.ucas[0].description = "a|b\nc"
    text = render_worksheet(m, "AC-1")
    assert "a\\|b c" in text


# the line endings of CommonMark, and a `|` that no backslash escapes
_MD_LINE_END = re.compile(r"\r\n|\r|\n")
_UNESCAPED_PIPE = re.compile(r"(?<!\\)\|")
_hostile = st.text(alphabet="ab |\r\n", max_size=8)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_markdown_keeps_each_worksheet_row_and_checklist_item_on_one_line(data):
    m = tiny_model()
    for entity in m.entities:
        entity.label = data.draw(_hostile)
    m.edges[0].label = data.draw(_hostile)
    uca = m.ucas[0]
    uca.description = data.draw(_hostile)
    for i in range(data.draw(st.integers(0, 3))):
        category = data.draw(st.sampled_from(list(GuideCategory)))
        description = data.draw(_hostile)
        m.ucas.append(
            UnsafeControlAction(f"UCA-{i + 2}", "AC-1", "C-1", GuideWord(category), uca.context, ["H-1"], description)
        )

    lines = _MD_LINE_END.split(render_worksheet(m, "AC-1"))
    depth = max(sum(u.guide.category is category for u in m.ucas) for category in GuideCategory)
    assert lines[0].startswith("# Unsafe control actions: ") and lines[1] == ""
    rows = lines[2:-1]
    assert len(rows) == depth + 2 and lines[-1] == ""
    assert all(len(_UNESCAPED_PIPE.findall(row)) == 5 for row in rows), rows

    items = checklist(m, uca)
    lines = _MD_LINE_END.split(render_checklist(items, uca.id))
    assert lines[2:-1] == [line for line in lines if line.startswith("- **")]
    assert len(lines) == len(items) + 3


# -- context table CSV --------------------------------------------------------


def test_context_csv_golden(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    assert render_context_csv(table) == golden("contexts_brake.csv")


def test_context_csv_shape(corpus):
    table = build_context_table(corpus, "Operator", "BrakeCmd")
    lines = render_context_csv(table).splitlines()
    assert len(lines) == 65
    assert lines[0].startswith("Vehicle motion,")
    assert lines[0].endswith("NotProvided,ProvidedUnsafe,WrongTiming,WrongDuration")


def test_context_csv_quotes_per_rfc4180():
    table = ContextTable(
        "C-1",
        "AC-1",
        [ProcessModelVariable("V-1", "C-1", 'tricky, "label"', ["a,b", "c"])],
        [(GuideCategory.NOT_PROVIDED, "UCA-1", [0]), (GuideCategory.NOT_PROVIDED, "UCA-2", [0])],
    )
    text = render_context_csv(table)
    assert text.splitlines()[0].startswith('"tricky, ""label"""')
    assert text.splitlines()[1] == '"a,b",UCA-1 UCA-2,,,'


# -- trace matrices -----------------------------------------------------------


def test_trace_matrix_golden(corpus):
    assert render_trace_matrix(corpus) == golden("trace_matrix.md")


def test_trace_matrix_sections(corpus):
    text = render_trace_matrix(corpus)
    assert "## Hazards to losses" in text
    assert "## Hazards to unsafe control actions" in text
    assert "## Unsafe control actions to causal factors" in text
    assert "## Hazards to constraints" in text


def test_trace_matrix_marks(corpus):
    text = render_trace_matrix(corpus)
    hazard_rows = [line for line in text.splitlines() if line.startswith("| H-1 |")]
    # H-1 leads to both losses
    assert hazard_rows[0] == "| H-1 | x | x |"


@settings(max_examples=300, deadline=None)
@given(st.one_of(strategies.models(), strategies.control_structures(), strategies.hostile_models()))
def test_trace_matrix_matches_the_cell_by_cell_oracle(model):
    assert render_trace_matrix(model) == report_oracle.render_trace_matrix(model)


def test_trace_matrix_matches_the_oracle_on_repeated_and_dangling_ids(corpus):
    m = StpaModel(**{name: list(getattr(corpus, name)) for name in StpaModel.__slots__})
    for section in ("losses", "hazards", "ucas", "causal_factors", "constraints"):
        decls = getattr(m, section)
        decls.insert(1, strategies.replace(decls[0]))  # the first id declared again
        decls.append(strategies.replace(decls[-1], id=decls[0].id))  # and last with another's links
    m.hazards[0] = strategies.replace(m.hazards[0], leads_to=["L-9", *m.hazards[0].leads_to, "L-9"])
    m.hazards[-1] = strategies.replace(m.hazards[-1], leads_to=["L-2", "L-9", "L-2"])
    m.ucas[-1] = strategies.replace(m.ucas[-1], hazards=["H-9", m.ucas[-1].hazards[0]])
    m.causal_factors[-1] = strategies.replace(m.causal_factors[-1], ucas=["UCA-99", "UCA-1", "UCA-1"])
    m.constraints[-1] = strategies.replace(m.constraints[-1], mitigates=["H-9"])
    assert render_trace_matrix(m) == report_oracle.render_trace_matrix(m)


# -- graph --------------------------------------------------------------------


def test_graph_golden(corpus):
    assert render_graph(corpus) == golden("graph.dot")


def test_graph_is_well_formed(corpus):
    assert check_dot(render_graph(corpus)) == []


def test_graph_node_styles(corpus):
    text = render_graph(corpus)
    assert '"Operator" [label="Operator", shape=box];' in text
    assert '"Camera" [label="Camera", shape=box, style=rounded];' in text
    assert '"Environment" [label="Environment", shape=box, style=dashed];' in text


def test_graph_splits_edges_at_via_nodes(corpus):
    text = render_graph(corpus)
    assert '"Environment" -> "Camera"' in text
    assert '"Camera" -> "Encoder"' in text
    # feedback edges are dashed, control edges solid
    assert '"Operator" -> "Brakep" [style=solid' in text
    assert '"Display" -> "Operator" [style=dashed];' in text


def test_check_dot_catches_unbalanced_braces():
    assert check_dot("digraph g {") == ["unbalanced braces"]


def test_check_dot_catches_undeclared_nodes():
    text = 'digraph g {\n  "a" [shape=box];\n  "a" -> "b" [style=solid];\n}\n'
    assert check_dot(text) == ["edge references undeclared node 'b'"]


def test_graph_empty_model_is_still_well_formed():
    text = render_graph(StpaModel())
    assert check_dot(text) == []
    assert text.startswith("digraph control_structure {")


# -- JSON ---------------------------------------------------------------------


def test_json_schema_field(corpus):
    payload = json.loads(render_json(corpus))
    assert payload["stpa_schema"] == 1


def test_json_mirrors_model(corpus):
    payload = json.loads(render_json(corpus))
    assert len(payload["ucas"]) == 17
    uca3 = next(u for u in payload["ucas"] if u["id"] == "UCA-3")
    assert uca3["hazards"] == ["H-4", "H-2"]
    assert uca3["guide"] == {"category": "NotProvided", "qualifier": None}
    uca7 = next(u for u in payload["ucas"] if u["id"] == "UCA-7")
    assert uca7["guide"]["qualifier"] == "InsufficientOrExcessive"
    assert payload["variables"][0]["values"] == ["Stopped", "Moving"]


def test_json_is_parseable_and_deterministic(corpus):
    assert render_json(corpus) == render_json(corpus)
    json.loads(render_json(corpus))


# -- stats --------------------------------------------------------------------


def test_render_stats_lines(corpus):
    text = render_stats(corpus)
    assert "- unsafe control actions: 17" in text
    assert "- causal factors: 30" in text
    assert "- BrakeCmd: NotProvided=4, ProvidedUnsafe=6, WrongTiming=4, WrongDuration=3" in text


def test_stats_golden(corpus):
    assert render_stats(corpus) == golden("stats.md")


def test_stats_json_has_schema(corpus):
    payload = json.loads(to_json(stats(corpus)))
    assert payload["stpa_schema"] == 1
    assert payload["ucas"] == 17
