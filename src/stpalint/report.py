"""Renderers: UCA worksheets, context-table CSV, traceability matrices, DOT graphs, JSON.

Every renderer is a pure function of the model and byte-deterministic, so
all outputs are golden-file testable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from enum import Enum
from functools import cache
from operator import attrgetter
from typing import TYPE_CHECKING

from .model import Context, EdgeKind, EntityKind, GuideCategory, Record, StpaModel

if TYPE_CHECKING:  # `graph`, `worksheet` and `trace` load neither module
    from .analysis import ContextTable, ModelStats
    from .causal import ChecklistItem

SCHEMA_VERSION = 1

WORKSHEET_COLUMNS = [
    (GuideCategory.NOT_PROVIDED, "Not providing causes hazards"),
    (GuideCategory.PROVIDED_UNSAFE, "Providing causes hazards"),
    (GuideCategory.WRONG_TIMING, "Too early, too late, out of order"),
    (GuideCategory.WRONG_DURATION, "Stopped too soon, applied too long"),
]


def _md_row(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _md_escape(text: str) -> str:
    """`text` on one Markdown line: each CommonMark line ending becomes a space, and `|` is escaped."""
    return text.replace("|", "\\|").replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def render_worksheet(model: StpaModel, action: str) -> str:
    """Four-column guide-word worksheet for one control action, Markdown."""
    edge = model.edge_ids().get(action)
    title = edge.label if edge is not None else action
    columns: dict[GuideCategory, list[str]] = {cat: [] for cat, _ in WORKSHEET_COLUMNS}
    for uca in model.ucas_on(action):
        hazard_list = "[" + ", ".join(uca.hazards) + "]"
        columns[uca.guide.category].append(
            _md_escape(f"{uca.id}: {uca.description} {hazard_list}")
        )
    lines = [_md_escape(f"# Unsafe control actions: {title} ({action})"), ""]
    if not any(columns.values()):
        lines.append("_No unsafe control actions declared for this action._")
        lines.append("")
        depth = 0
    else:
        depth = max(len(cells) for cells in columns.values())
    if depth:
        lines.append(_md_row([header for _, header in WORKSHEET_COLUMNS]))
        lines.append(_md_row(["---"] * len(WORKSHEET_COLUMNS)))
        for i in range(depth):
            row = []
            for cat, _ in WORKSHEET_COLUMNS:
                cells = columns[cat]
                row.append(cells[i] if i < len(cells) else "")
            lines.append(_md_row(row))
        lines.append("")
    return "\n".join(lines)


# keyed by member name, so no hit calls the Python-level `Enum.__hash__`
_COLUMN = {cat._name_: i for i, (cat, _) in enumerate(WORKSHEET_COLUMNS)}


@cache
def _csv_specials() -> str:
    """The characters that make `csv.writer` quote a field.

    Whether a lone "\r" is one of them has changed between Python versions,
    so the writer is asked, on first use: only `contexts` loads `csv`.
    """
    import csv
    import io

    return ',"\n\r' if csv.writer(io.StringIO(), lineterminator="\n").writerow(["\r"]) > 2 else ',"\n'


def _quote(field: str) -> str:
    """`field` as `csv.writer` writes it with `QUOTE_MINIMAL`."""
    return '"' + field.replace('"', '""') + '"' if any(c in field for c in _csv_specials()) else field


def context_csv_lines(table: ContextTable) -> Iterator[str]:
    """Context table as CSV lines: variable columns, then one column per guide category.

    The cells are filled column by column from the hits; each line joins a
    product of the quoted domain values with its cells. A hit outside the
    table raises `ValueError` before the first line.
    """
    total = table.checked_size()
    columns: list[list] = [[None] * total for _ in WORKSHEET_COLUMNS]  # None: no id yet
    for category, uca_id, rows in table.hits:
        column = columns[_COLUMN[category._name_]]
        for i in rows:
            cell = column[i]
            column[i] = uca_id if cell is None else f"{cell} {uca_id}"
    columns = [[cell or "" for cell in column] for column in columns]
    if any(_quote(uca_id) != uca_id for _, uca_id, _ in table.hits):  # rare, so only then is every cell quoted
        columns = [list(map(_quote, column)) for column in columns]
    header = ",".join(map(_quote, [v.label for v in table.variables] + [cat.value for cat, _ in WORKSHEET_COLUMNS]))
    values = itertools.product(*([_quote(value) + "," for value in v.values] for v in table.variables))
    lines = map("{}{}\n".format, map("".join, values), map(",".join, zip(*columns)))
    return itertools.chain([header + "\n"], lines)


def render_context_csv(table: ContextTable) -> str:
    """The text of `context_csv_lines`."""
    return "".join(context_csv_lines(table))


def _matrix(title: str, row_ids: list[str], col_ids: list[str], linked) -> list[str]:
    lines = [f"## {title}", ""]
    lines.append(_md_row([""] + col_ids))
    lines.append(_md_row(["---"] * (len(col_ids) + 1)))
    for row_id in row_ids:
        cells = ["x" if linked(row_id, col_id) else "" for col_id in col_ids]
        lines.append(_md_row([row_id] + cells))
    lines.append("")
    return lines


def render_trace_matrix(model: StpaModel) -> str:
    """Markdown traceability matrices across all four analysis steps."""
    hazards = {hz.id: hz for hz in model.hazards}
    lines = ["# Traceability", ""]
    lines += _matrix(
        "Hazards to losses",
        [hz.id for hz in model.hazards],
        [loss.id for loss in model.losses],
        lambda h, l: l in hazards[h].leads_to,
    )
    uca_hazards = {u.id: u.hazards for u in model.ucas}
    lines += _matrix(
        "Hazards to unsafe control actions",
        [hz.id for hz in model.hazards],
        [u.id for u in model.ucas],
        lambda h, u: h in uca_hazards[u],
    )
    cf_ucas = {cf.id: cf.ucas for cf in model.causal_factors}
    lines += _matrix(
        "Unsafe control actions to causal factors",
        [u.id for u in model.ucas],
        [cf.id for cf in model.causal_factors],
        lambda u, c: u in cf_ucas[c],
    )
    constraint_hazards = {sc.id: sc.mitigates for sc in model.constraints}
    lines += _matrix(
        "Hazards to constraints",
        [hz.id for hz in model.hazards],
        [sc.id for sc in model.constraints],
        lambda h, s: h in constraint_hazards[s],
    )
    return "\n".join(lines)


_NODE_STYLE = {
    EntityKind.CONTROLLER: 'shape=box',
    EntityKind.SENSOR: 'shape=box, style=rounded',
    EntityKind.ACTUATOR: 'shape=box, style=rounded',
    EntityKind.CONTROLLED_PROCESS: 'shape=box',
    EntityKind.ENVIRONMENT: 'shape=box, style=dashed',
}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_graph(model: StpaModel) -> str:
    """Control structure as a DOT digraph; via elements become nodes on split edges."""
    lines = ["digraph control_structure {", "  rankdir=TB;"]
    for ent in model.entities:
        style = _NODE_STYLE[ent.kind]
        lines.append(f"  {_dot_quote(ent.id)} [label={_dot_quote(ent.label)}, {style}];")
    for edge in model.edges:
        style = "solid" if edge.kind is EdgeKind.CONTROL_ACTION else "dashed"
        chain = edge.chain()
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            attrs = [f"style={style}"]
            if i == 0 and edge.signals:
                attrs.append(f"label={_dot_quote(', '.join(edge.signals))}")
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _converter(cls: type):
    """The function `_plain` applies to a value of type `cls`; None for a value that stays as it is.

    A record class lists its fields in `__slots__`, a `NamedTuple` value
    type (whose `__slots__` is empty) in `_fields`.
    """
    if issubclass(cls, list):
        return lambda value: [_plain(v) for v in value]
    if issubclass(cls, dict):
        return lambda value: {k: _plain(v) for k, v in value.items()}
    if issubclass(cls, Enum):
        return attrgetter("_value_")
    if issubclass(cls, Context):
        return lambda value: dict(value.assignments)
    names = cls.__slots__ if issubclass(cls, Record) else getattr(cls, "_fields", None)
    if names is None:
        return None
    derived = [name for name, attr in vars(cls).items() if isinstance(attr, property)]
    fields = [(name, attrgetter(name)) for name in (*(name for name in names if name != "span"), *derived)]
    return lambda value: {name: _plain(get(value)) for name, get in fields}


# type -> its `_converter`: a dict lookup per value costs less than a `functools.cache` call
_CONVERTERS: dict[type, object] = {}


def _plain(value):
    """JSON-ready copy of a model value.

    Records become dicts field by field, without spans, followed by
    their derived properties; enums become their values and contexts their
    assignments. The conversion is looked up once per type.
    """
    cls = value.__class__
    try:
        convert = _CONVERTERS[cls]
    except KeyError:
        convert = _CONVERTERS[cls] = _converter(cls)
    return value if convert is None else convert(value)


def _document(payload: dict) -> dict:
    return {"stpa_schema": SCHEMA_VERSION, **payload}


def to_json(document: dict) -> str:
    """The text of a `--format json` document."""
    import json

    return json.dumps(document, ensure_ascii=False, indent=2) + "\n"


def model_to_dict(model: StpaModel) -> dict:
    """JSON-ready mirror of the model, field names one to one."""
    return _document(_plain(model))


def worksheet_to_dict(model: StpaModel, action: str) -> dict:
    return _document({"action": action, "ucas": _plain(model.ucas_on(action))})


def checklist_to_dict(items: list[ChecklistItem], uca_id: str) -> dict:
    return _document({"uca": uca_id, "items": _plain(items)})


def stats_to_dict(s: ModelStats) -> dict:
    return _document(_plain(s))


def render_json(model: StpaModel) -> str:
    return to_json(model_to_dict(model))


def render_checklist(items: list[ChecklistItem], uca_id: str) -> str:
    lines = [f"# Causal-factor checklist for {uca_id}", ""]
    for item in items:
        lines.append(f"- **{item.category.value}** at `{item.located_at}`: {_md_escape(item.prompt)}")
    lines.append("")
    return "\n".join(lines)


def render_stats(model: StpaModel) -> str:
    from .analysis import stats

    s = stats(model)
    lines = ["# Model summary", ""]
    lines.append(f"- losses: {s.losses}")
    lines.append(f"- hazards: {s.hazards}")
    lines.append(f"- constraints: {s.constraints}")
    lines.append(f"- edges: {s.edges}")
    lines.append(f"- variables: {s.variables}")
    lines.append(f"- unsafe control actions: {s.ucas}")
    lines.append(f"- causal factors: {s.causal_factors}")
    lines.append(f"- controller constraints: {s.controller_constraints}")
    for heading, counts in (
        ("Entities by kind", s.entities_by_kind),
        ("Unsafe control actions by action and guide category", s.ucas_by_action_guide),
        ("Unsafe control actions per hazard", s.ucas_per_hazard),
        ("Causal factors by category", s.cfs_by_category),
    ):
        if counts:
            lines += ["", f"## {heading}", ""]
            for key, count in counts.items():
                if isinstance(count, dict):
                    count = ", ".join(f"{k}={v}" for k, v in count.items())
                lines.append(f"- {key}: {count}")
    lines.append("")
    return "\n".join(lines)

