"""Reference renderers for the traceability matrices and the worksheet.

`_matrix` and `render_trace_matrix` are the original ones: one lambda call
and one list-membership test per cell, against lookup dicts that keep the
last declaration of each id. They serve only as the oracle that
`stpalint.report.render_trace_matrix`, which builds each row from its links,
is compared with.

`render_worksheet` is the original one too: it writes the table row by row,
indexing each column by depth. It is the oracle for
`stpalint.report.render_worksheet`, which zips its columns.

`_converter` and `_plain` are the original JSON conversion: a plain-dict
copy of a value, which `to_json` hands to `json.dumps`. They are the oracle
for `stpalint.jsondoc`, which writes the same text from the records in one
pass.
"""

from __future__ import annotations

import json
from enum import Enum
from operator import attrgetter

from stpalint.model import Context, GuideCategory, Record, StpaModel
from stpalint.report import WORKSHEET_COLUMNS, _md_escape, _md_row


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


def render_worksheet(model: StpaModel, action: str) -> str:
    """Four-column guide-word worksheet for one control action, Markdown."""
    edge = {d.id: d for d in model.edges}.get(action)
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


def to_json(value) -> str:
    """The `--format json` document of `value` as `json.dumps` writes the plain copy."""
    return json.dumps({"stpa_schema": 1, **_plain(value)}, ensure_ascii=False, indent=2) + "\n"
