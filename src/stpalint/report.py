"""Renderers: UCA worksheets, context-table CSV, traceability matrices, DOT graphs; `jsondoc` writes JSON.

Every renderer is a pure function of the model and byte-deterministic, so
all outputs are golden-file testable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import cache
from typing import TYPE_CHECKING

from .model import EdgeKind, EntityKind, GuideCategory, ModelIndex, StpaModel, indexed

if TYPE_CHECKING:  # `graph`, `worksheet` and `trace` load neither module
    from .analysis import ContextTable
    from .causal import ChecklistItem

WORKSHEET_COLUMNS = [
    (GuideCategory.NOT_PROVIDED, "Not providing causes hazards"),
    (GuideCategory.PROVIDED_UNSAFE, "Providing causes hazards"),
    (GuideCategory.WRONG_TIMING, "Too early, too late, out of order"),
    (GuideCategory.WRONG_DURATION, "Stopped too soon, applied too long"),
]


def _md_row(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _md_table(header: list[str], rows: Iterable[list[str]]) -> list[str]:
    """The lines of a Markdown table: `header`, its `---` separator, then one line per row of cells."""
    return [_md_row(header), _md_row(["---"] * len(header)), *map(_md_row, rows)]


def _md_escape(text: str) -> str:
    """`text` on one Markdown line: each CommonMark line ending becomes a space, and `|` is escaped."""
    return text.replace("|", "\\|").replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def render_worksheet(model: StpaModel | ModelIndex, action: str) -> str:
    """Four-column guide-word worksheet for one control action, Markdown."""
    index = indexed(model)
    edge = index.ids["edges"].get(action)
    title = edge.label if edge is not None else action
    columns: dict[GuideCategory, list[str]] = {cat: [] for cat, _ in WORKSHEET_COLUMNS}
    for uca in index.model.ucas_on(action):
        columns[uca.guide.category].append(_md_escape(f"{uca.id}: {uca.description} [{', '.join(uca.hazards)}]"))
    lines = [_md_escape(f"# Unsafe control actions: {title} ({action})"), ""]
    if any(columns.values()):
        headers = [header for _, header in WORKSHEET_COLUMNS]
        lines += _md_table(headers, itertools.zip_longest(*columns.values(), fillvalue=""))
    else:
        lines.append("_No unsafe control actions declared for this action._")
    lines.append("")
    return "\n".join(lines)


_COLUMN = {cat: i for i, (cat, _) in enumerate(WORKSHEET_COLUMNS)}


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


_BITS = bytes.maketrans(b"01", b"\0\1")  # a mask's binary digits as compress selectors


def _product(columns: list[list], first, combine) -> list:
    """Per combination of one item of each column, in row order: `first` combined with them in turn."""
    out = [first]
    for column in columns:
        out = [combine(a, b) for a in out for b in column]
    return out


def context_csv_lines(table: ContextTable) -> Iterator[str]:
    """Context table as CSV: the header line, then one string per leading combination's lines.

    The rows split into groups by their first variables' values, fine enough
    that at most 64 hits allow a group's values (or at single rows); in a
    group such a hit is one bit of a row's mask, and each distinct mask gets
    its cells once. A hit outside the table raises `ValueError` before the
    first line. README "Cost of `contexts`" gives the steps.
    """
    variables, hits = table.variables, table.hits
    total = table.checked_size()
    header = ",".join(map(_quote, [v.label for v in variables] + [cat.value for cat, _ in WORKSHEET_COLUMNS])) + "\n"
    groups, g = [("", hits)], 0  # (quoted values of the first g variables, the hits alive there)
    while g < len(variables) and max((len(alive) for _, alive in groups), default=0) > 64:
        groups = [
            (text + _quote(value) + ",", [hit for hit in alive if (a := hit[2][g]) is None or p in a])
            for text, alive in groups
            for p, value in enumerate(variables[g].values)
        ]
        g += 1
    split, lead = 0, 1
    while split < g or lead * lead < total:
        lead *= len(variables[split].values)
        split += 1
    quoted = [[_quote(value) + "," for value in var.values] for var in variables]
    texts = (_product(quoted[g:split], "", str.__add__), _product(quoted[split:], "", str.__add__))
    blocks = (_group_lines(variables, g, split, text, alive, *texts) for text, alive in groups)
    return itertools.chain([header], itertools.chain.from_iterable(blocks))


def _group_lines(variables, g, split, text, alive, lead_texts, trail_texts) -> Iterator[str]:
    """One group's lines, one string per leading combination: group, leading and trailing values, then cells."""
    masks = [[0] * len(var.values) for var in variables[g:]]
    column_masks = [0] * len(WORKSHEET_COLUMNS)
    for j, (category, _, positions) in enumerate(alive):
        bit = 1 << j
        column_masks[_COLUMN[category]] |= bit
        for column, allowed in zip(masks, positions[g:]):
            for p in range(len(column)) if allowed is None else allowed:
                column[p] |= bit
    full = (1 << len(alive)) - 1
    lead_masks = _product(masks[: split - g], full, int.__and__)
    trail_masks = _product(masks[split - g :], full, int.__and__)
    row_masks = [list(map(mask.__and__, trail_masks)) for mask in lead_masks]
    distinct = list(set().union(*row_masks))
    ids = [uca_id for _, uca_id, _ in alive]
    columns = []
    for column_mask in column_masks:
        subs = list(map(column_mask.__and__, distinct))
        # one cell per distinct sub-mask: the ids of its set bits, lowest bit first
        bits = {sub: f"{sub:b}"[::-1].encode().translate(_BITS) for sub in set(subs)}
        cell = {sub: _quote(" ".join(itertools.compress(ids, selectors))) for sub, selectors in bits.items()}
        columns.append(map(cell.__getitem__, subs))
    cells = dict(zip(distinct, map(",".join, zip(*columns))))
    newline = itertools.repeat("\n")
    for lead, block in zip(lead_texts, row_masks):
        lines = zip(itertools.repeat(text + lead), trail_texts, map(cells.__getitem__, block), newline)
        yield "".join(itertools.chain.from_iterable(lines))


def render_context_csv(table: ContextTable) -> str:
    """The text of `context_csv_lines`."""
    return "".join(context_csv_lines(table))


def _matrix(title: str, row_ids: list[str], col_ids: list[str], links: Iterable[tuple[str, str]]) -> Iterator[str]:
    """One Markdown matrix after a blank line, a string per line with its line end: an `x` in each cell whose
    (row id, column id) pair `links` yields."""
    columns: dict[str, list[int]] = {}
    for j, col_id in enumerate(col_ids, 1):  # cell 0 of a row holds its id
        columns.setdefault(col_id, []).append(j)
    positions: dict[str, list[int]] = {row_id: [] for row_id in row_ids}
    for row_id, col_id in links:
        if row_id in positions:
            positions[row_id] += columns.get(col_id, ())
    blank = [""] * len(col_ids)
    yield f"\n## {title}\n\n" + "".join(f"{line}\n" for line in _md_table(["", *col_ids], []))
    for row_id in row_ids:
        cells = [row_id, *blank]
        for j in positions[row_id]:
            cells[j] = "x"
        yield _md_row(cells) + "\n"


def trace_matrix_lines(model: StpaModel | ModelIndex) -> Iterator[str]:
    """Markdown traceability matrices across all four analysis steps, a string per line with its line end.

    A repeated id links as its last declaration does. The cost is one step
    per link plus one per cell written; one row is held at a time.
    """
    index = indexed(model)
    model, ids = index.model, index.ids
    hazard_ids, uca_ids = [hz.id for hz in model.hazards], [u.id for u in model.ucas]

    def cited(section: str, field: str) -> Iterator[tuple[str, str]]:
        """(id named in `field`, declaration id) per link of each last declaration of `section`."""
        return ((i, d.id) for d in ids[section].values() for i in getattr(d, field))

    yield "# Traceability\n"
    for title, row_ids, section, links in (
        ("Hazards to losses", hazard_ids, "losses", ((h.id, i) for h in ids["hazards"].values() for i in h.leads_to)),
        ("Hazards to unsafe control actions", hazard_ids, "ucas", cited("ucas", "hazards")),
        ("Unsafe control actions to causal factors", uca_ids, "causal_factors", cited("causal_factors", "ucas")),
        ("Hazards to constraints", hazard_ids, "constraints", cited("constraints", "mitigates")),
    ):
        yield from _matrix(title, row_ids, [d.id for d in getattr(model, section)], links)


def render_trace_matrix(model: StpaModel | ModelIndex) -> str:
    """The text of `trace_matrix_lines`."""
    return "".join(trace_matrix_lines(model))


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


def to_json(value) -> str:
    """The text of a `--format json` document: the schema version, then the fields of `value` (`jsondoc`)."""
    from .jsondoc import document

    return "".join(document(value))


def render_json(model: StpaModel) -> str:
    """The `trace --format json` document; `bench/layers.py` times it by this name."""
    return to_json(model)


def render_checklist(items: list[ChecklistItem], uca_id: str) -> str:
    lines = [f"# Causal-factor checklist for {uca_id}", ""]
    for item in items:
        lines.append(f"- **{item.category.value}** at `{item.located_at}`: {_md_escape(item.prompt)}")
    lines.append("")
    return "\n".join(lines)


def render_stats(model: StpaModel) -> str:
    from .analysis import _COUNTS, stats

    s = stats(model)
    lines = ["# Model summary", ""]
    for name in _COUNTS:
        label = "unsafe control actions" if name == "ucas" else name.replace("_", " ")
        lines.append(f"- {label}: {getattr(s, name)}")
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

