"""Canonical text output for STPA models.

`serialize` is the inverse of `parse` up to source spans: parsing the
emitted text yields an equal model. Formatting is fixed (one statement per
line, LF line endings) so output is diff-stable and `fmt` is idempotent.

Each declaration is written from its keyword's row of `parser.STATEMENTS`,
the same slots the parser reads; this module adds only how each slot shape
is spelled.
"""

from __future__ import annotations

from operator import attrgetter

from .model import _KINDS, Diagnostic, StpaModel, resolve
from .parser import ABSENT, STATEMENTS, Statement, quote

HEADER = "# stpa model (canonical format)"


class UnresolvedModelError(ValueError):
    """Raised when asked to serialize a model that does not resolve cleanly."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__(f"model does not resolve: {len(diagnostics)} diagnostic(s)")
        self.diagnostics = diagnostics


# slot shape -> the text of a slot's value
_WRITE = {
    "id": str,
    "string": quote,
    "ids": lambda ids: "[" + ", ".join(ids) + "]",
    "strings": lambda items: "[" + ", ".join(map(quote, items)) + "]",
    "values": lambda items: "{" + ", ".join(map(quote, items)) + "}",
    "category": attrgetter("value"),
    "guide": lambda guide: guide.category.value + (f" qualifier = {guide.qualifier.value}" if guide.qualifier else ""),
    "context": lambda context: "{ " + " ".join(f"{k} = {quote(v)}" for k, v in context.assignments.items()) + " }",
}


def _optional(keyword: str, write, absent):
    return lambda value: "" if value == absent else f" {keyword} {write(value)}"


def _line_writer(keyword: str, row: Statement):
    """A function that writes one declaration of `row` as one line.

    Literal words go into a format template once; each field slot adds a
    hole and the function that spells its value.
    """
    template = keyword
    fields = []
    for slot in row.slots:
        if slot.__class__ is str:
            template += " " + slot
            continue
        write = _WRITE[slot.shape]
        if slot.keyword is None:
            template += " {}"
        else:
            template += "{}"
            write = _optional(slot.keyword, write, ABSENT[slot.shape]())
        fields.append((attrgetter(slot.name), write))
    return lambda decl: template.format(*[write(get(decl)) for get, write in fields])


# (record class, fixed `kind` or None) -> its row's line writer; entities and edges have one row per kind
_LINES = {(row.cls, row.fixed.get("kind")): _line_writer(keyword, row) for keyword, row in STATEMENTS.items()}


def _render(sections: dict[str, list]) -> str:
    """The text of the declarations that `sections` lists under each `StpaModel` section name."""
    lines = [HEADER]
    for section in _KINDS:
        decls = sections.get(section)
        if decls:
            lines.append("")
            lines.extend(_LINES[d.__class__, getattr(d, "kind", None)](d) for d in decls)
    return "\n".join(lines) + "\n"


def serialize(model: StpaModel, *, check: bool = True) -> str:
    """Render the whole model as canonical `.stpa` text.

    Declaration order is preserved within each statement kind. Refuses
    models that do not resolve unless `check` is disabled.
    """
    if check:
        diags = resolve(model)
        if diags:
            raise UnresolvedModelError(diags)
    return _render({section: getattr(model, section) for section in _KINDS})


def serialize_files(model: StpaModel, paths: list[str]) -> dict[str, str]:
    """Render each of `paths` from the declarations whose source span names it.

    The model is read once for all the files; `fmt` rewrites each input file
    in place with its text.
    """
    files: dict[str, dict[str, list]] = {path: {} for path in paths}
    for section in _KINDS:
        for decl in getattr(model, section):
            if decl.span is not None and (sections := files.get(decl.span.file)) is not None:
                sections.setdefault(section, []).append(decl)
    return {path: _render(sections) for path, sections in files.items()}


def serialize_file(model: StpaModel, path: str) -> str:
    """Render only the declarations whose source span names `path`."""
    return serialize_files(model, [path])[path]
