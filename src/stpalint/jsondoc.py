"""`--format json` documents in one pass from the records, without `json`: the text of `json.dumps({"stpa_schema":
1, **fields}, ensure_ascii=False, indent=2)` and a line end. README "JSON output" gives the fields and the escaping."""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from operator import attrgetter

from .model import Context, Record

SCHEMA_VERSION = 1

# json's escapes with ensure_ascii=False: `"`, `\` and each C0 control character
_ESCAPES = {i: f"\\u{i:04x}" for i in range(32)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf')})
_printable = str.isprintable  # TypeError for a key that is not a str, as `json` raises


def quote(text: str) -> str:
    """`text` as a JSON string; only text with a `"`, a `\\` or a character that is not printable is translated."""
    if not _printable(text) or '"' in text or "\\" in text:
        text = text.translate(_ESCAPES)
    return '"' + text + '"'


def _head(keys, indent: str) -> tuple[str, list[str], str]:
    """The indentation inside an object with `keys`, the text before each of its values, and its closing text."""
    inner = indent + "  "
    starts = [("," if i else "{") + inner + quote(key) + ": " for i, key in enumerate(keys)]
    return inner, starts, indent + "}" if starts else "{}"


def _members(out: list[str], head: tuple[str, list[str], str], values) -> None:
    """Append the object of `values` to `out`, laid out by its `_head`."""
    inner, starts, close = head
    for start, v in zip(starts, values):
        if v.__class__ is str:
            out.append(start + quote(v))
        else:
            out.append(start)
            (_WRITERS.get(v.__class__) or _writer(v.__class__))(v, out, inner)
    out.append(close)


def _write_list(value: list, out: list[str], indent: str) -> None:
    inner = indent + "  "
    sep = "[" + inner
    for v in value:
        out.append(sep)
        (_WRITERS.get(v.__class__) or _writer(v.__class__))(v, out, inner)
        sep = "," + inner
    out.append(indent + "]" if value else "[]")


def _fields(cls: type):
    """A record's or `NamedTuple`'s field names, `span` left out and derived properties last, and a getter of
    their values; None for another class."""
    names = cls.__slots__ if issubclass(cls, Record) else getattr(cls, "_fields", None)
    if names is not None:
        names = [*(n for n in names if n != "span"), *(n for n, a in vars(cls).items() if isinstance(a, property))]
        return names, attrgetter(*names) if len(names) > 1 else lambda value: tuple(getattr(value, n) for n in names)


def _writer(cls: type):
    """The writer of a value of class `cls`, made on first use, or TypeError: `writer(value, out, indent)` appends
    the text of `value` to `out`, with `indent` the line end and indentation of its line."""
    if issubclass(cls, Enum):
        writer = lambda value, out, indent: out.append(quote(value._value_))
    elif issubclass(cls, bool):
        writer = lambda value, out, indent: out.append("true" if value else "false")
    elif issubclass(cls, (str, int)):
        text = quote if issubclass(cls, str) else int.__repr__
        writer = lambda value, out, indent: out.append(text(value))
    elif issubclass(cls, list):
        writer = _write_list
    elif issubclass(cls, (dict, Context)):
        items = (lambda value: value) if issubclass(cls, dict) else attrgetter("assignments")
        writer = lambda value, out, indent: _members(out, _head(items(value), indent), items(value).values())
    elif (fields := _fields(cls)) is not None:
        (names, get), heads = fields, {}
        writer = lambda value, out, indent: _members(
            out, heads.get(indent) or heads.setdefault(indent, _head(names, indent)), get(value)
        )
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    _WRITERS[cls] = writer
    return writer


_WRITERS = {type(None): lambda value, out, indent: out.append("null")}


def document(value: Record | dict) -> Iterator[str]:
    """The document of a record or a dict, in pieces: one per element of each top-level list, and the rest."""
    if isinstance(value, dict):
        keys, values = value, value.values()
    elif (fields := _fields(value.__class__)) is not None:
        keys, values = fields[0], fields[1](value)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not a JSON document")
    out = ['{\n  "stpa_schema": ' + str(SCHEMA_VERSION)]
    for key, v in zip(keys, values):
        out.append(",\n  " + quote(key) + ": ")
        if v.__class__ is not list or not v:
            (_WRITERS.get(v.__class__) or _writer(v.__class__))(v, out, "\n  ")
            continue
        for i, item in enumerate(v):
            out.append(",\n    " if i else "[\n    ")
            (_WRITERS.get(item.__class__) or _writer(item.__class__))(item, out, "\n    ")
            yield "".join(out)
            out = []
        out.append("\n  ]")
    out.append("\n}\n")
    yield "".join(out)
