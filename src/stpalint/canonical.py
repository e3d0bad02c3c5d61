"""The fast path of `parser`: a statement line as `printer` writes it, read by one pattern per keyword.

`parser` imports this module only for an input large enough to pay for compiling it (`parser.FAST_LINES`).
"""

from __future__ import annotations

import re
from functools import cache

from .model import CfCategory, Context, GuideCategory, GuideQualifier, GuideWord, SourceSpan
from .parser import _MEMBERS, _STEPS, ABSENT, STATEMENTS

_ID = r"\w[\w-]*"
_STRING = r'"[^"\\]*"'  # with no backslash, so its text is what lies between the quotes


def _context(text: str) -> Context:
    assignments = dict(pair.split(' = "') for pair in text[:-2].split('" ')) if text else {}
    if len(assignments) < text.count(' = "'):
        raise KeyError(text)  # a variable assigned twice, which the reader reports
    return Context(assignments)


# slot shape -> the pattern of its text as the printer writes it, with one group, and the value of the group's
# text, if it is not the text itself
_CANONICAL = {
    "id": (f"({_ID})", None),
    "string": (r'"([^"\\]*)"', None),
    "ids": (rf"\[((?:{_ID}(?:, {_ID})*)?)\]", lambda text: text.split(", ") if text else []),
    "strings": (rf"\[({_STRING}(?:, {_STRING})*)\]", lambda text: text[1:-1].split('", "')),
    "values": (rf"\{{({_STRING}(?:, {_STRING})*)\}}", lambda text: text[1:-1].split('", "')),
    "category": (f"({_ID})", _MEMBERS[CfCategory].__getitem__),
    "guide": (f"({_ID}(?: qualifier = {_ID})?)", cache(lambda text: GuideWord(
        *map(dict.__getitem__, (_MEMBERS[GuideCategory], _MEMBERS[GuideQualifier]), text.split(" qualifier = "))
    ))),
    "context": (rf"\{{ ((?:{_ID} = {_STRING} )*)\}}", _context),
}


def line_reader(keyword: str):
    """The reader of a line that is one `keyword` statement as the printer writes it: (section, record), or None.

    It is compiled from the keyword's `STATEMENTS` row, as `model` compiles a record's `__init__`: for `loss`,
    the record is `cls(g0, g1, span)` of the groups `g0, g1`; an optional slot's group is None when it is absent.
    """
    section, cls, fixed, _ = _STEPS[keyword]
    pattern, groups, args = re.escape(keyword), [], [f"fixed[{i}]" for i in range(len(fixed))]
    namespace = {"cls": cls, "fixed": fixed, "new": tuple.__new__, "SourceSpan": SourceSpan}
    for slot in STATEMENTS[keyword].slots:
        if slot.__class__ is str:
            pattern += " " + re.escape(slot)
            continue
        text, value = _CANONICAL[slot.shape]
        group = f"g{len(groups)}"
        groups.append(group)
        expr = group if value is None else f"value{group}({group})"
        if slot.keyword:
            pattern += f"(?: {slot.keyword} {text})?"
            expr = f"absent{group}() if {group} is None else {expr}"
            namespace[f"absent{group}"] = ABSENT[slot.shape]
        else:
            pattern += " " + text
        namespace[f"value{group}"] = value
        args[cls.__slots__.index(slot.name)] = expr
    namespace["match"] = re.compile(pattern).fullmatch
    exec(
        "def read(path, k, line):\n"
        "    if (m := match(line)) is None:\n"
        "        return None\n"
        f"    {', '.join(groups)}, = m.groups()\n"
        "    try:\n"
        f"        record = cls({', '.join(args)}, new(SourceSpan, (path, k + 1, 1, k + 1, len(line))))\n"
        "    except KeyError:  # an unknown enum member or a repeated context variable, which the reader reports\n"
        "        return None\n"
        f"    return {section!r}, record\n",
        namespace,
    )
    return namespace["read"]
