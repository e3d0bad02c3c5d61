"""Parser for the `.stpa` textual model format.

A regex tokenizer and a recursive-descent parser with statement-level error
recovery: on a syntax fault the parser reports a diagnostic and skips ahead
to the next top-level keyword that is the first token on its line. Parsing
never fabricates declarations; every declaration in the output carries the
span of its source statement.

The tokenizer splits each line into its words with one `findall`, and each
token is the word itself, a string: the parser tells a token's kind by its
first character. Only spans and diagnostics need a token's line and
columns, and `place` reads them from the columns of its line's tokens, which
`_split` keeps for a line it matches to report a comment, an unexpected
character or an unclosed string, and `place` finds for any other line at
most once. A statement that is a whole line of tokens and blanks alone runs
from after the leading blanks to before the trailing ones: one search.

The syntax of the statements is defined only by `STATEMENTS`, one row per
keyword: the parser reads a statement by the steps `_STEPS` builds once
from its row's slots, and `printer` writes a declaration from the same slots.
`canonical` builds from them the pattern of a line as `printer` writes
it, compiled once the input has opened more than `FAST_LINES` lines with
its keyword. Such a fast line is one token, its keyword, and a record
straight from the match, kept if the reader alone would read the line as
one statement: no statement before it reads its keyword, and the next
token is a keyword or there is none. Else the file is read again, alone.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache
from operator import itemgetter
from typing import NoReturn

from .model import (
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
    ModelIndex,
    ProcessModelVariable,
    Record,
    SourceSpan,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
    diagnostic,
    resolve,
)


class Field(Record, defaults={"keyword": None}):
    """A slot that fills one field of the statement's record class.

    `shape` is a key of `_FileParser.READ`, what the slot's tokens look
    like; `what` is what the "expected ..." message for the slot names;
    `keyword` is the word that introduces an optional slot.
    """

    __slots__ = ("name", "shape", "what", "keyword")


class Statement(Record):
    """The syntax of one statement keyword and the declaration it makes.

    `section` is the `StpaModel` list the declaration goes to, `fixed` the
    fields that the keyword alone decides, and `slots` the `Field`s, literal
    words and "=" in source order.
    """

    __slots__ = ("section", "cls", "fixed", "slots")


# Slot shapes: "id"; "string"; "ids", `[a, b]`, maybe empty; "strings",
# `["a", "b"]`; "values", `{"a", "b"}`; "category", a causal factor category;
# "guide", a guide category with an optional `qualifier = Q`; "context",
# `{ var = "value" ... }`. An optional slot whose keyword is absent takes
# `ABSENT[shape]()`, and the printer omits a slot equal to that value.
ABSENT = {"ids": list, "strings": list, "context": Context}

_DESCRIPTION = Field("description", "string", "description")
_LABEL = Field("label", "string", "label")


def _ids(name: str, keyword: str | None = None) -> Field:
    return Field(name, "ids", "identifier", keyword)


STATEMENTS: dict[str, Statement] = {
    "loss": Statement("losses", Loss, {}, (Field("id", "id", "loss id"), _DESCRIPTION)),
    "hazard": Statement("hazards", Hazard, {}, (
        Field("id", "id", "hazard id"), _DESCRIPTION, "leads_to", _ids("leads_to")
    )),
    "constraint": Statement("constraints", SystemConstraint, {}, (
        Field("id", "id", "constraint id"), _DESCRIPTION, "mitigates", _ids("mitigates")
    )),
    **{
        kind.value: Statement("entities", Entity, {"kind": kind}, (Field("id", "id", "entity id"), _LABEL))
        for kind in EntityKind
    },
    **{
        kind.value: Statement("edges", Edge, {"kind": kind}, (
            Field("id", "id", "edge id"), _LABEL,
            "from", Field("source", "id", "source entity id"),
            "to", Field("target", "id", "target entity id"),
            _ids("via", "via"),
            Field("signals", "strings", "signal label", "signals"),
        ))
        for kind in EdgeKind
    },
    "variable": Statement("variables", ProcessModelVariable, {}, (
        Field("id", "id", "variable id"), "of", Field("owner", "id", "owner entity id"), _LABEL,
        Field("values", "values", "value label"),
    )),
    # the source controller is filled in from the action edge after all files parse
    "uca": Statement("ucas", UnsafeControlAction, {"source_controller": ""}, (
        Field("id", "id", "uca id"),
        "action", "=", Field("action", "id", "action edge id"),
        "guide", "=", Field("guide", "guide", "guide category"),
        Field("context", "context", "value label", "context"),
        "hazards", _ids("hazards"),
        _DESCRIPTION,
    )),
    "cf": Statement("causal_factors", CausalFactor, {}, (
        Field("id", "id", "causal factor id"),
        "category", "=", Field("category", "category", "causal factor category"),
        "at", Field("located_at", "id", "entity or edge id"),
        "for", _ids("ucas"),
        _DESCRIPTION,
    )),
    "controller_constraint": Statement("controller_constraints", ControllerConstraint, {}, (
        Field("id", "id", "controller constraint id"), "from", Field("derived_from", "id", "uca id"), _DESCRIPTION
    )),
}

# The character after a backslash in a string -> the character it stands for.
# Any other escaped character stands for itself. `quote` inverts this.
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_UNESCAPE = r"\\(.)"  # compiled on first use, by `re.sub`: few models hold an escape
_QUOTE = str.maketrans({char: "\\" + letter for letter, char in ESCAPES.items()})


def quote(text: str) -> str:
    """`text` as a string literal that reads back as `text`; only text with a character to escape is translated."""
    if '"' in text or "\\" in text or "\n" in text or "\t" in text or "\r" in text:
        text = text.translate(_QUOTE)
    return '"' + text + '"'


# One alternative per word of a line, tried in this order: a comment; a
# string, which stops at its closing quote or at the end of the line (a
# backslash escapes the next character, and a lone backslash at the end of
# the line is kept); an identifier; any other character but a blank, which
# is a punctuation or an unexpected character. A comment, and a string
# without its closing quote, take the rest of the line, so each is the last
# word of its line.
_WORD = re.compile(r'#.*|"[^"\\]*(?:\\.?[^"\\]*)*"?|\w[\w-]*|[^ \t\r]')
_BLANKS = " \t\r"

# A token is its word: an identifier, a string with its quotes and escapes,
# or one of the punctuations `[]{}=,`. Its first character tells which.
Token = str

# `_FileParser` reads it after the last token: no word is a newline, so no
# test of a token holds for it
_END = "\n"
_NOT_ID = '"[]{}=,\n'  # the first character of a string, of a punctuation and of `_END`

# enum -> its members by value, for the slots that name one
_MEMBERS = {enum: {member.value: member for member in enum} for enum in (CfCategory, GuideCategory, GuideQualifier)}


class _ParseError(Exception):
    """A syntax fault at token `at`, the index of `_END` at the end of the file; `message` is complete."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.message = message
        self.at = at


def _is_token(word: str) -> bool:
    """Whether a word is a token, not a comment or an unexpected character."""
    first = word[0]
    return first.isalnum() or first in '_"[]{}=,'


def _open(word: str) -> bool:
    """Whether the string token `word` has no closing quote."""
    # a last quote after the first closes the string, unless an odd number of
    # backslashes escapes it
    return (
        len(word) == 1
        or word[-1] != '"'
        or (word[-2] == "\\" and (len(word) - len(word[:-1].rstrip("\\"))) % 2 == 0)
    )


def _string(word: str) -> str:
    """The value of the string token `word`."""
    body = word[1:] if _open(word) else word[1:-1]
    if "\\" not in body:
        return body
    return re.sub(_UNESCAPE, lambda m: ESCAPES.get(m[1], m[1]), body)


def _found(word: Token) -> str:
    """The end of an "expected ..." message: the token that was found instead."""
    if word == _END:
        return " at end of file"
    if word[0] == '"':
        return f", found string {quote(_string(word))}"
    return f", found {word!r}"


def _split(path: str, text: str, diags: list[Diagnostic], opened: dict[str, int] | None = None) -> tuple:
    """Split `text` into tokens, reporting bad strings and characters to `diags`.

    Also returns the index of each line's first token followed by the
    number of tokens, the lines, and the first and last columns of the
    tokens of each line that holds a comment, an unexpected character or a
    string without its closing quote: the lines this matches to report them.
    Given `opened`, the count of the input's lines so far by keyword, the
    last value maps the token of each fast line to its section and record.
    """
    lines = text.split("\n")
    findall = _WORD.findall
    tokens: list[Token] = []
    firsts: list[int] = []
    columns: dict[int, list[tuple[int, int]]] = {}  # line -> its tokens' first and last columns
    fast: dict[int, tuple] = {}
    for k, line in enumerate(lines):
        firsts.append(len(tokens))
        if opened is not None and (head := line[: line.find(" ")]) in STATEMENTS:
            opened[head] = n = opened.get(head, 0) + 1
            if n > FAST_LINES and (entry := _line_reader(head)(path, k, line)) is not None:
                fast[len(tokens)] = entry
                tokens.append(head)
                continue
        words = findall(line)
        if words:
            last = words[-1]
            if last[0] == "#":
                words.pop()
                columns[k] = []
            elif last[0] == '"' and _open(last):
                columns[k] = []
            tokens += words
    firsts.append(len(tokens))
    if not all(map(_is_token, set(map(itemgetter(0), tokens)))):
        # drop the unexpected characters; the lines are read in order, so
        # `firsts[k + 1]` still counts the old tokens when line k is read
        kept: list[Token] = []
        for k in range(len(lines)):
            words = tokens[firsts[k] : firsts[k + 1]]
            if words and firsts[k] in fast:  # a fast line: its keyword moves back
                fast[len(kept)] = fast.pop(firsts[k])
            firsts[k] = len(kept)
            kept += filter(_is_token, words)
            if len(kept) - firsts[k] < len(words):
                columns[k] = []
        firsts[-1] = len(kept)
        tokens = kept
    for k in sorted(columns):  # in line order: the unexpected-character pass adds its lines last
        for m in _WORD.finditer(lines[k]):
            word = m[0]
            col, end_col = m.start() + 1, m.end()
            if _is_token(word):
                columns[k].append((col, end_col))
                if word[0] == '"' and _open(word):
                    span = SourceSpan(path, k + 1, col, k + 1, end_col)
                    diags.append(diagnostic("parse/unterminated-string", "unterminated string literal", span))
            elif word[0] != "#":
                span = SourceSpan(path, k + 1, col, k + 1, col)
                diags.append(diagnostic("parse/unexpected-character", f"unexpected character {word!r}", span))
    return tokens, firsts, lines, columns, fast


def tokenize(path: str, text: str, diags: list[Diagnostic]) -> list[Token]:
    """Split `text` into tokens, reporting bad strings and characters to `diags`."""
    return _split(path, text, diags)[0]


class _FileParser:
    def __init__(self, path: str, text: str, diags: list[Diagnostic], opened: dict[str, int] | None = None):
        self.path = path
        self.diags = diags
        tokens, self.firsts, self.lines, self.columns, self.fast = _split(path, text, diags, opened)
        self.tokens = tokens + [_END]
        self.pos = 0

    # -- token places -------------------------------------------------------

    def place(self, i: int) -> tuple[int, int, int]:
        """The line of token `i` and the columns of its first and last characters."""
        firsts = self.firsts
        k = bisect_right(firsts, i) - 1
        columns = self.columns.get(k)
        if columns is None:  # a line of tokens and blanks alone, which `_split` did not match
            columns = self.columns[k] = [(m.start() + 1, m.end()) for m in _WORD.finditer(self.lines[k])]
        return (k + 1, *columns[i - firsts[k]])

    def starts_line(self, i: int) -> bool:
        """Whether token `i` is the first token on its line."""
        firsts = self.firsts
        return firsts[bisect_right(firsts, i) - 1] == i

    def span(self, first: int, last: int) -> SourceSpan:
        """From the first character of token `first` to the last of token `last`; a whole plain line in one search."""
        firsts = self.firsts
        k = bisect_right(firsts, first) - 1
        if firsts[k] == first and firsts[k + 1] == last + 1 and k not in self.columns and first not in self.fast:
            line = self.lines[k]
            col, end_col = len(line) - len(line.lstrip(_BLANKS)) + 1, len(line.rstrip(_BLANKS))
            return tuple.__new__(SourceSpan, (self.path, k + 1, col, k + 1, end_col))  # without its Python `__new__`
        line, col, _ = self.place(first)
        end_line, _, end_col = self.place(last)
        return SourceSpan(self.path, line, col, end_line, end_col)

    def fail(self, i: int, message: str) -> NoReturn:
        """Stop the statement at token `i`, which is not what `message` expected."""
        self.pos = i
        raise _ParseError(message + _found(self.tokens[i]), i)

    # -- slot shapes: each reads from token `i` and returns the value and the next index

    def read_id(self, i: int, what: str) -> tuple[str, int]:
        word = self.tokens[i]
        if word[0] in _NOT_ID:
            self.fail(i, f"expected {what}")
        return word, i + 1

    def read_string(self, i: int, what: str) -> tuple[str, int]:
        word = self.tokens[i]
        if word[0] != '"':
            self.fail(i, f"expected {what} string")
        return (word[1:-1] if word[-1] == '"' and "\\" not in word else _string(word)), i + 1

    def read_list(self, i: int, what: str, open_: str = "[", close: str = "]", read=None) -> tuple[list, int]:
        """Comma-separated items between `open_` and `close`: ids, maybe none, or one or more that `read` reads."""
        tokens = self.tokens
        if tokens[i] != open_:
            self.fail(i, f"expected {open_!r}")
        items = []
        if read is None and tokens[i + 1] == close:
            return items, i + 2
        while True:
            if read is not None:
                item, i = read(i + 1, what)
            elif (item := tokens[i + 1])[0] in _NOT_ID:
                self.fail(i + 1, f"expected {what}")
            else:
                i += 2
            items.append(item)
            if tokens[i] != ",":
                break
        if tokens[i] != close:
            self.fail(i, f"expected {close!r}")
        return items, i + 1

    def read_enum(self, i: int, what: str, enum: type) -> tuple:
        word, i = self.read_id(i, what)
        member = _MEMBERS[enum].get(word)
        if member is None:
            self.pos = i  # past the word, as after a word that names a member
            raise _ParseError(f"unknown {what} {word!r}", i - 1)
        return member, i

    def read_guide(self, i: int, what: str) -> tuple[GuideWord, int]:
        category, i = self.read_enum(i, what, GuideCategory)
        if self.tokens[i] != "qualifier":
            return GuideWord(category), i
        if self.tokens[i + 1] != "=":
            self.fail(i + 1, "expected '='")
        qualifier, i = self.read_enum(i + 2, "guide qualifier", GuideQualifier)
        return GuideWord(category, qualifier), i

    def read_context(self, i: int, what: str) -> tuple[Context, int]:
        tokens = self.tokens
        if tokens[i] != "{":
            self.fail(i, "expected '{'")
        i += 1
        assignments: dict[str, str] = {}
        first: dict[str, int] = {}
        while tokens[i][0] not in _NOT_ID:
            var_at, var = i, tokens[i]
            if tokens[i + 1] != "=":
                self.fail(i + 1, "expected '='")
            value, i = self.read_string(i + 2, what)
            if var in first:
                # an error, not an override: the first value stays
                self.diags.append(
                    diagnostic(
                        "parse/duplicate-context-variable",
                        f"context variable {var} is assigned more than once",
                        self.span(var_at, i - 1),
                        [("first assigned here", self.span(first[var], first[var]))],
                    )
                )
                continue
            first[var] = var_at
            assignments[var] = value
        if tokens[i] != "}":
            self.fail(i, "expected '}'")
        return Context(assignments), i + 1

    # slot shape -> the method that reads a slot of that shape
    READ = {
        "id": read_id,
        "string": read_string,
        "ids": read_list,
        "strings": lambda self, i, what: self.read_list(i, what, "[", "]", self.read_string),
        "values": lambda self, i, what: self.read_list(i, what, "{", "}", self.read_string),
        "category": lambda self, i, what: self.read_enum(i, what, CfCategory),
        "guide": read_guide,
        "context": read_context,
    }

    # -- statements ---------------------------------------------------------

    def parse_into(self, model: StpaModel) -> bool:
        """Read the statements into `model`; False, part read, if the reader alone would not read a fast line as one."""
        tokens, fast = self.tokens, self.fast
        end = len(tokens) - 1  # the index of `_END`
        if any(tokens[i + 1] not in STATEMENTS and i + 1 < end for i in fast):
            return False
        while (start := self.pos) < end:
            if (entry := fast.get(start)) is not None:
                getattr(model, entry[0]).append(entry[1])
                self.pos += 1
                continue
            if tokens[start] not in STATEMENTS:
                message = "expected a declaration keyword" + _found(tokens[start])
                self.diags.append(diagnostic("parse/unknown-keyword", message, self.span(start, start)))
                self.pos += 1
                self.recover()
                continue
            try:
                self.statement(model)
            except _ParseError as err:
                if err.at < end:
                    span = self.span(err.at, err.at)
                else:
                    line, col, _ = self.place(start)
                    span = SourceSpan(self.path, line, col, line, col)
                self.diags.append(diagnostic("parse/syntax", err.message, span))
                self.recover()
            if fast and any(map(fast.__contains__, range(start + 1, self.pos))):
                return False
        return True

    def recover(self) -> None:
        """Skip to the next top-level keyword that starts a line."""
        tokens = self.tokens
        i = self.pos
        while tokens[i] != _END and not (tokens[i] in STATEMENTS and self.starts_line(i)):
            i += 1
        self.pos = i

    def statement(self, model: StpaModel) -> None:
        """Read the statement at a keyword by taking the steps of the keyword's `STATEMENTS` row."""
        tokens = self.tokens
        start = self.pos
        section, cls, fixed, steps = _STEPS[tokens[start]]
        values = fixed.copy()
        i = start + 1
        for at, read, what, keyword, absent in steps:
            if read is None:  # the literal word `what`
                if tokens[i] != what:
                    self.fail(i, "expected '='" if what == "=" else f"expected keyword {what!r}")
                i += 1
            elif keyword is None:
                values[at], i = read(self, i, what)
            elif tokens[i] == keyword:
                values[at], i = read(self, i + 1, what)
            else:
                values[at] = absent()
        self.pos = i
        getattr(model, section).append(cls(*values, self.span(start, i - 1)))


# keyword -> (section, record class, the record's fields in `__slots__` order but `span`, with the fixed
# ones filled in, and one step per slot): a step is (None, None, word, None, None) for a literal word and
# (field index, `READ` method of its shape, what, keyword, absent factory) for a `Field`
_STEPS = {
    keyword: (row.section, row.cls, [row.fixed.get(name) for name in row.cls.__slots__[:-1]], [
        (None, None, slot, None, None) if slot.__class__ is str
        else (row.cls.__slots__.index(slot.name), _FileParser.READ[slot.shape], slot.what, slot.keyword,
              ABSENT.get(slot.shape))
        for slot in row.slots
    ])
    for keyword, row in STATEMENTS.items()
}

# A keyword's line pattern is compiled once the input has opened more lines
# with it than this: compiling the `uca` pattern takes about 0.3 ms, and each
# line it reads instead of the tokenizer and the steps saves about 5 us
# (Python 3.11 on a 2-vCPU host), so it pays for itself at about 60 lines.
FAST_LINES = 60


@cache
def _line_reader(keyword: str):
    """`canonical.line_reader(keyword)`: only an input that opens more than `FAST_LINES` lines with one imports it."""
    from .canonical import line_reader

    return line_reader(keyword)


def read_source(path) -> str:
    """The text of the file `path` decoded as UTF-8, without one leading byte-order mark.

    That is what "utf-8-sig" gives, without importing its codec.
    """
    with open(path, encoding="utf-8") as f:
        return f.read().removeprefix("\ufeff")


def parse(source_files: list[tuple[str, str]]) -> tuple[StpaModel, list[Diagnostic]]:
    """Parse one or more `.stpa` sources into a single model.

    Files concatenate in the given order; duplicate detection and reference
    resolution run across the merged model. On zero error diagnostics the
    returned model passes `resolve` cleanly.
    """
    index, diags = parse_index(source_files)
    return index.model, diags


def parse_index(source_files: list[tuple[str, str]]) -> tuple[ModelIndex, list[Diagnostic]]:
    """`parse`, returning the model's index, which every later phase of a command reads."""
    diags: list[Diagnostic] = []
    model = StpaModel()
    opened: dict[str, int] = {}
    lists = [diags, *map(model.__getattribute__, StpaModel.__slots__)]
    for path, text in source_files:
        marks = list(map(len, lists))
        if not _FileParser(path, text, diags, opened).parse_into(model):
            for items, mark in zip(lists, marks):  # read the whole file again, by the reader alone
                del items[mark:]
            _FileParser(path, text, diags).parse_into(model)
    index = ModelIndex(model)
    for uca in model.ucas:  # a UCA's action edge may be declared in any file
        edge = index.ids["edges"].get(uca.action)
        if edge is not None:
            uca.source_controller = edge.source
    diags.extend(resolve(index))
    return index, diags
