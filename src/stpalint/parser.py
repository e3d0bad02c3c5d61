"""Parser for the `.stpa` textual model format.

A regex tokenizer and a recursive-descent parser with statement-level error
recovery: on a syntax fault the parser reports a diagnostic and skips ahead
to the next top-level keyword that is the first token on its line. Parsing
never fabricates declarations; every declaration in the output carries the
span of its source statement.

The tokenizer splits each line into its words with one `findall`, and each
token is the word itself, a string: a large model has tens of thousands of
tokens, and the parser tells a token's kind by its first character. Only
the declaration spans and the diagnostics need a token's line and columns,
so `_FileParser.place` works them out on demand from the index of each
line's first token. The first token of a line starts after its leading
blanks and the last ends before its trailing ones; any other token, and any
token on a line that holds a comment, an unexpected character or an
unclosed string, is found by matching its line again.

The syntax of the statements is defined only by `STATEMENTS`, one row per
keyword: the parser reads a statement by walking its row's slots, and
`printer` writes a declaration from the same slots.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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
    ProcessModelVariable,
    SourceSpan,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
    diagnostic,
    resolve,
)


# `Field` and `Statement` are plain classes: building a `NamedTuple` class
# costs about 0.3 ms at every start


class Field:
    """A slot that fills one field of the statement's record class."""

    __slots__ = ("name", "shape", "what", "keyword")

    def __init__(self, name: str, shape: str, what: str, keyword: str | None = None):
        self.name = name
        self.shape = shape  # a key of `_FileParser.READ`: what the slot's tokens look like
        self.what = what  # what the "expected ..." message for the slot names
        self.keyword = keyword  # the word that introduces an optional slot


class Statement:
    """The syntax of one statement keyword and the declaration it makes."""

    __slots__ = ("section", "cls", "fixed", "slots")

    def __init__(self, section: str, cls: type, fixed: dict, slots: tuple):
        self.section = section  # the `StpaModel` list the declaration goes to
        self.cls = cls
        self.fixed = fixed  # the fields that the keyword alone decides
        self.slots = slots  # `Field`s, literal words and "=", in source order


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
    """`text` as a string literal that reads back as `text`."""
    return '"' + text.translate(_QUOTE) + '"'


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


def _split(path: str, text: str, diags: list[Diagnostic]) -> tuple[list[Token], list[int], list[str], set[int]]:
    """Split `text` into tokens, reporting bad strings and characters to `diags`.

    Also returns the index of each line's first token followed by the
    number of tokens, the lines, and the lines that hold a comment, an
    unexpected character or a string without its closing quote.
    """
    lines = text.split("\n")
    findall = _WORD.findall
    tokens: list[Token] = []
    firsts: list[int] = []
    odd: list[int] = []
    for k, line in enumerate(lines):
        firsts.append(len(tokens))
        words = findall(line)
        if words:
            last = words[-1]
            if last[0] == "#":
                words.pop()
                odd.append(k)
            elif last[0] == '"' and _open(last):
                odd.append(k)
            tokens += words
    firsts.append(len(tokens))
    if not all(map(_is_token, set(map(itemgetter(0), tokens)))):
        # drop the unexpected characters; the lines are read in order, so
        # `firsts[k + 1]` still counts the old tokens when line k is read
        kept: list[Token] = []
        for k in range(len(lines)):
            words = tokens[firsts[k] : firsts[k + 1]]
            firsts[k] = len(kept)
            kept += filter(_is_token, words)
            if len(kept) - firsts[k] < len(words):
                odd.append(k)
        firsts[-1] = len(kept)
        tokens = kept
        odd = sorted(set(odd))
    for k in odd:
        for m in _WORD.finditer(lines[k]):
            word = m[0]
            if word[0] == '"':
                if _open(word):
                    span = SourceSpan(path, k + 1, m.start() + 1, k + 1, m.end())
                    diags.append(diagnostic("parse/unterminated-string", "unterminated string literal", span))
            elif word[0] != "#" and not _is_token(word):
                span = SourceSpan(path, k + 1, m.start() + 1, k + 1, m.start() + 1)
                diags.append(diagnostic("parse/unexpected-character", f"unexpected character {word!r}", span))
    return tokens, firsts, lines, set(odd)


def tokenize(path: str, text: str, diags: list[Diagnostic]) -> list[Token]:
    """Split `text` into tokens, reporting bad strings and characters to `diags`."""
    return _split(path, text, diags)[0]


class _FileParser:
    def __init__(self, path: str, text: str, diags: list[Diagnostic]):
        self.path = path
        self.diags = diags
        tokens, self.firsts, self.lines, self.odd = _split(path, text, diags)
        self.tokens = tokens + [_END]
        self.pos = 0

    # -- token places -------------------------------------------------------

    def place(self, i: int) -> tuple[int, int, int]:
        """The line of token `i` and the columns of its first and last characters."""
        firsts = self.firsts
        k = bisect_right(firsts, i) - 1
        line = self.lines[k]
        if k not in self.odd:
            # on a line of tokens and blanks alone, the first token starts
            # after the leading blanks and the last ends before the trailing ones
            if i == firsts[k]:
                col = len(line) - len(line.lstrip(_BLANKS)) + 1
                return k + 1, col, col + len(self.tokens[i]) - 1
            if i == firsts[k + 1] - 1:
                end_col = len(line.rstrip(_BLANKS))
                return k + 1, end_col - len(self.tokens[i]) + 1, end_col
        m = [m for m in _WORD.finditer(line) if _is_token(m[0])][i - firsts[k]]
        return k + 1, m.start() + 1, m.end()

    def starts_line(self, i: int) -> bool:
        """Whether token `i` is the first token on its line."""
        firsts = self.firsts
        return firsts[bisect_right(firsts, i) - 1] == i

    def span(self, first: int, last: int) -> SourceSpan:
        """From the first character of token `first` to the last of token `last`."""
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
        return _string(word), i + 1

    def read_list(self, i: int, what: str, read, open_: str, close: str, empty: bool = False) -> tuple[list, int]:
        """Comma-separated items that `read` reads, between `open_` and `close`; at least one unless `empty`."""
        tokens = self.tokens
        if tokens[i] != open_:
            self.fail(i, f"expected {open_!r}")
        i += 1
        items = []
        if not (empty and tokens[i] == close):
            while True:
                item, i = read(i, what)
                items.append(item)
                if tokens[i] != ",":
                    break
                i += 1
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
        "ids": lambda self, i, what: self.read_list(i, what, self.read_id, "[", "]", empty=True),
        "strings": lambda self, i, what: self.read_list(i, what, self.read_string, "[", "]"),
        "values": lambda self, i, what: self.read_list(i, what, self.read_string, "{", "}"),
        "category": lambda self, i, what: self.read_enum(i, what, CfCategory),
        "guide": read_guide,
        "context": read_context,
    }

    # -- statements ---------------------------------------------------------

    def parse_into(self, model: StpaModel) -> None:
        tokens = self.tokens
        end = len(tokens) - 1  # the index of `_END`
        while (start := self.pos) < end:
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

    def recover(self) -> None:
        """Skip to the next top-level keyword that starts a line."""
        tokens = self.tokens
        i = self.pos
        while tokens[i] != _END and not (tokens[i] in STATEMENTS and self.starts_line(i)):
            i += 1
        self.pos = i

    def statement(self, model: StpaModel) -> None:
        """Read the statement at a keyword by walking the keyword's `STATEMENTS` row."""
        tokens = self.tokens
        start = self.pos
        row = STATEMENTS[tokens[start]]
        fields = dict(row.fixed)
        i = start + 1
        for slot in row.slots:
            if slot.__class__ is str:
                if tokens[i] != slot:
                    self.fail(i, "expected '='" if slot == "=" else f"expected keyword {slot!r}")
                i += 1
            elif slot.keyword is None:
                fields[slot.name], i = self.READ[slot.shape](self, i, slot.what)
            elif tokens[i] == slot.keyword:
                fields[slot.name], i = self.READ[slot.shape](self, i + 1, slot.what)
            else:
                fields[slot.name] = ABSENT[slot.shape]()
        self.pos = i
        getattr(model, row.section).append(row.cls(**fields, span=self.span(start, i - 1)))


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
    diags: list[Diagnostic] = []
    model = StpaModel()
    for path, text in source_files:
        _FileParser(path, text, diags).parse_into(model)
    # a UCA's action edge may be declared in any file
    edges = model.edge_ids()
    for uca in model.ucas:
        edge = edges.get(uca.action)
        if edge is not None:
            uca.source_controller = edge.source
    diags.extend(resolve(model))
    return model, diags
