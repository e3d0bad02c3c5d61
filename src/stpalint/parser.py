"""Parser for the `.stpa` textual model format.

A master-regex tokenizer and a recursive-descent parser with statement-level
error recovery: on a syntax fault the parser reports a diagnostic and skips
ahead to the next top-level keyword that starts a line. Parsing never
fabricates declarations; every declaration in the output carries the span
of its source statement.

The tokenizer makes one regex match per lexeme, blanks in front included,
and each token is a plain tuple `(kind, text, line, col, end_col)`: a large
model has tens of thousands of tokens, and a tuple is the cheapest object
that holds one.

The syntax of the statements is defined only by `STATEMENTS`, one row per
keyword: the parser reads a statement by walking its row's slots, and
`printer` writes a declaration from the same slots.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

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
    Severity,
    SourceSpan,
    StpaModel,
    SystemConstraint,
    UnsafeControlAction,
    resolve,
)


class Field(NamedTuple):
    """A slot that fills one field of the statement's dataclass."""

    name: str
    shape: str  # a key of `_FileParser.READ`: what the slot's tokens look like
    what: str  # what the "expected ..." message for the slot names
    keyword: str | None = None  # the word that introduces an optional slot


class Statement(NamedTuple):
    """The syntax of one statement keyword and the declaration it makes."""

    section: str  # the `StpaModel` list the declaration goes to
    cls: type
    fixed: dict  # the fields that the keyword alone decides
    slots: tuple  # `Field`s, literal words and "=", in source order


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

_UNESCAPE = re.compile(r"\\(.)")
_QUOTE = str.maketrans({char: "\\" + letter for letter, char in ESCAPES.items()})


def quote(text: str) -> str:
    """`text` as a string literal that reads back as `text`."""
    return '"' + text.translate(_QUOTE) + '"'


# One alternative per lexeme, each after the blanks in front of it;
# `tokenize` dispatches on the name that matched, and blanks before the end
# of the text match no name. A string stops at its closing quote or at a
# newline; a backslash escapes the next character, and a lone backslash
# before a newline or EOF is kept.
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<newline>\n)"
    r"|(?P<comment>#[^\n]*)"
    r'|(?P<string>"(?P<body>[^"\\\n]*(?:\\.?[^"\\\n]*)*)(?P<close>")?)'
    r"|(?P<id>\w[\w-]*)"
    r"|(?P<punct>[][{}=,])"
    r"|(?P<other>.)"
    r"|\Z)"
)

# A token is a tuple (kind, text, line, col, end_col): kind is "id", "string"
# or "punct", text is the unescaped value of a string, and the columns are
# those of the token's first and last characters.
Token = tuple[str, str, int, int, int]


class _ParseError(Exception):
    """A syntax fault at `token`, None at the end of the file; `message` is complete."""

    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


def _found(tok: Token | None) -> str:
    """The end of an "expected ..." message: the token that was found instead."""
    if tok is None:
        return " at end of file"
    if tok[0] == "string":
        return f", found string {quote(tok[1])}"
    return f", found {tok[1]!r}"


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _UNESCAPE.sub(lambda m: ESCAPES.get(m[1], m[1]), body)


def tokenize(path: str, text: str, diags: list[Diagnostic]) -> list[Token]:
    """Split `text` into tokens, reporting bad strings and characters to `diags`."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "id" or kind == "punct":
            start = m.start(kind) - line_start
            word = m[kind]
            tokens.append((kind, word, line, start + 1, start + len(word)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "string":
            start, end = m.span(kind)
            col, end_col = start - line_start + 1, end - line_start
            if m["close"] is None:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/unterminated-string",
                        "unterminated string literal",
                        SourceSpan(path, line, col, line, end_col),
                    )
                )
            tokens.append(("string", _unescape(m["body"]), line, col, end_col))
        elif kind == "other":
            col = m.start(kind) - line_start + 1
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "parse/unexpected-character",
                    f"unexpected character {m[kind]!r}",
                    SourceSpan(path, line, col, line, col),
                )
            )
        # a comment, or the blanks at the end of the text, makes no token
    return tokens


class _FileParser:
    def __init__(self, path: str, tokens: list[Token], diags: list[Diagnostic]):
        self.path = path
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take(self, kind: str, text: str | None = None) -> Token | None:
        """Consume and return the next token if it has `kind` (and `text`); else None."""
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if tok[0] == kind and (text is None or tok[1] == text):
                self.pos += 1
                return tok
        return None

    def fail(self, message: str) -> NoReturn:
        tok = self.peek()
        raise _ParseError(message + _found(tok), tok)

    def expect_id(self, what: str) -> Token:
        return self.take("id") or self.fail(f"expected {what}")

    def expect_keyword(self, word: str) -> Token:
        return self.take("id", word) or self.fail(f"expected keyword {word!r}")

    def expect_string(self, what: str) -> Token:
        return self.take("string") or self.fail(f"expected {what} string")

    def expect_punct(self, ch: str) -> Token:
        return self.take("punct", ch) or self.fail(f"expected {ch!r}")

    def token_span(self, tok: Token) -> SourceSpan:
        _, _, line, col, end_col = tok
        return SourceSpan(self.path, line, col, line, end_col)

    def span_from(self, start: Token) -> SourceSpan:
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        return SourceSpan(self.path, start[2], start[3], last[2], last[4])

    # -- slot shapes --------------------------------------------------------

    def read_id(self, what: str) -> str:
        return self.expect_id(what)[1]

    def read_string(self, what: str) -> str:
        return self.expect_string(what)[1]

    def read_ids(self, what: str) -> list[str]:
        """Bracketed, comma-separated id list; empty list accepted (resolve flags it)."""
        self.expect_punct("[")
        if self.take("punct", "]"):
            return []
        ids = [self.read_id(what)]
        while self.take("punct", ","):
            ids.append(self.read_id(what))
        self.expect_punct("]")
        return ids

    def read_strings(self, what: str, open_: str, close: str) -> list[str]:
        """Comma-separated strings between `open_` and `close`; at least one."""
        self.expect_punct(open_)
        items = [self.read_string(what)]
        while self.take("punct", ","):
            items.append(self.read_string(what))
        self.expect_punct(close)
        return items

    def read_enum(self, enum: type, what: str):
        tok = self.expect_id(what)
        try:
            return enum(tok[1])
        except ValueError:
            raise _ParseError(f"unknown {what} {tok[1]!r}", tok) from None

    def read_guide(self, what: str) -> GuideWord:
        category = self.read_enum(GuideCategory, what)
        if not self.take("id", "qualifier"):
            return GuideWord(category)
        self.expect_punct("=")
        return GuideWord(category, self.read_enum(GuideQualifier, "guide qualifier"))

    def read_context(self, what: str) -> Context:
        self.expect_punct("{")
        assignments: dict[str, str] = {}
        first: dict[str, Token] = {}
        while var_tok := self.take("id"):
            self.expect_punct("=")
            value = self.read_string(what)
            var = var_tok[1]
            if var in first:
                # an error, not an override: the first value stays
                self.diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/duplicate-context-variable",
                        f"context variable {var} is assigned more than once",
                        self.span_from(var_tok),
                        [("first assigned here", self.token_span(first[var]))],
                    )
                )
                continue
            first[var] = var_tok
            assignments[var] = value
        self.expect_punct("}")
        return Context(assignments)

    # slot shape -> the method that reads a slot of that shape
    READ = {
        "id": read_id,
        "string": read_string,
        "ids": read_ids,
        "strings": lambda self, what: self.read_strings(what, "[", "]"),
        "values": lambda self, what: self.read_strings(what, "{", "}"),
        "category": lambda self, what: self.read_enum(CfCategory, what),
        "guide": read_guide,
        "context": read_context,
    }

    # -- statements ---------------------------------------------------------

    def parse_into(self, model: StpaModel) -> None:
        while (tok := self.peek()) is not None:
            if tok[0] != "id" or tok[1] not in STATEMENTS:
                self.diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/unknown-keyword",
                        "expected a declaration keyword" + _found(tok),
                        self.token_span(tok),
                    )
                )
                self.advance()
                self.recover()
                continue
            try:
                self.statement(model)
            except _ParseError as err:
                at = err.token
                span = (
                    self.token_span(at)
                    if at is not None
                    else SourceSpan(self.path, tok[2], tok[3], tok[2], tok[3])
                )
                self.diags.append(Diagnostic(Severity.ERROR, "parse/syntax", err.message, span))
                self.recover()

    def recover(self) -> None:
        """Skip to the next top-level keyword that starts a line."""
        while (tok := self.peek()) is not None:
            if tok[0] == "id" and tok[1] in STATEMENTS and self.starts_line():
                return
            self.advance()

    def starts_line(self) -> bool:
        """Whether the next token is the first token on its line."""
        return self.pos == 0 or self.tokens[self.pos - 1][2] < self.tokens[self.pos][2]

    def statement(self, model: StpaModel) -> None:
        """Read the statement at a keyword by walking the keyword's `STATEMENTS` row."""
        start = self.advance()
        row = STATEMENTS[start[1]]
        fields = dict(row.fixed)
        for slot in row.slots:
            if slot.__class__ is str:
                if slot == "=":
                    self.expect_punct("=")
                else:
                    self.expect_keyword(slot)
            elif slot.keyword is None or self.take("id", slot.keyword):
                fields[slot.name] = self.READ[slot.shape](self, slot.what)
            else:
                fields[slot.name] = ABSENT[slot.shape]()
        getattr(model, row.section).append(row.cls(**fields, span=self.span_from(start)))


def parse(source_files: list[tuple[str, str]]) -> tuple[StpaModel, list[Diagnostic]]:
    """Parse one or more `.stpa` sources into a single model.

    Files concatenate in the given order; duplicate detection and reference
    resolution run across the merged model. On zero error diagnostics the
    returned model passes `resolve` cleanly.
    """
    diags: list[Diagnostic] = []
    model = StpaModel()
    for path, text in source_files:
        tokens = tokenize(path, text, diags)
        _FileParser(path, tokens, diags).parse_into(model)
    # a UCA's action edge may be declared in any file
    edges = model.edge_ids()
    for uca in model.ucas:
        edge = edges.get(uca.action)
        if edge is not None:
            uca.source_controller = edge.source
    diags.extend(resolve(model))
    return model, diags
