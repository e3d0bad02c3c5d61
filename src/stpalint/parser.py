"""Parser for the `.stpa` textual model format.

A master-regex tokenizer and a recursive-descent parser with statement-level
error recovery: on a syntax fault the parser reports a diagnostic and skips
ahead to the next top-level keyword that starts a line. Parsing never
fabricates declarations; every declaration in the output carries the span
of its source statement.

The syntax of the statements is defined only by `STATEMENTS`, one row per
keyword: the parser reads a statement by walking its row's slots, and
`printer` writes a declaration from the same slots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
# Any other escaped character stands for itself. `printer.quote` inverts this.
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_UNESCAPE = re.compile(r"\\(.)")

# One alternative per lexeme; `tokenize` dispatches on the name that matched.
# A string stops at its closing quote or at a newline; a backslash escapes
# the next character, and a lone backslash before a newline or EOF is kept.
_LEXEME = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)"
    r'|(?P<string>"(?P<body>[^"\\\n]*(?:\\.?[^"\\\n]*)*)(?P<close>")?)'
    r"|(?P<id>\w[\w-]*)"
    r"|(?P<punct>[][{}=,])"
    r"|(?P<other>.)"
)


@dataclass
class Token:
    kind: str  # "id", "string", "punct"
    text: str  # unescaped value for strings
    line: int
    col: int
    end_col: int


class _ParseError(Exception):
    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


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
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        end_col = m.end() - line_start
        if kind == "string":
            if m["close"] is None:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/unterminated-string",
                        "unterminated string literal",
                        SourceSpan(path, line, col, line, end_col),
                    )
                )
            tokens.append(Token("string", _unescape(m["body"]), line, col, end_col))
        elif kind == "other":
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "parse/unexpected-character",
                    f"unexpected character {m[0]!r}",
                    SourceSpan(path, line, col, line, col),
                )
            )
        else:
            tokens.append(Token(kind, m[0], line, col, end_col))
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
            if tok.kind == kind and (text is None or tok.text == text):
                self.pos += 1
                return tok
        return None

    def fail(self, message: str) -> NoReturn:
        raise _ParseError(message, self.peek())

    def expect_id(self, what: str) -> Token:
        return self.take("id") or self.fail(f"expected {what}")

    def expect_keyword(self, word: str) -> Token:
        return self.take("id", word) or self.fail(f"expected keyword {word!r}")

    def expect_string(self, what: str) -> Token:
        return self.take("string") or self.fail(f"expected {what} string")

    def expect_punct(self, ch: str) -> Token:
        return self.take("punct", ch) or self.fail(f"expected {ch!r}")

    def token_span(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.path, tok.line, tok.col, tok.line, tok.end_col)

    def span_from(self, start: Token) -> SourceSpan:
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        return SourceSpan(self.path, start.line, start.col, last.line, last.end_col)

    # -- slot shapes --------------------------------------------------------

    def read_id(self, what: str) -> str:
        return self.expect_id(what).text

    def read_string(self, what: str) -> str:
        return self.expect_string(what).text

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
            return enum(tok.text)
        except ValueError:
            raise _ParseError(f"unknown {what} {tok.text!r}", tok) from None

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
            if var_tok.text in first:
                # an error, not an override: the first value stays
                at = first[var_tok.text]
                self.diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/duplicate-context-variable",
                        f"context variable {var_tok.text} is assigned more than once",
                        self.span_from(var_tok),
                        [("first assigned here", self.token_span(at))],
                    )
                )
                continue
            first[var_tok.text] = var_tok
            assignments[var_tok.text] = value
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
            if tok.kind != "id" or tok.text not in STATEMENTS:
                self.diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/unknown-keyword",
                        f"expected a declaration keyword, found {tok.text!r}",
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
                    else SourceSpan(self.path, tok.line, tok.col, tok.line, tok.col)
                )
                found = f", found {at.text!r}" if at is not None else " at end of file"
                self.diags.append(
                    Diagnostic(Severity.ERROR, "parse/syntax", err.message + found, span)
                )
                self.recover()

    def recover(self) -> None:
        """Skip to the next top-level keyword that starts a line."""
        while (tok := self.peek()) is not None:
            if tok.kind == "id" and tok.text in STATEMENTS and self.starts_line():
                return
            self.advance()

    def starts_line(self) -> bool:
        """Whether the next token is the first token on its line."""
        return self.pos == 0 or self.tokens[self.pos - 1].line < self.tokens[self.pos].line

    def statement(self, model: StpaModel) -> None:
        """Read the statement at a keyword by walking the keyword's `STATEMENTS` row."""
        start = self.advance()
        row = STATEMENTS[start.text]
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
