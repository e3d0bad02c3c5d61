"""Parser for the `.stpa` textual model format.

A master-regex tokenizer and a recursive-descent parser with statement-level
error recovery: on a syntax fault the parser reports a diagnostic and skips
ahead to the next top-level keyword that starts a line. Parsing never
fabricates declarations; every declaration in the output carries the span
of its source statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

ENTITY_KEYWORDS = {
    "controller": EntityKind.CONTROLLER,
    "sensor": EntityKind.SENSOR,
    "actuator": EntityKind.ACTUATOR,
    "process": EntityKind.CONTROLLED_PROCESS,
    "environment": EntityKind.ENVIRONMENT,
}

EDGE_KEYWORDS = {
    "action": EdgeKind.CONTROL_ACTION,
    "feedback": EdgeKind.FEEDBACK,
}

TOP_KEYWORDS = (
    {"loss", "hazard", "constraint", "variable", "uca", "cf", "controller_constraint"}
    | set(ENTITY_KEYWORDS)
    | set(EDGE_KEYWORDS)
)

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

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect_id(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "id":
            raise _ParseError(f"expected {what}", tok)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "id" or tok.text != word:
            raise _ParseError(f"expected keyword {word!r}", tok)
        return self.advance()

    def expect_string(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "string":
            raise _ParseError(f"expected {what} string", tok)
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "punct" or tok.text != ch:
            raise _ParseError(f"expected {ch!r}", tok)
        return self.advance()

    def match_keyword(self, word: str) -> bool:
        return self._match("id", word)

    def match_punct(self, ch: str) -> bool:
        return self._match("punct", ch)

    def _match(self, kind: str, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == kind and tok.text == text:
            self.advance()
            return True
        return False

    def id_list(self) -> list[str]:
        """Bracketed, comma-separated id list; empty list accepted (resolve flags it)."""
        self.expect_punct("[")
        if self.match_punct("]"):
            return []
        ids = [self.expect_id("identifier").text]
        while self.match_punct(","):
            ids.append(self.expect_id("identifier").text)
        self.expect_punct("]")
        return ids

    def string_list(self) -> list[str]:
        self.expect_punct("[")
        items = [self.expect_string("signal label").text]
        while self.match_punct(","):
            items.append(self.expect_string("signal label").text)
        self.expect_punct("]")
        return items

    def token_span(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.path, tok.line, tok.col, tok.line, tok.end_col)

    def span_from(self, start: Token) -> SourceSpan:
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        return SourceSpan(self.path, start.line, start.col, last.line, last.end_col)

    # -- statements ---------------------------------------------------------

    def parse_into(self, builder: "_ModelBuilder") -> None:
        while not self.at_end():
            tok = self.peek()
            if tok.kind != "id" or tok.text not in TOP_KEYWORDS:
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
                self.statement(tok.text, builder)
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
        while not self.at_end():
            tok = self.peek()
            if tok.kind == "id" and tok.text in TOP_KEYWORDS and self.starts_line():
                return
            self.advance()

    def starts_line(self) -> bool:
        """Whether the next token is the first token on its line."""
        return self.pos == 0 or self.tokens[self.pos - 1].line < self.tokens[self.pos].line

    def statement(self, keyword: str, builder: "_ModelBuilder") -> None:
        start = self.advance()
        if keyword == "loss":
            name = self.expect_id("loss id").text
            desc = self.expect_string("description").text
            builder.model.losses.append(Loss(name, desc, span=self.span_from(start)))
        elif keyword == "hazard":
            name = self.expect_id("hazard id").text
            desc = self.expect_string("description").text
            self.expect_keyword("leads_to")
            refs = self.id_list()
            builder.model.hazards.append(Hazard(name, desc, refs, span=self.span_from(start)))
        elif keyword == "constraint":
            name = self.expect_id("constraint id").text
            desc = self.expect_string("description").text
            self.expect_keyword("mitigates")
            refs = self.id_list()
            builder.model.constraints.append(
                SystemConstraint(name, desc, refs, span=self.span_from(start))
            )
        elif keyword in ENTITY_KEYWORDS:
            kind = ENTITY_KEYWORDS[keyword]
            name = self.expect_id("entity id").text
            label = self.expect_string("label").text
            builder.model.entities.append(Entity(name, kind, label, span=self.span_from(start)))
        elif keyword in EDGE_KEYWORDS:
            kind = EDGE_KEYWORDS[keyword]
            name = self.expect_id("edge id").text
            label = self.expect_string("label").text
            self.expect_keyword("from")
            source = self.expect_id("source entity id").text
            self.expect_keyword("to")
            target = self.expect_id("target entity id").text
            via = self.id_list() if self.match_keyword("via") else []
            signals = self.string_list() if self.match_keyword("signals") else []
            builder.model.edges.append(
                Edge(name, kind, label, source, target, via, signals, span=self.span_from(start))
            )
        elif keyword == "variable":
            name = self.expect_id("variable id").text
            self.expect_keyword("of")
            owner = self.expect_id("owner entity id").text
            label = self.expect_string("label").text
            self.expect_punct("{")
            values = [self.expect_string("value label").text]
            while self.match_punct(","):
                values.append(self.expect_string("value label").text)
            self.expect_punct("}")
            builder.model.variables.append(
                ProcessModelVariable(name, owner, label, values, span=self.span_from(start))
            )
        elif keyword == "uca":
            self.uca_statement(start, builder)
        elif keyword == "cf":
            name = self.expect_id("causal factor id").text
            self.expect_keyword("category")
            self.expect_punct("=")
            cat_tok = self.expect_id("causal factor category")
            try:
                category = CfCategory(cat_tok.text)
            except ValueError:
                raise _ParseError(f"unknown causal factor category {cat_tok.text!r}", cat_tok) from None
            self.expect_keyword("at")
            located_at = self.expect_id("entity or edge id").text
            self.expect_keyword("for")
            ucas = self.id_list()
            desc = self.expect_string("description").text
            builder.model.causal_factors.append(
                CausalFactor(name, category, located_at, ucas, desc, span=self.span_from(start))
            )
        elif keyword == "controller_constraint":
            name = self.expect_id("controller constraint id").text
            self.expect_keyword("from")
            derived_from = self.expect_id("uca id").text
            desc = self.expect_string("description").text
            builder.model.controller_constraints.append(
                ControllerConstraint(name, derived_from, desc, span=self.span_from(start))
            )
        else:  # pragma: no cover - dispatch covers all TOP_KEYWORDS
            raise _ParseError(f"unhandled keyword {keyword!r}", start)

    def uca_statement(self, start: Token, builder: "_ModelBuilder") -> None:
        name = self.expect_id("uca id").text
        self.expect_keyword("action")
        self.expect_punct("=")
        action = self.expect_id("action edge id").text
        self.expect_keyword("guide")
        self.expect_punct("=")
        guide_tok = self.expect_id("guide category")
        try:
            category = GuideCategory(guide_tok.text)
        except ValueError:
            raise _ParseError(f"unknown guide category {guide_tok.text!r}", guide_tok) from None
        qualifier = None
        if self.match_keyword("qualifier"):
            self.expect_punct("=")
            qual_tok = self.expect_id("guide qualifier")
            try:
                qualifier = GuideQualifier(qual_tok.text)
            except ValueError:
                raise _ParseError(f"unknown guide qualifier {qual_tok.text!r}", qual_tok) from None
        assignments: dict[str, str] = {}
        if self.match_keyword("context"):
            self.expect_punct("{")
            first: dict[str, Token] = {}
            while self.peek() and self.peek().kind == "id":
                var_tok = self.advance()
                self.expect_punct("=")
                value = self.expect_string("value label").text
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
        self.expect_keyword("hazards")
        hazards = self.id_list()
        desc = self.expect_string("description").text
        builder.ucas.append(
            UnsafeControlAction(
                name,
                action,
                "",  # source controller filled in from the action edge after all files parse
                GuideWord(category, qualifier),
                Context(assignments),
                hazards,
                desc,
                span=self.span_from(start),
            )
        )


class _ModelBuilder:
    def __init__(self) -> None:
        self.model = StpaModel()
        self.ucas: list[UnsafeControlAction] = []

    def finish(self) -> StpaModel:
        edges = self.model.edge_ids()
        for uca in self.ucas:
            edge = edges.get(uca.action)
            if edge is not None:
                uca.source_controller = edge.source
            self.model.ucas.append(uca)
        return self.model


def parse(source_files: list[tuple[str, str]]) -> tuple[StpaModel, list[Diagnostic]]:
    """Parse one or more `.stpa` sources into a single model.

    Files concatenate in the given order; duplicate detection and reference
    resolution run across the merged model. On zero error diagnostics the
    returned model passes `resolve` cleanly.
    """
    diags: list[Diagnostic] = []
    builder = _ModelBuilder()
    for path, text in source_files:
        tokens = tokenize(path, text, diags)
        _FileParser(path, tokens, diags).parse_into(builder)
    model = builder.finish()
    diags.extend(resolve(model))
    return model, diags
