"""Parser for the `.stpa` textual model format.

Hand-written tokenizer and recursive-descent parser with statement-level
error recovery: on a syntax fault the parser reports a diagnostic and skips
ahead to the next top-level keyword that starts a line. Parsing never
fabricates declarations; every declaration in the output carries the span
of its source statement.
"""

from __future__ import annotations

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

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


@dataclass
class Token:
    kind: str  # "id", "string", "punct"
    text: str  # unescaped value for strings
    line: int
    col: int
    end_line: int
    end_col: int
    first_on_line: bool


class _ParseError(Exception):
    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


def tokenize(path: str, text: str, diags: list[Diagnostic]) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    line, col = 1, 1
    first_on_line = True

    def span_here(width: int = 1) -> SourceSpan:
        return SourceSpan(path, line, col, line, col + width - 1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            first_on_line = True
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            i += 1
            col += 1
            parts: list[str] = []
            closed = False
            while i < n and text[i] != "\n":
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                if c == "\\" and i + 1 < n and text[i + 1] != "\n":
                    parts.append(_ESCAPES.get(text[i + 1], text[i + 1]))
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            if not closed:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "parse/unterminated-string",
                        "unterminated string literal",
                        SourceSpan(path, start_line, start_col, line, col - 1),
                    )
                )
            tokens.append(
                Token("string", "".join(parts), start_line, start_col, line, col - 1, first_on_line)
            )
            first_on_line = False
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            word = text[i:j]
            width = j - i
            tokens.append(
                Token("id", word, start_line, start_col, line, col + width - 1, first_on_line)
            )
            i = j
            col += width
            first_on_line = False
            continue
        if ch in "[]{}=,":
            tokens.append(Token("punct", ch, line, col, line, col, first_on_line))
            i += 1
            col += 1
            first_on_line = False
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "parse/unexpected-character",
                f"unexpected character {ch!r}",
                span_here(),
            )
        )
        i += 1
        col += 1
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
        tok = self.peek()
        if tok is not None and tok.kind == "id" and tok.text == word:
            self.advance()
            return True
        return False

    def id_list(self) -> list[str]:
        """Bracketed, comma-separated id list; empty list accepted (resolve flags it)."""
        self.expect_punct("[")
        ids: list[str] = []
        if not (self.peek() and self.peek().kind == "punct" and self.peek().text == "]"):
            ids.append(self.expect_id("identifier").text)
            while self.peek() and self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                ids.append(self.expect_id("identifier").text)
        self.expect_punct("]")
        return ids

    def string_list(self) -> list[str]:
        self.expect_punct("[")
        items = [self.expect_string("signal label").text]
        while self.peek() and self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            items.append(self.expect_string("signal label").text)
        self.expect_punct("]")
        return items

    def span_from(self, start: Token) -> SourceSpan:
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        return SourceSpan(self.path, start.line, start.col, last.end_line, last.end_col)

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
                        SourceSpan(self.path, tok.line, tok.col, tok.end_line, tok.end_col),
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
                    SourceSpan(self.path, at.line, at.col, at.end_line, at.end_col)
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
            if tok.kind == "id" and tok.text in TOP_KEYWORDS and tok.first_on_line:
                return
            self.advance()

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
            builder.model.entities.append(
                Entity(
                    name,
                    kind,
                    label,
                    in_system_boundary=kind is not EntityKind.ENVIRONMENT,
                    span=self.span_from(start),
                )
            )
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
            while self.peek() and self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
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
                            [("first assigned here", SourceSpan(self.path, at.line, at.col, at.end_line, at.end_col))],
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
