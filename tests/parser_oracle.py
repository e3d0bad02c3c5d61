"""Character-loop reference for the tokenizer.

This is the original implementation of `stpalint.parser.tokenize`: it walks
the text one character at a time and tracks line, column and whether a token
is the first on its line as it goes. It serves only as the oracle the
master-regex tokenizer is compared with, so it keeps its own token type and
escape table.
"""

from __future__ import annotations

from dataclasses import dataclass

from stpalint.model import Diagnostic, Severity, SourceSpan

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
