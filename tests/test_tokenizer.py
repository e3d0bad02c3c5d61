"""The word tokenizer against the character-loop oracle.

`parser_oracle` walks the text one character at a time. The tokenizer must
give the same tokens, and the parser's position helpers the same places and
line starts, with the same diagnostics in the same order, on any text.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parser_oracle
from conftest import lex
from stpalint import parser
from stpalint.corpus import corpus_dir

# Pieces that exercise every lexeme and its edges: escapes, a backslash
# before a newline, whitespace that is and is not skipped, comments,
# identifier characters that may not start an identifier, and keywords;
# and the places the position helper must find without a scan of the
# line and with one: CRLF line ends, a `#` inside a string, an unexpected
# character as the first and as the last word of a line, two statements on
# one line, and a statement split across lines.
_FRAGMENTS = [
    *"\r \t\x0c\xa0é²#\"\\=,[]{}@\n-_a1",
    "\\\n",
    "\\n",
    '\\"',
    "\\\\",
    "# note",
    "loss",
    "hazard",
    "uca",
    "L-1",
    "\r\n",
    '"a # b"',
    "\n@ loss",
    "L-1 @\n",
    'loss L-1 "x" loss L-2 "y"',
    'hazard H-1\n  "x" leads_to\n\t[L-1]',
]

texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
)


def assert_matches_oracle(text):
    tokens, diags = lex(text, "t.stpa")
    expected_diags = []
    expected = parser_oracle.tokenize("t.stpa", text, expected_diags)
    assert tokens == [(t.kind, t.text, t.line, t.col, t.end_col, t.first_on_line) for t in expected]
    assert all(t.end_line == t.line for t in expected)
    assert diags == expected_diags


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts)
def test_tokenizer_matches_oracle(text):
    assert_matches_oracle(text)


def test_tokenizer_matches_oracle_on_corpus():
    paths = sorted(corpus_dir().glob("*.stpa"))
    assert len(paths) == 6
    for path in paths:
        assert_matches_oracle(path.read_text(encoding="utf-8"))


def test_identifier_classes_on_every_code_point():
    # the parser takes a token for an identifier by its first character, so
    # the word pattern must start one exactly where that character is an
    # identifier character, and continue one exactly over those and "-"
    word = parser._WORD
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    bad_start = [
        c for c in chars if c not in ' \t\r\n"#' and (word.match(c + "a")[0] == c + "a") != (c.isalnum() or c == "_")
    ]
    bad_continue = [c for c in chars if (word.match("a" + c).end() == 2) != (c.isalnum() or c in "_-")]
    assert bad_start == [] and bad_continue == []


class _CountingWord:
    """`parser._WORD`, keeping each line its `finditer` matches."""

    def __init__(self, word):
        self.word = word
        self.findall = word.findall
        self.lines = []

    def finditer(self, line):
        self.lines.append(line)
        return self.word.finditer(line)


def test_each_line_is_matched_once_to_place_its_tokens(monkeypatch):
    lines = ['loss L-1 "a"  # note', "loss @ L-2", '  "b" loss L-3 "c', "", 'hazard H-1 "h"', "  leads_to [L-1]"]
    word = _CountingWord(parser._WORD)
    monkeypatch.setattr(parser, "_WORD", word)
    reader = parser._FileParser("t.stpa", "\n".join(lines), [])
    # the lines with a comment, an unexpected character or an unclosed string
    assert word.lines == lines[:3]
    reader.span(9, 11)  # a whole plain line
    assert word.lines == lines[:3]
    for _ in range(2):
        for i in range(len(reader.tokens) - 1):
            reader.place(i)
    assert word.lines == lines[:3] + lines[4:]
