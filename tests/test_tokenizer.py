"""The master-regex tokenizer against the character-loop oracle.

`parser_oracle` walks the text one character at a time. The regex tokenizer
must give the same tokens, spans, line starts and diagnostics, in the same
order, on any text.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parser_oracle
from stpalint import parser
from stpalint.corpus import corpus_dir

# Pieces that exercise every lexeme and its edges: escapes, a backslash
# before a newline, whitespace that is and is not skipped, comments,
# identifier characters that may not start an identifier, and keywords.
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
]

texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
)


def _lex(module, text):
    diags = []
    tokens = module.tokenize("t.stpa", text, diags)
    return tokens, diags


def starts_line_flags(tokens):
    """What `recover` reads as "first on its line", for each token."""
    reader = parser._FileParser("t.stpa", tokens, [])
    flags = []
    for pos in range(len(tokens)):
        reader.pos = pos
        flags.append(reader.starts_line())
    return flags


def assert_matches_oracle(text):
    tokens, diags = _lex(parser, text)
    expected, expected_diags = _lex(parser_oracle, text)
    assert [tuple(t) for t in tokens] == [
        (t.kind, t.text, t.line, t.col, t.end_col) for t in expected
    ]
    assert all(t.end_line == t.line for t in expected)
    assert starts_line_flags(tokens) == [t.first_on_line for t in expected]
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
    lexeme = parser._LEXEME
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    bad_start = [c for c in chars if (lexeme.match(c).lastgroup == "id") != (c.isalnum() or c == "_")]
    bad_continue = [
        c for c in chars if (lexeme.match("a" + c).end() == 2) != (c.isalnum() or c in "_-")
    ]
    assert bad_start == [] and bad_continue == []
