"""The table-driven statement parser and printer against the hand-written oracle.

`parser_oracle` reads and writes each statement kind with its own branch.
`stpalint.parser` and `stpalint.printer` read and write every kind from the
rows of `STATEMENTS`. On any text they must give the same model, the same
spans and the same diagnostics, notes included; on any model, the same text.
So must the parser with a line pattern for every keyword and without any.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import parser_oracle
from conftest import split_statements
from stpalint import parser, printer
from stpalint.corpus import corpus_dir
from stpalint.model import SourceSpan, StpaModel
from strategies import models

_SECTIONS = list(StpaModel.__slots__)

_CORPUS_LINES = sorted(
    {line for path in corpus_dir().glob("*.stpa") for line in path.read_text(encoding="utf-8").splitlines()}
)

# Every keyword and literal word of the language, enum spellings valid and
# not, ids, strings with escapes or no closing quote, punctuation, comments
# and line ends, so that soups reach every slot and every recovery path.
_WORDS = [
    *parser.STATEMENTS,
    *"leads_to mitigates from to via signals of action guide qualifier context hazards category at for".split(),
    *"NotProvided WrongTiming TooEarly Excessive ActuationFailure Timing Bogus".split(),
    *"L-1 H-1 C-1 P-1 AC-1 V-1 UCA-1 CF-1 _x 9".split(),
    '"a"',
    '"b \\" c"',
    '"open',
    '"tab\\t"',
    *"= , [ ] { } @ #note",
    "guide = WrongTiming",
    "qualifier = TooLate",
    "qualifier = Bogus",
    "category = Bogus",
    'context { V-1 = "a" V-1 = "b" }',
]
_SEPARATORS = [" ", " ", " ", "\n", "\r\n", "\t", ""]

soups = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=40).map(
    lambda pairs: "".join(word + sep for word, sep in pairs)
)
corpus_texts = st.lists(st.sampled_from(_CORPUS_LINES), min_size=1, max_size=12).map("\n".join)
generated_texts = models().map(parser_oracle.serialize)


@st.composite
def edited(draw, base):
    """`base` text with a few spans deleted or replaced by a fragment."""
    text = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        insert = draw(st.sampled_from(["", *_WORDS, *_SEPARATORS]))
        text = text[:start] + insert + text[end:]
    return text


texts = st.one_of(soups, edited(corpus_texts), edited(generated_texts))
sources = st.lists(texts, min_size=1, max_size=3).map(lambda ts: [(f"f{i}.stpa", t) for i, t in enumerate(ts)])


def spans(model):
    return {section: [d.span for d in getattr(model, section)] for section in _SECTIONS}


def assert_parse_matches_oracle(source_files):
    model, diags = parser.parse(source_files)
    expected, expected_diags = parser_oracle.parse(source_files)
    assert model == expected
    assert spans(model) == spans(expected)
    assert diags == expected_diags
    assert [(d.format(), d.related) for d in diags] == [(d.format(), d.related) for d in expected_diags]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sources)
@example([("f0.stpa", 'uca U action = A guide = WrongTiming qualifier = TooEarly context { V = "a" V = "b" } hazards []')])
@example([("f0.stpa", 'uca U action = A guide = NotProvided hazards [H-1] "d"'), ("f1.stpa", 'action A "a" from C to P')])
@example([("f0.stpa", 'cf CF-1 category = Bogus at C for [U] "d"\nloss L-1 "ok"')])
@example([("f0.stpa", 'uca U action = A guide = WrongTiming qualifier = Bogus hazards [H-1] "d"')])
@example([("f0.stpa", 'action A "a" from C to P via [] signals []\nvariable V of C "v" {}')])
# the span of a statement that is a whole line, and of each case that is not
@example([("f0.stpa", '\t\tloss L-1 "a" \t \nloss L-2 "b"')])
@example([("f0.stpa", 'loss L-1 "a"  # a note\nloss L-2 "b"')])
@example([("f0.stpa", 'loss L-1\n  "a"\nloss L-2 "b"')])
@example([("f0.stpa", 'loss L-1 "a" loss L-2 "b"\n')])
@example([("f0.stpa", 'loss L-1 "a"\r\nhazard H-1 "h" leads_to [L-1]\r\n')])
# each way a token is placed: by the columns `_split` keeps of a line with a
# comment, an unexpected character or an unclosed string (reported in line
# order), by those `place` finds for a plain line, and by the whole-line span
@example([("f0.stpa", 'loss L-1\n  @ "a"  # c\nloss L-2 "b"')])
@example([("f0.stpa", split_statements('hazard H-1 "h" leads_to L-1 x'))])
@example([("f0.stpa", 'loss L-1 "a" uca U action = A guide = NotProvided context { V = "a" V = "b" } hazards [] "d"')])
@example([("f0.stpa", split_statements('controller_constraint CC-1 from U "d'))])
@example([("f0.stpa", 'loss L-1 @ "a"\nloss L-2 "b')])
@example([("f0.stpa", 'uca U action = A guide = NotProvided context { V = "a" V = "b"\n} hazards [] "d"')])
# the parse faults that a random text may not reach
@example([("f0.stpa", 'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1, "x"]')])
@example([("f0.stpa", 'uca U action = A guide = WrongTiming qualifier TooEarly hazards [H-1] "d"')])
@example([("f0.stpa", 'uca U action = A guide = NotProvided context [ ] hazards [H-1] "d"')])
@example([("f0.stpa", 'uca U action = A guide = NotProvided context { V = "a" ] hazards [H-1] "d"')])
def test_parse_matches_oracle(source_files):
    assert_parse_matches_oracle(source_files)


def test_parse_matches_oracle_on_corpus():
    paths = sorted(corpus_dir().glob("*.stpa"))
    assert len(paths) == 6
    for path in paths:
        assert_parse_matches_oracle([(str(path), path.read_text(encoding="utf-8"))])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models(), st.randoms(use_true_random=False))
def test_printer_matches_oracle(model, random):
    assert printer.serialize(model) == parser_oracle.serialize(model)
    # spread the declarations over two files, leaving some without a span
    for section in _SECTIONS:
        for decl in getattr(model, section):
            name = random.choice(["a.stpa", "b.stpa", None])
            decl.span = None if name is None else SourceSpan(name, 1, 1, 1, 1)
    names = ["a.stpa", "b.stpa", "c.stpa"]
    expected = {name: parser_oracle.serialize_file(model, name) for name in names}
    assert {name: printer.serialize_file(model, name) for name in names} == expected
    assert printer.serialize_files(model, names) == expected


def read(source_files, fast_lines):
    """The records, spans and diagnostics, notes included, of `parser.parse` with `FAST_LINES` set to `fast_lines`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "FAST_LINES", fast_lines)
        model, diags = parser.parse(source_files)
    return model, spans(model), diags, [(d.format(), d.related) for d in diags]


def assert_fast_path_matches_reader(source_files):
    assert read(source_files, 0) == read(source_files, math.inf)


def fast_lines_kept(text):
    """How many lines of `text` are fast with a pattern for every keyword, and whether they are kept."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "FAST_LINES", 0)
        reader = parser._FileParser("f0.stpa", text, [], {})
        return len(reader.fast), reader.parse_into(StpaModel())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_fast_path_matches_reader_on_printed_models(model):
    text = printer.serialize(model)
    assert_fast_path_matches_reader([("f0.stpa", text)])
    assert_fast_path_matches_reader([("f0.stpa", split_statements(text))])
    # every statement line but one with an escape in a string is fast, and kept
    statements = [line for line in text.split("\n") if line and not line.startswith("#")]
    assert fast_lines_kept(text) == (sum("\\" not in line for line in statements), True)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sources)
def test_fast_path_matches_reader(source_files):
    assert_fast_path_matches_reader(source_files)


LOSS = 'loss L-1 "l"\n'
CF = 'cf CF-1 category = SensorOperation at S for [U] "d"\n'

# text -> the fast lines of it and whether they are kept
PINNED = {
    LOSS + '"x"\nloss L-2 "b"\n': (2, False),  # a stray string after a fast line
    'feedback F "f" from P to C\nvia [X]\n': (1, False),  # the rest of a fast edge line
    'hazard H-1 "h" leads_to [\n' + CF: (1, False),  # a statement that reads past a fast line
    "cf CF-2 category =\n" + LOSS: (1, False),  # one that reads its keyword as an unknown category
    'hazard H-1 "h" leads_to\n' + CF: (1, True),  # one that fails at its keyword, as the reader alone does
    LOSS + 'hazard H-1 "h" leads_to': (1, True),  # one that fails at the end of the file after it
    LOSS + "@\n" + CF: (2, True),  # an unexpected character, which moves the tokens after it
    LOSS + 'uca U action = A guide = NotProvided context { V = "a" V = "b" } hazards [H-1] "d"\n': (1, True),
    LOSS + 'uca U action = A guide = WrongTiming qualifier = Bogus hazards [H-1] "d"\n': (1, True),
    LOSS + 'cf CF-1 category = Bogus at S for [U] "d"\n': (1, True),
    LOSS + 'loss L-2 "a \\" b"\n': (1, True),
    LOSS + 'loss L-2 "a"  # note\n' + CF: (2, True),
    LOSS + 'loss L-2\n  "a"\n' + CF: (2, True),
    'loss L-1 "a" loss L-2 "b"\n' + LOSS + "\n\n" + CF: (2, True),
}


@pytest.mark.parametrize("text", PINNED)
def test_fast_path_matches_reader_on_pinned_lines(text):
    assert fast_lines_kept(text) == PINNED[text]
    assert_fast_path_matches_reader([("f0.stpa", text)])
