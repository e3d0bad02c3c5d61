from stpalint import (
    EdgeKind,
    EntityKind,
    GuideCategory,
    GuideQualifier,
    Severity,
    SourceSpan,
    parse,
)
from stpalint.parser import tokenize


def parse_one(text, name="test.stpa"):
    return parse([(name, text)])


def errors(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


def test_empty_source_is_an_empty_model():
    model, diags = parse_one("")
    assert diags == []
    assert model.losses == [] and model.ucas == []


def test_comments_and_blank_lines_ignored():
    model, diags = parse_one("# heading\n\nloss L-1 \"a loss\"  # trailing\n")
    assert diags == []
    assert [l.id for l in model.losses] == ["L-1"]


def test_spans_cover_the_statement():
    model, diags = parse_one('# c\nloss L-1 "a loss"\n')
    span = model.losses[0].span
    assert (span.file, span.line_start, span.col_start) == ("test.stpa", 2, 1)
    assert (span.line_end, span.col_end) == (2, 17)


def test_string_escapes_round_trip_to_values():
    model, diags = parse_one('loss L-1 "line\\nbreak \\"quoted\\" back\\\\slash\\ttab"\n')
    assert diags == []
    assert model.losses[0].description == 'line\nbreak "quoted" back\\slash\ttab'


def test_unknown_escape_is_kept_verbatim():
    model, _ = parse_one('loss L-1 "a\\qb"\n')
    assert model.losses[0].description == "aqb"


def test_unterminated_string_is_reported():
    _, diags = parse_one('loss L-1 "no closing quote\n')
    assert any(d.rule == "parse/unterminated-string" for d in diags)


def test_unexpected_character_is_reported_and_skipped():
    model, diags = parse_one('@\nloss L-1 "ok"\n')
    assert any(d.rule == "parse/unexpected-character" for d in diags)
    assert [l.id for l in model.losses] == ["L-1"]


def test_unknown_keyword_recovers_at_next_statement():
    model, diags = parse_one('bogus thing\nloss L-1 "ok"\n')
    assert any(d.rule == "parse/unknown-keyword" for d in diags)
    assert [l.id for l in model.losses] == ["L-1"]


def test_syntax_error_recovers_at_next_line_start_keyword():
    text = 'hazard H-1 "broken" leads_to\nloss L-1 "ok"\nhazard H-2 "fine" leads_to [L-1]\n'
    model, diags = parse_one(text)
    syntax = [d for d in diags if d.rule == "parse/syntax"]
    assert len(syntax) == 1
    assert [h.id for h in model.hazards] == ["H-2"]
    assert [l.id for l in model.losses] == ["L-1"]


def test_recovery_skips_continuation_lines():
    # the broken statement spills onto a second line; recovery must skip it
    text = 'uca broken action =\n  [H-1] "continuation line"\nloss L-1 "ok"\n'
    model, diags = parse_one(text)
    assert len(errors(diags)) == 1
    assert [l.id for l in model.losses] == ["L-1"]


def test_empty_leads_to_list_parses_but_fails_resolve():
    model, diags = parse_one('loss L-1 "a"\nhazard H-1 "x" leads_to []\n')
    assert [h.id for h in model.hazards] == ["H-1"]
    msgs = [d.message for d in errors(diags)]
    assert "hazard must reference at least one loss" in msgs


def test_entity_kinds_and_boundary_defaults():
    model, diags = parse_one('controller C-1 "c"\nenvironment E-1 "e"\n')
    assert diags == []
    kinds = {e.id: (e.kind, e.in_system_boundary) for e in model.entities}
    assert kinds["C-1"] == (EntityKind.CONTROLLER, True)
    assert kinds["E-1"] == (EntityKind.ENVIRONMENT, False)


def test_edge_with_via_and_signals():
    text = (
        'controller C-1 "c"\nprocess P-1 "p"\nactuator A-1 "a"\n'
        'action AC-1 "cmd" from C-1 to P-1 via [A-1] signals ["s1", "s2"]\n'
    )
    model, diags = parse_one(text)
    assert diags == []
    edge = model.edges[0]
    assert edge.kind is EdgeKind.CONTROL_ACTION
    assert edge.via == ["A-1"]
    assert edge.signals == ["s1", "s2"]
    assert edge.chain() == ["C-1", "A-1", "P-1"]


def test_uca_fills_source_controller_from_action_edge():
    text = (
        'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\n'
        'controller C-1 "c"\nprocess P-1 "p"\n'
        'action AC-1 "cmd" from C-1 to P-1\n'
        'variable V-1 of C-1 "v" {"a", "b"}\n'
        'uca UCA-1 action = AC-1 guide = WrongTiming qualifier = TooLate '
        'context { V-1 = "a" } hazards [H-1] "too late"\n'
    )
    model, diags = parse_one(text)
    assert diags == []
    uca = model.ucas[0]
    assert uca.source_controller == "C-1"
    assert uca.guide.category is GuideCategory.WRONG_TIMING
    assert uca.guide.qualifier is GuideQualifier.TOO_LATE
    assert uca.context.assignments == {"V-1": "a"}


def test_uca_source_fills_even_when_edge_is_in_a_later_file():
    files = [
        ("a.stpa", 'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\n'
                   'uca UCA-1 action = AC-1 guide = NotProvided hazards [H-1] "d"\n'),
        ("b.stpa", 'controller C-1 "c"\nprocess P-1 "p"\naction AC-1 "cmd" from C-1 to P-1\n'),
    ]
    model, diags = parse(files)
    assert diags == []
    assert model.ucas[0].source_controller == "C-1"


def test_unknown_guide_category_is_a_syntax_error():
    _, diags = parse_one('uca U action = A guide = Sideways hazards [H-1] "d"\n')
    assert any("unknown guide category" in d.message for d in errors(diags))


def test_unknown_cf_category_is_a_syntax_error():
    _, diags = parse_one('cf CF-1 category = Wrong at X for [U] "d"\n')
    assert any("unknown causal factor category" in d.message for d in errors(diags))


def test_duplicate_ids_across_files():
    files = [("a.stpa", 'loss L-1 "one"\n'), ("b.stpa", 'loss L-1 "two"\n')]
    model, diags = parse(files)
    dup = [d for d in diags if d.rule == "resolve/duplicate-id"]
    assert len(dup) == 1
    assert dup[0].span.file == "b.stpa"
    assert dup[0].related[0][1].file == "a.stpa"


def test_diagnostic_positions_are_one_based():
    _, diags = parse_one('loss L-1 "a"\nloss L-1 "b"\n')
    dup = next(d for d in diags if d.rule == "resolve/duplicate-id")
    assert dup.format().startswith("test.stpa:2:1: error[resolve/duplicate-id]:")


def test_repeated_context_variable_is_an_error_at_the_second_assignment():
    text = (
        'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\n'
        'controller C-1 "c"\nprocess P-1 "p"\n'
        'action AC-1 "cmd" from C-1 to P-1\n'
        'variable Motion of C-1 "m" {"Stopped", "Moving"}\n'
        'uca UCA-1 action = AC-1 guide = NotProvided '
        'context { Motion = "Stopped" Motion = "Moving" } hazards [H-1] "d"\n'
    )
    model, diags = parse_one(text)
    assert [d.rule for d in diags] == ["parse/duplicate-context-variable"]
    diag = diags[0]
    assert diag.severity is Severity.ERROR
    assert diag.format() == (
        "test.stpa:7:74: error[parse/duplicate-context-variable]: "
        "context variable Motion is assigned more than once"
    )
    assert [(note, span.line_start, span.col_start) for note, span in diag.related] == [
        ("first assigned here", 7, 55)
    ]
    # the statement is kept with its first value, so later references still resolve
    assert model.ucas[0].context.assignments == {"Motion": "Stopped"}


def lex(text):
    diags = []
    tokens = tokenize("test.stpa", text, diags)
    return [tuple(t) for t in tokens], diags


def test_lone_backslash_before_newline_is_kept_in_an_unterminated_string():
    tokens, diags = lex('loss L-1 "a\\\nloss')
    assert tokens[2] == ("string", "a\\", 1, 10, 12)
    assert tokens[3] == ("id", "loss", 2, 1, 4)
    assert [(d.rule, d.span) for d in diags] == [
        ("parse/unterminated-string", SourceSpan("test.stpa", 1, 10, 1, 12))
    ]


def test_lone_backslash_at_end_of_file_is_kept_in_an_unterminated_string():
    tokens, diags = lex('"a\\')
    assert tokens == [("string", "a\\", 1, 1, 3)]
    assert [(d.rule, d.span) for d in diags] == [
        ("parse/unterminated-string", SourceSpan("test.stpa", 1, 1, 1, 3))
    ]


def test_tab_and_carriage_return_each_take_one_column():
    tokens, diags = lex('\tloss\r L-1 "x"\r\n')
    assert diags == []
    assert [(t[1], t[3], t[4]) for t in tokens] == [("loss", 2, 5), ("L-1", 8, 10), ("x", 12, 14)]


def test_form_feed_and_no_break_space_are_unexpected_characters():
    tokens, diags = lex('\x0closs L-1\xa0"x"\n')
    assert [t[1] for t in tokens] == ["loss", "L-1", "x"]
    assert [(d.rule, d.message, d.span.col_start, d.span.col_end) for d in diags] == [
        ("parse/unexpected-character", "unexpected character '\\x0c'", 1, 1),
        ("parse/unexpected-character", "unexpected character '\\xa0'", 10, 10),
    ]


def test_recovery_stops_at_a_keyword_after_an_unexpected_character():
    # `@` is no token, so `loss` is still the first token on its line
    model, diags = parse_one('hazard H-1 "broken" leads_to\n@ loss L-2 "x"\n')
    assert [d.rule for d in diags] == ["parse/unexpected-character", "parse/syntax"]
    assert [l.id for l in model.losses] == ["L-2"]


# -- what a syntax error says it found ----------------------------------------


def test_a_string_found_for_a_punctuation_is_named_as_a_string():
    _, diags = parse_one('hazard H-1 "x" leads_to "L-1"\n')
    assert [d.format() for d in diags] == [
        "test.stpa:1:25: error[parse/syntax]: expected '[', found string \"L-1\""
    ]


def test_a_string_at_the_top_level_is_named_as_a_string_with_its_escapes():
    _, diags = parse_one('"say \\"hi\\"" loss L-1 "x"\n')
    assert [d.format() for d in diags] == [
        'test.stpa:1:1: error[parse/unknown-keyword]: expected a declaration keyword, found string "say \\"hi\\""'
    ]


def test_an_unknown_causal_factor_category_is_named_once():
    _, diags = parse_one('cf CF-1 category = Nope at X for [U] "d"\n')
    assert [d.format() for d in diags] == [
        "test.stpa:1:20: error[parse/syntax]: unknown causal factor category 'Nope'"
    ]


def test_an_unknown_guide_category_is_named_once():
    _, diags = parse_one('uca U action = A guide = Sideways hazards [H-1] "d"\n')
    assert [d.format() for d in diags] == [
        "test.stpa:1:26: error[parse/syntax]: unknown guide category 'Sideways'"
    ]


def test_an_unknown_guide_qualifier_is_named_once():
    _, diags = parse_one('uca U action = A guide = WrongTiming qualifier = Soon hazards [H-1] "d"\n')
    assert [d.format() for d in diags] == [
        "test.stpa:1:50: error[parse/syntax]: unknown guide qualifier 'Soon'"
    ]


# -- blanks in front of a lexeme ----------------------------------------------


def test_blanks_before_the_end_of_the_text_make_no_token():
    assert lex("loss \t\r ") == ([("id", "loss", 1, 1, 4)], [])
    assert lex(" \t") == ([], [])
    assert lex("") == ([], [])


def test_blanks_before_a_comment_make_no_token():
    assert lex("loss \t# note\n  L-1") == ([("id", "loss", 1, 1, 4), ("id", "L-1", 2, 3, 5)], [])


def test_blanks_before_an_unexpected_character_are_skipped():
    tokens, diags = lex("loss \t@")
    assert tokens == [("id", "loss", 1, 1, 4)]
    assert [(d.rule, d.span) for d in diags] == [
        ("parse/unexpected-character", SourceSpan("test.stpa", 1, 7, 1, 7))
    ]


def test_blanks_before_an_unterminated_string_at_end_of_file():
    tokens, diags = lex('loss  "abc')
    assert tokens == [("id", "loss", 1, 1, 4), ("string", "abc", 1, 7, 10)]
    assert [(d.rule, d.span) for d in diags] == [
        ("parse/unterminated-string", SourceSpan("test.stpa", 1, 7, 1, 10))
    ]


def test_columns_after_leading_tabs():
    tokens, diags = lex('\t\tloss\t"x"\n\tL-1 =')
    assert diags == []
    assert tokens == [
        ("id", "loss", 1, 3, 6),
        ("string", "x", 1, 8, 10),
        ("id", "L-1", 2, 2, 4),
        ("punct", "=", 2, 6, 6),
    ]
