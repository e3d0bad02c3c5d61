"""Property-based checks over random variable sets, contexts, and models."""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpalint import (
    Context,
    cli,
    context_matches,
    enumerate_contexts,
    expand,
    parse,
    qualifier_allowed,
    resolve,
    serialize,
)
from stpalint.corpus import corpus_paths
from stpalint.model import GuideCategory, GuideQualifier

from strategies import control_structures, models, partial_contexts, variable_sets

relaxed = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@relaxed
@given(variable_sets())
def test_enumeration_cardinality_is_domain_product(variables):
    expected = math.prod(len(v.values) for v in variables)
    assert len(enumerate_contexts(variables)) == expected


@relaxed
@given(variable_sets())
def test_enumerated_contexts_are_total_and_distinct(variables):
    contexts = enumerate_contexts(variables)
    ids = {v.id for v in variables}
    assert len({c.key() for c in contexts}) == len(contexts)
    for context in contexts:
        assert set(context.assignments) == ids


@relaxed
@given(st.data())
def test_expand_equals_brute_force_filter(data):
    variables = data.draw(variable_sets(max_vars=4, max_values=4))
    partial = data.draw(partial_contexts(variables))
    expanded = expand(partial, variables)
    filtered = [c for c in enumerate_contexts(variables) if context_matches(partial, c)]
    assert expanded == filtered


@relaxed
@given(st.data())
def test_expansion_size_is_product_of_free_domains(data):
    variables = data.draw(variable_sets(max_vars=4, max_values=4))
    partial = data.draw(partial_contexts(variables))
    free = [v for v in variables if v.id not in partial.assignments]
    assert len(expand(partial, variables)) == math.prod(len(v.values) for v in free)


@relaxed
@given(st.data())
def test_partial_context_matches_each_of_its_expansions(data):
    variables = data.draw(variable_sets(max_vars=4, max_values=4))
    partial = data.draw(partial_contexts(variables))
    for concrete in expand(partial, variables):
        assert context_matches(partial, concrete)
        assert context_matches(Context({}), concrete)
        assert context_matches(concrete, concrete)


def test_qualifier_legality_is_total():
    for category in GuideCategory:
        for qualifier in list(GuideQualifier) + [None]:
            assert qualifier_allowed(category, qualifier) in (True, False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_random_models_resolve_and_round_trip(model):
    assert resolve(model) == []
    text = serialize(model)
    reparsed, diags = parse([("canon.stpa", text)])
    assert diags == []
    assert reparsed == model
    # canonical form is a fixed point
    assert serialize(reparsed) == text


# -- the command-line contract ------------------------------------------------

_CORPUS_LINES = [line for path in corpus_paths() for line in path.read_text(encoding="utf-8").splitlines()]

_inputs = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=300).map(str.encode),
    st.lists(st.sampled_from(_CORPUS_LINES), max_size=40).map(lambda lines: "\n".join(lines).encode()),
    models().map(lambda m: serialize(m).encode()),
    control_structures().map(lambda m: serialize(m, check=False).encode()),
)

_COMMANDS = [
    ["check"],
    ["contexts", "--controller", "C-1", "--action", "AC-1"],
    ["worksheet", "--action", "AC-1"],
    ["worksheet", "--action", "AC-1", "--format", "json"],
    ["trace"],
    ["trace", "--format", "json"],
    ["checklist", "--uca", "UCA-1"],
    ["checklist", "--uca", "UCA-1", "--format", "json"],
    ["graph"],
    ["stats"],
    ["stats", "--format", "json"],
    ["fmt"],
]


def _run_quietly(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.run(argv)


@relaxed
@given(_inputs)
def test_every_command_returns_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.stpa"
        path.write_bytes(data)
        for command in _COMMANDS:
            assert _run_quietly([*command, str(path)]) in (0, 1, 2, 3, 64)


@relaxed
@given(models(), st.data())
def test_fmt_output_parses_to_the_original_model(model, data):
    """Re-indented, commented, two-file copies of a model survive `fmt`."""
    lines = serialize(model).split("\n")
    cut = data.draw(st.integers(0, len(lines)))
    layout = st.tuples(st.sampled_from(["", " ", "\t  "]), st.sampled_from(["", "  # note", "\t#"]), st.booleans())

    def scramble(part):
        out = []
        for line in part:
            indent, comment, blank = data.draw(layout)
            out += [""] * blank + [indent + line + comment]
        return "\n".join(out) + "\n"

    with tempfile.TemporaryDirectory() as tmp:
        files = [str(Path(tmp) / "a.stpa"), str(Path(tmp) / "b.stpa")]
        texts = [scramble(lines[:cut]), scramble(lines[cut:])]
        for name, text in zip(files, texts):
            Path(name).write_text(text, encoding="utf-8")
        before, diags = parse(list(zip(files, texts)))
        assert diags == []
        assert _run_quietly(["fmt", *files]) == 0
        after, diags = parse([(name, Path(name).read_text(encoding="utf-8")) for name in files])
        assert diags == []
        assert after == before
