"""The rule table `model.RULES`: its severities, where each rule is emitted, and the README catalogue."""

import ast
import re

import pytest

from stpalint import cli, resolve
from stpalint.model import RULES, Severity

from conftest import REPO_ROOT, tiny_model

ERR, WARN, INFO = Severity.ERROR, Severity.WARNING, Severity.INFO

# Written out here, not read from the table, so a changed severity fails a test.
EXPECTED = {
    "parse/unterminated-string": ERR,
    "parse/unexpected-character": ERR,
    "parse/unknown-keyword": ERR,
    "parse/syntax": ERR,
    "parse/duplicate-context-variable": ERR,
    "resolve/bad-identifier": ERR,
    "resolve/duplicate-id": ERR,
    "resolve/empty-description": ERR,
    "resolve/empty-ref-list": ERR,
    "resolve/unresolved-ref": ERR,
    "resolve/duplicate-ref": INFO,
    "resolve/self-loop": ERR,
    "resolve/via-kind": ERR,
    "resolve/variable-owner": ERR,
    "resolve/too-few-values": ERR,
    "resolve/duplicate-value": ERR,
    "resolve/not-a-control-action": ERR,
    "resolve/uca-source-mismatch": ERR,
    "resolve/qualifier-mismatch": ERR,
    "resolve/foreign-context-variable": ERR,
    "resolve/bad-context-value": ERR,
    "trace/orphan-hazard": WARN,
    "trace/unreachable-loss": WARN,
    "trace/uca-without-cf": INFO,
    "trace/constraint-unlinked": WARN,
    "trace/cf-cross-controller": ERR,
    "causal/open-loop": WARN,
    "cf/off-path": ERR,
    "cf/possible-duplicate": WARN,
    "cf/unaddressed-category": INFO,
}


def test_rules_table_holds_each_rule_and_its_severity():
    assert len(EXPECTED) == 30
    assert RULES == EXPECTED


# -- where the rules are emitted ----------------------------------------------

SRC = REPO_ROOT / "src" / "stpalint"
# `diagnostic` is the constructor; `flag` is `resolve`'s local shorthand for
# appending `diagnostic(rule, message, span_of(decl), related)`.
CONSTRUCTORS = {"diagnostic", "flag"}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_emitted_rule_is_in_the_table_and_every_rule_is_emitted():
    emitted = set()
    forwarded = []  # constructor calls whose rule is not a literal
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) in CONSTRUCTORS:
                rule = node.args[0]
                if isinstance(rule, ast.Constant) and isinstance(rule.value, str):
                    emitted.add(rule.value)
                else:
                    forwarded.append((name, _called(node), ast.unparse(rule)))
    assert emitted - set(RULES) == set()
    assert set(RULES) - emitted == set()
    assert forwarded == [("model.py", "diagnostic", "rule")]  # inside `flag`


def test_no_diagnostic_takes_its_severity_from_outside_the_table():
    for name, tree in _trees().items():
        built = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _called(node) == "Diagnostic"]
        assert len(built) == (1 if name == "model.py" else 0), name  # the one in `diagnostic`
        if name not in ("model.py", "cli.py"):  # cli maps severities to exit codes
            named = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "Severity"]
            assert named == [], name


# -- every rule through `check` -----------------------------------------------

BASE = """\
loss L-1 "loss"
hazard H-1 "hazard" leads_to [L-1]
controller C "Controller"
process P "Process"
sensor S "Sensor"
action A "act" from C to P
feedback F "sense" from P to C via [S]
"""
UCA = 'uca U-1 action = A guide = NotProvided hazards [H-1] "u"\n'
VARIABLE = 'variable V of C "v" {"a", "b"}\n'

# rule -> a small model on which `check` emits it
FIXTURE = {
    "parse/unterminated-string": 'loss L-1 "loss\n',
    "parse/unexpected-character": 'loss L-1 "loss" $\n',
    "parse/unknown-keyword": 'risk R-1 "r"\n',
    "parse/syntax": 'loss "loss"\n',
    "parse/duplicate-context-variable": BASE
    + VARIABLE
    + 'uca U-1 action = A guide = NotProvided context { V = "a" V = "b" } hazards [H-1] "u"\n',
    "resolve/bad-identifier": 'loss _L "loss"\n',
    "resolve/duplicate-id": 'loss L-1 "one"\nloss L-1 "two"\n',
    "resolve/empty-description": 'loss L-1 ""\n',
    "resolve/empty-ref-list": 'loss L-1 "loss"\nhazard H-1 "hazard" leads_to []\n',
    "resolve/unresolved-ref": 'hazard H-1 "hazard" leads_to [L-9]\n',
    "resolve/duplicate-ref": BASE + UCA.replace("[H-1]", "[H-1, H-1]"),
    "resolve/self-loop": 'controller C "Controller"\naction A "act" from C to C\n',
    "resolve/via-kind": BASE.replace("via [S]", "via [C]"),
    "resolve/variable-owner": BASE + 'variable V of P "v" {"a", "b"}\n',
    "resolve/too-few-values": BASE + 'variable V of C "v" {"a"}\n',
    "resolve/duplicate-value": BASE + 'variable V of C "v" {"a", "a"}\n',
    "resolve/not-a-control-action": BASE + UCA.replace("action = A", "action = F"),
    "resolve/qualifier-mismatch": BASE + UCA.replace("NotProvided", "NotProvided qualifier = TooLate"),
    "resolve/foreign-context-variable": BASE
    + 'controller D "Other"\nvariable V of D "v" {"a", "b"}\n'
    + 'uca U-1 action = A guide = NotProvided context { V = "a" } hazards [H-1] "u"\n',
    "resolve/bad-context-value": BASE
    + VARIABLE
    + 'uca U-1 action = A guide = NotProvided context { V = "c" } hazards [H-1] "u"\n',
    "trace/orphan-hazard": BASE,
    "trace/unreachable-loss": 'loss L-1 "loss"\n',
    "trace/uca-without-cf": BASE + UCA,
    "trace/constraint-unlinked": BASE + 'constraint SC-1 "c" mitigates [H-1]\n',
    "trace/cf-cross-controller": BASE
    + 'controller D "Other"\naction B "act" from D to P\n'
    + UCA
    + UCA.replace("U-1", "U-2").replace("action = A", "action = B")
    + 'cf CF-1 category = ControlAlgorithm at P for [U-1, U-2] "shared"\n',
    "causal/open-loop": BASE.replace("to C via [S]", "to S") + UCA,
    "cf/off-path": BASE + 'controller D "Other"\n' + UCA + 'cf CF-1 category = ControlAlgorithm at D for [U-1] "off"\n',
    "cf/possible-duplicate": BASE
    + UCA
    + 'cf CF-1 category = ControlAlgorithm at C for [U-1] "Slow"\n'
    + 'cf CF-2 category = ControlAlgorithm at C for [U-1] "slow!"\n',
    "cf/unaddressed-category": BASE + UCA,
}


def test_the_fixture_reaches_every_rule_that_text_can_reach():
    # `parse` sets each UCA's source controller from its action edge, through
    # the same id map `resolve` reads, so no text can make them disagree.
    assert set(RULES) - set(FIXTURE) == {"resolve/uca-source-mismatch"}


@pytest.mark.parametrize("rule", sorted(FIXTURE))
def test_check_emits_the_rule_at_its_severity(rule, tmp_path, capsys):
    src = tmp_path / "model.stpa"
    src.write_text(FIXTURE[rule], encoding="utf-8")
    code = cli.run(["check", str(src)])
    err = capsys.readouterr().err
    assert f": {EXPECTED[rule].value}[{rule}]: " in err
    # each model is small enough that the rule is its gravest diagnostic
    assert code == {ERR: 2, WARN: 1, INFO: 0}[EXPECTED[rule]]


def test_a_model_built_in_code_can_mismatch_its_source_controller():
    m = tiny_model()
    m.ucas[0].source_controller = "P-1"
    lines = [d.format() for d in resolve(m)]
    message = "uca UCA-1 source controller P-1 does not match action source C-1"
    assert [line for line in lines if "[resolve/uca-source-mismatch]" in line] == [
        f"<model>:1:1: error[resolve/uca-source-mismatch]: {message}"
    ]


# -- the README catalogue -----------------------------------------------------


def test_readme_lists_every_rule_with_its_severity():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Rules\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z]+/[a-z-]+)` \| (\w+) \| .+ \|$", section, re.MULTILINE)
    assert len(listed) == len(dict(listed))
    assert {rule: Severity(severity) for rule, severity in listed} == RULES
