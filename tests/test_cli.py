import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stpalint import cli, load_corpus, parse
from stpalint.corpus import CORPUS_FILES, corpus_paths

from conftest import REPO_ROOT


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus_args():
    return [str(p) for p in corpus_paths()]


@pytest.fixture()
def corpus_copy(tmp_path):
    for path in corpus_paths():
        shutil.copy(path, tmp_path / path.name)
    return [str(tmp_path / name) for name in CORPUS_FILES]


# -- check --------------------------------------------------------------------


def test_check_corpus_exits_clean(corpus_args):
    code, out, err = run_cli(["check", *corpus_args])
    assert code == 0
    assert out == ""
    # informational diagnostics still print
    assert "info[trace/uca-without-cf]" in err
    assert "error" not in err and "warning" not in err


def test_check_reports_errors_with_positions(tmp_path):
    bad = tmp_path / "bad.stpa"
    bad.write_text('hazard H-1 "h" leads_to [L-9]\n', encoding="utf-8")
    code, _, err = run_cli(["check", str(bad)])
    assert code == 2
    assert f"{bad}:1:1: error[resolve/unresolved-ref]: unresolved loss L-9" in err


def test_check_warning_exit_code_and_quiet_flag(tmp_path):
    src = tmp_path / "warn.stpa"
    src.write_text(
        'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\nhazard H-2 "never cited" leads_to [L-1]\n'
        'controller C-1 "c"\nprocess P-1 "p"\naction AC-1 "a" from C-1 to P-1\n'
        'feedback FB-1 "f" from P-1 to C-1\n'
        'uca UCA-1 action = AC-1 guide = NotProvided hazards [H-1] "d"\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(["check", str(src)])
    assert code == 1
    assert "warning[trace/orphan-hazard]" in err
    code, _, _ = run_cli(["check", "--quiet-warnings", str(src)])
    assert code == 0


# -- exit codes ---------------------------------------------------------------


def test_missing_file_exits_3(tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "nope.stpa")])
    assert code == 3
    assert "cannot read" in err


def test_invalid_utf8_exits_3(tmp_path):
    bad = tmp_path / "bad.stpa"
    bad.write_bytes(b'loss L-1 "\xff"\n')
    for command in (["check"], ["trace"], ["fmt"]):
        code, out, err = run_cli([*command, str(bad)])
        assert code == 3
        assert out == ""
        assert err == f"stpalint: cannot read {bad}: not valid UTF-8\n"
    assert bad.read_bytes() == b'loss L-1 "\xff"\n'


def test_report_command_on_broken_model_exits_3(tmp_path):
    bad = tmp_path / "bad.stpa"
    bad.write_text('hazard H-1 "h" leads_to [L-9]\n', encoding="utf-8")
    code, out, err = run_cli(["trace", str(bad)])
    assert code == 3
    assert out == ""
    assert "error[resolve/unresolved-ref]" in err


def test_unknown_subcommand_exits_64():
    code, _, _ = run_cli(["bogus"])
    assert code == 64


def test_unknown_flag_exits_64(corpus_args):
    code, _, _ = run_cli(["check", "--bogus-flag", *corpus_args])
    assert code == 64


def test_missing_required_option_exits_64(corpus_args):
    code, _, _ = run_cli(["contexts", *corpus_args])
    assert code == 64


def test_checklist_unknown_uca_exits_3(corpus_args):
    code, _, err = run_cli(["checklist", "--uca", "UCA-99", *corpus_args])
    assert code == 3
    assert "unknown uca" in err


# -- contexts -----------------------------------------------------------------


def test_contexts_csv_to_stdout(corpus_args):
    code, out, _ = run_cli(
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd", *corpus_args]
    )
    assert code == 0
    assert len(out.splitlines()) == 65


def test_contexts_output_file(corpus_args, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        [
            "contexts",
            "--controller",
            "Operator",
            "--action",
            "BrakeCmd",
            "--output",
            str(target),
            *corpus_args,
        ]
    )
    assert code == 0 and out == ""
    assert len(target.read_text(encoding="utf-8").splitlines()) == 65


def test_contexts_row_guard_exits_2(corpus_args):
    code, _, err = run_cli(
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd", "--max-rows", "10", *corpus_args]
    )
    assert code == 2
    assert "would have 64 rows" in err


def test_contexts_row_guard_from_environment(corpus_args, monkeypatch):
    monkeypatch.setenv("STPA_MAX_ROWS", "10")
    code, _, err = run_cli(["contexts", "--controller", "Operator", "--action", "BrakeCmd", *corpus_args])
    assert code == 2
    assert "limit 10" in err


def test_contexts_flag_overrides_environment(corpus_args, monkeypatch):
    monkeypatch.setenv("STPA_MAX_ROWS", "10")
    code, _, _ = run_cli(
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd", "--max-rows", "100", *corpus_args]
    )
    assert code == 0


def test_non_numeric_max_rows_env_is_ignored(corpus_args, monkeypatch):
    monkeypatch.setenv("STPA_MAX_ROWS", "lots")
    code, _, err = run_cli(["contexts", "--controller", "Operator", "--action", "BrakeCmd", *corpus_args])
    assert code == 0
    assert "ignoring non-numeric STPA_MAX_ROWS" in err


# -- report formats -----------------------------------------------------------


def test_worksheet_json_format(corpus_args):
    code, out, _ = run_cli(["worksheet", "--action", "BrakeCmd", "--format", "json", *corpus_args])
    assert code == 0
    payload = json.loads(out)
    assert payload["stpa_schema"] == 1
    assert payload["action"] == "BrakeCmd"
    assert len(payload["ucas"]) == 17


def test_trace_json_format(corpus_args):
    code, out, _ = run_cli(["trace", "--format", "json", *corpus_args])
    assert code == 0
    assert json.loads(out)["stpa_schema"] == 1


def test_checklist_md_and_json(corpus_args):
    code, out, _ = run_cli(["checklist", "--uca", "UCA-1", *corpus_args])
    assert code == 0
    assert out.startswith("# Causal-factor checklist for UCA-1")
    code, out, _ = run_cli(["checklist", "--uca", "UCA-1", "--format", "json", *corpus_args])
    payload = json.loads(out)
    assert payload["uca"] == "UCA-1"
    assert len(payload["items"]) == 19


def test_stats_json(corpus_args):
    code, out, _ = run_cli(["stats", "--format", "json", *corpus_args])
    assert json.loads(out)["ucas"] == 17


def test_graph_command(corpus_args):
    from stpalint.report import check_dot

    code, out, _ = run_cli(["graph", *corpus_args])
    assert code == 0
    assert check_dot(out) == []


# -- fmt ----------------------------------------------------------------------


def test_fmt_rewrites_in_place_and_is_idempotent(corpus_copy):
    code, _, _ = run_cli(["fmt", *corpus_copy])
    assert code == 0
    first = {name: open(name, encoding="utf-8").read() for name in corpus_copy}
    assert all(text.startswith("# stpa model (canonical format)\n") for text in first.values())
    code, _, _ = run_cli(["fmt", *corpus_copy])
    assert code == 0
    second = {name: open(name, encoding="utf-8").read() for name in corpus_copy}
    assert first == second


def test_fmt_preserves_model_meaning(corpus_copy):
    before, diags = parse([(n, open(n, encoding="utf-8").read()) for n in corpus_copy])
    assert diags == []
    run_cli(["fmt", *corpus_copy])
    after, diags = parse([(n, open(n, encoding="utf-8").read()) for n in corpus_copy])
    assert diags == []
    assert after == before


def test_fmt_drops_comments_but_keeps_statements(tmp_path):
    src = tmp_path / "m.stpa"
    src.write_text('# explanatory comment\nloss   L-1    "spaced oddly"\n', encoding="utf-8")
    run_cli(["fmt", str(src)])
    assert src.read_text(encoding="utf-8") == (
        '# stpa model (canonical format)\n\nloss L-1 "spaced oddly"\n'
    )


def test_fmt_leaves_a_repeated_context_variable_untouched(corpus_copy):
    ucas = next(name for name in corpus_copy if name.endswith("ucas_brake.stpa"))
    with open(ucas, encoding="utf-8") as f:
        text = f.read()
    assert 'context { Motion = "Moving"' in text
    text = text.replace('context { Motion = "Moving"', 'context { Motion = "Stopped" Motion = "Moving"', 1)
    with open(ucas, "w", encoding="utf-8") as f:
        f.write(text)
    code, _, err = run_cli(["fmt", *corpus_copy])
    assert code == 3
    assert "error[parse/duplicate-context-variable]" in err
    with open(ucas, encoding="utf-8") as f:
        assert f.read() == text


# -- corpus loader ------------------------------------------------------------


def test_load_corpus_honors_env_override(monkeypatch, tmp_path, corpus_copy):
    monkeypatch.setenv("STPA_CORPUS_DIR", str(tmp_path))
    model, diags = load_corpus()
    assert diags == []
    assert len(model.ucas) == 17


def test_corpus_paths_point_into_repo():
    for path in corpus_paths():
        assert path.is_file()
        assert REPO_ROOT in path.parents
