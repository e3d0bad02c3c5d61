import errno
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stpalint import cli, load_corpus, parse
from stpalint.corpus import CORPUS_FILES, corpus_paths

from conftest import GOLDEN_DIR, REPO_ROOT
from dot_check import check_dot


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
    # input paths may contain any word, so look for the diagnostic tags only
    for line in err.splitlines():
        assert ": error[" not in line and ": warning[" not in line, line


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


def test_output_in_a_missing_directory_exits_3(corpus_args, tmp_path):
    target = tmp_path / "missing" / "g.dot"
    code, out, err = run_cli(["graph", "--output", str(target), *corpus_args])
    assert code == 3
    assert out == ""
    assert err == f"stpalint: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


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


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_max_rows_flag_is_a_usage_error(corpus_args, value):
    code, out, err = run_cli(
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd", "--max-rows", value, *corpus_args]
    )
    assert code == 64
    assert out == ""
    assert f"argument --max-rows: must be positive: '{value}'" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_max_rows_env_is_ignored(corpus_args, monkeypatch, value):
    monkeypatch.setenv("STPA_MAX_ROWS", value)
    code, out, err = run_cli(["contexts", "--controller", "Operator", "--action", "BrakeCmd", *corpus_args])
    assert code == 0
    assert err == f"stpalint: ignoring non-positive STPA_MAX_ROWS='{value}'\n"
    assert out == (GOLDEN_DIR / "contexts_brake.csv").read_text(encoding="utf-8")


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


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("trace.json", ["trace", "--format", "json"]),
        ("worksheet_brake.json", ["worksheet", "--action", "BrakeCmd", "--format", "json"]),
        ("checklist_uca1.json", ["checklist", "--uca", "UCA-1", "--format", "json"]),
        ("stats.json", ["stats", "--format", "json"]),
    ],
)
def test_json_output_matches_golden(corpus_args, golden, argv):
    code, out, err = run_cli([*argv, *corpus_args])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_stats_json(corpus_args):
    code, out, _ = run_cli(["stats", "--format", "json", *corpus_args])
    assert json.loads(out)["ucas"] == 17


def test_graph_command(corpus_args):
    code, out, _ = run_cli(["graph", *corpus_args])
    assert code == 0
    assert check_dot(out) == []


def run_cli_process(argv, stdout, stderr=subprocess.PIPE):
    """Run the CLI in a fresh interpreter whose stdout is `stdout` and whose stderr is `stderr`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "stpalint.cli", *argv], stdout=stdout, stderr=stderr, env=env, timeout=60
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stdout_on_a_full_device_exits_3(corpus_args):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(["stats", *corpus_args], full)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: No space left on device\n"


def test_stdout_on_a_closed_pipe_exits_3(corpus_args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(["stats", *corpus_args], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: Broken pipe\n"


@pytest.fixture(params=["clean", "errors", "unknown-uca"])
def stderr_argv(request, corpus_args, tmp_path):
    """A command line that writes to stderr: a clean check, a check with errors, a failing checklist."""
    if request.param == "errors":
        bad = tmp_path / "bad.stpa"
        bad.write_text('hazard H-1 "h" leads_to [L-9]\n', encoding="utf-8")
        return ["check", str(bad)]
    if request.param == "unknown-uca":
        return ["checklist", "--uca", "NOPE", *corpus_args]
    return ["check", *corpus_args]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stderr_on_a_full_device_exits_3(stderr_argv):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(stderr_argv, subprocess.PIPE, full)
    assert proc.returncode == 3
    assert proc.stdout == b""


def test_stderr_on_a_closed_pipe_exits_3(stderr_argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(stderr_argv, subprocess.PIPE, write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stdout == b""


def test_a_byte_order_mark_is_accepted_and_fmt_drops_it(tmp_path, monkeypatch):
    for path in corpus_paths():
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / path.name).write_bytes(prefix + path.read_bytes())
    results, formatted = {}, {}
    for name in ("plain", "bom"):
        monkeypatch.chdir(tmp_path / name)
        results[name] = run_cli(["check", *CORPUS_FILES])
        assert run_cli(["fmt", *CORPUS_FILES])[0] == 0
        formatted[name] = {f: (tmp_path / name / f).read_bytes() for f in CORPUS_FILES}
    assert results["bom"] == results["plain"]
    assert formatted["bom"] == formatted["plain"]
    assert not any(text.startswith(b"\xef\xbb\xbf") for text in formatted["bom"].values())


# -- fmt ----------------------------------------------------------------------


def test_fmt_rewrites_in_place_and_is_idempotent(corpus_copy):
    code, _, _ = run_cli(["fmt", *corpus_copy])
    assert code == 0
    first = {name: Path(name).read_text(encoding="utf-8") for name in corpus_copy}
    assert all(text.startswith("# stpa model (canonical format)\n") for text in first.values())
    code, _, _ = run_cli(["fmt", *corpus_copy])
    assert code == 0
    second = {name: Path(name).read_text(encoding="utf-8") for name in corpus_copy}
    assert first == second


def test_fmt_preserves_model_meaning(corpus_copy):
    before, diags = parse([(n, Path(n).read_text(encoding="utf-8")) for n in corpus_copy])
    assert diags == []
    run_cli(["fmt", *corpus_copy])
    after, diags = parse([(n, Path(n).read_text(encoding="utf-8")) for n in corpus_copy])
    assert diags == []
    assert after == before


def test_fmt_keeps_permission_bits(corpus_copy):
    os.chmod(corpus_copy[0], 0o640)
    code, _, _ = run_cli(["fmt", *corpus_copy])
    assert code == 0
    assert os.stat(corpus_copy[0]).st_mode & 0o777 == 0o640


def test_fmt_writes_through_a_symlink(corpus_copy, tmp_path):
    target = corpus_copy[0]
    os.chmod(target, 0o640)
    link = tmp_path / "link.stpa"
    link.symlink_to(target)
    expected = parse([(str(link), Path(target).read_text(encoding="utf-8"))])[0]
    code, _, err = run_cli(["fmt", str(link), *corpus_copy[1:]])
    assert (code, err) == (0, "")
    assert os.readlink(link) == target
    text = Path(target).read_text(encoding="utf-8")
    assert text.startswith("# stpa model (canonical format)\n")
    assert parse([(str(link), text)])[0] == expected
    assert os.stat(target).st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == sorted([*CORPUS_FILES, "link.stpa"])


def test_fmt_write_failure_leaves_the_file_unchanged(corpus_copy, tmp_path, monkeypatch):
    before = {name: Path(name).read_bytes() for name in corpus_copy}

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli(["fmt", *corpus_copy])
    assert code == 3
    assert out == ""
    assert err == f"stpalint: cannot write {corpus_copy[0]}: Permission denied\n"
    assert {name: Path(name).read_bytes() for name in corpus_copy} == before
    assert sorted(os.listdir(tmp_path)) == sorted(CORPUS_FILES)


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
