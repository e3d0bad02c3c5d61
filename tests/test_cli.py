import argparse
import errno
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpalint import build_context_table, cli, load_corpus, parse, serialize
from stpalint.corpus import CORPUS_FILES, corpus_paths
from stpalint.model import ModelIndex, StpaModel
from stpalint.parser import parse_index
from stpalint.report import render_context_csv

from conftest import GOLDEN_DIR, REPO_ROOT, planner_model
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


def test_check_corpus_matches_golden(corpus_copy, monkeypatch):
    # as CI runs the console script: from the corpus directory, with relative names
    monkeypatch.chdir(Path(corpus_copy[0]).parent)
    code, out, err = run_cli(["check", *CORPUS_FILES])
    assert (code, out) == (0, "")
    assert err == (GOLDEN_DIR / "check_corpus.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd"],
        ["worksheet", "--action", "BrakeCmd"],
        ["worksheet", "--action", "BrakeCmd", "--format", "json"],
        ["trace"],
        ["trace", "--format", "json"],
        ["checklist", "--uca", "UCA-1"],
        ["checklist", "--uca", "UCA-1", "--format", "json"],
        ["graph"],
        ["stats"],
        ["stats", "--format", "json"],
        ["fmt"],
    ],
)
def test_each_command_builds_one_model_index(argv, corpus_copy, monkeypatch):
    built = []
    build = ModelIndex.__init__

    def counted(self, model):
        built.append(model)
        build(self, model)

    monkeypatch.setattr(ModelIndex, "__init__", counted)
    assert run_cli([*argv, *corpus_copy])[0] == 0
    assert len(built) == 1


def test_check_reads_ucas_by_id_from_the_index(corpus_args, monkeypatch):
    def forbidden(self):
        raise AssertionError("check called StpaModel.uca_ids")

    monkeypatch.setattr(StpaModel, "uca_ids", forbidden)
    assert run_cli(["check", *corpus_args])[:2] == (0, "")


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


def test_check_reports_no_open_loop_for_a_uca_whose_action_names_no_edge(tmp_path):
    src = tmp_path / "dangling.stpa"
    src.write_text(
        'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\n'
        'uca U-1 action = A guide = NotProvided hazards [H-1] "d"\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(["check", str(src)])
    assert code == 2
    assert f"{src}:3:1: error[resolve/unresolved-ref]: unresolved edge A" in err
    assert "causal/open-loop" not in err


REPEATED_REFS = """\
loss L-1 "l"
hazard H-1 "h" leads_to [L-1, L-1, L-1]
constraint SC-1 "c" mitigates [H-1, H-1]
controller C "c"
process P "p"
sensor S "s"
action A "a" from C to P
feedback F "f" from P to C via [S, S]
uca U-1 action = A guide = NotProvided hazards [H-1, H-1] "u"
cf CF-1 category = ControlAlgorithm at C for [U-1, U-1] "cf"
"""


def test_check_flags_each_repeated_reference_once_as_info(tmp_path):
    src = tmp_path / "repeats.stpa"
    src.write_text(REPEATED_REFS, encoding="utf-8")
    code, _, err = run_cli(["check", str(src)])
    assert code == 0  # an info does not change the exit code
    assert [line for line in err.splitlines() if "duplicate-ref" in line] == [
        f"{src}:2:1: info[resolve/duplicate-ref]: loss L-1 is listed 3 times",
        f"{src}:3:1: info[resolve/duplicate-ref]: hazard H-1 is listed 2 times",
        f"{src}:8:1: info[resolve/duplicate-ref]: entity S is listed 2 times",
        f"{src}:9:1: info[resolve/duplicate-ref]: hazard H-1 is listed 2 times",
        f"{src}:10:1: info[resolve/duplicate-ref]: uca U-1 is listed 2 times",
    ]


def test_a_self_loop_is_not_also_a_repeated_reference(tmp_path):
    src = tmp_path / "loop.stpa"
    src.write_text('controller C "c"\naction A "a" from C to C\n', encoding="utf-8")
    _, _, err = run_cli(["check", str(src)])
    assert "resolve/self-loop" in err and "duplicate-ref" not in err


def test_fmt_keeps_repeated_references(tmp_path):
    src = tmp_path / "repeats.stpa"
    src.write_text(REPEATED_REFS, encoding="utf-8")
    assert run_cli(["fmt", str(src)])[0] == 0
    text = src.read_text(encoding="utf-8")
    for listed in ("[L-1, L-1, L-1]", "[H-1, H-1]", "via [S, S]", "for [U-1, U-1]"):
        assert listed in text
    assert run_cli(["check", str(src)])[2].count("duplicate-ref") == 5


def test_check_abstract_structure_alone_is_clean():
    code, out, err = run_cli(["check", str(REPO_ROOT / "corpus" / "structure_abstract.stpa")])
    assert (code, out, err) == (0, "", "")


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


@pytest.mark.parametrize("link", ["plain", "symlink", "hard link"])
def test_output_onto_an_input_exits_3_and_leaves_it_unchanged(corpus_copy, tmp_path, link):
    model = Path(corpus_copy[3])
    target = {"plain": model, "symlink": tmp_path / "link.md", "hard link": tmp_path / "hard.md"}[link]
    if link == "symlink":
        target.symlink_to(model)
    elif link == "hard link":
        os.link(model, target)
    before = model.read_bytes()
    code, out, err = run_cli(["stats", "--output", str(target), *corpus_copy])
    assert (code, out, err) == (3, "", f"stpalint: cannot write {target}: it is an input file\n")
    assert model.read_bytes() == before


# -- reading the command line -------------------------------------------------


PARSER = cli.build_parser()


def argparse_reads(argv):
    """vars() of what argparse makes of `argv`, or None if it prints help or a usage error."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def test_build_parser_declares_the_options_of_the_table():
    (commands,) = [a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(cli.COMMANDS)
    assert [a.help for a in commands._choices_actions] == [help_text for help_text, _, _ in cli.COMMANDS.values()]
    for command, (_, options, _) in cli.COMMANDS.items():
        declared = [
            (a.option_strings, a.dest, a.required, a.default, a.choices, a.type, a.help)
            for a in commands.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert declared == [([], "inputs", True, None, None, None, "input .stpa files")] + [
            (
                [name],
                name[2:].replace("-", "_"),
                default is ...,
                None if default is ... else default,
                kind if isinstance(kind, tuple) else None,
                None if kind is bool or isinstance(kind, tuple) else kind,
                help_text,
            )
            for name, kind, default, help_text in options
        ], command


# words of each kind: some valid, some a usage error, some that start with "-"
VALUES = {
    bool: st.nothing(),
    str: st.sampled_from(["Operator", "BrakeCmd", "UCA-1", "", "a=b", "-x", "--action", "json"]),
    Path: st.sampled_from(["out.md", "", "dir/out.json", "-o", "--output"]),
    cli._positive_int: st.sampled_from(["1", "10", "100000", "0", "-5", "x", "+3", " 7", "1_0", "\u0663", ""]),
}
INPUTS = st.sampled_from(["a.stpa", "b.stpa", "c d.stpa", "check", "", "-", "-x.stpa", "--", "--format"])
STRAY = st.sampled_from(["-h", "--help", "--", "--bogus-flag", "--uca", "--quiet-warnings", "-q", "-5"])


def value_of(kind):
    return st.sampled_from([*kind, "xml", "", "-md"]) if isinstance(kind, tuple) else VALUES[kind]


@st.composite
def option_words(draw, name, kind):
    """`name` written in one of the ways argparse reads it, or a malformed one, with a value."""
    form = draw(st.sampled_from(["exact", "exact", "exact", "abbreviated", "joined", "no value"]))
    spelled = name[: draw(st.integers(3, len(name) - 1))] if form == "abbreviated" else name
    if kind is bool:
        return [spelled] if form != "joined" else [f"{spelled}=x"]
    value = draw(value_of(kind))
    return {"joined": [f"{spelled}={value}"], "no value": [spelled]}.get(form, [spelled, value])


@st.composite
def command_lines(draw):
    """argv around a command of the table: its options in any order, any number of times, inputs and stray words."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h"]))
    inputs = draw(st.lists(INPUTS, max_size=3))
    chunks = [inputs] if draw(st.booleans()) else [[word] for word in inputs]
    for name, kind, _, _ in cli.COMMANDS.get(command, ("", [], None))[1]:
        chunks += [draw(option_words(name, kind)) for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    chunks += [[word] for word in draw(st.lists(STRAY, max_size=1))]
    return [command, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]


@st.composite
def well_formed_command_lines(draw):
    """argv that the reader must read itself: exact options with valid values around one run of inputs."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    chunks = [draw(st.lists(st.sampled_from(["a.stpa", "b.stpa", "c d.stpa", "check", "x=y"]), min_size=1, max_size=3))]
    for name, kind, default, _ in cli.COMMANDS[command][1]:
        if default is ... or draw(st.booleans()):
            if kind is bool:
                chunks.append([name])
            elif isinstance(kind, tuple):
                chunks.append([name, draw(st.sampled_from(kind))])
            elif kind is cli._positive_int:
                chunks.append([name, draw(st.sampled_from(["1", "10", "100000", "+3", " 7", "1_0"]))])
            else:
                chunks.append([name, draw(st.sampled_from(["Operator", "", "a=b", "out.md", "dir/x y"]))])
    return [command, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_the_reader_declines_or_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:  # argparse rejects none of what the reader takes, and reads it the same
        assert vars(read) == argparse_reads(argv)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(well_formed_command_lines())
def test_the_reader_reads_every_well_formed_command_line(argv):
    read = cli._read_argv(argv)
    assert read is not None
    assert vars(read) == argparse_reads(argv)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["contexts", "-h", "a.stpa"]], ids=" ".join)
def test_help_on_a_full_device_exits_3(argv):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(argv, full)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_usage_error_with_a_full_stderr_still_exits_64(corpus_args):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(["check", "--bogus-flag", *corpus_args], subprocess.PIPE, full)
    assert (proc.returncode, proc.stdout) == (64, b"")


def test_stdout_on_a_closed_pipe_exits_3(corpus_args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(["stats", *corpus_args], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["contexts", "--controller", "Operator", "--action", "BrakeCmd"],
        ["trace", "--format", "json"],
        ["worksheet", "--action", "BrakeCmd"],
    ],
)
def test_stdout_that_cannot_encode_the_report_exits_3(argv, corpus_args, monkeypatch):
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")  # the corpus holds non-ASCII text
    proc = run_cli_process([*argv, *corpus_args], subprocess.PIPE)
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"stpalint: cannot write <stdout>: the ascii encoding cannot represent ")
    assert proc.stderr.count(b"\n") == 1


def test_output_file_that_cannot_encode_the_report_exits_3(corpus_args, tmp_path, monkeypatch):
    assert_unencodable_output_exits_3(["worksheet", "--action", "BrakeCmd"], corpus_args, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "argv", [["worksheet", "--action", "BrakeCmd", "--format", "json"], ["trace", "--format", "json"]], ids=" ".join
)
def test_output_file_that_cannot_encode_a_streamed_json_document_exits_3(argv, corpus_args, tmp_path, monkeypatch):
    assert_unencodable_output_exits_3(argv, corpus_args, tmp_path, monkeypatch)


def assert_unencodable_output_exits_3(argv, corpus_args, tmp_path, monkeypatch):
    """`argv` on a model whose first UCA holds a lone surrogate exits 3, keeps an `--output` file, makes none."""
    out = tmp_path / "out.md"
    out.write_bytes(b"my notes")
    new = tmp_path / "new.md"

    def parse_with_surrogate(sources):
        # no UTF-8 input decodes to a lone surrogate, which UTF-8 cannot encode, so only code can put one in a model
        index, diags = parse_index(sources)
        index.model.ucas[0].description += "\udcff"
        return index, diags

    monkeypatch.setattr(cli, "parse_index", parse_with_surrogate)
    code, _, err = run_cli([*argv, "--output", str(out), *corpus_args])
    assert code == 3
    assert err == f"stpalint: cannot write {out}: the utf-8 encoding cannot represent '\\udcff'\n"
    assert out.read_bytes() == b"my notes"
    code, _, err = run_cli([*argv, "--output", str(new), *corpus_args])
    assert code == 3
    assert err == f"stpalint: cannot write {new}: the utf-8 encoding cannot represent '\\udcff'\n"
    assert sorted(tmp_path.iterdir()) == [out]  # no new file, and no temporary one


def test_output_replaces_a_regular_file_through_a_symlink(corpus_args, tmp_path):
    target = tmp_path / "notes.dot"
    target.write_text("old", encoding="utf-8")
    os.chmod(target, 0o640)
    link = tmp_path / "link.dot"
    link.symlink_to(target)
    assert run_cli(["graph", "--output", str(link), *corpus_args]) == (0, "", "")
    assert target.read_bytes() == (GOLDEN_DIR / "graph.dot").read_bytes()
    assert link.is_symlink() and os.stat(target).st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.dot", "notes.dot"]


def test_output_onto_a_fifo_is_written_in_place(corpus_args, tmp_path):
    fifo = tmp_path / "graph.dot"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(["graph", "--output", str(fifo), *corpus_args]) == (0, "", "")
    reader.join(timeout=10)
    assert got == [(GOLDEN_DIR / "graph.dot").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("stream, mode", [("stdout", "wb"), ("stdout", "ab"), ("stderr", "wb")])
def test_output_onto_stdout_or_stderr_keeps_the_text_around_the_report(corpus_args, tmp_path, stream, mode):
    # as `{ echo header; stpalint stats ... --output /dev/stdout; echo footer; } > out.md`, or `>>`, or `2>`
    out = tmp_path / "out.md"
    out.write_bytes(b"old\n")
    with open(out, mode, buffering=0) as f:  # unbuffered: each write lands at the offset the child left
        f.write(b"header\n")
        pipes = (f, subprocess.PIPE) if stream == "stdout" else (subprocess.PIPE, f)
        proc = run_cli_process(["stats", "--output", f"/dev/{stream}", *corpus_args], *pipes)
        f.write(b"footer\n")
    kept = b"old\n" if mode == "ab" else b""
    assert (proc.returncode, proc.stdout or b"", proc.stderr or b"") == (0, b"", b"")
    assert out.read_bytes() == kept + b"header\n" + (GOLDEN_DIR / "stats.md").read_bytes() + b"footer\n"


@pytest.mark.skipif(not os.path.exists("/dev/fd/0") or not shutil.which("sh"), reason="no /dev/fd or no sh")
def test_output_onto_an_open_descriptor_keeps_the_text_around_the_report(corpus_args, tmp_path):
    # `{ echo header >&3; stpalint stats ... --output /dev/fd/3; echo footer >&3; } 3> out.md`, in a fresh shell
    out = tmp_path / "out.md"
    script = '{ echo header >&3; "$@" --output /dev/fd/3; echo footer >&3; } 3> "$OUT"'
    env = {**os.environ, "OUT": str(out), "PYTHONPATH": str(REPO_ROOT / "src")}
    argv = [sys.executable, "-m", "stpalint.cli", "stats", *corpus_args]
    proc = subprocess.run(["sh", "-c", script, "sh", *argv], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == b"header\n" + (GOLDEN_DIR / "stats.md").read_bytes() + b"footer\n"


def test_fmt_replaces_an_input_that_stdout_appends_to(tmp_path):
    # `stpalint fmt m.stpa >> m.stpa` rewrites the input; it does not append the canonical text to it
    src = tmp_path / "m.stpa"
    src.write_text('loss L-1   "a"\n', encoding="utf-8")
    with open(src, "ab") as f:
        proc = run_cli_process(["fmt", str(src)], f)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert src.read_text(encoding="utf-8") == serialize(parse([("m.stpa", 'loss L-1 "a"\n')])[0])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_output_onto_stdout_on_a_full_device_exits_3(corpus_args):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(["stats", "--output", "/dev/stdout", *corpus_args], full)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write /dev/stdout: No space left on device\n"


ACTION_MODEL = """\
controller C "C"
controller D "D"
process P "P"
action A "A" from C to P
action B "B" from D to P
feedback F "F" from P to C
variable V of C "V" {"off", "on"}
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["contexts", "--controller", "C", "--action", "NOPE"], "unknown action NOPE"),
        (["contexts", "--controller", "C", "--action", "F"], "unknown action F"),
        (["contexts", "--controller", "C", "--action", "C"], "unknown action C"),
        (["contexts", "--controller", "C", "--action", "B"], "action B is not issued by controller C"),
        (["contexts", "--controller", "NOPE", "--action", "A"], "action A is not issued by controller NOPE"),
        (["worksheet", "--action", "NOPE"], "unknown action NOPE"),
        (["worksheet", "--action", "F"], "unknown action F"),
        (["worksheet", "--action", "NOPE", "--format", "json"], "unknown action NOPE"),
        (["worksheet", "--action", "F", "--format", "json"], "unknown action F"),
        # an undecodable byte in an argument reaches Python as a lone surrogate
        (["worksheet", "--action", "\udcff"], "unknown action \udcff"),
    ],
)
def test_an_action_that_is_no_control_action_of_the_controller_exits_3(tmp_path, argv, message):
    src = tmp_path / "m.stpa"
    src.write_text(ACTION_MODEL, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli([*argv, "--output", str(out), str(src)])
    assert (code, stdout, err) == (3, "", f"stpalint: {message}\n")
    assert not out.exists()


def test_corpus_rejects_an_unknown_action(corpus_args):
    for argv in (
        ["contexts", "--controller", "Operator", "--action", "NOPE"],
        ["worksheet", "--action", "NOPE"],
        ["worksheet", "--action", "NOPE", "--format", "json"],
    ):
        assert run_cli([*argv, *corpus_args]) == (3, "", "stpalint: unknown action NOPE\n"), argv


@pytest.fixture()
def planner_contexts(tmp_path):
    """argv of `contexts` on the 2^11-row planner model, whose CSV outgrows a pipe buffer, and the CSV."""
    m = planner_model()
    m.ucas = [u for u in m.ucas if u.source_controller == "Planner"]
    src = tmp_path / "planner.stpa"
    src.write_text(serialize(m), encoding="utf-8")
    argv = ["contexts", "--controller", "Planner", "--action", "Plan", str(src)]
    csv = render_context_csv(build_context_table(m, "Planner", "Plan"))
    assert len(csv.encode()) > 2**16
    return argv, csv


def test_contexts_streams_the_whole_csv(planner_contexts, tmp_path):
    argv, csv = planner_contexts
    proc = run_cli_process(argv, subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, csv.encode(), b"")
    proc = run_cli_process([*argv, "--output", str(tmp_path / "out.csv")], subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == csv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_contexts_on_a_full_device_exits_3(planner_contexts):
    with open("/dev/full", "w") as full:
        proc = run_cli_process(planner_contexts[0], full)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: No space left on device\n"


def test_contexts_on_a_closed_pipe_exits_3(planner_contexts):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(planner_contexts[0], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b"stpalint: cannot write <stdout>: Broken pipe\n"


def test_contexts_output_into_a_missing_directory_exits_3(planner_contexts, tmp_path):
    out = tmp_path / "missing" / "out.csv"
    proc = run_cli_process([*planner_contexts[0], "--output", str(out)], subprocess.PIPE)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == f"stpalint: cannot write {out}: No such file or directory\n".encode()
    assert not out.parent.exists()


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


def test_only_one_leading_byte_order_mark_is_dropped(tmp_path):
    src = tmp_path / "marks.stpa"
    src.write_bytes(b'\xef\xbb\xbf\xef\xbb\xbfloss L-1 "a"\nloss L-2 "b" \xef\xbb\xbf\n')
    code, _, err = run_cli(["check", str(src)])
    assert code == 2
    assert [line for line in err.splitlines() if "error[" in line] == [
        f"{src}:1:1: error[parse/unexpected-character]: unexpected character '\\ufeff'",
        f"{src}:2:14: error[parse/unexpected-character]: unexpected character '\\ufeff'",
    ]


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


def test_fmt_leaves_a_canonical_file_alone(corpus_copy, tmp_path):
    """A file already in canonical form keeps its inode: a hard link stays one, and its mtime stays."""
    assert run_cli(["fmt", *corpus_copy]) == (0, "", "")
    canonical = corpus_copy[0]
    link = tmp_path / "link.stpa"
    os.link(canonical, link)
    os.utime(canonical, ns=(10**9, 10**9))
    before = os.stat(canonical)
    assert run_cli(["fmt", *corpus_copy]) == (0, "", "")
    after = os.stat(canonical)
    assert (after.st_ino, after.st_nlink, after.st_mtime_ns) == (before.st_ino, 2, 10**9)
    assert os.path.samefile(link, canonical)


@pytest.mark.parametrize("prefix, newline", [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n")])
def test_fmt_rewrites_a_canonical_text_with_a_byte_order_mark_or_crlf(corpus_copy, prefix, newline):
    assert run_cli(["fmt", *corpus_copy]) == (0, "", "")
    canonical = {name: Path(name).read_bytes() for name in corpus_copy}
    for name, text in canonical.items():
        Path(name).write_bytes(prefix + text.replace(b"\n", newline))
    assert run_cli(["fmt", *corpus_copy]) == (0, "", "")
    assert {name: Path(name).read_bytes() for name in corpus_copy} == canonical


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


def _feed(fifo, data):
    """A started thread that writes `data` to the FIFO `fifo` once a reader opens it."""

    def write():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def test_fmt_refuses_a_fifo_and_a_symlink_to_one(tmp_path):
    regular = tmp_path / "regular.stpa"
    regular.write_text('loss   L-1   "spaced oddly"\n', encoding="utf-8")
    before = regular.read_bytes()
    fifo = tmp_path / "pipe.stpa"
    os.mkfifo(fifo)
    link = tmp_path / "link.stpa"
    link.symlink_to(fifo)
    for name in (fifo, link):
        writer = _feed(fifo, b'loss L-2 "from the pipe"\n')
        code, out, err = run_cli(["fmt", str(regular), str(name)])
        writer.join(timeout=10)
        assert (code, out, err) == (3, "", f"stpalint: cannot write {name}: not a regular file\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert regular.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["link.stpa", "pipe.stpa", "regular.stpa"]


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


def test_load_corpus_drops_a_leading_byte_order_mark(tmp_path, corpus_copy):
    plain = load_corpus(tmp_path)
    purpose = tmp_path / "purpose.stpa"
    purpose.write_bytes(b"\xef\xbb\xbf" + purpose.read_bytes())
    assert load_corpus(tmp_path) == plain
