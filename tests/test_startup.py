"""Pins on what a command pays before its analysis.

Each pin runs in a fresh interpreter, so `sys.modules` holds only what the
package and the command imported there. The child prints its findings as a
Python literal on its last line of stdout.
"""

import ast
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from stpalint.corpus import CORPUS_FILES, corpus_paths

from conftest import REPO_ROOT
from test_complexity import wide


def child(code, *argv, flags=()):
    """Run `code` in a fresh interpreter that imports the package from this checkout; return the process.

    `flags` go to the interpreter, before `-c`.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_child(code, *argv, flags=()):
    """Run `code` in a fresh interpreter and return the literal on its last stdout line."""
    proc = child(code, *argv, flags=flags)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


# Runs the CLI on argv, then prints the exit code and which of the watched
# modules the run loaded.
LOADED_BY_RUN = """
    import sys

    WATCHED = (
        "stpalint.canonical",
        "stpalint.report",
        "stpalint.jsondoc",
        "stpalint.printer",
        "stpalint.corpus",
        "stpalint.analysis",
        "stpalint.causal",
        "json",
        "csv",
        "dataclasses",
        "inspect",
    )
    before = {name for name in WATCHED if name in sys.modules}
    from stpalint import cli

    code = cli.run(sys.argv[1:])
    print((code, sorted(name for name in WATCHED if name in sys.modules and name not in before)))
"""


def test_check_loads_no_report_printer_corpus_json_or_csv():
    code, loaded = run_child(LOADED_BY_RUN, "check", *map(str, corpus_paths()))
    assert code in (0, 1)
    assert loaded == ["stpalint.causal"]  # not `analysis`, `dataclasses`, `inspect` or the line patterns


def test_only_an_input_with_many_lines_of_a_keyword_loads_the_line_patterns(tmp_path):
    # `wide(200)` opens 400 lines with `uca` and 400 with `cf`; the corpus at most 30 with any keyword
    path = tmp_path / "wide.stpa"
    path.write_text(wide(200), encoding="utf-8")
    code, loaded = run_child(LOADED_BY_RUN, "check", str(path))
    assert code in (0, 1)
    assert loaded == ["stpalint.canonical", "stpalint.causal"]


@pytest.mark.parametrize("command", [["check"], ["stats", "--format", "json"]], ids=" ".join)
def test_a_well_formed_command_line_loads_no_argparse_and_no_file_helpers(command):
    # -S: `site` may load some of these itself
    loaded = run_child("""
        import sys

        from stpalint import cli

        cli.run(sys.argv[1:])
        print(sorted({"argparse", "gettext", "locale", "encodings.utf_8_sig", "tempfile", "shutil"} & set(sys.modules)))
    """, *command, *map(str, corpus_paths()), flags=["-S"])
    assert loaded == []


def test_trace_closure_lives_in_model_and_analysis_names_the_same_function():
    loaded, same = run_child("""
        import sys

        import stpalint

        stpalint.trace_closure
        loaded = sorted(name for name in sys.modules if name.startswith("stpalint."))
        from stpalint import analysis, model

        print((loaded, analysis.trace_closure is model.trace_closure))
    """)
    assert loaded == ["stpalint.model"]
    assert same


def test_fmt_loads_the_printer_but_not_report(tmp_path):
    for path in corpus_paths():
        shutil.copy(path, tmp_path / path.name)
    code, loaded = run_child(LOADED_BY_RUN, "fmt", *(str(tmp_path / name) for name in CORPUS_FILES))
    assert code == 0
    assert loaded == ["stpalint.printer"]  # not `report`, the analyses, `dataclasses` or `inspect`


# report command -> the renderer, the analysis modules, and `csv`, that it
# loads; none loads `dataclasses` or `inspect`. A `--format json` document
# comes from `jsondoc`, which loads neither `report` nor `json`; `graph`,
# `worksheet` and `trace` run neither analysis module, and only `contexts`
# loads `csv`
REPORT_LOADS = {
    ("graph",): ["stpalint.report"],
    ("worksheet", "--action", "BrakeCmd"): ["stpalint.report"],
    ("worksheet", "--action", "BrakeCmd", "--format", "json"): ["stpalint.jsondoc"],
    ("trace",): ["stpalint.report"],
    ("trace", "--format", "json"): ["stpalint.jsondoc"],
    ("stats",): ["stpalint.analysis", "stpalint.report"],
    ("stats", "--format", "json"): ["stpalint.analysis", "stpalint.jsondoc"],
    ("checklist", "--uca", "UCA-1"): ["stpalint.causal", "stpalint.report"],
    ("checklist", "--uca", "UCA-1", "--format", "json"): ["stpalint.causal", "stpalint.jsondoc"],
    ("contexts", "--controller", "Operator", "--action", "BrakeCmd"): ["csv", "stpalint.analysis", "stpalint.report"],
}


@pytest.mark.parametrize("argv", sorted(REPORT_LOADS), ids=" ".join)
def test_each_report_command_loads_only_the_analyses_it_runs(argv, tmp_path):
    code, loaded = run_child(LOADED_BY_RUN, *argv, "--output", str(tmp_path / "out"), *map(str, corpus_paths()))
    assert code == 0
    watched = ("stpalint.report", "stpalint.jsondoc", "stpalint.analysis", "stpalint.causal", "json", "csv")
    assert [name for name in loaded if name in watched] == REPORT_LOADS[argv]
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_package_exports_resolve_to_their_home_modules():
    listed, loaded_by_import, loaded_by_error, mismatched, elsewhere, star = run_child("""
        import importlib
        import sys

        import stpalint

        listed = [name for name in stpalint.__all__ if name not in dir(stpalint)]
        loaded_by_import = sorted(name for name in sys.modules if name.startswith("stpalint."))
        stpalint.AnalysisError
        loaded_by_error = sorted(name for name in sys.modules if name.startswith("stpalint."))
        mismatched = [
            name
            for name in stpalint.__all__
            if getattr(stpalint, name) is not getattr(importlib.import_module("stpalint." + stpalint._HOME[name]), name)
        ]
        # a name defined in one module and imported into another is listed under the first
        elsewhere = [
            name
            for name in stpalint.__all__
            if getattr(getattr(stpalint, name), "__module__", None) not in (None, "stpalint." + stpalint._HOME[name])
        ]
        namespace = {}
        exec("from stpalint import *", namespace)
        star = sorted(set(stpalint.__all__) - set(namespace))
        print((listed, loaded_by_import, loaded_by_error, mismatched, elsewhere, star))
    """)
    assert listed == []  # dir() lists every export before its first use
    assert loaded_by_import == []  # `import stpalint` loads no submodule
    assert loaded_by_error == ["stpalint.model"]  # `AnalysisError` lives in `model`
    assert mismatched == []
    assert elsewhere == []
    assert star == []


def test_check_writes_its_diagnostics_to_stderr_in_one_write():
    # one warning per unreachable loss: about as many lines as a wide model gives
    writes, lines, code = run_child("""
        import io
        import sys
        import tempfile

        from stpalint import cli

        class CountingStderr(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/losses.stpa"
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(f'loss L-{i} "x"\\n' for i in range(3000))
            sys.stderr = err = CountingStderr()
            code = cli.run(["check", path])
            sys.stderr = sys.__stderr__
        print((err.writes, err.getvalue().count("\\n"), code))
    """)
    assert (writes, lines, code) == (1, 3000, 1)


def test_contexts_writes_its_table_to_stdout_in_few_writes():
    # 2^11 rows: one string per row would be 2,049 writes, and with an
    # unbuffered stdout 2,049 system calls
    writes, lines, code = run_child("""
        import io
        import sys
        import tempfile

        from stpalint import cli

        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/planner.stpa"
            with open(path, "w", encoding="utf-8") as f:
                f.write('controller C "C"\\nprocess P "P"\\naction A "A" from C to P\\n')
                f.writelines(f'variable V{i} of C "V{i}" {{"off", "on"}}\\n' for i in range(11))
            sys.stdout = out = CountingStdout()
            code = cli.run(["contexts", "--controller", "C", "--action", "A", path])
            sys.stdout = sys.__stdout__
        print((out.writes, out.getvalue().count("\\n"), code))
    """)
    assert (lines, code) == (2**11 + 1, 0)
    assert writes <= 3


def test_trace_json_writes_its_document_to_stdout_in_few_writes(tmp_path):
    # about 2,000 top-level list elements, each one piece of the document: one
    # write per piece would be 2,000 system calls to an unbuffered stdout
    path = tmp_path / "wide.stpa"
    path.write_text(wide(200), encoding="utf-8")
    writes, size, pieces, code = run_child("""
        import io
        import json
        import sys

        from stpalint import cli

        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        sys.stdout = out = CountingStdout()
        code = cli.run(["trace", "--format", "json", sys.argv[1]])
        sys.stdout = sys.__stdout__
        document = json.loads(out.getvalue())
        pieces = sum(len(value) for value in document.values() if isinstance(value, list))
        print((out.writes, len(out.getvalue()), pieces, code))
    """, str(path))
    assert code == 0 and pieces > 2000
    assert writes <= size // 2**16 + 1


# Runs the CLI through RUN, with an exit hook that prints whether the heap
# was frozen by then.
FREEZE_AT_EXIT = """
    import atexit
    import gc
    import sys

    from stpalint import cli

    atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
    RUN
"""


@pytest.mark.parametrize("command", [["check"], ["graph"]], ids=" ".join)
def test_main_freezes_the_heap_and_changes_no_output(command):
    # a frozen heap is skipped by the collections of interpreter shutdown
    argv = [*command, *map(str, corpus_paths())]
    via_run = child(FREEZE_AT_EXIT.replace("RUN", "sys.exit(cli.run())"), *argv)
    via_main = child(FREEZE_AT_EXIT.replace("RUN", "cli.main()"), *argv)
    assert via_run.stdout.endswith("frozen at exit: False\n")
    assert via_main.stdout == via_run.stdout.replace("frozen at exit: False", "frozen at exit: True")
    assert (via_main.returncode, via_main.stderr) == (via_run.returncode, via_run.stderr)
    assert via_main.returncode in ((0, 1) if command == ["check"] else (0,))


def test_run_in_process_leaves_the_heap_unfrozen(tmp_path):
    # tests and library users call `run` in process, where a frozen heap would never be collected
    codes, frozen = run_child("""
        import gc
        import sys

        from stpalint import cli

        out, *paths = sys.argv[1:]
        codes = [cli.run(["check", *paths]), cli.run(["stats", "--output", out, *paths])]
        print((codes, gc.get_freeze_count()))
    """, str(tmp_path / "stats.md"), *map(str, corpus_paths()))
    assert codes[1] == 0
    assert frozen == 0
