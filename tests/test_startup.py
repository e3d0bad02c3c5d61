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

from stpalint.corpus import CORPUS_FILES, corpus_paths

from conftest import REPO_ROOT


def run_child(code, *argv):
    """Run `code` in a fresh interpreter and return the literal on its last stdout line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


# Runs the CLI on argv, then prints the exit code and which of the watched
# modules the run loaded.
LOADED_BY_RUN = """
    import sys

    WATCHED = ("stpalint.report", "stpalint.printer", "stpalint.corpus", "json", "csv")
    before = {name for name in WATCHED if name in sys.modules}
    from stpalint import cli

    code = cli.run(sys.argv[1:])
    print((code, sorted(name for name in WATCHED if name in sys.modules and name not in before)))
"""


def test_check_loads_no_report_printer_corpus_json_or_csv():
    code, loaded = run_child(LOADED_BY_RUN, "check", *map(str, corpus_paths()))
    assert code in (0, 1)
    assert loaded == []


def test_fmt_loads_the_printer_but_not_report(tmp_path):
    for path in corpus_paths():
        shutil.copy(path, tmp_path / path.name)
    code, loaded = run_child(LOADED_BY_RUN, "fmt", *(str(tmp_path / name) for name in CORPUS_FILES))
    assert code == 0
    assert "stpalint.report" not in loaded
    assert "stpalint.printer" in loaded


def test_package_exports_resolve_to_their_home_modules():
    listed, loaded_by_import, mismatched, star = run_child("""
        import importlib
        import sys

        import stpalint

        listed = [name for name in stpalint.__all__ if name not in dir(stpalint)]
        loaded_by_import = sorted(name for name in sys.modules if name.startswith("stpalint."))
        mismatched = [
            name
            for name in stpalint.__all__
            if getattr(stpalint, name) is not getattr(importlib.import_module("stpalint." + stpalint._HOME[name]), name)
        ]
        namespace = {}
        exec("from stpalint import *", namespace)
        print((listed, loaded_by_import, mismatched, sorted(set(stpalint.__all__) - set(namespace))))
    """)
    assert listed == []  # dir() lists every export before its first use
    assert loaded_by_import == []  # `import stpalint` loads no submodule
    assert mismatched == []
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
