"""Command-line entry point: parse, analyze, report.

Behaves like a compiler front end: diagnostics go to stderr in
`file:line:col: severity[rule]: message` form, reports go to stdout (or
--output), and the exit code reflects the worst diagnostic severity.

Exit codes: 0 clean, 1 warnings only, 2 errors, 3 input unusable or output
unwritable, 64 usage.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace

from .model import AnalysisError, Diagnostic, EdgeKind, ModelIndex, Severity, trace_closure
from .parser import parse_index, read_source

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


def _positive_int(text: str) -> int:
    """`text` as a positive int, or argparse.ArgumentTypeError with the message argparse prints."""
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value > 0:
            return value
        message = f"must be positive: {text!r}"
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


def build_parser():
    """argparse's parser for COMMANDS, which `run` uses for help and usage errors only."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):
            if file is sys.stdout:  # help: argparse would drop a failed write, and exit 0
                _write(None, message)
            else:
                super()._print_message(message, file)

    parser = _ArgumentParser(prog="stpalint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("inputs", nargs="+", help="input .stpa files")
        for name, kind, default, option_help in options:
            if kind is bool:
                cmd.add_argument(name, action="store_true", help=option_help)
            else:
                choices, kind = (kind, None) if isinstance(kind, tuple) else (None, kind)
                required, default = (True, None) if default is ... else (False, default)
                cmd.add_argument(name, type=kind, choices=choices, required=required, default=default, help=option_help)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a well-formed `argv`, or None to leave `argv` to argparse.

    Well formed: a command, then one run of inputs and the command's options,
    each at most once and named in full, with a valid value in the next word,
    and the required ones present. No value or input starts with "-".
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    kinds = {name: kind for name, kind, _, _ in options}
    given, inputs, after_inputs = {}, [], False
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if after_inputs:  # inputs split by an option
                return None
            inputs.append(word)
            continue
        after_inputs, kind = bool(inputs), kinds.get(word)
        if kind is None or word in given:
            return None
        if kind is bool:
            given[word] = True
            continue
        value = next(words, "-")
        if value.startswith("-") or (isinstance(kind, tuple) and value not in kind):
            return None
        try:
            given[word] = value if isinstance(kind, tuple) else kind(value)
        except Exception:  # `_positive_int`'s ArgumentTypeError; argparse words the error
            return None
    if not inputs or any(default is ... and name not in given for name, _, default, _ in options):
        return None
    values = {name[2:].replace("-", "_"): given.get(name, default) for name, _, default, _ in options}
    return SimpleNamespace(command=argv[0], inputs=inputs, **values)


class _Unusable(Exception):
    """An input or output file, or an id an option names, cannot be used; the message goes to stderr, exit 3."""


def _silence(stream) -> None:
    """Point `stream` at os.devnull, so the flush of what is left in it at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _tell(lines) -> None:
    """Write `lines` to stderr in one write; raise _Unusable if stderr cannot be written."""
    try:
        sys.stderr.write("".join(f"{line}\n" for line in lines))
        sys.stderr.flush()
    except OSError as err:
        _silence(sys.stderr)
        raise _Unusable(f"cannot write <stderr>: {err.strerror}") from None


def _diagnostic_lines(diags: list[Diagnostic]):
    for diag in diags:
        yield diag.format()
        for message, span in diag.related:
            yield f"{span.file}:{span.line_start}:{span.col_start}: note: {message}"


def _load(inputs: list[str]) -> tuple[ModelIndex, list[Diagnostic]]:
    sources = []
    for name in inputs:
        try:
            sources.append((name, read_source(name)))
        except OSError as err:
            raise _Unusable(f"cannot read {name}: {err.strerror}") from None
        except UnicodeDecodeError:
            raise _Unusable(f"cannot read {name}: not valid UTF-8") from None
    return parse_index(sources)


def _batches(strings: Iterable[str]) -> Iterator[str]:
    """`strings` joined into pieces of 64 KiB or more but the last: to an unbuffered stdout, each is one system call."""
    batch, size = [], 0
    for text in strings:
        batch.append(text)
        size += len(text)
        if size >= 1 << 16:
            yield "".join(batch)
            batch, size = [], 0
    if batch:
        yield "".join(batch)


def _write(output: Path | None, text: str | Iterable[str], rewrite: bool = False) -> None:
    """Write `text`, or the strings it yields, to stdout or to `output`, losing no file's text if the write fails.

    An `output` that is the file of stdout or stderr is written through that stream, and one that names an open
    descriptor (`/dev/fd/N`) through that descriptor, so the text around it stays, unless `rewrite` says it is an
    input that `fmt` rewrites; an existing regular file (through symlinks) is replaced by a complete temporary file
    beside it with its permission bits; a new file is removed if its write fails; anything else, such as a FIFO,
    is written in place.
    """
    chunks = [text] if isinstance(text, str) else _batches(text)
    streams = {} if rewrite else {"/dev/stdout": sys.stdout, "/dev/stderr": sys.stderr}
    stream = sys.stdout if output is None else next((streams[n] for n in streams if _same_file(output, n)), None)
    try:
        if stream is None and not rewrite and str(output.parent) in ("/dev/fd", "/proc/self/fd") and output.exists():
            stream = open(int(output.name), "w", encoding="utf-8", closefd=False)  # the open descriptor it names
        if stream is not None:
            stream.writelines(chunks)
            stream.flush()
        elif not output.is_file():
            new = not os.path.lexists(output)
            try:
                with output.open("w", encoding="utf-8") as f:
                    f.writelines(chunks)
            except BaseException:
                if new:
                    output.unlink(missing_ok=True)
                raise
        else:
            import tempfile

            target = output.resolve()
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.writelines(chunks)
                os.chmod(tmp, os.stat(target).st_mode & 0o7777)  # its permission bits
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
    except (OSError, UnicodeEncodeError) as err:
        if stream is not None:
            _silence(stream)
        if isinstance(err, UnicodeEncodeError):
            reason = f"the {err.encoding} encoding cannot represent {err.object[err.start:err.end]!r}"
        else:
            reason = err.strerror
        raise _Unusable(f"cannot write {'<stdout>' if output is None else output}: {reason}") from None


def _same_file(a: Path, b: str) -> bool:
    """Whether `a` and `b` name one file, through symlinks and hard links; False if either cannot be found."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _max_rows(args, default: int) -> int:
    if args.max_rows is not None:
        return args.max_rows
    env = os.environ.get("STPA_MAX_ROWS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            _tell([f"stpalint: ignoring non-numeric STPA_MAX_ROWS={env!r}"])
        else:
            if value > 0:
                return value
            _tell([f"stpalint: ignoring non-positive STPA_MAX_ROWS={env!r}"])
    return default


def _check(index: ModelIndex, diags: list[Diagnostic], args) -> int:
    from . import causal

    diags = [*diags, *trace_closure(index), *causal.open_loop(index), *causal.validate_cfs(index)]
    _tell(_diagnostic_lines(diags))
    severities = {d.severity for d in diags}
    if Severity.ERROR in severities:
        return EXIT_ERRORS
    if Severity.WARNING in severities and not args.quiet_warnings:
        return EXIT_WARNINGS
    return EXIT_OK


def _control_action(index: ModelIndex, action: str, controller: str | None = None) -> None:
    """Raise _Unusable unless `action` is a control-action edge, issued by `controller` if one is given."""
    edge = index.ids["edges"].get(action)
    if edge is None or edge.kind is not EdgeKind.CONTROL_ACTION:
        raise _Unusable(f"unknown action {action}")
    if controller is not None and edge.source != controller:
        raise _Unusable(f"action {action} is not issued by controller {controller}")


def _contexts(index: ModelIndex, args) -> Iterable[str]:
    from . import analysis, report

    _control_action(index, args.action, args.controller)
    max_rows = _max_rows(args, analysis.DEFAULT_MAX_ROWS)
    table = analysis.build_context_table(index.model, args.controller, args.action, max_rows=max_rows)
    return report.context_csv_lines(table)


def _worksheet(index: ModelIndex, args):
    _control_action(index, args.action)
    if args.format == "json":
        return {"action": args.action, "ucas": index.model.ucas_on(args.action)}
    from . import report

    return report.render_worksheet(index, args.action)


def _trace(index: ModelIndex, args):
    if args.format == "json":
        return index.model
    from . import report

    return report.trace_matrix_lines(index)


def _checklist(index: ModelIndex, args):
    from . import causal

    uca = index.ids["ucas"].get(args.uca)
    if uca is None:
        raise _Unusable(f"unknown uca {args.uca}")
    items = causal.checklist(index, uca)
    if args.format == "json":
        return {"uca": args.uca, "items": items}
    from . import report

    return report.render_checklist(items, args.uca)


def _graph(index: ModelIndex, args) -> str:
    from . import report

    return report.render_graph(index.model)


def _stats(index: ModelIndex, args):
    from . import analysis

    if args.format == "json":
        return analysis.stats(index.model)
    from . import report

    return report.render_stats(index.model)


_ACTION = ("--action", str, ..., None)
_FORMAT = ("--format", ("md", "json"), "md", None)
_OUTPUT = ("--output", Path, None, None)

# The command line, declared once: command -> (help, options, report), in the
# order `--help` lists them. An option is (name, kind, default, help). Its
# kind is bool for a flag, str, Path, _positive_int, or a tuple of the
# choices; a default of ... makes it required. Every command also takes one
# or more input files. A report takes the model's index and the arguments,
# returns the text, or its pieces, for stdout or --output, and imports
# `report`, `analysis` and `causal` only as far as it runs them; with
# `--format json` it returns the record or dict that `run` writes through
# `jsondoc`. `check` and `fmt` have no report: `run` runs them itself.
# `build_parser` builds argparse's parser from this table, and `_read_argv`
# reads a well-formed command line by the table alone.
COMMANDS = {
    "check": ("run all diagnostics", [("--quiet-warnings", bool, False, "warnings do not affect the exit code")], None),
    "contexts": (
        "emit the context table of one (controller, action) pair as CSV",
        [
            ("--controller", str, ..., None),
            _ACTION,
            ("--max-rows", _positive_int, None, "combinatorial guard override"),
            _OUTPUT,
        ],
        _contexts,
    ),
    "worksheet": ("emit the guide-word worksheet of one action", [_ACTION, _FORMAT, _OUTPUT], _worksheet),
    "trace": ("emit traceability matrices", [_FORMAT, _OUTPUT], _trace),
    "checklist": (
        "emit the causal-factor checklist of one uca", [("--uca", str, ..., None), _FORMAT, _OUTPUT], _checklist
    ),
    "graph": ("emit the control structure as DOT", [_OUTPUT], _graph),
    "stats": ("emit summary counts", [_FORMAT, _OUTPUT], _stats),
    "fmt": ("rewrite input files in canonical form", [], None),
}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        index, diags = _load(args.inputs)
        if args.command == "check":
            return _check(index, diags, args)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:  # the other commands need a usable model
            _tell(_diagnostic_lines(errors))
            return EXIT_INPUT
        if args.command == "fmt":
            from . import printer

            for name in args.inputs:  # a FIFO or a device would be written in place
                if not Path(name).is_file():
                    raise _Unusable(f"cannot write {name}: not a regular file")
            texts = printer.serialize_files(index.model, args.inputs)
            for name in args.inputs:
                try:  # a canonical file is left alone: it keeps its inode, so its links, xattrs and mtime
                    canonical = Path(name).read_bytes() == texts[name].encode("utf-8")
                except OSError:
                    canonical = False  # the write reports the error
                if not canonical:
                    _write(Path(name), texts[name], rewrite=True)
        else:
            if args.output is not None and any(_same_file(args.output, name) for name in args.inputs):
                raise _Unusable(f"cannot write {args.output}: it is an input file")
            text = COMMANDS[args.command][2](index, args)
            if getattr(args, "format", None) == "json":
                from .jsondoc import document

                text = document(text)
            _write(args.output, text)
    except SystemExit as err:  # argparse printed help or a usage error
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    except _Unusable as err:
        code, failure = EXIT_INPUT, err
    except AnalysisError as err:
        code, failure = EXIT_ERRORS, err
    else:
        return EXIT_OK
    try:
        _tell([f"stpalint: {failure}"])
    except _Unusable:  # stderr cannot be written
        return EXIT_INPUT
    return code


def main() -> None:
    code = run()
    # interpreter shutdown's collections then skip what the command left; `run`
    # does not freeze, for in process a frozen heap would never be collected
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
