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
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

from .model import AnalysisError, Diagnostic, EdgeKind, Severity, StpaModel, trace_closure
from .parser import parse, read_source

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


_FORMAT = ("--format", ("md", "json"), "md", None)
_OUTPUT = ("--output", Path, None, None)

# The command line, declared once: command -> (help, options), in the order
# `--help` lists them. An option is (name, kind, default, help). Its kind is
# bool for a flag, str, Path, _positive_int, or a tuple of the choices; a
# default of ... makes it required. Every command also takes one or more
# input files. `build_parser` builds argparse's parser from this table, and
# `_read_argv` reads a well-formed command line by the table alone.
COMMANDS = {
    "check": ("run all diagnostics", [("--quiet-warnings", bool, False, "warnings do not affect the exit code")]),
    "contexts": (
        "emit the context table of one (controller, action) pair as CSV",
        [
            ("--controller", str, ..., None),
            ("--action", str, ..., None),
            ("--max-rows", _positive_int, None, "combinatorial guard override"),
            _OUTPUT,
        ],
    ),
    "worksheet": ("emit the guide-word worksheet of one action", [("--action", str, ..., None), _FORMAT, _OUTPUT]),
    "trace": ("emit traceability matrices", [_FORMAT, _OUTPUT]),
    "checklist": ("emit the causal-factor checklist of one uca", [("--uca", str, ..., None), _FORMAT, _OUTPUT]),
    "graph": ("emit the control structure as DOT", [_OUTPUT]),
    "stats": ("emit summary counts", [_FORMAT, _OUTPUT]),
    "fmt": ("rewrite input files in canonical form", []),
}


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
    for command, (help_text, options) in COMMANDS.items():
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


def _load(inputs: list[str]) -> tuple[StpaModel, list[Diagnostic]]:
    sources = []
    for name in inputs:
        try:
            sources.append((name, read_source(name)))
        except OSError as err:
            raise _Unusable(f"cannot read {name}: {err.strerror}") from None
        except UnicodeDecodeError:
            raise _Unusable(f"cannot read {name}: not valid UTF-8") from None
    return parse(sources)


def _batches(lines: Iterable[str]) -> Iterator[str]:
    """`lines` joined 1,024 at a time: to an unbuffered stdout, each string written is one system call."""
    lines = iter(lines)
    while batch := list(islice(lines, 1024)):
        yield "".join(batch)


def _write(output: Path | None, text: str | Iterable[str], replace: bool = False) -> None:
    """Write `text`, or the strings it yields, to stdout, or to `output`.

    With `replace`, the text goes to a temporary file beside the file that
    `output` names (through any symlinks), takes over its permission bits
    and then replaces it, so a failed write leaves the file unchanged.
    """
    chunks = [text] if isinstance(text, str) else _batches(text)
    try:
        if output is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        elif not replace:
            with output.open("w", encoding="utf-8") as f:
                f.writelines(chunks)
        else:
            import shutil
            import tempfile

            target = output.resolve()
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.writelines(chunks)
                shutil.copymode(target, tmp)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
    except (OSError, UnicodeEncodeError) as err:
        if output is None:
            _silence(sys.stdout)
        if isinstance(err, UnicodeEncodeError):
            reason = f"the {err.encoding} encoding cannot represent {err.object[err.start:err.end]!r}"
        else:
            reason = err.strerror
        raise _Unusable(f"cannot write {'<stdout>' if output is None else output}: {reason}") from None


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


def _check(model: StpaModel, diags: list[Diagnostic], args) -> int:
    from . import causal

    diags = [*diags, *trace_closure(model), *causal.open_loop(model), *causal.validate_cfs(model)]
    _tell(_diagnostic_lines(diags))
    severities = {d.severity for d in diags}
    if Severity.ERROR in severities:
        return EXIT_ERRORS
    if Severity.WARNING in severities and not args.quiet_warnings:
        return EXIT_WARNINGS
    return EXIT_OK


def _control_action(model: StpaModel, action: str, controller: str | None = None) -> None:
    """Raise _Unusable unless `action` is a control-action edge, issued by `controller` if one is given."""
    edge = model.edge_ids().get(action)
    if edge is None or edge.kind is not EdgeKind.CONTROL_ACTION:
        raise _Unusable(f"unknown action {action}")
    if controller is not None and edge.source != controller:
        raise _Unusable(f"action {action} is not issued by controller {controller}")


def _contexts(model: StpaModel, args) -> Iterable[str]:
    from . import analysis, report

    _control_action(model, args.action, args.controller)
    max_rows = _max_rows(args, analysis.DEFAULT_MAX_ROWS)
    table = analysis.build_context_table(model, args.controller, args.action, max_rows=max_rows)
    return report.context_csv_lines(table)


def _worksheet(model: StpaModel, args) -> str:
    from . import report

    _control_action(model, args.action)
    if args.format == "json":
        return report.to_json({"action": args.action, "ucas": model.ucas_on(args.action)})
    return report.render_worksheet(model, args.action)


def _trace(model: StpaModel, args) -> str:
    from . import report

    if args.format == "json":
        return report.to_json(model)
    return report.render_trace_matrix(model)


def _checklist(model: StpaModel, args) -> str:
    from . import causal, report

    uca = model.uca_ids().get(args.uca)
    if uca is None:
        raise _Unusable(f"unknown uca {args.uca}")
    items = causal.checklist(model, uca)
    if args.format == "json":
        return report.to_json({"uca": args.uca, "items": items})
    return report.render_checklist(items, args.uca)


def _graph(model: StpaModel, args) -> str:
    from . import report

    return report.render_graph(model)


def _stats(model: StpaModel, args) -> str:
    from . import analysis, report

    if args.format == "json":
        return report.to_json(analysis.stats(model))
    return report.render_stats(model)


# report command -> handler returning the text, or its lines, for stdout or
# --output; each imports `report`, `analysis` and `causal` itself, as far as
# it runs them, so `check` loads only `causal` and `fmt` none of them
_REPORTS = {
    "contexts": _contexts,
    "worksheet": _worksheet,
    "trace": _trace,
    "checklist": _checklist,
    "graph": _graph,
    "stats": _stats,
}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        model, diags = _load(args.inputs)
        if args.command == "check":
            return _check(model, diags, args)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:  # the other commands need a usable model
            _tell(_diagnostic_lines(errors))
            return EXIT_INPUT
        if args.command == "fmt":
            from . import printer

            for name in args.inputs:  # a FIFO or a device would be replaced by a regular file
                if not Path(name).is_file():
                    raise _Unusable(f"cannot write {name}: not a regular file")
            texts = printer.serialize_files(model, args.inputs)
            for name in args.inputs:
                _write(Path(name), texts[name], replace=True)
        else:
            _write(args.output, _REPORTS[args.command](model, args))
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
