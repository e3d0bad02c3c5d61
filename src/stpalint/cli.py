"""Command-line entry point: parse, analyze, report.

Behaves like a compiler front end: diagnostics go to stderr in
`file:line:col: severity[rule]: message` form, reports go to stdout (or
--output), and the exit code reflects the worst diagnostic severity.

Exit codes: 0 clean, 1 warnings only, 2 errors, 3 input unusable or output
unwritable, 64 usage.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import analysis, causal
from .model import Diagnostic, Severity, StpaModel
from .parser import parse

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="stpalint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("inputs", nargs="+", help="input .stpa files")
        return cmd

    check = add("check", "run all diagnostics")
    check.add_argument("--quiet-warnings", action="store_true", help="warnings do not affect the exit code")

    contexts = add("contexts", "emit the context table of one (controller, action) pair as CSV")
    contexts.add_argument("--controller", required=True)
    contexts.add_argument("--action", required=True)
    contexts.add_argument("--max-rows", type=_positive_int, default=None, help="combinatorial guard override")
    contexts.add_argument("--output", type=Path, default=None)

    worksheet = add("worksheet", "emit the guide-word worksheet of one action")
    worksheet.add_argument("--action", required=True)
    worksheet.add_argument("--format", choices=["md", "json"], default="md")
    worksheet.add_argument("--output", type=Path, default=None)

    trace = add("trace", "emit traceability matrices")
    trace.add_argument("--format", choices=["md", "json"], default="md")
    trace.add_argument("--output", type=Path, default=None)

    checklist = add("checklist", "emit the causal-factor checklist of one uca")
    checklist.add_argument("--uca", required=True)
    checklist.add_argument("--format", choices=["md", "json"], default="md")
    checklist.add_argument("--output", type=Path, default=None)

    graph = add("graph", "emit the control structure as DOT")
    graph.add_argument("--output", type=Path, default=None)

    stats_cmd = add("stats", "emit summary counts")
    stats_cmd.add_argument("--format", choices=["md", "json"], default="md")
    stats_cmd.add_argument("--output", type=Path, default=None)

    add("fmt", "rewrite input files in canonical form")
    return parser


class _Unusable(Exception):
    """An input or output file cannot be used; the message goes to stderr, exit 3."""


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
            sources.append((name, Path(name).read_text(encoding="utf-8-sig")))
        except OSError as err:
            raise _Unusable(f"cannot read {name}: {err.strerror}") from None
        except UnicodeDecodeError:
            raise _Unusable(f"cannot read {name}: not valid UTF-8") from None
    return parse(sources)


def _write(output: Path | None, text: str, replace: bool = False) -> None:
    """Write `text` to stdout, or to `output`.

    With `replace`, the text goes to a temporary file beside the file that
    `output` names (through any symlinks), takes over its permission bits
    and then replaces it, so a failed write leaves the file unchanged.
    """
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        elif not replace:
            output.write_text(text, encoding="utf-8")
        else:
            target = output.resolve()
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(text)
                shutil.copymode(target, tmp)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
    except OSError as err:
        if output is None:
            _silence(sys.stdout)
        raise _Unusable(f"cannot write {'<stdout>' if output is None else output}: {err.strerror}") from None


def _max_rows(args) -> int:
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
    return analysis.DEFAULT_MAX_ROWS


def _check(model: StpaModel, diags: list[Diagnostic], args) -> int:
    diags = [*diags, *analysis.trace_closure(model), *causal.open_loop(model), *causal.validate_cfs(model)]
    _tell(_diagnostic_lines(diags))
    severities = {d.severity for d in diags}
    if Severity.ERROR in severities:
        return EXIT_ERRORS
    if Severity.WARNING in severities and not args.quiet_warnings:
        return EXIT_WARNINGS
    return EXIT_OK


def _contexts(model: StpaModel, args) -> str:
    from . import report

    table = analysis.build_context_table(model, args.controller, args.action, max_rows=_max_rows(args))
    return report.render_context_csv(table)


def _worksheet(model: StpaModel, args) -> str:
    from . import report

    if args.format == "json":
        return report.to_json(report.worksheet_to_dict(model, args.action))
    return report.render_worksheet(model, args.action)


def _trace(model: StpaModel, args) -> str:
    from . import report

    if args.format == "json":
        return report.render_json(model)
    return report.render_trace_matrix(model)


def _checklist(model: StpaModel, args) -> str:
    from . import report

    uca = model.uca_ids().get(args.uca)
    if uca is None:
        raise _Unusable(f"unknown uca {args.uca}")
    items = causal.checklist(model, uca)
    if args.format == "json":
        return report.to_json(report.checklist_to_dict(items, args.uca))
    return report.render_checklist(items, args.uca)


def _graph(model: StpaModel, args) -> str:
    from . import report

    return report.render_graph(model)


def _stats(model: StpaModel, args) -> str:
    from . import report

    if args.format == "json":
        return report.to_json(report.stats_to_dict(analysis.stats(model)))
    return report.render_stats(model)


# report command -> handler returning the text for stdout or --output; each
# handler imports `report` itself, so `check` and `fmt` never load it
_REPORTS = {
    "contexts": _contexts,
    "worksheet": _worksheet,
    "trace": _trace,
    "checklist": _checklist,
    "graph": _graph,
    "stats": _stats,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE

    try:
        model, diags = _load(args.inputs)
        if args.command == "check":
            return _check(model, diags, args)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:  # the other commands need a usable model
            _tell(_diagnostic_lines(errors))
            return EXIT_INPUT
        if args.command == "fmt":
            from . import printer

            for name in args.inputs:
                _write(Path(name), printer.serialize_file(model, name), replace=True)
        else:
            _write(args.output, _REPORTS[args.command](model, args))
    except _Unusable as err:
        code, failure = EXIT_INPUT, err
    except analysis.AnalysisError as err:
        code, failure = EXIT_ERRORS, err
    else:
        return EXIT_OK
    try:
        _tell([f"stpalint: {failure}"])
    except _Unusable:  # stderr cannot be written
        return EXIT_INPUT
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
