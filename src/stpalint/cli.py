"""Command-line entry point: parse, analyze, report.

Behaves like a compiler front end: diagnostics go to stderr in
`file:line:col: severity[rule]: message` form, reports go to stdout (or
--output), and the exit code reflects the worst diagnostic severity.

Exit codes: 0 clean, 1 warnings only, 2 errors, 3 input unusable, 64 usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis, causal, printer, report
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
    contexts.add_argument("--max-rows", type=int, default=None, help="combinatorial guard override")
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


def _print_diagnostics(diags: list[Diagnostic], stream) -> None:
    for diag in diags:
        print(diag.format(), file=stream)
        for message, span in diag.related:
            print(f"{span.file}:{span.line_start}:{span.col_start}: note: {message}", file=stream)


def _load(inputs: list[str]) -> tuple[StpaModel | None, list[Diagnostic]]:
    sources = []
    for name in inputs:
        try:
            sources.append((name, Path(name).read_text(encoding="utf-8")))
        except OSError as err:
            print(f"stpalint: cannot read {name}: {err.strerror}", file=sys.stderr)
            return None, []
        except UnicodeDecodeError:
            print(f"stpalint: cannot read {name}: not valid UTF-8", file=sys.stderr)
            return None, []
    model, diags = parse(sources)
    return model, diags


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _max_rows(args) -> int:
    if args.max_rows is not None:
        return args.max_rows
    env = os.environ.get("STPA_MAX_ROWS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"stpalint: ignoring non-numeric STPA_MAX_ROWS={env!r}", file=sys.stderr)
    return analysis.DEFAULT_MAX_ROWS


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE

    model, diags = _load(args.inputs)
    if model is None:
        return EXIT_INPUT

    if args.command == "check":
        preds = causal._feedback_predecessors(model)
        try:
            diags = [
                *diags,
                *analysis.trace_closure(model),
                *(causal._open_loop_warning(u) for u in model.ucas if u.source_controller not in preds),
                *causal.validate_cfs(model),
            ]
        except analysis.AnalysisError as err:
            print(f"stpalint: {err}", file=sys.stderr)
            return EXIT_ERRORS
        _print_diagnostics(diags, sys.stderr)
        severities = {d.severity for d in diags}
        if Severity.ERROR in severities:
            return EXIT_ERRORS
        if Severity.WARNING in severities and not args.quiet_warnings:
            return EXIT_WARNINGS
        return EXIT_OK

    # report commands need a usable model
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        _print_diagnostics(errors, sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "contexts":
            table = analysis.build_context_table(
                model, args.controller, args.action, max_rows=_max_rows(args)
            )
            _emit(report.render_context_csv(table), args.output)
        elif args.command == "worksheet":
            if args.format == "json":
                import json

                payload = [
                    u for u in report.model_to_dict(model)["ucas"] if u["action"] == args.action
                ]
                _emit(
                    json.dumps(
                        {"stpa_schema": report.SCHEMA_VERSION, "action": args.action, "ucas": payload},
                        ensure_ascii=False,
                        indent=2,
                    )
                    + "\n",
                    args.output,
                )
            else:
                _emit(report.render_worksheet(model, args.action), args.output)
        elif args.command == "trace":
            if args.format == "json":
                _emit(report.render_json(model), args.output)
            else:
                _emit(report.render_trace_matrix(model), args.output)
        elif args.command == "checklist":
            uca = model.uca_ids().get(args.uca)
            if uca is None:
                print(f"stpalint: unknown uca {args.uca}", file=sys.stderr)
                return EXIT_INPUT
            items = causal.checklist(model, uca)
            if args.format == "json":
                import json

                payload = [
                    {"category": i.category.value, "located_at": i.located_at, "prompt": i.prompt}
                    for i in items
                ]
                _emit(
                    json.dumps(
                        {"stpa_schema": report.SCHEMA_VERSION, "uca": args.uca, "items": payload},
                        ensure_ascii=False,
                        indent=2,
                    )
                    + "\n",
                    args.output,
                )
            else:
                _emit(report.render_checklist(items, args.uca), args.output)
        elif args.command == "graph":
            _emit(report.render_graph(model), args.output)
        elif args.command == "stats":
            if args.format == "json":
                import json

                _emit(
                    json.dumps(report.stats_to_dict(analysis.stats(model)), ensure_ascii=False, indent=2)
                    + "\n",
                    args.output,
                )
            else:
                _emit(report.render_stats(model), args.output)
        elif args.command == "fmt":
            for name in args.inputs:
                Path(name).write_text(printer.serialize_file(model, name), encoding="utf-8")
        else:  # pragma: no cover
            return EXIT_USAGE
    except analysis.AnalysisError as err:
        print(f"stpalint: {err}", file=sys.stderr)
        return EXIT_ERRORS
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
