"""Traced in-process pass: times calls into each stpalint module from outside.

The layers are the package's modules: `cli`, `parser`, `model`, `analysis`,
`causal`, `report` and `printer`. Spans are recorded here, around public
calls, never inside the program; they stay in memory and are returned for
the runner to write out when the run ends. `tracemalloc` peaks are taken in
a pass of their own, because tracing allocations distorts time.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import reference
from workloads import Inputs

LAYERS = ["cli", "parser", "model", "analysis", "causal", "report", "printer"]


class Tracer:
    """Spans as [name, start, end, parent index, workload], kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, self.workload])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per layer of spans[first:], minus the time their child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans[first:]:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans[first:], own[first:]):
            out[s[0].split(".")[0]] += t
        return out


def _load(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from stpalint import analysis, causal, model, parser, printer, report

    return analysis, causal, model, parser, printer, report


def one_pass(tr: Tracer, inp: Inputs, ref: reference.Model, src: Path) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Every layer call once. Returns (seconds per span name, counts, problems)."""
    analysis, causal, model, parser, printer, report = _load(src)
    first = len(tr.spans)
    counts: dict[str, float] = {}
    problems: list[str] = []
    paths = [str(inp.dir / n) for n in inp.names]

    with tr.span("cli.check"):
        with tr.span("cli.read"):
            sources = [(p, Path(p).read_text(encoding="utf-8")) for p in paths]
        with tr.span("parser.parse"):
            m, diags = parser.parse(sources)
        with tr.span("analysis.trace_closure"):
            diags.extend(analysis.trace_closure(m))
        with tr.span("causal.walk_paths"):
            walks = 0
            for uca in m.ucas:
                found, walk_diags = causal.walk_paths(m, uca)
                walks += len(found)
                diags.extend(walk_diags)
        with tr.span("causal.validate_cfs"):
            diags.extend(causal.validate_cfs(m))
    counts["causal.walks"] = walks
    if walks != inp.walks:
        problems.append(f"walks: got {walks}, want {inp.walks}")

    with tr.span("parser.tokenize"):
        scratch: list = []
        counts["parser.tokens"] = sum(len(parser.tokenize(p, text, scratch)) for p, text in sources)
    with tr.span("model.resolve"):
        if model.resolve(m):
            problems.append("resolve: model does not resolve")

    counts["causal.checklist_items"] = 0
    ucas = m.uca_ids()
    for uca_id in inp.checklist_ucas:
        with tr.span("causal.checklist"):
            items = causal.checklist(m, ucas[uca_id])
        counts["causal.checklist_items"] += len(items)
        if sorted((i.category.value, i.located_at) for i in items) != reference.checklist(ref, uca_id):
            problems.append(f"checklist {uca_id} differs from reference")

    with tr.span("analysis.build_context_table"):
        table = analysis.build_context_table(m, inp.controller, inp.action)
    counts["analysis.context_rows"] = len(table.rows)
    with tr.span("analysis.detect_conflicts"):
        conflicts = analysis.detect_conflicts(m, inp.action)
    counts["analysis.conflict_contexts"] = sum(len(c.shared) for c in conflicts)
    del conflicts
    with tr.span("analysis.stats"):
        analysis.stats(m)

    outputs = []
    for name, call in (
        ("render_json", lambda: report.render_json(m)),
        ("render_trace_matrix", lambda: report.render_trace_matrix(m)),
        ("render_context_csv", lambda: report.render_context_csv(table)),
        ("render_worksheet", lambda: report.render_worksheet(m, inp.action)),
        ("render_graph", lambda: report.render_graph(m)),
        ("render_stats", lambda: report.render_stats(m)),
    ):
        with tr.span(f"report.{name}"):
            outputs.append(call())
    counts["report.output_bytes"] = sum(len(o.encode("utf-8")) for o in outputs)
    del outputs

    with tr.span("printer.serialize_file"):
        formatted = [printer.serialize_file(m, p) for p in paths]
    for p, (_, text), out in zip(paths, sources, formatted):
        if out != reference.canonical(text):
            problems.append(f"serialize_file {Path(p).name} differs from reference")
    with tr.span("printer.serialize"):
        printer.serialize(m)

    seconds: dict[str, float] = {}
    for name, start, end, _, _ in tr.spans[first:]:
        seconds[name] = seconds.get(name, 0.0) + end - start
    seconds["check.span_sum"] = sum(
        s[2] - s[1] for s in tr.spans[first:] if s[3] is not None and tr.spans[s[3]][0] == "cli.check"
    )
    for layer, t in tr.self_times(first).items():
        seconds[f"{layer}.self"] = t
    return seconds, counts, problems


def peaks(inp: Inputs, src: Path) -> dict[str, float]:
    """tracemalloc peak KiB of parse, validate_cfs, build_context_table, detect_conflicts."""
    analysis, causal, _, parser, _, _ = _load(src)
    sources = [(str(inp.dir / n), t) for n, t in zip(inp.names, inp.texts())]
    out = {}
    tracemalloc.start()
    try:
        for key, call in (
            ("parser.parse_peak_kib", lambda: parser.parse(sources)),
            ("causal.validate_cfs_peak_kib", lambda: causal.validate_cfs(m)),
            ("analysis.build_context_table_peak_kib", lambda: analysis.build_context_table(m, inp.controller, inp.action)),
            ("analysis.detect_conflicts_peak_kib", lambda: analysis.detect_conflicts(m, inp.action)),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            out[key] = (tracemalloc.get_traced_memory()[1] - base) / 1024
            if key == "parser.parse_peak_kib":
                m = result[0]
            del result
    finally:
        tracemalloc.stop()
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
