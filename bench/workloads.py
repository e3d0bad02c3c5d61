"""The three benchmark workloads: their inputs, commands and references.

`corpus` is the only real model; start-up and import dominate it. `wide` is
linear-size stress split over many files; parsing, `validate_cfs` and the
per-UCA walk rebuilds dominate it. `combinatorial` is small text with large
combinatorics; path enumeration and the context product dominate it. Sizes
are fixed per workload so that one round of commands fits several times into
a run; `smoke` shrinks them to a toy size for the schema test.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import reference

CORPUS_FILES = ["purpose.stpa", "structure_detailed.stpa", "variables.stpa", "ucas_brake.stpa", "causal_factors.stpa"]

SIZES = {
    "wide": dict(controllers=14, ucas_per=50, cfs_per=3, vars=3, planted=5),
    "combinatorial": dict(layers=11, n_vars=15, ucas=40),
}
SMOKE_SIZES = {
    "wide": dict(controllers=3, ucas_per=6, cfs_per=2, vars=2, planted=2),
    "combinatorial": dict(layers=3, n_vars=4, ucas=6),
}

REPORTS = {
    "corpus": ["contexts", "worksheet", "worksheet-json", "trace", "trace-json", "checklist", "graph", "stats", "stats-json"],
    "wide": ["stats-json", "trace-json", "graph", "worksheet", "checklist", "contexts"],
    "combinatorial": ["checklist", "contexts", "worksheet"],
}

Check = Callable[[str], list]


@dataclass
class Inputs:
    """One workload's files in `dir`, plus what is known about them."""

    workload: str
    dir: Path
    names: list[str]  # file names in command-line order
    controller: str
    action: str
    checklist_ucas: list[str]
    walks: int
    off_path: list[str] = field(default_factory=list)
    duplicates: list[str] = field(default_factory=list)
    golden: dict[str, str] = field(default_factory=dict)

    def texts(self) -> list[str]:
        return [(self.dir / n).read_text(encoding="utf-8") for n in self.names]


def make(workload: str, seed: int, root: Path, dest: Path, smoke: bool) -> Inputs:
    """Generate (or copy) the workload's files into `dest`."""
    if workload == "corpus":
        for name in CORPUS_FILES:
            shutil.copyfile(root / "corpus" / name, dest / name)
        golden = root / "tests" / "golden"
        return Inputs(
            workload,
            dest,
            list(CORPUS_FILES),
            "Operator",
            "BrakeCmd",
            ["UCA-1", "UCA-12"],
            # every brake UCA: three feedback walks into Operator (camera chain,
            # IMU chain, steering-sensor chain) and one control walk to the vehicle
            walks=17 * 4,
            golden={
                "contexts": (golden / "contexts_brake.csv").read_text(encoding="utf-8"),
                "graph": (golden / "graph.dot").read_text(encoding="utf-8"),
                "trace": (golden / "trace_matrix.md").read_text(encoding="utf-8"),
                "worksheet": (golden / "worksheet_brake.md").read_text(encoding="utf-8"),
            },
        )
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    g = getattr(gen, workload)(seed, **sizes)
    for name, text in g.files.items():
        (dest / name).write_text(text, encoding="utf-8")
    return Inputs(
        workload, dest, list(g.files), g.controller, g.action, [g.checklist_uca], g.walks, g.off_path, g.duplicates
    )


def check_command(inp: Inputs, m: reference.Model) -> tuple[list[str], Callable[[int, str, str], list]]:
    def verify(rc: int, stdout: str, stderr: str) -> list:
        return reference.check_verdict(m, rc, stderr, inp.off_path, inp.duplicates)

    return ["check", *inp.names], verify


def report_commands(inp: Inputs, m: reference.Model) -> list[tuple[str, list[str], Check]]:
    """(name, argv, check of stdout) for each report command of the workload.

    Expected texts are computed here, once, before anything is timed.
    """
    c, a, files = inp.controller, inp.action, inp.names
    checklist_formats = ("md", "json") if inp.workload == "corpus" else ("json",)

    def same(name: str, want: str) -> Check:
        return lambda out: reference.equal(name, out, want)

    out = []
    for name in REPORTS[inp.workload]:
        if name == "contexts":
            want = inp.golden.get(name) or reference.context_csv(m, c, a)
            out.append((name, ["contexts", "--controller", c, "--action", a], same(name, want)))
        elif name == "worksheet":
            want = inp.golden.get(name) or reference.worksheet(m, a)
            out.append((name, ["worksheet", "--action", a], same(name, want)))
        elif name == "worksheet-json":
            check = lambda s: reference.worksheet_json(m, a, s)
            out.append((name, ["worksheet", "--action", a, "--format", "json"], check))
        elif name == "trace":
            out.append((name, ["trace"], same(name, inp.golden["trace"])))
        elif name == "trace-json":
            out.append((name, ["trace", "--format", "json"], lambda s: reference.trace_json(m, s)))
        elif name == "graph":
            out.append((name, ["graph"], same(name, inp.golden.get(name) or reference.graph(m))))
        elif name == "stats":
            out.append((name, ["stats"], lambda s: reference.stats_md(m, s)))
        elif name == "stats-json":
            check = lambda s, want=reference.stats(m): [] if json.loads(s) == want else ["stats json counts differ"]
            out.append((name, ["stats", "--format", "json"], check))
        elif name == "checklist":
            for uca in inp.checklist_ucas:
                for fmt in checklist_formats:
                    check = lambda s, uca=uca, fmt=fmt: reference.checklist_output(m, uca, fmt, s)
                    out.append((f"checklist-{uca}-{fmt}", ["checklist", "--uca", uca, "--format", fmt], check))
    return [(name, argv + files, check) for name, argv, check in out]


class Editor:
    """Changes one UCA description before each `check` of `wide`, and restores it after.

    The revision marker keeps its width, so the file stays canonical and the
    diagnostics stay the same; no two checks see the same bytes.
    """

    _MARK = re.compile(r' rev (\d{4})"$', re.M)

    def __init__(self, inp: Inputs, seed: int):
        self.rng = random.Random(seed)
        self.paths = [inp.dir / n for n in inp.names if n.startswith("ctl_")]
        self.round = 0

    def edit(self) -> tuple[Path, str]:
        path = self.rng.choice(self.paths)
        text = path.read_text(encoding="utf-8")
        marks = list(self._MARK.finditer(text))
        m = self.rng.choice(marks)
        self.round += 1
        new = text[: m.start(1)] + f"{self.round % 10000:04d}" + text[m.end(1) :]
        path.write_text(new, encoding="utf-8")
        return path, text
