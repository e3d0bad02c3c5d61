"""Benchmark of the stpalint CLI on three seeded workloads.

    python3 bench/run.py --workload corpus|wide|combinatorial --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout. The load is a closed loop: one
`python -m stpalint.cli` child at a time (with `PYTHONPATH=src`), the next
started only when the previous one has exited, the way a developer or a CI
job waits for each verdict. Each round is one `check` and one `fmt` on a
fresh temporary copy of the inputs, every fourth round also one pass over
the workload's report commands, and every second round one more set-up;
rounds repeat until `--seconds` have passed. Every output is checked
against a reference that stpalint did not produce (see reference.py).

Times are normalized for the speed of the machine during the run: after
every timed sample a bare interpreter (`python -c pass`, which loads no
stpalint code) starts once, and each time metric is its median wall time
times BARE_REF_S over the median bare start. On a shared host whose speed
drifts by tens of percent over minutes this keeps runs comparable; the raw
medians are kept in the details file.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced in-process
pass (see layers.py). Samples, failures and spans go to
`.bench_out/<workload>-seed<N>-trace<T>.json`. All files the run makes live
under `.bench_work/` and are removed at the end; `corpus/` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
IMPORT_PAIRS = 7  # fresh interpreters with and without `import stpalint.cli`
WALL_CHECKS = 3  # CLI checks timed in the traced run, beside the span sum
CHILD_TIMEOUT_S = 120
BARE_REF_S = 0.040  # bare interpreter start on a quiet 2-vCPU host; times are scaled to it
# A report pass is many commands and so steadier than one `check` or `fmt`:
# it runs every fourth round, which gives `check` and `fmt` more samples.
REPORT_EVERY = 4
# Set-ups repeat through the run, so the bare starts that scale setup_s are
# taken at the same times as the set-ups themselves; setup_s is their median.
SETUP_EVERY = 2

END_TO_END = {
    "check_s": "s",
    "report_pass_s": "s",
    "fmt_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
SPAN_METRICS = [
    "cli.read",
    "parser.tokenize",
    "parser.parse",
    "model.resolve",
    "causal.walk_paths",
    "causal.validate_cfs",
    "causal.checklist",
    "analysis.trace_closure",
    "analysis.build_context_table",
    "analysis.detect_conflicts",
    "analysis.stats",
    "report.render_json",
    "report.render_trace_matrix",
    "report.render_context_csv",
    "report.render_worksheet",
    "report.render_graph",
    "report.render_stats",
    "printer.serialize_file",
    "printer.serialize",
    "check.span_sum",
] + [f"{layer}.self" for layer in layers.LAYERS]
COUNT_METRICS = {
    "parser.tokens": "count",
    "causal.walks": "count",
    "causal.checklist_items": "count",
    "analysis.context_rows": "count",
    "analysis.conflict_contexts": "count",
    "report.output_bytes": "bytes",
}
PEAK_METRICS = [
    "parser.parse_peak_kib",
    "causal.validate_cfs_peak_kib",
    "analysis.build_context_table_peak_kib",
    "analysis.detect_conflicts_peak_kib",
]
PER_LAYER = {
    "cli.import_s": "s",
    "check.wall_s": "s",
    "check.unaccounted_s": "s",
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    **{name: "KiB" for name in PEAK_METRICS},
}


class Runner:
    """Runs children one at a time and keeps the tally of operations."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STPA_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.peak_kib = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}
        self.bare: list[float] = []  # bare interpreter starts, one after each timed sample

    def child(self, argv: list[str], cwd: Path) -> tuple[float, int, str, str]:
        """Wall seconds, exit code, stdout and stderr of one child process."""
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return elapsed, proc.returncode, out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace")

    def cli(self, argv: list[str], cwd: Path) -> tuple[float, int, str, str]:
        return self.child([sys.executable, "-m", "stpalint.cli", *argv], cwd)

    def account(self, name: str, rc: int, out: str, err: str, problems: list[str]) -> None:
        """Count one operation; it fails on any problem or on output unlike its first run's."""
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        if self._first.setdefault(name, digest) != digest:
            problems = problems + [f"{name}: output differs from its first run"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{name}: {p}" for p in problems[:3])

    def op(self, name: str, argv: list[str], cwd: Path, check) -> float:
        elapsed, rc, out, err = self.cli(argv, cwd)
        self.account(name, rc, out, err, check(rc, out, err))
        return elapsed

    def bare_start(self, cwd: Path) -> None:
        """Time one bare interpreter start, the measure of the machine's speed."""
        self.bare.append(self.child([sys.executable, "-c", "pass"], cwd)[0])


def report_check(check):
    def verify(rc: int, out: str, err: str) -> list[str]:
        if rc != 0 or err:
            return [f"exit code {rc}, stderr {err[:200]!r}"]
        return check(out)

    return verify


def setup(workload: str, seed: int, runner: Runner, smoke: bool):
    """Generate and write the inputs, then one warm-up `check`; returns its time too."""
    start = time.perf_counter()
    dest = Path(tempfile.mkdtemp(dir=runner.work, prefix=f"{workload}-"))
    inp = workloads.make(workload, seed, ROOT, dest, smoke)
    warm = runner.cli(["check", *inp.names], dest)
    return time.perf_counter() - start, inp, warm


def fmt_round(runner: Runner, inp: workloads.Inputs, want: dict[str, str]) -> float:
    """One `fmt` on a fresh copy of the inputs; the copy is compared, then removed."""
    copy = Path(tempfile.mkdtemp(dir=runner.work, prefix="fmt-"))
    try:
        for name in inp.names:
            shutil.copyfile(inp.dir / name, copy / name)

        def check(rc: int, out: str, err: str) -> list[str]:
            problems = [f"exit code {rc}"] if rc != 0 or out or err else []
            for name, text in want.items():
                problems += reference.equal(name, (copy / name).read_text(encoding="utf-8"), text)
            return problems

        return runner.op("fmt", ["fmt", *inp.names], copy, check)
    finally:
        shutil.rmtree(copy)


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        return None
    return {"percentile": round(100 * (k + 1) / len(ordered), 1), "value": ordered[k]}


def end_to_end(args, runner: Runner) -> tuple[dict, dict]:
    seconds, inp, (_, rc, out, err) = setup(args.workload, args.seed, runner, args.smoke)
    runner.bare_start(inp.dir)
    m = reference.Model(inp.texts())
    check_argv, check_verify = workloads.check_command(inp, m)
    runner.account("check", rc, out, err, check_verify(rc, out, err))
    reports = [(name, argv, report_check(check)) for name, argv, check in workloads.report_commands(inp, m)]
    fmt_want = {name: reference.canonical(text) for name, text in zip(inp.names, inp.texts())}
    editor = workloads.Editor(inp, args.seed) if args.workload == "wide" else None

    samples = {"check_s": [], "report_pass_s": [], "fmt_s": [], "setup_s": [seconds]}
    deadline = time.perf_counter() + args.seconds
    while True:
        if editor:
            path, original = editor.edit()
        samples["check_s"].append(runner.op("check", check_argv, inp.dir, check_verify))
        if editor:
            path.write_text(original, encoding="utf-8")
        runner.bare_start(inp.dir)
        if len(samples["check_s"]) % REPORT_EVERY == 1:
            samples["report_pass_s"].append(sum(runner.op(name, argv, inp.dir, check) for name, argv, check in reports))
            runner.bare_start(inp.dir)
        samples["fmt_s"].append(fmt_round(runner, inp, fmt_want))
        runner.bare_start(inp.dir)
        if len(samples["check_s"]) % SETUP_EVERY == 0:
            seconds, again, (_, rc, out, err) = setup(args.workload, args.seed, runner, args.smoke)
            runner.bare_start(again.dir)
            runner.account("check", rc, out, err, check_verify(rc, out, err))
            shutil.rmtree(again.dir)
            samples["setup_s"].append(seconds)
        if args.smoke or time.perf_counter() >= deadline:
            break

    raw = {name: statistics.median(values) for name, values in samples.items()}
    speed = BARE_REF_S / statistics.median(runner.bare)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mib"] = runner.peak_kib / 1024
    details = {
        "samples": samples,
        "raw_medians": raw,
        "bare_s": runner.bare,
        "speed_factor": speed,
        "tails": {name: tail(values) for name, values in samples.items()},
        "rounds": len(samples["check_s"]),
    }
    return metrics, details


def traced(args, runner: Runner) -> tuple[dict, dict]:
    _, inp, _ = setup(args.workload, args.seed, runner, args.smoke)
    m = reference.Model(inp.texts())
    check_argv, check_verify = workloads.check_command(inp, m)

    pairs = 1 if args.smoke else IMPORT_PAIRS
    bare, imported = [], []
    for _ in range(pairs):
        bare.append(runner.child([sys.executable, "-c", "pass"], inp.dir)[0])
        elapsed, rc, out, err = runner.child([sys.executable, "-c", "import stpalint.cli"], inp.dir)
        runner.account("import", rc, out, err, [] if rc == 0 else [f"exit code {rc}: {err[:200]}"])
        imported.append(elapsed)
    walls = [runner.op("check", check_argv, inp.dir, check_verify) for _ in range(1 if args.smoke else WALL_CHECKS)]

    tracer = layers.Tracer(args.workload)
    passes, counts = [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        seconds, counts, problems = layers.one_pass(tracer, inp, m, ROOT / "src")
        runner.account("traced-pass", 0, json.dumps(counts, sort_keys=True), "", problems)
        passes.append(seconds)
        if args.smoke or time.perf_counter() >= deadline:
            break
    peaks = layers.peaks(inp, ROOT / "src")

    spans = layers.medians(passes)
    metrics = {f"{name}_s": spans[name] for name in SPAN_METRICS}
    metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    metrics["check.wall_s"] = statistics.median(walls)
    metrics["check.unaccounted_s"] = metrics["check.wall_s"] - metrics["check.span_sum_s"]
    metrics.update(counts)
    metrics.update(peaks)
    t0 = tracer.spans[0][1]
    details = {
        "passes": len(passes),
        "spans": [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "workload": w} for n, s, e, p, w in tracer.spans
        ],
    }
    return metrics, details


def validate(result: dict, trace: int) -> list[str]:
    """Schema of the result line against BENCHMARK.json; an empty list means valid."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not an integer")
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: bad entry {entry}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.REPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, one round; validate the result schema")
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "stpalint" / "cli.py", ROOT / "corpus", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"bench: not a stpalint source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work", prefix="run-"))
    runner = Runner(work)
    try:
        metrics, details = (traced if args.trace else end_to_end)(args, runner)
    finally:
        shutil.rmtree(work)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, problems=runner.problems, result=result)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    for problem in runner.problems:
        print(f"bench: {problem}", file=sys.stderr)
    if args.smoke:
        problems = validate(result, args.trace)
        for problem in problems:
            print(f"bench: schema: {problem}", file=sys.stderr)
        if problems:
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
