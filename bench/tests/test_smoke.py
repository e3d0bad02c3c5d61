"""Smoke tests of the benchmark itself; no timing bounds.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.REPORTS))
def test_smoke_run_prints_a_valid_correct_result(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert run.validate(result, int(trace)) == []
    assert result["correct"] and result["failed"] == 0, proc.stderr


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("make", [gen.wide, gen.combinatorial])
def test_generators_are_seeded_and_canonical(make):
    sizes = workloads.SMOKE_SIZES[make.__name__]
    first, again, other = make(1, **sizes), make(1, **sizes), make(2, **sizes)
    assert first.files == again.files
    assert first.files != other.files
    for text in first.files.values():
        assert reference.canonical(text) == text


def test_reference_checks_reject_wrong_outputs():
    texts = [(ROOT / "corpus" / n).read_text(encoding="utf-8") for n in workloads.CORPUS_FILES]
    m = reference.Model(texts)
    cited = {u for cf in m.cfs for u in cf["for"]}
    stderr = "".join(
        f"f.stpa:1:1: info[trace/uca-without-cf]: uca {u['id']} has no causal factor\n"
        for u in m.ucas
        if u["id"] not in cited
    )
    assert reference.check_verdict(m, 0, stderr, [], []) == []
    assert reference.check_verdict(m, 0, "", [], [])  # infos missing
    assert reference.check_verdict(m, 2, stderr, ["CF-1"], [])  # planted error not reported
    items = [{"category": c, "located_at": at, "prompt": ""} for c, at in reference.checklist(m, "UCA-1")]
    good = json.dumps({"items": items})
    assert reference.checklist_output(m, "UCA-1", "json", good) == []
    assert reference.checklist_output(m, "UCA-1", "json", json.dumps({"items": items[1:]}))
    golden = (ROOT / "tests" / "golden" / "contexts_brake.csv").read_text(encoding="utf-8")
    assert reference.context_csv(m, "Operator", "BrakeCmd") == golden
