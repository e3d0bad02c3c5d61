"""Acceptance gate: one test per release criterion, one PASS/FAIL line each."""

import io
import math
import shutil
import time
from pathlib import Path
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpalint import (
    build_context_table,
    cli,
    context_matches,
    detect_conflicts,
    enumerate_contexts,
    expand,
    load_corpus,
    parse,
    serialize,
    walk_paths,
)
from stpalint.causal import PathDirection
from stpalint.corpus import CORPUS_FILES, corpus_paths

from conftest import GOLDEN_DIR
from strategies import models, partial_contexts, variable_sets


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] {name}: PASS")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


CORPUS_ARGS = [str(p) for p in corpus_paths()]

# hazard links per UCA, as published in the case-study worksheet
UCA_HAZARDS = {
    "UCA-1": ["H-1"],
    "UCA-2": ["H-3"],
    "UCA-3": ["H-4", "H-2"],
    "UCA-4": ["H-1"],
    "UCA-5": ["H-1"],
    "UCA-6": ["H-3"],
    "UCA-7": ["H-4", "H-2"],
    "UCA-8": ["H-1", "H-2"],
    "UCA-9": ["H-1"],
    "UCA-10": ["H-3"],
    "UCA-11": ["H-1"],
    "UCA-12": ["H-1"],
    "UCA-13": ["H-3"],
    "UCA-14": ["H-2", "H-4"],
    "UCA-15": ["H-1"],
    "UCA-16": ["H-3"],
    "UCA-17": ["H-2", "H-4"],
}


def test_criterion_1_corpus_fidelity(capsys):
    with criterion(capsys, 1, "corpus fidelity"):
        start = time.perf_counter()
        model, diags = load_corpus()
        assert diags == [], [d.format() for d in diags]
        assert len(model.losses) == 2
        assert len(model.hazards) == 4
        assert len(model.constraints) == 2
        assert len(model.entities) == 15
        assert len(model.variables) == 5
        assert [len(v.values) for v in model.variables] == [2, 4, 2, 2, 2]
        brake = model.ucas_on("BrakeCmd")
        assert len(brake) == 17 and len(model.ucas) == 17
        split = {}
        for uca in brake:
            key = uca.guide.category.value
            split[key] = split.get(key, 0) + 1
        assert split == {
            "NotProvided": 4,
            "ProvidedUnsafe": 6,
            "WrongTiming": 4,
            "WrongDuration": 3,
        }
        assert {u.id: u.hazards for u in brake} == UCA_HAZARDS
        assert len(model.causal_factors) == 30
        assert time.perf_counter() - start < 1.0


def test_criterion_2_context_cardinality(capsys, corpus):
    with criterion(capsys, 2, "context cardinality"):
        start = time.perf_counter()
        table = build_context_table(corpus, "Operator", "BrakeCmd")
        assert len(table.rows) == 2 * 4 * 2 * 2 * 2 == 64

        @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(variable_sets(max_vars=6, max_values=5))
        def cardinality(variables):
            expected = math.prod(len(v.values) for v in variables)
            assert len(enumerate_contexts(variables)) == expected

        cardinality()
        assert time.perf_counter() - start < 10.0


def test_criterion_3_expansion_oracle(capsys):
    with criterion(capsys, 3, "expansion oracle"):

        @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def oracle(data):
            variables = data.draw(variable_sets(max_vars=4, max_values=4))
            partial = data.draw(partial_contexts(variables))
            brute = [c for c in enumerate_contexts(variables) if context_matches(partial, c)]
            assert expand(partial, variables) == brute

        oracle()


def test_criterion_4_conflict_reproduction(capsys, corpus):
    with criterion(capsys, 4, "conflict reproduction"):
        conflicts = detect_conflicts(corpus, "BrakeCmd")
        match = [c for c in conflicts if (c.uca_a, c.uca_b) == ("UCA-3", "UCA-7")]
        assert len(match) == 1
        variables = corpus.variables_of("Operator")
        ucas = corpus.uca_ids()
        brute = {c.key() for c in expand(ucas["UCA-3"].context, variables)} & {
            c.key() for c in expand(ucas["UCA-7"].context, variables)
        }
        assert {c.key() for c in match[0].shared} == brute
        assert len(match[0].shared) == len(brute)


def test_criterion_5_walk_reproduction(capsys, corpus):
    with criterion(capsys, 5, "walk reproduction"):
        labels = {e.id: e.label for e in corpus.entities}
        walks, diags = walk_paths(corpus, corpus.uca_ids()["UCA-1"])
        assert diags == []

        def has_subsequence(walk, wanted):
            it = iter(labels[e] for e in walk.elements)
            return all(label in it for label in wanted)

        feedback = [w for w in walks if w.direction is PathDirection.FEEDBACK_PATH]
        control = [w for w in walks if w.direction is PathDirection.CONTROL_PATH]
        assert any(
            has_subsequence(w, ["Camera", "Encoder", "Network-UL", "Interface", "Display", "Operator"])
            for w in feedback
        )
        assert any(
            has_subsequence(w, ["Brakep.", "Network-DL", "Actuators", "Vehicle Dynamics"])
            for w in control
        )


def test_criterion_6_round_trip(capsys, corpus):
    with criterion(capsys, 6, "round-trip identity"):

        def round_trip(model):
            reparsed, diags = parse([("canon.stpa", serialize(model))])
            assert diags == []
            assert reparsed == model

        round_trip(corpus)

        @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(models())
        def random_round_trip(model):
            round_trip(model)

        random_round_trip()


def test_criterion_7_determinism(capsys, tmp_path):
    with criterion(capsys, 7, "deterministic output"):
        commands = [
            ["check", *CORPUS_ARGS],
            ["contexts", "--controller", "Operator", "--action", "BrakeCmd", *CORPUS_ARGS],
            ["worksheet", "--action", "BrakeCmd", *CORPUS_ARGS],
            ["worksheet", "--action", "BrakeCmd", "--format", "json", *CORPUS_ARGS],
            ["trace", *CORPUS_ARGS],
            ["trace", "--format", "json", *CORPUS_ARGS],
            ["checklist", "--uca", "UCA-1", *CORPUS_ARGS],
            ["graph", *CORPUS_ARGS],
            ["stats", *CORPUS_ARGS],
            ["stats", "--format", "json", *CORPUS_ARGS],
        ]
        for argv in commands:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second, argv

        # fmt is deterministic on files too
        for path in corpus_paths():
            shutil.copy(path, tmp_path / path.name)
        copies = [str(tmp_path / name) for name in CORPUS_FILES]
        run_cli(["fmt", *copies])
        once = [Path(c).read_text(encoding="utf-8") for c in copies]
        run_cli(["fmt", *copies])
        assert [Path(c).read_text(encoding="utf-8") for c in copies] == once

        goldens = {
            "worksheet_brake.md": ["worksheet", "--action", "BrakeCmd", *CORPUS_ARGS],
            "contexts_brake.csv": [
                "contexts", "--controller", "Operator", "--action", "BrakeCmd", *CORPUS_ARGS,
            ],
            "trace_matrix.md": ["trace", *CORPUS_ARGS],
            "graph.dot": ["graph", *CORPUS_ARGS],
        }
        for name, argv in goldens.items():
            code, out, _ = run_cli(argv)
            assert code == 0
            assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name


def _mutated_corpus(tmp_path, file_name, old, new):
    paths = []
    for path in corpus_paths():
        text = path.read_text(encoding="utf-8")
        if path.name == file_name:
            assert old in text, f"mutation anchor missing in {file_name}"
            text = text.replace(old, new, 1)
        target = tmp_path / path.name
        target.write_text(text, encoding="utf-8")
        paths.append(str(target))
    return paths


MUTATIONS = [
    # delete a loss declaration that hazards lead to
    ("purpose.stpa", 'loss L-1 "Loss of life or injury to people"\n', ""),
    ("purpose.stpa", 'loss L-2 "Damage to ego vehicle or objects outside the ego vehicle"\n', ""),
    # duplicate ids of different declaration kinds
    ("purpose.stpa", 'loss L-1 "', 'loss L-1 "dup"\nloss L-1 "'),
    ("structure_detailed.stpa", 'sensor Camera "Camera"\n', 'sensor Camera "Camera"\nsensor Camera "Camera"\n'),
    ("ucas_brake.stpa", "uca UCA-2 ", "uca UCA-1 "),
    # relocate causal factors off every walk of their UCAs
    ("causal_factors.stpa", "cf CF-16 category = TransmissionLoss at Network-UL", "cf CF-16 category = TransmissionLoss at Steeringw"),
    ("causal_factors.stpa", "cf CF-28 category = TimingDelay at Camera", "cf CF-28 category = TimingDelay at Throttlep"),
]


@pytest.mark.parametrize("file_name,old,new", MUTATIONS)
def test_criterion_8_mutations_exit_2(capsys, tmp_path, file_name, old, new):
    with criterion(capsys, 8, f"mutation severity ({file_name}: {old.split(chr(10))[0][:40]!r})"):
        paths = _mutated_corpus(tmp_path, file_name, old, new)
        code, _, err = run_cli(["check", *paths])
        assert code == 2
        assert "error[" in err
