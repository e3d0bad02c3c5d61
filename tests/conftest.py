from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stpalint import (
    Context,
    Edge,
    EdgeKind,
    Entity,
    EntityKind,
    GuideCategory,
    GuideWord,
    Hazard,
    Loss,
    ProcessModelVariable,
    StpaModel,
    UnsafeControlAction,
    load_corpus,
)
from stpalint import parser

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def corpus():
    model, diags = load_corpus()
    assert not diags, [d.format() for d in diags]
    return model


def tiny_model() -> StpaModel:
    """Minimal resolvable model: one loop, one variable, one UCA."""
    m = StpaModel()
    m.losses.append(Loss("L-1", "loss of life"))
    m.hazards.append(Hazard("H-1", "unsafe distance", ["L-1"]))
    m.entities.append(Entity("C-1", EntityKind.CONTROLLER, "Controller"))
    m.entities.append(Entity("P-1", EntityKind.CONTROLLED_PROCESS, "Process"))
    m.entities.append(Entity("S-1", EntityKind.SENSOR, "Sensor"))
    m.entities.append(Entity("A-1", EntityKind.ACTUATOR, "Actuator"))
    m.edges.append(Edge("AC-1", EdgeKind.CONTROL_ACTION, "Act", "C-1", "P-1", ["A-1"]))
    m.edges.append(Edge("FB-1", EdgeKind.FEEDBACK, "Sense", "P-1", "C-1", ["S-1"]))
    m.variables.append(ProcessModelVariable("V-1", "C-1", "State", ["on", "off"]))
    m.ucas.append(
        UnsafeControlAction(
            "UCA-1",
            "AC-1",
            "C-1",
            GuideWord(GuideCategory.NOT_PROVIDED),
            Context({"V-1": "on"}),
            ["H-1"],
            "controller does not act while on",
        )
    )
    return m


def planner_model() -> StpaModel:
    """A model shaped like the benchmark's combinatorial one: binary variables, partial contexts.

    `Planner` owns 11 variables (2^11 contexts) and 40 UCAs on `Plan`, each
    fixing three variables; one more UCA on `Plan` names `Pilot` as its
    controller, so no table of `Planner` may show it (and the model does
    not resolve until it is dropped).
    """
    rng = random.Random(11)
    m = StpaModel()
    m.losses.append(Loss("L-1", "loss of mission"))
    m.hazards.append(Hazard("H-1", "unsafe plan", ["L-1"]))
    m.entities.append(Entity("Planner", EntityKind.CONTROLLER, "Planner"))
    m.entities.append(Entity("Process", EntityKind.CONTROLLED_PROCESS, "Process"))
    m.edges.append(Edge("Plan", EdgeKind.CONTROL_ACTION, "Plan", "Planner", "Process", []))
    var_ids = [f"P{k:02d}" for k in range(11)]
    m.variables.extend(ProcessModelVariable(v, "Planner", f"Planner var {v}", ["off", "on"]) for v in var_ids)
    categories = list(GuideCategory)

    def uca(uid, controller, context, category):
        return UnsafeControlAction(uid, "Plan", controller, GuideWord(category), Context(context), ["H-1"], "d")

    for u in range(40):
        context = {v: rng.choice(["off", "on"]) for v in sorted(rng.sample(var_ids, 3))}
        m.ucas.append(uca(f"UP-{u + 1:02d}", "Planner", context, rng.choice(categories)))
    m.ucas.append(uca("UL-1", "Pilot", {}, GuideCategory.NOT_PROVIDED))
    return m


_PUNCT = set("[]{}=,")


def lex(text, path="test.stpa"):
    """The tokens of `text` and the diagnostics that splitting it gives.

    Each token is `(kind, text, line, col, end_col, first_on_line)`, with
    the unescaped value of a string as its text; the place and the flag come
    from the parser's own position helpers.
    """
    diags = []
    reader = parser._FileParser(path, text, diags)
    words = reader.tokens[:-1]
    assert parser.tokenize(path, text, []) == words
    tokens = []
    for i, word in enumerate(words):
        kind = "string" if word[0] == '"' else "punct" if word in _PUNCT else "id"
        value = parser._string(word) if kind == "string" else word
        tokens.append((kind, value, *reader.place(i), reader.starts_line(i)))
    return tokens, diags


# a string, closed or not, or a run of other characters but blanks
_CHUNK = re.compile(r'"[^"\\]*(?:\\.?[^"\\]*)*"?|[^ \t\r"]+')


def split_statements(text: str) -> str:
    """`text` with each statement broken over lines at token boundaries, and comments after half of the lines.

    A line that is blank or starts with `#` is kept. Any other line is cut
    into its strings and the runs of other characters between blanks, and
    written three of those to a line, indented after the first; every other
    line written ends in `  # note`. A valid model reads back the same.
    """
    out: list[str] = []
    for line in text.split("\n"):
        if not line.strip() or line.lstrip().startswith("#"):
            out.append(line)
            continue
        chunks = _CHUNK.findall(line)
        for j in range(0, len(chunks), 3):
            piece = ("    " if j else "") + " ".join(chunks[j : j + 3])
            out.append(piece + "  # note" if len(out) % 2 else piece)
    return "\n".join(out)
