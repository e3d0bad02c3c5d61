"""Loader for the bundled teleoperated-vehicle case study.

The corpus transcribes a published remote-driving analysis: purpose
declarations, the detailed control structure, the five process-model
variables, the 17 brake-command UCAs and 30 causal factors. It doubles as
golden test data and as the documentation example.

`structure_abstract.stpa` is a Fig-3-level abstraction of the same system: a
standalone alternative model, not merged with the detailed structure (the
entity ids would collide), so `CORPUS_FILES` leaves it out.
"""

from __future__ import annotations

import os
from pathlib import Path

from .model import Diagnostic, StpaModel
from .parser import parse, read_source

CORPUS_FILES = [
    "purpose.stpa",
    "structure_detailed.stpa",
    "variables.stpa",
    "ucas_brake.stpa",
    "causal_factors.stpa",
]

def corpus_dir() -> Path:
    """Locate the corpus directory.

    Honors STPA_CORPUS_DIR; otherwise expects the `corpus/` directory of a
    source checkout (the default for editable installs).
    """
    env = os.environ.get("STPA_CORPUS_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "corpus"


def corpus_paths(root: Path | None = None) -> list[Path]:
    base = root if root is not None else corpus_dir()
    return [base / name for name in CORPUS_FILES]


def load_corpus(root: Path | None = None) -> tuple[StpaModel, list[Diagnostic]]:
    """Parse the full corpus (detailed structure) into one model."""
    return parse([(str(path), read_source(path)) for path in corpus_paths(root)])
