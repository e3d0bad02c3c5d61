"""Seeded, standard-library-only generators of synthetic `.stpa` models.

Every generator emits canonical text: the printer's header, one statement per
line, sections in the printer's order with one blank line before each. So
`stpalint fmt` must reproduce each generated file byte for byte. The same
seed always yields the same text.

`wide` is linear-size stress: many controllers, each with one control loop,
split into one shared structure file plus one file per controller, with K
planted off-path and K planted duplicate causal factors. `combinatorial` is
small text with large combinatorics: a width-2 feedback lattice under one
controller and many binary process-model variables on another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import HEADER

LATTICE_UCAS = 3  # ucas of `Pilot` under the lattice
CONTEXT_VARS = 3  # variables fixed by each partial context of `Planner`

QUALIFIERS = {
    "NotProvided": [None],
    "ProvidedUnsafe": [None, "Insufficient", "Excessive", "InsufficientOrExcessive"],
    "WrongTiming": ["TooEarly", "TooLate", "OutOfOrder"],
    "WrongDuration": ["StoppedTooSoon", "AppliedTooLong"],
}

_WORDS = (
    "vehicle lane object brake speed signal operator delay sensor frame route "
    "obstacle distance torque pressure mode limit surface light command state"
).split()


@dataclass
class Generated:
    """A generated model plus what the generator knows about it."""

    files: dict[str, str]  # file name -> canonical text, in command-line order
    controller: str  # target of `contexts`
    action: str  # target of `contexts` and `worksheet`
    checklist_uca: str
    walks: int  # closed-form count of walks returned by walk_paths, summed over ucas
    off_path: list[str] = field(default_factory=list)  # planted cf ids
    duplicates: list[str] = field(default_factory=list)  # planted cf ids


def _q(text: str) -> str:
    return '"' + text + '"'


def _ids(ids) -> str:
    return "[" + ", ".join(ids) + "]"


def _file(*sections: list[str]) -> str:
    lines = [HEADER]
    for section in sections:
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines) + "\n"


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _uca(rng, uid, action, guide, context, hazards, desc) -> str:
    qualifier = rng.choice(QUALIFIERS[guide])
    parts = [f"uca {uid} action = {action} guide = {guide}"]
    if qualifier:
        parts.append(f"qualifier = {qualifier}")
    if context:
        parts.append("context { " + " ".join(f"{k} = {_q(v)}" for k, v in context) + " }")
    parts.append("hazards " + _ids(hazards))
    parts.append(_q(desc))
    return " ".join(parts)


def _cf(cid, category, at, ucas, desc) -> str:
    return f"cf {cid} category = {category} at {at} for {_ids(ucas)} {_q(desc)}"


def _purpose(rng, n_losses, n_hazards, n_constraints):
    losses = [f'loss L-{i} "{_phrase(rng, 6)}"' for i in range(1, n_losses + 1)]
    loss_ids = [f"L-{i}" for i in range(1, n_losses + 1)]
    hazards = [
        f'hazard H-{i} "{_phrase(rng, 8)}" leads_to {_ids([loss_ids[(i - 1) % n_losses]])}'
        for i in range(1, n_hazards + 1)
    ]
    constraints = [
        f'constraint SC-{i} "{_phrase(rng, 8)}" mitigates [H-{i}]'
        for i in range(1, n_constraints + 1)
    ]
    return losses, hazards, constraints, [f"H-{i}" for i in range(1, n_hazards + 1)]


def wide(seed: int, controllers: int, ucas_per: int, cfs_per: int, vars: int, planted: int) -> Generated:
    """`controllers` independent loops C -> Act -> Proc -> Sen -> C.

    Each controller owns `vars` binary variables and `ucas_per` ucas on its
    one action; each uca has `cfs_per` on-path causal factors. `planted`
    extra factors sit on another controller's sensor (off-path), and as many
    again repeat an existing factor in other case and punctuation
    (duplicates). Every uca yields one feedback and one control walk.
    """
    rng = random.Random(seed)
    losses, hazards, constraints, hazard_ids = _purpose(rng, 2, 6, 3)
    width = max(3, len(str(controllers - 1)))
    entities, edges, files = [], [], {}
    names = [str(i).zfill(width) for i in range(controllers)]
    for n in names:
        entities += [
            f'controller Ctl-{n} "Controller {n}"',
            f'actuator Act-{n} "Actuator {n}"',
            f'sensor Sen-{n} "Sensor {n}"',
            f'process Proc-{n} "Process {n}"',
        ]
        edges += [
            f'action Cmd-{n} "Command {n}" from Ctl-{n} to Proc-{n} via [Act-{n}] signals ["cmd {n}"]',
            f'feedback Fb-{n} "State {n}" from Proc-{n} to Ctl-{n} via [Sen-{n}] signals ["state {n}"]',
        ]
    files["structure.stpa"] = _file(losses, hazards, constraints, entities, edges)

    planted_at = set(rng.sample(range(controllers), min(planted, controllers)))
    off_path, duplicates = [], []
    target = rng.randrange(controllers)
    checklist_uca = None
    for c, n in enumerate(names):
        var_ids = [f"V{n}-{k}" for k in range(vars)]
        variables = [
            f'variable {v} of Ctl-{n} "{_phrase(rng, 3)} {k}" {{"lo", "hi"}}'
            for k, v in enumerate(var_ids)
        ]
        ucas, cfs = [], []
        for u in range(ucas_per):
            uid = f"U{n}-{u:02d}"
            guide = "WrongTiming" if u == 0 else rng.choice(list(QUALIFIERS))
            context = [(v, rng.choice(("lo", "hi"))) for v in var_ids if rng.random() < 0.5]
            cited = sorted(rng.sample(hazard_ids, rng.choice((1, 2))), key=hazard_ids.index)
            if u < len(hazard_ids):
                cited = [hazard_ids[u]]  # every hazard is cited by some uca
            desc = f"{_phrase(rng, 9)} rev 0000"
            ucas.append(_uca(rng, uid, f"Cmd-{n}", guide, context, cited, desc))
            spots = [
                ("MentalModelContent", f"Ctl-{n}"),
                ("MentalModelUpdate", f"Ctl-{n}"),
                ("ControlAlgorithm", f"Ctl-{n}"),
                ("Presentation", f"Sen-{n}"),
                ("ProcessDisturbance", f"Proc-{n}"),
                ("ActuationFailure", f"Act-{n}"),
                ("ControlPathTransmission", f"Cmd-{n}"),
            ]
            for k, (category, at) in enumerate(rng.sample(spots, cfs_per)):
                cid = f"CF{n}-{u:02d}-{k}"
                cfs.append((cid, category, at, [uid], f"{cid} {_phrase(rng, 10)}"))
        if c in planted_at:
            other = names[(c + 1) % controllers]
            _, category, at, cited, desc = rng.choice(cfs)
            cfs.append((f"CF{n}-dup", category, at, cited, desc.upper() + "!"))
            duplicates.append(f"CF{n}-dup")
            cid = f"CF{n}-offpath"
            cfs.append((cid, "SensingLimitation", f"Sen-{other}", [f"U{n}-00"], f"{cid} {_phrase(rng, 8)}"))
            off_path.append(cid)
        if c == target:
            checklist_uca = f"U{n}-00"
        files[f"ctl_{n}.stpa"] = _file(variables, ucas, [_cf(*cf) for cf in cfs])

    t = names[target]
    return Generated(
        files=files,
        controller=f"Ctl-{t}",
        action=f"Cmd-{t}",
        checklist_uca=checklist_uca,
        walks=2 * controllers * ucas_per,
        off_path=off_path,
        duplicates=duplicates,
    )


def combinatorial(seed: int, layers: int, n_vars: int, ucas: int) -> Generated:
    """Two controllers over one plant.

    `Pilot` sits under a feedback lattice of `layers` layers of two sensors
    each, every sensor feeding both sensors of the next layer, so each of its
    LATTICE_UCAS ucas has 2**layers feedback walks and one control walk.
    `Planner` owns `n_vars` binary variables (2**n_vars contexts) and `ucas`
    ucas whose partial contexts fix CONTEXT_VARS variables each.
    """
    rng = random.Random(seed)
    losses, hazards, constraints, hazard_ids = _purpose(rng, 2, 3, 1)
    sensors = [(f"S{k:02d}a", f"S{k:02d}b") for k in range(1, layers + 1)]
    entities = [
        'controller Pilot "Pilot"',
        'controller Planner "Planner"',
        'actuator Servo "Servo"',
        'actuator Drive "Drive"',
        'sensor Gauge "Gauge"',
        'process Plant "Plant"',
    ]
    entities += [f'sensor {s} "Sensor {s}"' for pair in sensors for s in pair]
    edges = [
        'action Steer "Steer" from Pilot to Plant via [Servo] signals ["steer"]',
        'action Plan "Plan" from Planner to Plant via [Drive] signals ["plan"]',
        'feedback Gauge-fb "Gauge reading" from Plant to Planner via [Gauge]',
    ]
    edges += [f'feedback In-{s} "In {s}" from Plant to {s}' for s in sensors[0]]
    for k in range(layers - 1):
        for a in sensors[k]:
            for b in sensors[k + 1]:
                edges.append(f'feedback F-{a}-{b} "Hop {a} {b}" from {a} to {b}')
    edges += [f'feedback Out-{s} "Out {s}" from {s} to Pilot' for s in sensors[-1]]

    var_ids = [f"P{k:02d}" for k in range(n_vars)]
    variables = [f'variable {v} of Planner "Planner var {v}" {{"off", "on"}}' for v in var_ids]

    lines, cfs = [], []
    guides = ["NotProvided", "ProvidedUnsafe", "WrongTiming", "WrongDuration"]
    for u in range(LATTICE_UCAS):
        uid = f"UL-{u + 1}"
        guide = guides[(u + 2) % len(guides)]
        lines.append(_uca(rng, uid, "Steer", guide, [], [hazard_ids[u % len(hazard_ids)]], _phrase(rng, 10)))
        if u < 2:
            cfs.append(_cf(f"CF-L{u + 1}", "SensingLimitation", rng.choice(rng.choice(sensors[:-1])), [uid], _phrase(rng, 8)))
    for u in range(ucas):
        uid = f"UP-{u + 1:02d}"
        guide = rng.choice(["NotProvided", "ProvidedUnsafe"] * 4 + guides[2:])
        fixed = sorted(rng.sample(range(n_vars), CONTEXT_VARS))
        context = [(var_ids[k], rng.choice(("off", "on"))) for k in fixed]
        lines.append(_uca(rng, uid, "Plan", guide, context, [rng.choice(hazard_ids)], _phrase(rng, 10)))
        if u % 4 == 0:
            cfs.append(_cf(f"CF-P{u + 1:02d}", rng.choice(["Presentation", "MentalModelContent"]),
                           "Gauge" if u % 8 == 0 else "Planner", [uid], _phrase(rng, 8)))

    text = _file(losses, hazards, constraints, entities, edges, variables, lines, cfs)
    return Generated(
        files={"model.stpa": text},
        controller="Planner",
        action="Plan",
        checklist_uca="UL-1",  # WrongTiming: timing prompts for every lattice element too
        walks=LATTICE_UCAS * (2**layers + 1) + ucas * 2,
    )
