"""Reference outputs computed without stpalint.

A small line scanner reads `.stpa` text (one statement per line, as in the
corpus and the generators) into plain records, and the functions below derive
from those records what each CLI command must print. They follow the
documented output formats and the walk rules of STPA step 4, but compute
them differently from the program: on-path sets by reachability instead of
walk enumeration, context-table marks by enumerating each UCA's matching
rows instead of matching every row. Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from collections import deque

HEADER = "# stpa model (canonical format)"
SECTIONS = [
    ("loss",),
    ("hazard",),
    ("constraint",),
    ("controller", "sensor", "actuator", "process", "environment"),
    ("action", "feedback"),
    ("variable",),
    ("uca",),
    ("cf",),
    ("controller_constraint",),
]
SECTION_OF = {kw: i for i, kws in enumerate(SECTIONS) for kw in kws}
GUIDES = ["NotProvided", "ProvidedUnsafe", "WrongTiming", "WrongDuration"]
WORKSHEET_HEADERS = [
    "Not providing causes hazards",
    "Providing causes hazards",
    "Too early, too late, out of order",
    "Stopped too soon, applied too long",
]

_TOKEN = re.compile(r'"(?P<s>(?:[^"\\]|\\.)*)"|(?P<w>[A-Za-z0-9_][A-Za-z0-9_-]*)|(?P<p>[\[\]{}=,])')
_DIAG = re.compile(r"^.*?:\d+:\d+: (error|warning|info)\[([^\]]+)\]: (.*)$")


def _statement(line: str) -> dict:
    toks = [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN.finditer(line)]
    rec = {"kw": toks[0][1], "id": toks[1][1], "words": [], "strings": []}
    i = 2
    while i < len(toks):
        kind, text = toks[i]
        if kind == "p" and text in "[{":
            close = "]" if text == "[" else "}"
            j, items = i + 1, []
            while toks[j] != ("p", close):
                if toks[j][0] != "p":
                    items.append(toks[j][1])
                j += 1
            prev_kind, prev = toks[i - 1]
            rec[prev if prev_kind == "w" else "values"] = items
            i = j + 1
        elif kind == "p" and text == "=":
            rec[toks[i - 1][1]] = toks[i + 1][1]
            rec["words"].pop()
            i += 2
        else:
            rec["strings" if kind == "s" else "words"].append(text)
            i += 1
    return rec


class Model:
    """Declarations scanned from `.stpa` text, in source order."""

    def __init__(self, texts: list[str]):
        self.lines: list[list[tuple[str, str]]] = []  # per file: (keyword, line)
        self.records: list[dict] = []
        for text in texts:
            stmts = []
            for raw in text.splitlines():
                line = raw.strip()
                if line and not line.startswith("#"):
                    rec = _statement(line)
                    stmts.append((rec["kw"], line))
                    self.records.append(rec)
            self.lines.append(stmts)
        self.entities = {e["id"]: e for e in self.decls(3)}
        self.edges = {e["id"]: e for e in self.decls(4)}
        self.ucas = self.decls(6)
        self.cfs = self.decls(7)

    def decls(self, section: int) -> list[dict]:
        return [r for r in self.records if SECTION_OF[r["kw"]] == section]

    def of(self, kw: str) -> list[dict]:
        return [r for r in self.records if r["kw"] == kw]


def chain(edge: dict) -> list[str]:
    words = edge["words"]
    return [words[words.index("from") + 1], *edge.get("via", []), words[words.index("to") + 1]]


# -- canonical text ---------------------------------------------------------


def canonical(text: str) -> str:
    """What `fmt` must write for one file: header, then sections in fixed order."""
    stmts = Model([text]).lines[0]
    out = [HEADER]
    for section in range(len(SECTIONS)):
        picked = [line for kw, line in stmts if SECTION_OF[kw] == section]
        if picked:
            out.append("")
            out.extend(picked)
    return "\n".join(out) + "\n"


# -- report expectations ----------------------------------------------------


def stats(m: Model) -> dict:
    def count(items, key):
        out: dict[str, int] = {}
        for item in items:
            out[key(item)] = out.get(key(item), 0) + 1
        return out

    by_action: dict[str, dict[str, int]] = {}
    for u in m.ucas:
        per = by_action.setdefault(u["action"], {})
        per[u["guide"]] = per.get(u["guide"], 0) + 1
    return {
        "stpa_schema": 1,
        "losses": len(m.of("loss")),
        "hazards": len(m.of("hazard")),
        "constraints": len(m.of("constraint")),
        "edges": len(m.edges),
        "variables": len(m.of("variable")),
        "ucas": len(m.ucas),
        "causal_factors": len(m.cfs),
        "controller_constraints": len(m.of("controller_constraint")),
        "entities_by_kind": count(m.entities.values(), lambda e: e["kw"]),
        "ucas_by_guide": count(m.ucas, lambda u: u["guide"]),
        "ucas_by_action_guide": by_action,
        "ucas_per_hazard": {
            h["id"]: sum(1 for u in m.ucas if h["id"] in u["hazards"]) for h in m.of("hazard")
        },
        "cfs_by_category": count(m.cfs, lambda c: c["category"]),
    }


_NODE_STYLE = {
    "controller": "shape=box",
    "sensor": "shape=box, style=rounded",
    "actuator": "shape=box, style=rounded",
    "process": "shape=box",
    "environment": "shape=box, style=dashed",
}


def _dq(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph(m: Model) -> str:
    lines = ["digraph control_structure {", "  rankdir=TB;"]
    for e in m.decls(3):
        lines.append(f"  {_dq(e['id'])} [label={_dq(e['strings'][0])}, {_NODE_STYLE[e['kw']]}];")
    for edge in m.decls(4):
        style = "solid" if edge["kw"] == "action" else "dashed"
        hops = chain(edge)
        for i, (a, b) in enumerate(zip(hops, hops[1:])):
            label = f", label={_dq(', '.join(edge['signals']))}" if i == 0 and edge.get("signals") else ""
            lines.append(f"  {_dq(a)} -> {_dq(b)} [style={style}{label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def worksheet(m: Model, action: str) -> str:
    columns = {g: [] for g in GUIDES}
    for u in m.ucas:
        if u["action"] == action:
            cell = f"{u['id']}: {u['strings'][0]} [{', '.join(u['hazards'])}]"
            columns[u["guide"]].append(cell.replace("|", "\\|").replace("\n", " "))
    title = m.edges[action]["strings"][0]
    lines = [f"# Unsafe control actions: {title} ({action})", "", _row(WORKSHEET_HEADERS), _row(["---"] * 4)]
    for i in range(max(len(c) for c in columns.values())):
        lines.append(_row([columns[g][i] if i < len(columns[g]) else "" for g in GUIDES]))
    return "\n".join(lines + [""])


def context_csv(m: Model, controller: str, action: str) -> str:
    """Marks by enumerating each UCA's matching rows directly (mixed radix)."""
    variables = [v for v in m.of("variable") if v["words"][-1] == controller]
    sizes = [len(v["values"]) for v in variables]
    strides = [1] * len(variables)
    for k in range(len(variables) - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]
    total = strides[0] * sizes[0] if variables else 1
    marks: list[dict[str, list[str]] | None] = [None] * total
    for u in m.ucas:
        if u["action"] != action or chain(m.edges[action])[0] != controller:
            continue
        fixed = dict(zip(u.get("context", [])[::2], u.get("context", [])[1::2]))
        base, offsets = 0, [0]
        for k, v in enumerate(variables):
            if v["id"] in fixed:
                base += v["values"].index(fixed[v["id"]]) * strides[k]
            else:
                offsets = [o + i * strides[k] for o in offsets for i in range(sizes[k])]
        for o in offsets:
            row = marks[base + o]
            if row is None:
                row = marks[base + o] = {}
            row.setdefault(u["guide"], []).append(u["id"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([v["strings"][0] for v in variables] + GUIDES)
    for row, values in zip(marks, itertools.product(*(v["values"] for v in variables))):
        writer.writerow(list(values) + [" ".join((row or {}).get(g, [])) for g in GUIDES])
    return buf.getvalue()


def _is_network(entity: dict) -> bool:
    return "network" in entity["id"].lower() or "network" in entity["strings"][0].lower()


def _reach(seen: list[str], start: str, step: dict[str, list[str]], stop=lambda n: False) -> list[str]:
    """`seen` plus every node reachable from `start` without expanding a `stop` node."""
    seen, queue = list(seen), deque([start])
    while queue:
        for nxt in step.get(queue.popleft(), []):
            if nxt not in seen:
                seen.append(nxt)
                if not stop(nxt):
                    queue.append(nxt)
    return seen


def _hops(m: Model, kind: str, backwards: bool) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for e in m.edges.values():
        if e["kw"] == kind:
            hops = chain(e)
            for a, b in zip(hops, hops[1:]):
                src, dst = (b, a) if backwards else (a, b)
                out.setdefault(src, []).append(dst)
    return out


def on_path(m: Model, uca: dict) -> tuple[list[str], list[str]]:
    """Elements of the feedback walks and of the control walks of one UCA."""
    action = m.edges[uca["action"]]
    controller = chain(action)[0]
    preds = _hops(m, "feedback", backwards=True)
    feedback = _reach([controller], controller, preds) if controller in preds else []
    kind = lambda n: m.entities[n]["kw"] if n in m.entities else None
    hops = chain(action)
    control = hops if kind(hops[-1]) == "process" else _reach(
        hops, hops[-1], _hops(m, "action", backwards=False), stop=lambda n: kind(n) == "process"
    )
    return feedback, control


def checklist(m: Model, uca_id: str) -> list[tuple[str, str]]:
    """Sorted (category, located_at) pairs of the UCA's causal-factor checklist."""
    uca = next(u for u in m.ucas if u["id"] == uca_id)
    preds = _hops(m, "feedback", backwards=True)
    feedback, control = on_path(m, uca)
    controller = chain(m.edges[uca["action"]])[0]
    items = {("MentalModelContent", controller), ("MentalModelUpdate", controller), ("ControlAlgorithm", controller)}
    for path, net in ((feedback, "TransmissionLoss"), (control, "ControlPathTransmission")):
        for n in path:
            e = m.entities.get(n)
            if n == controller or e is None:
                continue
            if e["kw"] in ("environment", "process"):
                items.add(("ProcessDisturbance", n))
            elif e["kw"] == "controller":
                items.add(("PreProcessing", n))
            elif _is_network(e):
                items.add((net, n))
            elif path is control:
                items.add(("ActuationFailure", n))
            else:
                if n in preds.get(controller, []):
                    items.add(("Presentation", n))
                if any(n in preds.get(p, []) for p in feedback if p != controller):
                    items.update({("SensingLimitation", n), ("SensorOperation", n)})
    if uca["guide"] == "WrongTiming":
        items.update(("TimingDelay", n) for n in feedback if m.entities.get(n, {}).get("kw") != "environment")
    return sorted(items)


# -- output checks ------------------------------------------------------------


def check_verdict(m: Model, rc: int, stderr: str, off_path: list[str], duplicates: list[str]) -> list[str]:
    """`check`: exactly the planted errors and warnings, and every UCA without a CF."""
    found = {"error": [], "warning": [], "trace/uca-without-cf": []}
    problems = []
    for line in stderr.splitlines():
        d = _DIAG.match(line)
        if d is None:
            continue
        severity, rule, message = d.groups()
        if severity == "error" and rule == "cf/off-path":
            found["error"].append(message.split()[3])
        elif severity == "warning" and rule == "cf/possible-duplicate":
            found["warning"].append(message.split()[2])
        elif rule == "trace/uca-without-cf":
            found[rule].append(message.split()[1])
        elif severity != "info":
            problems.append(f"unexpected diagnostic: {line}")
    cited = {ref for cf in m.cfs for ref in cf["for"]}
    expect = {
        "error": sorted(off_path),
        "warning": sorted(duplicates),
        "trace/uca-without-cf": sorted(u["id"] for u in m.ucas if u["id"] not in cited),
    }
    for key, want in expect.items():
        if sorted(found[key]) != want:
            problems.append(f"{key}: got {sorted(found[key])[:5]}..., want {want[:5]}...")
    want_rc = 2 if off_path else 1 if duplicates else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, want {want_rc}")
    return problems


def checklist_output(m: Model, uca_id: str, fmt: str, stdout: str) -> list[str]:
    if fmt == "json":
        items = [(i["category"], i["located_at"]) for i in json.loads(stdout)["items"]]
    else:
        items = re.findall(r"^- \*\*(\w+)\*\* at `([^`]+)`", stdout, re.M)
    want = checklist(m, uca_id)
    if len(items) != len(set(items)) or sorted(items) != want:
        return [f"checklist {uca_id}: got {sorted(items)}, want {want}"]
    return []


def trace_json(m: Model, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    problems = []
    for key, section in (
        ("losses", 0), ("hazards", 1), ("constraints", 2), ("entities", 3), ("edges", 4),
        ("variables", 5), ("ucas", 6), ("causal_factors", 7), ("controller_constraints", 8),
    ):
        if [d["id"] for d in doc[key]] != [r["id"] for r in m.decls(section)]:
            problems.append(f"trace json: ids of {key} differ")
    for got, want in zip(doc["ucas"], m.ucas):
        if (got["action"], got["guide"]["category"]) != (want["action"], want["guide"]):
            problems.append(f"trace json: uca {want['id']} differs")
            break
    return problems


def worksheet_json(m: Model, action: str, stdout: str) -> list[str]:
    got = [(u["id"], u["description"]) for u in json.loads(stdout)["ucas"]]
    want = [(u["id"], u["strings"][0]) for u in m.ucas if u["action"] == action]
    return [] if got == want else [f"worksheet json for {action} differs"]


def stats_md(m: Model, stdout: str) -> list[str]:
    s = stats(m)
    want = [
        f"- losses: {s['losses']}",
        f"- hazards: {s['hazards']}",
        f"- constraints: {s['constraints']}",
        f"- edges: {s['edges']}",
        f"- variables: {s['variables']}",
        f"- unsafe control actions: {s['ucas']}",
        f"- causal factors: {s['causal_factors']}",
        f"- controller constraints: {s['controller_constraints']}",
    ]
    got = stdout.splitlines()[2:10]
    return [] if got == want else [f"stats md counts differ: {got}"]


def equal(name: str, got: str, want: str) -> list[str]:
    if got == want:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return [f"{name}: output differs from reference at byte {at} ({len(got)} vs {len(want)} bytes)"]
