"""Growth of each command, measured as doubling experiments in process.

Each shape is generated at sizes n and 8n, and `cli.run` is timed on both
with `time.process_time`: the garbage collector is run, then disabled for
the run, and the best of three runs counts. A linear cost gives a ratio of
about 8 and a quadratic one up to 64, so each ratio must stay under 16 (the
doubling test of Sedgewick and Wayne, *Algorithms*, 4th ed., section 1.4).
A shape enters here once its command is linear on it.

Where a cost can be counted, it is counted exactly: the adjacency lookups
that `validate_cfs` and `open_loop` make on an index whose `preds` and
`succs` count them. A count sees no work done inside C, which is why the
timed shapes stay.
"""

import gc
import time

import pytest

from stpalint import causal, cli
from stpalint.parser import parse_index

RUNS = 3
LIMIT = 16

HEAD = """\
loss L-1 "loss"
hazard H-1 "hazard" leads_to [L-1]
controller C "Controller"
process Plant "Plant"
action A "act" from C to Plant
"""
UCA = 'uca U-1 action = A guide = WrongTiming qualifier = TooLate hazards [H-1] "late"\n'


def fan_in(n: int) -> str:
    """n feedback edges from `Plant` into `C`, each via a sensor of its own."""
    sensors = "".join(f'sensor S-{i} "Sensor {i}"\n' for i in range(n))
    edges = "".join(f'feedback F-{i} "sense" from Plant to C via [S-{i}]\n' for i in range(n))
    # not a wrong-timing UCA: the fan-in is walked once, so a quadratic adjacency build stands out more
    return HEAD + sensors + edges + 'uca U-1 action = A guide = NotProvided hazards [H-1] "not given"\n'


def chain(n: int) -> str:
    """One feedback chain from `Plant` through n sensors, one edge per hop."""
    sensors = "".join(f'sensor S-{i} "Sensor {i}"\n' for i in range(n))
    hops = ["Plant", *(f"S-{i}" for i in range(n)), "C"]
    edges = "".join(f'feedback F-{i} "hop" from {a} to {b}\n' for i, (a, b) in enumerate(zip(hops, hops[1:])))
    return HEAD + sensors + edges + UCA


def via(n: int) -> str:
    """One feedback edge whose `via` list names n sensors."""
    sensors = "".join(f'sensor S-{i} "Sensor {i}"\n' for i in range(n))
    names = ", ".join(f"S-{i}" for i in range(n))
    return HEAD + sensors + f'feedback F "sense" from Plant to C via [{names}]\n' + UCA


def many_cfs(n: int) -> str:
    """n causal factors on one UCA, each with a description of its own."""
    cfs = "".join(f'cf CF-{i} category = SensorOperation at S for [U-1] "sensor fault {i}"\n' for i in range(n))
    return HEAD + 'sensor S "Sensor"\nfeedback F "sense" from Plant to C via [S]\n' + UCA + cfs


def redeclared(n: int) -> str:
    """n declarations of the loss id `L-1`."""
    return HEAD + 'loss L-1 "loss again"\n' * n + 'feedback F "sense" from Plant to C\n' + UCA


def wide(n: int) -> str:
    """n controllers, each with its own loop, variable, two UCAs and two causal factors."""
    parts = ['loss L-1 "loss"\nhazard H-1 "hazard" leads_to [L-1]\nprocess Plant "Plant"\n']
    for k in range(n):
        parts.append(
            f'controller C-{k} "Controller {k}"\nsensor S-{k} "Sensor {k}"\nactuator A-{k} "Actuator {k}"\n'
            f'action Act-{k} "act {k}" from C-{k} to Plant via [A-{k}]\n'
            f'feedback Fb-{k} "sense {k}" from Plant to C-{k} via [S-{k}]\n'
            f'variable V-{k} of C-{k} "mode {k}" {{"off", "on"}}\n'
            f'uca U-{k}-1 action = Act-{k} guide = NotProvided context {{ V-{k} = "on" }} hazards [H-1] "a {k}"\n'
            f'uca U-{k}-2 action = Act-{k} guide = WrongTiming qualifier = TooLate hazards [H-1] "b {k}"\n'
            f'cf CF-{k}-1 category = SensorOperation at S-{k} for [U-{k}-1] "sensor {k}"\n'
            f'cf CF-{k}-2 category = ActuationFailure at A-{k} for [U-{k}-2] "actuator {k}"\n'
        )
    return "".join(parts)


def lattice(n: int, width: int = 4, controllers: int = 1) -> str:
    """A shared sensor lattice of n layers, `width` sensors each, read by every controller.

    `Plant` feeds layer 0, each sensor feeds every sensor of the next layer,
    and the top layer feeds each controller. Each controller has one action
    to `Plant` and one wrong-timing UCA on it.
    """
    parts = ['loss L-1 "loss"\nhazard H-1 "hazard" leads_to [L-1]\nprocess Plant "Plant"\n']
    layers = [[f"S-{k}-{i}" for i in range(width)] for k in range(n)]
    parts += [f'sensor {s} "Sensor {s}"\n' for layer in layers for s in layer]
    hops = [("Plant", s) for s in layers[0]]
    hops += [(a, b) for lower, upper in zip(layers, layers[1:]) for a in lower for b in upper]
    for k in range(controllers):
        parts.append(
            f'controller C-{k} "Controller {k}"\naction A-{k} "act {k}" from C-{k} to Plant\n'
            f'uca U-{k} action = A-{k} guide = WrongTiming qualifier = TooLate hazards [H-1] "late {k}"\n'
        )
        hops += [(s, f"C-{k}") for s in layers[-1]]
    parts += [f'feedback F-{j} "sense" from {a} to {b}\n' for j, (a, b) in enumerate(hops)]
    return "".join(parts)


def busy_chain(n: int) -> str:
    """`chain(n)` with n UCAs on its one action, `U-i` wrong-timing for odd i (`U-1` is the chain's own)."""
    guides = ["NotProvided", "WrongTiming qualifier = TooLate"]
    more = (f'uca U-{i} action = A guide = {guides[i % 2]} hazards [H-1] "u {i}"\n' for i in range(n) if i != 1)
    return chain(n) + "".join(more)


def hazards(n: int) -> str:
    """n hazards and 10n UCAs, each citing three of them."""
    parts = ['loss L-1 "loss"\ncontroller C "C"\nprocess Plant "Plant"\naction A "act" from C to Plant\n']
    parts += [f'hazard H-{i} "hazard {i}" leads_to [L-1]\n' for i in range(n)]
    for i in range(10 * n):
        cited = sorted({f"H-{i % n}", f"H-{(7 * i + 1) % n}", f"H-{(13 * i + 2) % n}"})
        parts.append(f'uca U-{i} action = A guide = NotProvided hazards [{", ".join(cited)}] "u {i}"\n')
    return "".join(parts)


def one_uca_per_row(n: int) -> str:
    """log2(n) binary variables of `C` and n UCAs on `A`, one fully specified UCA per row, in every category."""
    k = n.bit_length() - 1
    categories = [
        "NotProvided",
        "ProvidedUnsafe qualifier = Excessive",
        "WrongTiming qualifier = TooLate",
        "WrongDuration qualifier = StoppedTooSoon",
    ]
    parts = [HEAD, *(f'variable V-{j} of C "v {j}" {{"off", "on"}}\n' for j in range(k))]
    for i in range(n):
        context = " ".join(f'V-{j} = "{"on" if i >> j & 1 else "off"}"' for j in range(k))
        guide = categories[i % 4]
        parts.append(f'uca U-{i} action = A guide = {guide} context {{ {context} }} hazards [H-1] "u {i}"\n')
    return "".join(parts)


def alternating(n: int) -> str:
    """n canonical UCAs, each followed by a feedback edge split over two lines.

    The first line of each edge is a whole canonical statement, so once the
    edge pattern compiles, its fast line is followed by the `via` line and the
    file is read again by the reader alone: once, not once per edge.
    """
    parts = [HEAD, 'sensor S "Sensor"\n']
    for i in range(n):
        parts.append(f'uca U-{i} action = A guide = NotProvided hazards [H-1] "u {i}"\n')
        parts.append(f'feedback F-{i} "sense {i}" from Plant to C\n    via [S]\n')
    return "".join(parts)


def one_line(n: int) -> str:
    """n loss statements on one line."""
    return " ".join(f'loss L-{i} "loss {i}"' for i in range(n)) + "\n"


# shape -> (generator, argv before the input file, n)
SHAPES = {
    "fan-in": (fan_in, ["check"], 2500),
    "chain": (chain, ["check"], 1000),
    "via": (via, ["check"], 2000),
    "many-cfs": (many_cfs, ["check"], 1500),
    "redeclared": (redeclared, ["check"], 3000),
    "one-line": (one_line, ["check"], 2000),
    "alternating": (alternating, ["check"], 500),
    "wide": (wide, ["check"], 100),
    "wide-fmt": (wide, ["fmt"], 200),
    "wide-checklist": (wide, ["checklist", "--uca", "U-0-1"], 200),
    "wide-trace-json": (wide, ["trace", "--format", "json"], 200),
    "wide-graph": (wide, ["graph"], 200),
    "wide-worksheet": (wide, ["worksheet", "--action", "Act-0"], 200),
    "wide-stats-json": (wide, ["stats", "--format", "json"], 200),
    "lattice": (lattice, ["check"], 50),
    "hazards": (hazards, ["stats"], 200),
    "one-uca-per-row": (one_uca_per_row, ["contexts", "--controller", "C", "--action", "A"], 512),
}


def seconds(argv: list[str], capsys) -> tuple[float, int]:
    """The best of RUNS process times of `cli.run(argv)`, with the collector off during each run, and its exit code.

    `fmt` rewrites its file on the first run only; the best run is one that finds it canonical.
    """
    best, codes = float("inf"), set()
    for _ in range(RUNS):
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            codes.add(cli.run(argv))
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
        capsys.readouterr()
    (code,) = codes
    return best, code


@pytest.mark.parametrize("shape", SHAPES)
def test_eight_times_the_model_costs_less_than_sixteen_times_the_time(shape, tmp_path, capsys):
    generate, argv, n = SHAPES[shape]
    times, codes = [], []
    for size in (n, 8 * n):
        path = tmp_path / f"{shape}-{size}.stpa"
        path.write_text(generate(size), encoding="utf-8")
        seconds_taken, code = seconds([*argv, str(path)], capsys)
        times.append(seconds_taken)
        codes.append(code)
    assert codes[0] == codes[1] and (argv == ["check"] or codes[0] == 0), (shape, codes)
    ratio = times[1] / times[0]
    assert ratio < LIMIT, f"{shape}: {times[0]:.4f} s at n = {n}, {times[1]:.4f} s at 8n, ratio {ratio:.1f}"


class CountingMap(dict):
    """A dict that counts its `get` calls and `in` tests: one per node a search enters or tests."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def lookups(text: str) -> int:
    """The adjacency lookups of `validate_cfs` and `open_loop` on a fresh index of `text`."""
    index, _ = parse_index([("m.stpa", text)])
    index.preds, index.succs = CountingMap(index.preds), CountingMap(index.succs)
    causal.validate_cfs(index)
    causal.open_loop(index)
    return index.preds.lookups + index.succs.lookups


# shape -> (generator, n) for the exact counts
COUNTED = {
    "fan-in": (fan_in, 200),
    "chain": (busy_chain, 200),
    "lattice": (lattice, 20),
    "wide": (wide, 50),
}


@pytest.mark.parametrize("shape", COUNTED)
def test_eight_times_the_model_costs_at_most_eight_and_a_half_times_the_lookups(shape):
    """Counts are exact, so the bound can be tight: a linear cost gives 8 plus what a constant adds."""
    generate, n = COUNTED[shape]
    small, large = lookups(generate(n)), lookups(generate(8 * n))
    assert 0 < small and large <= 8.5 * small, f"{shape}: {small} lookups at n = {n}, {large} at 8n"
