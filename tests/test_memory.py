"""Peak memory of the streamed reports, traced in a fresh interpreter.

`graph` holds the model and its whole DOT text, which is small beside the
model, so its peak is about what parsing the model costs. A streamed report
holds the model and one batch of its pieces, so it should peak near `graph`,
while a report built whole peaks at the model plus its text, twice over.
"""

import pytest

from test_complexity import wide
from test_startup import run_child

# 1.2 MB of text: 4,000 UCAs and 4,000 causal factors, so the Markdown
# matrix of UCAs to causal factors alone is 16 million cells, 48 MB of text
N = 2000

PEAK = """
    import sys
    import tracemalloc

    from stpalint import cli

    tracemalloc.start()
    code = cli.run(sys.argv[1:])
    print((code, tracemalloc.get_traced_memory()[1]))
"""


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "wide.stpa"
    path.write_text(wide(N), encoding="utf-8")
    return path


def peak(path, *argv) -> int:
    """The traced peak, in bytes, of `argv` on `path`, written with `--output` to a file beside it."""
    code, traced = run_child(PEAK, *argv, "--output", str(path.with_suffix(".out")), str(path))
    assert code == 0
    return traced


@pytest.fixture(scope="module")
def graph_peak(wide_file):
    return peak(wide_file, "graph")


@pytest.mark.parametrize(
    ("argv", "limit"), [(["trace", "--format", "json"], 1.25), (["trace"], 1.5)], ids=["trace --format json", "trace"]
)
def test_a_streamed_trace_peaks_near_graph(argv, limit, wide_file, graph_peak):
    # when each was built whole, `trace --format json` peaked at 2.1 times
    # `graph`, and Markdown `trace` at 4.8 times
    assert peak(wide_file, *argv) <= limit * graph_peak
