"""``src/shiftlab`` holds only code that a command, a benchmark task or
the README reaches.

``tests/reach.py`` lists every function that the benchmark tasks and
the command-line runs never enter.  Each one must be kept below with its
reason; a helper that only tests call belongs in ``tests/``, as a
reference beside the tests that use it.
"""

import re
import subprocess
import sys

import reach

ROW = re.compile(r"^\s*\d+\s+shiftlab/(\S+):\d+\s+(\S+)$")

# (module, qualified name): why it stays in src/ though no run enters it
WRITER = "round-trip inverse of a reader; ROADMAP item 5 gives the writers a caller"
KEPT = {
    ("abstract_graphs.py", "Move.to_json"): WRITER,
    ("abstract_graphs.py", "Event.to_json"): WRITER,
    ("abstract_graphs.py", "graph_to_json"): WRITER,
    ("abstract_graphs.py", "coloring_to_json"): WRITER,
    ("abstract_graphs.py", "itinerary_to_json"): WRITER,
    ("cli.py", "_Parser.error"): "usage errors, which exit 1",
    ("density.py", "BlockDensity.averages"): "density --word",
    ("density.py", "BlockDensity.to_json"): "density --word",
    ("language.py", "_detect_period"): "periodic inputs",
    ("words.py", "Word.__repr__"): "symbols of several characters",
    ("words.py", "Word.tokens"): "symbols of several characters",
    ("generators.py", "fibonacci_prefix"): "the README library sketch",
}


def test_every_unreached_function_is_kept_for_a_reason():
    out = subprocess.run(
        [sys.executable, str(reach.ROOT / "tests" / "reach.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    unreached = {m.groups() for m in map(ROW.match, out.splitlines()) if m}
    assert unreached, out  # the listing was read
    assert unreached <= set(KEPT), sorted(unreached - set(KEPT))


def test_every_kept_name_exists():
    names = {
        (path.name, name)
        for path in reach.PACKAGE.glob("*.py")
        for _, _, name, _ in reach.functions(path)
    }
    assert set(KEPT) <= names, sorted(set(KEPT) - names)
