"""Which functions of ``src/shiftlab`` the benchmark and the command line reach.

Runs every task of every benchmark workload once (``bench/workloads.py``,
full sizes, seed 7), the README command-line examples (the list in
``bench/workloads.py``) and these further runs: ``--format dot`` for
``rauzy``, ``abstract`` and ``xi``, and ``density --color`` with a
candidate sequence.  A ``sys.setprofile`` hook records every Python
function of ``src/shiftlab`` entered meanwhile.  Then it prints each
function never entered, with its line count, and the total of those lines.
With ``--cli`` it lists instead the functions that the command-line runs
alone never enter, and prints that total beside the first.

    python tests/reach.py
    python tests/reach.py --cli

A nested function is listed only when its enclosing function was entered;
otherwise its lines are already counted with the enclosing one.  Stdlib
only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "shiftlab"
INPUTS = "bench/inputs"
SEED = 7

EXTRA_CLI = (
    ["rauzy", "--substitution", f"{INPUTS}/fib.json", "--horizon", "12", "--n", "4",
     "--format", "dot"],
    ["abstract", "--graph", f"{INPUTS}/k3.json", "--search", "2", "--format", "dot"],
    ["xi", "--itinerary", f"{INPUTS}/itinerary.json", "--format", "dot"],
    ["density", "--seq", f"{INPUTS}/block.txt", "--horizon", "6", "--n", "2", "--k", "1",
     "--color", "--candidate", f"copy={INPUTS}/block.txt"],
)


class Tracer:
    """The calling convention of the benchmark's tracer, without spans."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


def functions(path: Path) -> list[tuple[int, int, str, int | None]]:
    """``(first line, line count, qualified name, enclosing first line)``
    of every function in a module; the first line is the one a code object
    reports, the first decorator's when there is one."""
    out = []

    def visit(node, prefix: str, outer: int | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}{child.name}"
                out.append((first, child.end_lineno - first + 1, name, outer))
                visit(child, f"{name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(path.read_text()), "", None)
    return out


def run_cli(examples) -> None:
    from shiftlab import cli

    for argv in [argv for _, argv in examples] + list(EXTRA_CLI):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"shiftlab {' '.join(argv)} exited {code}: {err.getvalue()}")


def run_benchmark(workloads) -> None:
    tracer = Tracer()
    for name in workloads.BUILDERS:
        for task in workloads.build(name, SEED, workloads.FULL):
            task.run(tracer)


def unreached(entered: set[tuple[str, int]]) -> list[tuple[int, str, str]]:
    """``(line count, place, name)`` of every function never entered whose
    enclosing function, if any, was entered."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        file = str(path)
        for first, lines, name, outer in functions(path):
            if (file, first) in entered:
                continue
            if outer is not None and (file, outer) not in entered:
                continue
            out.append((lines, f"{path.relative_to(SRC)}:{first}", name))
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--cli"]):
        print(__doc__)
        return 2
    os.chdir(ROOT)  # the CLI inputs are relative to the repository root
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    by_cli: set[tuple[str, int]] = set()
    by_rest: set[tuple[str, int]] = set()
    current = by_cli  # the set the hook adds to
    prefix = str(PACKAGE)

    def hook(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                current.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        import shiftlab.cli  # what importing the command line runs is its own

        current = by_rest
        import workloads

        current = by_cli
        run_cli(workloads.CLI_EXAMPLES)
        current = by_rest
        run_benchmark(workloads)
    finally:
        sys.setprofile(None)
    cli_only = unreached(by_cli)
    overall = unreached(by_cli | by_rest)
    for lines, place, name in cli_only if argv else overall:
        print(f"{lines:5d}  {place}  {name}")
    print(f"{sum(row[0] for row in overall):5d}  function lines never entered")
    if argv:
        print(f"{sum(row[0] for row in cli_only):5d}  function lines the command-line runs never enter")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
