"""Which functions of ``src/shiftlab`` the benchmark and the command line reach.

Runs every task of every benchmark workload once (``bench/workloads.py``,
full sizes, seed 7), the README command-line examples (the list in
``bench/workloads.py``) and these further runs: ``--format dot`` for
``rauzy``, ``abstract`` and ``xi``, and ``density --color`` with a
candidate sequence.  A ``sys.setprofile`` hook records every Python
function of ``src/shiftlab`` entered meanwhile.  Then it prints each
function never entered, with its line count, and the total of those lines.

    python tests/reach.py

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


def run_everything() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from shiftlab import cli

    tracer = Tracer()
    for name in workloads.BUILDERS:
        for task in workloads.build(name, SEED, workloads.FULL):
            task.run(tracer)
    for argv in [argv for _, argv in workloads.CLI_EXAMPLES] + list(EXTRA_CLI):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"shiftlab {' '.join(argv)} exited {code}: {err.getvalue()}")


def main() -> int:
    os.chdir(ROOT)  # the CLI inputs are relative to the repository root
    sys.path.insert(0, str(SRC))
    entered: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def hook(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run_everything()
    finally:
        sys.setprofile(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        file = str(path)
        for first, lines, name, outer in functions(path):
            if (file, first) in entered:
                continue
            if outer is not None and (file, outer) not in entered:
                continue
            print(f"{lines:5d}  {path.relative_to(SRC)}:{first}  {name}")
            total += lines
    print(f"{total:5d}  function lines never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
