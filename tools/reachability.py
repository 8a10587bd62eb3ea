"""Which functions of the package no command reaches.

Parses every module of ``src/cambrian`` with ``ast`` and lists its
top-level functions and the methods of its top-level classes.  Then runs
``cli.main`` in this one process under ``sys.setprofile`` for a fixed set
of 80 invocations and records every code object entered:

- each of the 12 suites with the default family and with A, B, I2, H3;
- ``fan`` for A by ``--signature`` with ``--stasheff-check``, for A by
  ``--orientation``, for B by ``--signature``, and for H3;
- ``build`` for A, B, I2 and H3, as json and as dot, each for the weak
  order and for one orientation.

A ``def`` counts as reached only when its own code object was entered: a
code object starts on the ``def`` line, or on the first decorator line
of a decorated function.  Crediting any code object that starts a few
lines above a ``def`` would credit a function with the call of its
neighbour.  Each invocation's stdout and stderr are discarded, and its
``SystemExit`` (an argparse refusal) is caught and read as its exit code.

    python tools/reachability.py

Prints one line per unreached function (path, line, name, lines), then a
last JSON line: the tally of exit codes, and the unreached functions and
their lines, in total and by module.  The 24 refusals with exit 2 are
the suites that do not cover a family.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cambrian"
sys.path.insert(0, str(ROOT / "src"))

from cambrian import cli  # noqa: E402
from cambrian.suites import SUITE_NAMES  # noqa: E402

BUILDS = (
    (["--family", "A", "--rank", "3"], "1>2,3>2"),
    (["--family", "B", "--rank", "3"], "0>1,1>2"),
    (["--family", "I2", "--m", "5"], "1>2"),
    (["--family", "H3"], "1>2,2>3"),
)
FANS = (
    ["--family", "A", "--rank", "3", "--signature", "udud", "--stasheff-check"],
    ["--family", "A", "--rank", "3", "--orientation", "1>2,3>2"],
    ["--family", "B", "--rank", "3", "--signature", "udu"],
    ["--family", "H3", "--orientation", "1>2,2>3"],
)


def invocations() -> list[list[str]]:
    """The argument lists, in the order they run."""
    runs = []
    for suite in SUITE_NAMES:
        runs.append(["verify", "--suite", suite])
        runs += [["verify", "--suite", suite, "--family", f] for f in ("A", "B", "I2", "H3")]
    runs += [["fan", *args] for args in FANS]
    for args, orientation in BUILDS:
        for fmt in ("json", "dot"):
            runs.append(["build", *args, "--format", fmt])
            runs.append(["build", *args, "--format", fmt, "--orientation", orientation])
    return runs


def functions(path: Path):
    """(start lines, def line, name, line count) of each top-level function
    and each method of a top-level class.  The start lines are those a
    code object of the function can start on: the def line and the first
    decorator line; the lines are counted from the def line to the end."""
    tree = ast.parse(path.read_text())
    found = []
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in inner:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found.append(({fn.lineno, first}, fn.lineno, prefix + fn.name,
                              fn.end_lineno - fn.lineno + 1))
    return found


def run(argv: list[str]) -> int:
    """cli.main's exit code for ``argv``, with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    codes = Counter()
    sys.setprofile(profile)
    try:
        for argv in invocations():
            codes[run(argv)] += 1
    finally:
        sys.setprofile(None)

    by_module, total_functions, total_lines = {}, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path.resolve())
        unreached = [
            (line, name, size)
            for starts, line, name, size in functions(path)
            if not any((filename, start) in entered for start in starts)
        ]
        for line, name, size in unreached:
            print(f"{path.relative_to(ROOT)}:{line} {name} ({size} lines)")
        if unreached:
            lines = sum(size for _, _, size in unreached)
            by_module[path.stem] = {"functions": len(unreached), "lines": lines}
            total_functions += len(unreached)
            total_lines += lines
    print(json.dumps({
        "invocations": sum(codes.values()),
        "exit_codes": {str(k): v for k, v in sorted(codes.items())},
        "unreached_functions": total_functions,
        "unreached_lines": total_lines,
        "by_module": by_module,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
