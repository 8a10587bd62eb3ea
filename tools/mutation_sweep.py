"""Comparison-flip mutation sweep over one module of the package.

Each mutant flips one comparison operator of the module: == and !=, <
and >=, > and <=, in and not in.  The sweep copies the repository to a
temporary directory, writes one mutant at a time into the copy (the
repository itself is never written), and runs the module's own tests
(tests/test_<module>.py) with tests/test_negative_controls.py and
tests/test_golden.py under ``pytest -x``.  A mutant that passes them
survives, and each survivor is run again against the whole Tier-1
suite.  A mutant whose run exceeds TIMEOUT seconds counts as killed.
On Linux each pytest run is also limited to MEMORY bytes of address
space, so a mutant that allocates without end fails with MemoryError and
counts as killed too.

    python tools/mutation_sweep.py src/cambrian/fans.py

Prints one JSON line per mutant (the line and column of its comparison,
the flip, its verdict) and a last summary line; exits 1 when a mutant
survives Tier-1.  Mutants are written with ``ast.unparse``, so their
layout differs from the source; no test reads module source.  The sweep
is slow (one pytest run per comparison), so it is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0
# Unmutated Tier-1 peaks near 124 MB of address space in one pytest
# process on Python 3.11; its out-of-memory test sets a lower limit of its
# own for its child.
MEMORY = 2**30
FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=",
    ast.Gt: ">", ast.LtE: "<=", ast.In: "in", ast.NotIn: "not in",
}
CONTROLS = ("tests/test_negative_controls.py", "tests/test_golden.py")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def mutants(source: str):
    """(line, column, old, new, mutated source) for every flippable
    comparison operator, in source order."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for i, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            node.ops[i] = FLIPS[type(op)]()
            found.append((
                node.lineno, node.col_offset, SYMBOLS[type(op)],
                SYMBOLS[FLIPS[type(op)]], ast.unparse(tree),
            ))
            node.ops[i] = op
    return sorted(found, key=lambda m: m[:2])


def _limit_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _pytest(copy: Path, targets) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_memory if sys.platform == "linux" else None,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module path inside the repository, e.g. src/cambrian/fans.py")
    module = Path(parser.parse_args(argv).module)

    source = (ROOT / module).read_text()
    tests = [f"tests/test_{module.stem}.py", *CONTROLS]
    tests = [t for t in tests if (ROOT / t).exists()]
    found = mutants(source)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / module
        if _pytest(copy, tests) != "passed":
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        for row, col, old, new, mutated in found:
            target.write_text(mutated)
            verdict = _pytest(copy, tests)
            record = {"line": row, "col": col, "flip": f"{old} -> {new}", "tests": verdict}
            if verdict == "passed":
                record["tier1"] = _pytest(copy, [])
                survivors += record["tier1"] == "passed"
            print(json.dumps(record), flush=True)
    print(json.dumps({"module": str(module), "mutants": len(found), "tier1_survivors": survivors}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
