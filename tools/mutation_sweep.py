"""Comparison-flip mutation sweep over one module of the package.

Each mutant flips one comparison operator of the module: == and !=, <
and >=, > and <=, in and not in.  The sweep copies the repository to a
temporary directory, writes one mutant at a time into the copy (the
repository itself is never written), and runs the module's own tests
(tests/test_<module>.py) with tests/test_negative_controls.py and
tests/test_golden.py under ``pytest -x``.  A mutant that passes them
survives, and each survivor is run again against the whole Tier-1
suite.  The timeouts come from the unmutated copy: the sweep times its
run of the module's tests first, and a mutant whose run exceeds
MUTANT_FACTOR times that counts as killed; when the first survivor needs
its Tier-1 run, the sweep times one unmutated Tier-1 run, and each
survivor's Tier-1 run gets TIER1_FACTOR times that.  On Linux each
pytest run is also limited to MEMORY bytes of address space, so a mutant
that allocates without end fails with MemoryError and counts as killed
too.

    python tools/mutation_sweep.py src/cambrian/fans.py

Prints one JSON line per mutant (the line and column of its comparison,
the flip, its verdict) and a last summary line with the timeouts used;
exits 1 when a mutant survives Tier-1.  Mutants are written with
``ast.unparse``, so their layout differs from the source; no test reads
module source.  The sweep is slow (one pytest run per comparison), so it
is not part of Tier-1.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANT_FACTOR = 20
TIER1_FACTOR = 3
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


def _pytest(copy: Path, targets, timeout=None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in ``copy``,
    stopped after ``timeout`` seconds unless that is None."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_memory if sys.platform == "linux" else None,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def _timed_pytest(copy: Path, targets):
    """The verdict and wall time of one pytest run in ``copy``, with no
    timeout: the run the timeouts are derived from."""
    start = time.perf_counter()
    verdict = _pytest(copy, targets)
    return verdict, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module path inside the repository, e.g. src/cambrian/fans.py")
    module = Path(parser.parse_args(argv).module)

    source = (ROOT / module).read_text()
    tests = [f"tests/test_{module.stem}.py", *CONTROLS]
    tests = [t for t in tests if (ROOT / t).exists()]
    found = mutants(source)
    survivors = 0
    timeouts = {}
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / module
        verdict, seconds = _timed_pytest(copy, tests)
        if verdict != "passed":
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        timeouts["tests"] = round(MUTANT_FACTOR * seconds, 1)
        for row, col, old, new, mutated in found:
            target.write_text(mutated)
            verdict = _pytest(copy, tests, timeouts["tests"])
            record = {"line": row, "col": col, "flip": f"{old} -> {new}", "tests": verdict}
            if verdict == "passed":
                if "tier1" not in timeouts:
                    target.write_text(source)
                    verdict, seconds = _timed_pytest(copy, [])
                    if verdict != "passed":
                        print("the unmutated copy fails Tier-1", file=sys.stderr)
                        return 2
                    timeouts["tier1"] = round(TIER1_FACTOR * seconds, 1)
                    target.write_text(mutated)
                record["tier1"] = _pytest(copy, [], timeouts["tier1"])
                survivors += record["tier1"] == "passed"
            print(json.dumps(record), flush=True)
    print(json.dumps({
        "module": str(module), "mutants": len(found), "tier1_survivors": survivors,
        "timeouts_s": timeouts,
    }))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
