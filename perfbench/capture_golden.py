"""Write golden.json: the SHA-256 of every request's report.

    python3 perfbench/capture_golden.py

Run once at the commit whose reports are the reference; the benchmark
fails every check of a request whose report digest differs from it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from child import execute

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cambrian
    from cambrian import suites

    golden = {}
    for workload in workloads.WORKLOADS.values():
        for request in workload.requests:
            report = execute(request, cambrian, suites)
            if len(report["checks"]) != request.checks:
                raise SystemExit(
                    f"{request.label}: {len(report['checks'])} checks, expected {request.checks}"
                )
            golden[request.label] = workloads.digest(report)[0]
            print(request.label, golden[request.label], flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
