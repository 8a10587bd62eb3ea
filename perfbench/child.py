"""One pass of a workload in a fresh interpreter, started by run.py.

    python3 child.py <root> <workload> <order-seed> <trace 0|1> <spawn-time>

Builds and validates every weak order the workload needs, then makes its
requests one at a time and checks each report.  Prints one JSON line with
monotonic-clock timestamps, per-request outcomes, and the set-up and
verdict times since ``spawn-time`` in wall seconds and, untraced, in
reference seconds (see speed.py).  A traced pass runs without the speed
probe and also gives the spans summarised per layer.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

import speed
import workloads


def execute(request, cambrian, suites) -> dict:
    if request.kind == "suite":
        return suites.run_suite(
            request.name, family=request.family, max_rank=request.max_rank
        )
    if request.kind == "fibers":
        return suites.suite_fibers(request.max_rank)
    checks = []
    for n in request.ns:
        system = suites.get_system("A", n - 1)
        for orientation in cambrian.all_orientations(system):
            quotient = cambrian.cambrian_lattice(system, orientation).quotient
            poset = cambrian.forcing_poset(quotient)
            label = quotient.elements
            forced = sorted(
                (list(label[g]), sorted(list(label[h]) for h in hs))
                for g, hs in poset.forced.items()
            )
            checks.append(
                {
                    "name": f"A n={n} [{orientation}]",
                    "join_irreducibles": len(poset.nodes),
                    "forced": forced,
                }
            )
    return {"suite": "forcing", "checks": checks}


def failed_checks(request, checks: list, digest_matches: bool) -> int:
    """Checks of the request that fail: all of them when the report's
    digest or check count is wrong, else those reporting ``passed: false``
    or a value other than the known answer."""
    if len(checks) != request.checks or not digest_matches:
        return request.checks
    failed = 0
    for k, check in enumerate(checks):
        known = request.known[k] if request.known else None
        bad = check.get("passed") is False
        bad = bad or (known is not None and check.get(request.known_key) != known)
        failed += bad
    return failed


def run_pass(workload, seed: str, golden: dict, cambrian, suites) -> dict:
    rng = random.Random(seed)
    for family, rank, bond in workloads.shuffled(workload.systems, rng):
        suites.get_system(family, rank, bond).weak_order_lattice()
    setup_done = time.monotonic()
    outcomes = []
    report_bytes = 0
    for request in workloads.shuffled(workload.requests, rng):
        outcome = {"request": request.label, "checks": request.checks}
        try:
            report = execute(request, cambrian, suites)
            sha, size = workloads.digest(report)
            outcome["failed"] = failed_checks(request, report["checks"], sha == golden[request.label])
            report_bytes += size
        except Exception as exc:  # a request that raises fails all its checks
            outcome["failed"] = request.checks
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    return {
        "setup_done": setup_done,
        "verdict_done": time.monotonic(),
        "requests": outcomes,
        "report_bytes": report_bytes,
    }


def main(argv) -> int:
    root, name, seed, trace = Path(argv[0]), argv[1], argv[2], argv[3] == "1"
    spawned = float(argv[4])  # time.monotonic() in run.py as it started this process
    probe = None if trace else speed.SpeedProbe()
    if probe:
        probe.start()
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cambrian
    from cambrian import suites

    if not Path(cambrian.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cambrian imported from {cambrian.__file__}, not {src}")
    workload = workloads.WORKLOADS[name]
    golden = workloads.load_golden()
    if probe:
        result = run_pass(workload, seed, golden, cambrian, suites)
        probe.stop()
        for stage in ("setup", "verdict"):
            wall, reference = probe.measure(spawned, result[f"{stage}_done"])
            result[f"{stage}_wall_s"], result[f"{stage}_s"] = wall, reference
    else:
        import tracing

        tracer = tracing.Tracer()
        with tracing.install(tracer):
            result = run_pass(workload, seed, golden, cambrian, suites)
        for stage in ("setup", "verdict"):
            result[f"{stage}_wall_s"] = result[f"{stage}_done"] - spawned
        spans = tracer.spans()
        calls, self_s, covered = tracing.self_times(spans)
        counts = dict(tracer.counts, **{"suites.report_bytes": result["report_bytes"]})
        result["trace"] = {
            "calls": calls, "self_s": self_s, "covered_s": covered, "counts": counts,
            "overhead_s": len(spans) * tracing.wrapper_cost(),
        }
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
