"""Closed-loop benchmark of cambrian's verification suites.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One client makes one request at a time.
Each pass of a workload is a fresh child process (child.py) that imports
cambrian from ``src/``, builds and validates the weak orders the workload
needs, then makes the workload's requests and checks every report against
known answers and golden digests.  Passes repeat, one after another, until
``--seconds`` have gone by (at least one pass), and each end-to-end metric
is the median over the passes.  Times are in reference seconds, wall time
corrected for the host's speed by speed.py; the wall times are printed too.

With ``--trace 1`` every pass is traced instead, and each per-layer metric
is the lower median over the passes' spans.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment and a readable
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Median over untraced passes of each of these is printed; BENCHMARK.json
# names those it gates.  The *_wall_s are the same times in wall seconds,
# which drift with the host's speed.
PASS_METRICS = {
    "setup_s": "s", "verdict_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB",
    "setup_wall_s": "s", "verdict_wall_s": "s",
}


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        cpu = None
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy,
        "cpu": cpu,
        "load1_before": os.getloadavg()[0],
    }


def run_child(name: str, order_seed: str, trace: bool, deadline: float):
    """One pass in a fresh interpreter; None if it crashed or timed out.

    The pass's string hash seed follows from ``order_seed``, so a seed
    gives the same pass every time."""
    env = dict(os.environ, PYTHONHASHSEED=str(zlib.crc32(order_seed.encode())))
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), name, order_seed, str(int(trace)),
           repr(start)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"pass {order_seed} of {name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {order_seed} of {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        result["checks_per_s"] = sum(r["checks"] for r in result["requests"]) / (
            result["verdict_s"] - result["setup_s"]
        )
    result["peak_rss_mb"] = result["rss_kb"] / 1024
    return result


def layer_value(metric: str, traced: dict):
    """A per-layer metric of a traced pass; times are wall seconds."""
    trace = traced["trace"]
    if metric == "trace.overhead_s":
        return trace["overhead_s"]
    if metric == "trace.coverage":
        return trace["covered_s"] / traced["verdict_wall_s"]
    counts = trace["counts"]
    if metric == "polygon_b.symmetric_kept_ratio":
        generated = counts.get("polygon_b.triangulations_generated", 0)
        return counts.get("polygon_b.symmetric_kept", 0) / generated if generated else 0.0
    if metric in tracing.COUNTS:
        return counts.get(metric, 0)
    span, _, field = tracing.ALIASES.get(metric, metric).rpartition(".")
    if span not in tracing.SPAN_NAMES or field not in ("calls", "self_s"):
        raise KeyError(f"no producer for per-layer metric {metric!r}")
    return trace[field].get(span, 0 if field == "calls" else 0.0)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    env = environment()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, attempted, failed = [], 0, 0
    broken = False

    def account(result):
        nonlocal attempted, failed, broken
        attempted += workload.checks
        if result is None:
            failed += workload.checks
            broken = True
        else:
            failed += sum(r["failed"] for r in result["requests"])
            for r in result["requests"]:
                if r["failed"]:
                    print(f"{name}: {r['request']}: {r['failed']} of {r['checks']} checks failed"
                          + (f" ({r['error']})" if "error" in r else ""), file=sys.stderr)

    while True:
        result = run_child(name, f"{seed}:{len(passes)}", trace, deadline)
        account(result)
        if result is None:
            break
        passes.append(result)
        if time.monotonic() - start >= seconds:
            break
    env["load1_after"] = os.getloadavg()[0]
    env["overloaded"] = max(env["load1_before"], env["load1_after"]) > env["nproc"]
    env["passes"] = len(passes)
    if not passes:
        return {"env": env, "attempted": attempted, "failed": failed, "metrics": None}

    if trace:
        # median_low keeps a count whole: it is the value of one of the passes
        shown = {}
        for m in spec["per_layer"]:
            value = statistics.median_low(layer_value(m["name"], p) for p in passes)
            shown[m["name"]] = {"value": value, "unit": m["unit"]}
        metrics = shown
    else:
        shown = {metric: {"value": statistics.median(p[metric] for p in passes), "unit": unit}
                 for metric, unit in PASS_METRICS.items()}
        metrics = {m["name"]: shown[m["name"]] for m in spec["end_to_end"]}
    return {"env": env, "attempted": attempted, "failed": failed, "metrics": metrics,
            "shown": shown, "correct": failed == 0 and not broken}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cambrian" / "__init__.py").is_file():
        print(f"cambrian source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(f"env {name} {json.dumps(out['env'], sort_keys=True)}")
        if out["metrics"] is None:
            print(f"{name}: no pass completed", file=sys.stderr)
            status = 1
            continue
        for metric, v in out["shown"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        print(f"{name} fail_share {out['failed'] / out['attempted']:.6g} "
              f"({out['failed']} of {out['attempted']} checks)")
        print(json.dumps({
            "correct": out["correct"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": out["metrics"],
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
