"""Command line interface.

Three commands:

- ``cambrian build``: weak order or Cambrian lattice, as JSON or DOT.
- ``cambrian verify``: run a named verification suite; exit 0 iff it passes.
- ``cambrian fan``: Cambrian fan artifacts and exact fan checks.

Exit codes: 0 pass, 1 suite or check failure (a suite with no checks
fails), 2 usage error (including a family a suite does not cover), 3
element cap exceeded, 4 internal error (an invariant of the program
failed; the message goes to stderr).  The environment variable
``CAMB_CAP`` overrides the default element cap; the ``--cap`` flag
overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coxeter import CapExceeded, CoxeterSystem, build_system
from .congruences import (
    NotCambrianError,
    cambrian_lattice,
    parse_orientation,
)
from .lattices import FiniteLattice
from .polygon_a import UpDownSignature, signatures_for_orientation
from .polygon_b import SymmetricSignature
from .fans import (
    check_fan_a,
    check_fan_b,
    check_fan_h3,
    fan_to_json,
    stasheff_ray_check,
)
from .suites import SUITE_NAMES, run_suite

USAGE_ERROR = 2
CAP_ERROR = 3
INTERNAL_ERROR = 4


def _element_label(system: CoxeterSystem, w) -> str:
    if system.family in ("A", "B"):
        return ",".join(str(v) for v in w)
    return " ".join(f"s{g}" for g in w.word) if w.word else "e"


def _canonical_order(system: CoxeterSystem, lattice: FiniteLattice) -> list[int]:
    """Element indices sorted by (length, lexicographic representation)."""
    def key(i: int):
        w = lattice.elements[i]
        if system.family in ("A", "B"):
            return (system.length(w), tuple(w))
        return (system.length(w), tuple(w.word))

    return sorted(range(lattice.n), key=key)


def lattice_to_json(system: CoxeterSystem, lattice: FiniteLattice, meta: dict) -> dict:
    order = _canonical_order(system, lattice)
    pos = {i: k for k, i in enumerate(order)}
    return {
        **meta,
        "num_elements": lattice.n,
        "elements": [_element_label(system, lattice.elements[i]) for i in order],
        "covers": sorted([pos[a], pos[b]] for a, b in lattice.covers),
    }


def lattice_to_dot(system: CoxeterSystem, lattice: FiniteLattice, title: str) -> str:
    order = _canonical_order(system, lattice)
    pos = {i: k for k, i in enumerate(order)}
    lines = [f'digraph "{title}" {{', "  rankdir=BT;"]
    for i in order:
        label = _element_label(system, lattice.elements[i])
        lines.append(f'  n{pos[i]} [label="{label}"];')
    for a, b in sorted(lattice.covers):
        lines.append(f"  n{pos[a]} -> n{pos[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, output) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", output)


def _resolve_cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CAMB_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(USAGE_ERROR)
    return None


def _build_target_system(args) -> CoxeterSystem:
    if args.family == "I2":
        if args.m is None:
            print("error: --m is required for family I2", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        return build_system("I2", None, args.m)
    if args.family == "H3":
        return build_system("H3")
    if args.rank is None:
        print(f"error: --rank is required for family {args.family}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return build_system(args.family, args.rank)


def cmd_build(args) -> int:
    cap = _resolve_cap(args)
    system = _build_target_system(args)
    meta = {
        "family": args.family,
        "rank": args.rank,
        "m": args.m,
        "orientation": args.orientation,
    }
    if args.orientation:
        orientation = parse_orientation(system, args.orientation)
        lattice = cambrian_lattice(system, orientation, cap=cap).quotient
        meta["kind"] = "cambrian"
    else:
        lattice = system.weak_order_lattice(cap=cap)
        meta["kind"] = "weak-order"
    if args.format == "dot":
        title = f"{args.family} {args.orientation or 'weak order'}"
        _emit(lattice_to_dot(system, lattice, title), args.output)
    else:
        _emit_json(lattice_to_json(system, lattice, meta), args.output)
    return 0


def cmd_verify(args) -> int:
    cap = _resolve_cap(args)
    report = run_suite(
        args.suite, family=args.family, max_rank=args.max_rank, cap=cap
    )
    _emit_json(report, args.output)
    return 0 if report["passed"] else 1


def _a_signature_for(args, system: CoxeterSystem) -> UpDownSignature:
    n = system.rank + 1
    if args.signature:
        sig = UpDownSignature.from_string(args.signature)
        if sig.n != n:
            print(
                f"error: signature length {sig.n} does not match n={n}",
                file=sys.stderr,
            )
            raise SystemExit(USAGE_ERROR)
        return sig
    if args.orientation:
        orientation = parse_orientation(system, args.orientation)
        directed = [(s, t) for s, t, _ in orientation.edges]
        return signatures_for_orientation(n, directed)[0]
    print("error: provide --signature or --orientation", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def cmd_fan(args) -> int:
    if args.family == "A":
        if args.rank is None:
            print("error: --rank is required for family A", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        system = build_system("A", args.rank)
        sig = _a_signature_for(args, system)
        report = check_fan_a(sig)
        artifact = fan_to_json(sig)
        out = {
            "family": "A",
            "signature": sig.to_string(),
            "summary": {
                "num_rays": report["num_rays"],
                "num_cones": report["num_cones"],
                "simplicial": report["simplicial"],
            },
            "report": report,
            "fan": artifact,
        }
        ok = all(
            report[k]
            for k in ("simplicial", "tiling", "consistency", "dual_graph_is_hasse")
        )
        if args.stasheff_check:
            stasheff = stasheff_ray_check(sig.n)
            out["stasheff"] = stasheff
            ok = ok and stasheff
        _emit_json(out, args.output)
        return 0 if ok else 1
    if args.family == "B":
        if args.rank is None:
            print("error: --rank is required for family B", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        if not args.signature:
            print("error: --signature is required for family B", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        positive = UpDownSignature.from_string(args.signature)
        if positive.n != args.rank:
            print(
                f"error: signature length {positive.n} does not match rank "
                f"{args.rank}",
                file=sys.stderr,
            )
            raise SystemExit(USAGE_ERROR)
        sig = SymmetricSignature.from_positive_ups(args.rank, positive.ups)
        report = check_fan_b(sig)
        out = {
            "family": "B",
            "signature": args.signature,
            "summary": {
                "num_cones": report["num_cones"],
                "simplicial": report["simplicial"],
            },
            "report": report,
        }
        _emit_json(out, args.output)
        ok = all(report[k] for k in ("simplicial", "tiling", "dual_graph_is_hasse"))
        return 0 if ok else 1
    if args.family != "H3":
        print(
            f"error: fan checks cover families A, B and H3, not {args.family}",
            file=sys.stderr,
        )
        raise SystemExit(USAGE_ERROR)
    system = build_system("H3")
    if not args.orientation:
        print("error: --orientation is required for family H3", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    orientation = parse_orientation(system, args.orientation)
    report = check_fan_h3(system, orientation)
    out = {
        "family": "H3",
        "orientation": args.orientation,
        "summary": {
            "num_cones": report["num_cones"],
            "simplicial": report["simplicial"],
        },
        "report": report,
    }
    _emit_json(out, args.output)
    ok = all(report[k] for k in ("simplicial", "tiling", "dual_graph_is_hasse"))
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cambrian",
        description="Cambrian lattices, congruences and fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", choices=["A", "B", "I2", "H3"], default="A")
        p.add_argument("--rank", type=int)
        p.add_argument("--m", type=int, help="bond label for I2")
        p.add_argument("--orientation", help='directed edges, e.g. "1>2,3>2"')
        p.add_argument("--signature", help='up/down string, e.g. "uudu"')
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--cap", type=int, help="element cap for enumeration")

    p_build = sub.add_parser("build", help="build a lattice artifact")
    common(p_build)
    p_build.add_argument("--format", choices=["json", "dot"], default="json")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES), required=True)
    p_verify.add_argument("--max-rank", type=int, dest="max_rank")
    p_verify.set_defaults(func=cmd_verify, family=None)

    p_fan = sub.add_parser("fan", help="build and check a Cambrian fan")
    common(p_fan)
    p_fan.add_argument(
        "--stasheff-check",
        action="store_true",
        dest="stasheff_check",
        help="also verify the all-up ray dictionary",
    )
    p_fan.set_defaults(func=cmd_fan)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (NotCambrianError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
