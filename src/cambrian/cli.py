"""Command line interface.

Three commands, each taking only the flags it reads:

- ``cambrian build --family F [--rank R | --m M] [--orientation O]
  [--format json|dot]``: weak order or Cambrian lattice, as JSON or DOT.
- ``cambrian verify --suite S [--family F] [--max-rank N]``: run a named
  verification suite; exit 0 iff it passes.
- ``cambrian fan --family F [--rank R | --m M] [--signature S |
  --orientation O] [--stasheff-check]``: fan artifacts and exact fan
  checks, for the ``fan`` suite's families (A, B, H3 and I2).

All three take ``--output`` and ``--cap``.  The ``--family`` choices and
the flag that picks a group come from the rows of ``coxeter.FAMILIES``.
A flag the chosen family does not read is a usage error, not ignored:
``--rank`` or ``--m`` where the row does not pick the group by it (``--m``
outside I2, ``--rank`` for I2 and H3), and for ``fan`` the chamber input
the family does not take: A and B take a signature (B reads no
``--orientation``), every other family an orientation (no
``--signature``), and only A reads ``--stasheff-check``.

Exit codes: 0 pass, 1 suite or check failure (a report with no checks,
or a family it names with none, fails), 2 usage error (including a
family a suite does not cover and an ``--output`` that cannot be
written), 3 element cap exceeded, 4 internal error (an invariant of the program
failed, such as a poset the program built that is not a lattice, or
memory ran out; one message goes to stderr and nothing to stdout).  The
element cap is ``DEFAULT_CAP``
unless the environment variable ``CAMB_CAP`` sets it; the ``--cap`` flag
overrides both.  Every command checks the order of each group it reads
against the cap before it builds or enumerates any; the refusal names the
group and its order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coxeter import FAMILIES, CapExceeded, CoxeterSystem, get_system
from .congruences import cambrian_lattice, parse_orientation
from .lattices import FiniteLattice
from .polygon_a import UpDownSignature, signatures_for_orientation
from .polygon_b import SymmetricSignature
from .fans import (
    check_fan_a,
    check_fan_b,
    check_fan_orientation,
    fan_passed,
    fan_to_json,
    stasheff_ray_check,
)
from .suites import SUITE_NAMES, SUITES, run_suite

USAGE_ERROR = 2
CAP_ERROR = 3
INTERNAL_ERROR = 4

# The element cap without --cap or CAMB_CAP: it admits S_8 (40,320) and B_6
# (46,080) and refuses S_9 (362,880), whose |W|-bit masks outgrow 8 GB.
DEFAULT_CAP = 50_000


def _canonical_order(system: CoxeterSystem, lattice: FiniteLattice) -> list[int]:
    """Element indices sorted by (length, lexicographic representation)."""
    return sorted(range(lattice.n), key=lambda i: system.sort_key(lattice.elements[i]))


def lattice_to_json(system: CoxeterSystem, lattice: FiniteLattice, meta: dict) -> dict:
    order = _canonical_order(system, lattice)
    pos = {i: k for k, i in enumerate(order)}
    return {
        **meta,
        "num_elements": lattice.n,
        "elements": [system.element_label(lattice.elements[i]) for i in order],
        "covers": sorted([pos[a], pos[b]] for a, b in lattice.covers),
    }


def lattice_to_dot(system: CoxeterSystem, lattice: FiniteLattice, title: str) -> str:
    order = _canonical_order(system, lattice)
    pos = {i: k for k, i in enumerate(order)}
    lines = [f'digraph "{title}" {{', "  rankdir=BT;"]
    for i in order:
        label = system.element_label(lattice.elements[i])
        lines.append(f'  n{pos[i]} [label="{label}"];')
    for a, b in sorted(lattice.covers):
        lines.append(f"  n{pos[a]} -> n{pos[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _refuse(message: str):
    """Exit with a usage error, the message on one line of stderr."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _emit(text: str, output) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        _refuse(f"cannot write --output {output}: {exc.strerror}")


def _emit_json(obj: dict, output) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", output)


def _resolve_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CAMB_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _refuse("CAMB_CAP must be an integer")
    return DEFAULT_CAP


# The fan flags the signature families do not read; every other family's
# fan takes an orientation, not --signature or --stasheff-check.
_SIGNATURE_FAN_UNREAD = {"A": (), "B": ("orientation", "stasheff_check")}


def _unread(command: str, family: str) -> tuple:
    """The flags a command does not read for a family, in refusal order:
    of --rank and --m, those that do not pick its group, and in ``fan`` the
    chamber input it does not take."""
    unread = tuple(flag for flag in ("rank", "m") if flag != FAMILIES[family].parameter)
    if command == "build":
        return unread
    return unread + _SIGNATURE_FAN_UNREAD.get(family, ("signature", "stasheff_check"))


def _reject_unread(args) -> None:
    """Fail closed on a flag the chosen family would silently ignore."""
    for flag in _unread(args.command, args.family):
        value = getattr(args, flag)
        if value is not None and value is not False:
            _refuse(f"--{flag.replace('_', '-')} does not apply to family {args.family}")


def _require(args, flag: str) -> None:
    if getattr(args, flag) is None:
        _refuse(f"--{flag} is required for family {args.family}")


def _build_target_system(args) -> CoxeterSystem:
    """The group that the flag named by its row picks, after ``_reject_unread``."""
    parameter = FAMILIES[args.family].parameter
    if parameter is not None:
        _require(args, parameter)
    return get_system(args.family, args.rank, args.m)


def cmd_build(args) -> int:
    cap = _resolve_cap(args)
    _reject_unread(args)
    system = _build_target_system(args)
    meta = {
        "family": args.family,
        "rank": args.rank,
        "m": args.m,
        "orientation": args.orientation,
        "kind": "weak-order" if args.orientation is None else "cambrian",
    }
    orientation = None
    if args.orientation is not None:
        orientation = parse_orientation(system, args.orientation)
    lattice = system.weak_order_lattice(cap=cap)
    if orientation is not None:
        lattice = cambrian_lattice(system, orientation).quotient
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
    if args.signature is not None:
        sig = UpDownSignature.from_string(args.signature)
        if sig.n != n:
            _refuse(f"signature length {sig.n} does not match n={n}")
        return sig
    if args.orientation is not None:
        orientation = parse_orientation(system, args.orientation)
        directed = [(s, t) for s, t, _ in orientation.edges]
        return signatures_for_orientation(n, directed)[0]
    _refuse("provide --signature or --orientation")


def cmd_fan(args) -> int:
    _reject_unread(args)
    cap = _resolve_cap(args)
    system = _build_target_system(args)
    system.check_cap(cap)
    extra = {}
    if args.family == "A":
        sig = _a_signature_for(args, system)
        report = check_fan_a(sig)
        head = {"signature": sig.to_string()}
        summary = ("num_rays", "num_cones", "simplicial")
        extra["fan"] = fan_to_json(sig)
    elif args.family == "B":
        _require(args, "signature")
        positive = UpDownSignature.from_string(args.signature)
        if positive.n != args.rank:
            _refuse(f"signature length {positive.n} does not match rank {args.rank}")
        report = check_fan_b(
            SymmetricSignature.from_positive_ups(args.rank, positive.ups)
        )
        head = {"signature": args.signature}
        summary = ("num_cones", "simplicial")
    else:
        _require(args, "orientation")
        report = check_fan_orientation(system, parse_orientation(system, args.orientation))
        head = {"orientation": args.orientation}
        summary = ("num_cones", "simplicial")
    ok = fan_passed(report)
    if args.stasheff_check:
        extra["stasheff"] = stasheff_ray_check(system.rank + 1)
        ok = ok and extra["stasheff"]
    out = {
        "family": args.family,
        **head,
        "summary": {k: report[k] for k in summary},
        "report": report,
        **extra,
    }
    _emit_json(out, args.output)
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cambrian",
        description="Cambrian lattices, congruences and fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=tuple(FAMILIES), default="A", picks_a_group=True):
        p.add_argument("--family", choices=families, default=default)
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--cap", type=int, help="element cap for enumeration")
        if picks_a_group:  # the flags a row's ``parameter`` can name
            p.add_argument("--rank", type=int)
            p.add_argument("--m", type=int, help="bond label for I2")

    p_build = sub.add_parser("build", help="build a lattice artifact")
    common(p_build)
    p_build.add_argument("--orientation", help='directed edges, e.g. "1>2,3>2"')
    p_build.add_argument("--format", choices=["json", "dot"], default="json")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify, default=None, picks_a_group=False)
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES), required=True)
    p_verify.add_argument("--max-rank", type=int, dest="max_rank")
    p_verify.set_defaults(func=cmd_verify)

    p_fan = sub.add_parser("fan", help="build and check a Cambrian fan")
    common(p_fan, families=SUITES["fan"].families)
    chamber = p_fan.add_mutually_exclusive_group()
    chamber.add_argument("--signature", help='up/down string, e.g. "uudu"')
    chamber.add_argument("--orientation", help='directed edges, e.g. "1>2,3>2"')
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except MemoryError:
        # Reported below, once the handler has released the traceback and
        # the partly built structures its frames hold.
        pass
    print("error: out of memory", file=sys.stderr)
    return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
