"""The four benchmark workloads: systems to build, requests, known answers.

A workload is a list of Coxeter systems, whose weak orders are built and
validated in set-up, and a fixed list of verification requests made
through the package's public entry points.  Every request carries the
number of checks its report must hold and, where the paper gives one, the
known answer of each check; both are computed here from formulas, not
read from the program.  The SHA-256 of each report, captured at the seed
commit with capture_golden.py, is stored in ``golden.json`` beside this
file.

The inputs are exhaustive, so a seed only shuffles the order in which
systems are built and requests are made.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def orientations(rank: int) -> int:
    """Orientations of a Coxeter diagram that is a path on `rank` nodes,
    as every diagram used here is (A, B, I2 and H3)."""
    return 2 ** (rank - 1)


def upto(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


@dataclass(frozen=True)
class Request:
    """One verification request and what its report must contain.

    ``kind`` is ``suite`` (``cambrian.suites.run_suite``), ``fibers``
    (``cambrian.suites.suite_fibers``) or ``forcing`` (the forcing poset of
    every Cambrian quotient of S_n for n in ``ns``).  ``known`` lists, in
    check order, the value each check must report under ``known_key``;
    ``None`` entries are not compared.
    """

    label: str
    kind: str
    checks: int
    name: str = ""
    family: str | None = None
    max_rank: int | None = None
    known_key: str | None = None
    known: tuple = ()
    ns: tuple = ()


def suite(name: str, checks: int, family=None, max_rank=None) -> Request:
    label = " ".join(str(p) for p in (name, family, max_rank) if p is not None)
    return Request(label, "suite", checks, name, family, max_rank)


def catalan_suite(family: str, max_rank: int | None) -> Request:
    """Class counts: Catalan(n) for S_n, C(2n, n) for B_n, m + 2 for I2(m)
    and 32 for H3, once per orientation."""
    if family == "A":
        known = [catalan(n) for n in upto(3, max_rank) for _ in range(orientations(n - 1))]
    elif family == "B":
        known = [comb(2 * n, n) for n in upto(2, max_rank) for _ in range(orientations(n))]
    elif family == "I2":
        known = [m + 2 for m in upto(3, max_rank) for _ in range(orientations(2))]
    else:
        known = [32] * orientations(3)
    return replace(suite("catalan", len(known), family, max_rank),
                   known_key="count", known=tuple(known))


def fan_h3() -> Request:
    """32 cones per H3 orientation, then the equal-f-vector check."""
    known = [32] * orientations(3) + [None]
    return Request("fan H3", "suite", len(known), "fan", "H3", None, "num_cones", tuple(known))


def forcing(ns) -> Request:
    """Every Cambrian quotient of S_n has n(n-1)/2 join-irreducibles."""
    known = [n * (n - 1) // 2 for n in ns for _ in range(orientations(n - 1))]
    return Request("forcing", "forcing", len(known), known_key="join_irreducibles",
                   known=tuple(known), ns=tuple(ns))


def a_orientations(lo: int, hi: int) -> int:
    """Orientations of the diagrams of S_lo, ..., S_hi together."""
    return sum(orientations(n - 1) for n in upto(lo, hi))


def b_orientations(lo: int, hi: int) -> int:
    return sum(orientations(n) for n in upto(lo, hi))


def a_systems(lo: int, hi: int) -> list:
    return [("A", n - 1, None) for n in upto(lo, hi)]


def b_systems(lo: int, hi: int) -> list:
    return [("B", n, None) for n in upto(lo, hi)]


I2_SYSTEMS = [("I2", None, m) for m in upto(3, 8)]
H3_SYSTEM = [("H3", None, None)]


@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple
    requests: tuple

    @property
    def checks(self) -> int:
        return sum(r.checks for r in self.requests)


# Check counts follow the loops in cambrian.suites: one check per
# orientation or signature (2^n up/down signatures of S_n, 2^n symmetric
# ones of B_n), or one per n for whole-group checks.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-lattices",
            tuple(a_systems(3, 6) + b_systems(2, 4) + I2_SYSTEMS + H3_SYSTEM),
            (
                # recover per orientation; Tamari and B-Tamari dualities per n
                suite("iso", a_orientations(3, 5) + b_orientations(2, 3)
                      + orientations(2) * len(I2_SYSTEMS) + orientations(3)
                      + len(upto(3, 5)) + len(upto(2, 3))),
                suite("shard", len(upto(3, 5)) + len(upto(2, 3))),
                suite("mobius", a_orientations(3, 5) + b_orientations(2, 3)),
                suite("b-tamari", 2 * len(upto(2, 4)), max_rank=4),
                # counts n=2..6, poset iso A 3..5 and B 2..3, psi 3..5,
                # twist 2..4, nice coroot 2..5, refine A 2..4 and B 2..3
                suite("cluster", 5 + 3 + 2 + 3 + 3 + 4 + 3 + 2),
                catalan_suite("B", 4),
                forcing(upto(4, 6)),
            ),
        ),
        Workload(
            "exact-fans",
            tuple(H3_SYSTEM + I2_SYSTEMS),
            (
                fan_h3(),
                # signatures of S3 and S4, then Stasheff rays for n=3..7
                suite("fan", sum(2 ** n for n in upto(3, 4)) + len(upto(3, 7)), "A", 7),
                suite("fan", sum(2 ** n for n in upto(2, 3)), "B"),
                catalan_suite("H3", None),
                catalan_suite("I2", 8),
            ),
        ),
        Workload(
            "polygon-maps",
            tuple(a_systems(3, 6) + b_systems(2, 3)),
            (
                Request("fibers 6", "fibers", sum(2 ** n for n in upto(3, 6)), max_rank=6),
                # case tables per n, quotient descents per orientation
                suite("descent", len(upto(3, 6)) + a_orientations(3, 5)
                      + len(upto(2, 3)) + b_orientations(2, 3)),
                suite("congruence-eq", sum(2 ** n for n in upto(3, 5))
                      + sum(2 ** n for n in upto(2, 3))),
                suite("patterns", len(upto(3, 7)), max_rank=7),
            ),
        ),
        Workload(
            "weak-order-A7",
            tuple(a_systems(3, 7)),
            (catalan_suite("A", 7),),
        ),
    )
}


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def digest(report) -> tuple[str, int]:
    """SHA-256 of the canonical JSON of a report, and its size in bytes."""
    text = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest(), len(text)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
