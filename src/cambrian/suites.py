"""Named verification suites shared by the command line tool and the tests.

Every suite returns a JSON-ready report::

    {"suite": ..., "passed": bool, "checks": [{"name", "passed", ...}, ...]}

Each check that builds a Cambrian congruence records the generating pairs
used, so a failing run can be replayed from the report alone.

Throughout, ``max_rank`` bounds the group index n: the symmetric group
S_n for family A (Coxeter rank n-1), the signed-permutation group B_n,
and the bond label m for I2.  It is applied in two places only: ``_groups``
for the groups a suite reads and ``_per_index`` for checks indexed by n.
``cap`` bounds the number of elements: ``_groups`` builds each group's weak
order under it before any check reads the group, and ``patterns``, which
builds no weak order, checks n! against it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import comb, factorial

from .coxeter import (
    CapExceeded,
    CoxeterSystem,
    get_system,
    perm_to_ji_subset,
    perm_to_signed_ji,
)
from .lattices import (
    FiniteLattice,
    forcing_arrows,
    poset_anti_isomorphism,
    poset_isomorphism,
)
from .congruences import (
    Orientation,
    all_orientations,
    cambrian_congruence,
    cambrian_lattice,
    descent_quotient_check,
    generating_pairs,
    orientation_from_edges,
    recover_orientation,
)
from .polygon_a import (
    UpDownSignature,
    # Not called here any more, but perfbench's tracing test reads suites.eta.
    eta,  # noqa: F401
    eta_mask_descents,
    eta_masks,
    projection_tables,
    shard_digraph_a,
    transitive_closure_digraph,
)
from .polygon_b import (
    SymmetricSignature,
    all_symmetric_signatures,
    b_tamari_membership,
    descent_set_b,
    eta_b,
    linear_signature,
    shard_digraph_b,
)
from .fans import (
    alternating_signature,
    b_bipartite_signature,
    b_cluster_poset,
    check_fan_a,
    check_fan_b,
    check_fan_h3,
    cluster_poset,
    cluster_refine_check,
    clusters,
    fan_passed,
    positive_roots,
    psi_and_bipartite_iso_check,
    stasheff_ray_check,
    twist_check,
    wall_without_nice_coroot,
)

def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def all_updown_signatures(n: int) -> list[UpDownSignature]:
    out = []
    for r in range(n + 1):
        for ups in itertools.combinations(range(1, n + 1), r):
            out.append(UpDownSignature(n, frozenset(ups)))
    return out


def _pairs_repr(system: CoxeterSystem, orientation: Orientation) -> list:
    return [
        [system.element_label(a), system.element_label(b)]
        for a, b in generating_pairs(system, orientation)
    ]


def _check(name: str, passed, **extra) -> dict:
    return {"name": name, "passed": bool(passed), **extra}


def _report(suite: str, checks: list[dict], **meta) -> dict:
    """A report passes when it has checks and every one of them passes."""
    return {
        "suite": suite,
        **meta,
        "passed": bool(checks) and all(c["passed"] for c in checks),
        "checks": checks,
    }


def _require_family(suite: str, family, supported: tuple[str, ...]) -> None:
    """Fail closed on a family the suite does not cover."""
    if family is not None and family not in supported:
        raise ValueError(f"suite {suite} does not cover family {family!r}")


def _cut(default: int, max_rank) -> int:
    return default if max_rank is None else min(default, max_rank)


def _groups(family, max_rank, bounds: dict, cap):
    """(n, system, weak order, label) for each group a suite covers, in
    report order; each weak order is built under ``cap``.

    ``bounds`` maps every family the suite covers, in order, to its
    default largest group index, which ``max_rank`` can only lower: S_n
    from n = 3, B_n from n = 2 and I2(m) from m = 3.  H3 is one group and
    ignores both.  ``family`` None covers every family of ``bounds``.
    """
    for fam in [family] if family else bounds:
        if fam not in bounds:
            raise ValueError(f"unsupported family {fam!r}")
        if fam == "H3":
            indices = [3]
        else:
            indices = range(2 if fam == "B" else 3, _cut(bounds[fam], max_rank) + 1)
        for n in indices:
            if fam == "A":
                system, label = get_system("A", n - 1), f"A n={n}"
            elif fam == "B":
                system, label = get_system("B", n), f"B n={n}"
            elif fam == "I2":
                system, label = get_system("I2", None, n), f"I2({n})"
            else:
                system, label = get_system("H3"), "H3"
            yield n, system, system.weak_order_lattice(cap=cap), label


def _per_orientation(system: CoxeterSystem, label: str, check) -> list[dict]:
    """One check per orientation, named "{label} [{orientation}]".

    ``check(orientation)`` gives the check's fields from "passed" on; the
    generating pairs follow them.
    """
    return [
        _check(f"{label} [{o}]", **check(o), generating_pairs=_pairs_repr(system, o))
        for o in all_orientations(system)
    ]


def _per_index(name: str, first: int, last: int, max_rank, check) -> list[dict]:
    """One check per index n from ``first`` to ``last``, which ``max_rank``
    can only lower, named ``name`` with n filled in; ``check(n)`` gives the
    check's fields from "passed" on."""
    return [
        _check(name.format(n=n), **check(n))
        for n in range(first, _cut(last, max_rank) + 1)
    ]


def _signatures(system: CoxeterSystem, n: int) -> list:
    if system.family == "A":
        return all_updown_signatures(n)
    return all_symmetric_signatures(n)


# ---------------------------------------------------------------------------
# Counting suites.


def suite_catalan(family=None, max_rank=None, cap=None) -> dict:
    """Class counts of every orientation against the group's Catalan
    number, prod (h + d) / d over its degrees d.

    Unlike the other suites, ``max_rank`` here replaces the default
    largest index (S_7, B_4, I2(8)) and so can raise it.
    """
    family = family or "A"
    bounds = {"A": 7, "B": 4, "I2": 8, "H3": None}
    if max_rank is not None:
        bounds = dict.fromkeys(bounds, max_rank)
    checks = []
    for _, system, _, label in _groups(family, None, bounds, cap):
        expected = system.catalan_number()

        def counted(orientation):
            count = cambrian_congruence(system, orientation).num_classes
            return {"passed": count == expected, "count": count, "expected": expected}

        checks += _per_orientation(system, label, counted)
    return _report("catalan", checks, family=family)


# ---------------------------------------------------------------------------
# Fibers of eta versus the Cambrian congruence.


def _eta_fiber_partition(lattice: FiniteLattice, signature):
    """Element indices grouped by triangulation: eta's diagonal masks in
    type A, eta_b in B."""
    if isinstance(signature, SymmetricSignature):
        keys = [eta_b(x, signature).base.diagonals for x in lattice.elements]
    else:
        keys = eta_masks(lattice.elements, signature)
    fibers: dict = defaultdict(list)
    for i, key in enumerate(keys):
        fibers[key].append(i)
    return fibers


def suite_congruence_eq(family=None, max_rank=None, cap=None) -> dict:
    """Fiber partitions of eta equal the Cambrian congruence classes."""
    checks = []
    for n, system, lattice, label in _groups(family, max_rank, {"A": 5, "B": 3}, cap):
        cong_keys = {}
        for sig in _signatures(system, n):
            orientation = orientation_from_edges(system, sig.orientation_edges())
            if orientation not in cong_keys:
                cong_keys[orientation] = cambrian_congruence(
                    system, orientation
                ).key()
            fibers = _eta_fiber_partition(lattice, sig)
            key = frozenset(frozenset(f) for f in fibers.values())
            checks.append(
                _check(
                    f"{label} sig {sig.to_string()}",
                    key == cong_keys[orientation],
                    generating_pairs=_pairs_repr(system, orientation),
                )
            )
    return _report("congruence-eq", checks, family=family or "A,B")


def suite_fibers(max_rank=None, cap=None) -> dict:
    """Each eta fiber is the interval between the two projections of any
    member, and is connected in the Hasse diagram."""
    checks = []
    for n, _, lattice, label in _groups("A", max_rank, {"A": 6}, cap):
        for sig in all_updown_signatures(n):
            ok, witness = _fibers_ok(lattice, sig)
            checks.append(_check(f"{label} sig {sig.to_string()}", ok, witness=witness))
    return _report("fibers", checks, family="A")


def _fibers_ok(lattice: FiniteLattice, sig: UpDownSignature):
    fibers = _eta_fiber_partition(lattice, sig)
    down, up = projection_tables(lattice, sig)
    for members in fibers.values():
        fiber = sum(1 << i for i in members)
        x = lattice.elements[members[0]]
        bot, top = down[members[0]], up[members[0]]
        if fiber != lattice.up[bot] & lattice.down[top]:
            return False, str(x)
        for i in members[1:]:
            if down[i] != bot or up[i] != top:
                return False, str(lattice.elements[i])
        seen = 1 << members[0]
        frontier = [members[0]]
        while frontier:
            i = frontier.pop()
            for j in itertools.chain(lattice.lower[i], lattice.upper[i]):
                if fiber >> j & 1 and not seen >> j & 1:
                    seen |= 1 << j
                    frontier.append(j)
        if seen != fiber:
            return False, str(x)
    return True, None


# ---------------------------------------------------------------------------
# Pattern characterization of the projections' fixed points.


def _pattern_masks(x: tuple[int, ...]):
    """Bitmasks of values usable as the marked letter of each pattern.

    Returns (m231, m312, m213, m132); the marked letter carries the up or
    down requirement, everything else is signature-free, so containment
    for a given signature is a mask intersection.
    """
    n = len(x)
    m231 = m312 = m213 = m132 = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = x[i], x[j], x[k]
                if c < a < b:
                    m231 |= 1 << a
                if b < c < a:
                    m312 |= 1 << c
                if b < a < c:
                    m213 |= 1 << a
                if a < c < b:
                    m132 |= 1 << c
    return m231, m312, m213, m132


def _firing_masks(x: tuple[int, ...], descending: bool):
    """Witness masks for the moves a downward (upward) projection could make.

    Over every adjacent inversion (or ascent), returns the union of the
    masks of earlier values strictly between the pair, and the union of
    the masks of later ones.  Some move fires exactly when an earlier
    witness is up or a later witness is down, so x is fixed under the
    projection iff neither union meets the matching mask.
    """
    before = earlier = later = 0
    for a, b in zip(x, x[1:]):
        if (a > b) == descending:
            lo, hi = (b, a) if descending else (a, b)
            between = (1 << hi) - (2 << lo)
            earlier |= before & between
            later |= ~before & between
        before |= 1 << a
    return earlier, later


def suite_patterns(family=None, max_rank=None, cap=None) -> dict:
    """Fixed points of the projections are the colored-pattern avoiders."""
    _require_family("patterns", family, ("A",))

    def avoiders_are_fixed(n):
        if cap is not None and factorial(n) > cap:
            raise CapExceeded(f"S_{n} has {factorial(n)} elements, more than cap {cap}")
        per_perm = [
            (x, _pattern_masks(x), _firing_masks(x, True), _firing_masks(x, False))
            for x in itertools.permutations(range(1, n + 1))
        ]
        full = ((1 << n) - 1) << 1
        for sig in all_updown_signatures(n):
            upmask = sig.upmask
            downmask = full & ~upmask
            for x, masks, (down_b, down_a), (up_b, up_a) in per_perm:
                m231, m312, m213, m132 = masks
                avoid_down = not (m231 & upmask) and not (m312 & downmask)
                fixed_down = not (down_b & upmask) and not (down_a & downmask)
                avoid_up = not (m213 & upmask) and not (m132 & downmask)
                fixed_up = not (up_b & upmask) and not (up_a & downmask)
                if avoid_down != fixed_down or avoid_up != fixed_up:
                    return {"passed": False, "witness": str((x, sig.to_string()))}
        return {"passed": True, "witness": None}

    checks = _per_index("A n={n} all signatures", 3, 7, max_rank, avoiders_are_fixed)
    return _report("patterns", checks, family="A")


# ---------------------------------------------------------------------------
# Sublattice of class bottoms.


def suite_sublattice(family=None, max_rank=None, cap=None) -> dict:
    """Bottom elements of congruence classes are closed under join/meet."""
    checks = []
    for n, system, lattice, label in _groups(family, max_rank, {"A": 6, "B": 3}, cap):

        def closed(orientation):
            cong = cambrian_congruence(system, orientation)
            ok, witness = lattice.is_sublattice(sorted({cls[0] for cls in cong.classes}))
            if witness is not None:
                witness = [system.element_label(lattice.elements[i]) for i in witness]
            return {"passed": ok, "witness": witness}

        checks += _per_orientation(system, label, closed)
    return _report("sublattice", checks, family=family or "A,B")


# ---------------------------------------------------------------------------
# B-Tamari pattern avoiders.


def suite_b_tamari(family=None, max_rank=None, cap=None) -> dict:
    """Signed-pattern avoiders equal the class bottoms of the two linear
    orientations, with the central binomial counts."""
    checks = []
    for n, system, lattice, label in _groups(family, max_rank, {"B": 4}, cap):
        expected = system.catalan_number()
        for variant in ("toward_s0", "away_from_s0"):
            sig = linear_signature(n, variant)
            orientation = orientation_from_edges(system, sig.orientation_edges())
            reps = set(cambrian_lattice(system, orientation).class_representatives)
            avoiders = {
                x for x in lattice.elements if b_tamari_membership(x, variant)
            }
            checks.append(
                _check(
                    f"{label} {variant}",
                    avoiders == reps and len(avoiders) == expected,
                    count=len(avoiders),
                    expected=expected,
                    generating_pairs=_pairs_repr(system, orientation),
                )
            )
    return _report("b-tamari", checks, family="B")


# ---------------------------------------------------------------------------
# Shard digraphs versus brute-force forcing.


def suite_shard(family=None, max_rank=None, cap=None) -> dict:
    """Transitive closures of the shard arrows equal the forcing relation
    computed from smallest contracting congruences."""
    checks = []
    for n, system, lattice, label in _groups(family, max_rank, {"A": 5, "B": 3}, cap):
        if system.family == "A":
            digraph, to_subset = shard_digraph_a, perm_to_ji_subset
        else:
            digraph, to_subset = shard_digraph_b, perm_to_signed_ji
        brute = {}
        for g, contracted in forcing_arrows(lattice).items():
            a = to_subset(lattice.elements[g])
            brute[a] = frozenset(
                to_subset(lattice.elements[h]) for h in contracted
            ) - {a}
        shard = transitive_closure_digraph(digraph(n))
        witness = None
        if shard != brute:
            for a in set(shard) | set(brute):
                if shard.get(a) != brute.get(a):
                    witness = (
                        sorted(a),
                        sorted(map(sorted, shard.get(a, frozenset()))),
                        sorted(map(sorted, brute.get(a, frozenset()))),
                    )
                    break
        checks.append(
            _check(
                label, shard == brute, witness=None if witness is None else str(witness)
            )
        )
    return _report("shard", checks, family=family or "A,B")


# ---------------------------------------------------------------------------
# Fans.


def suite_fan(family=None, max_rank=None, cap=None) -> dict:
    """Exact fan checks: simplicial tiling, dual graph, ray dictionary."""
    checks = []
    bounds = {"A": 4, "B": 3, "H3": None}
    for fam in [family] if family else bounds:
        for n, system, _, label in _groups(fam, max_rank, bounds, cap):
            if fam != "H3":
                check_fan = check_fan_a if fam == "A" else check_fan_b
                for sig in _signatures(system, n):
                    report = check_fan(sig)
                    ok = fan_passed(report)
                    checks.append(_check(f"{label} sig {sig.to_string()}", ok, **report))
                continue
            f_vectors = set()
            for orientation in all_orientations(system):
                report = check_fan_h3(system, orientation)
                f_vectors.add(tuple(report["f_vector"]))
                quotient = cambrian_lattice(system, orientation).quotient
                degrees = {
                    len(quotient.lower[i]) + len(quotient.upper[i])
                    for i in range(quotient.n)
                }
                ok = (
                    fan_passed(report)
                    and report["num_cones"] == system.catalan_number()
                    and degrees == {3}
                )
                checks.append(
                    _check(
                        f"H3 [{orientation}]",
                        ok,
                        hasse_degrees=sorted(degrees),
                        **report,
                    )
                )
            checks.append(
                _check(
                    "H3 equal f-vectors",
                    len(f_vectors) == 1,
                    f_vectors=sorted(f_vectors),
                )
            )
        if fam == "A":
            checks += _per_index(
                "stasheff rays n={n}", 3, 7, max_rank,
                lambda n: {"passed": stasheff_ray_check(n)},
            )
    return _report("fan", checks, family=family or "A,B,H3")


# ---------------------------------------------------------------------------
# Cluster suite.


def suite_cluster(family=None, max_rank=None, cap=None) -> dict:
    """Cluster counts, cluster poset isomorphisms, psi, twist, coroots.

    The suite covers types A and B together, so it takes no family.
    """
    _require_family("cluster", family, ())

    def counted(n):
        count = len(clusters(n).clusters)
        return {"passed": count == catalan(n), "count": count, "expected": catalan(n)}

    checks = _per_index("cluster count n={n}", 2, 6, max_rank, counted)
    for n, system, _, label in _groups(None, max_rank, {"A": 5, "B": 3}, cap):
        if system.family == "A":
            sig, poset = alternating_signature(n), cluster_poset(n)
        else:
            sig, poset = b_bipartite_signature(n), b_cluster_poset(n)
        orientation = orientation_from_edges(system, sig.orientation_edges())
        quotient = cambrian_lattice(system, orientation).quotient
        checks.append(
            _check(
                f"cluster poset iso {label}",
                poset_isomorphism(poset, quotient) is not None,
                generating_pairs=_pairs_repr(system, orientation),
            )
        )

    def psi_bijective(n):
        ok, witness = psi_and_bipartite_iso_check(n)
        return {"passed": ok, "witness": None if ok else str(witness)}

    def twisted(n):
        for beta, theta in itertools.product(positive_roots(n), repeat=2):
            for eps in ("+", "-"):
                if not twist_check(n, beta, theta, eps):
                    return {"passed": False, "witness": str((beta, theta, eps))}
        return {"passed": True, "witness": None}

    def nice_coroots(n):
        missing = wall_without_nice_coroot(n)
        witness = None if missing is None else str(sorted(missing))
        return {"passed": missing is None, "witness": witness}

    checks += _per_index("psi cone bijection n={n}", 3, 5, max_rank, psi_bijective)
    checks += _per_index("twist identity n={n}", 2, 4, max_rank, twisted)
    checks += _per_index("nice coroot A n={n}", 2, 5, max_rank, nice_coroots)
    for fam, last in (("A", 4), ("B", 3)):
        checks += _per_index(
            f"cluster refine {fam} n={{n}}", 2, last, max_rank,
            lambda n: {"passed": cluster_refine_check(n, fam)},
        )
    return _report("cluster", checks)


# ---------------------------------------------------------------------------
# Descents.


def _case_table_check(
    system: CoxeterSystem, n: int, lattice: FiniteLattice, label: str
) -> dict:
    """The triangulation case tables give the left descents of every
    element of the weak order, for every signature.  Type A reads them
    off eta's diagonal masks, once per triangulation."""
    name = f"{label} case tables"
    descents = [
        sum(1 << a for a in system.left_descents(x)) for x in lattice.elements
    ]
    for sig in _signatures(system, n):
        if system.family == "A":
            masks = eta_masks(lattice.elements, sig)
            table = {mask: eta_mask_descents(mask, sig) for mask in set(masks)}
            got = [table[mask] for mask in masks]
        else:
            got = [
                sum(1 << a for a in descent_set_b(eta_b(x, sig)))
                for x in lattice.elements
            ]
        for x, mine, theirs in zip(lattice.elements, got, descents):
            if mine != theirs:
                return _check(name, False, witness=str((sig.to_string(), x)))
    return _check(name, True, witness=None)


def _quotient_descent_checks(system: CoxeterSystem, label: str) -> list:
    def respected(orientation):
        ok, witness = descent_quotient_check(system, orientation)
        return {"passed": ok, "witness": None if witness is None else str(witness)}

    return _per_orientation(system, f"{label} quotient descents", respected)


def suite_descent(family=None, max_rank=None, cap=None) -> dict:
    """Triangulation case tables reproduce left descents; class descents
    respect joins and meets in the quotient.  Type A runs every case table
    (S_3..S_6) before the quotient checks (S_3..S_5); type B interleaves
    them per group."""
    checks = []
    for fam in [family] if family else ["A", "B"]:
        if fam == "A":
            for n, system, lattice, label in _groups(fam, max_rank, {"A": 6}, cap):
                checks.append(_case_table_check(system, n, lattice, label))
            for n, system, _, label in _groups(fam, max_rank, {"A": 5}, cap):
                checks += _quotient_descent_checks(system, label)
        else:
            for n, system, lattice, label in _groups(fam, max_rank, {"B": 3}, cap):
                checks.append(_case_table_check(system, n, lattice, label))
                checks += _quotient_descent_checks(system, label)
    return _report("descent", checks, family=family or "A,B")


# ---------------------------------------------------------------------------
# Mobius function and atomic intervals.


def suite_mobius(family=None, max_rank=None, cap=None) -> dict:
    """Mobius values in {-1, 0, 1}, nonzero exactly on atomic intervals."""
    checks = []
    for n, system, _, label in _groups(family, max_rank, {"A": 5, "B": 3}, cap):

        def spherical(orientation):
            quotient = cambrian_lattice(system, orientation).quotient
            for i, j in itertools.product(range(quotient.n), repeat=2):
                if quotient.le(i, j):
                    mu = quotient.mobius(i, j)
                    atomic = quotient.is_atomic_interval(i, j)
                    if mu not in (-1, 0, 1) or (mu != 0) != atomic:
                        return {"passed": False, "witness": str((i, j, mu, atomic))}
            return {"passed": True, "witness": None}

        checks += _per_orientation(system, label, spherical)
    return _report("mobius", checks, family=family or "A,B")


# ---------------------------------------------------------------------------
# Orientation recovery; duality.


def _orientation_eq(a: Orientation, b: Orientation) -> bool:
    return set(a.vertices) == set(b.vertices) and set(a.edges) == set(b.edges)


def suite_iso(family=None, max_rank=None, cap=None) -> dict:
    """Recover the orientation from each quotient; dualities of the Tamari
    and B-Tamari lattices."""
    checks = []
    bounds = {"A": 5, "B": 3, "I2": 8, "H3": None}
    for n, system, _, label in _groups(family, max_rank, bounds, cap):

        def recovered(orientation):
            quotient = cambrian_lattice(system, orientation).quotient
            found = recover_orientation(quotient, name=system.generator_of_atom)
            ok = _orientation_eq(found, orientation)
            return {"passed": ok, "recovered": str(found)}

        checks += _per_orientation(system, f"recover {label}", recovered)
    if family in (None, "A"):
        for n, system, _, _ in _groups("A", max_rank, bounds, cap):
            sig = UpDownSignature(n, frozenset(range(1, n + 1)))
            orientation = orientation_from_edges(system, sig.orientation_edges())
            quotient = cambrian_lattice(system, orientation).quotient
            checks.append(
                _check(
                    f"Tamari self-duality n={n}",
                    poset_anti_isomorphism(quotient, quotient) is not None,
                )
            )
    if family in (None, "B"):
        for n, system, _, _ in _groups("B", max_rank, bounds, cap):
            quotients = []
            for variant in ("toward_s0", "away_from_s0"):
                sig = linear_signature(n, variant)
                orientation = orientation_from_edges(system, sig.orientation_edges())
                quotients.append(cambrian_lattice(system, orientation).quotient)
            checks.append(
                _check(
                    f"B-Tamari anti-isomorphism n={n}",
                    poset_anti_isomorphism(*quotients) is not None,
                )
            )
    return _report("iso", checks, family=family or "A,B,I2,H3")


SUITES = {
    "catalan": suite_catalan,
    "congruence-eq": suite_congruence_eq,
    "sublattice": suite_sublattice,
    "patterns": suite_patterns,
    "shard": suite_shard,
    "fan": suite_fan,
    "cluster": suite_cluster,
    "descent": suite_descent,
    "mobius": suite_mobius,
    "iso": suite_iso,
    "b-tamari": suite_b_tamari,
}


SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, family=None, max_rank=None, cap=None) -> dict:
    return SUITES[name](family=family, max_rank=max_rank, cap=cap)
