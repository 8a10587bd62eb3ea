"""Named verification suites shared by the command line tool and the tests.

Every suite returns a JSON-ready report::

    {"suite": ..., "passed": bool, "checks": [{"name", "passed", ...}, ...]}

Each check that builds a Cambrian congruence records the generating pairs
used, so a failing run can be replayed from the report alone.

``max_rank`` bounds the group index n: the symmetric group S_n for
family A (Coxeter rank n-1), the signed-permutation group B_n, and the
bond label m for I2.  ``catalan`` replaces its default largest index
with it; every other suite can only lower its default, in two places:
``_groups`` for the groups a suite reads and ``_per_index`` for checks
indexed by n.
``cap`` bounds the number of elements: ``_groups`` checks every group's
order against it before it builds any weak order, and ``patterns``,
which builds no weak order, checks every n! before enumerating any S_n.
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
    GroupWalk,
    UpDownSignature,
    _pattern_masks,
    # Not called here any more, but perfbench's tracing test reads suites.eta.
    eta,  # noqa: F401
    eta_masks,
    projection_tables,
    shard_digraph_a,
    transitive_closure_digraph,
)
from .polygon_b import (
    _polygon_maps,
    all_symmetric_signatures,
    b_tamari_membership,
    linear_signature,
    shard_digraph_b,
)
from .fans import (
    _check_fan_a,
    _check_fan_b,
    _check_fan_h3,
    alternating_signature,
    b_bipartite_signature,
    b_cluster_poset,
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
    report order, each weak order built when reached; CapExceeded at
    the call, before any is built, if a group has over ``cap`` elements.

    ``bounds`` maps every family the suite covers, in order, to its
    default largest group index, which ``max_rank`` can only lower: S_n
    from n = 3, B_n from n = 2 and I2(m) from m = 3.  H3 is one group and
    ignores both.  ``family`` None covers every family of ``bounds``.
    """
    groups = []
    for fam in [family] if family else bounds:
        if fam not in bounds:
            raise ValueError(f"unsupported family {fam!r}")
        if fam == "H3":
            indices = [3]
        else:
            indices = range(2 if fam == "B" else 3, _cut(bounds[fam], max_rank) + 1)
        for n in indices:
            if fam == "A":
                groups.append((n, get_system("A", n - 1), f"A n={n}"))
            elif fam == "B":
                groups.append((n, get_system("B", n), f"B n={n}"))
            elif fam == "I2":
                groups.append((n, get_system("I2", None, n), f"I2({n})"))
            else:
                groups.append((n, get_system("H3"), "H3"))
    for _, system, _ in groups:
        system.check_cap(cap)
    return ((n, system, system.weak_order_lattice(), label) for n, system, label in groups)


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


def _fibers(masks) -> dict:
    """Element indices grouped by triangulation, that is by eta's mask."""
    fibers: dict = defaultdict(list)
    for i, mask in enumerate(masks):
        fibers[mask].append(i)
    return fibers


def _eta_fiber_partition(lattice: FiniteLattice, signature, walk=None):
    """The fibers of eta on a weak order of type A or B, read off
    ``walk``, the group walk of its elements (built here if not given)."""
    _, masks_of, *_ = _polygon_maps(signature)
    return _fibers(masks_of(lattice.elements, signature, walk))


def _group_walk(system: CoxeterSystem, n: int, lattice: FiniteLattice):
    """The group's signatures, and the group walk of its weak order that
    eta and the projections read under each of them."""
    signatures = _signatures(system, n)
    walk_of, *_ = _polygon_maps(signatures[0])
    return signatures, walk_of(lattice.elements)


def suite_congruence_eq(family=None, max_rank=None, cap=None) -> dict:
    """Fiber partitions of eta equal the Cambrian congruence classes."""
    checks = []
    for n, system, lattice, label in _groups(family, max_rank, {"A": 5, "B": 3}, cap):
        cong_keys = {}
        signatures, walk = _group_walk(system, n, lattice)
        for sig in signatures:
            orientation = orientation_from_edges(system, sig.orientation_edges())
            if orientation not in cong_keys:
                cong_keys[orientation] = cambrian_congruence(
                    system, orientation
                ).key()
            fibers = _eta_fiber_partition(lattice, sig, walk)
            key = frozenset(frozenset(f) for f in fibers.values())
            checks.append(
                _check(
                    f"{label} sig {sig.to_string()}",
                    key == cong_keys[orientation],
                    generating_pairs=_pairs_repr(system, orientation),
                )
            )
    return _report("congruence-eq", checks, family=family or "A,B")


def suite_fibers(max_rank=None, cap=None, family=None) -> dict:
    """Each eta fiber is the interval between the two projections of any
    member, on S_3..S_6.  Being an interval, it is connected in the Hasse
    diagram: a saturated chain from its bottom to any member stays inside
    it."""
    checks = []
    for n, _, lattice, label in _groups(family, max_rank, {"A": 6}, cap):
        walk = GroupWalk(lattice.elements, lattice.index)
        for sig in all_updown_signatures(n):
            ok, witness = _fibers_ok(lattice, sig, walk)
            checks.append(_check(f"{label} sig {sig.to_string()}", ok, witness=witness))
    return _report("fibers", checks, family="A")


def _fibers_ok(lattice: FiniteLattice, sig: UpDownSignature, walk: GroupWalk):
    """Whether the fibers of eta are the intervals [pi_down x, pi_up x],
    in one pass over the fibers' member masks: it holds iff each distinct
    (mask, pi_down, pi_up) gives a fiber equal to its interval.  A
    nonempty interval has one bottom and one top, so two members of a
    fiber with different projections, or two fibers with the same ones,
    fail that test too and the block counts need no test of their own.
    A failure is rescanned by ``_fiber_witness``."""
    masks = eta_masks(lattice.elements, sig, walk)
    down, up = projection_tables(lattice, sig, walk)
    fibers: dict = {}
    for i, mask in enumerate(masks):
        fibers[mask] = fibers.get(mask, 0) | 1 << i
    if all(
        fibers[mask] == lattice.up[bot] & lattice.down[top]
        for mask, bot, top in set(zip(masks, down, up))
    ):
        return True, None
    return False, _fiber_witness(lattice, masks, down, up)


def _fiber_witness(lattice: FiniteLattice, masks, down, up) -> str:
    """The first member, fibers in order of their first members, whose
    fiber is not the interval between the first member's projections or
    whose own projections differ from the first member's."""
    for members in _fibers(masks).values():
        fiber = sum(1 << i for i in members)
        x = lattice.elements[members[0]]
        bot, top = down[members[0]], up[members[0]]
        if fiber != lattice.up[bot] & lattice.down[top]:
            return str(x)
        for i in members[1:]:
            if down[i] != bot or up[i] != top:
                return str(lattice.elements[i])
    raise AssertionError("the fiber check failed but no fiber breaks it")


# ---------------------------------------------------------------------------
# Pattern characterization of the projections' fixed points.


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


def _signature_intervals(x: tuple[int, ...]):
    """(avoid down, fixed down, avoid up, fixed up) of x, each as the
    interval of up masks U where it holds, a pair (low, high) standing
    for low <= U <= complement of high."""
    m231, m312, m213, m132 = _pattern_masks(x)
    down_before, down_after = _firing_masks(x, True)
    up_before, up_after = _firing_masks(x, False)
    return (m312, m231), (down_after, down_before), (m132, m213), (up_after, up_before)


def _in_interval(up: int, interval) -> bool:
    """Whether the up mask lies in the (low, high) interval."""
    low, high = interval
    return not (low & ~up or high & up)


def _same_interval(one, other) -> bool:
    """Whether two intervals of up masks hold the same masks: both empty
    (low meets high) or with the same ends."""
    return one == other or bool(one[0] & one[1] and other[0] & other[1])


def suite_patterns(family=None, max_rank=None, cap=None) -> dict:
    """Fixed points of the projections are the colored-pattern avoiders.

    For a permutation x and up set U, x avoids up231 and 31down2 iff
    m312 <= U and U misses m231 (``_pattern_masks``), and pi_down fixes x
    iff the later witnesses of ``_firing_masks`` lie in U and the earlier
    ones miss it; likewise for pi_up.  Each is an interval of U, so the
    claim for every signature at once is one interval comparison per
    permutation.  A failing n reports the first (x, signature) that
    breaks it, signatures in ``all_updown_signatures`` order and then
    permutations in lexicographic order.
    """
    _require_family("patterns", family, ("A",))

    for n in range(3, _cut(7, max_rank) + 1):
        if cap is not None and factorial(n) > cap:
            raise CapExceeded(f"S_{n} has {factorial(n)} elements, more than cap {cap}")

    def avoiders_are_fixed(n):
        failed = []
        for x in itertools.permutations(range(1, n + 1)):
            avoid_down, fixed_down, avoid_up, fixed_up = intervals = _signature_intervals(x)
            if not (
                _same_interval(avoid_down, fixed_down)
                and _same_interval(avoid_up, fixed_up)
            ):
                failed.append((x, intervals))
        if not failed:
            return {"passed": True, "witness": None}
        for sig in all_updown_signatures(n):
            up = sig.upmask
            for x, intervals in failed:
                avoid_down, fixed_down, avoid_up, fixed_up = (
                    _in_interval(up, interval) for interval in intervals
                )
                if avoid_down != fixed_down or avoid_up != fixed_up:
                    return {"passed": False, "witness": str((x, sig.to_string()))}
        raise AssertionError(f"no signature tells the intervals of {failed[0][0]} apart")

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
    """Exact fan checks: simplicial tiling, dual graph, ray dictionary.

    In A and B each orientation's Cambrian lattice is built once for the
    signatures that induce it, and each distinct cone of a group is
    eliminated once; both memos are dropped with the group.
    """
    checks = []
    bounds = {"A": 4, "B": 3, "H3": None}
    # Every family's groups are checked against the cap before any is built.
    families = [family] if family else bounds
    for fam, groups in [(fam, _groups(fam, max_rank, bounds, cap)) for fam in families]:
        for n, system, _, label in groups:
            if fam != "H3":
                check_fan = _check_fan_a if fam == "A" else _check_fan_b
                lattices, eliminated = {}, {}
                for sig in _signatures(system, n):
                    orientation = orientation_from_edges(system, sig.orientation_edges())
                    if orientation not in lattices:
                        lattices[orientation] = cambrian_lattice(system, orientation)
                    report = check_fan(sig, lattices[orientation], eliminated)
                    ok = fan_passed(report)
                    checks.append(_check(f"{label} sig {sig.to_string()}", ok, **report))
                continue
            f_vectors = set()
            for orientation in all_orientations(system):
                camb = cambrian_lattice(system, orientation)
                report = _check_fan_h3(system, camb)
                f_vectors.add(tuple(report["f_vector"]))
                quotient = camb.quotient
                degrees = {len(low) + len(up) for low, up in zip(quotient.lower, quotient.upper)}
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
    groups = _groups(None, max_rank, {"A": 5, "B": 3}, cap)

    def counted(n):
        count = len(clusters(n).clusters)
        return {"passed": count == catalan(n), "count": count, "expected": catalan(n)}

    checks = _per_index("cluster count n={n}", 2, 6, max_rank, counted)
    for n, system, _, label in groups:
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
    element of the weak order, for every signature, read off eta's
    diagonal masks once per triangulation.  The sides of a mask do not
    depend on the signature, so each distinct mask of the group is read
    once for all signatures."""
    name = f"{label} case tables"
    descents = [
        sum(1 << a for a in system.left_descents(x)) for x in lattice.elements
    ]
    signatures, walk = _group_walk(system, n, lattice)
    sides = {}
    for sig in signatures:
        _, masks_of, sides_of, descents_of = _polygon_maps(sig)
        masks = masks_of(lattice.elements, sig, walk)
        table = {}
        for mask in set(masks):
            if mask not in sides:
                sides[mask] = sides_of(mask)
            table[mask] = descents_of(sides[mask], sig)
        ours = list(map(table.__getitem__, masks))
        if ours != descents:
            x = next(
                x for x, mine, theirs in zip(lattice.elements, ours, descents)
                if mine != theirs
            )
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
            found = recover_orientation(quotient, system)
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
    "fibers": suite_fibers,
}


SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, family=None, max_rank=None, cap=None) -> dict:
    return SUITES[name](family=family, max_rank=max_rank, cap=cap)
