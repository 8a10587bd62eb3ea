"""Named verification suites shared by the command line tool and the tests.

Every suite returns a JSON-ready report::

    {"suite": ..., "family": ..., "passed": bool, "checks": [{"name", "passed", ...}, ...]}

Each check that builds a Cambrian congruence records the generating pairs
used, so a failing run can be replayed from the report alone.

Each claim is one row of ``SUITES``, and a new claim is a new row: the
``--family`` values it accepts, the family it runs without one (``catalan``
runs A, the others every part), and its parts in report order.  A group
part maps each family it covers to its default largest group index and
gives the checks of one group; an index part gives one check per index n.
One driver, ``_run``, refuses a family the row does not cover, keeps the
parts of the chosen family, applies ``max_rank``, checks the cap of every
group of every part before building any, and writes the report.  A check
builds a weak order only if it reads it (``system.weak_order_lattice()``).

``max_rank`` bounds the index n: S_n for family A (Coxeter rank n-1), B_n,
I2(n), and n in an index part; H3 is one group.  In ``catalan`` it replaces
the default largest index, and so can raise it; elsewhere it can only
lower it.  ``cap`` bounds the order of every group a suite reads.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from math import comb, factorial
from operator import ne, or_
from typing import Callable, NamedTuple

from .coxeter import (
    CoxeterSystem,
    get_system,
    perm_to_ji_subset,
    perm_to_signed_ji,
)
from .lattices import (
    FiniteLattice,
    _members,
    forcing_arrows,
    poset_anti_isomorphism,
    poset_isomorphism,
)
from .congruences import (
    NotCambrianError,
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
    _pair_interval,
    _typecode,
    # Not called here any more, but perfbench's tracing test reads suites.eta.
    eta,  # noqa: F401
    shard_digraph_a,
    transitive_closure_digraph,
    weak_order_walk,
)
from .polygon_b import (
    all_symmetric_signatures,
    b_tamari_avoiders,
    linear_signature,
    shard_digraph_b,
)
from .fans import (
    alternating_signature,
    b_bipartite_signature,
    b_cluster_poset,
    check_fan,
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


@lru_cache(maxsize=None)
def all_updown_signatures(n: int) -> tuple[UpDownSignature, ...]:
    """The signatures of 1..n, built once per n, so that each keeps its
    polygon (``UpDownSignature.polygon``) from one suite run to the next."""
    return tuple(
        UpDownSignature(n, frozenset(ups))
        for r in range(n + 1)
        for ups in itertools.combinations(range(1, n + 1), r)
    )


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


def _per_orientation(system: CoxeterSystem, label: str, check) -> list[dict]:
    """One check per orientation, named "{label} [{orientation}]".

    ``check(orientation)`` gives the check's fields from "passed" on; the
    generating pairs follow them.
    """
    return [
        _check(f"{label} [{o}]", **check(o), generating_pairs=_pairs_repr(system, o))
        for o in all_orientations(system)
    ]


def _signatures(system: CoxeterSystem, n: int) -> list:
    if system.family == "A":
        return all_updown_signatures(n)
    return all_symmetric_signatures(n)


# ---------------------------------------------------------------------------
# Counting.


def _catalan_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Class counts of every orientation against the group's Catalan
    number, prod (h + d) / d over its degrees d."""
    expected = system.catalan_number()

    def counted(orientation):
        count = cambrian_congruence(system, orientation).num_classes
        return {"passed": count == expected, "count": count, "expected": expected}

    return _per_orientation(system, label, counted)


# ---------------------------------------------------------------------------
# Fibers of eta versus the Cambrian congruence.


def _walked(lattice: FiniteLattice, signatures) -> GroupWalk:
    """The weak order's walk (``weak_order_walk``) with eta kept for every
    signature, all walked together in lanes (``GroupWalk.walk_eta``);
    type B hands over its doubled signatures."""
    walk = weak_order_walk(lattice, signatures[0])
    walk.walk_eta([sig.polygon.signature for sig in signatures])
    return walk


def _congruence_eq_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Fiber partitions of eta equal the Cambrian congruence classes: the
    places of ``eta_fibers`` name the fibers, as ``class_of`` names the
    classes, by first member in index order, so the lists are equal iff
    the partitions are."""
    lattice = system.weak_order_lattice()
    checks, class_of = [], {}
    signatures = _signatures(system, n)
    walk = _walked(lattice, signatures)
    for sig in signatures:
        orientation = orientation_from_edges(system, sig.orientation_edges())
        if orientation not in class_of:
            class_of[orientation] = cambrian_congruence(system, orientation).class_of
        _, places = sig.eta_fibers(walk)
        checks.append(_check(
            f"{label} sig {sig.to_string()}", places.tolist() == class_of[orientation],
            generating_pairs=_pairs_repr(system, orientation),
        ))
    return checks


def _fibers_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Each eta fiber is the interval between the two projections of any
    member.  Being an interval, it is connected in the Hasse diagram: a
    saturated chain from its bottom to any member stays inside it.

    ``_fibers_ok`` reads only the places of ``eta_fibers`` and the two
    tables of ``projection_tables``, so a signature whose three lists
    equal those of an earlier passing signature takes its verdict.  The
    candidate is the first passing signature of its ``projection_key``:
    the four markings of 1 and n share the tables and, when the check
    holds, the fibers.  Both signatures' lists are read afresh, so only
    the candidate is kept, and a signature with any list of its own is
    checked, and named in a failure, by itself."""
    lattice = system.weak_order_lattice()
    signatures = all_updown_signatures(n)
    walk = _walked(lattice, signatures)
    checks, passed = [], {}
    for sig in signatures:
        key = walk.projection_key(sig)
        kept = passed.get(key)
        if kept is not None and _same_fiber_inputs(walk, sig, kept):
            ok, witness = True, None
        else:
            ok, witness = _fibers_ok(lattice, sig, walk)
            if ok:
                passed.setdefault(key, sig)
        checks.append(_check(f"{label} sig {sig.to_string()}", ok, witness=witness))
    return checks


def _same_fiber_inputs(walk: GroupWalk, sig: UpDownSignature, kept: UpDownSignature) -> bool:
    """Whether ``_fibers_ok`` reads the same places and projection tables
    under ``sig`` as under ``kept``."""
    return (
        sig.eta_fibers(walk)[1] == kept.eta_fibers(walk)[1]
        and walk.projection_tables(sig) == walk.projection_tables(kept)
    )


def suite_fibers(max_rank=None, cap=None, family=None) -> dict:
    """The ``fibers`` report, S_3..S_6 by default.  It calls the driver,
    not ``run_suite``, so that wrapping both counts one run."""
    return _run("fibers", family, max_rank, cap)


def _fibers_ok(lattice: FiniteLattice, sig: UpDownSignature, walk: GroupWalk):
    """Whether the fibers of eta are the intervals [pi_down x, pi_up x],
    in one pass over the fibers' member masks, grouped by each element's
    place in ``eta_fibers``: it holds iff each distinct (place, pi_down,
    pi_up) gives a fiber equal to its interval.  A nonempty interval has
    one bottom and one top, so two members of a fiber with different
    projections, or two fibers with the same ones, fail that test too and
    the block counts need no test of their own.  The interval is read as
    up(bot) & down(top), which derives the weak order's up-sets; testing
    each x in down(top) for bot in down(x) keeps to down-sets but made
    ``suite_fibers(6)`` three to seven times slower.  A failure is
    rescanned by ``_fiber_witness``."""
    _, places = sig.eta_fibers(walk)
    down, up = walk.projection_tables(sig)
    fibers = [0] * (max(places) + 1)
    for i, k in enumerate(places):
        fibers[k] |= 1 << i
    if all(
        fibers[k] == lattice.up[bot] & lattice.down[top]
        for k, bot, top in set(zip(places, down, up))
    ):
        return True, None
    return False, _fiber_witness(lattice, fibers, down, up)


def _fiber_witness(lattice: FiniteLattice, fibers: list, down, up) -> str:
    """The first member, in the fibers' member masks that ``_fibers_ok``
    grouped in order of first members, whose fiber is not the interval
    between the first member's projections or whose own projections
    differ from the first member's."""
    for fiber in fibers:
        first, *rest = _members(fiber)
        bot, top = down[first], up[first]
        if fiber != lattice.up[bot] & lattice.down[top]:
            return str(lattice.elements[first])
        for i in rest:
            if down[i] != bot or up[i] != top:
                return str(lattice.elements[i])
    raise AssertionError("the fiber check failed but no fiber breaks it")


# ---------------------------------------------------------------------------
# Pattern characterization of the projections' fixed points.


def _pattern_sweep(n: int) -> tuple[array, array, array, array]:
    """The pattern intervals of every permutation of 1..n, in
    lexicographic order, from one depth-first sweep over their prefixes:
    four arrays (avoid down, fixed down, avoid up, fixed up), interval
    (low, high) packed as low | high << (n+1), the masks having bits 1..n.

    Each prefix carries the values found strictly inside a pair read
    before them, rising (smaller then larger) and falling: the pairs a
    value v makes with earlier values span (low, v) and (v, high) for
    the running minimum low below v and maximum high above it, so those
    two keep each union, and a value past either lies inside no pair of
    that kind.  Forwards these are the marked letters of 132 and 312;
    backwards, of 213 and 231.  It also carries, per direction, the OR
    of the ``_pair_interval`` of each adjacent inversion (ascent) read
    so far, which packs the intersection of those intervals: the up sets
    under which no such pair moves.  The pair a value makes with the
    last one reads only the set of values before it.  The backward scan
    of x is the forward scan of rev(x), so each permutation's forward
    masks are the low ends of its own avoid intervals and the high ends
    of those of rev(x), at the lexicographic rank of rev(x): the sum
    over positions p of p! times the number of earlier values below
    x_p, which the sweep adds up along the prefix.
    """
    width, values = n + 1, (1 << n + 1) - 2
    code = _typecode(1 << 2 * width)
    avoid_down, avoid_up = array(code, [0]) * factorial(n), array(code, [0]) * factorial(n)
    fixed_down, fixed_up = array(code), array(code)
    weight = [factorial(p) for p in range(n)]

    def visit(depth, seen, last, low, high, rising, falling, in_rising, in_falling,
              down, up, rank):
        if depth == n:
            i = len(fixed_down)
            fixed_down.append(down)
            fixed_up.append(up)
            avoid_down[i] |= in_falling
            avoid_up[i] |= in_rising
            avoid_down[rank] |= in_rising << width
            avoid_up[rank] |= in_falling << width
            return
        rest = values & ~seen
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if v > low:
                child_low, child_rising, child_in_rising = (
                    low, rising | bit - (2 << low), in_rising | rising & bit
                )
            else:
                child_low, child_rising, child_in_rising = v, rising, in_rising
            if v < high:
                child_high, child_falling, child_in_falling = (
                    high, falling | (1 << high) - (bit << 1), in_falling | falling & bit
                )
            else:
                child_high, child_falling, child_in_falling = v, falling, in_falling
            if last > v:
                child_down, child_up = down | _pair_interval(last, v, seen, width), up
            else:
                child_down, child_up = down, up | _pair_interval(last, v, seen, width)
            visit(
                depth + 1, seen | bit, v, child_low, child_high, child_rising, child_falling,
                child_in_rising, child_in_falling, child_down, child_up,
                rank + weight[depth] * (seen & bit - 1).bit_count(),
            )

    for v in range(1, width):  # a first value makes no pair and sits inside none
        visit(1, 1 << v, v, v, v, 0, 0, 0, 0, 0, 0, 0)
    return avoid_down, fixed_down, avoid_up, fixed_up


def _in_interval(up: int, interval) -> bool:
    """Whether the up mask lies in the (low, high) interval."""
    low, high = interval
    return not (low & ~up or high & up)


def _same_interval(one, other) -> bool:
    """Whether two intervals of up masks hold the same masks: both empty
    (low meets high) or with the same ends."""
    return one == other or bool(one[0] & one[1] and other[0] & other[1])


def _patterns_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Fixed points of the projections are the colored-pattern avoiders.

    For a permutation x and up set U, x avoids up231 and 31down2 iff
    m312 <= U and U misses m231, where m231 (m312) holds the values that
    are the marked letter of some 231 (312) in x, and pi_down fixes x
    iff U lies in the ``_pair_interval`` of each adjacent inversion of x
    (the values between such a pair that come later are up, those before
    it down), an intersection ``_pattern_sweep`` packs as one OR;
    likewise for pi_up with the ascents.  Each is an interval of U, so
    the claim for every signature at once is one interval comparison per
    permutation, read off ``_pattern_sweep``: packed intervals with equal
    ends hold the same masks, and only a pair that differs is unpacked
    for ``_same_interval``.  A failing n reports the first
    (x, signature) that breaks it, signatures in
    ``all_updown_signatures`` order and then permutations in
    lexicographic order.
    """
    name, failed = f"{label} all signatures", []
    avoid_down, fixed_down, avoid_up, fixed_up = sweep = _pattern_sweep(n)
    differ = map(or_, map(ne, avoid_down, fixed_down), map(ne, avoid_up, fixed_up))
    width = n + 1
    for i in itertools.compress(itertools.count(), differ):
        intervals = [(packed[i] & (1 << width) - 1, packed[i] >> width) for packed in sweep]
        avoid_down, fixed_down, avoid_up, fixed_up = intervals
        if not (_same_interval(avoid_down, fixed_down) and _same_interval(avoid_up, fixed_up)):
            x = next(itertools.islice(itertools.permutations(range(1, n + 1)), i, None))
            failed.append((x, intervals))
    if not failed:
        return [_check(name, True, witness=None)]
    for sig in all_updown_signatures(n):
        up = sig.upmask
        for x, intervals in failed:
            avoid_down, fixed_down, avoid_up, fixed_up = (
                _in_interval(up, interval) for interval in intervals
            )
            if avoid_down != fixed_down or avoid_up != fixed_up:
                return [_check(name, False, witness=str((x, sig.to_string())))]
    raise AssertionError(f"no signature tells the intervals of {failed[0][0]} apart")


# ---------------------------------------------------------------------------
# Sublattice of class bottoms.


def _sublattice_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Bottom elements of congruence classes are closed under join/meet."""
    lattice = system.weak_order_lattice()

    def closed(orientation):
        cong = cambrian_congruence(system, orientation)
        ok, witness = lattice.is_sublattice(sorted({cls[0] for cls in cong.classes}))
        if witness is not None:
            x, y, op, result = witness
            x, y, result = (system.element_label(lattice.elements[i]) for i in (x, y, result))
            witness = [x, y, op, result]
        return {"passed": ok, "witness": witness}

    return _per_orientation(system, label, closed)


# ---------------------------------------------------------------------------
# B-Tamari pattern avoiders.


def _b_tamari_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Signed-pattern avoiders equal the class bottoms of the two linear
    orientations, with the central binomial counts."""
    expected = system.catalan_number()
    all_avoiders = b_tamari_avoiders(system.weak_order_lattice().elements)
    checks = []
    for variant in ("toward_s0", "away_from_s0"):
        sig = linear_signature(n, variant)
        orientation = orientation_from_edges(system, sig.orientation_edges())
        reps = set(cambrian_lattice(system, orientation).class_representatives)
        avoiders = all_avoiders[variant]
        ok = avoiders == reps and len(avoiders) == expected
        checks.append(_check(
            f"{label} {variant}", ok, count=len(avoiders), expected=expected,
            generating_pairs=_pairs_repr(system, orientation),
        ))
    return checks


# ---------------------------------------------------------------------------
# Shard digraphs versus brute-force forcing.


def _shard_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Transitive closures of the shard arrows equal the forcing relation
    computed from smallest contracting congruences."""
    lattice = system.weak_order_lattice()
    if system.family == "A":
        digraph, to_subset = shard_digraph_a, perm_to_ji_subset
    else:
        digraph, to_subset = shard_digraph_b, perm_to_signed_ji
    brute = {}
    for g, contracted in forcing_arrows(lattice).items():
        a = to_subset(lattice.elements[g])
        brute[a] = frozenset(to_subset(lattice.elements[h]) for h in contracted) - {a}
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
    return [_check(label, shard == brute, witness=None if witness is None else str(witness))]


# ---------------------------------------------------------------------------
# Fans.


def _fan_ab_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Exact fan checks of every signature of an A or B group: simplicial
    tiling, dual graph, ray dictionary.  Each check builds its signature's
    Cambrian congruence, and no quotient; all of them read the weak
    order's one chamber table (``fans._chamber_table``) and its one walk,
    whose eta of every signature is walked first, in lanes."""
    signatures = _signatures(system, n)
    _walked(system.weak_order_lattice(), signatures)
    reports = [(sig, check_fan(sig)) for sig in signatures]
    return [_check(f"{label} sig {sig.to_string()}", fan_passed(r), **r) for sig, r in reports]


def _fan_h3_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """The H3 fan of every orientation, with a Catalan number of cones and
    a 3-regular Hasse diagram, and one f-vector for all of them."""
    checks, f_vectors = [], set()
    for orientation in all_orientations(system):
        report = check_fan_h3(system, orientation)
        f_vectors.add(tuple(report["f_vector"]))
        cong = cambrian_congruence(system, orientation)
        degrees = {sum(c in cover for cover in cong.cover_image) for c in range(cong.num_classes)}
        ok = fan_passed(report) and report["num_cones"] == system.catalan_number()
        ok = ok and degrees == {3}
        checks.append(
            _check(f"{label} [{orientation}]", ok, hasse_degrees=sorted(degrees), **report)
        )
    return checks + [
        _check(f"{label} equal f-vectors", len(f_vectors) == 1, f_vectors=sorted(f_vectors))
    ]


# ---------------------------------------------------------------------------
# Clusters.


def _cluster_count(n: int) -> dict:
    """The (n-1)-sets of pairwise compatible roots of S_n, counted from
    ``compatible_pairs`` alone: a set grows by later roots compatible
    with every member so far.  ``clusters(n).clusters``, the
    triangulations, would count Catalan(n) by construction."""
    roots, pairs = clusters(n).roots, clusters(n).compatible_pairs
    later = [
        sum(1 << j for j in range(i + 1, len(roots)) if frozenset((b, roots[j])) in pairs)
        for i, b in enumerate(roots)
    ]

    def sets(size, free):
        return sum(sets(size - 1, free & later[i]) for i in _members(free)) if size else 1

    count = sets(n - 1, (1 << len(roots)) - 1)
    return {"passed": count == catalan(n), "count": count, "expected": catalan(n)}


def _cluster_poset_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """The cluster poset is isomorphic to the bipartite Cambrian lattice."""
    if system.family == "A":
        sig, poset = alternating_signature(n), cluster_poset(n)
    else:
        sig, poset = b_bipartite_signature(n), b_cluster_poset(n)
    orientation = orientation_from_edges(system, sig.orientation_edges())
    quotient = cambrian_lattice(system, orientation).quotient
    ok = poset_isomorphism(poset, quotient) is not None
    pairs = _pairs_repr(system, orientation)
    return [_check(f"cluster poset iso {label}", ok, generating_pairs=pairs)]


def _psi_bijective(n: int) -> dict:
    ok, witness = psi_and_bipartite_iso_check(n)
    return {"passed": ok, "witness": None if ok else str(witness)}


def _twisted(n: int) -> dict:
    for beta, theta in itertools.product(positive_roots(n), repeat=2):
        for eps in ("+", "-"):
            if not twist_check(n, beta, theta, eps):
                return {"passed": False, "witness": str((beta, theta, eps))}
    return {"passed": True, "witness": None}


def _nice_coroots(n: int) -> dict:
    missing = wall_without_nice_coroot(n)
    witness = None if missing is None else str(sorted(missing))
    return {"passed": missing is None, "witness": witness}


def _refined(n: int, family: str) -> dict:
    return {"passed": cluster_refine_check(n, family)}


# ---------------------------------------------------------------------------
# Descents.


def _case_table_check(
    system: CoxeterSystem, n: int, lattice: FiniteLattice, label: str
) -> dict:
    """The triangulation case tables give the left descents of every
    element of the weak order, for every signature: one descent row per
    fiber of eta, read through each element's place (``eta_fibers``).
    The sides of a mask do not depend on the signature, so each distinct
    mask of the group is read once for all signatures, and a signature's
    rows come from one ``descents`` call over its fibers' sides."""
    name = f"{label} case tables"
    descents = [
        sum(1 << a for a in system.left_descents(x)) for x in lattice.elements
    ]
    signatures = _signatures(system, n)
    walk = _walked(lattice, signatures)
    sides = {}
    for sig in signatures:
        distinct, places = sig.eta_fibers(walk)
        for mask in distinct:
            if mask not in sides:
                sides[mask] = sig.sides(mask)
        rows = sig.descents(list(map(sides.__getitem__, distinct)))
        ours = list(map(rows.__getitem__, places))
        if ours != descents:
            x = next(
                x for x, mine, theirs in zip(lattice.elements, ours, descents)
                if mine != theirs
            )
            return _check(name, False, witness=str((sig.to_string(), x)))
    return _check(name, True, witness=None)


def _case_tables(n: int, system: CoxeterSystem, label: str) -> list:
    return [_case_table_check(system, n, system.weak_order_lattice(), label)]


def _quotient_descent_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Class descents respect joins and meets in the quotient.

    No fault of the congruence breaks this: the quotients by Cg(g) for every
    join-irreducible g pass (11 in A_3, 23 in B_3, 26 in A_4).  For joins it
    holds for every congruence: left descents, the simple roots among the
    inversions, take joins to unions, and the class bottom of x v y lies
    between x and x v y.  Its control faults the descent data instead.

    ``descent_quotient_check`` tests each generator s once: the classes
    lacking s must be a down-set closed under joins, and down-set plus
    join-closed means principal ideal; those having s an up-set closed
    under meets, and up-set plus meet-closed means principal filter."""

    def respected(orientation):
        ok, witness = descent_quotient_check(system, orientation)
        return {"passed": ok, "witness": None if witness is None else str(witness)}

    return _per_orientation(system, f"{label} quotient descents", respected)


# ---------------------------------------------------------------------------
# Mobius function and atomic intervals.


def _mobius_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Mobius values in {-1, 0, 1}, nonzero exactly on atomic intervals."""

    def spherical(orientation):
        quotient = cambrian_lattice(system, orientation).quotient
        for i, j in itertools.product(range(quotient.n), repeat=2):
            if quotient.le(i, j):
                mu = quotient.mobius(i, j)
                atomic = quotient.is_atomic_interval(i, j)
                if mu not in (-1, 0, 1) or (mu != 0) != atomic:
                    return {"passed": False, "witness": str((i, j, mu, atomic))}
        return {"passed": True, "witness": None}

    return _per_orientation(system, label, spherical)


# ---------------------------------------------------------------------------
# Orientation recovery; duality.


def _orientation_eq(a: Orientation, b: Orientation) -> bool:
    return set(a.vertices) == set(b.vertices) and set(a.edges) == set(b.edges)


def _recover_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """Recover the orientation from each quotient.  A quotient without the
    Cambrian shape fails its check, with the reason as its witness."""

    def recovered(orientation):
        quotient = cambrian_lattice(system, orientation).quotient
        try:
            found = recover_orientation(quotient, system)
        except NotCambrianError as exc:
            return {"passed": False, "recovered": None, "witness": str(exc)}
        return {"passed": _orientation_eq(found, orientation), "recovered": str(found)}

    return _per_orientation(system, f"recover {label}", recovered)


def _duality_checks(n: int, system: CoxeterSystem, label: str) -> list:
    """The Tamari lattice (of the all-up signature) is self-dual, and the
    two B-Tamari lattices (of the linear orientations) are anti-isomorphic."""
    if system.family == "A":
        name, sigs = f"Tamari self-duality n={n}", [UpDownSignature(n, frozenset(range(1, n + 1)))]
    else:
        name = f"B-Tamari anti-isomorphism n={n}"
        sigs = [linear_signature(n, variant) for variant in ("toward_s0", "away_from_s0")]
    quotients = [
        cambrian_lattice(system, orientation_from_edges(system, sig.orientation_edges())).quotient
        for sig in sigs
    ]
    return [_check(name, poset_anti_isomorphism(quotients[0], quotients[-1]) is not None)]


# ---------------------------------------------------------------------------
# The claim table and its driver.


class _Groups(NamedTuple):
    """``bounds``: family -> default largest index (None for H3), in report
    order; ``check(n, system, label)``: one group's checks."""

    bounds: dict
    check: Callable


class _Index(NamedTuple):
    """One check per n from ``first`` to ``last``, named ``name`` with n
    filled in; ``check(n)`` gives its fields from "passed" on."""

    family: str
    name: str
    first: int
    last: int
    check: Callable


class _Suite(NamedTuple):
    """The accepted ``--family`` values, the parts, the family run without
    one (None: all), and whether ``max_rank`` replaces the largest indices."""

    families: tuple
    parts: tuple
    default: str | None = None
    max_rank_replaces: bool = False


# Per family: the first group index, the group of index n, and its label
# in check names.
_FAMILIES = {
    "A": (3, lambda n: get_system("A", n - 1), "A n={n}"),
    "B": (2, lambda n: get_system("B", n), "B n={n}"),
    "I2": (3, lambda n: get_system("I2", None, n), "I2({n})"),
    "H3": (3, lambda n: get_system("H3"), "H3"),
}


SUITES = {
    "catalan": _Suite(
        ("A", "B", "I2", "H3"),
        (_Groups({"A": 7, "B": 4, "I2": 8, "H3": None}, _catalan_checks),),
        default="A",
        max_rank_replaces=True,
    ),
    "congruence-eq": _Suite(("A", "B"), (_Groups({"A": 5, "B": 3}, _congruence_eq_checks),)),
    "sublattice": _Suite(("A", "B"), (_Groups({"A": 6, "B": 3}, _sublattice_checks),)),
    "patterns": _Suite(("A",), (_Groups({"A": 7}, _patterns_checks),)),
    "shard": _Suite(("A", "B"), (_Groups({"A": 5, "B": 3}, _shard_checks),)),
    "fan": _Suite(
        ("A", "B", "H3"),
        (
            _Groups({"A": 4}, _fan_ab_checks),
            _Index("A", "stasheff rays n={n}", 3, 7, lambda n: {"passed": stasheff_ray_check(n)}),
            _Groups({"B": 3}, _fan_ab_checks),
            _Groups({"H3": None}, _fan_h3_checks),
        ),
    ),
    "cluster": _Suite(
        (),
        (
            _Index("A", "cluster count n={n}", 2, 6, _cluster_count),
            _Groups({"A": 5, "B": 3}, _cluster_poset_checks),
            _Index("A", "psi cone bijection n={n}", 3, 5, _psi_bijective),
            _Index("A", "twist identity n={n}", 2, 4, _twisted),
            _Index("A", "nice coroot A n={n}", 2, 5, _nice_coroots),
            _Index("A", "cluster refine A n={n}", 2, 4, lambda n: _refined(n, "A")),
            _Index("B", "cluster refine B n={n}", 2, 3, lambda n: _refined(n, "B")),
        ),
    ),
    "descent": _Suite(
        ("A", "B"),
        (
            _Groups({"A": 6}, _case_tables),
            _Groups({"A": 5}, _quotient_descent_checks),
            _Groups({"B": 3}, lambda *g: _case_tables(*g) + _quotient_descent_checks(*g)),
        ),
    ),
    "mobius": _Suite(("A", "B"), (_Groups({"A": 5, "B": 3}, _mobius_checks),)),
    "iso": _Suite(
        ("A", "B", "I2", "H3"),
        (
            _Groups({"A": 5, "B": 3, "I2": 8, "H3": None}, _recover_checks),
            _Groups({"A": 5, "B": 3}, _duality_checks),
        ),
    ),
    "b-tamari": _Suite(("B",), (_Groups({"B": 4}, _b_tamari_checks),)),
    "fibers": _Suite(("A",), (_Groups({"A": 6}, _fibers_checks),)),
}


SUITE_NAMES = tuple(SUITES)


def _run(name: str, family, max_rank, cap) -> dict:
    """The report of suite ``name``: refuse a family it does not cover,
    keep the parts of ``family``, cut (or, where the row says so, set)
    each largest index at ``max_rank``, refuse a group over ``cap`` before
    building any, then run the parts in order."""
    suite = SUITES[name]
    if family is not None and family not in suite.families:
        raise ValueError(f"suite {name} does not cover family {family!r}")
    family = family or suite.default

    def indices(first: int, last):
        if last is None:
            return [first]
        if max_rank is not None:
            last = max_rank if suite.max_rank_replaces else min(last, max_rank)
        return range(first, last + 1)

    runs = []  # (part, n, system, label) in report order; None for an index part
    for part in suite.parts:
        if isinstance(part, _Index):
            if family in (None, part.family):
                runs += [(part, n, None, None) for n in indices(part.first, part.last)]
            continue
        for fam, last in part.bounds.items():
            if family in (None, fam):
                first, group, label = _FAMILIES[fam]
                runs += [(part, n, group(n), label.format(n=n)) for n in indices(first, last)]
    for _, _, system, _ in runs:
        if system is not None:
            system.check_cap(cap)
    checks = []
    for part, n, system, label in runs:
        if system is None:
            checks.append(_check(part.name.format(n=n), **part.check(n)))
        else:
            checks += part.check(n, system, label)
    meta = {"family": family or ",".join(suite.families)} if suite.families else {}
    return _report(name, checks, **meta)


def run_suite(name: str, family=None, max_rank=None, cap=None) -> dict:
    return _run(name, family, max_rank, cap)
