import functools
import itertools
import re
from collections import deque
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from cambrian import (
    all_orientations,
    build_system,
    cambrian_congruence,
    cambrian_lattice,
    cg,
    congruence_closure,
    coxeter,
    forcing_poset,
    generating_pairs,
    get_system,
    is_lattice_congruence,
    polygon_a,
    quotient,
)
from cambrian.fans import b_cluster_poset, cluster_poset
from cambrian.lattices import (
    FiniteLattice,
    LatticeCongruence,
    PolygonForcing,
    _is_cover_bijection,
    _lsb,
    _transitive,
    built_lattice,
    congruence_from_partition,
    forcing_arrows,
    poset_anti_isomorphism,
    poset_isomorphism,
    quotient_lattice,
)
from cambrian.polygon_a import UpDownSignature, triangulation_lattice
from cambrian.polygon_b import all_symmetric_signatures, symmetric_triangulation_lattice
from cambrian.suites import run_suite


def hexagon():
    """Weak order of S3."""
    return build_system("A", 2).weak_order_lattice()


def pentagon():
    elements = ("0", "a", "b1", "b2", "1")
    covers = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    return FiniteLattice.from_covers(elements, covers)


def test_from_covers_trivial_and_bowtie():
    single = FiniteLattice.from_covers(("x",), [])
    assert single.n == 1 and single.bottom == single.top
    elements = ("a", "b", "c", "d")
    bowtie = [(0, 2), (0, 3), (1, 2), (1, 3)]
    with pytest.raises(ValueError):
        FiniteLattice.from_covers(elements, bowtie)
    # Covers the program derived that give no lattice are an internal
    # error; by hand, as above, they stay a ValueError.
    with pytest.raises(AssertionError, match="built a poset that is not a lattice: not bounded"):
        built_lattice(elements, bowtie)


@pytest.mark.parametrize(
    "covers, message",
    [
        # Taken as given, a repeated pair makes lower[1] == [0, 0], so 1
        # would lose its join-irreducibility and 0 its meet-irreducibility.
        ([(0, 1), (0, 1), (1, 2)], "cover (0, 1) is given more than once"),
        # Read from the end, -2 is 1: a chain from a pair not given.
        ([(0, -2), (1, 2)], "cover (0, -2) is not a pair of indices 0..2"),
        ([(0, 1), (1, 3)], "cover (1, 3) is not a pair of indices 0..2"),
    ],
)
def test_from_covers_refuses_malformed_pairs(covers, message):
    elements = ("0", "a", "1")
    for validate in (True, False):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FiniteLattice.from_covers(elements, iter(covers), validate=validate)
    with pytest.raises(AssertionError, match=f"not a lattice: {re.escape(message)}$"):
        built_lattice(elements, covers)


def tuple_list_lattice(elements, covers):
    """The construction that reads one sorted list of cover tuples: Kahn's
    algorithm over the successors in input order, every pair re-indexed
    into a new list and sorted, and the rows and down-sets read off it.
    (elements, covers, lower, upper, down)."""
    covers = list(covers)
    n = len(elements)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in covers:
        succ[a].append(b)
        indeg[b] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    queue = deque(order)
    while queue:
        for j in succ[queue.popleft()]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
                queue.append(j)
    new_pos = {old: pos for pos, old in enumerate(order)}
    new_covers = sorted((new_pos[a], new_pos[b]) for a, b in covers)
    lower = [[] for _ in range(n)]
    upper = [[] for _ in range(n)]
    for a, b in new_covers:
        upper[a].append(b)
        lower[b].append(a)
    down = [0] * n
    for i in range(n):
        down[i] = functools.reduce(or_, (down[a] for a in lower[i]), 1 << i)
    return tuple(elements[old] for old in order), new_covers, lower, upper, down


def assert_built_as_tuple_list(elements, covers):
    lattice = FiniteLattice.from_covers(elements, iter(covers))
    built = (lattice.elements, lattice.covers, lattice.lower, lattice.upper, lattice.down)
    assert built == tuple_list_lattice(elements, covers)
    assert list(lattice.edges()) == lattice.covers


@pytest.mark.parametrize(
    "key", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("H3",), ("I2", None, 5)]
)
def test_weak_order_rows_build_as_the_tuple_list(key):
    """The successor rows of the enumeration, read as pairs, give the
    elements, covers, rows and down-sets of the sorted tuple list."""
    order, succ = build_system(*key)._enumerate()
    assert_built_as_tuple_list(order, [(i, j) for i, row in enumerate(succ) for j in row])


def test_quotients_flip_orders_and_an_ungraded_lattice_build_as_the_tuple_list(monkeypatch):
    """The covers of a Cambrian quotient, those of a flip lattice (not in
    sorted order) and the pentagon's, given out of order: the pentagon
    0 < a < 1, 0 < b1 < b2 < 1 is not graded."""
    cong = cambrian_congruence(get_system("A", 3), all_orientations(get_system("A", 3))[1])
    elements = tuple(cong.lattice.elements[cls[0]] for cls in cong.classes)
    assert_built_as_tuple_list(elements, sorted(cong.cover_image))
    flips = []
    monkeypatch.setattr(polygon_a, "built_lattice", lambda *args: flips.append(args))
    triangulation_lattice(UpDownSignature.from_string("udud"))
    ((items, covers),) = flips
    assert covers != sorted(covers)
    assert_built_as_tuple_list(items, covers)
    pentagon_covers = [(3, 4), (0, 2), (1, 4), (2, 3), (0, 1)]
    assert_built_as_tuple_list(("0", "a", "b1", "b2", "1"), pentagon_covers)


def test_congruence_closure_hexagon():
    lattice = hexagon()
    idx = lattice.index
    cong = congruence_closure(lattice, [(idx[(1, 3, 2)], idx[(3, 1, 2)])])
    classes = {frozenset(lattice.elements[i] for i in cls) for cls in cong.classes}
    assert frozenset({(1, 3, 2), (3, 1, 2)}) in classes
    assert cong.num_classes == 5
    cong2 = congruence_closure(lattice, [(idx[(2, 3, 1)], idx[(2, 1, 3)])])
    classes2 = {
        frozenset(lattice.elements[i] for i in cls) for cls in cong2.classes
    }
    assert frozenset({(2, 1, 3), (2, 3, 1)}) in classes2
    assert cong2.num_classes == 5
    discrete = congruence_closure(lattice, [])
    assert discrete.num_classes == lattice.n


def test_is_lattice_congruence():
    lattice = hexagon()
    idx = lattice.index
    cong = congruence_closure(lattice, [(idx[(1, 3, 2)], idx[(3, 1, 2)])])
    ok, reason = is_lattice_congruence(
        lattice, [list(cls) for cls in cong.classes]
    )
    assert ok and reason is None
    # Bottom and top together: not an interval class.
    blocks = [[lattice.bottom, lattice.top]] + [
        [i]
        for i in range(lattice.n)
        if i not in (lattice.bottom, lattice.top)
    ]
    ok, reason = is_lattice_congruence(lattice, blocks)
    assert not ok and "interval" in reason
    with pytest.raises(ValueError, match="not a lattice congruence"):
        quotient(lattice, congruence_from_partition(lattice, blocks))
    # Interval classes whose projections fail to be order-preserving.
    blocks = [[idx[(1, 2, 3)], idx[(2, 1, 3)]]] + [
        [i] for i in range(lattice.n) if i not in (idx[(1, 2, 3)], idx[(2, 1, 3)])
    ]
    ok, _ = is_lattice_congruence(lattice, blocks)
    assert not ok
    with pytest.raises(ValueError, match="not a lattice congruence"):
        quotient(lattice, congruence_from_partition(lattice, blocks))


@pytest.mark.parametrize(
    "blocks, element",
    [
        ([[0], [1], [2], [3], [4], [5], [1]], "1"),
        ([[0, 1, 2, 3, 4, -1]], "-1"),
        ([[0, 1, 2, 3, 4, 5, 9]], "9"),
    ],
)
def test_block_list_that_is_not_a_partition_is_refused(blocks, element):
    lattice = hexagon()
    with pytest.raises(ValueError, match=f"element {element} "):
        congruence_from_partition(lattice, blocks)
    ok, reason = is_lattice_congruence(lattice, blocks)
    assert not ok and f"element {element} " in reason


def test_quotient_of_hexagon_is_pentagon():
    lattice = hexagon()
    idx = lattice.index
    cong = congruence_closure(lattice, [(idx[(1, 3, 2)], idx[(3, 1, 2)])])
    q = quotient(lattice, cong)
    assert q.n == 5
    assert poset_isomorphism(q, pentagon()) is not None
    all_in_one = congruence_from_partition(lattice, [list(range(lattice.n))])
    assert quotient_lattice(all_in_one).n == 1
    discrete = congruence_from_partition(
        lattice, [[i] for i in range(lattice.n)]
    )
    assert poset_isomorphism(quotient_lattice(discrete), lattice) is not None


def test_partition_congruence_derives_its_projections_when_read():
    lattice = hexagon()
    idx = lattice.index
    closed = congruence_closure(lattice, [(idx[(1, 3, 2)], idx[(3, 1, 2)])])
    cong = congruence_from_partition(lattice, closed.classes)
    assert not {"down_projection", "up_projection"} & set(vars(cong))
    assert cong.verify() == (True, None)
    assert cong.down_projection == closed.down_projection
    assert cong.up_projection == closed.up_projection
    assert poset_isomorphism(quotient_lattice(cong), pentagon()) is not None


def test_cg_hexagon():
    lattice = hexagon()
    idx = lattice.index
    cong = cg(lattice, idx[(3, 1, 2)])
    contracted = {
        lattice.elements[g] for g in cong.contracted_join_irreducibles()
    }
    assert contracted == {(3, 1, 2)}
    assert cong.num_classes == 5
    # Contracting an atom forces the rest of the fixpoint cascade.
    cong_atom = cg(lattice, idx[(2, 1, 3)])
    classes = {
        frozenset(lattice.elements[i] for i in cls)
        for cls in cong_atom.classes
    }
    assert classes == {
        frozenset({(1, 2, 3), (2, 1, 3), (2, 3, 1)}),
        frozenset({(1, 3, 2), (3, 1, 2), (3, 2, 1)}),
    }
    with pytest.raises(ValueError):
        cg(lattice, lattice.top)


def test_forcing_poset_hexagon_and_pentagon():
    lattice = hexagon()
    fp = forcing_poset(lattice)
    atoms = set(lattice.atoms())
    degree2 = set(fp.nodes) - atoms
    for a in atoms:
        assert degree2 <= fp.forced[a]
    for g in degree2:
        assert fp.forced[g] == {g}
    p = pentagon()
    fp = forcing_poset(p)
    # Atom-side join-irreducibles force the middle of the long chain.
    mid = p.index["b2"]
    for g in fp.nodes:
        if g != mid:
            assert fp.forces(g, mid)
    single = FiniteLattice.from_covers(("x",), [])
    assert forcing_poset(single).nodes == []


def test_mobius_and_atomic():
    lattice = hexagon()
    assert lattice.mobius(lattice.bottom, lattice.top) == 1
    assert lattice.is_atomic_interval(lattice.bottom, lattice.top)
    for i in range(lattice.n):
        assert lattice.mobius(i, i) == 1
    p = pentagon()
    mid = p.index["b2"]
    assert p.mobius(p.bottom, mid) == 0
    assert not p.is_atomic_interval(p.bottom, mid)


def test_is_sublattice():
    lattice = hexagon()
    idx = lattice.index
    ok, witness = lattice.is_sublattice(
        [idx[(1, 2, 3)], idx[(2, 1, 3)], idx[(1, 3, 2)]]
    )
    assert not ok and witness is not None
    ok, witness = lattice.is_sublattice(range(lattice.n))
    assert ok and witness is None


def test_quotient_join_agrees_classwise():
    lattice = hexagon()
    idx = lattice.index
    cong = congruence_closure(lattice, [(idx[(1, 3, 2)], idx[(3, 1, 2)])])
    q = quotient_lattice(cong)
    down = cong.down_projection
    for i, j in itertools.product(range(lattice.n), repeat=2):
        a = q.index[lattice.elements[down[i]]]
        b = q.index[lattice.elements[down[j]]]
        joined = q.elements[q.join(a, b)]
        assert joined == lattice.elements[down[lattice.join(i, j)]]


def test_poset_isomorphism_and_dual():
    lattice = hexagon()
    assert poset_isomorphism(lattice, lattice.dual()) is not None
    assert poset_anti_isomorphism(lattice, lattice) is not None
    assert poset_isomorphism(lattice, pentagon()) is None


def test_isomorphism_certificate_accepts_found_mappings_only():
    """The hexagon to its dual: the search's mapping passes; a list with
    every element unmapped, one that maps two elements to one, and one
    that swaps the images of the bottom and the top do not.  Nor does a
    bijection from the pentagon onto the five-element chain, which has
    one cover fewer."""
    lattice, dual = hexagon(), hexagon().dual()
    mapping = poset_isomorphism(lattice, dual)
    assert _is_cover_bijection(lattice, dual, mapping)
    swapped = list(mapping)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    for wrong in ([-1] * lattice.n, [mapping[0]] + mapping[:-1], swapped):
        assert not _is_cover_bijection(lattice, dual, wrong)
    chain = FiniteLattice.from_covers(tuple("01234"), [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not _is_cover_bijection(pentagon(), chain, list(range(5)))


def test_closure_outputs_verify():
    for rank in (2, 3):
        lattice = build_system("A", rank).weak_order_lattice()
        for g in lattice.join_irreducibles:
            cong = cg(lattice, g)
            ok, reason = cong.verify()
            assert ok, reason


# -- the forcing table's closure against the union-find oracle --------------


def union_find_closure(lattice: FiniteLattice, pairs) -> LatticeCongruence:
    """Smallest lattice congruence identifying each given pair of indices,
    by propagating merges through joins and meets with irreducibles.

    x ~ y is propagated to x v z ~ y v z for join-irreducible z and to
    x ^ z ~ y ^ z for meet-irreducible z; every element is a join of
    join-irreducibles, so by induction through transitivity the result is
    closed under joins and meets with arbitrary elements."""
    parent = list(range(lattice.n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    work: deque[tuple[int, int]] = deque()

    def merge(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            work.append((i, j))

    for a, b in pairs:
        merge(a, b)
    ji = lattice.join_irreducibles
    mi = lattice.meet_irreducibles
    up = lattice.up
    down = lattice.down
    while work:
        x, y = work.popleft()
        ux, uy = up[x], up[y]
        dx, dy = down[x], down[y]
        for z in ji:
            uz = up[z]
            a = ux & uz
            b = uy & uz
            if a != b:
                merge(_lsb(a), _lsb(b))
        for z in mi:
            dz = down[z]
            a = dx & dz
            b = dy & dz
            if a != b:
                merge(a.bit_length() - 1, b.bit_length() - 1)
    return LatticeCongruence(lattice, [find(i) for i in range(lattice.n)])


ORACLE_SYSTEMS = [
    ("A", 3, None),
    ("A", 4, None),
    ("A", 5, None),
    ("B", 3, None),
    ("B", 4, None),
    ("H3", None, None),
    ("I2", None, 5),
    ("I2", None, 8),
]


def assert_same_as_oracle(lattice, pairs):
    fast = congruence_closure(lattice, pairs)
    assert fast.key() == union_find_closure(lattice, pairs).key()


@pytest.mark.parametrize("family, rank, bond", ORACLE_SYSTEMS)
def test_polygonal_closure_matches_union_find_on_orientations(family, rank, bond):
    system = get_system(family, rank, bond)
    lattice = system.weak_order_lattice()
    assert lattice.polygon_forcing() is not None
    for orientation in all_orientations(system):
        pairs = [
            (lattice.index[a], lattice.index[b])
            for a, b in generating_pairs(system, orientation)
        ]
        assert_same_as_oracle(lattice, pairs)


def with_quotients(family, rank, bond=None):
    """The weak order and its Cambrian quotients."""
    system = get_system(family, rank, bond)
    return [system.weak_order_lattice()] + [
        cambrian_lattice(system, orientation).quotient
        for orientation in all_orientations(system)
    ]


@pytest.mark.parametrize("family, rank, bond", ORACLE_SYSTEMS)
def test_polygonal_closure_matches_union_find_on_contractions(family, rank, bond):
    for lattice in with_quotients(family, rank, bond):
        assert lattice.polygon_forcing() is not None
        for g in lattice.join_irreducibles:
            assert_same_as_oracle(lattice, [(lattice.lower[g][0], g)])


PARTITION_FIELDS = ("num_classes", "class_of", "classes", "down_projection", "up_projection")


def partition_fields(cong):
    """The fields a congruence derives from its labels, ``num_classes``
    read first so that a lazy congruence counts its bottoms."""
    return tuple(getattr(cong, name) for name in PARTITION_FIELDS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("A", 3), ("B", 3)]), st.data())
def test_polygonal_closure_matches_union_find_on_random_pairs(key, data):
    lattice = get_system(*key).weak_order_lattice()
    index = st.integers(0, lattice.n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=4))
    assert_same_as_oracle(lattice, pairs)
    fast = congruence_closure(lattice, pairs)
    assert fast.hit is not None
    assert partition_fields(fast) == partition_fields(union_find_closure(lattice, pairs))


def cover_labels(lattice, table):
    """Each cover's label in edge order, read off the table's ``below``:
    the lowest bit of below[y] ^ below[x]."""
    below = table.below
    return [_lsb(below[y] ^ below[x]) for x, y in lattice.edges()]


def interval_closure_hit(lattice, a, b):
    """The labels, closed under forcing, of the covers in the whole
    interval [a ^ b, a v b], read off its up-sets."""
    forcing = lattice.polygon_forcing()
    inside = lattice.interval(lattice.meet(a, b), lattice.join(a, b))
    mask = sum(1 << x for x in inside)
    hit = 0
    for (x, y), label in zip(lattice.edges(), cover_labels(lattice, forcing)):
        if mask >> x & 1 and mask >> y & 1:
            hit |= forcing.reach[label]
    return hit


@pytest.mark.parametrize(
    "family, rank, bond", [("A", 3, None), ("B", 3, None), ("H3", None, None), ("I2", None, 5)]
)
def test_incomparable_pair_closes_as_two_comparable_pairs(family, rank, bond):
    """Closing an incomparable pair as a ^ b <= a and a ^ b <= b contracts
    the labels its whole interval does, on every such pair of the weak
    order, and derives no up-set."""
    weak = get_system(family, rank, bond).weak_order_lattice()
    lattice = FiniteLattice.from_covers(weak.elements, weak.covers)
    down = lattice.down
    pairs = [
        (a, b) for a, b in itertools.combinations(range(lattice.n), 2) if not down[b] >> a & 1
    ]
    assert pairs
    hits = [congruence_closure(lattice, [pair]).hit for pair in pairs]
    assert "up" not in vars(lattice)
    assert hits == [interval_closure_hit(lattice, a, b) for a, b in pairs]


def subset_lattice(size, generators):
    """The family of subsets of a ``size``-set (as bitmasks) generated by
    ``generators`` under intersection, with the empty and the whole set:
    a lattice under inclusion, meets being intersections."""
    family = {0, (1 << size) - 1}
    for g in generators:
        family |= {g & f for f in family}
    elements = sorted(family)
    covers = [
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if a != b and a & b == a
        and not any(c not in (a, b) and a & c == a and c & b == c for c in elements)
    ]
    return FiniteLattice.from_covers(tuple(elements), covers)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, (1 << size) - 1), max_size=8))
), st.data())
def test_closure_matches_union_find_on_random_lattices(family, data):
    lattice = subset_lattice(*family)
    index = st.integers(0, lattice.n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=3))
    assert_same_as_oracle(lattice, pairs)
    assert partition_fields(congruence_closure(lattice, pairs)) == partition_fields(
        union_find_closure(lattice, pairs)
    )


def flip_and_cluster_lattices():
    """Lattices built from their covers that no suite closes."""
    signatures = [UpDownSignature(n, frozenset(range(1, n + 1, 2))) for n in range(3, 7)]
    signatures += [UpDownSignature(n, frozenset()) for n in range(3, 7)]
    lattices = [triangulation_lattice(sig) for sig in signatures]
    for n in (2, 3):
        lattices += [symmetric_triangulation_lattice(sig) for sig in all_symmetric_signatures(n)]
    return lattices + [cluster_poset(n) for n in (3, 4, 5)] + [b_cluster_poset(n) for n in (2, 3)]


BUILT_FROM_COVERS = {
    "M3": lambda: [m3()],
    "N5": lambda: [pentagon()],
    "flips-and-clusters": flip_and_cluster_lattices,
}


@pytest.mark.parametrize("make", BUILT_FROM_COVERS.values(), ids=BUILT_FROM_COVERS.keys())
def test_closure_matches_union_find_on_lattices_built_from_covers(make):
    """Every pair of M3 and N5, and every cover of the flip and cluster
    lattices, closes as the union-find oracle closes it."""
    for lattice in make():
        if lattice.n <= 5:
            seeds = [[pair] for pair in itertools.combinations(range(lattice.n), 2)]
        else:
            seeds = [[cover] for cover in lattice.covers]
        for pairs in [[]] + seeds:
            assert_same_as_oracle(lattice, pairs)


# -- weak-order tables against the polygons, and congruences from labels ---

WEAK_ORDERS = (
    [("A", rank, None) for rank in range(2, 6)]
    + [("B", rank, None) for rank in range(2, 5)]
    + [("H3", None, None)]
    + [("I2", None, m) for m in range(3, 9)]
)


def polygon_walk(lattice):
    """Edge labels and transitive label forcing of a polygonal lattice,
    read off each polygon [x, a v b] for two upper covers a, b of x: the
    bottom edge of one side is perspective to the top edge of the other,
    and each of the two forces it and every side edge."""
    down, upper = lattice.down, lattice.upper
    ji = lattice.join_irreducibles
    edge = {cover: k for k, cover in enumerate(lattice.covers)}
    labels = []
    for x, y in lattice.covers:
        diff = down[y] ^ down[x]
        labels.append(ji.index((diff & -diff).bit_length() - 1))
    reach = [1 << j for j in range(len(ji))]
    for x, ux in enumerate(upper):
        for a, b in itertools.combinations(ux, 2):
            top = lattice.join(a, b)
            sides = []
            for c in (a, b):
                chain = [edge[x, c]]
                while c != top:
                    (d,) = [d for d in upper[c] if lattice.le(d, top)]
                    chain.append(edge[c, d])
                    c = d
                sides.append(chain)
            side_a, side_b = sides
            interval = sum(1 for z in range(lattice.n) if lattice.le(x, z) and lattice.le(z, top))
            assert len(side_a) + len(side_b) == interval
            assert labels[side_a[0]] == labels[side_b[-1]]
            assert labels[side_b[0]] == labels[side_a[-1]]
            middle = 0
            for k in side_a[1:-1] + side_b[1:-1]:
                middle |= 1 << labels[k]
            for k in (side_a[0], side_b[0]):
                reach[labels[k]] |= middle
    for k in range(len(ji)):
        for j, row in enumerate(reach):
            if row >> k & 1:
                reach[j] = row | reach[k]
    return labels, reach


@pytest.mark.parametrize("family, rank, bond", WEAK_ORDERS)
def test_coset_table_matches_polygon_walk(family, rank, bond):
    """The forcing table of the weak order, read off its irreducibles, is
    the one read off each polygon of the weak order as a lattice."""
    lattice = get_system(family, rank, bond).weak_order_lattice()
    table = lattice.polygon_forcing()
    labels, reach = polygon_walk(lattice)
    assert cover_labels(lattice, table) == labels
    assert table.reach == reach
    heads = [0] * len(reach)
    for (_, y), label in zip(lattice.covers, labels):
        heads[label] |= 1 << y
    assert table.heads == heads


def drop_a_root(lattice):
    # With the join-irreducible g left out of the roots, g and g_* have
    # the same roots below them, so nothing labels the cover g_* -> g.
    *kept, g = lattice.join_irreducibles
    lattice.join_irreducibles = kept
    edge = lattice.covers.index((lattice.lower[g][0], g))
    return f"edge {edge} has no label"


@pytest.mark.parametrize("forge", [drop_a_root])
def test_coset_table_fails_closed_with_its_message(forge):
    """The weak order of S3, forged by ``forge``, is refused by name."""
    lattice = hexagon()
    message = forge(lattice)
    assert lattice.bottom == 0
    with pytest.raises(AssertionError) as raised:
        lattice.polygon_forcing()
    assert str(raised.value) == message


def test_forcing_table_fails_closed_on_a_poset_that_is_no_lattice():
    """0 < a, b < c, d < 1 is no lattice: a and b have two minimal upper
    bounds.  Its only join-irreducibles are a and b, so c, d and 1 have
    the same ones below them, and the first cover c -> 1 has no label."""
    elements = ("0", "a", "b", "c", "d", "1")
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(ValueError):
        FiniteLattice.from_covers(elements, covers)
    poset = FiniteLattice.from_covers(elements, covers, validate=False)
    index = poset.index
    assert [poset.elements[g] for g in poset.join_irreducibles] == ["a", "b"]
    edge = poset.covers.index((index["c"], index["1"]))
    with pytest.raises(AssertionError) as raised:
        poset.polygon_forcing()
    assert str(raised.value) == f"edge {edge} has no label"


# -- the forcing table against its per-cover builder --------------------------


def warshall(reach):
    """The label forcing rows closed one pivot at a time, each row with
    its own label: the closure ``_transitive`` replaced."""
    reach = [row | 1 << j for j, row in enumerate(reach)]
    for k in range(len(reach)):
        bit, row_k = 1 << k, reach[k]
        for j, row in enumerate(reach):
            if row & bit:
                reach[j] = row | row_k
    return reach


def per_cover_table(lattice):
    """(below, labels, reach, heads), ``below`` and ``labels`` in two
    passes, the labels stored per edge in edge order, and the rest one
    item at a time: each label by ``_lsb``, each meet-irreducible tested
    against one join-irreducible at a time, the Warshall closure, and the
    heads OR-ed bit by bit from each label's list of upper ends."""
    ji, lower, upper = lattice.join_irreducibles, lattice.lower, lattice.upper
    bit = {g: 1 << k for k, g in enumerate(ji)}
    below = [0] * lattice.n
    for x, lx in enumerate(lower):
        mask = bit.get(x, 0)
        for a in lx:
            mask |= below[a]
        below[x] = mask
    labels = []
    for edge, (x, y) in enumerate(lattice.covers):
        diff = below[y] ^ below[x]
        if not diff:
            raise AssertionError(f"edge {edge} has no label")
        labels.append(_lsb(diff))
    lows = [(below[lower[g][0]] | b, b) for g, b in bit.items()]
    reach = [0] * len(ji)
    for m in lattice.meet_irreducibles:
        outside = ~below[m]
        forced = below[upper[m][0]] & outside
        for k, (low, b) in enumerate(lows):
            if low & outside == b:
                reach[k] |= forced
    ends = [[] for _ in reach]
    for (_, y), label in zip(lattice.covers, labels):
        ends[label].append(y)
    heads = [functools.reduce(or_, map((1).__lshift__, ys), 0) for ys in ends]
    return below, labels, warshall(reach), heads


def assert_table_matches_per_cover_builder(lattice):
    table = PolygonForcing.of(lattice)
    assert (
        table.below, cover_labels(lattice, table), table.reach, table.heads
    ) == per_cover_table(lattice)


@pytest.mark.parametrize("family, rank, bond", ORACLE_SYSTEMS)
def test_forcing_table_matches_per_cover_builder_on_weak_orders(family, rank, bond):
    assert_table_matches_per_cover_builder(get_system(family, rank, bond).weak_order_lattice())


@pytest.mark.parametrize(
    "family, rank, bond",
    [("A", 3, None), ("A", 4, None), ("A", 5, None), ("B", 3, None), ("H3", None, None), ("I2", None, 5)],
)
def test_forcing_table_matches_per_cover_builder_on_cambrian_quotients(family, rank, bond):
    for lattice in with_quotients(family, rank, bond)[1:]:
        assert_table_matches_per_cover_builder(lattice)


def test_forcing_table_matches_per_cover_builder_on_lattices_built_from_covers():
    singleton = FiniteLattice.from_covers(("0",), [])
    for lattice in [singleton, m3(), pentagon(), *flip_and_cluster_lattices()]:
        assert_table_matches_per_cover_builder(lattice)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, (1 << size) - 1), max_size=8))
))
def test_forcing_table_matches_per_cover_builder_on_random_lattices(family):
    assert_table_matches_per_cover_builder(subset_lattice(*family))


def test_forcing_table_refuses_the_edge_the_per_cover_builder_refuses():
    """With one join-irreducible left out of the roots (as ``drop_a_root``
    forges it, on a copy), both builders name the same first edge without
    a label, for every join-irreducible of S3, S4, B3 and I2(5), and for
    the poset 0 < a, b < c, d < 1, which is no lattice."""
    weak_orders = [hexagon()] + [
        get_system(*key).weak_order_lattice() for key in [("A", 3), ("B", 3), ("I2", None, 5)]
    ]
    forged = []
    for weak_order in weak_orders:
        for g in weak_order.join_irreducibles:
            copy = FiniteLattice.from_covers(weak_order.elements, weak_order.covers)
            copy.join_irreducibles = [h for h in copy.join_irreducibles if h != g]
            forged.append(copy)
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    forged.append(FiniteLattice.from_covers(tuple("0abcd1"), covers, validate=False))
    for lattice in forged:
        with pytest.raises(AssertionError) as built:
            PolygonForcing.of(lattice)
        with pytest.raises(AssertionError) as oracle:
            per_cover_table(lattice)
        assert str(built.value) == str(oracle.value)
        assert str(built.value).startswith("edge ")


def test_forcing_table_names_the_first_unlabelled_edge_in_edge_order():
    """0 < a, b, g; c covers a, b, g; d covers b, g; e covers d; 1 covers
    c and e, with e left out of the roots (as ``drop_a_root`` forges it).
    Then c -> 1 and d -> e, and no other cover, have no label.  The walk
    by upper end meets d -> e, edge 9, in row e before c -> 1, edge 8, in
    row 1; the refusal names edge 8, as the per-cover builder does."""
    covers = [
        (0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (5, 6), (4, 7), (6, 7)
    ]
    poset = FiniteLattice.from_covers(tuple("0abgcde1"), covers, validate=False)
    assert poset.elements == tuple("0abgcde1")
    e = poset.index["e"]
    assert poset.join_irreducibles == [1, 2, 3, e]
    poset.join_irreducibles = [1, 2, 3]
    down = poset.down
    unlabelled = [
        k
        for k, (x, y) in enumerate(poset.covers)
        if not any(down[y] >> g & 1 and not down[x] >> g & 1 for g in poset.join_irreducibles)
    ]
    assert [poset.covers[k] for k in unlabelled] == [(4, 7), (5, 6)]
    assert unlabelled == [8, 9]
    with pytest.raises(AssertionError) as built:
        PolygonForcing.of(poset)
    with pytest.raises(AssertionError) as oracle:
        per_cover_table(poset)
    assert str(built.value) == str(oracle.value) == "edge 8 has no label"


@pytest.mark.parametrize("family, rank, bond", WEAK_ORDERS)
def test_closure_hit_matches_per_cover_labels_on_orientations(family, rank, bond):
    """On every orientation, the labels ``closure`` reads off ``below``
    hit what the per-cover builder's stored labels hit: each cover of
    [a ^ b, a] and [a ^ b, b] for each generating pair a, b, closed under
    the oracle's forcing rows."""
    system = get_system(family, rank, bond)
    lattice = system.weak_order_lattice()
    _, labels, reach, _ = per_cover_table(lattice)
    down = lattice.down
    for orientation in all_orientations(system):
        pairs = [(lattice.index[a], lattice.index[b]) for a, b in generating_pairs(system, orientation)]
        hit = 0
        for a, b in pairs:
            bottom = lattice.meet(a, b)
            for top in {a, b} - {bottom}:
                for (x, y), label in zip(lattice.covers, labels):
                    if down[x] >> bottom & 1 and down[top] >> y & 1:
                        hit |= reach[label]
        assert congruence_closure(lattice, pairs).hit == hit


def relations(max_size=40):
    """Random relations as rows of target bits: sparse, dense, cyclic."""
    return st.integers(1, max_size).flatmap(lambda size: st.one_of(
        st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size),
        st.lists(
            st.sets(st.integers(0, size - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits)),
            min_size=size, max_size=size,
        ),
    ))


@settings(max_examples=200, deadline=None)
@given(relations())
def test_sparse_closure_matches_warshall_on_random_relations(rows):
    assert _transitive(rows) == warshall(rows)


@pytest.mark.parametrize("size", [1, 2, 17, 64])
def test_sparse_closure_matches_warshall_on_chains_and_cycles(size):
    """Each row reaching its successor only, each row reaching its
    predecessor only, the cycle through all, and every row full."""
    forward = [1 << j + 1 if j + 1 < size else 0 for j in range(size)]
    backward = [1 << j - 1 if j else 0 for j in range(size)]
    cycle = [1 << (j + 1) % size for j in range(size)]
    full = [(1 << size) - 1] * size
    for rows in (forward, backward, cycle, full):
        assert _transitive(rows) == warshall(rows)
    assert _transitive(cycle) == full


def eager_congruence(lattice, forcing, hit):
    """The congruence joining the covers with a hit label, built at once."""
    class_of = list(range(lattice.n))
    for (x, y), label in zip(lattice.covers, cover_labels(lattice, forcing)):
        if hit >> label & 1:
            class_of[y] = class_of[x]
    return LatticeCongruence(lattice, class_of)


@pytest.mark.parametrize("family, rank, bond", WEAK_ORDERS)
def test_congruence_from_labels_matches_eager_partition(family, rank, bond):
    system = get_system(family, rank, bond)
    lattice = system.weak_order_lattice()
    forcing = lattice.polygon_forcing()
    for orientation in all_orientations(system):
        lazy = cambrian_congruence(system, orientation)
        eager = eager_congruence(lattice, forcing, lazy.hit)
        assert lazy.forcing is forcing
        assert partition_fields(lazy) == partition_fields(eager)
        assert lazy.key() == eager.key()
        assert lazy.verify() == eager.verify() == (True, None)
        contracted = 0
        for label, heads in enumerate(forcing.heads):
            if lazy.hit >> label & 1:
                contracted |= heads
        bottoms = [x for x in range(lattice.n) if not contracted >> x & 1]
        assert bottoms == [members[0] for members in lazy.classes]


@pytest.mark.parametrize("family, rank, bond", WEAK_ORDERS)
def test_class_count_from_heads_matches_union_find(family, rank, bond):
    """The class count read off the head masks is the number of classes the
    union-find oracle finds, on every Cambrian congruence of the weak order
    and on every contraction of a join-irreducible in each Cambrian
    quotient, which builds its own table."""
    system = get_system(family, rank, bond)
    lattice = system.weak_order_lattice()
    for orientation in all_orientations(system):
        pairs = [
            (lattice.index[a], lattice.index[b])
            for a, b in generating_pairs(system, orientation)
        ]
        cong = congruence_closure(lattice, pairs)
        assert cong.hit is not None
        assert cong.num_classes == len(union_find_closure(lattice, pairs).classes)
        quotient = quotient_lattice(cong)
        assert quotient.polygon_forcing() is not None
        for g in quotient.join_irreducibles:
            pair = [(quotient.lower[g][0], g)]
            fast = congruence_closure(quotient, pair)
            assert fast.hit is not None
            assert fast.num_classes == len(union_find_closure(quotient, pair).classes)


def test_class_count_does_not_derive_the_partition():
    system = get_system("A", 5)
    cong = cambrian_congruence(system, all_orientations(system)[0])
    assert cong.num_classes == system.catalan_number() == 132
    assert not {"class_of", "classes", "down_projection", "up_projection"} & set(vars(cong))
    assert len(cong.classes) == 132
    assert "class_of" in vars(cong)


# -- quotient covers and validation against the quadratic oracles ----------


def ji_loop_has_all_joins(lattice):
    """Whether x v j is a least upper bound for every x and every
    join-irreducible j, which gives every join by induction."""
    up = lattice.up
    for j in lattice.join_irreducibles:
        for i in range(lattice.n):
            m = up[i] & up[j]
            c = m & -m
            if m & ~up[c.bit_length() - 1]:
                return False
    return True


def scanned_quotient_covers(cong):
    """Covers of the order on the class bottoms, by testing every pair of
    bottoms for an element strictly between them."""
    lattice = cong.lattice
    up, down = lattice.up, lattice.down
    bottoms = sorted(set(cong.down_projection))
    mask = sum(1 << b for b in bottoms)
    covers = set()
    for k, a in enumerate(bottoms):
        above = up[a] & mask
        for b in bottoms[k + 1 :]:
            if above >> b & 1 and above & down[b] == (1 << a) | (1 << b):
                covers.add((lattice.elements[a], lattice.elements[b]))
    return covers


def assert_quotient_matches_oracles(cong):
    q = quotient_lattice(cong)
    assert ji_loop_has_all_joins(q)
    assert {(q.elements[a], q.elements[b]) for a, b in q.covers} == (
        scanned_quotient_covers(cong)
    )


@pytest.mark.parametrize("family, rank, bond", ORACLE_SYSTEMS + [("A", 6, None)])
def test_quotient_matches_oracles_on_orientations(family, rank, bond):
    system = get_system(family, rank, bond)
    lattice = system.weak_order_lattice()
    assert ji_loop_has_all_joins(lattice)
    for orientation in all_orientations(system):
        pairs = [
            (lattice.index[a], lattice.index[b])
            for a, b in generating_pairs(system, orientation)
        ]
        assert_quotient_matches_oracles(congruence_closure(lattice, pairs))


@pytest.mark.parametrize("family, rank, bond", ORACLE_SYSTEMS)
def test_quotient_matches_oracles_on_contractions(family, rank, bond):
    lattice = get_system(family, rank, bond).weak_order_lattice()
    for g in lattice.join_irreducibles:
        assert_quotient_matches_oracles(cg(lattice, g))


def m3():
    elements = ("0", "a", "b", "c", "1")
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return FiniteLattice.from_covers(elements, covers)


def test_m3_is_not_polygonal_and_still_closes():
    lattice = m3()
    assert lattice.polygon_forcing() is not None
    idx = lattice.index
    pairs = [(idx["0"], idx["a"])]
    # M3 is simple: contracting any edge collapses it.
    assert congruence_closure(lattice, pairs).num_classes == 1
    assert_same_as_oracle(lattice, pairs)
    assert congruence_closure(lattice, []).num_classes == lattice.n
    assert ji_loop_has_all_joins(lattice)
    for pairs in ([], [(idx["0"], idx["a"])], [(idx["b"], idx["c"])]):
        assert_quotient_matches_oracles(union_find_closure(lattice, pairs))


# -- join-irreducible labels of covers ---------------------------------------


def label_of(lattice, x, y):
    """The lowest index at or below y that is not at or below x."""
    return min(i for i in range(lattice.n) if lattice.le(i, y) and not lattice.le(i, x))


def first_cambrian_quotient(family, rank):
    system = get_system(family, rank)
    return cambrian_lattice(system, next(iter(all_orientations(system)))).quotient


def group_id(family, rank, bond):
    """The case id of a weak order: S4, B3, H3, I2(5)."""
    if family == "A":
        return f"S{rank + 1}"
    return f"I2({bond})" if family == "I2" else f"{family}{rank or ''}"


LABEL_CASES = {
    **{group_id(*key): functools.partial(with_quotients, *key) for key in WEAK_ORDERS},
    "Camb(S4)": lambda: [first_cambrian_quotient("A", 3)],
    "M3": lambda: [m3()],
    "N5": lambda: [pentagon()],
}


@pytest.mark.parametrize("make", LABEL_CASES.values(), ids=LABEL_CASES.keys())
def test_cover_labels_are_join_irreducibles_contracted_with_their_cover(make):
    """Each cover's label is a join-irreducible contracted with it, and
    the labels and head masks read off the forcing table are those of the
    definitions."""
    for lattice in make():
        ji = lattice.join_irreducibles
        labels = {}
        for x, y in lattice.covers:
            m = labels[x, y] = label_of(lattice, x, y)
            assert m in ji
            assert lattice.le(lattice.lower[m][0], x)
            assert lattice.join(x, m) == y
        forcing = lattice.polygon_forcing()
        assert cover_labels(lattice, forcing) == [ji.index(labels[e]) for e in lattice.covers]
        assert forcing.heads == [
            sum(1 << y for y in {y for (_, y), m in labels.items() if m == g}) for g in ji
        ]
        for g in ji:
            class_of = union_find_closure(lattice, [(lattice.lower[g][0], g)]).class_of
            for (x, y), m in labels.items():
                assert (class_of[x] == class_of[y]) == (
                    class_of[m] == class_of[lattice.lower[m][0]]
                )


def per_ji_forcing_arrows(lattice):
    return {
        g: frozenset(
            union_find_closure(
                lattice, [(lattice.lower[g][0], g)]
            ).contracted_join_irreducibles()
        )
        for g in lattice.join_irreducibles
    }


ARROW_SYSTEMS = (
    [("A", 2, None), ("A", 3, None), ("A", 4, None), ("B", 2, None), ("B", 3, None)]
    + [("H3", None, None)]
    + [("I2", None, m) for m in range(3, 9)]
)


@pytest.mark.parametrize(
    "family, rank, bond",
    ARROW_SYSTEMS,
    ids=[f"{f}-{r}" if b is None else f"{f}-{r}-{b}" for f, r, b in ARROW_SYSTEMS],
)
def test_forcing_arrows_match_per_ji_union_find(family, rank, bond):
    for lattice in with_quotients(family, rank, bond):
        assert lattice.polygon_forcing() is not None
        assert forcing_arrows(lattice) == per_ji_forcing_arrows(lattice)


def test_forcing_arrows_fall_back_on_m3():
    """M3, which is not polygonal, reads its arrows off its table too."""
    lattice = m3()
    assert lattice.polygon_forcing() is not None
    arrows = forcing_arrows(lattice)
    assert arrows == per_ji_forcing_arrows(lattice)
    # M3 is simple: each atom forces every atom.
    assert all(forced == set(lattice.atoms()) for forced in arrows.values())


# -- crosscut Möbius function against the recursive definition --------------


def assert_mobius_matches_recursion(lattice):
    """mu(i, i) = 1 and mu(i, j) = -sum of mu(i, z) over i <= z < j."""
    mu = {}
    for i in range(lattice.n):
        # An interval lists its elements along a linear extension.
        for j in lattice.interval(i, lattice.top):
            below = (mu[i, z] for z in lattice.interval(i, j) if z != j)
            mu[i, j] = 1 if i == j else -sum(below)
    for i, j in itertools.product(range(lattice.n), repeat=2):
        assert lattice.mobius(i, j) == mu.get((i, j), 0), (i, j)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3)])
def test_crosscut_mobius_matches_recursion_on_cambrian_quotients(family, rank):
    system = get_system(family, rank)
    for orientation in all_orientations(system):
        assert_mobius_matches_recursion(cambrian_lattice(system, orientation).quotient)


def test_crosscut_mobius_matches_recursion_on_small_lattices():
    for lattice in (m3(), pentagon(), hexagon()):
        assert_mobius_matches_recursion(lattice)


# -- join-irreducible validation against the all-pairs check -----------------


def has_all_joins(lattice):
    """The all-pairs check: every pair has a least upper bound."""
    up = lattice.up
    for i, j in itertools.combinations(range(lattice.n), 2):
        m = up[i] & up[j]
        c = m & -m
        if m & ~up[c.bit_length() - 1]:
            return False
    return True


def bounded_poset_covers(k, related):
    """Covers of the order on 0..k+1 with bottom 0, top k+1, and i < j
    among 1..k when (i, j) is in ``related`` or implied by it."""
    n = k + 2
    less = set(related) | {(0, i) for i in range(1, n)}
    less |= {(i, n - 1) for i in range(1, n - 1)}
    above = [0] * n
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if (i, j) in less:
                above[i] |= (1 << j) | above[j]
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if above[i] >> j & 1
        and not any(above[i] >> m & 1 and above[m] >> j & 1 for m in range(n))
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.booleans(),
                min_size=k * (k - 1) // 2,
                max_size=k * (k - 1) // 2,
            ),
        )
    )
)
def test_ji_validation_agrees_with_all_pairs(drawn):
    k, flags = drawn
    pairs = itertools.combinations(range(1, k + 1), 2)
    related = [pair for pair, flag in zip(pairs, flags) if flag]
    covers = bounded_poset_covers(k, related)
    elements = tuple(range(k + 2))
    unchecked = FiniteLattice.from_covers(elements, covers, validate=False)
    assert ji_loop_has_all_joins(unchecked) == has_all_joins(unchecked)
    if has_all_joins(unchecked):
        FiniteLattice.from_covers(elements, covers)
    else:
        with pytest.raises(ValueError, match="greatest lower bound"):
            FiniteLattice.from_covers(elements, covers)


def two_family_validate(lattice):
    """The validation that read both mask families: an edge a -> b is a
    cover when up(a) & down(b) is {a, b}, and a v b, the lowest set bit of
    up(a) & up(b), must be a least upper bound for any two upper covers
    a, b of one element.  Returns the ValueError message, or None."""
    up, down = eager_up(lattice), lattice.down
    for a, b in lattice.covers:
        if up[a] & down[b] != (1 << a) | (1 << b):
            return f"edge {a} -> {b} is not a cover"
    for ux in lattice.upper:
        for a, b in itertools.combinations(ux, 2):
            m = up[a] & up[b]
            c = m & -m
            if m & ~up[c.bit_length() - 1]:
                return f"covers {a}, {b} have no least upper bound"
    return None


@st.composite
def bounded_posets_with_extra_edges(draw):
    """Covers of a drawn bounded poset, as ``bounded_poset_covers`` gives
    them, plus some drawn comparable pairs that are not covers."""
    k = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    related = [pair for pair in pairs if draw(st.booleans())]
    covers = bounded_poset_covers(k, related)
    unchecked = FiniteLattice.from_covers(tuple(range(k + 2)), covers, validate=False)
    position = unchecked.index
    transitive = [
        (i, j)
        for i, j in itertools.combinations(range(k + 2), 2)
        if unchecked.le(position[i], position[j]) and (i, j) not in covers
    ]
    extra = draw(st.lists(st.sampled_from(transitive), max_size=2, unique=True)) if transitive else []
    return k, covers + extra


def assert_validation_agrees_with_two_family_oracle(k, covers):
    elements = tuple(range(k + 2))
    unchecked = FiniteLattice.from_covers(elements, covers, validate=False)
    reason = two_family_validate(unchecked)
    if reason is None:
        FiniteLattice.from_covers(elements, covers)
    elif reason.endswith("not a cover"):
        # Both name the first non-cover in the sorted edge list.
        with pytest.raises(ValueError, match=f"^{reason}$"):
            FiniteLattice.from_covers(elements, covers)
    else:
        with pytest.raises(ValueError, match="greatest lower bound"):
            FiniteLattice.from_covers(elements, covers)


@settings(max_examples=300, deadline=None)
@given(bounded_posets_with_extra_edges())
def test_down_set_validation_agrees_with_two_family_oracle(drawn):
    assert_validation_agrees_with_two_family_oracle(*drawn)


def test_down_set_validation_agrees_with_two_family_oracle_on_every_small_poset():
    """Every bounded poset with at most 5 elements between its bottom and
    top, up to isomorphism (each has a labelling along 1 < ... < k)."""
    for k in range(1, 6):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for flags in itertools.product((False, True), repeat=len(pairs)):
            related = list(itertools.compress(pairs, flags))
            assert_validation_agrees_with_two_family_oracle(k, bounded_poset_covers(k, related))


def test_validation_rejects_bounded_bowtie_and_transitive_edge():
    elements = ("0", "a", "b", "c", "d", "1")
    bowtie = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(ValueError, match="greatest lower bound"):
        FiniteLattice.from_covers(elements, bowtie)
    chain = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="not a cover"):
        FiniteLattice.from_covers(("0", "1", "2"), chain)


# -- up-sets derived on the first read ----------------------------------------


def eager_up(lattice):
    """The up-set of each element, read off the down-sets: j is above i
    when i is in down(j)."""
    down = lattice.down
    return [
        sum(1 << j for j in range(lattice.n) if down[j] >> i & 1)
        for i in range(lattice.n)
    ]


UP_SYSTEMS = (
    [("A", rank, None) for rank in range(2, 6)]
    + [("B", rank, None) for rank in range(2, 5)]
    + [("I2", None, m) for m in range(3, 9)]
    + [("H3", None, None)]
)


@pytest.mark.parametrize("family, rank, bond", UP_SYSTEMS)
def test_derived_up_sets_match_the_down_sets(family, rank, bond):
    for lattice in with_quotients(family, rank, bond):
        assert lattice.up == eager_up(lattice)


def test_catalan_suite_reads_no_up_set_of_a_weak_order(monkeypatch):
    """Building, validating and closing a weak order reads only down-sets,
    so the up-sets are never derived, and walks the rows, so the list of
    cover pairs is never made."""
    systems = {}
    monkeypatch.setattr(coxeter, "_SYSTEMS", systems)
    assert run_suite("catalan", family="A", max_rank=7)["passed"]
    assert [system.order for system in systems.values()] == [6, 24, 120, 720, 5040]
    for system in systems.values():
        stored = vars(system.weak_order_lattice())
        assert "up" not in stored and "covers" not in stored
