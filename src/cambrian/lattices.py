"""Finite lattices, congruences, quotients and forcing.

A lattice stores its Hasse diagram once, as two families of rows:
``lower[y]`` lists the lower covers of y and ``upper[x]`` the upper
covers of x, each row in increasing index order.  The covers are
numbered row by row, x -> upper[x][k] in turn, so the edges run in
sorted pair order; ``FiniteLattice.edges`` walks them without building
a list, and the list of pairs, ``covers``, is made only on a read
(output and tests).  Elements are indexed along an internal linear
extension; each carries its down-set as a Python integer bitmask, and
the up-sets, the same masks read the other way, are derived from the
upper covers on the first read (a weak order closed under Cambrian
congruences never reads them).  With indices respecting the order, the
meet of x and y is the highest set bit of down(x) & down(y) and the
join is the lowest set bit of up(x) & up(y).  Construction reads only
the down-sets: every edge must be a cover, and a ^ b must be a greatest
lower bound for any two lower covers a, b of one element, which is
enough for all meets and so for all joins (see
``FiniteLattice._validate``).

A congruence is determined by the covers it contracts.  Each cover
x -> y is labelled by a join-irreducible, the least element of down(y)
outside down(x), and a congruence contracts a cover exactly when it
contracts its label (see ``PolygonForcing``).  One forcing table serves
every lattice, a weak order, a quotient or one built by hand
(``PolygonForcing.of``): it keeps no per-edge data, only one bitmask
of join-irreducibles per element, from which each cover's label is one
XOR and a lowest bit, and, for each label, the bitmask of the labels it
forces, read off the arrow relations between join- and
meet-irreducibles with the same bitmasks and closed transitively
(Freese, Jezek and Nation, Free lattices, AMS 1995, ch. II).  A closure
is then an OR of the masks of its seed labels.  The class bottoms are
the elements with no contracted lower cover, and the table keeps, for
each label, the mask of the elements with a lower cover of that label
(its heads), so the class bottoms are the elements outside the OR of
the contracted labels' heads.  The class count is their number, and
the classes, read only when needed, name each element by the greatest
class bottom below it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import and_, or_
from typing import Optional, Sequence


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        out.append(_lsb(mask))
        mask &= mask - 1
    return out


class FiniteLattice:
    """A finite lattice given by its Hasse diagram, stored once: ``lower``
    and ``upper`` hold each element's lower and upper covers as rows in
    increasing index order, and ``down`` its down-set mask.  The edges are
    the covers x -> upper[x][k] in row order, which is sorted pair order;
    ``edges()`` walks them and ``covers`` lists them on the first read."""

    def __init__(self, elements, down, lower, upper):
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.down = down
        self.lower = lower
        self.upper = upper
        self.n = len(elements)
        self.bottom = lower.index([])
        self.top = upper.index([])
        # A weak order's group-wide tables, dropped with the lattice: polygon
        # walks by signature type (``polygon_a.weak_order_walk``), and the
        # fan checks' chamber table under the function that builds it
        # (``fans._chamber_table``).
        self.tables: dict = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_covers(cls, elements: Sequence, covers, validate: bool = True):
        """Build from elements and cover pairs (as indices into elements),
        any iterable of pairs, read once.

        Elements are re-ordered internally along a linear extension: Kahn's
        algorithm over each element's successors in input order.  Raises
        ValueError, naming the pair, on an index outside 0..n-1 or a pair
        given twice, and on a cycle or more than one minimal or maximal
        element.
        """
        n = len(elements)
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        # An index past the end raises IndexError; a negative one would be
        # read from the end, so it is sent to the same handler.
        try:
            for a, b in covers:
                if a < 0 or b < 0:
                    raise IndexError
                succ[a].append(b)
                indeg[b] += 1
        except IndexError:
            raise ValueError(f"cover ({a}, {b}) is not a pair of indices 0..{n - 1}") from None
        order = [i for i in range(n) if indeg[i] == 0]
        for i in order:  # the list grows as it is read: a FIFO queue
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        new_pos = [0] * n
        for pos, old in enumerate(order):
            new_pos[old] = pos
        # Each successor row becomes its element's upper row in place.  Index
        # order is a linear extension, so lower[x] and down[x] are complete
        # when x is reached; a pair given twice is two equal neighbours in
        # the sorted row.
        upper = [succ[old] for old in order]
        lower = [[] for _ in range(n)]
        down = [0] * n
        for x, row in enumerate(upper):
            mask = 1 << x
            for a in lower[x]:
                mask |= down[a]
            down[x] = mask
            row[:] = map(new_pos.__getitem__, row)
            row.sort()
            last = -1
            for y in row:
                if y == last:
                    raise ValueError(f"cover ({order[x]}, {order[y]}) is given more than once")
                last = y
                lower[y].append(x)
        bottoms, tops = lower.count([]), upper.count([])
        if bottoms != 1 or tops != 1:
            raise ValueError(f"not bounded: {bottoms} minimal and {tops} maximal elements")
        lattice = cls(tuple(map(elements.__getitem__, order)), down, lower, upper)
        if validate:
            lattice._validate()
        return lattice

    def _validate(self) -> None:
        """Raise ValueError unless the covers are covers and meets exist,
        reading the down-sets only.

        An edge a -> y is a cover unless a lies in down(b) for another
        lower cover b of y: anything strictly between a and y lies below
        the last edge of a chain up to y.  Only meets a ^ b of two lower
        covers a, b of one element are checked.  The highest set bit c of
        down(a) & down(b) is a lower bound of both, so down(c) lies in the
        AND, and c is their greatest lower bound exactly when down(c) is
        the whole AND.  A bounded poset in which every such pair has a
        greatest lower bound is a lattice (the dual of Bjorner, Edelman
        and Ziegler, Hyperplane arrangements with a lattice of regions,
        DCG 5 (1990), Lemma 2.1).

        One AND per pair serves both checks: the AND is down(a) or down(b)
        exactly when one of the two lies below the other.  A refusal names
        the first non-cover in edge order (``_non_cover``) if there is one,
        and otherwise the first pair, row by row, without a greatest lower
        bound, which is the pair the pass stopped at.
        """
        down = self.down
        for ly in self.lower:
            for i, a in enumerate(ly):
                da = down[a]
                for b in ly[i + 1 :]:
                    db = down[b]
                    m = da & db
                    if m == da or m == db or m != down[m.bit_length() - 1]:
                        raise self._non_cover() or ValueError(
                            f"covers {a}, {b} have no greatest lower bound"
                        )

    def _non_cover(self) -> Optional[ValueError]:
        """The refusal of the first edge, in edge order, that is not a
        cover, or None when every edge is one."""
        down, lower = self.down, self.lower
        for a, ua in enumerate(self.upper):
            for y in ua:
                for b in lower[y]:
                    if down[b] >> a & 1 and b != a:
                        return ValueError(f"edge {a} -> {y} is not a cover")
        return None

    def edges(self):
        """The covers (x, y) in edge order, x -> upper[x][k] row by row,
        walked off the upper rows without building a list."""
        return ((x, y) for x, row in enumerate(self.upper) for y in row)

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """The cover pairs in edge order, which is sorted order, listed on
        the first read."""
        return list(self.edges())

    @cached_property
    def up(self) -> list[int]:
        """The up-set masks, derived on the first read: filled top-down
        from the upper covers, as the down-sets are filled bottom-up."""
        upper = self.upper
        up = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            mask = 1 << i
            for b in upper[i]:
                mask |= up[b]
            up[i] = mask
        return up

    # -- basic queries -------------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    def join(self, i: int, j: int) -> int:
        up = self.up
        return _lsb(up[i] & up[j])

    def meet(self, i: int, j: int) -> int:
        return (self.down[i] & self.down[j]).bit_length() - 1

    def interval(self, i: int, j: int) -> list[int]:
        return _members(self.up[i] & self.down[j])

    @cached_property
    def join_irreducibles(self) -> list[int]:
        return [i for i in range(self.n) if len(self.lower[i]) == 1]

    @cached_property
    def meet_irreducibles(self) -> list[int]:
        return [i for i in range(self.n) if len(self.upper[i]) == 1]

    def polygon_forcing(self) -> "PolygonForcing":
        """The forcing table (``PolygonForcing.of``), built on the first read."""
        return self._forcing

    @cached_property
    def _forcing(self) -> "PolygonForcing":
        return PolygonForcing.of(self)

    def atoms(self) -> list[int]:
        return list(self.upper[self.bottom])

    def dual(self) -> "FiniteLattice":
        last = self.n - 1
        rev = ((last - b, last - a) for a, b in self.edges())
        return FiniteLattice.from_covers(
            tuple(reversed(self.elements)), rev, validate=False
        )

    # -- Möbius function and atomicity --------------------------------------

    def mobius(self, i: int, j: int) -> int:
        """mu(i, j) by Rota's crosscut theorem (Bjorner, Topological
        methods, Handbook of Combinatorics, 1995, section 10): the sum of
        (-1)^|S| over the sets S of atoms of [i, j] whose join with i is j;
        0 unless i <= j.  The atoms are upper covers of i, at most rank-many
        in a weak order and in its quotients."""
        up, dj = self.up, self.down[j]
        terms = [(up[i], 1)]
        for a in self.upper[i]:
            if dj >> a & 1:
                terms += [(mask & up[a], -sign) for mask, sign in terms]
        return sum(sign for mask, sign in terms if _lsb(mask) == j)

    def is_atomic_interval(self, i: int, j: int) -> bool:
        """Whether j is the join of the atoms of the interval [i, j]."""
        up, dj = self.up, self.down[j]
        mask = up[i]
        for a in self.upper[i]:
            if dj >> a & 1:
                mask &= up[a]
        return _lsb(mask) == j

    # -- sublattice test -----------------------------------------------------

    def is_sublattice(self, subset: Sequence[int]):
        """Check closure of a subset under join and meet.

        Returns (True, None) or (False, witness) where witness is a tuple
        (x, y, op, result) of indices with the offending operation.
        """
        chosen = set(subset)
        items = sorted(chosen)
        for a_pos, i in enumerate(items):
            for j in items[a_pos + 1 :]:
                v = self.join(i, j)
                if v not in chosen:
                    return False, (i, j, "join", v)
                m = self.meet(i, j)
                if m not in chosen:
                    return False, (i, j, "meet", m)
        return True, None


def built_lattice(elements: Sequence, covers) -> FiniteLattice:
    """``FiniteLattice.from_covers`` for covers the program derived, whose
    ValueError is then an internal error: raised again as AssertionError."""
    try:
        return FiniteLattice.from_covers(elements, covers)
    except ValueError as exc:
        raise AssertionError(f"built a poset that is not a lattice: {exc}") from exc


class LatticeCongruence:
    """A lattice congruence, given either by ``class_of``, a class name for
    each element, or, on a lattice with a forcing table, by ``hit``, the
    bitmask of the labels of ``forcing`` (a ``PolygonForcing`` table) that
    it contracts.  The rest is derived on the first read, in one chain:
    ``class_of`` (from ``hit`` unless given) numbers the classes by their
    least elements, ``classes`` lists their members, and the projections
    map each element to the first or last member of its class.  With
    ``hit``, both ``class_of`` and ``num_classes`` start from the class
    bottoms (``_bottoms``), and ``num_classes`` counts them without
    deriving the classes.
    """

    def __init__(
        self,
        lattice: FiniteLattice,
        class_of: Optional[list[int]] = None,
        forcing: Optional["PolygonForcing"] = None,
        hit: Optional[int] = None,
    ):
        self.lattice = lattice
        self.forcing = forcing
        self.hit = hit
        if class_of is not None:
            self.class_of = _numbered(class_of)

    def _bottoms(self) -> int:
        """With ``hit``, the bitmask of the class bottoms.  An element
        other than its class bottom has a lower cover in its class, so an
        edge with a hit label into it, and is in the OR of the hit
        labels' ``heads`` masks; a class bottom has neither."""
        hit = self.hit
        contracted = bytes(hit >> j & 1 for j in range(len(self.forcing.reach)))
        heads = reduce(or_, compress(self.forcing.heads, contracted), 0)
        return ((1 << self.lattice.n) - 1) ^ heads

    @cached_property
    def class_of(self) -> list[int]:
        """Each element x is named by its class bottom, the highest set
        bit of down(x) & ``_bottoms()``: the down projection preserves
        order, so every class bottom at or below x is at or below x's
        own, which has the highest index among them."""
        bottoms = self._bottoms()
        return _numbered(map(int.bit_length, map(bottoms.__and__, self.lattice.down)))

    @cached_property
    def num_classes(self) -> int:
        if self.hit is None:
            return len(self.classes)
        return self._bottoms().bit_count()

    @cached_property
    def cover_image(self) -> set[tuple[int, int]]:
        """The class pairs of the covers whose ends lie in different
        classes: for a congruence, the quotient's covers."""
        c = self.class_of
        return {(cx, c[y]) for cx, row in zip(c, self.lattice.upper) for y in row if cx != c[y]}

    @cached_property
    def classes(self) -> list[list[int]]:
        classes = [[] for _ in range(max(self.class_of) + 1)]
        for i, c in enumerate(self.class_of):
            classes[c].append(i)
        return classes

    # Index order is a linear extension, so in an interval class the first
    # element is the class bottom and the last the class top.
    @cached_property
    def down_projection(self) -> list[int]:
        return [self.classes[c][0] for c in self.class_of]

    @cached_property
    def up_projection(self) -> list[int]:
        return [self.classes[c][-1] for c in self.class_of]

    def key(self) -> frozenset:
        return frozenset(frozenset(cls) for cls in self.classes)

    def contracted_join_irreducibles(self) -> list[int]:
        lattice = self.lattice
        return [
            g
            for g in lattice.join_irreducibles
            if self.class_of[g] == self.class_of[lattice.lower[g][0]]
        ]

    def verify(self):
        """Confirm the order-congruence conditions; returns (ok, reason)."""
        lattice = self.lattice
        up, down = lattice.up, lattice.down
        for members in self.classes:
            bottom, top = members[0], members[-1]
            mask = up[bottom] & down[top]
            cls_mask = 0
            for i in members:
                if not (lattice.le(bottom, i) and lattice.le(i, top)):
                    return False, f"class of {bottom} is not an interval at {i}"
                cls_mask |= 1 << i
            if mask != cls_mask:
                return False, f"class [{bottom}, {top}] is not a full interval"
        for a, b in lattice.edges():
            if not lattice.le(
                self.down_projection[a], self.down_projection[b]
            ):
                return False, f"down projection not order preserving on {a} -> {b}"
            if not lattice.le(self.up_projection[a], self.up_projection[b]):
                return False, f"up projection not order preserving on {a} -> {b}"
        return True, None


def _numbered(class_of) -> list[int]:
    """Class names renumbered 0, 1, ... in order of first occurrence."""
    number: dict[int, int] = {}
    return [number.setdefault(c, len(number)) for c in class_of]


def _transitive(reach: list[int]) -> list[int]:
    """Close the rows of any relation transitively: row j holds bit k when
    j relates to k (label forcing, a digraph's arcs, inversions), and each
    row also gets its own bit.  Sparse: row j ORs in the rows of the bits
    it holds, then those of the bits that brought in, until no new bit
    comes, so each bit of the closed row is read once for j.  Every row
    read lies between its direct row and its closure, so row j ends at
    its closure whatever order the rows are closed in, cycles included."""
    reach = [row | 1 << j for j, row in enumerate(reach)]
    for j, row in enumerate(reach):
        fresh = row
        while fresh:
            grown = reduce(or_, map(reach.__getitem__, _members(fresh)), row)
            fresh, row = grown & ~row, grown
        reach[j] = row
    return reach


class PolygonForcing:
    """Congruence forcing of any finite lattice, on join-irreducible labels
    (the name is from the polygons of the weak order, which generate it
    there).

    ``below[x]`` has bit k for the k-th join-irreducible of
    ``lattice.join_irreducibles`` at or below x.  The label of a cover
    x -> y is m, the lowest index in down(y) outside down(x), named by its
    ordinal k, the lowest bit of below[y] ^ below[x]; no label is stored.
    ``reach[j]`` is the bitmask of the labels that contracting label j
    forces, j included.  ``heads[j]`` is the bitmask of the elements with
    a lower cover labelled j.

    The elements of down(y) outside down(x) form an up-set of [0, y], so
    everything strictly below m is below x: m is join-irreducible with
    m_* <= x and x v m = y.  If m ~ m_* then x = x v m_* ~ x v m = y, and if x ~ y
    then m = m ^ y ~ m ^ x = m_*: a congruence contracts a cover exactly
    when it contracts the cover's label (Freese, Jezek and Nation, Free
    lattices, AMS 1995).  So the contracted covers are a union of label
    classes, and the least forcing-closed set of covers holding some seed
    covers is the set of covers whose labels ``reach`` from a seed label.
    A class bottom is an element none of whose lower covers is contracted,
    so the elements outside the heads of the contracted labels.
    """

    __slots__ = ("below", "reach", "heads")

    def __init__(self, below: list[int], reach: list[int], heads: list[int]):
        self.below = below
        self.reach = reach
        self.heads = heads

    @classmethod
    def of(cls, lattice: FiniteLattice) -> "PolygonForcing":
        """The table of ``lattice``, read off its irreducibles in one walk
        of the lower rows and a few passes over whole rows.

        ``below`` starts with each join-irreducible's own bit, and the walk
        ORs each row's lower covers into it in index order, a linear
        extension.  The least element of down(y) outside down(x) is
        join-irreducible, so once below[y] is complete, each lower cover a
        of y labels a -> y with the lowest bit of below[y] ^ below[a], and y
        is set in that label's row of heads, a bytearray with bit y in byte
        y >> 3, made into an int once.  Raises AssertionError naming the
        first edge, in edge order, whose ends have the same
        join-irreducibles below them, which no lattice has.

        Contracting label k forces label j where a meet-irreducible m,
        with upper cover m*, has k, j not <= m, k_* <= m and j <= m*: if
        k ~ k_*, then m* <= k v m ~ k_* v m = m, so j = j ^ m* ~ j ^ m < j.
        These forcings, closed transitively (``_transitive``), are all of
        them (Freese, Jezek and Nation, Free lattices, AMS 1995, ch. II).
        The rows below[m] are transposed into one column per
        join-irreducible, the bitmask of the meet-irreducibles above it,
        so the m for label k are one AND of columns: above every
        join-irreducible at or below k_*, and not above k.
        """
        ji, lower, upper = lattice.join_irreducibles, lattice.lower, lattice.upper
        below = [0] * lattice.n
        for k, g in enumerate(ji):
            below[g] = 1 << k
        # One row more than labels: a cover without a label, diff 0, has
        # "label" -1 and lands in the last row.
        heads = [bytearray((lattice.n + 7) >> 3) for _ in range(len(ji) + 1)]
        for y, ly in enumerate(lower):
            mask = below[y]
            for a in ly:
                mask |= below[a]
            below[y] = mask
            byte, bit = y >> 3, 1 << (y & 7)
            for a in ly:
                diff = mask ^ below[a]
                heads[(diff & -diff).bit_length() - 1][byte] |= bit
        if any(heads.pop()):
            edge = next(e for e, (x, y) in enumerate(lattice.edges()) if below[x] == below[y])
            raise AssertionError(f"edge {edge} has no label")
        # In place, so that each packed row is freed once its int is made.
        for k, row in enumerate(heads):
            heads[k] = int.from_bytes(row, "little")
        # Column k has bit i where the k-th join-irreducible is below the
        # i-th meet-irreducible: the binary strings of below[m], last m
        # first and each read from bit 0, zipped.
        mis = lattice.meet_irreducibles
        width = f"0{len(ji)}b"
        cols = [
            int("".join(col), 2)
            for col in zip(*(format(below[m], width)[::-1] for m in reversed(mis)))
        ]
        forced = [below[upper[m][0]] & ~below[m] for m in mis]
        everything = (1 << len(mis)) - 1
        reach = []
        for k, g in enumerate(ji):
            columns = map(cols.__getitem__, _members(below[lower[g][0]]))
            meets = reduce(and_, columns, everything ^ cols[k])
            reach.append(reduce(or_, map(forced.__getitem__, _members(meets)), 0))
        return cls(below, _transitive(reach), heads)

    def closure(self, lattice: FiniteLattice, pairs) -> LatticeCongruence:
        """Contract every cover in [a ^ b, a] and [a ^ b, b] for each pair
        a, b and close their labels under forcing; the classes follow from
        the labels, each cover's read off ``below`` as ``of`` reads it.
        The two comparable pairs generate the congruence of a ~ b, and for
        a comparable pair one of them is trivial.  Each interval [c, d] is
        the part of down(d) above c, so no closure derives up-sets."""
        down, upper = lattice.down, lattice.upper
        below, reach = self.below, self.reach
        hit = 0
        for a, b in pairs:
            bottom = lattice.meet(a, b)
            for top in {a, b} - {bottom}:
                inside = [x for x in _members(down[top]) if down[x] >> bottom & 1]
                mask = reduce(or_, map((1).__lshift__, inside), 0)
                for x in inside:
                    bx = below[x]
                    for y in upper[x]:
                        if mask >> y & 1:
                            hit |= reach[_lsb(below[y] ^ bx)]
        return LatticeCongruence(lattice, forcing=self, hit=hit)


def congruence_closure(lattice: FiniteLattice, pairs) -> LatticeCongruence:
    """Smallest lattice congruence identifying each given pair of indices,
    closed over the lattice's forcing table."""
    return lattice.polygon_forcing().closure(lattice, pairs)


def congruence_from_partition(
    lattice: FiniteLattice, blocks
) -> LatticeCongruence:
    """Wrap an explicit partition (of element indices) as a congruence.

    Raises ValueError on an index outside 0..n-1 or in two blocks.
    """
    class_of = [-1] * lattice.n
    for c, block in enumerate(blocks):
        for i in block:
            if not 0 <= i < lattice.n:
                raise ValueError(f"element {i} is not an index 0..{lattice.n - 1}")
            if class_of[i] >= 0:
                raise ValueError(f"element {i} lies in more than one block")
            class_of[i] = c
    if any(c < 0 for c in class_of):
        raise ValueError("partition does not cover the lattice")
    return LatticeCongruence(lattice, class_of)


def quotient_lattice(cong: LatticeCongruence) -> FiniteLattice:
    """Quotient lattice; elements are the class-bottom elements.

    ``cong`` must be a lattice congruence.  Then a cover it does not
    contract maps to a cover of the quotient, and every cover of the
    quotient is such an image, so the covers are ``cong.cover_image``.
    """
    # Classes are numbered by their least index, which is their bottom.
    elements = tuple(cong.lattice.elements[cls[0]] for cls in cong.classes)
    return built_lattice(elements, sorted(cong.cover_image))


def contraction_congruence(lattice: FiniteLattice, ji_index: int) -> LatticeCongruence:
    """Smallest congruence contracting the given join-irreducible."""
    if len(lattice.lower[ji_index]) != 1:
        raise ValueError(f"element {ji_index} is not join-irreducible")
    return congruence_closure(lattice, [(lattice.lower[ji_index][0], ji_index)])


def forcing_arrows(lattice: FiniteLattice) -> dict[int, frozenset[int]]:
    """For each join-irreducible g, the join-irreducibles contracted by Cg(g).

    The cover g_* -> g has label g, so the answer is g's row of label
    forcing.
    """
    ji = lattice.join_irreducibles
    return {
        g: frozenset(h for k, h in enumerate(ji) if row >> k & 1)
        for g, row in zip(ji, lattice.polygon_forcing().reach)
    }


# ---------------------------------------------------------------------------
# Poset isomorphism search (for duality and shape checks on small posets).


# Rounds of neighbour refinement in the isomorphism search's invariants.
_REFINE_ROUNDS = 3


def _refine_signatures(lattice: FiniteLattice):
    n, up, down = lattice.n, lattice.up, lattice.down
    sigs = [
        (
            bin(down[i]).count("1"),
            bin(up[i]).count("1"),
            len(lattice.lower[i]),
            len(lattice.upper[i]),
        )
        for i in range(n)
    ]
    for _ in range(_REFINE_ROUNDS):
        keys = [
            (
                sigs[i],
                tuple(sorted(sigs[j] for j in lattice.lower[i])),
                tuple(sorted(sigs[j] for j in lattice.upper[i])),
            )
            for i in range(n)
        ]
        # Relabel by sorted key so labels are comparable across lattices.
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        sigs = [rank[k] for k in keys]
    return sigs


def poset_isomorphism(a: FiniteLattice, b: FiniteLattice):
    """An order isomorphism a -> b as an index list, or None.

    The search's mapping is returned only once it is checked
    (``_is_cover_bijection``), so a search that goes wrong answers None
    and the verdict that asked fails."""
    mapping = _isomorphism_search(a, b)
    if mapping is None or not _is_cover_bijection(a, b, mapping):
        return None
    return mapping


def _is_cover_bijection(a: FiniteLattice, b: FiniteLattice, mapping) -> bool:
    """Whether ``mapping`` is a bijection onto b that sends every cover of
    a to a cover of b.  With as many covers in a as in b, the covers of a
    then go onto those of b, and the orders, generated by their covers,
    correspond."""
    if sorted(mapping) != list(range(b.n)) or _edge_count(a) != _edge_count(b):
        return False
    return all(mapping[y] in b.upper[mapping[x]] for x, y in a.edges())


def _edge_count(lattice: FiniteLattice) -> int:
    return sum(map(len, lattice.upper))


def _isomorphism_search(a: FiniteLattice, b: FiniteLattice):
    """A backtracking search for an order isomorphism a -> b, over the
    elements whose refined signatures agree; the mapping or None."""
    if a.n != b.n or _edge_count(a) != _edge_count(b):
        return None
    sig_a = _refine_signatures(a)
    sig_b = _refine_signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    candidates = [
        [j for j in range(b.n) if sig_b[j] == sig_a[i]] for i in range(a.n)
    ]
    order = sorted(range(a.n), key=lambda i: len(candidates[i]))
    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(k: int) -> bool:
        if k == a.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2 in range(a.n):
                j2 = mapping[i2]
                if j2 < 0:
                    continue
                if a.le(i, i2) != b.le(j, j2) or a.le(i2, i) != b.le(j2, j):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return mapping if extend(0) else None


def poset_anti_isomorphism(a: FiniteLattice, b: FiniteLattice):
    return poset_isomorphism(a, b.dual())
