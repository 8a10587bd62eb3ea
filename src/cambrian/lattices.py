"""Finite lattices, congruences, quotients and forcing.

Lattices are stored over an internal linear extension; each element
carries its down-set as a Python integer bitmask, and the up-sets, the
same masks read the other way, are derived from the upper covers on the
first read (a weak order closed under Cambrian congruences never reads
them).  With indices respecting the order, the meet of x and y is the
highest set bit of down(x) & down(y) and the join is the lowest set bit
of up(x) & up(y).  Construction reads only the down-sets: every edge
must be a cover, and a ^ b must be a greatest lower bound for any two
lower covers a, b of one element, which is enough for all meets and so
for all joins (see ``FiniteLattice._validate``).

A congruence is determined by the covers it contracts.  In a polygonal
lattice, such as the weak order of a finite Coxeter group and its
Cambrian quotients, edge forcing is generated by polygons [x, a v b]
(a, b upper covers of x): contracting a bottom edge forces the opposite
top edge and every side edge, and dually for top edges (N. Reading,
Lattice congruences of the weak order, Order 21 (2004)).  Each cover is
labelled by a join-irreducible, and a congruence contracts a cover
exactly when it contracts its label (see ``PolygonForcing``).  The
forcing table holds the labels and, for each label, the bitmask of the
labels it forces, closed transitively.  A weak order reads it off its
rank-2 cosets [x, x w0(s, t)], whose opposite edges are perspective
(``PolygonForcing.from_cosets``): for each pair s, t the cosets are
walked as one column, the elements with both ascents, stepped along both
chains by a gather per step.  The congruences of a quotient L/T are
those of L above T, so a quotient by a congruence with a table restricts
that table to the labels T leaves uncontracted
(``PolygonForcing.restricted``).  A closure is then an OR of the masks
of its seed labels.  The class bottoms are the elements with no
contracted lower cover, and the table keeps, for each label, the mask of
the elements with a lower cover of that label (its heads), so the class
count is the number of elements outside the OR of the contracted labels'
heads; the classes, read only when needed, join the ends of each
contracted cover.  Any other lattice, such as one built from its
covers, closes by a union-find over the generating pairs, propagating
x ~ y to x v z ~ y v z for join-irreducible z and to x ^ z ~ y ^ z for
meet-irreducible z; every element is a join of join-irreducibles, so by
induction through transitivity the result is closed under joins and
meets with arbitrary elements.  The union-find is also the oracle the
tests check the polygonal closure against.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cached_property, reduce
from itertools import combinations, compress
from operator import itemgetter, ne, or_
from typing import Callable, Optional, Sequence


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
    """A finite lattice given by its Hasse diagram."""

    def __init__(self, elements, covers, down, lower, upper):
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.covers = covers
        self.down = down
        self.lower = lower
        self.upper = upper
        self.n = len(elements)
        self.bottom = next(i for i in range(self.n) if not lower[i])
        self.top = next(i for i in range(self.n) if not upper[i])
        self._forcing: Optional[PolygonForcing] = None
        # What the forcing table is read from: for a weak order, a function
        # giving its ascents and bonds; for a quotient, its congruence.
        self.cosets: Optional[Callable] = None
        self.quotient_of: Optional[LatticeCongruence] = None
        # A weak order's polygon walks, by signature type
        # (``polygon_a.weak_order_walk``), dropped with the lattice.
        self.walks: dict = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_covers(cls, elements: Sequence, covers, validate: bool = True):
        """Build from elements and cover pairs (as indices into elements).

        Elements are re-ordered internally along a linear extension.
        """
        n = len(elements)
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in covers:
            succ[a].append(b)
            indeg[b] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        queue = deque(order)
        while queue:
            i = queue.popleft()
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
                    queue.append(j)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        new_pos = [0] * n
        for pos, old in enumerate(order):
            new_pos[old] = pos
        new_elements = tuple(elements[old] for old in order)
        new_covers = sorted((new_pos[a], new_pos[b]) for a, b in covers)
        lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        for a, b in new_covers:
            upper[a].append(b)
            lower[b].append(a)
        down = [0] * n
        for i in range(n):
            mask = 1 << i
            for a in lower[i]:
                mask |= down[a]
            down[i] = mask
        bottoms = [i for i in range(n) if not lower[i]]
        tops = [i for i in range(n) if not upper[i]]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError(
                f"not bounded: {len(bottoms)} minimal and {len(tops)} maximal elements"
            )
        lattice = cls(new_elements, new_covers, down, lower, upper)
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
        """
        down, lower = self.down, self.lower
        for a, y in self.covers:
            for b in lower[y]:
                if down[b] >> a & 1 and b != a:
                    raise ValueError(f"edge {a} -> {y} is not a cover")
        for ly in lower:
            for i, a in enumerate(ly):
                da = down[a]
                for b in ly[i + 1 :]:
                    m = da & down[b]
                    if m != down[m.bit_length() - 1]:
                        raise ValueError(f"covers {a}, {b} have no greatest lower bound")

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

    def polygon_forcing(self) -> Optional["PolygonForcing"]:
        """The forcing table of a weak order or of a quotient by a congruence
        with a table, built on the first read; None for any other lattice,
        which closes by union-find."""
        if self._forcing is None:
            if self.cosets is not None:
                self._forcing = PolygonForcing.from_cosets(self, *self.cosets(self))
            elif self.quotient_of is not None:
                self._forcing = PolygonForcing.restricted(self.quotient_of, self)
        return self._forcing

    def atoms(self) -> list[int]:
        return list(self.upper[self.bottom])

    def dual(self) -> "FiniteLattice":
        rev = [(self.n - 1 - b, self.n - 1 - a) for a, b in self.covers]
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


class LatticeCongruence:
    """A lattice congruence, given either by ``class_of``, a class name for
    each element, or, on a lattice with a forcing table, by ``hit``, the
    bitmask of the labels of ``forcing`` (a ``PolygonForcing`` table) that
    it contracts.  The rest is derived on the first read, in one chain:
    ``class_of`` (from ``hit`` unless given) numbers the classes by their
    least elements, ``classes`` lists their members, and the projections
    map each element to the first or last member of its class.  With
    ``hit``, ``num_classes`` counts the class bottoms without deriving the
    classes: every other element has a lower cover with a hit label, so
    is in the OR of the hit labels' ``heads`` masks.
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

    @cached_property
    def _contracted(self) -> bytes:
        """Byte j is 1 where label j is hit."""
        hit = self.hit
        return bytes(hit >> j & 1 for j in range(len(self.forcing.reach)))

    @cached_property
    def class_of(self) -> list[int]:
        """Join the ends of each cover with a hit label.  Covers are sorted
        by their lower end, so the class of x is final before its upper
        covers are reached."""
        lattice = self.lattice
        class_of = list(range(lattice.n))
        contracted = map(self._contracted.__getitem__, self.forcing.labels)
        for x, y in compress(lattice.covers, contracted):
            class_of[y] = class_of[x]
        return _numbered(class_of)

    @cached_property
    def num_classes(self) -> int:
        """With ``hit``, the elements outside the heads of the hit labels."""
        if self.hit is None:
            return len(self.classes)
        heads = reduce(or_, compress(self.forcing.heads, self._contracted), 0)
        return self.lattice.n - heads.bit_count()

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
        for a, b in lattice.covers:
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


def _edge_starts(upper) -> array:
    """``first[x]``: the id of x's first upper cover, covers numbered in
    order of their lower end."""
    first = array("i", [0])
    for ux in upper:
        first.append(first[-1] + len(ux))
    return first


def _gather(table, index) -> tuple:
    """``table[i]`` for each i of ``index``, as a tuple."""
    if len(index) > 1:
        return itemgetter(*index)(table)
    return tuple(table[i] for i in index)


def _transitive(reach: list[int]) -> list[int]:
    """Close the label forcing rows transitively, one pivot at a time;
    each row also gets its own label."""
    reach = [row | 1 << j for j, row in enumerate(reach)]
    for k in range(len(reach)):
        bit, row_k = 1 << k, reach[k]
        for j, row in enumerate(reach):
            if row & bit:
                reach[j] = row | row_k
    return reach


class PolygonForcing:
    """Polygonal forcing of a lattice, on join-irreducible labels.

    Edge ``first[x] + k`` is the cover x -> upper[x][k], which is also its
    position in ``lattice.covers``.  ``labels[e]`` is the label of edge e
    as an ordinal into ``lattice.join_irreducibles``: for a cover x -> y
    it is m, the lowest index in down(y) outside down(x).  ``reach[j]`` is
    the bitmask of the labels that contracting label j forces, j included.
    ``heads[j]`` is the bitmask of the elements with a lower cover
    labelled j.

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

    __slots__ = ("first", "labels", "reach", "heads")

    def __init__(self, lattice: FiniteLattice, first: array, labels: array, reach: list[int]):
        self.first = first
        self.labels = labels
        self.reach = reach
        # The upper end of each cover, appended to its label's list.
        ends = [[] for _ in reach]
        tops = map(itemgetter(1), lattice.covers)
        deque(map(list.append, map(ends.__getitem__, labels), tops), 0)
        self.heads = [reduce(or_, map((1).__lshift__, ys), 0) for ys in ends]

    @classmethod
    def from_cosets(cls, lattice: FiniteLattice, ascents: array, bonds) -> "PolygonForcing":
        """The table of a weak order, read off its rank-2 cosets.

        ``ascents[x * r + s]`` is the index of xs, or -1 where s is a
        descent of x, over r generators whose bonds m(s, t) are
        ``bonds[s][t]``.  Each polygon of the weak order is a coset
        interval [x, x w0(s, t)] for two ascents s, t of x, made of the
        chains x, xs, xst, ... and x, xt, xts, ... of m(s, t) edges each,
        and the bottom edge of one chain is perspective to the top edge of
        the other, so it has the same label.  For each pair s, t the
        cosets are walked together, as the column of their bottoms x: the
        elements where both s and t are ascents, stepped m(s, t) times
        along each chain, each step a gather over the whole column.  A
        cover j_* -> j into a join-irreducible j has label j; every other
        cover is the top edge of the coset of its upper end by two of its
        descents, and points at the opposite bottom edge, whose lower end
        comes earlier in index order, so one pass in edge order labels
        every edge.  A second walk compares the labels of all perspective
        edges and collects the side edges each bottom edge forces.  Raises
        AssertionError where the table does not describe such cosets:
        ascents that are not the covers, a chain that leaves the table,
        two chains that do not meet, an edge with two labels or none.
        """
        upper, lower, covers = lattice.upper, lattice.lower, lattice.covers
        n, r, size = lattice.n, len(bonds), len(covers)
        first = _edge_starts(upper)
        head = list(map(itemgetter(1), covers))
        # edges[s][x]: the edge x -> xs, or ``size`` where s is a descent of
        # x, which no gather from ``head`` accepts; byte x of ascent[s] is 1
        # where s is an ascent of x.
        edges = [[size] * n for _ in range(r)]
        ascent = [bytearray(n) for _ in range(r)]
        for edge, (x, y) in enumerate(covers):
            at = x * r
            try:
                s = ascents.index(y, at, at + r) - at
            except ValueError:
                raise AssertionError(f"cover {x} -> {y} is no ascent of {x}") from None
            edges[s][x] = edge
            ascent[s][x] = 1
        if sum(column.count(1) for column in ascent) != len(ascents) - ascents.count(-1):
            raise AssertionError("an ascent is not a cover")
        # The bottoms of the cosets of each pair s, t: the elements where
        # both are ascents, read off one AND of their ascent flags.
        flags = [int.from_bytes(column, "little") for column in ascent]
        columns = {
            (s, t): array("i", compress(range(n), (flags[s] & flags[t]).to_bytes(n, "little")))
            for s, t in combinations(range(r), 2)
        }

        def walk(visit) -> None:
            """Call ``visit`` with the edges of the chains xs... and xt...,
            step by step, over the bottoms x of the cosets of each pair
            s, t in index order."""
            for (s, t), bottoms in columns.items():
                if not bottoms:
                    continue
                chains = []
                for word in ((s, t), (t, s)):
                    level, path = bottoms, []
                    for k in range(bonds[s][t]):
                        g = word[k % 2]
                        path.append(_gather(edges[g], level))
                        try:
                            level = _gather(head, path[-1])
                        except IndexError:
                            last = path[-2][path[-1].index(size)]
                            message = f"edge {last} has no ascent {g} after it"
                            raise AssertionError(message) from None
                    chains.append((path, level))
                (path_s, end_s), (path_t, end_t) = chains
                if end_s != end_t:
                    i = list(map(ne, end_s, end_t)).index(True)
                    raise AssertionError(
                        f"the chains of {s}, {t} from {bottoms[i]} end at {end_s[i]} and {end_t[i]}"
                    )
                visit(path_s, path_t)

        # below[e]: a bottom edge perspective to the top edge e, or -1.
        below = array("i", [-1]) * size

        def point(path_s, path_t):
            deque(map(below.__setitem__, path_s[-1], path_t[0]), 0)
            deque(map(below.__setitem__, path_t[-1], path_s[0]), 0)

        walk(point)
        ji = lattice.join_irreducibles
        labels = array("i", [-1]) * size
        for k, g in enumerate(ji):
            x = lower[g][0]
            edge = first[x] + upper[x].index(g)
            labels[edge], below[edge] = k, -1
        for edge, bottom in enumerate(below):
            if bottom >= 0:
                labels[edge] = labels[bottom]
        if -1 in labels:
            raise AssertionError(f"edge {labels.index(-1)} has no label")
        # The top edges carry the bottom labels, so only the side edges add
        # to the rows; two-edge chains have none.
        forced = set()

        def compare(path_s, path_t):
            bottom_s, bottom_t = _gather(labels, path_s[0]), _gather(labels, path_t[0])
            for top, bottom in ((path_s[-1], bottom_t), (path_t[-1], bottom_s)):
                got = _gather(labels, top)
                if got != bottom:
                    i = list(map(ne, got, bottom)).index(True)
                    raise AssertionError(f"edge {top[i]} has labels {got[i]} and {bottom[i]}")
            for side in path_s[1:-1] + path_t[1:-1]:
                sides = _gather(labels, side)
                forced.update(zip(bottom_s + bottom_t, sides + sides))

        walk(compare)
        reach = [0] * len(ji)
        for j, k in forced:
            reach[j] |= 1 << k
        return cls(lattice, first, labels, _transitive(reach))

    @classmethod
    def restricted(cls, cong: LatticeCongruence, quotient: FiniteLattice) -> "PolygonForcing":
        """The table of ``quotient``, the quotient by ``cong``, restricted
        from the table ``cong.forcing`` of its lattice.

        The congruences of the quotient are those of the lattice above
        ``cong``, so a label outside ``cong.hit`` forces in the quotient
        what it forces in the lattice, less the hit labels.  Such a label
        is a join-irreducible g that is a class bottom, [g] is
        join-irreducible in the quotient, and each quotient cover carries
        the label of the uncontracted covers it is the image of.  Raises
        AssertionError if a quotient cover gets two labels or none, or if
        the kept labels are not the quotient's join-irreducibles one to one.
        """
        lattice, forcing, hit = cong.lattice, cong.forcing, cong.hit
        # The quotient index of each element's class: from_covers re-sorts.
        at = [quotient.index[lattice.elements[b]] for b in cong.down_projection]
        ordinal = {g: k for k, g in enumerate(quotient.join_irreducibles)}
        ji = lattice.join_irreducibles
        kept = {k: ordinal.get(at[g], -1) for k, g in enumerate(ji) if not hit >> k & 1}
        if sorted(kept.values()) != list(range(len(ordinal))):
            raise AssertionError("the kept labels are not the quotient's join-irreducibles")
        first = _edge_starts(quotient.upper)
        labels = array("i", [-1]) * len(quotient.covers)
        for (x, y), k in zip(lattice.covers, forcing.labels):
            if not hit >> k & 1:
                a, b = at[x], at[y]
                edge = first[a] + quotient.upper[a].index(b)
                if labels[edge] not in (-1, kept[k]):
                    raise AssertionError(f"edge {edge} has labels {labels[edge]} and {kept[k]}")
                labels[edge] = kept[k]
        if -1 in labels:
            raise AssertionError(f"edge {labels.index(-1)} has no label")
        order = sorted(kept, key=kept.get)
        reach = [sum(1 << kept[j] for j in kept if forcing.reach[k] >> j & 1) for k in order]
        return cls(quotient, first, labels, reach)

    def closure(self, lattice: FiniteLattice, pairs) -> LatticeCongruence:
        """Contract every cover in [a ^ b, a v b] for each pair and close
        their labels under forcing; the classes follow from the labels.
        For a comparable pair a <= b, such as a Cambrian generating pair,
        the interval is the part of down(b) above a, so it needs no
        up-sets."""
        down, upper = lattice.down, lattice.upper
        first, labels, reach = self.first, self.labels, self.reach
        hit = 0
        for a, b in pairs:
            if down[a] >> b & 1:
                a, b = b, a
            if down[b] >> a & 1:
                inside = [x for x in _members(down[b]) if down[x] >> a & 1]
            else:
                inside = lattice.interval(lattice.meet(a, b), lattice.join(a, b))
            mask = reduce(or_, map((1).__lshift__, inside), 0)
            for x in inside:
                for k, y in enumerate(upper[x], first[x]):
                    if mask >> y & 1:
                        hit |= reach[labels[k]]
        return LatticeCongruence(lattice, forcing=self, hit=hit)


def congruence_closure(lattice: FiniteLattice, pairs) -> LatticeCongruence:
    """Smallest lattice congruence identifying each given pair of indices.

    A lattice with a forcing table, a weak order or one of its quotients,
    closes over it; any other lattice falls back to ``union_find_closure``.
    """
    forcing = lattice.polygon_forcing()
    if forcing is None:
        return union_find_closure(lattice, pairs)
    return forcing.closure(lattice, pairs)


def union_find_closure(lattice: FiniteLattice, pairs) -> LatticeCongruence:
    """Smallest lattice congruence identifying each given pair of indices,
    by propagating merges through joins and meets with irreducibles."""
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
    quotient is such an image, so the covers are read off the edges.
    """
    lattice, class_of = cong.lattice, cong.class_of
    # Classes are numbered by their least index, which is their bottom.
    images = {(class_of[a], class_of[b]) for a, b in lattice.covers}
    covers = sorted((c, d) for c, d in images if c != d)
    elements = tuple(lattice.elements[cls[0]] for cls in cong.classes)
    quotient = FiniteLattice.from_covers(elements, covers)
    if cong.forcing is not None:
        quotient.quotient_of = cong
    return quotient


def contraction_congruence(lattice: FiniteLattice, ji_index: int) -> LatticeCongruence:
    """Smallest congruence contracting the given join-irreducible."""
    if len(lattice.lower[ji_index]) != 1:
        raise ValueError(f"element {ji_index} is not join-irreducible")
    return congruence_closure(lattice, [(lattice.lower[ji_index][0], ji_index)])


def forcing_arrows(lattice: FiniteLattice) -> dict[int, frozenset[int]]:
    """For each join-irreducible g, the join-irreducibles contracted by Cg(g).

    The cover g_* -> g has label g, so with a forcing table the answer is
    g's row of label forcing; other lattices close Cg(g) one g at a time.
    """
    ji = lattice.join_irreducibles
    forcing = lattice.polygon_forcing()
    if forcing is None:
        return {
            g: frozenset(contraction_congruence(lattice, g).contracted_join_irreducibles())
            for g in ji
        }
    return {
        g: frozenset(h for k, h in enumerate(ji) if row >> k & 1)
        for g, row in zip(ji, forcing.reach)
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
    """An order isomorphism a -> b as an index list, or None."""
    if a.n != b.n or len(a.covers) != len(b.covers):
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
