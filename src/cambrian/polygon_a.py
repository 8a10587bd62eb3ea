"""The type-A polygon model.

A signature marks each interior index 1..n as up or down; vertex i of
the convex polygon Q sits at (i, +-i(n+1-i)), above or below the line
through v_0 = (0,0) and v_{n+1} = (n+1, 0).  The map eta sends a
permutation to a triangulation of Q by accumulating the edges of the
nested paths lambda_0 .. lambda_n (``lambda_paths``).  Its fibers are the
classes of the Cambrian congruence attached to the orientation induced
by the signature; the class projections pi_down / pi_up are realized by
local pattern moves on one-line notation.

The maps work on bitmasks, bit v standing for vertex or value v.
There is one eta walk, ``_eta_mask``: it keeps the current path as a
mask and collects only the edges each step creates: inserting an up
value v between its path neighbours u < v < w (the nearest set bits)
adds (u, v) and (v, w); removing a down value adds (u, w).  Edge (u, w)
is bit u(n+2) + w of the result, and the boundary edges are one mask
(``PolygonQ.boundary_mask``) to clear.  ``eta`` decodes that mask into a
diagonal set; ``eta_masks`` keeps the masks of a whole group, which
name the triangulations injectively, so fibers can be grouped by them.

The projections carry the mask of the values already read, so whether
an adjacent pair has its "2" is one mask intersection; ``_first_move``
finds the leftmost pair that moves.  ``pi_down`` / ``pi_up`` apply that
rule until nothing moves.  ``projection_tables`` applies it once per
element of a weak order: the lattice stores its elements along a linear
extension and a move goes to a cover, so filling pi_down in index order
(pi_up in reverse order) finds every move's target already done.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .coxeter import all_ji_subsets_a
from .lattices import FiniteLattice

PATTERNS = ("up231", "31down2", "up213", "13down2")


@dataclass(frozen=True)
class UpDownSignature:
    """Up/down marking of indices 1..n; 0 and n+1 count as both."""

    n: int
    ups: frozenset[int]

    def __post_init__(self):
        if not self.ups <= frozenset(range(1, self.n + 1)):
            raise ValueError(f"ups {sorted(self.ups)} not within 1..{self.n}")

    @classmethod
    def from_string(cls, text: str) -> "UpDownSignature":
        if set(text) - {"u", "d"}:
            raise ValueError(f"signature string {text!r} must use only 'u'/'d'")
        return cls(len(text), frozenset(i + 1 for i, c in enumerate(text) if c == "u"))

    def to_string(self) -> str:
        return "".join("u" if self.is_up(i) else "d" for i in range(1, self.n + 1))

    @property
    def downs(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.ups

    @cached_property
    def upmask(self) -> int:
        """Bitmask with bit i set for each up index i."""
        return sum(1 << i for i in self.ups)

    def is_up(self, i: int) -> bool:
        if i == 0 or i == self.n + 1:
            return True
        return i in self.ups

    def is_down(self, i: int) -> bool:
        if i == 0 or i == self.n + 1:
            return True
        return i not in self.ups

    def orientation_edges(self) -> tuple[tuple[int, int], ...]:
        """Directed diagram edges (s, t) of S_n: s_b -> s_{b-1} iff b is up."""
        out = []
        for b in range(2, self.n):
            if b in self.ups:
                out.append((b, b - 1))
            else:
                out.append((b - 1, b))
        return tuple(out)


def signatures_for_orientation(n: int, edges) -> list[UpDownSignature]:
    """All signatures inducing the given orientation (indices 1, n are free)."""
    want = {tuple(sorted(e)): e for e in edges}
    fixed_ups = set()
    fixed_downs = set()
    for b in range(2, n):
        edge = want.get((b - 1, b))
        if edge is None:
            raise ValueError(f"orientation missing edge between s_{b-1} and s_{b}")
        if edge == (b, b - 1):
            fixed_ups.add(b)
        else:
            fixed_downs.add(b)
    free = [i for i in (1, n) if 1 <= i <= n]
    free = sorted(set(free))
    out = []
    for bits in itertools.product([False, True], repeat=len(free)):
        ups = set(fixed_ups)
        for i, bit in zip(free, bits):
            if bit:
                ups.add(i)
        out.append(UpDownSignature(n, frozenset(ups)))
    return out


@dataclass(frozen=True)
class PolygonQ:
    """Convex polygon realizing a signature with exact integer heights."""

    signature: UpDownSignature
    coords: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.signature.n

    def boundary_cycle(self) -> tuple[int, ...]:
        """Vertex labels in convex cyclic order: 0, ups asc, n+1, downs desc."""
        sig = self.signature
        return (
            (0,)
            + tuple(sorted(sig.ups))
            + (sig.n + 1,)
            + tuple(sorted(sig.downs, reverse=True))
        )

    @cached_property
    def boundary_edges(self) -> frozenset[tuple[int, int]]:
        cycle = self.boundary_cycle()
        out = set()
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out.add((min(a, b), max(a, b)))
        return frozenset(out)

    @cached_property
    def boundary_mask(self) -> int:
        """The boundary edges (a, b), a < b, as bits a(n+2) + b."""
        stride = self.n + 2
        return sum(1 << (a * stride + b) for a, b in self.boundary_edges)

    def slope_key(self, a: int, b: int) -> tuple[int, int]:
        """Slope of segment a--b as an exact (dy, dx) pair with dx > 0."""
        (xa, ya), (xb, yb) = self.coords[a], self.coords[b]
        if xa > xb:
            xa, ya, xb, yb = xb, yb, xa, ya
        return (yb - ya, xb - xa)

    def slope_less(self, d1: tuple[int, int], d2: tuple[int, int]) -> bool:
        n1, m1 = self.slope_key(*d1)
        n2, m2 = self.slope_key(*d2)
        return n1 * m2 < n2 * m1


def polygon_from_signature(signature: UpDownSignature) -> PolygonQ:
    n = signature.n
    coords = [(0, 0)]
    for i in range(1, n + 1):
        h = i * (n + 1 - i)
        coords.append((i, h if i in signature.ups else -h))
    coords.append((n + 1, 0))
    poly = PolygonQ(signature, tuple(coords))
    cycle = poly.boundary_cycle()
    m = len(cycle)
    for k in range(m):
        (x0, y0) = coords[cycle[k - 1]]
        (x1, y1) = coords[cycle[k]]
        (x2, y2) = coords[cycle[(k + 1) % m]]
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        if cross >= 0:
            raise ValueError(f"polygon not strictly convex at vertex {cycle[k]}")
    return poly


@dataclass(frozen=True)
class TriangulationA:
    """A triangulation of Q, recorded by its n-1 diagonals."""

    n: int
    ups: frozenset[int]
    diagonals: frozenset[tuple[int, int]]


# ---------------------------------------------------------------------------
# Lambda paths and eta.


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_permutation(x: tuple[int, ...], n: int) -> None:
    if sorted(x) != list(range(1, n + 1)):
        raise ValueError(f"{x} is not a permutation of 1..{n}")


def lambda_paths(x: tuple[int, ...], polygon: PolygonQ) -> list[tuple[int, ...]]:
    sig = polygon.signature
    _check_permutation(x, sig.n)
    path = [0] + sorted(sig.downs) + [sig.n + 1]
    out = [tuple(path)]
    for v in x:
        if v in sig.ups:
            pos = next(k for k, u in enumerate(path) if u > v)
            path.insert(pos, v)
        else:
            path.remove(v)
        out.append(tuple(path))
    return out


def _eta_mask(x: tuple[int, ...], n: int, up: int, boundary: int) -> int:
    """The lambda-path edges off the boundary (lambda_0 lies on it), edge
    (u, w) as bit u(n+2) + w; ``up`` and ``boundary`` are the signature's
    and the polygon's masks."""
    stride = n + 2
    path = ((1 << stride) - 1) ^ up
    edges = 0
    for v in x:
        u = (path & ((1 << v) - 1)).bit_length() - 1
        above = path >> (v + 1)
        w = v + (above & -above).bit_length()
        if up >> v & 1:
            edges |= 1 << (u * stride + v) | 1 << (v * stride + w)
        else:
            edges |= 1 << (u * stride + w)
        path ^= 1 << v
    edges &= ~boundary
    if edges.bit_count() != n - 1:
        raise AssertionError(f"eta produced {edges.bit_count()} diagonals, wanted {n - 1}")
    return edges


def eta(x: tuple[int, ...], polygon: PolygonQ) -> TriangulationA:
    """The triangulation of ``_eta_mask``, decoded into diagonal pairs."""
    sig = polygon.signature
    n = sig.n
    _check_permutation(x, n)
    mask = _eta_mask(x, n, sig.upmask, polygon.boundary_mask)
    return TriangulationA(n, sig.ups, frozenset(divmod(b, n + 2) for b in _bits(mask)))


def eta_masks(elements, signature: UpDownSignature) -> list[int]:
    """``_eta_mask`` of each permutation of 1..n in ``elements``."""
    polygon = polygon_from_signature(signature)
    n, up, boundary = signature.n, signature.upmask, polygon.boundary_mask
    return [_eta_mask(x, n, up, boundary) for x in elements]


# ---------------------------------------------------------------------------
# Colored patterns and the projections.


def contains_colored_pattern(
    x: tuple[int, ...], signature: UpDownSignature, pattern: str
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Pattern test; the witness is the value triple (x_i, x_j, x_k)."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = x[i], x[j], x[k]
                if pattern == "up231":
                    ok = c < a < b and a in signature.ups
                elif pattern == "31down2":
                    ok = b < c < a and c not in signature.ups
                elif pattern == "up213":
                    ok = b < a < c and a in signature.ups
                else:  # 13down2
                    ok = a < c < b and c not in signature.ups
                if ok:
                    return True, (a, b, c)
    return False, None


def _first_move(x, up: int, down: int, descending: bool) -> Optional[int]:
    """The leftmost j whose adjacent descent (ascent) x[j], x[j+1] has its
    "2", or None.

    The "2" is a value strictly between the pair that is up and before j,
    or down and after j+1.  ``before`` holds x[0..j-1]; the pair is not
    strictly between itself, so the rest of ``~before`` is after.
    """
    before = 0
    for j in range(len(x) - 1):
        a, b = x[j], x[j + 1]
        if (a > b) == descending:
            lo, hi = (b, a) if descending else (a, b)
            if ((1 << hi) - (2 << lo)) & (before & up | ~before & down):
                return j
        before |= 1 << a
    return None


def _value_masks(signature: UpDownSignature) -> tuple[int, int]:
    """Masks of the up and of the down values 1..n."""
    up = signature.upmask
    return up, ((1 << (signature.n + 1)) - 2) ^ up


def _project(
    x: tuple[int, ...], signature: UpDownSignature, descending: bool
) -> tuple[int, ...]:
    """Swap the pair of ``_first_move``, then start again from the left,
    until no pair moves."""
    _check_permutation(x, signature.n)
    x = list(x)
    up, down = _value_masks(signature)
    while (j := _first_move(x, up, down, descending)) is not None:
        x[j], x[j + 1] = x[j + 1], x[j]
    return tuple(x)


def pi_down(x: tuple[int, ...], signature: UpDownSignature) -> tuple[int, ...]:
    """Iterate downward moves on adjacent pattern instances to the fixpoint."""
    return _project(x, signature, True)


def pi_up(x: tuple[int, ...], signature: UpDownSignature) -> tuple[int, ...]:
    """Iterate upward moves on adjacent pattern instances to the fixpoint."""
    return _project(x, signature, False)


def projection_tables(
    lattice: FiniteLattice, signature: UpDownSignature
) -> tuple[list[int], list[int]]:
    """pi_down and pi_up of every element of a weak order of S_n, as
    lattice indices.

    An element no move changes is its own projection; otherwise its
    projection is that of the element ``_first_move`` swaps it to, which
    is the next step ``_project`` takes.  A move goes to a lower (upper)
    cover, which the lattice's linear extension puts before (after) the
    element, so pi_down is filled in index order and pi_up in reverse.
    """
    elements, index = lattice.elements, lattice.index
    up, down = _value_masks(signature)
    tables = []
    for descending in (True, False):
        table = [-1] * len(elements)
        order = range(len(elements))
        for i in order if descending else reversed(order):
            x = elements[i]
            j = _first_move(x, up, down, descending)
            if j is None:
                table[i] = i
                continue
            target = table[index[x[:j] + (x[j + 1], x[j]) + x[j + 2:]]]
            if target < 0:
                raise AssertionError(f"the move from {x} leaves index order")
            table[i] = target
        tables.append(table)
    return tables[0], tables[1]


def is_pi_down_fixed(x: tuple[int, ...], signature: UpDownSignature) -> bool:
    return (
        not contains_colored_pattern(x, signature, "up231")[0]
        and not contains_colored_pattern(x, signature, "31down2")[0]
    )


def is_pi_up_fixed(x: tuple[int, ...], signature: UpDownSignature) -> bool:
    return (
        not contains_colored_pattern(x, signature, "up213")[0]
        and not contains_colored_pattern(x, signature, "13down2")[0]
    )


# ---------------------------------------------------------------------------
# Triangulations of a convex polygon given by a cyclic vertex order.


@lru_cache(maxsize=None)
def _chain_triangulations(chain: tuple[int, ...]) -> tuple[frozenset, ...]:
    """All triangulations of the polygon on a convex chain of labels.

    The chain's endpoints are joined by an existing edge; returned sets
    contain the internal chords created, as sorted label pairs.
    """
    if len(chain) < 3:
        return (frozenset(),)
    out = []
    v0, vk = chain[0], chain[-1]
    for j in range(1, len(chain) - 1):
        extra = set()
        if j > 1:
            extra.add((min(v0, chain[j]), max(v0, chain[j])))
        if j < len(chain) - 2:
            extra.add((min(chain[j], vk), max(chain[j], vk)))
        for left in _chain_triangulations(chain[: j + 1]):
            for right in _chain_triangulations(chain[j:]):
                out.append(left | right | extra)
    return tuple(out)


def all_triangulations(polygon: PolygonQ) -> list[TriangulationA]:
    sig = polygon.signature
    cycle = polygon.boundary_cycle()
    return [
        TriangulationA(sig.n, sig.ups, tris)
        for tris in _chain_triangulations(cycle)
    ]


def _flip(polygon: PolygonQ, tri: frozenset, diag: tuple[int, int]):
    """The opposite diagonal of the quadrilateral around diag."""
    edges = tri | polygon.boundary_edges
    a, b = diag

    def connected(u, v):
        return (min(u, v), max(u, v)) in edges

    apexes = [
        c
        for c in range(polygon.n + 2)
        if c not in diag and connected(a, c) and connected(b, c)
    ]
    if len(apexes) != 2:
        raise AssertionError(f"diagonal {diag} has {len(apexes)} apexes")
    c, d = apexes
    return (min(c, d), max(c, d))


def triangulation_lattice(signature: UpDownSignature) -> FiniteLattice:
    """Lattice of triangulations of Q under slope-increasing flips."""
    polygon = polygon_from_signature(signature)
    tris = all_triangulations(polygon)
    index = {t.diagonals: i for i, t in enumerate(tris)}
    covers = []
    for i, t in enumerate(tris):
        for diag in t.diagonals:
            other = _flip(polygon, t.diagonals, diag)
            if polygon.slope_less(diag, other):
                flipped = (t.diagonals - {diag}) | {other}
                covers.append((i, index[flipped]))
    return FiniteLattice.from_covers(tris, covers)


# ---------------------------------------------------------------------------
# Descents from a triangulation.


def _case_table_descents(beyond: int, adjacent: int, upmask: int, n: int) -> int:
    """Mask of the a in 1..n-1 for which (a, a+1) is a descent, by the four
    up/down cases of a and a+1, for every a at once.  Bit a of ``beyond``
    says a diagonal leaves a towards some b > a+1, bit a of ``adjacent``
    that (a, a+1) is a diagonal.  Types A and B share the table."""
    a_up, b_up = upmask, upmask >> 1
    descents = (
        ~a_up & ~b_up & beyond
        | ~a_up & b_up & adjacent
        | a_up & b_up & ~beyond
        | a_up & ~b_up & ~adjacent
    )
    return descents & ((1 << n) - 2)


def _case_masks(diagonals) -> tuple[int, int]:
    """(beyond, adjacent) of ``_case_table_descents`` from diagonal pairs
    (a, b), a < b; pairs with a < 1 are never read."""
    beyond = adjacent = 0
    for a, b in diagonals:
        if a >= 1:
            if b > a + 1:
                beyond |= 1 << a
            else:
                adjacent |= 1 << a
    return beyond, adjacent


def descent_set_of_triangulation(
    tri: TriangulationA, signature: UpDownSignature
) -> frozenset[tuple[int, int]]:
    """Reflections (a, a+1) that are descents, by the four up/down cases."""
    descents = _case_table_descents(
        *_case_masks(tri.diagonals), signature.upmask, signature.n
    )
    return frozenset((a, a + 1) for a in _bits(descents))


def eta_mask_descents(mask: int, signature: UpDownSignature) -> int:
    """``_case_table_descents`` of the triangulation whose diagonals are
    the bits of ``mask``, as ``_eta_mask`` lays them out."""
    n = signature.n
    stride = n + 2
    beyond = adjacent = 0
    for a in range(1, n):
        row = mask >> (a * stride + a + 1)
        adjacent |= (row & 1) << a
        if row >> 1 & ((1 << (n - a)) - 1):
            beyond |= 1 << a
    return _case_table_descents(beyond, adjacent, signature.upmask, n)


# ---------------------------------------------------------------------------
# Shard arrows and Cambrian forcing for type A.


def _subset_bounds(n: int, members: frozenset[int]) -> tuple[int, int]:
    return min(members), max(set(range(1, n + 1)) - members)


def _is_ji_subset(n: int, members: frozenset[int]) -> bool:
    if not members or members >= frozenset(range(1, n + 1)):
        return False
    m, big_m = _subset_bounds(n, members)
    return big_m > m


def shard_arrow_a(n: int, a1: frozenset[int], a2: frozenset[int]) -> bool:
    """Forcing arrow between type-A join-irreducibles by subset conditions."""
    for members in (a1, a2):
        if not _is_ji_subset(n, members):
            raise ValueError(f"{sorted(members)} is not a join-irreducible subset")
    m1, big_m1 = _subset_bounds(n, a1)
    m2, big_m2 = _subset_bounds(n, a2)
    window1 = frozenset(range(1, big_m1))
    if a1 & window1 == a2 & window1 and big_m2 > big_m1:
        return True
    window2 = frozenset(range(m1 + 1, n + 1))
    return a1 & window2 == a2 & window2 and m2 < m1


def shard_digraph_a(n: int) -> dict[frozenset[int], frozenset[frozenset[int]]]:
    nodes = all_ji_subsets_a(n)
    return {
        a1: frozenset(a2 for a2 in nodes if a2 != a1 and shard_arrow_a(n, a1, a2))
        for a1 in nodes
    }


def transitive_closure_digraph(graph: dict) -> dict:
    out = {a: set(targets) for a, targets in graph.items()}
    changed = True
    while changed:
        changed = False
        for a in out:
            extra = set()
            for b in out[a]:
                extra |= out[b] - out[a]
            if extra - {a}:
                out[a] |= extra - {a}
                changed = True
    return {a: frozenset(t - {a}) for a, t in out.items()}


def ji_contracted_a(signature: UpDownSignature, members: frozenset[int]) -> bool:
    """Whether the Cambrian congruence contracts the join-irreducible of A:
    some b strictly between m and M is up exactly when b is not in A."""
    n = signature.n
    if not _is_ji_subset(n, members):
        raise ValueError(f"{sorted(members)} is not a join-irreducible subset")
    m, big_m = _subset_bounds(n, members)
    return any((b in members) != (b in signature.ups) for b in range(m + 1, big_m))


def uncontracted_ji_subsets(signature: UpDownSignature) -> dict[tuple[int, int], frozenset[int]]:
    """Per reflection (m, M), the unique surviving join-irreducible subset."""
    n = signature.n
    out = {}
    for m in range(1, n + 1):
        for big_m in range(m + 1, n + 1):
            members = (
                frozenset({m})
                | frozenset(b for b in signature.ups if m < b < big_m)
                | frozenset(range(big_m + 1, n + 1))
            )
            out[(m, big_m)] = members
    return out


def camb_forcing_a(signature: UpDownSignature) -> dict[frozenset[int], frozenset[frozenset[int]]]:
    """Transitive forcing relation restricted to uncontracted join-irreducibles."""
    n = signature.n
    survivors = set(uncontracted_ji_subsets(signature).values())
    graph = {
        a1: frozenset(
            a2 for a2 in survivors if a2 != a1 and shard_arrow_a(n, a1, a2)
        )
        for a1 in survivors
    }
    return transitive_closure_digraph(graph)
