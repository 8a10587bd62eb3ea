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
``eta`` keeps the current path as a mask and collects only the edges
each step creates: inserting an up value v between its path neighbours
u < v < w (the nearest set bits) adds (u, v) and (v, w); removing a down
value adds (u, w).  The projections carry the mask of the values already
read, so whether an adjacent pair has its "2" is one mask intersection.
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


def eta(x: tuple[int, ...], polygon: PolygonQ) -> TriangulationA:
    """The lambda-path edges off the boundary (lambda_0 lies on it)."""
    sig = polygon.signature
    n = sig.n
    _check_permutation(x, n)
    ups = sig.ups
    path = ((1 << (n + 2)) - 1) ^ sig.upmask
    edges = set()
    for v in x:
        u = (path & ((1 << v) - 1)).bit_length() - 1
        above = path >> (v + 1)
        w = v + (above & -above).bit_length()
        if v in ups:
            edges.add((u, v))
            edges.add((v, w))
        else:
            edges.add((u, w))
        path ^= 1 << v
    diagonals = frozenset(edges) - polygon.boundary_edges
    if len(diagonals) != n - 1:
        raise AssertionError(f"eta produced {len(diagonals)} diagonals, wanted {n - 1}")
    return TriangulationA(n, ups, diagonals)


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


def _project(
    x: tuple[int, ...], signature: UpDownSignature, descending: bool
) -> tuple[int, ...]:
    """Swap the leftmost adjacent descent (ascent) that has its "2", then
    start again from the left, until none has one.

    The "2" of x[j], x[j+1] is a value strictly between them that is up
    and before j, or down and after j+1.  ``before`` holds x[0..j-1]; the
    pair is not strictly between itself, so the rest of ``~before`` is after.
    """
    n = signature.n
    _check_permutation(x, n)
    x = list(x)
    up = signature.upmask
    down = ((1 << (n + 1)) - 2) ^ up
    while True:
        before = 0
        for j in range(n - 1):
            a, b = x[j], x[j + 1]
            if (a > b) == descending:
                lo, hi = (b, a) if descending else (a, b)
                if ((1 << hi) - (2 << lo)) & (before & up | ~before & down):
                    x[j], x[j + 1] = b, a
                    break
            before |= 1 << a
        else:
            return tuple(x)


def pi_down(x: tuple[int, ...], signature: UpDownSignature) -> tuple[int, ...]:
    """Iterate downward moves on adjacent pattern instances to the fixpoint."""
    return _project(x, signature, True)


def pi_up(x: tuple[int, ...], signature: UpDownSignature) -> tuple[int, ...]:
    """Iterate upward moves on adjacent pattern instances to the fixpoint."""
    return _project(x, signature, False)


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


def _case_table_descents(diagonals, n: int, ups) -> set[int]:
    """The a in 1..n-1 for which (a, a+1) is a descent, by the four up/down
    cases of a and a+1.  Types A and B share the table."""
    beyond = {a for a, b in diagonals if b > a + 1}
    out = set()
    for a in range(1, n):
        a_up = a in ups
        b_up = (a + 1) in ups
        adjacent = (a, a + 1) in diagonals
        if not a_up and not b_up:
            is_descent = a in beyond
        elif not a_up and b_up:
            is_descent = adjacent
        elif a_up and b_up:
            is_descent = a not in beyond
        else:
            is_descent = not adjacent
        if is_descent:
            out.add(a)
    return out


def descent_set_of_triangulation(
    tri: TriangulationA, signature: UpDownSignature
) -> frozenset[tuple[int, int]]:
    """Reflections (a, a+1) that are descents, by the four up/down cases."""
    return frozenset(
        (a, a + 1)
        for a in _case_table_descents(tri.diagonals, signature.n, signature.ups)
    )


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
