"""The type-A polygon model.

A signature marks each interior index 1..n as up or down; vertex i of
the convex polygon Q sits at (i, +-i(n+1-i)), above or below the line
through v_0 = (0,0) and v_{n+1} = (n+1, 0).  The map eta sends a
permutation to a triangulation of Q by accumulating the edges of the
nested paths lambda_0 .. lambda_n (``lambda_paths``).  Its fibers are the
classes of the Cambrian congruence attached to the orientation induced
by the signature; the class projections pi_down / pi_up are realized by
local pattern moves on one-line notation.

The maps work on bitmasks, bit v standing for vertex or value v, and a
triangulation is one mask of its diagonals, (u, w) at bit u(n+2) + w.
The one eta edge rule, ``_step_edges``, gives the edges reading v adds
to the current path: inserting an up value v between its path
neighbours u < v < w adds (u, v) and (v, w); removing a down value adds
(u, w).  Once a set P of values has been read the path is lambda_0 ^ P,
whatever the order, which for the up set U is the vertices outside
P ^ U, so a step depends on (P ^ U, v) alone and one table,
``_step_table(n)``, serves every signature.  ``_eta_mask`` walks one
permutation.  A ``GroupWalk`` holds the signature-free part of a whole
group, built once: the prefix tree of its permutations, each node one
step table key, and the move table of the projections.  The walk reads
the tree under many signatures at once, bit-sliced: each signature is
a lane of 64-bit words inside one int per node, a step key's lanes
hold ``step[key ^ under]`` for each signature's ``under``, so a node
is one OR of its parent's int and its step's, one AND clears every
lane's boundary, and the last level is read back lane by lane from
one buffer of native words.  ``walk_eta`` walks the signatures not
kept yet in passes of at most ``LANES``; ``eta_fibers`` reads one
through it.  The walk and ``_eta_mask`` clear the boundary
(``PolygonQ.boundary_mask``) and check that n-1 diagonals are left.
``eta`` decodes the mask.  A mask names its triangulation injectively,
so a fiber of eta is the set of elements with one mask, and
``eta_fibers`` gives a group's fibers directly: its distinct masks in
order of first member and each element's place among them, the fibers
numbered as ``class_of`` numbers congruence classes.  It is the one
reader of eta over a group: the suites read the fibers, and one
case-table row per fiber, through the places, the fan checks each
class bottom's mask, and the exported ``eta_masks`` spells out one mask
per element.  A signature reads a group through four methods, which
``SymmetricSignature`` shares: ``walk``, ``eta_fibers``, then the
descent case table in two stages, a mask's signature-free ``sides``
(``_mask_sides``) and the two colour cases (``descents``).
``_flip_order`` is the one flip order, of triangulations and of
clusters: two sets are one flip apart when they share a wall
(``_walls``), a set minus one orbit of its members: a diagonal here, a
mirror pair in type B, a root or a chi-orbit of roots in ``fans``.

``_pair_interval`` is the one move rule of pi_down (pi_up): the up sets
under which an adjacent descent (ascent) stays put, packed as an
interval, which ``_first_move``, the move table and
``suites._pattern_sweep`` read.  The pair moves iff the interval meets
the signature's ``_moving`` marks.  ``pi_down`` / ``pi_up`` swap the
leftmost pair that moves until none does.  ``projection_tables`` reads
the move table, each adjacent descent's (ascent's) interval and the
element the swap gives: each element takes the projection of its
leftmost moving pair's target.  The lattice stores its elements along
a linear extension and a move goes to a cover, so filling pi_down in
index order (pi_up in reverse order) finds every target already done.

Each weak order keeps one walk per signature type (``weak_order_walk``)
in its ``tables``, as the fan checks keep theirs: a process walks each
group once, and dropping the group, or resetting ``coxeter._SYSTEMS``,
frees the weak order with every table.
A walk keeps what it computes, inside the methods themselves, so a
test that replaces a method bypasses its memo.  eta is kept per
(signature, boundary mask) as the distinct masks and an array of places
in them, the pair ``eta_fibers`` returns; ``projection_tables`` per
marking of the values 2..n-1, as two arrays.  The projections ignore
the marks of 1 and n because a move reads only the values strictly
between its pair, and neither end value is ever between two others, so
the four markings of 1 and n share one pair of tables.
``projection_tables`` returns new lists, and a call that raises keeps
nothing.  Each of ``congruence-eq``, ``descent``, ``fibers`` and ``fan``
hands a group's walk all its signatures first (``walk_eta``), then
reads each one's fibers back from the memo, so a second of them in
one process walks nothing.
"""

from __future__ import annotations

import io
import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import lshift, or_, rshift
from typing import Optional

from .coxeter import all_ji_subsets_a, ji_subset_bounds
from .lattices import FiniteLattice, _members, _transitive, built_lattice

PATTERNS = ("up231", "31down2", "up213", "13down2")

# Signatures per pass of ``GroupWalk.walk_eta``: passes of 64 ran no
# faster than passes of 32 and held twice the memory.  And one 64-bit word.
LANES = 32
_WORD = (1 << 64) - 1


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

    @cached_property
    def polygon(self) -> PolygonQ:
        """The convex polygon of the signature, built once."""
        return polygon_from_signature(self)

    def is_up(self, i: int) -> bool:
        if i == 0 or i == self.n + 1:
            return True
        return i in self.ups

    def is_down(self, i: int) -> bool:
        if i == 0 or i == self.n + 1:
            return True
        return i not in self.ups

    def orientation_edges(self) -> tuple[tuple[int, int], ...]:
        """Directed diagram edges (s, t) of S_n, b = 2..n-1."""
        return _orientation_edges(self.ups, range(2, self.n))

    def walk(self, elements) -> GroupWalk:
        """The ``GroupWalk`` of permutations of 1..n."""
        return GroupWalk(elements)

    def eta_fibers(self, walk: GroupWalk) -> tuple[tuple[int, ...], array]:
        """``walk.eta_fibers``: the distinct masks and each element's place."""
        return walk.eta_fibers(self)

    def sides(self, mask: int) -> tuple[int, int]:
        """``_mask_sides`` of a diagonal mask of the (n+2)-gon."""
        return _mask_sides(mask, self.n)

    def descents(self, sides) -> list[int]:
        """Left descents, bit a for s_a, of the triangulation of each
        ``sides`` pair in the list ``sides`` (``_case_rows``)."""
        return _case_rows(sides, self)


def _orientation_edges(ups, indices) -> tuple[tuple[int, int], ...]:
    """The diagram edges (s, t) between s_{b-1} and s_b for b in
    ``indices``: s_b -> s_{b-1} iff b is up.  Types A and B share it."""
    return tuple((b, b - 1) if b in ups else (b - 1, b) for b in indices)


def signatures_for_orientation(n: int, edges) -> list[UpDownSignature]:
    """All signatures inducing the given orientation (indices 1, n are free)."""
    want = {tuple(sorted(e)): e for e in edges}
    fixed_ups = set()
    for b in range(2, n):
        edge = want.get((b - 1, b))
        if edge is None:
            raise ValueError(f"orientation missing edge between s_{b-1} and s_{b}")
        if edge == (b, b - 1):
            fixed_ups.add(b)
    free = sorted({1, n})
    return [
        UpDownSignature(n, frozenset(fixed_ups.union(itertools.compress(free, bits))))
        for bits in itertools.product([False, True], repeat=len(free))
    ]


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


def _step_edges(path: int, v: int, up: int, stride: int) -> int:
    """The edges reading v adds to the lambda path ``path`` (a vertex
    mask), edge (u, w) as bit u(n+2) + w: with u < v < w v's neighbours on
    the path, (u, v) and (v, w) if v is up (it is inserted), (u, w) if it
    is down (it is removed)."""
    u = (path & ((1 << v) - 1)).bit_length() - 1
    above = path >> (v + 1)
    w = v + (above & -above).bit_length()
    if up >> v & 1:
        return 1 << (u * stride + v) | 1 << (v * stride + w)
    return 1 << (u * stride + w)


def _lambda_0(n: int, up: int) -> int:
    """The first lambda path, 0, the down values and n+1, as a mask."""
    return ((1 << (n + 2)) - 1) ^ up


def _off_boundary(edges: int, n: int, boundary: int) -> int:
    """``edges`` without the boundary, checked to be the n-1 diagonals of
    a triangulation."""
    edges &= ~boundary
    if edges.bit_count() != n - 1:
        raise AssertionError(f"eta produced {edges.bit_count()} diagonals, wanted {n - 1}")
    return edges


def _eta_mask(x: tuple[int, ...], n: int, up: int, boundary: int) -> int:
    """The lambda-path edges off the boundary (lambda_0 lies on it), edge
    (u, w) as bit u(n+2) + w; ``up`` and ``boundary`` are the signature's
    and the polygon's masks."""
    stride = n + 2
    path = _lambda_0(n, up)
    edges = 0
    for v in x:
        edges |= _step_edges(path, v, up, stride)
        path ^= 1 << v
    return _off_boundary(edges, n, boundary)


def _mask_diagonals(mask: int, n: int) -> frozenset[tuple[int, int]]:
    """The diagonal pairs (u, w) of a mask, read off bits u(n+2) + w."""
    return frozenset(divmod(b, n + 2) for b in _members(mask))


def eta(x: tuple[int, ...], polygon: PolygonQ) -> TriangulationA:
    """The triangulation of ``_eta_mask``, decoded into diagonal pairs."""
    sig = polygon.signature
    n = sig.n
    _check_permutation(x, n)
    mask = _eta_mask(x, n, sig.upmask, polygon.boundary_mask)
    return TriangulationA(n, sig.ups, _mask_diagonals(mask, n))


@lru_cache(maxsize=None)
def _step_table(n: int) -> tuple[int, ...]:
    """``_step_edges`` of every value v read after a set P of values,
    under every signature, at ``_step_key(P ^ U, v, n)`` for up set U.

    Once the values in P have been read, the lambda path is
    lambda_0 ^ P = (0..n+1) ^ (P ^ U) whatever their order, and v, not in
    P, is up iff it is in P ^ U, so the edges reading v adds depend on
    (P ^ U, v) alone.  The table depends on n only and is kept; 2^n n of
    its entries are used.
    """
    stride = n + 2
    full = (1 << stride) - 1
    step = [0] * _step_key(1 << (n + 1), 0, n)
    for flipped in range(0, 1 << (n + 1), 2):
        for v in range(1, n + 1):
            step[_step_key(flipped, v, n)] = _step_edges(full ^ flipped, v, flipped, stride)
    return tuple(step)


def _step_key(values: int, v: int, n: int) -> int:
    """The step table key of value v after the value set ``values``
    (bits 1..n): the set above the bits of v, so that xor-ing it with
    ``_step_key(U, 0, n)`` reads it under the up set U."""
    return values >> 1 << n.bit_length() | v


class GroupWalk:
    """The signature-free part of eta and of the projections over a list
    of permutations of 1..n, built once and read under many signatures.

    ``levels`` is a prefix tree: level k lists the distinct k-prefixes of
    the permutations, each by its parent on level k-1 and the place in
    ``step_keys``, the distinct keys in order of first use, of the
    ``_step_key`` of its last value after the set of the others.  It
    stops at the (n-1)-prefixes of the permutations, in list order: the
    last value read only closes lambda_n, the upper boundary, so its step
    adds boundary edges alone.

    eta reads the tree bit-sliced, many signatures in one pass
    (``walk_eta``): each signature is a lane of L = ceil((n+2)^2 / 64)
    64-bit words inside one int per node, so a node costs one big-int OR
    whatever the number of lanes.  A pass of k lanes over m elements
    holds about 2 * 8 * L * k * m bytes at once: the last level, read
    back as one buffer, and the level above it.  ``LANES`` bounds k: the
    lanes are read back one at a time, which costs the same per lane in
    a pass of any size, so larger passes only hold more memory.

    ``moves`` lists, per direction (descents, then ascents), every
    adjacent pair a projection could swap, backwards through the list and
    through each element, so that the last pair of an element is its
    leftmost.  Each pair is its element's position, the position of the
    permutation with the pair swapped (``index``, which only the
    projections need), and, as one byte, the place in ``sides`` of the
    pair's ``_pair_interval``, shifted by n+1: at most 241 intervals for
    n <= 8, so a byte holds the place.

    ``walk_eta``, ``eta_fibers`` and ``projection_tables`` keep their
    results, in the compact forms the module docstring gives.
    """

    def __init__(self, elements):
        self.elements = elements
        self.n = len(elements[0]) if elements else 0
        self._eta: dict = {}
        self._projections: dict = {}

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], list[tuple[list[int], list[int]]]]:
        """``step_keys`` and ``levels``, built together."""
        elements, n = self.elements, self.n
        depth = max(n - 1, 1)
        node, sets, levels = {(): 0}, [0], []
        for k in range(1, depth + 1):
            prefixes = (
                [x[:k] for x in elements] if k == depth
                else list(dict.fromkeys(x[:k] for x in elements))
            )
            parents = [node[p[:-1]] for p in prefixes]
            last = [p[-1] for p in prefixes]
            keys = [_step_key(sets[a], v, n) for a, v in zip(parents, last)]
            sets = [sets[a] | 1 << v for a, v in zip(parents, last)]
            node = {p: i for i, p in enumerate(prefixes)}
            levels.append((parents, keys))
        step_keys = tuple(dict.fromkeys(itertools.chain.from_iterable(k for _, k in levels)))
        place = dict(zip(step_keys, itertools.count()))
        levels = [(parents, list(map(place.__getitem__, keys))) for parents, keys in levels]
        return step_keys, levels

    step_keys = property(lambda self: self._tree[0])
    levels = property(lambda self: self._tree[1])

    def eta_fibers(self, signature: UpDownSignature) -> tuple[tuple[int, ...], array]:
        """eta by fiber: the distinct ``_eta_mask`` values in order of
        first member, and each element's place among them, so the places
        number the fibers by first member.  The pair is the memo's own:
        callers read it and change neither part.  A signature not kept
        yet is walked alone by ``walk_eta``."""
        self.walk_eta([signature])
        return self._eta[signature, signature.polygon.boundary_mask]

    def walk_eta(self, signatures) -> None:
        """Keep the fibers of every signature in ``signatures`` not kept
        yet, in passes of at most ``LANES``.  The memo is keyed by
        (signature, boundary mask), so a polygon with another boundary is
        read afresh; each pass keeps its signatures in order, so a
        signature off count raises with the earlier ones kept."""
        keys = [
            key for key in dict.fromkeys((s, s.polygon.boundary_mask) for s in signatures)
            if key not in self._eta
        ]
        for start in range(0, len(keys), LANES):
            self._walk_lanes(keys[start:start + LANES])

    def _walk_lanes(self, keys) -> None:
        """Keep the fibers of the (signature, boundary) ``keys`` from one
        pass over the tree, each signature a lane of ``words`` 64-bit
        words in one int per node (``_to_lanes``).  Each step key's lanes,
        ``step[key ^ under]`` for each signature's ``under``, and the
        lanes of the boundaries' complements are packed once; a node is
        then its parent's int OR its step's, and one AND clears every
        lane's boundary.  The last level goes to one buffer
        (``_lane_cells``) and the tree is dropped, so a pass holds at most
        the buffer and one level of the tree; then each lane is read back
        and numbered in turn."""
        n, lanes = self.n, len(keys)
        words = -(-(n + 2) ** 2 // 64)
        step, (step_keys, levels) = _step_table(n), self._tree
        full = (1 << 64 * words) - 1
        lane = _to_lanes([
            [*map(step.__getitem__, map(_step_key(sig.upmask, 0, n).__xor__, step_keys)),
             full & ~boundary]
            for sig, boundary in keys
        ], words)
        keep = lane.pop()
        edges = [0]
        for parents, places in levels[:-1]:
            edges = list(map(or_, map(edges.__getitem__, parents), map(lane.__getitem__, places)))
        parents, places = levels[-1]
        last = map(or_, map(edges.__getitem__, parents), map(lane.__getitem__, places))
        cells = _lane_cells(map(keep.__and__, last), words, lanes)
        del edges, lane, last
        for j, key in enumerate(keys):
            masks = _lane(cells, j, words, lanes)
            # One hash per mask: a mask takes the next place at its first member.
            place = {}
            places = [place.setdefault(m, len(place)) for m in masks]
            distinct = tuple(place)
            if set(map(int.bit_count, distinct)) != {n - 1}:
                for mask in masks:  # raises at the first element off count
                    _off_boundary(mask, n, key[1])
            self._eta[key] = distinct, _packed(places, len(distinct))

    @cached_property
    def moves(self) -> list[tuple[list[int], list[int], bytes, list[int]]]:
        index, shift = self.index, self.n + 1
        out = []
        for descending in (True, False):
            owner, target, place, sides = [], [], [], {}
            for i, x in enumerate(self.elements):
                before = 0
                for j in range(len(x) - 1):
                    a, b = x[j], x[j + 1]
                    if (a > b) == descending:
                        owner.append(i)
                        target.append(index[x[:j] + (b, a) + x[j + 2:]])
                        side = _pair_interval(a, b, before, shift)
                        place.append(sides.setdefault(side, len(sides)))
                    before |= 1 << a
            out.append((owner[::-1], target[::-1], bytes(place[::-1]), list(sides)))
        return out

    def projection_key(self, signature: UpDownSignature) -> int:
        """The key of ``projection_tables``: the signature's ``_moving``
        marks of 2..n-1.  The values strictly between a pair are never 1
        or n, so the four markings of 1 and n share one key and one pair
        of tables."""
        shift, ends = self.n + 1, 1 << 1 | 1 << self.n
        return _moving(signature) & ~(ends | ends << shift)

    def projection_tables(self, signature: UpDownSignature) -> tuple[list[int], list[int]]:
        """pi_down and pi_up of every element, as positions, kept under
        ``projection_key``.

        A pair moves iff its ``sides`` interval meets the signature's
        ``_moving`` marks, one mask intersection per distinct interval.
        An element whose leftmost moving pair takes it to another shares
        that element's projection, which pi_down (pi_up) has filled
        already if the move goes down (up) in index order.
        """
        moving = self.projection_key(signature)
        if moving in self._projections:
            return tuple(map(list, self._projections[moving]))
        tables = self._projected(moving)
        size = len(self.elements)
        self._projections[moving] = tuple(_packed(t, size) for t in tables)
        return tables[0], tables[1]

    def _projected(self, moving: int) -> list[list[int]]:
        """The two tables of ``projection_tables`` for the ``sides`` bits
        ``moving`` of the values that make a pair move."""
        tables = []
        for descending, (owner, target, place, sides) in zip((True, False), self.moves):
            fires = place.translate(bytes(bool(m & moving) for m in sides).ljust(256, b"\0"))
            pairs = zip(itertools.compress(owner, fires), itertools.compress(target, fires))
            # The dict keeps an element's last moving pair: its leftmost.
            first = dict(pairs)
            table = list(range(len(self.elements)))
            for i, j in reversed(first.items()) if descending else first.items():
                if (j > i) == descending:
                    raise AssertionError(f"the move from {self.elements[i]} leaves index order")
                table[i] = table[j]
            tables.append(table)
        return tables


def _to_lanes(columns, words: int) -> list[int]:
    """The lists ``columns``, one per lane and all of one length, as one
    int per row: lane j of a row holds the row's value in column j as the
    native 64-bit words ``j * words`` onwards, low word first, read by
    ``int.from_bytes`` in ``sys.byteorder``."""
    stride = words * len(columns)
    cells = array("Q", bytes(8 * stride * len(columns[0])))
    for j, values in enumerate(columns):
        for w in range(words):
            word = values if words == 1 else map(
                _WORD.__and__, map(rshift, values, itertools.repeat(64 * w))
            )
            cells[j * words + w::stride] = array("Q", word)
    raw, size = cells.tobytes(), 8 * stride
    cuts = map(slice, range(0, len(raw), size), range(size, len(raw) + size, size))
    return list(map(int.from_bytes, map(raw.__getitem__, cuts), itertools.repeat(sys.byteorder)))


def _lane_cells(ints, words: int, lanes: int):
    """The native 64-bit words of the ints ``ints``, packed by
    ``_to_lanes``, in order, as one buffer written by ``int.to_bytes``
    in ``sys.byteorder``."""
    buffer = io.BytesIO()
    size = itertools.repeat(8 * words * lanes)
    buffer.writelines(map(int.to_bytes, ints, size, itertools.repeat(sys.byteorder)))
    return buffer.getbuffer().cast("Q")


def _lane(cells, j: int, words: int, lanes: int) -> list[int]:
    """The values of lane j of the ``_lane_cells`` ``cells``, low word
    first, read as strided slices."""
    stride = words * lanes
    values = list(cells[j * words::stride])
    for w in range(1, words):
        high = map(lshift, cells[j * words + w::stride], itertools.repeat(64 * w))
        values = list(map(or_, values, high))
    return values


def _packed(values, bound: int) -> array:
    """``values``, each below ``bound``, as an array of the narrowest
    unsigned type that holds them."""
    return array(_typecode(bound), values)


def _typecode(bound: int) -> str:
    """The narrowest unsigned array type that holds every value below
    ``bound``."""
    for limit, code in _LIMITS:
        if bound <= limit:
            return code
    raise OverflowError(f"no array type holds {bound - 1}")


_LIMITS = tuple((256 ** array(code).itemsize, code) for code in "BHIQ")


def weak_order_walk(lattice: FiniteLattice, signature) -> GroupWalk:
    """``signature.walk`` of the elements of the weak order ``lattice``,
    built on the first read and kept in ``lattice.tables`` by signature
    type, so a group is walked once per process and its memos go with
    it."""
    kind = type(signature)
    if kind not in lattice.tables:
        lattice.tables[kind] = signature.walk(lattice.elements)
    return lattice.tables[kind]


def eta_masks(elements, signature: UpDownSignature) -> list[int]:
    """``_eta_mask`` of each permutation of 1..n in ``elements``, spelled
    out from the fibers of their ``GroupWalk``."""
    distinct, places = GroupWalk(elements).eta_fibers(signature)
    return list(map(distinct.__getitem__, places))


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


def _pair_interval(a: int, b: int, before: int, shift: int) -> int:
    """The one move rule of pi_down and pi_up: the up sets U under which
    the adjacent pair a, b stays put, as an interval low | high << shift
    (low <= U, U misses high) of the values strictly between a and b,
    low those after the pair and high those in ``before``."""
    between = (1 << a) - (2 << b) if a > b else (1 << b) - (2 << a)
    return between & ~before | (between & before) << shift


def _moving(signature: UpDownSignature) -> int:
    """The down values 1..n | the up values << (n+1), which a pair's
    ``_pair_interval`` meets iff the pair moves."""
    up, shift = signature.upmask, signature.n + 1
    return ((1 << shift) - 2) ^ up | up << shift


def _first_move(x, moving: int, descending: bool) -> Optional[int]:
    """The leftmost j whose adjacent descent (ascent) x[j], x[j+1] moves
    under the ``_moving`` marks ``moving``, or None."""
    before, shift = 0, len(x) + 1
    for j, (a, b) in enumerate(zip(x, x[1:])):
        if (a > b) == descending and _pair_interval(a, b, before, shift) & moving:
            return j
        before |= 1 << a
    return None


def _project(
    x: tuple[int, ...], signature: UpDownSignature, descending: bool
) -> tuple[int, ...]:
    """Swap the pair of ``_first_move``, then start again from the left,
    until no pair moves."""
    _check_permutation(x, signature.n)
    x, moving = list(x), _moving(signature)
    while (j := _first_move(x, moving, descending)) is not None:
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
    lattice indices, read off the ``GroupWalk`` of the lattice's elements.

    An element no move changes is its own projection; otherwise its
    projection is that of the element ``_first_move`` swaps it to, which
    is the next step ``_project`` takes.  A move goes to a lower (upper)
    cover, which the lattice's linear extension puts before (after) the
    element.
    """
    return GroupWalk(lattice.elements).projection_tables(signature)


def is_pi_down_fixed(x: tuple[int, ...], signature: UpDownSignature) -> bool:
    """Whether pi_down fixes x, that is, x avoids up231 and 31down2."""
    return pi_down(x, signature) == tuple(x)


def is_pi_up_fixed(x: tuple[int, ...], signature: UpDownSignature) -> bool:
    """Whether pi_up fixes x, that is, x avoids up213 and 13down2."""
    return pi_up(x, signature) == tuple(x)


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


def _walls(sets, orbits) -> dict:
    """Each wall ``s - orbit`` of the sets s in ``sets``, for every orbit
    in ``orbits(s)``, mapped to the positions of the sets that hold it, in
    order of first occurrence.  An orbit is any iterable of members of s:
    ``zip`` makes each member an orbit of its own."""
    walls = {}
    for i, s in enumerate(sets):
        for orbit in orbits(s):
            walls.setdefault(s.difference(orbit), []).append(i)
    return walls


def _flip_order(items, sets, orbits, lower) -> FiniteLattice:
    """``items`` ordered across flips: item i has the set ``sets[i]``, and
    two items whose sets share a wall (``_walls``) trade one orbit for
    another.  ``lower(gone, came)`` says whether the item that gives up
    ``gone`` for ``came`` is the lower.  The covers go to ``built_lattice``
    in sorted index-pair order, which its linear extension follows."""
    walls = _walls(sets, orbits).values()
    covers = []
    for i, j in sorted(p for group in walls for p in itertools.combinations(group, 2)):
        gone, came = sets[i] - sets[j], sets[j] - sets[i]
        covers.append((i, j) if lower(gone, came) else (j, i))
    return built_lattice(items, covers)


def triangulation_lattice(signature: UpDownSignature) -> FiniteLattice:
    """Lattice of triangulations of Q under slope-increasing flips: each
    diagonal flips alone."""
    polygon = polygon_from_signature(signature)
    tris = all_triangulations(polygon)
    return _flip_order(
        tris, [t.diagonals for t in tris], zip,
        lambda gone, came: polygon.slope_less(min(gone), min(came)),
    )


# ---------------------------------------------------------------------------
# Descents from a triangulation.


def _diagonal_mask(tri: TriangulationA) -> int:
    """The diagonals (u, w) of ``tri`` as bits u(n+2) + w, the inverse of
    ``_mask_diagonals``."""
    stride = tri.n + 2
    return sum(1 << (u * stride + w) for u, w in tri.diagonals)


def _mask_sides(mask: int, n: int) -> tuple[int, int]:
    """(beyond, adjacent) of the triangulation of the (n+2)-gon whose
    diagonals are the bits of ``mask``: bit a of ``beyond`` says a diagonal
    leaves a towards some b > a+1, bit a of ``adjacent`` that (a, a+1) is
    a diagonal.  No signature is read, so the masks of a group are read
    once for all its signatures."""
    stride = n + 2
    beyond = adjacent = 0
    for a in range(1, n):
        row = mask >> (a * stride + a + 1)
        adjacent |= (row & 1) << a
        if row >> 1 & ((1 << (n - a)) - 1):
            beyond |= 1 << a
    return beyond, adjacent


def _case_descents(sides: tuple[int, int], signature: UpDownSignature, ones: int = 1) -> int:
    """Mask of the a in 1..n-1 for which (a, a+1) is a descent of the
    triangulation with ``_mask_sides`` ``sides``, for every a at once.
    Where a and a+1 have one colour the descent is a diagonal beyond a,
    where they differ the diagonal (a, a+1); an up a reverses either.

    With ``ones`` the sum of 1 << kw over lanes k of w > n bits, and
    ``sides`` one pair per lane, it gives every lane's mask at once: the
    marks are repeated in each lane, and shifting them by one moves a
    lane's bit 0, never marked, into the top bit of the lane below, above
    the bits kept."""
    beyond, adjacent = sides
    up = signature.upmask * ones
    same = ~(up ^ up >> 1)
    return ((beyond ^ up) & same | (adjacent ^ up) & ~same) & ((1 << signature.n) - 2) * ones


def _case_rows(sides, signature: UpDownSignature) -> list[int]:
    """``_case_descents`` of each (beyond, adjacent) pair in the list
    ``sides``, in one call: each pair is a lane, one item of the
    narrowest array type that holds n+1 bits, packed into an int by
    ``int.from_bytes`` and read back by ``int.to_bytes``."""
    if not sides:
        return []
    code, order = _typecode(2 << signature.n), sys.byteorder
    beyond, adjacent = (int.from_bytes(array(code, part).tobytes(), order) for part in zip(*sides))
    ones = int.from_bytes(array(code, [1]).tobytes() * len(sides), order)
    rows = _case_descents((beyond, adjacent), signature, ones)
    return memoryview(rows.to_bytes(array(code).itemsize * len(sides), order)).cast(code).tolist()


def descent_set_of_triangulation(
    tri: TriangulationA, signature: UpDownSignature
) -> frozenset[tuple[int, int]]:
    """Reflections (a, a+1) that are descents, by the two colour cases."""
    (descents,) = signature.descents([signature.sides(_diagonal_mask(tri))])
    return frozenset((a, a + 1) for a in _members(descents))


# ---------------------------------------------------------------------------
# Shard arrows and Cambrian forcing for type A.


def _ji_bounds(n: int, members: frozenset[int]) -> tuple[int, int]:
    bounds = ji_subset_bounds(n, members)
    if bounds is None:
        raise ValueError(f"{sorted(members)} is not a join-irreducible subset")
    return bounds


def shard_arrow_a(n: int, a1: frozenset[int], a2: frozenset[int]) -> bool:
    """Forcing arrow between type-A join-irreducibles by subset conditions."""
    m1, big_m1 = _ji_bounds(n, a1)
    m2, big_m2 = _ji_bounds(n, a2)
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
    """Each node's reach in ``graph`` (node -> its targets), without the
    node itself: ``_transitive``, the forcing table's sparse closure,
    closes the target masks of the nodes numbered in order."""
    nodes = list(graph)
    number = {a: i for i, a in enumerate(nodes)}
    reach = _transitive([sum(1 << number[b] for b in graph[a]) for a in nodes])
    return {a: frozenset(nodes[j] for j in _members(reach[i]) if j != i) for i, a in enumerate(nodes)}


def ji_contracted_a(signature: UpDownSignature, members: frozenset[int]) -> bool:
    """Whether the Cambrian congruence contracts the join-irreducible of A:
    some b strictly between m and M is up exactly when b is not in A."""
    m, big_m = _ji_bounds(signature.n, members)
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
