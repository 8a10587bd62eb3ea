"""The type-B polygon model: centrally symmetric triangulations.

Type B runs on the type-A polygon of the doubled signature, the
(2n+2)-gon.  The value map of ``embed_b_in_a`` sends signed label i to
i+n+1 for i < 0 and to i+n for i > 0, so -(n+1) sits at 0 and n+1 at
2n+1.  ``eta_b`` is eta of the embedding, checked to be fixed by the
central symmetry.  The descent case table is the doubled one shifted by
n: positions n and n+1 hold -1 and 1, of opposite colours, so their
mixed case is the s_0 rule.  The flip lattice is ``_flip_order`` over the
orbits of the symmetry: a diameter flips alone and a mirror pair
together.

``SymmetricSignature`` has the four polygon methods of
``UpDownSignature``, so the suites and the fan checks read eta and the
descent case table the same way in both types: ``walk`` (the
``GroupWalk`` of the embedded elements), ``eta_fibers`` (the doubled
signature's, each distinct mask checked to be centrally symmetric, a
refusal naming the signed element of the first asymmetric fiber),
``sides`` (a mask's signature-free sides on the (2n+2)-gon) and
``descents`` (the shifted case table).  ``eta`` and ``eta_b``, one
element at a time, are kept as the public API and as test oracles.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NoReturn

from .coxeter import (
    _b_value_to_a,
    all_signed_ji_subsets,
    embed_b_in_a,
    project_a_to_b,
    signed_ji_bounds,
    signed_ji_members_valid,
)
from .lattices import FiniteLattice, _members
from .polygon_a import (
    GroupWalk,
    PolygonQ,
    TriangulationA,
    UpDownSignature,
    _case_rows,
    _chain_triangulations,
    _diagonal_mask,
    _flip_order,
    _mask_diagonals,
    _mask_sides,
    _orientation_edges,
    eta,
    polygon_from_signature,
)

B_TAMARI_PATTERNS = {
    "toward_s0": (
        (-2, -1),
        (2, -1),
        (-2, 3, 1),
        (-1, 2, -3),
        (1, 2, -3),
        (2, 3, 1),
    ),
    "away_from_s0": (
        (-2, 1),
        (1, -2),
        (-2, -1, -3),
        (-1, 3, -2),
        (3, -1, 2),
        (3, 1, 2),
    ),
}


@dataclass(frozen=True)
class SymmetricSignature:
    """Antisymmetric up/down marking of +-[n]: i up iff -i down."""

    n: int
    ups: frozenset[int]

    def __post_init__(self):
        values = {v for v in range(-self.n, self.n + 1) if v != 0}
        if not self.ups <= values:
            raise ValueError(f"ups outside +-[{self.n}]")
        for v in values:
            if (v in self.ups) == (-v in self.ups):
                raise ValueError(f"signature not antisymmetric at {v}")

    @classmethod
    def from_positive_ups(cls, n: int, positive_part) -> "SymmetricSignature":
        """Signature from the set of up indices among 1..n."""
        pos = frozenset(positive_part)
        ups = pos | frozenset(-i for i in range(1, n + 1) if i not in pos)
        return cls(n, ups)

    def to_string(self) -> str:
        """The up/down string of 1..n, e.g. "udu"."""
        return "".join("u" if i in self.ups else "d" for i in range(1, self.n + 1))

    def is_up(self, i: int) -> bool:
        return i in self.ups

    def bridge(self, i: int) -> int:
        """Signed label in +-[n+1] to type-A vertex label 0..2n+1."""
        return _b_value_to_a(i, self.n)

    def a_signature(self) -> UpDownSignature:
        return UpDownSignature(
            2 * self.n, frozenset(self.bridge(i) for i in self.ups)
        )

    @cached_property
    def polygon(self) -> PolygonQ:
        """The (2n+2)-gon of the doubled signature, built once."""
        return polygon_from_signature(self.a_signature())

    def orientation_edges(self) -> tuple[tuple[int, int], ...]:
        """Directed B-diagram edges (s, t), b = 1..n-1."""
        return _orientation_edges(self.ups, range(1, self.n))

    def walk(self, elements) -> GroupWalk:
        """The ``GroupWalk`` of the signed permutations, embedded in S_2n."""
        return GroupWalk([embed_b_in_a(x) for x in elements])

    def eta_fibers(self, walk: GroupWalk) -> tuple[tuple[int, ...], array]:
        """The doubled signature's ``eta_fibers`` of ``walk``, each distinct
        mask checked to be centrally symmetric: the first that is not
        raises, naming the signed element that first has it."""
        distinct, places = walk.eta_fibers(self.polygon.signature)
        two_n = 2 * self.n
        for k, mask in enumerate(distinct):
            if not _is_symmetric(_mask_diagonals(mask, two_n), two_n):
                _refuse_asymmetric(project_a_to_b(walk.elements[places.index(k)]))
        return distinct, places

    def sides(self, mask: int) -> tuple[int, int]:
        """``_mask_sides`` of a diagonal mask of the (2n+2)-gon."""
        return _mask_sides(mask, 2 * self.n)

    def descents(self, sides) -> list[int]:
        """Left descents, bit i for s_i, of the triangulation of each
        ``sides`` pair in the list ``sides``: the doubled signature's case
        table shifted by n."""
        return [row >> self.n for row in _case_rows(sides, self.polygon.signature)]


@dataclass(frozen=True)
class TriangulationB:
    """A centrally symmetric triangulation, with signed vertex labels."""

    signature: SymmetricSignature
    base: TriangulationA


def _mirror(d: tuple[int, int], two_n: int) -> tuple[int, int]:
    """The diagonal (p, q), p < q, under the central symmetry p -> 2n+1-p."""
    return (two_n + 1 - d[1], two_n + 1 - d[0])


def _is_symmetric(tri: frozenset[tuple[int, int]], two_n: int) -> bool:
    return all(_mirror(d, two_n) in tri for d in tri)


def eta_b(x: tuple[int, ...], signature: SymmetricSignature) -> TriangulationB:
    base = eta(embed_b_in_a(x), signature.polygon)
    if not _is_symmetric(base.diagonals, 2 * signature.n):
        _refuse_asymmetric(x)
    return TriangulationB(signature, base)


def _refuse_asymmetric(x: tuple[int, ...]) -> NoReturn:
    """Refuse eta_b(x), for ``eta_b`` and ``eta_fibers`` alike."""
    raise AssertionError(f"eta_b({x}) is not centrally symmetric")


# ---------------------------------------------------------------------------
# Join-irreducible contraction and shard arrows.


def ji_contraction_test_b(
    n: int, members: frozenset[int], signature: SymmetricSignature
) -> bool:
    """Whether the type-B Cambrian congruence contracts the ji of signed A:
    some nonzero b strictly between m and M is up exactly when b is not
    in A."""
    if not signed_ji_members_valid(n, members):
        raise ValueError(f"{sorted(members)} is not a valid signed subset")
    m, big_m = signed_ji_bounds(n, members)
    return any(
        (b in members) != signature.is_up(b) for b in range(m + 1, big_m) if b != 0
    )


def b_shard_arrow(n: int, a1: frozenset[int], a2: frozenset[int]) -> bool:
    """Forcing arrow between type-B join-irreducibles (signed subsets)."""
    for members in (a1, a2):
        if not signed_ji_members_valid(n, members):
            raise ValueError(f"{sorted(members)} is not a join-irreducible subset")
    m1, big_m1 = signed_ji_bounds(n, a1)
    m2, big_m2 = signed_ji_bounds(n, a2)
    values = frozenset(v for v in range(-n, n + 1) if v != 0)
    a2c = values - a2
    pm_a2 = frozenset(v for a in a2 for v in (a, -a))

    def window(lo, hi):
        return frozenset(v for v in values if lo < v < hi)

    def f_cond(a: int) -> bool:
        if a in a2:
            return True
        if a in a2c - {-big_m2, -m2} and -a not in (a2 & window(m2, big_m2)):
            return True
        if a in {-big_m2, -m2}:
            mid = (values - pm_a2) & window(m2, big_m2) & window(-big_m2, -m2)
            return not mid
        return False

    w1 = window(m1, big_m1)
    r1 = (a1 & w1) == (a2 & w1)
    r2 = (a1 & w1) == (frozenset(-v for v in a2c) & w1)

    if -m1 == big_m1 < big_m2 == -m2 and r1:
        return True
    if -m2 == big_m2 == big_m1 and big_m1 > m1 > 0 and r1:
        return True
    if big_m2 == big_m1 > m1 > m2 and m2 != -big_m2 and f_cond(m1) and r1:
        return True
    if big_m2 > big_m1 > m1 and m1 == m2 != -big_m2 and f_cond(big_m1) and r1:
        return True
    if -m2 == big_m1 > m1 > -big_m2 and -big_m2 != m2 and f_cond(-m1) and r2:
        return True
    if -m2 > big_m1 > m1 and m1 == -big_m2 != m2 and f_cond(-big_m1) and r2:
        return True
    return False


def shard_digraph_b(n: int) -> dict[frozenset[int], frozenset[frozenset[int]]]:
    nodes = all_signed_ji_subsets(n)
    return {
        x: frozenset(y for y in nodes if y != x and b_shard_arrow(n, x, y))
        for x in nodes
    }


# ---------------------------------------------------------------------------
# B-Tamari pattern characterization.


_PATTERN_LENGTHS = sorted({len(p) for patterns in B_TAMARI_PATTERNS.values() for p in patterns})


def _signed_subpatterns(x: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The signed standardizations of the subsequences of x whose length is
    that of a B-Tamari pattern.  x avoids a pattern of those lengths iff
    the pattern is not in this set (``contains_signed_pattern`` is the
    one-pattern oracle)."""
    if 0 in x or len({abs(v) for v in x}) != len(x):
        raise ValueError(f"{x} has repeated or zero absolute values")
    found = set()
    for k in _PATTERN_LENGTHS:
        for sub in itertools.combinations(x, k):
            absolutes = sorted(map(abs, sub))
            found.add(tuple(
                absolutes.index(v) + 1 if v > 0 else -1 - absolutes.index(-v) for v in sub
            ))
    return found


def b_tamari_membership(x: tuple[int, ...], variant: str) -> bool:
    if variant not in B_TAMARI_PATTERNS:
        raise ValueError(f"unknown variant {variant!r}")
    return _signed_subpatterns(x).isdisjoint(B_TAMARI_PATTERNS[variant])


def b_tamari_avoiders(elements) -> dict[str, set]:
    """Each variant's pattern avoiders among ``elements``, in one pass that
    standardizes each element's subsequences once for both variants."""
    avoiders = {variant: set() for variant in B_TAMARI_PATTERNS}
    for x in elements:
        found = _signed_subpatterns(x)
        for variant, patterns in B_TAMARI_PATTERNS.items():
            if found.isdisjoint(patterns):
                avoiders[variant].add(x)
    return avoiders


def linear_signature(n: int, variant: str) -> SymmetricSignature:
    """The signature whose orientation is the linear one of the variant."""
    if variant == "toward_s0":
        return SymmetricSignature.from_positive_ups(n, range(1, n + 1))
    if variant == "away_from_s0":
        return SymmetricSignature.from_positive_ups(n, ())
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# The lattice of centrally symmetric triangulations.


def symmetric_triangulations(signature: SymmetricSignature) -> list[TriangulationB]:
    """The C(2n, n) centrally symmetric triangulations of the polygon.

    Each has exactly one diameter, which cuts the polygon into two halves
    that the symmetry swaps; a triangulation of one half and its mirror
    image give each of them once.
    """
    n = signature.n
    polygon = signature.polygon
    a_sig, cycle = polygon.signature, polygon.boundary_cycle()
    out = []
    for k in range(n + 1):
        half = cycle[k : k + n + 2]
        diameter = {tuple(sorted((half[0], half[-1])))}
        for chords in _chain_triangulations(half):
            diagonals = chords | {_mirror(d, 2 * n) for d in chords} | diameter
            base = TriangulationA(a_sig.n, a_sig.ups, diagonals)
            out.append(TriangulationB(signature, base))
    return out


def symmetric_triangulation_lattice(signature: SymmetricSignature) -> FiniteLattice:
    """Symmetric triangulations under diameter flips and symmetric flip
    pairs: a diameter flips to a diameter, a mirror pair to a mirror pair."""
    two_n, polygon = 2 * signature.n, signature.polygon
    tris = symmetric_triangulations(signature)
    # Central symmetry keeps slopes: either diagonal of a pair orients it.
    return _flip_order(
        tris, [t.base.diagonals for t in tris],
        lambda s: {frozenset((d, _mirror(d, two_n))) for d in s},
        lambda gone, came: polygon.slope_less(min(gone), min(came)),
    )


# ---------------------------------------------------------------------------
# Descents of a symmetric triangulation.


def descent_set_b(tri: TriangulationB) -> frozenset[int]:
    """Left descents as generator names 0..n-1, read off the triangulation."""
    sig = tri.signature
    (descents,) = sig.descents([sig.sides(_diagonal_mask(tri.base))])
    return frozenset(_members(descents))


@lru_cache(maxsize=None)
def all_symmetric_signatures(n: int) -> tuple[SymmetricSignature, ...]:
    """The signatures of +-[n], built once per n, so that each keeps its
    polygon from one suite run to the next."""
    return tuple(
        SymmetricSignature.from_positive_ups(n, frozenset(i + 1 for i, b in enumerate(bits) if b))
        for bits in itertools.product([False, True], repeat=n)
    )
