"""Cambrian congruences and lattices from diagram orientations.

An orientation assigns a direction to every edge of the Coxeter diagram.
Each directed edge s -> t contributes the generating pair (t, tst...)
with m(s, t) - 1 letters; the Cambrian congruence is the smallest
lattice congruence of the weak order identifying each pair, and the
Cambrian lattice is the resulting quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coxeter import CoxeterSystem
from .lattices import (
    FiniteLattice,
    LatticeCongruence,
    _lsb,
    _members,
    built_lattice,
    congruence_closure,
    congruence_from_partition,
    poset_anti_isomorphism,
    poset_isomorphism,
    quotient_lattice,
)


class NotCambrianError(ValueError):
    """Raised when a lattice fails the Cambrian reconstruction shape."""


@dataclass(frozen=True)
class Orientation:
    """A direction for each diagram edge, with its bond label."""

    vertices: tuple
    edges: tuple[tuple[object, object, int], ...]

    def __post_init__(self):
        undirected = [frozenset((s, t)) for s, t, _ in self.edges]
        if len(set(undirected)) != len(undirected):
            raise ValueError("repeated diagram edge")
        for s, t, m in self.edges:
            if s not in self.vertices or t not in self.vertices or m <= 2:
                raise ValueError(f"bad edge {(s, t, m)}")

    def reverse(self) -> "Orientation":
        return Orientation(
            self.vertices, tuple((t, s, m) for s, t, m in self.edges)
        )

    def __str__(self) -> str:
        return ",".join(f"{s}>{t}" for s, t, _ in self.edges)


def diagram_edges(system: CoxeterSystem) -> list[tuple[object, object, int]]:
    """Undirected diagram edges (s, t, m) with m > 2, s before t."""
    names = system.generator_names
    out = []
    for i, s in enumerate(names):
        for t in names[i + 1 :]:
            m = system.bond_label(s, t)
            if m > 2:
                out.append((s, t, m))
    return out


def orientation_from_edges(system: CoxeterSystem, directed) -> Orientation:
    """Build an orientation from directed pairs (s, t), one per edge."""
    wanted = {frozenset((s, t)): m for s, t, m in diagram_edges(system)}
    seen = {}
    for s, t in directed:
        key = frozenset((s, t))
        if key not in wanted:
            raise ValueError(f"{s}>{t} is not a diagram edge")
        if key in seen:
            raise ValueError(f"edge {{{s},{t}}} directed twice")
        seen[key] = (s, t, wanted[key])
    missing = set(wanted) - set(seen)
    if missing:
        raise ValueError(f"undirected diagram edges remain: {sorted(map(sorted, missing))}")
    edges = tuple(seen[frozenset((s, t))] for s, t, _ in diagram_edges(system))
    return Orientation(tuple(system.generator_names), edges)


def parse_orientation(system: CoxeterSystem, text: str) -> Orientation:
    """Parse "1>2,3>2" over generator names into an orientation."""
    name_of = {str(g): g for g in system.generator_names}
    directed = []
    for part in text.split(",") if text else []:
        part = part.strip()
        if part.count(">") != 1:
            raise ValueError(f"bad edge token {part!r}")
        a, b = part.split(">")
        if a.strip() not in name_of or b.strip() not in name_of:
            raise ValueError(f"unknown generator in {part!r}")
        directed.append((name_of[a.strip()], name_of[b.strip()]))
    return orientation_from_edges(system, directed)


def all_orientations(system: CoxeterSystem) -> list[Orientation]:
    base = diagram_edges(system)
    out = []
    for flips in itertools.product([False, True], repeat=len(base)):
        directed = [
            (t, s) if flip else (s, t)
            for (s, t, _), flip in zip(base, flips)
        ]
        out.append(orientation_from_edges(system, directed))
    return out


def generating_pairs(system: CoxeterSystem, orientation: Orientation):
    """For each directed edge s -> t, the pair (t, tst... with m-1 letters)."""
    pairs = []
    for s, t, m in orientation.edges:
        word = [t if k % 2 == 0 else s for k in range(m - 1)]
        pairs.append((system.generator(t), system.from_word(word)))
    return pairs


@dataclass(frozen=True)
class CambrianLattice:
    system: CoxeterSystem
    orientation: Orientation
    congruence: LatticeCongruence
    quotient: FiniteLattice

    @property
    def class_representatives(self):
        """The minimal element of each congruence class."""
        lattice = self.congruence.lattice
        return [lattice.elements[cls[0]] for cls in self.congruence.classes]


def cambrian_congruence(
    system: CoxeterSystem, orientation: Orientation
) -> LatticeCongruence:
    lattice = system.weak_order_lattice()
    pairs = [
        (lattice.index[a], lattice.index[b])
        for a, b in generating_pairs(system, orientation)
    ]
    return congruence_closure(lattice, pairs)


def cambrian_lattice(
    system: CoxeterSystem, orientation: Orientation
) -> CambrianLattice:
    cong = cambrian_congruence(system, orientation)
    return CambrianLattice(system, orientation, cong, quotient_lattice(cong))


def recover_orientation(lattice: FiniteLattice, system: CoxeterSystem) -> Orientation:
    """Reconstruct the orientation from a Cambrian lattice's atom joins.

    Vertices are the atoms, named by the generator of ``system`` each one is.
    """
    name = system.generator_of_atom
    bottom = lattice.bottom
    atoms = lattice.atoms()
    edges = []
    for s, t in itertools.combinations(atoms, 2):
        top = lattice.join(s, t)
        interval = lattice.interval(bottom, top)
        if len(interval) == 4:
            continue
        side_s = [z for z in interval if lattice.le(s, z) and z != top]
        side_t = [z for z in interval if lattice.le(t, z) and z != top]
        shape_ok = (
            len(interval) == 2 + len(side_s) + len(side_t)
            and not (set(side_s) & set(side_t))
            and all(
                lattice.le(a, b) or lattice.le(b, a)
                for side in (side_s, side_t)
                for a, b in itertools.combinations(side, 2)
            )
        )
        if not shape_ok:
            raise NotCambrianError(f"interval over atoms {s}, {t} is not two chains")
        long_atom, short_len, long_len = (
            (s, len(side_t), len(side_s))
            if len(side_s) > len(side_t)
            else (t, len(side_s), len(side_t))
        )
        if short_len != 1 or long_len < 2:
            raise NotCambrianError(
                f"interval over atoms {s}, {t} has chain lengths "
                f"{short_len + 2} and {long_len + 2}"
            )
        m = long_len + 1
        source, sink = (s, t) if long_atom == s else (t, s)
        edges.append((name(lattice.elements[source]), name(lattice.elements[sink]), m))
    return Orientation(
        tuple(name(lattice.elements[a]) for a in atoms), tuple(edges)
    )


# ---------------------------------------------------------------------------
# Isomorphism and anti-isomorphism of Cambrian lattices.


def _diagram_maps(a: Orientation, b: Orientation) -> bool:
    """A vertex bijection carrying directed edges of a onto those of b."""
    eb = {(s, t): m for s, t, m in b.edges}
    for perm in itertools.permutations(b.vertices):
        phi = dict(zip(a.vertices, perm))
        if {(phi[s], phi[t]): m for s, t, m in a.edges} == eb:
            return True
    return False


def check_iso_anti_iso(system: CoxeterSystem, a: Orientation, b: Orientation) -> dict:
    """Diagram-level decision, confirmed by lattice-level search: b is an
    anti-image of a when it is an image of a reversed."""
    iso = _diagram_maps(a, b)
    anti = _diagram_maps(a.reverse(), b)
    la = cambrian_lattice(system, a).quotient
    lb = cambrian_lattice(system, b).quotient
    lat_iso = poset_isomorphism(la, lb) is not None
    lat_anti = poset_anti_isomorphism(la, lb) is not None
    verdict = {
        (True, True): "both",
        (True, False): "iso",
        (False, True): "anti-iso",
        (False, False): "neither",
    }[(iso, anti)]
    return {
        "diagram": verdict,
        "lattice_iso": lat_iso,
        "lattice_anti_iso": lat_anti,
        "consistent": (iso <= lat_iso) and (anti <= lat_anti),
    }


# ---------------------------------------------------------------------------
# Descent map and parabolic restriction.


def descent_quotient_check(system: CoxeterSystem, orientation: Orientation):
    """Classwise descents respect joins (union) and meets (intersection),
    compared as masks of generator positions, one generator s at a time
    (``_descents_respected``): the classes lacking s must be a down-set
    closed under joins, and down-set plus join-closed means principal
    ideal; those having s an up-set closed under meets, and up-set plus
    meet-closed means principal filter."""
    quotient = cambrian_lattice(system, orientation).quotient
    bit = {name: 1 << k for k, name in enumerate(system.generator_names)}
    delta = [sum(bit[s] for s in system.left_descents(e)) for e in quotient.elements]
    return _descents_respected(quotient, delta)


def _descents_respected(quotient: FiniteLattice, delta: list):
    """Whether the masks ``delta`` of the elements of ``quotient`` take
    joins to unions and meets to intersections, as (True, None) or
    (False, the first failing pair of ``_descent_pair_scan``).

    It is decided one bit s at a time.  Joins respect s iff the elements
    lacking s form a down-set closed under joins (s is missing from x v y
    iff it is missing from x and y, and z = x v z when x <= z), and a
    down-set plus join-closed means principal ideal.  Dually, meets
    respect s iff the elements having s form an up-set closed under meets,
    and an up-set plus meet-closed means principal filter.  Index order is
    a linear extension, so an ideal's top is its highest member and a
    filter's bottom its lowest; an empty set holds s vacuously.  Only a
    failing bit runs the pair scan."""
    down, up, every = quotient.down, quotient.up, (1 << quotient.n) - 1
    for k in range(max(delta, default=0).bit_length()):
        has = sum(1 << i for i, d in enumerate(delta) if d >> k & 1)
        lacks = every ^ has
        if lacks and lacks != down[lacks.bit_length() - 1] or has and has != up[_lsb(has)]:
            witness = _descent_pair_scan(quotient, delta)
            if witness is None:
                raise AssertionError(
                    f"the elements with and without descent bit {k} are "
                    "no filter and ideal, but no pair breaks a join or meet"
                )
            return False, witness
    return True, None


def _descent_pair_scan(quotient: FiniteLattice, delta: list):
    """The first pair of indices x <= y, in ``combinations_with_replacement``
    order, whose join or meet the descent masks ``delta`` do not respect,
    as (x, y, "join" or "meet") with x and y the quotient's elements;
    None when every pair respects both."""
    for x, y in itertools.combinations_with_replacement(range(quotient.n), 2):
        if delta[quotient.join(x, y)] != delta[x] | delta[y]:
            return quotient.elements[x], quotient.elements[y], "join"
        if delta[quotient.meet(x, y)] != delta[x] & delta[y]:
            return quotient.elements[x], quotient.elements[y], "meet"
    return None


def parabolic_restriction_check(system: CoxeterSystem, orientation: Orientation, K):
    """Restricting the congruence to W_K matches the sub-orientation's one.
    W_K is the weak-order down-set of w0(K), where a walk from e up by
    ascents in K ends: w <= w0(K) iff the inversions of w are roots of K."""
    K = frozenset(K)
    cong = cambrian_congruence(system, orientation)
    lattice = cong.lattice
    top = system.identity()
    while ascents := [s for s in K if not system.is_right_descent(top, s)]:
        top = system.right_multiply(top, ascents[0])
    member_idx = _members(lattice.down[lattice.index[top]])
    pos = {i: k for k, i in enumerate(member_idx)}
    covers = [
        (pos[i], pos[j])
        for i in member_idx
        for j in lattice.upper[i]
        if j in pos
    ]
    sub = built_lattice(tuple(lattice.elements[i] for i in member_idx), covers)

    restricted: dict[int, list[int]] = {}
    for i in member_idx:
        restricted.setdefault(cong.class_of[i], []).append(
            sub.index[lattice.elements[i]]
        )
    restricted_cong = congruence_from_partition(sub, list(restricted.values()))

    edge_pairs = zip(orientation.edges, generating_pairs(system, orientation))
    sub_pairs = [
        (sub.index[x], sub.index[y])
        for (s, t, _), (x, y) in edge_pairs
        if s in K and t in K
    ]
    sub_cong = congruence_closure(sub, sub_pairs)
    # Both number their classes by first member, so equal lists are equal
    # partitions.
    return restricted_cong.class_of == sub_cong.class_of
