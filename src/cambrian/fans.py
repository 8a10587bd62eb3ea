"""Fans: region cones, Cambrian fan rays, cluster machinery, fan checks.

Type-A geometry lives in the sum-zero hyperplane of an n-coordinate
space; the type-B fan is the restriction of the type-A fan of the
doubled polygon to the antisymmetric subspace; the H3 fan is read off
the root permutations of the generic engine, with no field arithmetic.

Inside the module the A and B rays are integers: n * ray in S_n and 2n
* ray in B_n, where rank, cone membership and wall sides are unchanged.
Only ``ray_vector``, ``region_cone`` and ``fan_to_json`` divide, at the
public boundary.  One table, ``_rays_and_diagonals``, pairs each ray
subset with its polygon diagonal, and the ray list, the ray-to-diagonal
map and its inverse all read it.  In both types a fan ray is keyed by
its diagonal: a cone is the sorted diagonals of a triangulation.

Every fan check builds the cone of each Cambrian class and a
side-of-wall test, then hands them to one report (``_fan_faces``): wall
pairing, dual graph against the Hasse diagram, and f-vector.  In A and B
a cone is spanned by the rays of the class bottom's triangulation, which
``_class_diagonals`` reads off the same whole-group eta tables as the
suites, through the signature's ``walk`` and ``eta_masks``; one
elimination per cone gives its facet normals, and one class loop
(``_check_fan_ab``) reads off them its rank, the regions and rays it
holds, and its wall sides; the member regions' rays come from one table
per weak order (``_region_table``), and each class tests its distinct
member rays once.  The internal checks ``_check_fan_a``/``_check_fan_b``
take the Cambrian lattice, so that the fan suite builds each
orientation's lattice once.  A cone's normals depend on its ray vectors
alone, so ``_inward_normals`` is cached for the process, like the region
and chamber tables: each distinct cone is eliminated once, whichever
signature, suite or command meets it first.

In H3 a cone is cut out by the walls that leave its class: the wall of
w's chamber opposite w * omega_k bounds the class exactly when w * s_k is
in another class.  Everything but the classes is fixed by the group, so
one chamber table per weak order (``_chamber_table``) holds the three
rays, neighbours and wall reflections of each chamber.  A ray is keyed by
its sign vector over the 15 reflections, the side of each hyperplane it
lies on: <beta, w * omega_k> = <w^-1 beta, omega_k> has the sign of the
alpha_k coordinate of the root w^-1(beta), which the root permutation w
names (Reading-Speyer, "Cambrian fans").  Each orientation is then a
pass of table lookups.

The cluster model depends on n alone, so ``clusters`` is cached per n
and returns one frozen complex per n to every suite check and lattice
that reads it; ``nice_coroot`` scans the positive roots in one cached
order per n.  The cluster posets are the polygon model's flip order
(``polygon_a._flip_order``): A clusters trade one root, B clusters one
chi-orbit of roots, and the lower cluster gives up the orbit with the
smaller rotation number.  The cluster fan's walls, for the nice-coroot
and refinement checks, and the wall pairing of ``_fan_faces`` are read
off the same index of walls (``_walls``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from operator import mul

from .congruences import CambrianLattice, Orientation, cambrian_lattice, orientation_from_edges
from .coxeter import CoxeterSystem, embed_b_in_a, get_system
from .lattices import FiniteLattice
from .polygon_a import (
    UpDownSignature,
    _flip_order,
    _mask_diagonals,
    _walls,
    all_triangulations,
    polygon_from_signature,
)
from .polygon_b import SymmetricSignature, _mirror

# ---------------------------------------------------------------------------
# Exact linear algebra over the integers.  Scaling a ray by a positive
# integer changes no rank, cone or wall side, so the fan checks run on
# integer rays; one elimination per cone gives its facet normals.


def _echelon(rows):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows.

    Returns (rows, pivot columns, d).  Each entry stays an integer minor
    of the input, so every division is exact; every pivot entry ends up
    equal to d, the last pivot (1 when there is none), and pivot row i
    reads d*x[pivots[i]] + sum over non-pivot columns j of row[j]*x[j].
    """
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    d = 1
    for col in range(cols):
        k = len(pivots)
        if k == len(rows):
            break
        pivot = next((r for r in range(k, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        lead = top[col]
        for r, row in enumerate(rows):
            if r != k:
                f = row[col]
                rows[r] = [(lead * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(col)
        d = lead
    return rows, pivots, d


def _rank(vectors) -> int:
    return len(_echelon(vectors)[1])


@lru_cache(maxsize=None)
def _inward_normals(rays: tuple, lineality: tuple = ()):
    """Integer b_i, one per ray, with b_i . ray_j = d * [i == j] for one
    d > 0 and b_i . l = 0 for each lineality vector l; None unless the rays
    and the lineality form a basis.  The b_i are the rows of d times the
    inverse of the basis, which one elimination leaves beside the identity.
    Rays and lineality are tuples of integer tuples, the cache's key.
    """
    basis = [*rays, *lineality]
    dim = len(basis)
    if any(len(v) != dim for v in basis):
        return None
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    matrix = [[*coords, *e] for coords, e in zip(zip(*basis), identity)]
    rows, pivots, d = _echelon(matrix)
    if pivots != list(range(dim)):
        return None
    return tuple(tuple(x if d > 0 else -x for x in row[dim:]) for row in rows[: len(rays)])


def _dot(u, v):
    return sum(map(mul, u, v))


# ---------------------------------------------------------------------------
# Region cones and Cambrian fan rays (type A).


@dataclass(frozen=True)
class RationalCone:
    """A pointed cone given by extreme rays, with optional facet data."""

    rays: tuple
    facets: tuple = ()


def _int_ray(n: int, members: frozenset[int]) -> tuple[int, ...]:
    """n * ray_vector(n, members): n on the subset, minus its size."""
    size = len(members)
    return tuple((n if i in members else 0) - size for i in range(1, n + 1))


def _divided(ray, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, d) for x in ray)


def ray_vector(n: int, members: frozenset[int]) -> tuple[Fraction, ...]:
    """Indicator of the subset, projected to the sum-zero hyperplane."""
    return _divided(_int_ray(n, members), n)


def _suffix_rays_a(x: tuple[int, ...]):
    """Extreme rays of the weak-order region of a permutation, times n.

    The region of x is the chain p_{x_1} <= ... <= p_{x_n}; its extreme
    rays (modulo the all-ones lineality) are the projected indicators of
    the suffix value sets of the one-line notation.
    """
    n = len(x)
    return [_int_ray(n, frozenset(x[k:])) for k in range(1, n)]


def region_cone(x: tuple[int, ...], family: str = "A") -> RationalCone:
    n = len(x)
    if family == "A":
        facets = tuple((x[i], x[i + 1]) for i in range(n - 1))
        return RationalCone(tuple(_divided(r, n) for r in _suffix_rays_a(x)), facets)
    if family == "B":
        rays = _symmetric_region_rays(x)
        return RationalCone(tuple(_divided(r, 2 * n) for r in rays))
    raise ValueError(f"unsupported family {family!r}")


def a_kl_subset(signature: UpDownSignature, k: int, l: int) -> frozenset[int]:
    """The subset of the k,l join-irreducible fixed by the up projection."""
    n = signature.n
    if not 1 <= k <= l <= n - 1:
        raise ValueError(f"need 1 <= k <= l <= {n - 1}")
    if k == l:
        return frozenset(range(1, k + 1))
    up_part = {b for b in range(k + 1, l + 1) if signature.is_up(b)}
    lo = set() if signature.is_up(k + 1) else set(range(1, k + 1))
    hi = set(range(l + 1, n + 1)) if not signature.is_up(l) else set()
    return frozenset(lo | up_part | hi)


def _rays_and_diagonals(signature: UpDownSignature):
    """(ray subset, polygon diagonal) for every ray of the Cambrian fan.

    The suffix intervals {k+1..n} come first, then a_kl for k <= l.  Each
    diagonal joins the nearest up or down vertex at or below k to the
    nearest up or down vertex at or above k+1 (l+1 for a_kl); 0 and n+1
    count as both.
    """
    n = signature.n
    up, down = signature.is_up, signature.is_down

    def below(i, test):
        return max(v for v in range(i + 1) if test(v))

    def above(i, test):
        return min(v for v in range(i, n + 2) if test(v))

    out = [
        (frozenset(range(k + 1, n + 1)), (below(k, up), above(k + 1, down)))
        for k in range(1, n)
    ]
    for k in range(1, n):
        out.append((a_kl_subset(signature, k, k), (below(k, down), above(k + 1, up))))
        for l in range(k + 1, n):
            left = below(k, up if up(k + 1) else down)
            right = above(l + 1, up if up(l) else down)
            out.append((a_kl_subset(signature, k, l), (left, right)))
    for column in zip(*out):
        if len(set(column)) != len(out):
            raise AssertionError("fan rays and diagonals are not paired one to one")
    return out


def fan_ray_subsets(signature: UpDownSignature) -> list[frozenset[int]]:
    return [a for a, _ in _rays_and_diagonals(signature)]


def cambrian_fan_rays(signature: UpDownSignature):
    """All rays of the Cambrian fan, as (vector, subset) pairs."""
    n = signature.n
    return [(ray_vector(n, a), a) for a in fan_ray_subsets(signature)]


def ray_to_diagonal(a: frozenset[int], signature: UpDownSignature):
    """The polygon diagonal whose triangulations' cones contain the ray."""
    for subset, d in _rays_and_diagonals(signature):
        if subset == a:
            return d
    raise ValueError(f"{sorted(a)} is not a ray subset for this signature")


def diagonal_ray_map(signature: UpDownSignature) -> dict:
    """Diagonal -> ray subset; a bijection onto the polygon's diagonals."""
    return {d: a for a, d in _rays_and_diagonals(signature)}


# ---------------------------------------------------------------------------
# Fan verification: one report for A, B and H3.


def _fan_faces(camb, cones, side, simplicial, tiling, **extra) -> dict:
    """The report of a fan check, with wall pairing, dual graph, f-vector.

    ``cones[c]`` holds the ray keys of the maximal cone of congruence
    class c, and ``side(wall, c, a, b)`` says whether rays a and b lie
    strictly on opposite sides of the hyperplane spanned by the rays of
    ``wall``, c being the position of the cone of ``wall`` and a.  The
    tiling also needs every cone to have rank-many rays and every
    codimension-1 face, a rank-many cone minus one ray (``_walls``), to
    lie in exactly two cones, on opposite sides; the dual graph joins
    those two cones and is compared with the Hasse diagram of the
    Cambrian quotient; the f-vector counts the faces spanned by 1, 2,
    ..., rank rays.
    """
    dim = camb.system.rank
    paired = all(len(cone) == dim for cone in cones)
    faces = set()
    for cone in cones:
        for size in range(1, dim + 1):
            faces.update(map(frozenset, itertools.combinations(cone, size)))
    sets = [frozenset(cone) for cone in cones]
    dual_edges = set()
    for wall, owners in _walls(sets, lambda s: zip(s) if len(s) == dim else ()).items():
        if len(owners) != 2:
            paired = False
            continue
        dual_edges.add(frozenset(owners))
        (a,), (b,) = (sets[c] - wall for c in owners)
        paired = paired and side(tuple(wall), owners[0], a, b)

    cong, quotient = camb.congruence, camb.quotient
    index = cong.lattice.index
    hasse_edges = {
        frozenset(cong.class_of[index[quotient.elements[q]]] for q in cover)
        for cover in quotient.covers
    }
    sizes = Counter(map(len, faces))
    f_vector = tuple(sizes[size] for size in range(1, dim + 1))
    return {
        "num_cones": len(cones),
        "simplicial": simplicial,
        "tiling": tiling and paired,
        **extra,
        "dual_graph_is_hasse": dual_edges == hasse_edges,
        "f_vector": f_vector,
        "num_rays": f_vector[0],
    }


def _check_fan_ab(camb, cones, vectors, region_rays, lineality=(), fan_rays=None) -> dict:
    """The fan report of type A or B, from the ray keys of each class cone.

    Each cone needs inward facet normals modulo the ``lineality`` and must
    contain the region of every member x, whose rays are ``region_rays(x)``
    in the coordinates of ``vectors``.  Given ``fan_rays``, ``consistency``
    says whether each cone holds exactly the fan rays it lists.  Ray b is
    across a wall from a when b is on the negative side of a's normal in
    the cone on the wall and a.
    """
    normals = [_inward_normals(tuple(vectors[a] for a in cone), lineality) for cone in cones]

    def inside(c, v):
        return normals[c] is not None and all(_dot(b, v) >= 0 for b in normals[c])

    simplicial = None not in normals
    region_vectors, rays_of = _region_table(camb.congruence.lattice, region_rays)
    tiling = all(
        inside(c, region_vectors[r])
        for c, members in enumerate(camb.congruence.classes)
        for r in {r for i in members for r in rays_of[i]}
    )
    extra = {}
    if fan_rays is not None:
        # A cone with normals holds its own rays: b_i . ray_j = d * [i == j].
        extra["consistency"] = all(
            normals[c] is not None if a in cone else not inside(c, vectors[a])
            for c, cone in enumerate(cones)
            for a in fan_rays
        )

    def side(wall, c, a, b):
        # A cone without normals has already failed the tiling.
        return simplicial and _dot(normals[c][cones[c].index(a)], vectors[b]) < 0

    return _fan_faces(camb, cones, side, simplicial, tiling, **extra)


@lru_cache(maxsize=None)
def _region_table(lattice: FiniteLattice, region_rays):
    """The distinct rays of the members' regions, ``region_rays(x)`` over
    the elements x of a weak order, and the ids of each element's rays in
    lattice order; built once per weak order and family."""
    ids = {}
    rays_of = tuple(
        tuple(ids.setdefault(v, len(ids)) for v in region_rays(x))
        for x in lattice.elements
    )
    return tuple(ids), rays_of


def _signature_lattice(system: CoxeterSystem, signature) -> CambrianLattice:
    """The Cambrian lattice of the signature's orientation of ``system``."""
    return cambrian_lattice(
        system, orientation_from_edges(system, signature.orientation_edges())
    )


def _class_diagonals(camb: CambrianLattice, signature, n: int):
    """The sorted diagonals of each class bottom's triangulation, in class
    order, of the signature's Cambrian lattice ``camb``, read off the eta
    tables of the signature's type-A n-gon."""
    masks = signature.eta_masks(signature.walk(camb.class_representatives))
    return [sorted(_mask_diagonals(m, n)) for m in masks]


# ---------------------------------------------------------------------------
# Fan verification, type A.


def check_fan_a(signature: UpDownSignature) -> dict:
    """Verify the Cambrian fan of a type-A signature.

    Checks, in exact arithmetic, that the maximal cones indexed by the
    congruence classes are simplicial with rays matching the class
    triangulations, contain no other fan ray, contain all member regions,
    and glue along facets in opposite-side pairs; the dual graph is
    compared with the quotient's Hasse diagram.
    """
    system = get_system("A", signature.n - 1)
    return _check_fan_a(signature, _signature_lattice(system, signature))


def _check_fan_a(signature: UpDownSignature, camb: CambrianLattice) -> dict:
    """The fan check of the signature's Cambrian lattice ``camb``; rays
    and cones are keyed by diagonals, as in type B."""
    n = signature.n
    vectors = {d: _int_ray(n, a) for a, d in _rays_and_diagonals(signature)}
    cones = _class_diagonals(camb, signature, n)
    report = _check_fan_ab(camb, cones, vectors, _suffix_rays_a, ((1,) * n,), vectors)
    return {"family": "A", **report, "num_rays": len(vectors)}


# ---------------------------------------------------------------------------
# Fan verification, type B (restriction to the antisymmetric subspace).


def _antisymmetric_part(v):
    """v + chi(v), where chi maps q_i to -q_{2n+1-i} on the 2n doubled
    coordinates, as its last n coordinates q_1..q_n, which fix it."""
    n = len(v) // 2
    return tuple(v[n + i] - v[n - 1 - i] for i in range(n))


def _symmetric_region_rays(x: tuple[int, ...]):
    """Rays of the region of a signed permutation, times 2n: the
    antisymmetric parts of the first n rays of the doubled region."""
    return [_antisymmetric_part(r) for r in _suffix_rays_a(embed_b_in_a(x))[: len(x)]]


def check_fan_b(signature: SymmetricSignature) -> dict:
    """Verify the type-B Cambrian fan inside the antisymmetric subspace.

    Rank, cone membership and sides of walls do not change when each
    antisymmetric vector is kept as its last n coordinates.
    """
    system = get_system("B", signature.n)
    return _check_fan_b(signature, _signature_lattice(system, signature))


def _check_fan_b(signature: SymmetricSignature, camb: CambrianLattice) -> dict:
    """The fan check of the signature's Cambrian lattice ``camb``."""
    two_n = 2 * signature.n
    diagonals = _class_diagonals(camb, signature, two_n)
    # Both diagonals of an orbit under the central symmetry give its ray;
    # cones name each orbit by its smaller diagonal.
    vectors = {
        d: _antisymmetric_part(_int_ray(two_n, a))
        for d, a in diagonal_ray_map(signature.a_signature()).items()
    }
    cones = [
        tuple(sorted({min(d, _mirror(d, two_n)) for d in diags})) for diags in diagonals
    ]
    report = _check_fan_ab(camb, cones, vectors, _symmetric_region_rays)
    return {"family": "B", **report}


# ---------------------------------------------------------------------------
# Fan verification, H3 (signs read off the root permutations).


def _det3(field, u, v, w):
    """det of the 3x3 matrix with rows u, v, w, by cofactors along u.

    No fan check calls it: the H3 check reads its signs off the root
    permutations.  It stays as the tests' oracle for those signs, and as
    the function that the benchmark's ``fans.det3`` span
    (``perfbench/tracing.py``) wraps.
    """
    def minor(i, j):
        return field.sub(field.mul(v[i], w[j]), field.mul(v[j], w[i]))

    terms = [field.mul(x, minor((i + 1) % 3, (i + 2) % 3)) for i, x in enumerate(u)]
    return field.add(field.add(terms[0], terms[1]), terms[2])


@lru_cache(maxsize=None)
def _chamber_table(system: CoxeterSystem, lattice: FiniteLattice):
    """The orientation-free part of the H3 fan check, on the weak order
    ``lattice`` of the H3 ``system``: (rays_of, moves).

    Chamber i, of the element w at lattice index i, has the rays
    ``rays_of[i][k]`` = w * omega_k; its wall opposite that ray leads to
    the chamber ``moves[i][k][0]`` = w * s_k, across the hyperplane of the
    reflection ``moves[i][k][1]``, the positive root of w(alpha_k)
    (``CoxeterSystem.wall_reflection``).

    A ray is its sign vector over the positive roots: entry t is the sign
    of <beta_t, w * omega_k> = <w^-1 beta_t, omega_k>, the sign of the
    alpha_k coordinate of w^-1(beta_t), the root id j with w[j] = t: 0 off
    its support, else +1 or -1 as the root is positive or negative.  Rays
    of the arrangement differ in some sign, so no field arithmetic is done.
    """
    zero = system.field.zero
    supports = [tuple(int(x != zero) for x in root) for root in system.roots]
    signs = supports + [tuple(-s for s in row) for row in supports]
    n = len(supports)
    names = system.generator_names
    rays_of, moves = [], []
    for w in lattice.elements:
        preimages = sorted(range(2 * n), key=w.__getitem__)[:n]
        rays_of.append(tuple(zip(*(signs[j] for j in preimages))))
        moves.append(tuple(
            (lattice.index[system.right_multiply(w, s)], system.wall_reflection(w, s)) for s in names
        ))
    return tuple(rays_of), tuple(moves)


def check_fan_h3(system: CoxeterSystem, orientation: Orientation) -> dict:
    """Verify the Cambrian fan of an H3 orientation (``_check_fan_h3``)."""
    if system.family != "H3":
        raise ValueError("expected an H3 system")
    return _check_fan_h3(system, cambrian_lattice(system, orientation))


def _check_fan_h3(system: CoxeterSystem, camb: CambrianLattice) -> dict:
    """The fan check of the Cambrian lattice ``camb`` of H3.

    A class is bounded by the walls its chambers share with chambers of
    other classes; it must lie weakly on the inner side of each, and its
    extreme rays are the member rays on two of their hyperplanes.  Its cone
    is simplicial when it has three extreme rays; in rank 3 no other test
    can change the report.

    Rays, neighbours and wall reflections are read off the group's chamber
    table (``_chamber_table``): ray r is on the hyperplane of t when r[t]
    is 0, and on the inner ray's side when r[t] agrees with the inner
    ray's.  A wall of two cones lies on the hyperplane where both its rays
    read 0, and a, b are on opposite sides when a[t] * b[t] < 0 there.
    """
    cong = camb.congruence
    class_of = cong.class_of
    rays_of, moves = _chamber_table(system, cong.lattice)

    simplicial = tiling = True
    cones = []
    for c, members in enumerate(cong.classes):
        # Leaving hyperplane -> the ray of one member chamber off its wall.
        walls = {}
        for i in members:
            for (j, t), inner in zip(moves[i], rays_of[i]):
                if class_of[j] != c:
                    walls.setdefault(t, inner)
        member_rays = {r for i in members for r in rays_of[i]}
        on_walls = Counter()
        for t, inner in walls.items():
            for r in member_rays:
                if r[t] == 0:
                    on_walls[r] += 1
                elif r[t] != inner[t]:
                    tiling = False
        extreme = [r for r in member_rays if on_walls[r] >= 2]
        # Rank 3 only: on the 2-sphere three extreme rays force exactly
        # three leaving hyperplanes, and the sign test then puts every
        # member ray in the cone of the extremes.  Rank 4 needs both tests.
        if len(extreme) != 3:
            simplicial = False
        cones.append(tuple(extreme))

    def side(wall, c, a, b):
        u, v = wall
        t = next((t for t, pair in enumerate(zip(u, v)) if pair == (0, 0)), None)
        return t is not None and a[t] * b[t] < 0

    return {"family": "H3", **_fan_faces(camb, cones, side, simplicial, tiling)}


def fan_passed(report: dict) -> bool:
    """Verdict of a check_fan_* report: every fan property it reports holds."""
    return all(
        report.get(k, True)
        for k in ("simplicial", "tiling", "consistency", "dual_graph_is_hasse")
    )


def check_fan(arg, orientation: Orientation = None) -> dict:
    """The fan check of an A or B signature, or of H3 with an orientation."""
    if isinstance(arg, CoxeterSystem):
        if arg.family != "H3":
            raise ValueError(
                f"unsupported fan input: a Coxeter system of family {arg.family}"
                " (the A and B fan checks take a signature)"
            )
        if orientation is None:
            raise ValueError("the H3 fan check needs an orientation")
        return check_fan_h3(arg, orientation)
    if orientation is not None:
        raise ValueError("a signature fixes its own orientation")
    if isinstance(arg, UpDownSignature):
        return check_fan_a(arg)
    if isinstance(arg, SymmetricSignature):
        return check_fan_b(arg)
    raise ValueError("unsupported fan input")


# ---------------------------------------------------------------------------
# Roots and diagonals of the alternating polygon (clusters for S_n).


def alternating_signature(n: int) -> UpDownSignature:
    return UpDownSignature(n, frozenset(range(1, n + 1, 2)))


def _neg_simple(n: int, i: int) -> tuple[int, ...]:
    return tuple(-1 if k == i else 0 for k in range(1, n))


def _alpha(n: int, i: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i <= k <= j else 0 for k in range(1, n))


def all_roots_ge_minus_one(n: int):
    """Phi_{>=-1} for S_n: positive roots plus negative simples."""
    return [_neg_simple(n, i) for i in range(1, n)] + positive_roots(n)


@lru_cache(maxsize=None)
def roots_and_diagonals_a(n: int):
    """The bijection Phi_{>=-1} <-> diagonals of the alternating polygon."""
    root_to_diag = {}
    for i in range(1, n):
        if i % 2 == 1:
            d = (i, i + 1)
        else:
            d = (i - 1, i + 2)
        root_to_diag[_neg_simple(n, i)] = tuple(sorted(d))
    for i in range(1, n):
        for j in range(i, n):
            lo = i if i % 2 == 0 else (0 if i == 1 else i - 2)
            if j % 2 == 0:
                hi = j + 1
            else:
                hi = n + 1 if j == n - 1 else j + 3
            root_to_diag[_alpha(n, i, j)] = tuple(sorted((lo, hi)))
    diag_to_root = {d: r for r, d in root_to_diag.items()}
    if len(diag_to_root) != len(root_to_diag):
        raise AssertionError("root-diagonal dictionary is not injective")
    return root_to_diag, diag_to_root


@lru_cache(maxsize=None)
def _polygon_positions(n: int):
    polygon = polygon_from_signature(alternating_signature(n))
    cycle = polygon.boundary_cycle()
    return polygon, {lab: pos for pos, lab in enumerate(cycle)}, cycle


def _reflect_diagonal(n: int, d, fixed_sum: int):
    polygon, pos, cycle = _polygon_positions(n)
    size = n + 2

    def ref(lab):
        return cycle[(fixed_sum - pos[lab]) % size]

    return tuple(sorted((ref(d[0]), ref(d[1]))))


def tau(n: int, eps, root):
    """The combinatorial polygon reflections tau_+ and tau_- on roots."""
    if eps in ("+", 1):
        a, b = 0, 2
    elif eps in ("-", -1):
        a, b = 1, 2
    else:
        raise ValueError(f"bad sign {eps!r}")
    r2d, d2r = roots_and_diagonals_a(n)
    if root not in r2d:
        raise ValueError(f"{root} is not in Phi_>=-1")
    _, pos, _ = _polygon_positions(n)
    d = _reflect_diagonal(n, r2d[root], pos[a] + pos[b])
    return d2r[d]


def rotation_number(n: int, root) -> int:
    """Least k with (tau_- tau_+)^k(root) a negative simple root."""
    current = root
    for k in range(2 * (n + 2)):
        if sum(current) < 0:
            return k
        current = tau(n, "-", tau(n, "+", current))
    raise AssertionError("rotation orbit misses the negative simple roots")


def compatible(n: int, beta, theta) -> bool:
    """Compatibility of two roots in Phi_{>=-1} via the tau recursion."""
    for _ in range(2 * (n + 2)):
        if sum(beta) < 0:
            i = next(k + 1 for k, c in enumerate(beta) if c)
            return theta[i - 1] == 0
        if sum(theta) < 0:
            i = next(k + 1 for k, c in enumerate(theta) if c)
            return beta[i - 1] == 0
        beta = tau(n, "-", tau(n, "+", beta))
        theta = tau(n, "-", tau(n, "+", theta))
    raise AssertionError("compatibility recursion did not terminate")


@dataclass(frozen=True)
class ClusterComplex:
    n: int
    roots: tuple
    compatible_pairs: frozenset
    clusters: tuple


@lru_cache(maxsize=None)
def clusters(n: int) -> ClusterComplex:
    """All clusters for S_n, via triangulations of the alternating polygon."""
    polygon = polygon_from_signature(alternating_signature(n))
    _, d2r = roots_and_diagonals_a(n)
    roots = tuple(all_roots_ge_minus_one(n))
    pairs = frozenset(
        frozenset((b, t))
        for b, t in itertools.combinations(roots, 2)
        if compatible(n, b, t)
    )
    found = []
    for t in all_triangulations(polygon):
        cluster = frozenset(d2r[d] for d in t.diagonals)
        for b, t2 in itertools.combinations(cluster, 2):
            if frozenset((b, t2)) not in pairs:
                raise AssertionError("triangulation is not a compatible set")
        found.append(cluster)
    return ClusterComplex(n, roots, pairs, tuple(found))


def _rotation_lower(m: int, gone, came) -> bool:
    """Whether the cluster of S_m that trades the roots ``gone`` for
    ``came`` is the lower across the flip: the traded orbit has one
    rotation number, smaller than that of the orbit it comes to."""
    rb = {rotation_number(m, r) for r in gone}
    rt = {rotation_number(m, r) for r in came}
    if len(rb) != 1 or len(rt) != 1 or rb == rt:
        raise AssertionError("flip with ambiguous rotation numbers")
    return rb.pop() < rt.pop()


def cluster_poset(n: int) -> FiniteLattice:
    """Clusters ordered by rotation-number comparison across flips, each
    root trading alone."""
    items = clusters(n).clusters
    return _flip_order(items, items, zip, partial(_rotation_lower, n))


# ---------------------------------------------------------------------------
# Brackets, the twist lemma, and nice coroots.


def b_bipartite_signature(n: int):
    """Symmetric signature whose doubled signature is alternating."""
    return SymmetricSignature.from_positive_ups(
        n, frozenset(i for i in range(1, n + 1) if (n + i) % 2 == 1)
    )


def _chi_root(r):
    """The diagram flip chi of S_{2n} on roots: coordinate reversal."""
    return tuple(reversed(r))


def _chi_orbits(cluster) -> set:
    """The orbits {r, chi(r)} of the roots of a chi-fixed cluster."""
    return {frozenset((r, _chi_root(r))) for r in cluster}


def _invariant_clusters(n: int) -> list:
    """The clusters of S_{2n} fixed by chi."""
    return [
        c for c in clusters(2 * n).clusters
        if frozenset(_chi_root(r) for r in c) == c
    ]


def b_cluster_poset(n: int) -> FiniteLattice:
    """Flip-invariant clusters of S_{2n} ordered across orbit flips; the
    diagram flip chi acts on roots by coordinate reversal."""
    items = _invariant_clusters(n)
    return _flip_order(items, items, _chi_orbits, partial(_rotation_lower, 2 * n))


def bracket(x, y) -> Fraction:
    """sum_i epsilon(i) [x : alpha_i^vee][y : alpha_i], bipartite signing."""
    return sum(
        (1 if i % 2 == 0 else -1) * a * b for i, (a, b) in enumerate(zip(x, y))
    )


def twist_check(n: int, beta_coroot, theta, eps) -> bool:
    lhs = bracket(beta_coroot, tau(n, eps, theta))
    minus = "-" if eps in ("+", 1) else "+"
    rhs = -bracket(tau(n, minus, beta_coroot), theta)
    return lhs == rhs


def positive_roots(n: int):
    return [_alpha(n, i, j) for i in range(1, n) for j in range(i, n)]


@lru_cache(maxsize=None)
def _coroots_by_height(n: int) -> tuple:
    """The positive roots of S_n by height, then lexicographically."""
    return tuple(sorted(positive_roots(n), key=lambda r: (sum(r), r)))


def nice_coroot(n: int, near_cluster):
    """A positive coroot bracket-orthogonal to every root of the wall."""
    for beta in _coroots_by_height(n):
        if all(bracket(beta, alpha) == 0 for alpha in near_cluster):
            return beta
    raise LookupError("no positive coroot is orthogonal to the near-cluster")


def wall_without_nice_coroot(n: int):
    """The first wall of the S_n cluster fan with no nice coroot, or None."""
    for wall in _walls(clusters(n).clusters, zip):
        try:
            nice_coroot(n, wall)
        except LookupError:
            return wall
    return None


def cluster_refine_check(n: int, family: str = "A") -> bool:
    """Walls of the cluster fan lie inside twisted-arrangement hyperplanes."""
    if family == "A":
        return wall_without_nice_coroot(n) is None
    if family == "B":
        # Fold S_{2n} by the diagram flip chi; B walls are the chi-fixed
        # restrictions of invariant cluster walls.
        invariant = _invariant_clusters(n)
        if len(invariant) != comb(2 * n, n):
            return False
        for wall in _walls(invariant, _chi_orbits):
            folded = [tuple(a + b for a, b in zip(r, _chi_root(r))) for r in wall]
            try:
                nice_coroot(2 * n, folded)
            except LookupError:
                return False
        return True
    raise ValueError(f"unsupported family {family!r}")


# ---------------------------------------------------------------------------
# The psi map and the bipartite fan isomorphism.


def psi(n: int, diagonal):
    a, b = sorted(diagonal)
    if b - a == 1:
        return _neg_simple(n, a)
    return _alpha(n, a + 1, b - 2)


def psi_and_bipartite_iso_check(n: int):
    """The linear alpha_i -> eps(i) omega_i map matches rays and cones."""
    signature = alternating_signature(n)
    r2d, d2r = roots_and_diagonals_a(n)
    # psi inverts the tau_- shifted dictionary.
    for root in all_roots_ge_minus_one(n):
        if psi(n, r2d[tau(n, "-", root)]) != root:
            return False, ("psi-inverse", root)
    # The linear map on rays.
    d2s = diagonal_ray_map(signature)

    def linear_image(root):
        """n times the image; n * omega_i is the integer ray of {1..i}."""
        img = [0] * n
        for i, c in enumerate(root, start=1):
            eps = 1 if i % 2 == 1 else -1
            w = _int_ray(n, frozenset(range(1, i + 1)))
            img = [x + eps * c * y for x, y in zip(img, w)]
        return tuple(img)

    for d, subset in d2s.items():
        root = psi(n, d)
        ray, image = _int_ray(n, subset), linear_image(root)
        if _rank([ray, image]) != 1 or _dot(ray, image) <= 0:
            return False, ("ray-mismatch", d, root)
    # Cones map to cones: every triangulation's psi image is a cluster.
    polygon = polygon_from_signature(signature)
    cluster_set = set(clusters(n).clusters)
    seen = set()
    for t in all_triangulations(polygon):
        image = frozenset(psi(n, d) for d in t.diagonals)
        if image not in cluster_set or image in seen:
            return False, ("cone-mismatch", tuple(sorted(t.diagonals)))
        seen.add(image)
    return True, None


def stasheff_ray_check(n: int) -> bool:
    """All-up rays are the proper intervals [i,j], mapped to (i-1, j+1)."""
    pairs = _rays_and_diagonals(UpDownSignature(n, frozenset(range(1, n + 1))))
    intervals = {
        frozenset(range(i, j + 1))
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if not (i == 1 and j == n)
    }
    if {a for a, _ in pairs} != intervals:
        return False
    return all(d == (min(a) - 1, max(a) + 1) for a, d in pairs)


# ---------------------------------------------------------------------------
# JSON export.


def fan_to_json(signature: UpDownSignature) -> dict:
    return _fan_to_json(signature, _signature_lattice(get_system("A", signature.n - 1), signature))


def _fan_to_json(signature: UpDownSignature, camb: CambrianLattice) -> dict:
    """The fan of the signature's Cambrian lattice ``camb``."""
    n = signature.n
    subsets, diagonals = zip(*_rays_and_diagonals(signature))
    ray_index = {d: k for k, d in enumerate(diagonals)}
    cones = [
        sorted(ray_index[d] for d in diags) for diags in _class_diagonals(camb, signature, n)
    ]
    return {
        "dim": n - 1,
        "lineality": [fraction_str(Fraction(1)) for _ in range(n)],
        "rays": [
            [fraction_str(c) for c in ray_vector(n, a)] for a in subsets
        ],
        "ray_subsets": [sorted(a) for a in subsets],
        "cones": cones,
        "labels": list(range(len(cones))),
    }


def fraction_str(value: Fraction) -> str:
    """Reduced "p/q" with q > 0 (always written, even for integers)."""
    return f"{value.numerator}/{value.denominator}"
