"""Fans: region cones, Cambrian fan rays, cluster machinery, fan checks.

Type-A geometry lives in the sum-zero hyperplane of an n-coordinate
space; the type-B fan is the restriction of the type-A fan of the
doubled polygon to the antisymmetric subspace; the H3 fan is read off
the root permutations of the generic engine, with no field arithmetic.

Inside the module the A and B rays are integers: n * ray in S_n and 2n
* ray in B_n, where cone membership and wall sides are unchanged.  Only
``ray_vector``, ``region_cone`` and ``fan_to_json`` divide, at the
public boundary.  One table, ``_rays_and_diagonals``, pairs each ray
subset with its polygon diagonal, and the ray list, the ray-to-diagonal
map and its inverse all read it.

Each fan check (``check_fan_a``/``_b``/``_h3``) closes the Cambrian
congruence of its input and builds no quotient: the fan's dual graph is
the quotient's Hasse diagram, the class pairs of the covers the
congruence does not contract.  The three share one class loop
(``_class_cones``) over one chamber table per weak order
(``_chamber_table``, kept in its ``tables``): the rays of each chamber as
ids, its neighbours w * s_k, the hyperplanes of its walls, and one sign
vector per distinct ray, the side of each reflection's hyperplane it
lies on.  A class is bounded by the walls its chambers share with
chambers of other classes; it must lie weakly on the inner side of each,
its extreme rays are the member rays on rank - 1 of those hyperplanes,
and its cone, the sorted ids of those rays, is simplicial when it has
rank-many.  One report (``_fan_faces``) then pairs the walls, with the
side test of ``_side``, compares the dual graph with the Hasse diagram
and counts the f-vector.  Each signature or orientation is a pass of
table lookups, with no elimination.

Per family only the table and the polygon comparison differ.  In A the
rays of x's chamber are the suffix value sets of x, and in B the
antisymmetric parts of the doubled region's rays; their signs are
differences of integer coordinates.  Each class cone's rays must be
those of the class bottom's triangulation, which ``_class_diagonals``
reads off the weak order's own walk, through the signature's
``eta_fibers``, so the fan checks share the suites' eta memo.  In A that
comparison, with every other fan ray strictly outside the cone, is
``consistency``; in B it joins ``tiling``.  In H3 a ray is its own sign
vector over the 15 reflections: <beta, w * omega_k> = <w^-1 beta,
omega_k> has the sign of the alpha_k coordinate of the root w^-1(beta),
which the root permutation w names (Reading-Speyer, "Cambrian fans"), so
no field arithmetic is done.

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

from .congruences import Orientation, cambrian_congruence, orientation_from_edges
from .coxeter import CoxeterSystem, embed_b_in_a, get_system
from .lattices import FiniteLattice, LatticeCongruence
from .polygon_a import (
    UpDownSignature,
    _flip_order,
    _mask_diagonals,
    _walls,
    all_triangulations,
    polygon_from_signature,
    weak_order_walk,
)
from .polygon_b import SymmetricSignature

# ---------------------------------------------------------------------------
# Exact linear algebra over the integers, for the psi map's ray check.


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
# Fan verification: one chamber table, one class loop and one report for
# A, B and H3.


def _fan_faces(cong, dim, cones, side, simplicial, tiling, **extra) -> dict:
    """The report of a fan check, with wall pairing, dual graph, f-vector.

    ``cones[c]`` holds the ray keys of the maximal cone of class c of
    ``cong``, in rank ``dim``, and ``side(wall, c, a, b)`` says whether
    rays a and b lie strictly on opposite sides of the hyperplane spanned
    by the rays of ``wall``, c being the position of the cone of ``wall``
    and a.  The tiling also needs every cone to have rank-many rays and
    every codimension-1 face, a rank-many cone minus one ray (``_walls``),
    to lie in exactly two cones, on opposite sides; the dual graph joins
    those two cones and is compared with ``cong.cover_image``, the
    quotient's Hasse diagram, read as unordered pairs; the f-vector
    counts the faces spanned by 1, 2, ..., rank rays.
    """
    paired = all(len(cone) == dim for cone in cones)
    # A face is the tuple of its ray keys in sorted order.
    faces = set()
    for cone in map(sorted, cones):
        for size in range(1, dim + 1):
            faces.update(itertools.combinations(cone, size))
    sets = [frozenset(cone) for cone in cones]
    dual_edges = set()
    for wall, owners in _walls(sets, lambda s: zip(s) if len(s) == dim else ()).items():
        if len(owners) != 2:
            paired = False
            continue
        dual_edges.add(frozenset(owners))
        (a,), (b,) = (sets[c] - wall for c in owners)
        paired = paired and side(tuple(wall), owners[0], a, b)

    hasse_edges = set(map(frozenset, cong.cover_image))
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


def _sign_vector(v, reflections) -> tuple:
    """The sign of q_a - q_b on the integer vector v for each A or B
    reflection (a, b), where q_i = v[i - 1] and q_-i = -q_i."""
    q = (0, *v, *(-x for x in reversed(v)))
    return tuple((d > 0) - (d < 0) for d in (q[a] - q[b] for a, b in reflections))


def _chamber_table(system: CoxeterSystem, lattice: FiniteLattice):
    """The orientation-free part of the fan checks on the weak order
    ``lattice`` of ``system``, kept in its ``tables``: (rays_of, moves,
    signs, ids).  Chamber i, of the element w at index i, has the ray ids
    ``rays_of[i]``; its wall opposite ray k leads to chamber
    ``moves[i][k][0]`` = w * s_k across hyperplane ``moves[i][k][1]``, the
    position of ``wall_reflection`` in the sorted inversions of the top.
    ``ids`` numbers the distinct rays, and ``signs[r]`` says on which side
    of each hyperplane ray r lies (0 on it).

    In A, ray k of x is the value set x[k:] (``_suffix_rays_a``), in B the
    antisymmetric part of the doubled region's ray n + 1 - k; both are
    integer vectors.  In H3, ray k of w is w * omega_k, kept as its sign
    vector: entry t, the sign of <w^-1 beta_t, omega_k>, is that of the
    alpha_k coordinate of the root j with w[j] = t, 0 off its support
    (Reading-Speyer, "Cambrian fans"), so no field arithmetic is done.
    """
    if _chamber_table in lattice.tables:
        return lattice.tables[_chamber_table]
    reflections = sorted(system.inversion_set(lattice.elements[lattice.top]))
    hyperplane = {t: k for k, t in enumerate(reflections)}
    sign = partial(_sign_vector, reflections=reflections)
    if system.family == "A":
        chamber_rays = _suffix_rays_a
    elif system.family == "B":
        def chamber_rays(x):
            return _symmetric_region_rays(x)[::-1]
    else:
        zero = system.field.zero
        supports = [tuple(int(x != zero) for x in root) for root in system.roots]
        root_signs = supports + [tuple(-s for s in row) for row in supports]
        n = len(supports)

        def chamber_rays(w):
            preimages = sorted(range(2 * n), key=w.__getitem__)[:n]
            return zip(*(root_signs[j] for j in preimages))

        def sign(ray):
            return ray
    ids, rays_of, moves = {}, [], []
    for w in lattice.elements:
        rays_of.append(tuple(ids.setdefault(ray, len(ids)) for ray in chamber_rays(w)))
        moves.append(tuple(
            (lattice.index[system.right_multiply(w, s)], hyperplane[system.wall_reflection(w, s)])
            for s in system.generator_names
        ))
    table = tuple(rays_of), tuple(moves), tuple(map(sign, ids)), ids
    lattice.tables[_chamber_table] = table
    return table


def _class_cones(cong, rank: int, table):
    """The one class loop of the fan checks: (cones, leaving, simplicial,
    tiling).  ``leaving[c]`` maps each hyperplane of a move from class c
    to another class to the signs of the inner ray, the moving chamber's
    ray off that wall.  The class tiles when every member ray reads 0 or
    the inner sign on each; its cone is the sorted ids of the member rays
    on rank - 1 of them, and is simplicial when it has rank-many."""
    rays_of, moves, signs, _ = table
    class_of = cong.class_of
    simplicial = tiling = True
    cones, leaving = [], []
    for c, members in enumerate(cong.classes):
        walls = {}
        for i in members:
            for (j, t), inner in zip(moves[i], rays_of[i]):
                if class_of[j] != c:
                    walls.setdefault(t, signs[inner])
        member_rays = {r for i in members for r in rays_of[i]}
        on_walls = Counter()
        for t, inner in walls.items():
            for r in member_rays:
                s = signs[r][t]
                if s == 0:
                    on_walls[r] += 1
                elif s != inner[t]:
                    tiling = False
        cones.append(tuple(sorted(r for r in member_rays if on_walls[r] >= rank - 1)))
        simplicial = simplicial and len(cones[-1]) == rank
        leaving.append(walls)
    return cones, leaving, simplicial, tiling


def _side(signs):
    """``side`` of ``_fan_faces``: a wall lies on the first hyperplane
    where all its rays read 0 (a rank-1 wall has none, so every index is
    scanned), and a, b are on opposite sides when their signs there are."""
    hyperplanes = range(len(signs[0]))

    def side(wall, c, a, b):
        t = next((t for t in hyperplanes if all(signs[r][t] == 0 for r in wall)), None)
        return t is not None and signs[a][t] * signs[b][t] < 0

    return side


def _signature_congruence(system: CoxeterSystem, signature) -> LatticeCongruence:
    """The Cambrian congruence of the signature's orientation of ``system``."""
    return cambrian_congruence(
        system, orientation_from_edges(system, signature.orientation_edges())
    )


def _class_diagonals(cong: LatticeCongruence, signature, n: int):
    """The sorted diagonals of each class bottom's triangulation, in class
    order, of the signature's Cambrian congruence ``cong``: the mask of
    the bottom's fiber, read off the weak order's walk
    (``weak_order_walk``) on the signature's type-A n-gon."""
    distinct, places = signature.eta_fibers(weak_order_walk(cong.lattice, signature))
    return [sorted(_mask_diagonals(distinct[places[cls[0]]], n)) for cls in cong.classes]


# ---------------------------------------------------------------------------
# Fan verification, type A.


def check_fan_a(signature: UpDownSignature) -> dict:
    """Verify the Cambrian fan of a type-A signature: the classes tile
    simplicial cones glued in opposite-side pairs, with the quotient's
    Hasse diagram as dual graph; ``consistency`` says each cone's rays are
    those of its class bottom's triangulation and every other fan ray is
    strictly across one of its leaving hyperplanes."""
    n = signature.n
    system = get_system("A", n - 1)
    cong = _signature_congruence(system, signature)
    table = _chamber_table(system, cong.lattice)
    cones, leaving, simplicial, tiling = _class_cones(cong, system.rank, table)
    signs, ids = table[2:]
    pairs = _rays_and_diagonals(signature)
    ray_of = {d: ids.get(_int_ray(n, a)) for a, d in pairs}
    fan_rays = set(ray_of.values())
    consistency = None not in fan_rays and all(
        set(cone) == {ray_of[d] for d in diagonals}
        and all(
            any(signs[r][t] * inner[t] < 0 for t, inner in walls.items())
            for r in fan_rays.difference(cone)
        )
        for cone, walls, diagonals in zip(cones, leaving, _class_diagonals(cong, signature, n))
    )
    report = _fan_faces(
        cong, system.rank, cones, _side(signs), simplicial, tiling, consistency=consistency
    )
    return {"family": "A", **report, "num_rays": len(pairs)}


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
    """Verify the type-B Cambrian fan inside the antisymmetric subspace,
    each vector kept as its last n coordinates.  The tiling also needs
    each cone's rays to be those of its class bottom's triangulation, both
    diagonals of an orbit under the central symmetry giving one ray."""
    system = get_system("B", signature.n)
    cong = _signature_congruence(system, signature)
    table = _chamber_table(system, cong.lattice)
    cones, _, simplicial, tiling = _class_cones(cong, system.rank, table)
    signs, ids = table[2:]
    two_n = 2 * signature.n
    ray_of = {
        d: ids.get(_antisymmetric_part(_int_ray(two_n, a)))
        for d, a in diagonal_ray_map(signature.a_signature()).items()
    }
    tiling = tiling and all(
        set(cone) == {ray_of[d] for d in diagonals}
        for cone, diagonals in zip(cones, _class_diagonals(cong, signature, two_n))
    )
    report = _fan_faces(cong, system.rank, cones, _side(signs), simplicial, tiling)
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


def check_fan_h3(system: CoxeterSystem, orientation: Orientation) -> dict:
    """Verify the Cambrian fan of an H3 orientation, with the class loop
    and report of A and B and no polygon to compare the cones with."""
    if system.family != "H3":
        raise ValueError("expected an H3 system")
    cong = cambrian_congruence(system, orientation)
    table = _chamber_table(system, cong.lattice)
    cones, _, simplicial, tiling = _class_cones(cong, system.rank, table)
    report = _fan_faces(cong, system.rank, cones, _side(table[2]), simplicial, tiling)
    return {"family": "H3", **report}


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
    """The signature's fan: rays, lineality and each class cone by ray index,
    the cones read off the eta fibers (the Cambrian classes, numbered by
    first member as ``class_of`` numbers them) with no congruence closed."""
    n = signature.n
    lattice = get_system("A", n - 1).weak_order_lattice()
    distinct, _ = signature.eta_fibers(weak_order_walk(lattice, signature))
    subsets, diagonals = zip(*_rays_and_diagonals(signature))
    ray_index = {d: k for k, d in enumerate(diagonals)}
    cones = [sorted(ray_index[d] for d in _mask_diagonals(mask, n)) for mask in distinct]
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
