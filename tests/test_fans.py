"""Tests for region cones, Cambrian fan rays, and the cluster machinery."""

import dataclasses
import itertools
import json
import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cambrian import UpDownSignature, fans, get_system
from cambrian.congruences import (
    CambrianLattice,
    all_orientations,
    cambrian_lattice,
    orientation_from_edges,
)
from cambrian.fans import (
    alternating_signature,
    b_bipartite_signature,
    b_cluster_poset,
    bracket,
    cambrian_fan_rays,
    check_fan,
    check_fan_a,
    check_fan_b,
    clusters,
    cluster_poset,
    cluster_refine_check,
    compatible,
    diagonal_ray_map,
    fan_passed,
    fan_ray_subsets,
    fan_to_json,
    fraction_str,
    nice_coroot,
    positive_roots,
    psi,
    psi_and_bipartite_iso_check,
    ray_to_diagonal,
    ray_vector,
    region_cone,
    roots_and_diagonals_a,
    rotation_number,
    stasheff_ray_check,
    tau,
    twist_check,
)
from cambrian.coxeter import embed_b_in_a
from cambrian.fields import NumberField, solve_linear
from cambrian.lattices import (
    FiniteLattice,
    LatticeCongruence,
    contraction_congruence,
    quotient_lattice,
)
from cambrian.polygon_a import eta, polygon_from_signature
from cambrian.polygon_b import SymmetricSignature, all_symmetric_signatures, eta_b
from cambrian.suites import all_updown_signatures, catalan


TAMARI3 = UpDownSignature(3, frozenset({1, 2, 3}))


def test_region_cone_identity_and_w0():
    cone = region_cone((1, 2, 3))
    assert cone.facets == ((1, 2), (2, 3))
    assert region_cone((3, 2, 1)).facets == ((3, 2), (2, 1))
    # Sum-zero rays: projected indicators of the suffix value sets.
    assert cone.rays == (ray_vector(3, frozenset({2, 3})), ray_vector(3, frozenset({3})))
    with pytest.raises(ValueError):
        region_cone((1, 2, 3), family="H3")


def test_adjacent_regions_share_facet_exactly_on_covers():
    lattice = get_system("A", 2).weak_order_lattice()
    for i, x in enumerate(lattice.elements):
        for j, y in enumerate(lattice.elements):
            if i >= j:
                continue
            # A shared wall is a facet inequality that flips orientation.
            walls = {(b, a) for a, b in region_cone(x).facets} & set(
                region_cone(y).facets
            )
            adjacent = j in lattice.upper[i] or i in lattice.upper[j]
            assert adjacent == (len(walls) == 1)


def test_ray_vector_convention():
    v = ray_vector(3, frozenset({2}))
    assert sum(v) == 0
    assert v == (Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3))


def test_tamari_ray_subsets_are_intervals():
    subsets = {tuple(sorted(a)) for a in fan_ray_subsets(TAMARI3)}
    assert subsets == {(1,), (2,), (3,), (1, 2), (2, 3)}
    assert len(cambrian_fan_rays(TAMARI3)) == 5


def test_ray_to_diagonal_examples():
    assert ray_to_diagonal(frozenset({2}), TAMARI3) == (1, 3)
    assert ray_to_diagonal(frozenset({1}), TAMARI3) == (0, 2)
    sig6 = UpDownSignature(6, frozenset({1, 3, 4}))
    assert ray_to_diagonal(frozenset(range(2, 7)), sig6) == (1, 2)
    with pytest.raises(ValueError):
        ray_to_diagonal(frozenset({1, 3}), TAMARI3)


@pytest.mark.parametrize("ups", [frozenset({1, 2, 3}), frozenset({2})])
def test_diagonal_ray_map_is_bijection(ups):
    mapping = diagonal_ray_map(UpDownSignature(3, ups))
    assert len(mapping) == 5  # all diagonals of the pentagon


def test_check_fan_a_small():
    report = check_fan_a(TAMARI3)
    assert report["num_cones"] == catalan(3) == 5
    assert report["simplicial"] and report["tiling"] and report["consistency"]
    assert report["dual_graph_is_hasse"]


def test_check_fan_a_tiling_fails_when_a_wall_does_not_separate(monkeypatch):
    # Reflect the ray {2} of the S3 Tamari fan through the origin, in the
    # fan rays and the region rays alike.  Every class still fills its
    # cone and every wall still has two cones, but the two cones on the
    # wall {2,3} now lie on the same side of it.
    int_ray = fans._int_ray

    def reflected(n, members):
        ray = int_ray(n, members)
        return tuple(-x for x in ray) if members == {2} else ray

    monkeypatch.setattr(fans, "_int_ray", reflected)
    # The region rays are kept per weak order: read them afresh from the
    # reflected rays, and drop them again so that no later check sees them.
    fans._region_table.cache_clear()
    try:
        report = check_fan_a(TAMARI3)
    finally:
        fans._region_table.cache_clear()
    assert report["simplicial"] and report["dual_graph_is_hasse"]
    assert report["tiling"] is False


def test_check_fan_a_consistency_fails_when_a_cone_lists_a_neighbours_ray(monkeypatch):
    # The cone on the rays {1,2} and {2} lists {2,3}, a ray of its
    # neighbour, in place of {2}; the cone it spans holds the unlisted {2}.
    class_diagonals = fans._class_diagonals
    d12, d2, d23 = (ray_to_diagonal(frozenset(a), TAMARI3) for a in ({1, 2}, {2}, {2, 3}))

    def swapped(camb, signature, n):
        return [
            sorted((d12, d23)) if set(cone) == {d12, d2} else cone
            for cone in class_diagonals(camb, signature, n)
        ]

    monkeypatch.setattr(fans, "_class_diagonals", swapped)
    assert check_fan_a(TAMARI3)["consistency"] is False


def _first_cone_replaced(monkeypatch, signature, rays):
    """The first class cone of the signature made of the diagonals of
    the ray subsets ``rays``, repeats kept."""
    class_diagonals = fans._class_diagonals
    first = sorted(ray_to_diagonal(frozenset(a), signature) for a in rays)

    def replaced(camb, signature, n):
        return [first] + class_diagonals(camb, signature, n)[1:]

    monkeypatch.setattr(fans, "_class_diagonals", replaced)


def test_check_fan_a_consistency_fails_when_a_cone_holds_an_unlisted_ray(monkeypatch):
    # The rays {1}, {3,4}, {4} of the S4 fan for dddd are independent, and
    # the cone they span holds the fan rays {1,4} and {1,3,4} too.
    sig = UpDownSignature.from_string("dddd")
    _first_cone_replaced(monkeypatch, sig, [{1}, {3, 4}, {4}])
    report = check_fan_a(sig)
    assert report["simplicial"] and report["consistency"] is False
    assert not fan_passed(report)


def test_check_fan_a_fails_everywhere_when_a_cone_repeats_a_ray(monkeypatch):
    sig = UpDownSignature.from_string("dddd")
    _first_cone_replaced(monkeypatch, sig, [{2, 3, 4}, {4}, {4}])
    report = check_fan_a(sig)
    assert not (report["simplicial"] or report["tiling"] or report["consistency"])


def test_check_fan_a4_f_vector():
    sig = UpDownSignature(4, frozenset({2, 4}))
    report = check_fan_a(sig)
    assert report["f_vector"] == (9, 21, 14)


def test_check_fan_b2():
    report = check_fan_b(SymmetricSignature.from_positive_ups(2, {1}))
    assert report["num_cones"] == math.comb(4, 2)
    assert report["simplicial"] and report["tiling"]


@pytest.mark.parametrize("ups", [(), (1,)])
def test_check_fan_b1(ups):
    # B_1: two rays on a line, glued along the origin.
    report = check_fan_b(SymmetricSignature.from_positive_ups(1, ups))
    assert report["num_cones"] == 2 and report["f_vector"] == (2,)
    assert fan_passed(report)


def test_check_fan_dispatch():
    report = check_fan(TAMARI3)
    assert report["num_cones"] == 5


def test_check_fan_h3_needs_an_orientation():
    with pytest.raises(ValueError, match="the H3 fan check needs an orientation"):
        check_fan(get_system("H3"))


@pytest.mark.parametrize(
    "signature", [TAMARI3, SymmetricSignature.from_positive_ups(2, {1})]
)
def test_check_fan_refuses_an_orientation_with_a_signature(signature):
    system = get_system("H3")
    with pytest.raises(ValueError, match="a signature fixes its own orientation"):
        check_fan(signature, all_orientations(system)[0])


@pytest.mark.parametrize("family,rank,bond", [("A", 2, None), ("I2", None, 5)])
@pytest.mark.parametrize("oriented", [False, True])
def test_check_fan_names_the_family_of_an_unsupported_system(
    family, rank, bond, oriented
):
    system = get_system(family, rank, bond)
    orientation = all_orientations(system)[0] if oriented else None
    with pytest.raises(ValueError, match=f"unsupported fan input: .* family {family} "):
        check_fan(system, orientation)


def test_check_fan_refuses_other_input():
    with pytest.raises(ValueError, match="unsupported fan input"):
        check_fan("udu")


def test_roots_and_diagonals():
    to_diag, to_root = roots_and_diagonals_a(3)
    assert to_diag[(-1, 0)] == (1, 2)
    assert to_diag[(0, -1)] == (1, 4)
    assert to_diag[(0, 1)] == (2, 3)
    assert len(to_diag) == len(to_root) == 5
    for root, diag in to_diag.items():
        assert to_root[diag] == root


def test_tau_and_rotation_number():
    n = 4
    roots = [r for r, _ in roots_and_diagonals_a(n)[0].items()]
    for root in roots:
        assert tau(n, "+", tau(n, "+", root)) == root
        assert tau(n, "-", tau(n, "-", root)) == root
        # r is 0 exactly on the negative simple roots.
        negative = sum(root) < 0
        assert (rotation_number(n, root) == 0) == negative
        # The clockwise rotation has finite order, at most n + 2.
        current = root
        for _ in range(n + 2):
            current = tau(n, "+", tau(n, "-", current))
        assert current == root


def test_compatibility_and_cluster_counts():
    assert compatible(3, (-1, 0), (0, -1))
    for n in range(2, 6):
        complex_ = clusters(n)
        assert len(complex_.clusters) == catalan(n)
        assert all(len(c) == n - 1 for c in complex_.clusters)


def test_clusters_is_one_frozen_complex_per_n():
    """Every caller shares the cached complex, so none of it may change."""
    for n in range(2, 6):
        complex_ = clusters(n)
        assert clusters(n) is complex_ and complex_.n == n
        assert type(complex_.roots) is tuple and type(complex_.clusters) is tuple
        assert all(type(r) is tuple for r in complex_.roots)
        assert type(complex_.compatible_pairs) is frozenset
        assert all(type(p) is frozenset for p in complex_.compatible_pairs)
        assert all(type(c) is frozenset for c in complex_.clusters)
    with pytest.raises(dataclasses.FrozenInstanceError):
        clusters(3).clusters = ()


def test_cluster_poset_minimum():
    lattice = cluster_poset(4)
    bottom = lattice.elements[lattice.bottom]
    assert all(sum(root) < 0 for root in bottom)


def test_b_cluster_poset_counts():
    lattice = b_cluster_poset(2)
    assert len(lattice.elements) == math.comb(4, 2)
    assert b_bipartite_signature(2).n == 2


@pytest.mark.parametrize("poset,n", [(cluster_poset, 3), (b_cluster_poset, 2)])
def test_cluster_flip_fails_closed_on_ambiguous_rotation(monkeypatch, poset, n):
    """With one rotation number for every root no flip has a direction."""
    monkeypatch.setattr(fans, "rotation_number", lambda m, root: 0)
    with pytest.raises(AssertionError, match="flip with ambiguous rotation numbers"):
        poset(n)


def test_bracket_and_twist():
    assert bracket((1, 0), (1, 0)) == 1
    for beta in positive_roots(3):
        for theta in positive_roots(3):
            for eps in ("+", "-"):
                assert twist_check(3, beta, theta, eps)


def test_nice_coroot_example():
    assert nice_coroot(3, frozenset({(1, 0)})) == (0, 1)
    assert bracket((0, 1), (1, 0)) == 0


def _sorted_per_call_nice_coroot(n, wall):
    """The first positive root by (height, root) orthogonal to the wall,
    sorted afresh on each call, or None."""
    for beta in sorted(positive_roots(n), key=lambda r: (sum(r), r)):
        if all(bracket(beta, alpha) == 0 for alpha in wall):
            return beta
    return None


@pytest.mark.parametrize("n", range(2, 7))
def test_nice_coroot_matches_a_per_call_sort(n):
    walls = {c - {alpha} for c in clusters(n).clusters for alpha in c}
    # A cluster wall has one nice coroot, whatever the scan order; sets of
    # at most two roots can have several (n >= 4) or none.
    roots = fans.all_roots_ge_minus_one(n)
    walls |= {frozenset(s) for k in range(3) for s in itertools.combinations(roots, k)}
    for wall in walls:
        expected = _sorted_per_call_nice_coroot(n, wall)
        if expected is None:
            with pytest.raises(LookupError):
                nice_coroot(n, wall)
        else:
            assert nice_coroot(n, wall) == expected


@pytest.mark.parametrize("n,family", [(3, "A"), (2, "B")])
def test_cluster_refine(n, family):
    assert cluster_refine_check(n, family)


def _no_nice_coroot(n, wall):
    raise LookupError("no positive coroot is orthogonal to the near-cluster")


def test_cluster_refine_fails_closed_without_nice_coroot(monkeypatch):
    monkeypatch.setattr(fans, "nice_coroot", _no_nice_coroot)
    assert fans.wall_without_nice_coroot(3) is not None
    assert not cluster_refine_check(3, "A")
    assert not cluster_refine_check(2, "B")


def test_psi_examples():
    assert psi(5, (2, 5)) == (0, 0, 1, 0)
    for a in range(1, 5):
        expected = tuple(-1 if i == a else 0 for i in range(1, 5))
        assert psi(5, (a, a + 1)) == expected
    ok, witness = psi_and_bipartite_iso_check(3)
    assert ok, witness


@pytest.mark.parametrize("n", [3, 4])
def test_stasheff_rays(n):
    assert stasheff_ray_check(n)


def test_fraction_str():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(-2)) == "-2/1"
    assert fraction_str(Fraction(0)) == "0/1"


def test_fan_to_json():
    data = fan_to_json(TAMARI3)
    assert data["dim"] == 2
    assert data["lineality"] == ["1/1", "1/1", "1/1"]
    assert len(data["rays"]) == 5
    for ray in data["rays"]:
        for entry in ray:
            assert "/" in entry
    assert len(data["cones"]) == 5


# ---------------------------------------------------------------------------
# The integer fast paths against the simple field algorithms.


def _rank_oracle(vectors):
    """Rank by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _combo_oracle(rays, v):
    field = NumberField(3)  # Q, elements as 1-tuples
    matrix = [[(r[i],) for r in rays] for i in range(len(v))]
    sol = solve_linear(field, matrix, [(x,) for x in v])
    if sol is None or any(field.sign(c) < 0 for c in sol):
        return None
    return tuple(c for (c,) in sol)


def _rows(vectors):
    return tuple(map(tuple, vectors))


entries = st.integers(min_value=-3, max_value=3)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_integer_elimination_matches_rational_solve(rows, cols, data):
    vectors = [data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    assert fans._rank(vectors) == _rank_oracle(vectors)
    # A square basis, its first k vectors the rays and the rest lineality.
    basis = [data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(cols)]
    k = data.draw(st.integers(1, cols))
    normals = fans._inward_normals(_rows(basis[:k]), _rows(basis[k:]))
    assert (normals is None) == (_rank_oracle(basis) < cols)
    if normals is not None:
        assert all(type(x) is int for b in normals for x in b)
        d = fans._dot(normals[0], basis[0])
        assert d > 0
        assert [[fans._dot(b, r) for r in basis] for b in normals] == [
            [d * (i == j) for j in range(cols)] for i in range(k)
        ]
    # The basis as cone rays in `cols`-space, tested on a random point.
    v = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    for scale in (1, 3):
        rays = [[scale * x for x in r] for r in basis]
        normals = fans._inward_normals(_rows(rays))
        inside = normals is not None and all(fans._dot(b, v) >= 0 for b in normals)
        assert inside == (_combo_oracle(rays, v) is not None)


def test_inward_normals_on_cone_members():
    # Every suffix ray of a permutation's region lies in the region's cone,
    # on every facet but the one opposite it; the first ray's negation
    # lies outside.
    rays = tuple(fans._suffix_rays_a((2, 4, 1, 3)))
    normals = fans._inward_normals(rays, ((1,) * 4,))
    d = fans._dot(normals[0], rays[0])
    assert d > 0
    for k, ray in enumerate(rays):
        assert [fans._dot(b, ray) for b in normals] == [d * (j == k) for j in range(3)]
    assert any(fans._dot(b, tuple(-x for x in rays[0])) < 0 for b in normals)
    # Two rays and the lineality are no basis of the 4-space.
    assert fans._inward_normals(rays[1:], ((1,) * 4,)) is None


def test_int_ray_is_scaled_ray_vector():
    for members in (frozenset({2}), frozenset({1, 3}), frozenset({1, 2, 4})):
        assert fans._int_ray(4, members) == tuple(4 * x for x in ray_vector(4, members))


def _scaled_weights(system):
    """Positive multiples of the fundamental weights with entries in Z[c].

    The columns of adj(2*Gram), the cross products of its rows, are
    det(2*Gram)/2 times the fundamental weights, and det(2*Gram) > 0; entry
    j of the cross product u x v is det(e_j, u, v).
    """
    field = system.field
    two_gram = [tuple(field.scale(x, 2) for x in row) for row in system.gram]
    unit = [tuple(field.one if i == j else field.zero for j in range(3)) for i in range(3)]
    return [
        tuple(fans._det3(field, e, two_gram[(i + 1) % 3], two_gram[(i + 2) % 3]) for e in unit)
        for i in range(3)
    ]


def test_h3_chamber_rays_are_62_integer_keys():
    system = get_system("H3")
    field = system.field
    weights = _scaled_weights(system)
    # Positive multiples of the fundamental weights Gram^-1 e_i.
    for i, omega in enumerate(weights):
        exact = solve_linear(field, system.gram, [field.one if j == i else field.zero for j in range(3)])
        ratio = None
        for x, y in zip(omega, exact):
            if not field.is_zero(y):
                ratio = field.mul(x, field.inv(y))
                break
        assert field.sign(ratio) > 0
        assert tuple(field.mul(ratio, y) for y in exact) == omega
    elements = system.weak_order_lattice().elements
    assert len(elements) == 120
    orbits = [{system.act(w, omega) for w in elements} for omega in weights]
    for orbit in orbits:
        assert all(type(c) is int for ray in orbit for x in ray for c in x)
    assert sorted(len(o) for o in orbits) == [12, 20, 30]
    assert len(set().union(*orbits)) == 62


# ---------------------------------------------------------------------------
# The fan checks against the boundary-cycle and per-family oracles, on
# Cambrian congruences and on congruences that contract one join-irreducible
# (most of whose fans fail).


def _old_fan_faces(camb, cones, side):
    dim = camb.system.rank
    paired = all(len(cone) == dim for cone in cones)
    faces = set()
    owners = defaultdict(list)
    for c, cone in enumerate(cones):
        for size in range(1, dim + 1):
            faces.update(map(frozenset, itertools.combinations(cone, size)))
        if len(cone) == dim:
            for ray in cone:
                owners[frozenset(cone) - {ray}].append((c, ray))
    dual_edges = set()
    for wall, sides in owners.items():
        if len(sides) != 2:
            paired = False
            continue
        (c1, a), (c2, b) = sides
        dual_edges.add(frozenset((c1, c2)))
        paired = paired and side(tuple(wall), a, b)
    cong, quotient = camb.congruence, camb.quotient
    index = cong.lattice.index
    hasse_edges = {
        frozenset(cong.class_of[index[quotient.elements[q]]] for q in cover)
        for cover in quotient.covers
    }
    sizes = Counter(map(len, faces))
    f_vector = tuple(sizes[size] for size in range(1, dim + 1))
    return paired, dual_edges == hasse_edges, f_vector


def _kernel_vector(vectors):
    """A nonzero integer vector orthogonal to all the given integer vectors."""
    rows, pivots, d = fans._echelon(vectors)
    free = next(c for c in range(len(vectors[0])) if c not in pivots)
    out = [0] * len(vectors[0])
    out[free] = d
    for row, col in zip(rows, pivots):
        out[col] = -row[free]
    return tuple(out)


def _nonneg_combo(rays, v):
    """Coefficients >= 0 with sum(lambda_i * ray_i) = v, or None, also
    when the rays are linearly dependent."""
    matrix = [[r[i] for r in rays] + [v[i]] for i in range(len(v))]
    rows, pivots, d = fans._echelon(matrix)
    k = len(rays)
    if pivots != list(range(k)):
        return None
    if any(row[k] * d < 0 for row in rows[:k]):
        return None
    return tuple(Fraction(row[k], d) for row in rows[:k])


def _old_check_fan_a(signature, camb):
    """One class loop per family, as check_fan_a was before the A/B body."""
    n = signature.n
    lattice = camb.congruence.lattice
    polygon = polygon_from_signature(signature)
    d2s = diagonal_ray_map(signature)
    subsets = fan_ray_subsets(signature)
    vectors = {a: fans._int_ray(n, a) for a in subsets}
    simplicial = tiling = consistent = True
    cones = []
    for members in camb.congruence.classes:
        t = eta(lattice.elements[members[0]], polygon)
        cone = tuple(d2s[d] for d in sorted(t.diagonals))
        cones.append(cone)
        rays = [vectors[a] for a in cone]
        if fans._rank(rays) != n - 1:
            simplicial = False
        for i in members:
            for v in fans._suffix_rays_a(lattice.elements[i]):
                if _nonneg_combo(rays, v) is None:
                    tiling = False
        for a in subsets:
            inside = _nonneg_combo(rays, vectors[a]) is not None
            if inside != (a in cone):
                consistent = False
    ones = (1,) * n

    def side(wall, a, b):
        normal = _kernel_vector([vectors[r] for r in wall] + [ones])
        return fans._dot(normal, vectors[a]) * fans._dot(normal, vectors[b]) < 0

    paired, dual_is_hasse, f_vector = _old_fan_faces(camb, cones, side)
    return {
        "family": "A",
        "num_cones": len(cones),
        "simplicial": simplicial,
        "tiling": tiling and paired,
        "consistency": consistent,
        "dual_graph_is_hasse": dual_is_hasse,
        "f_vector": f_vector,
        "num_rays": len(subsets),
    }


def _old_symmetrize(v):
    return tuple(a - b for a, b in zip(v, reversed(v)))


def _old_check_fan_b(signature, camb):
    """check_fan_b before the A/B body, in doubled coordinates."""
    n = signature.n
    lattice = camb.congruence.lattice
    two_n = 2 * n
    vectors = {
        d: _old_symmetrize(fans._int_ray(two_n, a))
        for d, a in diagonal_ray_map(signature.a_signature()).items()
    }
    simplicial = tiling = True
    cones = []
    for members in camb.congruence.classes:
        t = eta_b(lattice.elements[members[0]], signature)
        cone = tuple(
            sorted(
                {
                    min(d, tuple(sorted((two_n + 1 - d[1], two_n + 1 - d[0]))))
                    for d in t.base.diagonals
                }
            )
        )
        cones.append(cone)
        rays = [vectors[d] for d in cone]
        if fans._rank(rays) != n:
            simplicial = False
        for i in members:
            e = embed_b_in_a(lattice.elements[i])
            for k in range(1, n + 1):
                v = _old_symmetrize(fans._int_ray(two_n, frozenset(e[k:])))
                if _nonneg_combo(rays, v) is None:
                    tiling = False

    def side(wall, a, b):
        normal = _kernel_vector([vectors[r][:n] for r in wall] + [(0,) * n])
        return fans._dot(normal, vectors[a][:n]) * fans._dot(normal, vectors[b][:n]) < 0

    paired, dual_is_hasse, f_vector = _old_fan_faces(camb, cones, side)
    return {
        "family": "B",
        "num_cones": len(cones),
        "simplicial": simplicial,
        "tiling": tiling and paired,
        "dual_graph_is_hasse": dual_is_hasse,
        "f_vector": f_vector,
        "num_rays": f_vector[0],
    }


def _in_simplicial_cone(field, extreme, r):
    """Whether r is a nonnegative combination of the three rays, by the
    signs of Cramer's determinants; False when they are dependent."""
    e0, e1, e2 = extreme
    det_sign = field.sign(fans._det3(field, e0, e1, e2))
    return det_sign != 0 and all(
        det_sign * field.sign(fans._det3(field, *rows)) >= 0
        for rows in ((r, e1, e2), (e0, r, e2), (e0, e1, r))
    )


def _old_check_fan_h3(system, camb):
    """check_fan_h3 with cones from boundary cycles: pair counting, a
    base-sign search per boundary wall, and the neighbour graph."""
    field = system.field
    lattice = camb.congruence.lattice
    weights = _scaled_weights(system)
    rays_of = [[system.act(w, omega) for omega in weights] for w in lattice.elements]
    det3 = fans._det3
    simplicial = tiling = True
    cones = []
    for members in camb.congruence.classes:
        facet_count: dict = {}
        member_rays = set()
        for i in members:
            rs = rays_of[i]
            member_rays.update(rs)
            for pair in itertools.combinations(rs, 2):
                key = frozenset(pair)
                facet_count[key] = facet_count.get(key, 0) + 1
        boundary = [tuple(k) for k, cnt in facet_count.items() if cnt == 1]
        if any(cnt > 2 for cnt in facet_count.values()):
            tiling = False
        for u, v in boundary:
            base_sign = 0
            for i in members:
                rs = rays_of[i]
                if u in rs and v in rs:
                    third = next(r for r in rs if r not in (u, v))
                    base_sign = field.sign(det3(field, u, v, third))
                    break
            for r in member_rays:
                s = field.sign(det3(field, u, v, r))
                if s != 0 and s != base_sign:
                    tiling = False
        neighbors: dict = {}
        for u, v in boundary:
            neighbors.setdefault(u, []).append(v)
            neighbors.setdefault(v, []).append(u)
        extreme = []
        for r, nbrs in neighbors.items():
            if len(nbrs) != 2:
                tiling = False
                continue
            if field.sign(det3(field, nbrs[0], r, nbrs[1])) != 0:
                extreme.append(r)
        if len(extreme) != 3:
            simplicial = False
        elif not all(_in_simplicial_cone(field, extreme, r) for r in member_rays):
            tiling = False
        cones.append(tuple(extreme))

    def side(wall, a, b):
        u, v = wall
        sign_a = field.sign(det3(field, u, v, a))
        return sign_a * field.sign(det3(field, u, v, b)) < 0

    paired, dual_is_hasse, f_vector = _old_fan_faces(camb, cones, side)
    return {
        "family": "H3",
        "num_cones": len(cones),
        "simplicial": simplicial,
        "tiling": tiling and paired,
        "dual_graph_is_hasse": dual_is_hasse,
        "f_vector": f_vector,
        "num_rays": f_vector[0],
    }


def _with_quotient(system, orientation, congruences):
    return [
        CambrianLattice(system, orientation, cong, quotient_lattice(cong))
        for cong in congruences
    ]


def _contractions(system):
    """The congruence generated by each join-irreducible of the weak order."""
    lattice = system.weak_order_lattice()
    return [contraction_congruence(lattice, g) for g in lattice.join_irreducibles]


def _moved_members(camb):
    """Partitions, not congruences, that move one member x other than a
    class bottom into the class of a lower cover of x.  No class bottom
    changes, so the A and B cones and the quotient stay, but the region of
    x leaves the cone of its new class."""
    cong = camb.congruence
    lattice = cong.lattice
    bottoms = {members[0] for members in cong.classes}
    out = []
    for x in set(range(lattice.n)) - bottoms:
        for y in lattice.lower[x]:
            if cong.class_of[y] != cong.class_of[x]:
                class_of = list(cong.class_of)
                class_of[x] = cong.class_of[y]
                moved = LatticeCongruence(lattice, class_of)
                out.append(CambrianLattice(camb.system, None, moved, camb.quotient))
    return out


def _memoize(monkeypatch, name, key, module=fans):
    """Cache a pure helper of ``fans`` or of this module: the congruences
    of one group share most of their cones, so both checks repeat the same
    exact solves."""
    fn = getattr(module, name)
    cache = {}

    def cached(*args):
        k = key(*args)
        if k not in cache:
            cache[k] = fn(*args)
        return cache[k]

    monkeypatch.setattr(module, name, cached)


def _same_reports(monkeypatch, cambs, check, oracle):
    """The report of ``check`` on each lattice, fed to it through
    ``fans.cambrian_lattice``, after comparing it with ``oracle``."""
    reports = []
    for camb in cambs:
        monkeypatch.setattr(fans, "cambrian_lattice", lambda *args, **kwargs: camb)
        report = check()
        assert report == oracle(camb)
        reports.append(report)
    return reports


def test_h3_leaving_walls_match_boundary_cycles(monkeypatch):
    _memoize(monkeypatch, "_det3", lambda field, *rows: rows)
    system = get_system("H3")
    lattice = system.weak_order_lattice()
    trivial = LatticeCongruence(lattice, list(range(lattice.n)))
    reports = []
    for k, orientation in enumerate(all_orientations(system)):
        congruences = [cambrian_lattice(system, orientation).congruence]
        if k == 0:
            congruences += [trivial] + _contractions(system)
        reports += _same_reports(
            monkeypatch,
            _with_quotient(system, orientation, congruences),
            lambda: fans.check_fan_h3(system, orientation),
            lambda camb: _old_check_fan_h3(system, camb),
        )
    assert len(reports) == 4 + 1 + 59
    assert sum(fan_passed(r) for r in reports) >= 5
    assert any(not r["simplicial"] for r in reports)
    assert any(not r["tiling"] for r in reports)


def _unpruned_check_fan_h3(system, camb):
    """check_fan_h3 with the tests that cannot change a rank-3 report: the
    count of leaving hyperplanes and the containment of every member ray
    in the cone of the extreme rays."""
    field = system.field
    weights = _scaled_weights(system)
    cong = camb.congruence
    lattice = cong.lattice
    rays_of = [[system.act(w, omega) for omega in weights] for w in lattice.elements]
    simplicial = tiling = True
    cones = []
    for c, members in enumerate(cong.classes):
        walls = {}
        for i in members:
            w, rays = lattice.elements[i], rays_of[i]
            for k, name in enumerate(system.generator_names):
                ws = system.right_multiply(w, name)
                if cong.class_of[lattice.index[ws]] != c:
                    (t,) = system.inversion_set(w) ^ system.inversion_set(ws)
                    walls.setdefault(t, (rays[k - 2], rays[k - 1], rays[k]))
        member_rays = {r for i in members for r in rays_of[i]}
        on_walls = Counter()
        for u, v, inner in walls.values():
            signs = {r: field.sign(fans._det3(field, u, v, r)) for r in member_rays}
            for r, sign in signs.items():
                if sign == 0:
                    on_walls[r] += 1
                elif sign != signs[inner]:
                    tiling = False
        extreme = [r for r in member_rays if on_walls[r] >= 2]
        if len(walls) != 3 or len(extreme) != 3:
            simplicial = False
        elif not all(_in_simplicial_cone(field, extreme, r) for r in member_rays):
            tiling = False
        cones.append(tuple(extreme))

    def side(wall, c, a, b):
        u, v = wall
        sign_a = field.sign(fans._det3(field, u, v, a))
        return sign_a * field.sign(fans._det3(field, u, v, b)) < 0

    report = fans._fan_faces(camb, cones, side, simplicial, tiling)
    return {"family": "H3", **report}


def _moved_and_merged(camb):
    """Partitions, not congruences, made from a Cambrian congruence: one
    chamber moved into the class of an adjacent chamber, or two adjacent
    classes merged.  The quotient stays, so most dual graphs fail too."""
    cong = camb.congruence
    lattice = cong.lattice
    class_of = cong.class_of
    moves, merges = set(), set()
    for x, y in lattice.covers:
        a, b = class_of[x], class_of[y]
        if a != b:
            moves |= {(x, b), (y, a)}
            merges.add((min(a, b), max(a, b)))
    partitions = [
        [b if i == x else c for i, c in enumerate(class_of)] for x, b in sorted(moves)
    ] + [[a if c == b else c for c in class_of] for a, b in sorted(merges)]
    return [
        CambrianLattice(camb.system, None, LatticeCongruence(lattice, p), camb.quotient)
        for p in partitions
    ]


def test_h3_pruned_check_matches_unpruned(monkeypatch):
    _memoize(monkeypatch, "_det3", lambda field, *rows: rows)
    faces = fans._fan_faces

    def faces_and_class_flag(camb, cones, side, simplicial, tiling):
        # Report the class tests' verdict too, which wall pairing can hide.
        return {**faces(camb, cones, side, simplicial, tiling), "classes_tile": tiling}

    monkeypatch.setattr(fans, "_fan_faces", faces_and_class_flag)
    system = get_system("H3")
    reports = []
    for orientation in all_orientations(system):
        camb = cambrian_lattice(system, orientation)
        # Every tenth of the 196 or 204 partitions of each orientation.
        partitions = _moved_and_merged(camb)[::10]
        reports += _same_reports(
            monkeypatch,
            [camb] + partitions,
            lambda: fans.check_fan_h3(system, orientation),
            lambda camb: _unpruned_check_fan_h3(system, camb),
        )
    assert len(reports) == 4 + 82
    assert sum(fan_passed(r) for r in reports) == 4
    assert any(r["simplicial"] and not r["tiling"] for r in reports)
    assert any(not r["simplicial"] for r in reports)
    # Some classes fail the inner-side sign test.
    assert any(not r["classes_tile"] for r in reports)


def _per_orientation_check_fan_h3(system, camb):
    """check_fan_h3 before the chamber table: rays, neighbours and wall
    reflections found again for each orientation, and one determinant per
    leaving wall and member ray, from that wall's own two rays."""
    field = system.field
    weights = _scaled_weights(system)
    cong = camb.congruence
    lattice = cong.lattice
    rays_of = [[system.act(w, omega) for omega in weights] for w in lattice.elements]
    simplicial = tiling = True
    cones = []
    for c, members in enumerate(cong.classes):
        walls = {}
        for i in members:
            w, rays = lattice.elements[i], rays_of[i]
            for k, name in enumerate(system.generator_names):
                ws = system.right_multiply(w, name)
                if cong.class_of[lattice.index[ws]] != c:
                    (t,) = system.inversion_set(w) ^ system.inversion_set(ws)
                    walls.setdefault(t, (rays[k - 2], rays[k - 1], rays[k]))
        member_rays = {r for i in members for r in rays_of[i]}
        on_walls = Counter()
        for u, v, inner in walls.values():
            signs = {r: field.sign(fans._det3(field, u, v, r)) for r in member_rays}
            for r, sign in signs.items():
                if sign == 0:
                    on_walls[r] += 1
                elif sign != signs[inner]:
                    tiling = False
        extreme = [r for r in member_rays if on_walls[r] >= 2]
        if len(extreme) != 3:
            simplicial = False
        cones.append(tuple(extreme))

    def side(wall, c, a, b):
        u, v = wall
        sign_a = field.sign(fans._det3(field, u, v, a))
        return sign_a * field.sign(fans._det3(field, u, v, b)) < 0

    return {"family": "H3", **fans._fan_faces(camb, cones, side, simplicial, tiling)}


def test_h3_chamber_table_matches_per_orientation_body(monkeypatch):
    _memoize(monkeypatch, "_det3", lambda field, *rows: rows)
    faces = fans._fan_faces

    def faces_and_class_flag(camb, cones, side, simplicial, tiling):
        return {**faces(camb, cones, side, simplicial, tiling), "classes_tile": tiling}

    monkeypatch.setattr(fans, "_fan_faces", faces_and_class_flag)
    system = get_system("H3")
    lattice = system.weak_order_lattice()
    trivial = LatticeCongruence(lattice, list(range(lattice.n)))
    reports = []
    for k, orientation in enumerate(all_orientations(system)):
        camb = cambrian_lattice(system, orientation)
        cambs = [camb] + _moved_and_merged(camb)[::10]
        if k == 0:
            cambs += _with_quotient(system, orientation, [trivial] + _contractions(system))
        reports += _same_reports(
            monkeypatch,
            cambs,
            lambda: fans.check_fan_h3(system, orientation),
            lambda camb: _per_orientation_check_fan_h3(system, camb),
        )
    assert len(reports) == 4 + 82 + 1 + 59
    assert sum(fan_passed(r) for r in reports) >= 5
    assert any(r["simplicial"] and not r["tiling"] for r in reports)
    assert any(not r["simplicial"] for r in reports)
    assert any(not r["classes_tile"] for r in reports)


def test_h3_second_orientation_builds_nothing(monkeypatch):
    """The chamber table and the four orientations' checks do no field
    arithmetic, act on no vector and take no determinant; the table is
    built once for all four."""
    system = get_system("H3")
    lattice = system.weak_order_lattice()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("mul", "sign"):
        monkeypatch.setattr(NumberField, name, counted(name, getattr(NumberField, name)))
    monkeypatch.setattr(system, "act", counted("act", system.act))
    monkeypatch.setattr(fans, "_det3", counted("det3", fans._det3))
    fans._chamber_table.cache_clear()
    fans._chamber_table(system, lattice)
    assert calls == {}
    for orientation in all_orientations(system):
        fans.check_fan_h3(system, orientation)
    assert calls == {}
    assert fans._chamber_table.cache_info().misses == 1


def test_h3_chamber_table_matches_act_inversions_and_det3():
    """The chamber rays w * omega_k have 62 distinct sign vectors, one per
    ray vector; every wall's reflection is the one inversion of w and
    w * s_k that the other lacks; and on every wall the signs of
    det(u, v, r) over all 62 ray vectors r are the sign vectors' entries at
    its reflection times one nonzero factor."""
    system = get_system("H3")
    field = system.field
    lattice = system.weak_order_lattice()
    rays_of, moves = fans._chamber_table(system, lattice)
    weights = _scaled_weights(system)
    vector_of = {}
    for i, w in enumerate(lattice.elements):
        for key, omega in zip(rays_of[i], weights):
            vector = system.act(w, omega)
            assert vector_of.setdefault(key, vector) == vector
    assert len(vector_of) == len(set(vector_of.values())) == 62
    walls = 0
    for i, w in enumerate(lattice.elements):
        for k, name in enumerate(system.generator_names):
            ws = system.right_multiply(w, name)
            (flipped,) = system.inversion_set(w) ^ system.inversion_set(ws)
            assert moves[i][k] == (lattice.index[ws], flipped)
            assert system.wall_reflection(w, name) == flipped
            u, v = (vector_of[r] for m, r in enumerate(rays_of[i]) if m != k)
            row = {key: field.sign(fans._det3(field, u, v, r)) for key, r in vector_of.items()}
            factors = {sign * key[flipped] for key, sign in row.items() if sign or key[flipped]}
            assert factors in ({1}, {-1}), (i, name)
            walls += 1
    assert walls == 120 * 3


def test_h3_fan_suite_fault_is_not_hidden_by_the_chamber_table_cache(monkeypatch):
    """The chamber table is kept per weak order: after a clean run has
    filled it, a fault in one entry of one chamber's ray still fails the
    suite, and a clean rerun reports the same bytes as the first run."""
    from cambrian import suites

    clean = json.dumps(suites.run_suite("fan", "H3"), indent=2)
    fans._chamber_table.cache_clear()
    chamber_table = fans._chamber_table

    def faulty_table(system, lattice):
        # Negate the first nonzero entry of the identity chamber's first ray.
        rays_of, moves = chamber_table(system, lattice)
        ray, *rest = rays_of[0]
        t = next(t for t, s in enumerate(ray) if s)
        wrong = (*ray[:t], -ray[t], *ray[t + 1 :])
        return ((wrong, *rest), *rays_of[1:]), moves

    monkeypatch.setattr(fans, "_chamber_table", faulty_table)
    faulty = suites.run_suite("fan", "H3")
    assert not faulty["passed"]
    fan_checks = [c for c in faulty["checks"] if "tiling" in c]
    assert len(fan_checks) == 4 and not any(c["tiling"] for c in fan_checks)
    monkeypatch.undo()
    assert json.dumps(suites.run_suite("fan", "H3"), indent=2) == clean


def test_h3_fan_suite_builds_each_cambrian_lattice_once(monkeypatch):
    """One closure and one quotient per orientation of H3."""
    from cambrian import congruences, suites

    calls = Counter()
    for name in ("congruence_closure", "quotient_lattice"):
        fn = getattr(congruences, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(congruences, name, wrapper)
    assert suites.run_suite("fan", "H3")["passed"]
    assert calls == {"congruence_closure": 4, "quotient_lattice": 4}


def test_ab_fan_suite_builds_each_lattice_and_cone_once(monkeypatch):
    """One closure and one quotient per orientation and one elimination per
    distinct cone of each group (24 and 264 in A, 12 and 184 in B when each
    signature built its own).  A second call builds the lattices again, but
    the eliminations are cached for the process and are not repeated."""
    from cambrian import congruences, suites

    fans._inward_normals.cache_clear()

    calls = Counter()
    for module, name in (
        (congruences, "congruence_closure"),
        (congruences, "quotient_lattice"),
        (fans, "_echelon"),
    ):
        fn = getattr(module, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)
    for args, lattices, cones in ((("fan", "A", 7), 2 + 4, 88), (("fan", "B"), 2 + 4, 108)):
        for eliminations in (cones, 0):
            calls.clear()
            assert suites.run_suite(*args)["passed"]
            assert calls == Counter(
                congruence_closure=lattices, quotient_lattice=lattices, _echelon=eliminations
            ), args


def _swap_first_ray(cones):
    """The cones with the first ray of the first one replaced by a ray of
    another cone that it lacks."""
    first = cones[0]
    other = next(a for cone in cones[1:] for a in cone if a not in first)
    return [(other, *first[1:])] + list(cones[1:])


@pytest.mark.parametrize("family,broken", [("A", "uuuu"), ("B", "uuu")])
def test_fan_suite_fails_a_cone_with_a_swapped_ray(monkeypatch, family, broken):
    """A class cone with one ray swapped fails its signature's check in the
    suite, after the elimination cache has seen the other signatures'
    cones, and only that check."""
    from cambrian import suites

    class_diagonals = fans._class_diagonals

    def swapped(camb, signature, n):
        diagonals = class_diagonals(camb, signature, n)
        if signature.to_string() != broken:
            return diagonals
        return [sorted(d) for d in _swap_first_ray(diagonals)]

    monkeypatch.setattr(fans, "_class_diagonals", swapped)
    report = suites.run_suite("fan", family)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"].split()[-1] for c in failed] == [broken]
    assert not (failed[0]["tiling"] and failed[0].get("consistency", True))


def test_fan_suite_fault_is_not_hidden_by_the_elimination_cache(monkeypatch):
    """The cache is keyed by ray vectors: after a clean run has filled it,
    a ray fault still fails the suite, and a clean rerun reports the same
    bytes as the first run.  The fault tilts the ray {2} a little, which
    keeps every wall side and fan ray test; only the tilted cones' own
    normals show that the clean region rays, kept per weak order, left
    them."""
    from cambrian import suites

    clean = json.dumps(suites.run_suite("fan"), indent=2)
    int_ray = fans._int_ray

    def tilted(n, members):
        ray = int_ray(n, members)
        if members != {2}:
            return ray
        ray = [10 * x for x in ray]
        return (ray[0] + 1, *ray[1:-1], ray[-1] - 1)

    monkeypatch.setattr(fans, "_int_ray", tilted)
    faulty = suites.run_suite("fan")
    assert not faulty["passed"]
    assert any(not c.get("tiling", True) for c in faulty["checks"] if not c["passed"])
    monkeypatch.undo()
    assert json.dumps(suites.run_suite("fan"), indent=2) == clean


def test_ab_body_matches_per_family_loops(monkeypatch):
    _memoize(monkeypatch, "_rank", _rows)
    _memoize(
        monkeypatch,
        "_nonneg_combo",
        lambda rays, v: (_rows(rays), tuple(v)),
        module=sys.modules[__name__],
    )
    cases = (
        [("A", 3, sig) for sig in all_updown_signatures(4)]
        + [("B", 3, sig) for sig in all_symmetric_signatures(3)]
        + [("A", 4, sig) for sig in all_updown_signatures(5)[::6]]
    )
    reports = []
    moved = []
    for family, rank, sig in cases:
        system = get_system(family, rank)
        orientation = orientation_from_edges(system, sig.orientation_edges())
        check, oracle = {
            "A": (check_fan_a, _old_check_fan_a),
            "B": (check_fan_b, _old_check_fan_b),
        }[family]
        congruences = [cambrian_lattice(system, orientation).congruence]
        cambs = _with_quotient(system, orientation, congruences + _contractions(system))
        reports += _same_reports(
            monkeypatch, cambs, lambda: check(sig), lambda camb: oracle(sig, camb)
        )
        if rank == 3:
            moved += _same_reports(
                monkeypatch,
                _moved_members(cambs[0]),
                lambda: check(sig),
                lambda camb: oracle(sig, camb),
            )
    assert len(reports) == 16 * 12 + 8 * 24 + 6 * 27
    assert sum(fan_passed(r) for r in reports) == len(cases)
    assert sum(not r["tiling"] for r in reports) == len(reports) - len(cases)
    # Only the member regions show that a moved member left its cone.
    assert len(moved) == 72 + 88
    assert not any(r["tiling"] for r in moved)
    assert all(r["simplicial"] and r["dual_graph_is_hasse"] for r in moved)


def _per_member_check_fan_ab(camb, cones, vectors, region_rays, lineality=(), fan_rays=None):
    """_check_fan_ab before the region table: every ray of every member's
    region tested against its class cone."""
    normals = [
        fans._inward_normals(tuple(vectors[a] for a in cone), lineality) for cone in cones
    ]

    def inside(c, v):
        return normals[c] is not None and all(fans._dot(b, v) >= 0 for b in normals[c])

    simplicial = None not in normals
    tiling = all(
        inside(c, v)
        for c, members in enumerate(camb.congruence.classes)
        for i in members
        for v in region_rays(camb.congruence.lattice.elements[i])
    )
    extra = {}
    if fan_rays is not None:
        extra["consistency"] = all(
            inside(c, vectors[a]) == (a in cone)
            for c, cone in enumerate(cones)
            for a in fan_rays
        )
    owner = {frozenset(cone): c for c, cone in enumerate(cones)}

    def side(wall, _, a, b):
        # The cone is looked up here, not taken from _fan_faces.
        c = owner[frozenset(wall) | {a}]
        return simplicial and fans._dot(normals[c][cones[c].index(a)], vectors[b]) < 0

    return fans._fan_faces(camb, cones, side, simplicial, tiling, **extra)


@pytest.mark.parametrize(
    "family,n,moved_count",
    [("A", 3, 0), ("A", 4, 72), ("A", 5, 216), ("B", 2, 0), ("B", 3, 88)],
)
def test_region_table_matches_per_member_loop(monkeypatch, family, n, moved_count):
    """The fan check of every signature against the per-member tiling loop,
    and of the partitions that move one member into the class of a lower
    neighbour (every tenth of them for S5), where the tiling fails."""
    _memoize(
        monkeypatch,
        "_inward_normals",
        lambda rays, lineality=(): (_rows(rays), _rows(lineality)),
    )
    check_ab = fans._check_fan_ab

    def both(*args, **kwargs):
        report = check_ab(*args, **kwargs)
        assert report == _per_member_check_fan_ab(*args, **kwargs)
        return report

    monkeypatch.setattr(fans, "_check_fan_ab", both)
    if family == "A":
        system, check = get_system("A", n - 1), check_fan_a
        signatures = all_updown_signatures(n)
    else:
        system, check = get_system("B", n), check_fan_b
        signatures = all_symmetric_signatures(n)
    moved = []
    for sig in signatures:
        orientation = orientation_from_edges(system, sig.orientation_edges())
        camb = cambrian_lattice(system, orientation)
        partitions = _moved_members(camb)[:: 10 if n == 5 else 1]
        for partition in [camb] + partitions:
            monkeypatch.setattr(fans, "cambrian_lattice", lambda *_, **__: partition)
            report = check(sig)
            if partition is camb:
                assert fan_passed(report), sig
            else:
                moved.append(report)
    assert len(moved) == moved_count
    assert not any(r["tiling"] for r in moved)


def _counted(monkeypatch, name, calls):
    """Count the calls of a helper of ``fans`` by its first argument."""
    fn = getattr(fans, name)

    def counted(*args):
        calls[args[0]] += 1
        return fn(*args)

    monkeypatch.setattr(fans, name, counted)


def test_region_rays_are_read_once_per_weak_order(monkeypatch):
    calls = Counter()
    _counted(monkeypatch, "_suffix_rays_a", calls)
    for sig in all_updown_signatures(4):
        assert fan_passed(check_fan_a(sig))
    assert len(calls) == 24 and set(calls.values()) == {1}


def test_ray_table_is_built_once_per_signature(monkeypatch):
    """The fan suite of A builds it once per signature of S3 and S4, and
    once per Stasheff n = 3..7."""
    from cambrian import suites

    calls = Counter()
    _counted(monkeypatch, "_rays_and_diagonals", calls)
    assert suites.run_suite("fan", "A", 7)["passed"]
    assert sum(calls.values()) == 8 + 16 + 5


# ---------------------------------------------------------------------------
# The ray-diagonal table and the one flip order against the searches and
# per-family loops they replace.


def _old_fan_ray_subsets(signature):
    n = signature.n
    subsets = [frozenset(range(k + 1, n + 1)) for k in range(1, n)]
    for k in range(1, n):
        for l in range(k, n):
            subsets.append(fans.a_kl_subset(signature, k, l))
    return subsets


def _old_ray_to_diagonal(a, signature):
    n = signature.n

    def mu_up(i):
        return max(v for v in range(i + 1) if signature.is_up(v))

    def mu_down(i):
        return max(v for v in range(i + 1) if signature.is_down(v))

    def nu_up(i):
        return min(v for v in range(i, n + 2) if signature.is_up(v))

    def nu_down(i):
        return min(v for v in range(i, n + 2) if signature.is_down(v))

    for k in range(1, n):
        if a == frozenset(range(k + 1, n + 1)):
            return tuple(sorted((mu_up(k), nu_down(k + 1))))
    for k in range(1, n):
        for l in range(k, n):
            if a != fans.a_kl_subset(signature, k, l):
                continue
            if k == l:
                return tuple(sorted((mu_down(k), nu_up(k + 1))))
            left = mu_up(k) if signature.is_up(k + 1) else mu_down(k)
            right = nu_up(l + 1) if signature.is_up(l) else nu_down(l + 1)
            return tuple(sorted((left, right)))
    raise ValueError(f"{sorted(a)} is not a ray subset for this signature")


def _old_diagonal_ray_map(signature):
    out = {}
    for a in _old_fan_ray_subsets(signature):
        d = _old_ray_to_diagonal(a, signature)
        assert d not in out
        out[d] = a
    return out


def test_ray_diagonal_table_matches_searches():
    count = 0
    for n in range(2, 8):
        for sig in all_updown_signatures(n):
            subsets = _old_fan_ray_subsets(sig)
            assert fan_ray_subsets(sig) == subsets
            assert [ray_to_diagonal(a, sig) for a in subsets] == [
                _old_ray_to_diagonal(a, sig) for a in subsets
            ]
            mapping = diagonal_ray_map(sig)
            assert list(mapping.items()) == list(_old_diagonal_ray_map(sig).items())
            assert len(mapping) == (n + 2) * (n - 1) // 2
            count += 1
    assert count == 2 ** 2 + 2 ** 3 + 2 ** 4 + 2 ** 5 + 2 ** 6 + 2 ** 7


def _old_cluster_poset(n):
    items = list(clusters(n).clusters)
    covers = []
    for i, c1 in enumerate(items):
        for j, c2 in enumerate(items):
            if i >= j or len(c1 & c2) != n - 2:
                continue
            (beta,) = tuple(c1 - c2)
            (theta,) = tuple(c2 - c1)
            rb, rt = rotation_number(n, beta), rotation_number(n, theta)
            assert rb != rt
            covers.append((i, j) if rb < rt else (j, i))
    return tuple(items), covers


def _old_b_cluster_poset(n):
    m = 2 * n
    invariant = fans._invariant_clusters(n)
    covers = []
    for i, c1 in enumerate(invariant):
        for j in range(i + 1, len(invariant)):
            c2 = invariant[j]
            gone, came = c1 - c2, c2 - c1
            if not gone:
                continue
            if len({frozenset((r, fans._chi_root(r))) for r in gone}) != 1:
                continue
            if len({frozenset((r, fans._chi_root(r))) for r in came}) != 1:
                continue
            rb = {rotation_number(m, r) for r in gone}
            rt = {rotation_number(m, r) for r in came}
            assert len(rb) == len(rt) == 1 and rb != rt
            covers.append((i, j) if rb.pop() < rt.pop() else (j, i))
    return tuple(invariant), covers


@pytest.mark.parametrize(
    "poset,oracle,n",
    [(cluster_poset, _old_cluster_poset, n) for n in range(2, 7)]
    + [(b_cluster_poset, _old_b_cluster_poset, n) for n in range(1, 4)],
)
def test_flip_order_matches_per_family_loops(poset, oracle, n):
    lattice, expected = poset(n), FiniteLattice.from_covers(*oracle(n))
    assert lattice.elements == expected.elements
    assert lattice.covers == expected.covers


# ---------------------------------------------------------------------------
# Class cones read off the whole-group eta tables.


@pytest.mark.parametrize(
    "family,n", [("A", n) for n in range(3, 6)] + [("B", n) for n in range(2, 4)]
)
def test_class_diagonals_match_per_element_eta(family, n):
    """The class bottoms' diagonals, read off the eta tables, against eta
    (eta_b's doubled base in type B) of each bottom on every signature."""
    if family == "A":
        system, signatures, size = get_system("A", n - 1), all_updown_signatures(n), n
    else:
        system, signatures, size = get_system("B", n), all_symmetric_signatures(n), 2 * n
    for sig in signatures:
        camb = fans._signature_lattice(system, sig)
        got = fans._class_diagonals(camb, sig, size)
        elements = camb.congruence.lattice.elements
        bottoms = [elements[members[0]] for members in camb.congruence.classes]
        if family == "A":
            polygon = polygon_from_signature(sig)
            want = [sorted(eta(x, polygon).diagonals) for x in bottoms]
        else:
            want = [sorted(eta_b(x, sig).base.diagonals) for x in bottoms]
        assert got == want, sig


def test_no_check_walks_eta_one_element_at_a_time(monkeypatch, capsys):
    """With eta, eta_b and the per-element walk made to raise, the fan
    checks, the fan export, the fibers suite and the eta suites all pass."""
    from cambrian import polygon_a, polygon_b, suites
    from cambrian.cli import main

    def walked(*args, **kwargs):
        raise AssertionError("eta walked one element")

    for module, name in (
        (polygon_a, "eta"), (polygon_a, "_eta_mask"), (polygon_b, "eta_b"), (suites, "eta"),
    ):
        monkeypatch.setattr(module, name, walked)
    assert suites.run_suite("fan", "A")["passed"]
    assert suites.run_suite("fan", "B")["passed"]
    assert fan_to_json(UpDownSignature.from_string("udud"))["cones"]
    assert suites.suite_fibers(max_rank=4)["passed"]
    for suite in ("congruence-eq", "descent"):
        assert main(["verify", "--suite", suite, "--max-rank", "4"]) == 0, suite
    for family, signature in (("A", "udud"), ("B", "udu")):
        args = ["fan", "--family", family, "--rank", "3", "--signature", signature]
        assert main(args) == 0, family
    capsys.readouterr()
