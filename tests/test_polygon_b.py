"""Tests for centrally symmetric triangulations and signed patterns."""

import itertools
import math
import re
from array import array

import pytest

from cambrian import (
    SymmetricSignature,
    all_symmetric_signatures,
    b_shard_arrow,
    b_tamari_membership,
    cambrian_congruence,
    descent_set_b,
    eta_b,
    get_system,
    is_pi_down_fixed,
    ji_contraction_test_b,
    linear_signature,
    orientation_from_edges,
    poset_isomorphism,
    quotient_lattice,
    symmetric_triangulation_lattice,
    symmetric_triangulations,
)
from cambrian.coxeter import (
    _a_value_to_b,
    all_signed_ji_subsets,
    contains_signed_pattern,
    embed_b_in_a,
    full_notation,
    signed_ji_bounds,
)
from cambrian import polygon_a, suites
from cambrian.fans import check_fan_b
from cambrian.lattices import FiniteLattice
from cambrian.polygon_a import _mask_diagonals, all_triangulations
from cambrian.polygon_b import B_TAMARI_PATTERNS, _is_symmetric, _mirror, b_tamari_avoiders


def unbridge(sig, p):
    """Type-A vertex label 0..2n+1 of the doubled polygon to signed label."""
    return _a_value_to_b(p, sig.n)


def signed_diagonals(tri):
    """The diagonals of a symmetric triangulation, with signed labels."""
    sig = tri.signature
    return frozenset(
        tuple(sorted((unbridge(sig, p), unbridge(sig, q)))) for p, q in tri.base.diagonals
    )


def test_symmetric_signature_validation():
    sig = SymmetricSignature.from_positive_ups(3, {1, 3})
    assert sig.ups == frozenset({1, 3, -2})
    assert sig.is_up(1) and not sig.is_up(-1)
    with pytest.raises(ValueError):
        SymmetricSignature(2, frozenset({1, -1, 2, -2}))
    with pytest.raises(ValueError):
        SymmetricSignature(2, frozenset({3, -1, 2}))


def test_bridge_round_trip():
    sig = SymmetricSignature.from_positive_ups(3, {2})
    for i in [v for v in range(-4, 5) if v != 0]:
        assert unbridge(sig, sig.bridge(i)) == i
    assert sig.bridge(-4) == 0 and sig.bridge(4) == 7
    a_sig = sig.a_signature()
    assert a_sig.n == 6
    assert a_sig.ups == frozenset(sig.bridge(i) for i in sig.ups)


def _old_bridge(n, i):
    if i == -(n + 1):
        return 0
    if i == n + 1:
        return 2 * n + 1
    return i + n + 1 if i < 0 else i + n


def _old_unbridge(n, p):
    if p == 0:
        return -(n + 1)
    if p == 2 * n + 1:
        return n + 1
    return p - n - 1 if p <= n else p - n


@pytest.mark.parametrize("n", range(1, 7))
def test_bridge_matches_piecewise_labels(n):
    sig = SymmetricSignature.from_positive_ups(n, ())
    labels = [i for i in range(-(n + 1), n + 2) if i != 0]
    assert [sig.bridge(i) for i in labels] == [_old_bridge(n, i) for i in labels]
    assert [unbridge(sig, p) for p in range(2 * n + 2)] == [
        _old_unbridge(n, p) for p in range(2 * n + 2)
    ]
    assert sorted(map(sig.bridge, labels)) == list(range(2 * n + 2))


def test_orientation_edges():
    sig = SymmetricSignature.from_positive_ups(3, {1, 3})
    # 1 up: (1, 0); 2 down: (1, 2).
    assert sig.orientation_edges() == ((1, 0), (1, 2))


def test_eta_b_always_symmetric():
    system = get_system("B", 3)
    sig = SymmetricSignature.from_positive_ups(3, {2})
    for x in system.weak_order_lattice().elements:
        tri = eta_b(tuple(x), sig)
        mirrored = {(-q, -p) for p, q in signed_diagonals(tri)}
        assert mirrored == set(signed_diagonals(tri))


def test_eta_b_fiber_count():
    system = get_system("B", 2)
    sig = SymmetricSignature.from_positive_ups(2, {1})
    fibers = {signed_diagonals(eta_b(tuple(x), sig)) for x in system.weak_order_lattice().elements}
    assert len(fibers) == math.comb(4, 2)


def test_ji_contraction_examples():
    sig = SymmetricSignature.from_positive_ups(2, {1, 2})
    # Atoms are never contracted: the open interval misses +-[n].
    assert not ji_contraction_test_b(2, frozenset({-1, 2}), sig)
    with pytest.raises(ValueError):
        ji_contraction_test_b(2, frozenset({1, 3}), sig)
    # n=3, A={-2,3}: the open window (-2, 1) meets the complement only in
    # -1, so contraction follows the up-ness of -1 (i.e. the down-ness of 1).
    up1 = SymmetricSignature.from_positive_ups(3, {1})
    down1 = SymmetricSignature.from_positive_ups(3, {2, 3})
    members = frozenset({-2, 3})
    assert not ji_contraction_test_b(3, members, up1)
    assert ji_contraction_test_b(3, members, down1)


def _ji_contraction_oracle_b(n, members, signature):
    """ji_contraction_test_b before the parity form."""
    m, big_m = signed_ji_bounds(n, members)
    values = {v for v in range(-n, n + 1) if v != 0}
    comp = values - members
    return any(
        signature.is_up(b) for b in comp if m < b < big_m
    ) or any(not signature.is_up(b) for b in members if m < b < big_m)


def test_ji_contraction_matches_two_sided_oracle():
    cases = [
        (n, members, sig)
        for n in range(1, 5)
        for sig in all_symmetric_signatures(n)
        for members in all_signed_ji_subsets(n)
    ]
    assert len(cases) == 1426
    for case in cases:
        assert ji_contraction_test_b(*case) == _ji_contraction_oracle_b(*case)
    assert 0 < sum(ji_contraction_test_b(*case) for case in cases) < len(cases)


def test_b_shard_arrow_validation():
    with pytest.raises(ValueError):
        b_shard_arrow(2, frozenset({1, 3}), frozenset({-1, 2}))
    # Atoms force nothing but may be forced.
    assert not b_shard_arrow(2, frozenset({-1, 2}), frozenset({-1, 2}))


@pytest.mark.parametrize("n", [4, 5])
def test_b_shard_arrows_close_to_the_forcing_above_the_suite(n):
    """The shard suite stops at B_3, where an arrow too many can hide in
    the closure; B_4 and B_5 close the arrows to the brute forcing too."""
    (check,) = suites._shard_checks(n, get_system("B", n), f"B n={n}")
    assert check["passed"], check["witness"]


def test_b_tamari_counts_and_identity():
    for variant in ("toward_s0", "away_from_s0"):
        assert b_tamari_membership((1, 2, 3), variant)
        system = get_system("B", 3)
        members = [x for x in system.weak_order_lattice().elements if b_tamari_membership(tuple(x), variant)]
        assert len(members) == math.comb(6, 3)
    with pytest.raises(ValueError):
        b_tamari_membership((1, 2), "sideways")
    with pytest.raises(ValueError):
        b_tamari_membership((2, 1, -2), "toward_s0")


@pytest.mark.parametrize("n", range(2, 6))
def test_b_tamari_avoiders_match_brute_force_pattern_search(n):
    """One pass over B_n equals one brute-force pattern search per element,
    pattern and variant."""
    elements = [
        tuple(s * v for s, v in zip(signs, perm))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]
    avoiders = b_tamari_avoiders(elements)
    assert set(avoiders) == set(B_TAMARI_PATTERNS)
    for variant, patterns in B_TAMARI_PATTERNS.items():
        brute = {
            x for x in elements
            if not any(contains_signed_pattern(x, p) for p in patterns)
        }
        assert avoiders[variant] == brute
        assert len(brute) == math.comb(2 * n, n)
        assert {x for x in elements if b_tamari_membership(x, variant)} == brute


def test_b_tamari_excluded_at_rank_two():
    system = get_system("B", 2)
    excluded = {
        tuple(x)
        for x in system.weak_order_lattice().elements
        if not b_tamari_membership(tuple(x), "toward_s0")
    }
    assert excluded == {(-2, -1), (2, -1)}


def test_b_tamari_matches_projection_fixedness():
    for variant in ("toward_s0", "away_from_s0"):
        sig = linear_signature(3, variant)
        a_sig = sig.a_signature()
        system = get_system("B", 3)
        for x in system.weak_order_lattice().elements:
            fixed = is_pi_down_fixed(embed_b_in_a(tuple(x)), a_sig)
            assert fixed == b_tamari_membership(tuple(x), variant)


def filtered_symmetric_triangulations(signature):
    """Every triangulation of the polygon that the central symmetry fixes."""
    return {
        t
        for t in all_triangulations(signature.polygon)
        if _is_symmetric(t.diagonals, 2 * signature.n)
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_triangulation_counts(n):
    for sig in all_symmetric_signatures(n):
        bases = [t.base for t in symmetric_triangulations(sig)]
        assert len(bases) == len(set(bases)) == math.comb(2 * n, n)
        assert set(bases) == filtered_symmetric_triangulations(sig)


def test_symmetric_triangulation_lattice_matches_quotient():
    for sig in all_symmetric_signatures(2):
        system = get_system("B", 2)
        orientation = orientation_from_edges(system, sig.orientation_edges())
        cong = cambrian_congruence(system, orientation)
        lattice = symmetric_triangulation_lattice(sig)
        assert len(lattice.elements) == 6
        assert poset_isomorphism(lattice, quotient_lattice(cong))


def test_descent_set_b_matches_group_descents():
    system = get_system("B", 3)
    sig = SymmetricSignature.from_positive_ups(3, {2})
    identity = (1, 2, 3)
    w0 = (-1, -2, -3)
    assert descent_set_b(eta_b(identity, sig)) == frozenset()
    assert descent_set_b(eta_b(w0, sig)) == frozenset({0, 1, 2})
    for x in system.weak_order_lattice().elements:
        got = descent_set_b(eta_b(tuple(x), sig))
        assert got == frozenset(system.left_descents(x))


def _per_a_descents_b(tri):
    """descent_set_b before the word-wide case table: one up/down case per
    a in 1..n-1 over the signed diagonals, then the s_0 rule."""
    sig = tri.signature
    diagonals = signed_diagonals(tri)
    beyond = {a for a, b in diagonals if b > a + 1}
    out = set()
    for a in range(1, sig.n):
        a_up, b_up = a in sig.ups, (a + 1) in sig.ups
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
    if sig.is_up(1) == ((-1, 1) in diagonals):
        out.add(0)
    return frozenset(out)


def test_descent_set_b_matches_per_a_case_table():
    for n in range(2, 5):
        for sig in all_symmetric_signatures(n):
            for tri in symmetric_triangulations(sig):
                assert descent_set_b(tri) == _per_a_descents_b(tri), tri


def test_symmetric_signature_builds_its_polygon_once(monkeypatch):
    from cambrian import polygon_b
    from cambrian.polygon_a import polygon_from_signature

    calls = []

    def counting(signature):
        calls.append(signature)
        return polygon_from_signature(signature)

    monkeypatch.setattr(polygon_b, "polygon_from_signature", counting)
    sig = SymmetricSignature.from_positive_ups(3, {2})
    elements = get_system("B", 3).weak_order_lattice().elements
    for x in elements[:10]:
        eta_b(tuple(x), sig)
    symmetric_triangulations(sig)
    symmetric_triangulation_lattice(sig)
    assert calls == [sig.a_signature()]
    assert sig.polygon.boundary_cycle() == polygon_from_signature(
        sig.a_signature()
    ).boundary_cycle()


def test_symmetric_signature_to_string():
    assert SymmetricSignature.from_positive_ups(3, {1, 3}).to_string() == "udu"
    assert [s.to_string() for s in all_symmetric_signatures(2)] == [
        "dd", "du", "ud", "uu",
    ]


# ---------------------------------------------------------------------------
# The doubled type-A paths against the per-element type-B forms they replace.


def _mirror_pair(d, two_n):
    return (two_n + 1 - d[1], two_n + 1 - d[0])


def _apex_flip(polygon, diagonals, diag):
    """The opposite diagonal of the quadrilateral around diag: the two
    vertices joined to both of its ends."""
    edges = diagonals | polygon.boundary_edges
    apexes = [
        c for c in range(polygon.n + 2)
        if c not in diag and all(tuple(sorted((v, c))) in edges for v in diag)
    ]
    assert len(apexes) == 2, (diag, apexes)
    return tuple(apexes)


def _per_orbit_flip_lattice(sig):
    """symmetric_triangulation_lattice as its own loop: each orbit of
    diagonals flips once, found by its apexes, a diameter alone and a
    mirror pair together, and a flip that lands off the list is dropped.
    The covers go to from_covers sorted, which gives it the successor
    order of the lattice's covers, listed in sorted index-pair order, and
    so the same linear extension."""
    polygon, two_n = sig.polygon, 2 * sig.n
    tris = symmetric_triangulations(sig)
    index = {t.base.diagonals: i for i, t in enumerate(tris)}
    covers = []
    for i, t in enumerate(tris):
        diagonals = t.base.diagonals
        seen = set()
        for diag in diagonals:
            mirror = _mirror_pair(diag, two_n)
            orbit = frozenset({diag, mirror})
            if orbit in seen:
                continue
            seen.add(orbit)
            new = _apex_flip(polygon, diagonals, diag)
            if mirror == diag:
                candidate = (diagonals - {diag}) | {new}
            else:
                candidate = (diagonals - orbit) | {new, _mirror_pair(new, two_n)}
            j = index.get(frozenset(candidate))
            if j is not None and polygon.slope_less(diag, new):
                covers.append((i, j))
    return FiniteLattice.from_covers(tris, sorted(covers))


def test_mirror_keeps_slopes():
    """Central symmetry is a point reflection of the (2n+2)-gon, so it keeps
    slopes: either diagonal of a mirror pair orients its flip."""
    for n in range(1, 6):
        two_n = 2 * n
        for sig in all_symmetric_signatures(n):
            polygon = sig.polygon
            for u, w in itertools.combinations(range(two_n + 2), 2):
                if (u, w) != (0, two_n + 1):
                    mirror = _mirror((u, w), two_n)
                    assert polygon.slope_key(u, w) == polygon.slope_key(*mirror), (sig, u, w)


def test_symmetric_triangulation_lattice_matches_per_orbit_flips():
    for n in range(1, 5):
        for sig in all_symmetric_signatures(n):
            got, want = symmetric_triangulation_lattice(sig), _per_orbit_flip_lattice(sig)
            assert got.elements == want.elements, sig
            assert got.covers == want.covers, sig


def test_suite_b_bodies_match_per_element_eta_b():
    """The signature's eta masks against eta_b's diagonals, fibers grouped by them one
    element at a time, and the per-element signed case table with the s_0
    rule, on B_2..B_4."""
    for n in range(2, 5):
        system = get_system("B", n)
        lattice = system.weak_order_lattice()
        for sig in all_symmetric_signatures(n):
            fibers, got = {}, {}
            distinct, places = sig.eta_fibers(sig.walk(lattice.elements))
            masks = [distinct[k] for k in places]
            for i, (x, mask) in enumerate(zip(lattice.elements, masks)):
                tri = eta_b(x, sig)
                assert _mask_diagonals(mask, 2 * n) == tri.base.diagonals, (x, sig)
                fibers.setdefault(tri.base.diagonals, []).append(i)
                got.setdefault(mask, []).append(i)
                assert _per_a_descents_b(tri) == frozenset(system.left_descents(x))
            assert list(got.values()) == list(fibers.values()), sig
        assert suites._case_table_check(system, n, lattice, f"B n={n}")["passed"]


def test_one_b_group_walk_reads_eta_b_under_every_signature():
    for n in range(2, 5):
        elements = get_system("B", n).weak_order_lattice().elements
        signatures = all_symmetric_signatures(n)
        walk = signatures[0].walk(elements)
        for sig in signatures:
            want = [eta_b(x, sig).base.diagonals for x in elements]
            distinct, places = sig.eta_fibers(walk)
            got = [_mask_diagonals(distinct[k], 2 * n) for k in places]
            assert got == want, sig


def _drop_a_mirror(mask, n):
    """The mask without the mirror image of its first paired diagonal."""
    stride = n + 2
    for b in range(mask.bit_length()):
        p, q = divmod(b, stride)
        mirror = (n + 1 - q) * stride + (n + 1 - p)
        if mask >> b & 1 and mirror != b and mask >> mirror & 1:
            return mask ^ (1 << mirror)
    return mask


def _refusal(x):
    """The whole refusal of the signed permutation x, as a match pattern."""
    return f"^{re.escape(f'eta_b({x}) is not centrally symmetric')}$"


def test_b_mask_path_refuses_an_asymmetric_triangulation(monkeypatch):
    # eta_b walks one element through polygon_a._eta_mask; the suites and
    # the fan checks read the signature's eta_fibers, which calls
    # GroupWalk.eta_fibers.
    walk_type = polygon_a.GroupWalk
    real_mask, real_fibers = polygon_a._eta_mask, walk_type.eta_fibers
    monkeypatch.setattr(
        polygon_a, "_eta_mask",
        lambda x, n, up, boundary: _drop_a_mirror(real_mask(x, n, up, boundary), n),
    )

    def asymmetric_fibers(walk, sig):
        distinct, places = real_fibers(walk, sig)
        return tuple(_drop_a_mirror(m, sig.n) for m in distinct), places

    monkeypatch.setattr(walk_type, "eta_fibers", asymmetric_fibers)
    system = get_system("B", 3)
    lattice = system.weak_order_lattice()
    sig = SymmetricSignature.from_positive_ups(3, {2})
    with pytest.raises(AssertionError, match=_refusal((1, 2, 3))):
        eta_b((1, 2, 3), sig)
    with pytest.raises(AssertionError, match=_refusal((1, 2, 3))):
        sig.eta_fibers(sig.walk(lattice.elements))
    with pytest.raises(AssertionError, match=_refusal((1, 2, 3))):
        suites._case_table_check(system, 3, lattice, "B n=3")
    with pytest.raises(AssertionError, match=_refusal((1, 2, 3))):
        check_fan_b(sig)
    with pytest.raises(AssertionError, match=_refusal((1, 2))):
        suites.run_suite("congruence-eq", family="B", max_rank=2)


def test_b_mask_path_refusal_names_the_signed_element(monkeypatch):
    """One element's mask alone loses a diagonal, in a last fiber of its
    own: the refusal names that signed permutation, negative entries
    included, not its embedding."""
    lattice = get_system("B", 3).weak_order_lattice()
    x = (-2, 3, -1)
    real_fibers = polygon_a.GroupWalk.eta_fibers

    def broken(walk, sig):
        distinct, places = real_fibers(walk, sig)
        i = walk.elements.index(embed_b_in_a(x))
        asymmetric = _drop_a_mirror(distinct[places[i]], sig.n)
        places = array(places.typecode, places)
        places[i] = len(distinct)
        return distinct + (asymmetric,), places

    monkeypatch.setattr(polygon_a.GroupWalk, "eta_fibers", broken)
    for sig in all_symmetric_signatures(3):
        with pytest.raises(AssertionError, match=_refusal(x)):
            sig.eta_fibers(sig.walk(lattice.elements))
