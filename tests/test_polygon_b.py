"""Tests for centrally symmetric triangulations and signed patterns."""

import math

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
    all_signed_ji_subsets,
    embed_b_in_a,
    full_notation,
    signed_ji_bounds,
)
from cambrian.polygon_a import all_triangulations
from cambrian.polygon_b import _is_symmetric


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
        assert sig.unbridge(sig.bridge(i)) == i
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
    assert [sig.unbridge(p) for p in range(2 * n + 2)] == [
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
        mirrored = {(-q, -p) for p, q in tri.signed_diagonals}
        assert mirrored == set(tri.signed_diagonals)


def test_eta_b_fiber_count():
    system = get_system("B", 2)
    sig = SymmetricSignature.from_positive_ups(2, {1})
    fibers = {eta_b(tuple(x), sig).signed_diagonals for x in system.weak_order_lattice().elements}
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


def test_b_tamari_counts_and_identity():
    for variant in ("toward_s0", "away_from_s0"):
        assert b_tamari_membership((1, 2, 3), variant)
        system = get_system("B", 3)
        members = [x for x in system.weak_order_lattice().elements if b_tamari_membership(tuple(x), variant)]
        assert len(members) == math.comb(6, 3)
    with pytest.raises(ValueError):
        b_tamari_membership((1, 2), "sideways")


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
    diagonals = tri.signed_diagonals
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
