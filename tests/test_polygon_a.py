"""Tests for polygon triangulations and pattern machinery in type A."""

import gc
import itertools
import json
import random
import re
import weakref
from array import array
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cambrian import (
    PolygonQ,
    UpDownSignature,
    all_triangulations,
    camb_forcing_a,
    cambrian_congruence,
    contains_colored_pattern,
    descent_set_of_triangulation,
    eta,
    eta_masks,
    get_system,
    is_pi_down_fixed,
    is_pi_up_fixed,
    ji_contracted_a,
    lambda_paths,
    orientation_from_edges,
    pi_down,
    pi_up,
    polygon_from_signature,
    poset_isomorphism,
    projection_tables,
    quotient_lattice,
    shard_arrow_a,
    shard_digraph_a,
    signatures_for_orientation,
    transitive_closure_digraph,
    triangulation_lattice,
    uncontracted_ji_subsets,
)
from cambrian import coxeter, polygon_a, suites
from cambrian.polygon_a import PATTERNS
from cambrian.coxeter import all_ji_subsets_a, embed_b_in_a
from cambrian.lattices import FiniteLattice, _numbered
from cambrian.polygon_b import SymmetricSignature, all_symmetric_signatures, shard_digraph_b
from cambrian.suites import all_updown_signatures, catalan


SIG6 = UpDownSignature(6, frozenset({1, 3, 4}))


def test_signature_basics():
    sig = UpDownSignature.from_string("udud")
    assert sig.n == 4 and sig.ups == frozenset({1, 3})
    assert sig.to_string() == "udud"
    assert sig.downs == frozenset({2, 4})
    # Indices 0 and n+1 count as both up and down.
    assert sig.is_up(0) and sig.is_down(0)
    assert sig.is_up(5) and sig.is_down(5)
    with pytest.raises(ValueError):
        UpDownSignature.from_string("udx")
    with pytest.raises(ValueError):
        UpDownSignature(3, frozenset({4}))


def test_orientation_edges_and_recovery():
    # b=2 down: (1,2); b=3 up: (3,2); b=4 up: (4,3); b=5 down: (4,5).
    assert SIG6.orientation_edges() == ((1, 2), (3, 2), (4, 3), (4, 5))
    sigs = signatures_for_orientation(6, SIG6.orientation_edges())
    # Indices 1 and n are free, so four signatures share the orientation.
    assert len(sigs) == 4
    assert SIG6 in sigs
    assert all(s.orientation_edges() == SIG6.orientation_edges() for s in sigs)
    with pytest.raises(ValueError):
        signatures_for_orientation(6, [(1, 2)])


def test_polygon_chains():
    poly = polygon_from_signature(SIG6)
    assert poly.boundary_cycle() == (0, 1, 3, 4, 7, 6, 5, 2)
    # The lower chain is vertex 0, the down vertices, then vertex n+1.
    assert [0] + sorted(SIG6.downs) + [7] == [0, 2, 5, 6, 7]


def test_slope_key_reads_each_segment_left_to_right():
    """A segment's slope key is (dy, dx) from its left end to its right
    end, whichever end comes first."""
    poly = polygon_from_signature(SIG6)
    for a, b in itertools.permutations(range(SIG6.n + 2), 2):
        (xa, ya), (xb, yb) = sorted((poly.coords[a], poly.coords[b]))
        assert poly.slope_key(a, b) == (yb - ya, xb - xa), (a, b)
        assert xb > xa


def test_lambda_paths_example():
    poly = polygon_from_signature(SIG6)
    paths = lambda_paths((4, 2, 6, 3, 1, 5), poly)
    assert paths[0] == (0, 2, 5, 6, 7)
    assert paths[1] == (0, 2, 4, 5, 6, 7)
    assert paths[6] == (0, 1, 3, 4, 7)
    with pytest.raises(ValueError):
        lambda_paths((1, 1, 2), poly)


def test_eta_examples():
    poly = polygon_from_signature(SIG6)
    tri = eta((4, 2, 6, 3, 1, 5), poly)
    assert tri.diagonals == frozenset({(0, 3), (0, 4), (2, 4), (4, 5), (5, 7)})
    # Identity with the odd-up alternating signature gives the snake.
    snake_sig = UpDownSignature(6, frozenset({1, 3, 5}))
    snake = eta(tuple(range(1, 7)), polygon_from_signature(snake_sig))
    assert snake.diagonals == frozenset({(1, 2), (1, 4), (3, 4), (3, 6), (5, 6)})


def test_colored_pattern_witness():
    found, witness = contains_colored_pattern((4, 2, 6, 3, 1, 5), SIG6, "up231")
    assert found and witness == (4, 6, 3)
    with pytest.raises(ValueError):
        contains_colored_pattern((1, 2), SIG6, "no-such-pattern")


@pytest.mark.parametrize(
    "pattern, x, up", [
        ("up231", (2, 3, 1), True),
        ("31down2", (3, 1, 2), False),
        ("up213", (2, 1, 3), True),
        ("13down2", (1, 3, 2), False),
    ],
)
def test_each_colored_pattern_alone(pattern, x, up):
    """Each pattern of S_3, its marked letter 2 of the pattern's colour,
    contains that pattern and none of the other three."""
    sig = UpDownSignature(3, frozenset({2} if up else ()))
    for other in PATTERNS:
        want = (True, x) if other == pattern else (False, None)
        assert contains_colored_pattern(x, sig, other) == want, other


def test_pi_down_small_examples():
    all_up = UpDownSignature(3, frozenset({1, 2, 3}))
    assert pi_down((2, 3, 1), all_up) == (2, 1, 3)
    assert pi_down((3, 2, 1), all_up) == (3, 2, 1)


@pytest.mark.parametrize("ups", [frozenset(), frozenset({2, 3}), frozenset({1, 4})])
def test_projection_properties(ups):
    sig = UpDownSignature(4, ups)
    system = get_system("A", 3)

    def weak_le(x, y):
        return system.inversion_set(x) <= system.inversion_set(y)

    fixed_down = 0
    for x in itertools.permutations(range(1, 5)):
        down = pi_down(x, sig)
        up = pi_up(x, sig)
        # Idempotent, with fixed points characterized by pattern avoidance.
        assert pi_down(down, sig) == down
        assert pi_up(up, sig) == up
        assert is_pi_down_fixed(down, sig) and is_pi_up_fixed(up, sig)
        assert is_pi_down_fixed(x, sig) == (down == x)
        assert is_pi_up_fixed(x, sig) == (up == x)
        # Projections move within the weak order, bracketing x.
        assert weak_le(down, x) and weak_le(x, up)
        fixed_down += down == x
    assert fixed_down == catalan(4)


def test_eta_constant_on_fibers():
    sig = UpDownSignature(4, frozenset({2, 4}))
    poly = polygon_from_signature(sig)
    for x in itertools.permutations(range(1, 5)):
        assert eta(x, poly).diagonals == eta(pi_down(x, sig), poly).diagonals


@pytest.mark.parametrize("ups", [frozenset({1, 2, 3}), frozenset({2})])
def test_triangulation_lattice_counts(ups):
    lattice = triangulation_lattice(UpDownSignature(3, ups))
    assert len(lattice.elements) == catalan(3) == 5
    assert sum(len(lattice.upper[i]) for i in range(5)) == 5


def test_triangulation_lattice_trivial():
    lattice = triangulation_lattice(UpDownSignature(1, frozenset()))
    assert len(lattice.elements) == 1


def test_triangulation_lattice_matches_quotient():
    sig = UpDownSignature(4, frozenset({1, 3}))
    system = get_system("A", 3)
    orientation = orientation_from_edges(system, sig.orientation_edges())
    cong = cambrian_congruence(system, orientation)
    assert poset_isomorphism(triangulation_lattice(sig), quotient_lattice(cong))


def test_all_triangulations_count():
    sig = UpDownSignature(5, frozenset({2, 5}))
    assert len(all_triangulations(polygon_from_signature(sig))) == catalan(5)


def test_descents_of_triangulations():
    sig = UpDownSignature(4, frozenset({2, 3}))
    poly = polygon_from_signature(sig)
    system = get_system("A", 3)
    identity = (1, 2, 3, 4)
    w0 = (4, 3, 2, 1)
    assert descent_set_of_triangulation(eta(identity, poly), sig) == frozenset()
    assert descent_set_of_triangulation(eta(w0, poly), sig) == frozenset(
        {(1, 2), (2, 3), (3, 4)}
    )
    for x in itertools.permutations(range(1, 5)):
        got = {a for a, _ in descent_set_of_triangulation(eta(x, poly), sig)}
        assert got == set(system.left_descents(x))


def test_shard_arrow_examples():
    assert shard_arrow_a(3, frozenset({2}), frozenset({1, 2}))
    assert shard_arrow_a(3, frozenset({1, 3}), frozenset({1, 2}))
    assert not shard_arrow_a(3, frozenset({1, 2}), frozenset({2}))
    with pytest.raises(ValueError):
        shard_arrow_a(3, frozenset({3}), frozenset({2}))
    with pytest.raises(ValueError):
        shard_arrow_a(3, frozenset(), frozenset({2}))


def test_uncontracted_ji_subsets():
    sig = UpDownSignature(4, frozenset({2, 4}))
    survivors = uncontracted_ji_subsets(sig)
    assert len(survivors) == 4 * 3 // 2
    for members in survivors.values():
        assert not ji_contracted_a(sig, members)
    forcing = camb_forcing_a(sig)
    assert set(forcing) == set(survivors.values())


def _fixed_point_closure(graph):
    """transitive_closure_digraph as a fixed-point loop: add the reach of
    each target until nothing changes; a node never reaches itself."""
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


def test_transitive_closure_matches_the_fixed_point_oracle():
    graphs = [{1: {2}, 2: {1, 3}, 3: set(), 4: {4}}]
    graphs += [shard_digraph_a(n) for n in range(3, 7)]
    graphs += [shard_digraph_b(n) for n in range(2, 5)]
    for graph in graphs:
        assert transitive_closure_digraph(graph) == _fixed_point_closure(graph)
    assert transitive_closure_digraph(graphs[0]) == {
        1: {2, 3}, 2: {1, 3}, 3: frozenset(), 4: frozenset()
    }
    for n in range(3, 6):
        for sig in all_updown_signatures(n):
            survivors = set(uncontracted_ji_subsets(sig).values())
            graph = {
                a1: frozenset(a2 for a2 in survivors if a2 != a1 and shard_arrow_a(n, a1, a2))
                for a1 in survivors
            }
            assert camb_forcing_a(sig) == _fixed_point_closure(graph), sig


def _ji_contracted_oracle(signature, members):
    """ji_contracted_a before the parity form: an up value outside the
    subset, or a down value inside it, strictly between m and M."""
    n = signature.n
    m, big_m = min(members), max(set(range(1, n + 1)) - members)
    comp = frozenset(range(1, n + 1)) - members
    return any(b in signature.ups for b in comp if m < b < big_m) or any(
        b not in signature.ups for b in members if m < b < big_m
    )


def test_ji_contracted_matches_two_sided_oracle():
    cases = [
        (sig, members)
        for n in range(2, 7)
        for sig in all_updown_signatures(n)
        for members in all_ji_subsets_a(n)
    ]
    assert len(cases) == 4692
    for sig, members in cases:
        assert ji_contracted_a(sig, members) == _ji_contracted_oracle(sig, members)
    assert 0 < sum(ji_contracted_a(sig, members) for sig, members in cases) < len(cases)


# ---------------------------------------------------------------------------
# The simple general algorithms, kept as oracles for the bitmask kernels.


def _small_cases(max_n=6):
    for n in range(1, max_n + 1):
        perms = list(itertools.permutations(range(1, n + 1)))
        for sig in all_updown_signatures(n):
            yield sig, perms


def _scan_pi_down(x, signature):
    x = list(x)
    n = len(x)
    ups = signature.ups
    while True:
        moved = False
        for j in range(n - 1):
            if x[j] <= x[j + 1]:
                continue
            hi, lo = x[j], x[j + 1]
            fires = any(lo < x[i] < hi and x[i] in ups for i in range(j)) or any(
                lo < x[k] < hi and x[k] not in ups for k in range(j + 2, n)
            )
            if fires:
                x[j], x[j + 1] = x[j + 1], x[j]
                moved = True
                break
        if not moved:
            return tuple(x)


def _scan_pi_up(x, signature):
    x = list(x)
    n = len(x)
    ups = signature.ups
    while True:
        moved = False
        for j in range(n - 1):
            if x[j] >= x[j + 1]:
                continue
            lo, hi = x[j], x[j + 1]
            fires = any(lo < x[i] < hi and x[i] in ups for i in range(j)) or any(
                lo < x[k] < hi and x[k] not in ups for k in range(j + 2, n)
            )
            if fires:
                x[j], x[j + 1] = x[j + 1], x[j]
                moved = True
                break
        if not moved:
            return tuple(x)


def _scan_descents(tri, signature):
    out = set()
    diag = tri.diagonals
    for a in range(1, signature.n):
        a_up = a in signature.ups
        b_up = (a + 1) in signature.ups
        beyond = any(d[0] == a and d[1] > a + 1 for d in diag)
        adjacent = (a, a + 1) in diag
        if not a_up and not b_up:
            is_descent = beyond
        elif not a_up and b_up:
            is_descent = adjacent
        elif a_up and b_up:
            is_descent = not beyond
        else:
            is_descent = not adjacent
        if is_descent:
            out.add((a, a + 1))
    return frozenset(out)


def _pair_masks(x, descending):
    """Per adjacent pair a move could swap: (earlier, later) between-masks."""
    out = []
    for j in range(len(x) - 1):
        if (x[j] > x[j + 1]) != descending:
            continue
        lo, hi = sorted((x[j], x[j + 1]))
        before = sum(1 << v for v in x[:j] if lo < v < hi)
        after = sum(1 << v for v in x[j + 2:] if lo < v < hi)
        out.append((before, after))
    return out


def test_projections_match_scan_oracle():
    for sig, perms in _small_cases():
        for x in perms:
            assert pi_down(x, sig) == _scan_pi_down(x, sig), (x, sig)
            assert pi_up(x, sig) == _scan_pi_up(x, sig), (x, sig)


def test_eta_matches_lambda_path_union():
    for sig, perms in _small_cases():
        poly = polygon_from_signature(sig)
        for x in perms:
            edges = set()
            for path in lambda_paths(x, poly):
                edges.update(zip(path, path[1:]))
            assert eta(x, poly).diagonals == frozenset(edges) - poly.boundary_edges


def test_descent_set_matches_scan_oracle():
    for sig, _ in _small_cases():
        for tri in all_triangulations(polygon_from_signature(sig)):
            got = descent_set_of_triangulation(tri, sig)
            assert got == _scan_descents(tri, sig), (tri, sig)


def _firing_masks(x: tuple[int, ...], descending: bool):
    """Witness masks for the moves a downward (upward) projection could make.

    Over every adjacent inversion (or ascent), returns the union of the
    masks of earlier values strictly between the pair, and the union of
    the masks of later ones.  Some move fires exactly when an earlier
    witness is up or a later witness is down, so x is fixed under the
    projection iff neither union meets the matching mask.
    """
    before = earlier = later = 0
    for a, b in zip(x, x[1:]):
        if (a > b) == descending:
            lo, hi = (b, a) if descending else (a, b)
            between = (1 << hi) - (2 << lo)
            earlier |= before & between
            later |= ~before & between
        before |= 1 << a
    return earlier, later


def _signature_intervals(x: tuple[int, ...]):
    """(avoid down, fixed down, avoid up, fixed up) of x, each as the
    interval of up masks U where it holds, a pair (low, high) standing
    for low <= U <= complement of high.  One permutation at a time: the
    reference ``suites._pattern_sweep`` is tested against."""
    m231, m312, m213, m132 = _double_loop_pattern_masks(x)
    down_before, down_after = _firing_masks(x, True)
    up_before, up_after = _firing_masks(x, False)
    return (m312, m231), (down_after, down_before), (m132, m213), (up_after, up_before)


def test_or_reduced_firing_masks_match_per_pair_form():
    for sig, perms in _small_cases():
        up = sum(1 << i for i in sig.ups)
        down = sum(1 << i for i in sig.downs)
        for x in perms:
            for descending in (True, False):
                per_pair = all(
                    not (b & up) and not (a & down)
                    for b, a in _pair_masks(x, descending)
                )
                earlier, later = _firing_masks(x, descending)
                assert per_pair == (not (earlier & up) and not (later & down))


def _triple_loop_pattern_masks(x):
    """(m231, m312, m213, m132) over every triple of positions."""
    m231 = m312 = m213 = m132 = 0
    for a, b, c in itertools.combinations(x, 3):
        if c < a < b:
            m231 |= 1 << a
        if b < c < a:
            m312 |= 1 << c
        if b < a < c:
            m213 |= 1 << a
        if a < c < b:
            m132 |= 1 << c
    return m231, m312, m213, m132


def _patterns_by_signature_scan(n, firing):
    """The patterns check for S_n, every signature against every
    permutation, with ``firing`` for ``_firing_masks``; the witness is
    the first failure in that order."""
    per_perm = [
        (x, _triple_loop_pattern_masks(x), firing(x, True), firing(x, False))
        for x in itertools.permutations(range(1, n + 1))
    ]
    full = ((1 << n) - 1) << 1
    for sig in all_updown_signatures(n):
        upmask = sig.upmask
        downmask = full & ~upmask
        for x, (m231, m312, m213, m132), (down_b, down_a), (up_b, up_a) in per_perm:
            avoid_down = not (m231 & upmask) and not (m312 & downmask)
            fixed_down = not (down_b & upmask) and not (down_a & downmask)
            avoid_up = not (m213 & upmask) and not (m132 & downmask)
            fixed_up = not (up_b & upmask) and not (up_a & downmask)
            if avoid_down != fixed_down or avoid_up != fixed_up:
                return {"passed": False, "witness": str((x, sig.to_string()))}
    return {"passed": True, "witness": None}


def _scanned_pattern_checks(last, firing=_firing_masks):
    return [
        {"name": f"A n={n} all signatures", **_patterns_by_signature_scan(n, firing)}
        for n in range(3, last + 1)
    ]


def _double_loop_pattern_masks(x):
    """Bitmasks of the values usable as the marked letter of each pattern,
    (m231, m312, m213, m132), with two flags per direction from each
    position.  The marked letter a of 231 (213) sees to its right a
    larger (smaller) value and then a smaller (larger) one; that of 312
    (132) sees the same to its left, read leftwards."""
    m231 = m312 = m213 = m132 = 0
    for i, a in enumerate(x):
        bit = 1 << a
        larger = smaller = False
        for b in x[i + 1:]:
            if b > a:
                if smaller:
                    m213 |= bit
                larger = True
            else:
                if larger:
                    m231 |= bit
                smaller = True
        larger = smaller = False
        for b in reversed(x[:i]):
            if b > a:
                if smaller:
                    m312 |= bit
                larger = True
            else:
                if larger:
                    m132 |= bit
                smaller = True
    return m231, m312, m213, m132


def fixed_by_triple_loop(x, sig):
    """(pi_down fixes x, pi_up fixes x) by ``contains_colored_pattern``."""
    def avoids(*patterns):
        return not any(contains_colored_pattern(x, sig, p)[0] for p in patterns)

    return avoids("up231", "31down2"), avoids("up213", "13down2")


def test_fixed_point_tests_match_the_triple_loop():
    for n in range(1, 6):
        for sig in all_updown_signatures(n):
            for x in itertools.permutations(range(1, n + 1)):
                fixed = is_pi_down_fixed(x, sig), is_pi_up_fixed(x, sig)
                assert fixed == fixed_by_triple_loop(x, sig), (x, sig.to_string())


@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_sweep_matches_the_per_permutation_intervals(n):
    """The sweep's packed intervals, low | high << (n+1), are
    ``_signature_intervals`` of each permutation in lexicographic order;
    n = 8 needs 9-bit fields."""
    width = n + 1
    sweep = suites._pattern_sweep(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    assert [len(packed) for packed in sweep] == [len(perms)] * 4
    unpacked = [
        tuple((packed[i] & (1 << width) - 1, packed[i] >> width) for packed in sweep)
        for i in range(len(perms))
    ]
    assert list(zip(perms, unpacked)) == [(x, _signature_intervals(x)) for x in perms]


def test_patterns_suite_matches_the_signature_scan():
    report = suites.run_suite("patterns", max_rank=6)
    assert report["passed"]
    assert report["checks"] == _scanned_pattern_checks(6)


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_interval_identity_matches_every_up_set(n, data):
    full = ((1 << n) - 1) << 1
    low, high, other_low, other_high = (
        data.draw(st.integers(0, full)) & full for _ in range(4)
    )
    one, other = (low, high), (other_low, other_high)

    def members(low, high):
        return {u for u in range(0, full + 1, 2) if low & u == low and not high & u}

    assert [suites._in_interval(u, one) for u in range(0, full + 1, 2)] == [
        u in members(*one) for u in range(0, full + 1, 2)
    ]
    assert suites._same_interval(one, other) == (members(*one) == members(*other))


def test_patterns_suite_fails_with_the_scan_witness(monkeypatch):
    """The lowest earlier witness of the downward moves dropped, in the
    sweep's fixed-down intervals (later, earlier), packed as
    later | earlier << (n+1), and in the scan's ``_firing_masks``."""
    real = suites._pattern_sweep

    def dropped_sweep(n):
        avoid_down, fixed_down, avoid_up, fixed_up = real(n)
        width = n + 1

        def drop(packed):
            earlier = packed >> width
            return packed & (1 << width) - 1 | (earlier & earlier - 1) << width

        return avoid_down, array(fixed_down.typecode, map(drop, fixed_down)), avoid_up, fixed_up

    def dropped(x, descending):
        earlier, later = _firing_masks(x, descending)
        if descending:
            earlier &= earlier - 1
        return earlier, later

    monkeypatch.setattr(suites, "_pattern_sweep", dropped_sweep)
    report = suites.run_suite("patterns", max_rank=5)
    assert not report["passed"]
    assert all(c["witness"] for c in report["checks"])
    assert report["checks"] == _scanned_pattern_checks(5, dropped)


@pytest.mark.parametrize("x", [(1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 4)])
def test_maps_reject_non_permutations(x):
    sig = UpDownSignature(3, frozenset({2}))
    for project in (pi_down, pi_up, is_pi_down_fixed, is_pi_up_fixed):
        with pytest.raises(ValueError, match="is not a permutation of 1..3"):
            project(x, sig)
    with pytest.raises(ValueError):
        eta(x, polygon_from_signature(sig))


# ---------------------------------------------------------------------------
# The whole-group tables against the per-element maps.


def _weak_order(n):
    return get_system("A", n - 1).weak_order_lattice()


def _decode(mask, n):
    """Diagonal pairs of an eta mask, (u, w) at bit u(n+2) + w."""
    return frozenset(
        divmod(b, n + 2) for b in range(mask.bit_length()) if mask >> b & 1
    )


def _encode(diagonals, n):
    return sum(1 << (u * (n + 2) + w) for u, w in diagonals)


def _spelled(fibers):
    """One mask per element, from the distinct masks and places of
    ``eta_fibers``."""
    distinct, places = fibers
    return [distinct[k] for k in places]


def test_eta_masks_decode_to_eta():
    cases = [(sig, n) for n in range(3, 6) for sig in all_updown_signatures(n)]
    cases.append((SIG6, 6))
    for sig, n in cases:
        poly = polygon_from_signature(sig)
        elements = _weak_order(n).elements
        for x, mask in zip(elements, eta_masks(elements, sig)):
            assert _decode(mask, n) == eta(x, poly).diagonals, (x, sig)


def test_eta_mask_step_table_matches_the_walk_on_every_signature():
    for n in range(3, 7):
        elements = _weak_order(n).elements
        for sig in all_updown_signatures(n):
            boundary = polygon_from_signature(sig).boundary_mask
            walked = [polygon_a._eta_mask(x, n, sig.upmask, boundary) for x in elements]
            assert eta_masks(elements, sig) == walked, sig


def test_eta_masks_read_a_whole_group_without_the_walk(monkeypatch):
    """A guard on the step table: it must not fall back to one walk per
    element."""
    elements = _weak_order(5).elements
    sig = UpDownSignature(5, frozenset({2, 3}))
    want = eta_masks(elements, sig)

    def walk(*args):
        raise AssertionError("eta_masks walked one element")

    monkeypatch.setattr(polygon_a, "_eta_mask", walk)
    assert eta_masks(elements, sig) == want


def test_eta_and_eta_masks_refuse_a_wrong_diagonal_count(monkeypatch):
    # With no boundary edges cleared, the walk keeps more than n-1 edges.
    monkeypatch.setattr(PolygonQ, "boundary_mask", property(lambda self: 0))
    sig = UpDownSignature(4, frozenset({2}))
    with pytest.raises(AssertionError):
        eta_masks([(1, 2, 3, 4)], sig)
    with pytest.raises(AssertionError):
        eta((1, 2, 3, 4), polygon_from_signature(sig))


def test_projection_tables_match_per_element_projections():
    for n in range(3, 6):
        lattice = _weak_order(n)
        for sig in all_updown_signatures(n):
            down, up = projection_tables(lattice, sig)
            assert down == [lattice.index[pi_down(x, sig)] for x in lattice.elements]
            assert up == [lattice.index[pi_up(x, sig)] for x in lattice.elements]


def test_projection_tables_refuse_a_move_against_index_order():
    lattice = _weak_order(3)
    elements = lattice.elements[::-1]
    reversed_order = SimpleNamespace(
        elements=elements, index={x: i for i, x in enumerate(elements)}
    )
    with pytest.raises(AssertionError):
        projection_tables(reversed_order, UpDownSignature(3, frozenset({1, 2, 3})))


def test_one_group_walk_reads_eta_under_every_signature():
    """One walk per group, read under each signature in turn, against the
    per-element walk; its tree stops at the (n-1)-prefixes, one node per
    element."""
    for n in range(3, 7):
        elements = _weak_order(n).elements
        walk = polygon_a.GroupWalk(elements)
        for sig in all_updown_signatures(n):
            boundary = polygon_from_signature(sig).boundary_mask
            walked = [polygon_a._eta_mask(x, n, sig.upmask, boundary) for x in elements]
            assert _spelled(walk.eta_fibers(sig)) == walked, sig
        sizes = [len(parents) for parents, _ in walk.levels]
        prefixes = [len({x[:k] for x in elements}) for k in range(1, n - 1)]
        assert sizes == prefixes + [len(elements)]


def test_one_group_walk_reads_the_projections_under_every_signature():
    for n in range(3, 7):
        lattice = _weak_order(n)
        walk = polygon_a.GroupWalk(lattice.elements)
        for sig in all_updown_signatures(n):
            down, up = walk.projection_tables(sig)
            assert down == [lattice.index[pi_down(x, sig)] for x in lattice.elements], sig
            assert up == [lattice.index[pi_up(x, sig)] for x in lattice.elements], sig


@pytest.mark.parametrize("family, n, first", [("A", 4, "dddd"), ("B", 3, "ddd")])
def test_case_tables_fail_with_the_scan_witness(fault_left_descents, family, n, first):
    """One element's left descents moved: every signature's case table
    disagrees there and nowhere else, so the witness is the first
    signature with that element."""
    system = get_system(family, n - 1 if family == "A" else n)
    lattice = system.weak_order_lattice()
    x = lattice.elements[len(lattice.elements) // 2]
    fault_left_descents(system, lambda descents, w: descents ^ {1} if w == x else descents)
    check = suites._case_table_check(system, n, lattice, f"{family} n={n}")
    assert check == {
        "name": f"{family} n={n} case tables",
        "passed": False,
        "witness": str((first, x)),
    }


@pytest.mark.parametrize("family, n, masks", [("A", 6, 2697), ("B", 3, None)])
def test_case_tables_read_each_mask_of_a_group_once(monkeypatch, family, n, masks):
    """The signature-free sides of a diagonal mask are read once per
    group, however many signatures give that mask, and the check passes."""
    from cambrian import polygon_b

    system = get_system(family, n - 1 if family == "A" else n)
    lattice = system.weak_order_lattice()
    read = []
    real = polygon_a._mask_sides
    for module in (polygon_a, polygon_b):
        monkeypatch.setattr(module, "_mask_sides", lambda mask, n: read.append(mask) or real(mask, n))
    assert suites._case_table_check(system, n, lattice, f"{family} n={n}")["passed"]
    signatures = suites._signatures(system, n)
    walk = signatures[0].walk(lattice.elements)
    distinct = set()
    for sig in signatures:
        distinct.update(sig.eta_fibers(walk)[0])
    assert sorted(read) == sorted(distinct)
    assert masks is None or len(read) == masks


def test_mask_case_table_matches_descent_set():
    for sig, _ in _small_cases(5):
        if sig.n < 3:
            continue
        for tri in all_triangulations(polygon_from_signature(sig)):
            (got,) = sig.descents([sig.sides(_encode(tri.diagonals, sig.n))])
            want = descent_set_of_triangulation(tri, sig)
            assert got == sum(1 << a for a, _ in want), (tri, sig)


def _moved_entry(real, which):
    """``GroupWalk.projection_tables`` with, under udud, a middle member of
    a fiber, whose own entry is checked against the fiber's ends, sent to
    itself in table ``which``."""

    def moved(walk, sig):
        tables = real(walk, sig)
        if sig.to_string() == "udud":
            fibers = {}
            for j, k in enumerate(walk.eta_fibers(sig)[1]):
                fibers.setdefault(k, []).append(j)
            i = next(members for members in fibers.values() if len(members) >= 3)[1]
            tables = [list(t) for t in tables]
            tables[which][i] = i
        return tuple(tables)

    return moved


def _merged_fibers(real):
    """``GroupWalk.eta_fibers`` with, under ddu, the second fiber merged
    into the first: its members take place 0 and the later fibers move
    down one place."""

    def merged(walk, sig):
        distinct, places = real(walk, sig)
        if sig.to_string() == "ddu":
            distinct = distinct[:1] + distinct[2:]
            places = array(places.typecode, [k - (k >= 1) for k in places])
        return distinct, places

    return merged


def _failures(report):
    assert not report["passed"]
    return [(c["name"], c["witness"]) for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("which", [0, 1])
def test_fibers_fail_when_one_projection_entry_moves(monkeypatch, which):
    real = polygon_a.GroupWalk.projection_tables
    monkeypatch.setattr(polygon_a.GroupWalk, "projection_tables", _moved_entry(real, which))
    report = suites.suite_fibers(max_rank=4)
    assert _failures(report) == [("A n=4 sig udud", "(3, 1, 2, 4)")]


def test_fibers_fail_when_two_fibers_merge(monkeypatch):
    monkeypatch.setattr(
        polygon_a.GroupWalk, "eta_fibers", _merged_fibers(polygon_a.GroupWalk.eta_fibers)
    )
    report = suites.suite_fibers(max_rank=3)
    assert _failures(report) == [("A n=3 sig ddu", "(1, 2, 3)")]


def test_memos_hide_no_fault(monkeypatch):
    """After clean runs have filled the memos of every walk they read, the
    fibers faults still fail with their witnesses and an eta that keeps
    the boundary still raises; then a clean rerun is byte-identical."""
    names = ("congruence-eq", "descent", "fibers")
    clean = [json.dumps(suites.run_suite(name)) for name in names]
    walk = polygon_a.GroupWalk
    with monkeypatch.context() as m:
        m.setattr(walk, "eta_fibers", _merged_fibers(walk.eta_fibers))
        assert _failures(suites.suite_fibers(max_rank=3)) == [("A n=3 sig ddu", "(1, 2, 3)")]
    with monkeypatch.context() as m:
        m.setattr(walk, "projection_tables", _moved_entry(walk.projection_tables, 0))
        assert _failures(suites.suite_fibers(max_rank=4)) == [("A n=4 sig udud", "(3, 1, 2, 4)")]
    with monkeypatch.context() as m:
        m.setattr(PolygonQ, "boundary_mask", property(lambda self: 0))
        for name in names:
            with pytest.raises(AssertionError, match="eta produced 3 diagonals, wanted 2"):
                suites.run_suite(name)
    assert [json.dumps(suites.run_suite(name)) for name in names] == clean


@pytest.mark.parametrize("n", range(2, 7))
def test_projection_memo_serves_every_marking_of_1_and_n(n):
    """The four markings of the values 1 and n share one pair of kept
    tables, which equal pi_down and pi_up of each element under each of
    them; a caller's change to the lists it got is not kept."""
    lattice = _weak_order(n)
    walk = polygon_a.GroupWalk(lattice.elements)
    interior = range(2, n)
    for r in range(len(interior) + 1):
        for ups in itertools.combinations(interior, r):
            for ends in ((), (1,), (n,), (1, n)):
                sig = UpDownSignature(n, frozenset(ups + ends))
                down, up = walk.projection_tables(sig)
                assert down == [lattice.index[pi_down(x, sig)] for x in lattice.elements], sig
                assert up == [lattice.index[pi_up(x, sig)] for x in lattice.elements], sig
                down[0] = up[0] = -1
    assert len(walk._projections) == 2 ** len(interior)


@pytest.mark.parametrize(
    "family, n", [("A", n) for n in range(2, 7)] + [("B", n) for n in range(1, 4)]
)
def test_eta_fibers_number_the_masks_by_first_member(family, n):
    """Under every signature, ``eta_fibers`` gives the distinct masks in
    order of first member and each element's place among them, against
    the per-element walk of the type-A polygon, and returns the pair it
    keeps; a fresh walk gives the same pair."""
    if family == "A":
        system, signatures = get_system("A", n - 1), all_updown_signatures(n)
    else:
        system, signatures = get_system("B", n), all_symmetric_signatures(n)
    elements = system.weak_order_lattice().elements
    walk = signatures[0].walk(elements)
    for sig in signatures:
        polygon = sig.polygon
        upmask, size = polygon.signature.upmask, polygon.signature.n
        masks = [
            polygon_a._eta_mask(x, size, upmask, polygon.boundary_mask) for x in walk.elements
        ]
        distinct, places = sig.eta_fibers(walk)
        assert distinct == tuple(dict.fromkeys(masks)), sig
        assert places.tolist() == _numbered(masks), sig
        assert sig.eta_fibers(walk)[1] is places
        fresh = sig.eta_fibers(sig.walk(elements))
        assert (fresh[0], fresh[1].tolist()) == (distinct, places.tolist()), sig


def test_signatures_read_a_group_through_four_methods():
    """Both signature types read a group through ``walk``, ``eta_fibers``,
    ``sides`` and ``descents``; neither they nor the walk spell out masks."""
    for kind in (UpDownSignature, SymmetricSignature):
        for name in ("walk", "eta_fibers", "sides", "descents"):
            assert callable(getattr(kind, name)), (kind, name)
    for kind in (polygon_a.GroupWalk, UpDownSignature, SymmetricSignature):
        assert not hasattr(kind, "eta_masks"), kind


def test_eta_memo_returns_new_lists():
    """The exported ``eta_masks`` spells out a new list per call from the
    fibers, which a walk keeps once per signature and boundary."""
    elements, sig = _weak_order(4).elements, UpDownSignature(4, frozenset({2}))
    walk = polygon_a.GroupWalk(elements)
    want = eta_masks(elements, sig)
    eta_masks(elements, sig).clear()
    assert eta_masks(elements, sig) == want == _spelled(walk.eta_fibers(sig))
    assert walk.eta_fibers(sig) is walk.eta_fibers(sig)
    assert len(walk._eta) == 1


def test_each_weak_order_keeps_one_walk_per_signature_type(monkeypatch):
    """One process running the three suites that read eta builds one walk
    per group, computes eta once per group and signature and the
    projections once per marking of 2..n-1; the walk goes with its group."""
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    built = []
    real = polygon_a.GroupWalk.__init__
    monkeypatch.setattr(
        polygon_a.GroupWalk, "__init__", lambda walk, elements: built.append(walk) or real(walk, elements)
    )
    for name in ("congruence-eq", "descent", "fibers"):
        suites.run_suite(name, max_rank=4)
    groups = [("A", 2), ("A", 3), ("B", 2), ("B", 3)]
    walks = [get_system(family, rank).weak_order_lattice().tables for family, rank in groups]
    assert [w for kept in walks for w in kept.values()] == built
    assert [len(w._eta) for w in built] == [8, 16, 4, 8]
    assert [len(w._projections) for w in built] == [2, 4, 0, 0]
    b2 = get_system("B", 2).weak_order_lattice()
    assert built[2].elements == [embed_b_in_a(x) for x in b2.elements]
    kept = weakref.ref(built[0])
    built.clear()
    walks.clear()
    coxeter._SYSTEMS.clear()
    gc.collect()
    assert kept() is None


# ---------------------------------------------------------------------------
# The lane walk against the walk of one signature at a time.


def _walked_alone(walk, signature):
    """The oracle of the lane walk: the step table read along the tree
    under one signature, one level at a time, then the boundary cleared
    and the n-1 diagonals checked; the fibers as ``eta_fibers`` gives
    them, the places as a list."""
    n, boundary = signature.n, signature.polygon.boundary_mask
    under = polygon_a._step_key(signature.upmask, 0, n).__xor__
    step = polygon_a._step_table(walk.n)
    edges = [0]
    for parents, places in walk.levels:
        keys = map(walk.step_keys.__getitem__, places)
        steps = map(step.__getitem__, map(under, keys))
        edges = list(map(or_, map(edges.__getitem__, parents), steps))
    masks = list(map((~boundary).__and__, edges))
    distinct = tuple(dict.fromkeys(masks))
    if set(map(int.bit_count, distinct)) != {n - 1}:
        for e in edges:  # raises at the first element off count
            polygon_a._off_boundary(e, n, boundary)
    place = {mask: k for k, mask in enumerate(distinct)}
    return distinct, [place[mask] for mask in masks]


def _group(family, n):
    """The weak order's elements and the signatures of S_n or B_n."""
    if family == "A":
        return _weak_order(n).elements, all_updown_signatures(n)
    return get_system("B", n).weak_order_lattice().elements, all_symmetric_signatures(n)


def _passes(monkeypatch):
    """The lane count of every pass the lane walk makes from now on."""
    passes = []
    real = polygon_a.GroupWalk._walk_lanes
    monkeypatch.setattr(
        polygon_a.GroupWalk, "_walk_lanes",
        lambda walk, keys: passes.append(len(keys)) or real(walk, keys),
    )
    return passes


def _kept(walk):
    """The walk's eta memo, with each array of places spelled out."""
    return {
        key: (distinct, places.typecode, places.tolist())
        for key, (distinct, places) in walk._eta.items()
    }


@pytest.mark.parametrize(
    "family, n", [("A", n) for n in range(3, 7)] + [("B", n) for n in range(2, 4)]
)
def test_lane_walk_matches_the_walk_alone_and_each_element(monkeypatch, family, n):
    """All signatures of a group in passes of at most ``LANES`` lanes: each
    signature's fibers equal the walk of that signature alone and
    ``_eta_mask`` of each element, and reading them back walks nothing."""
    elements, signatures = _group(family, n)
    walk = signatures[0].walk(elements)
    passes = _passes(monkeypatch)
    walk.walk_eta([sig.polygon.signature for sig in signatures])
    lanes = polygon_a.LANES
    want = [len(signatures[i:i + lanes]) for i in range(0, len(signatures), lanes)]
    assert passes == want
    for sig in signatures:
        doubled = sig.polygon.signature
        distinct, places = sig.eta_fibers(walk)
        assert (distinct, places.tolist()) == _walked_alone(walk, doubled), sig
        masks = [
            polygon_a._eta_mask(x, doubled.n, doubled.upmask, sig.polygon.boundary_mask)
            for x in walk.elements
        ]
        assert [distinct[k] for k in places] == masks, sig
    assert passes == want


@pytest.mark.parametrize("family, n, words", [("A", 7, 2), ("B", 4, 2)])
def test_lane_walk_matches_the_walk_alone_on_two_word_lanes(monkeypatch, family, n, words):
    """S_7 (81 bits a mask, 128 signatures) and B_4 (100 bits on the
    10-gon, 16 signatures) take two words a lane."""
    elements, signatures = _group(family, n)
    walk = signatures[0].walk(elements)
    assert -(-(walk.n + 2) ** 2 // 64) == words
    passes = _passes(monkeypatch)
    walk.walk_eta([sig.polygon.signature for sig in signatures])
    assert sum(passes) == len(signatures) and max(passes) == min(len(signatures), polygon_a.LANES)
    for sig in signatures:
        distinct, places = sig.eta_fibers(walk)
        assert (distinct, places.tolist()) == _walked_alone(walk, sig.polygon.signature), sig


@pytest.mark.parametrize("family, n", [("A", 5), ("B", 3), ("A", 7)])
def test_lane_walk_keeps_one_memo_however_the_passes_fall(monkeypatch, family, n):
    """One batch, one signature at a time, and shuffled passes of random
    sizes, with at most 5 lanes a pass, leave identical memos."""
    elements, signatures = _group(family, n)
    doubled = [sig.polygon.signature for sig in signatures]
    batch = signatures[0].walk(elements)
    batch.walk_eta(doubled)
    alone = signatures[0].walk(elements)
    for sig in reversed(doubled):
        alone.eta_fibers(sig)
    monkeypatch.setattr(polygon_a, "LANES", 5)
    shuffled = signatures[0].walk(elements)
    rng = random.Random(n)
    order = rng.sample(doubled, len(doubled))
    while order:
        cut = rng.randint(1, 8)
        shuffled.walk_eta(order[:cut] + order[:1])
        order = order[cut:]
    assert _kept(batch) == _kept(alone) == _kept(shuffled)
    assert list(batch._eta) == [(sig, sig.polygon.boundary_mask) for sig in doubled]


def test_lane_walk_corrupted_in_one_lane_fails_that_signature_alone(monkeypatch):
    """Under udud of S_4 the batch reads the up set of dudu, whose polygon
    has the same boundary: that lane alone gives another signature's
    fibers, so the congruence-eq check of udud fails and no other does."""
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    passes = _passes(monkeypatch)
    sig = UpDownSignature.from_string("udud")
    other = UpDownSignature.from_string("dudu")
    assert sig.polygon.boundary_mask == other.polygon.boundary_mask
    (kept,) = (s for s in all_updown_signatures(4) if s == sig)
    monkeypatch.setitem(vars(kept), "upmask", other.upmask)
    report = suites.run_suite("congruence-eq", family="A", max_rank=4)
    assert passes == [8, 16]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["A n=4 sig udud"]


def test_lane_walk_without_one_step_refuses_as_the_walk_alone(monkeypatch):
    """One step table entry that a diagonal of the first element comes
    from, under the first signature, dropped: the batch raises the walk
    alone's refusal, at the first signature, and keeps nothing."""
    elements, signatures = _group("A", 5)
    first = signatures[0]
    step = list(polygon_a._step_table(5))
    under = polygon_a._step_key(first.upmask, 0, 5)
    walk = first.walk(elements)
    keys = [walk.step_keys[places[0]] for _, places in walk.levels]
    key = next(k ^ under for k in keys if step[k ^ under] & ~first.polygon.boundary_mask)
    step[key] = 0
    monkeypatch.setattr(polygon_a, "_step_table", lambda n: tuple(step))
    with pytest.raises(AssertionError) as alone:
        _walked_alone(walk, first)
    assert re.fullmatch(r"eta produced \d diagonals, wanted 4", str(alone.value))
    with pytest.raises(AssertionError, match=f"^{re.escape(str(alone.value))}$"):
        walk.walk_eta(signatures)
    assert walk._eta == {}


# ---------------------------------------------------------------------------
# The shared mask reader and flip body against the per-type forms they replace.


def _four_case_descents(beyond, adjacent, a_up, n):
    """The descent mask by the four up/down cases of a and a+1."""
    b_up = a_up >> 1
    descents = (
        ~a_up & ~b_up & beyond
        | ~a_up & b_up & adjacent
        | a_up & b_up & ~beyond
        | a_up & ~b_up & ~adjacent
    )
    return descents & ((1 << n) - 2)


def _diagonal_case_descents(tri, sig):
    """descent_set_of_triangulation read straight off the diagonal pairs:
    (beyond, adjacent) masks of the a >= 1, then the four up/down cases."""
    beyond = adjacent = 0
    for a, b in tri.diagonals:
        if a >= 1:
            if b > a + 1:
                beyond |= 1 << a
            else:
                adjacent |= 1 << a
    descents = _four_case_descents(beyond, adjacent, sum(1 << i for i in sig.ups), sig.n)
    return frozenset((a, a + 1) for a in range(1, sig.n) if descents >> a & 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_two_case_descents_match_the_four_cases(n):
    """The colour-pair form of the case table against the four up/down
    cases, on every (beyond, adjacent) mask of bits 0..n and every
    marking of 1..n."""
    for ups in itertools.product((False, True), repeat=n):
        sig = UpDownSignature(n, frozenset(i + 1 for i, up in enumerate(ups) if up))
        for beyond, adjacent in itertools.product(range(1 << (n + 1)), repeat=2):
            got = polygon_a._case_descents((beyond, adjacent), sig)
            assert got == _four_case_descents(beyond, adjacent, sig.upmask, n), (beyond, adjacent, sig)


def test_descent_set_matches_diagonal_pair_reader():
    for n in range(3, 7):
        for sig in all_updown_signatures(n):
            for tri in all_triangulations(polygon_from_signature(sig)):
                got = descent_set_of_triangulation(tri, sig)
                assert got == _diagonal_case_descents(tri, sig), (tri, sig)


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


def _per_diagonal_flip_lattice(sig):
    """triangulation_lattice as one loop over every diagonal of every
    triangulation, each flip found by its apexes.  The covers go to
    from_covers sorted, which gives it the successor order of the
    lattice's covers, listed in sorted index-pair order, and so the same
    linear extension."""
    polygon = polygon_from_signature(sig)
    tris = all_triangulations(polygon)
    index = {t.diagonals: i for i, t in enumerate(tris)}
    covers = []
    for i, t in enumerate(tris):
        for diag in t.diagonals:
            other = _apex_flip(polygon, t.diagonals, diag)
            if polygon.slope_less(diag, other):
                covers.append((i, index[(t.diagonals - {diag}) | {other}]))
    return FiniteLattice.from_covers(tris, sorted(covers))


def test_walls_key_each_set_minus_an_orbit_by_first_occurrence():
    sets = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    walls = polygon_a._walls(sets, zip)
    assert list(walls.items()) == [
        (frozenset({2}), [0, 1]), (frozenset({1}), [0, 2]), (frozenset({3}), [1, 2]),
    ]
    whole = polygon_a._walls(sets, lambda s: [s])
    assert whole == {frozenset(): [0, 1, 2]}


def test_triangulation_lattice_matches_per_diagonal_flips():
    for n in range(3, 7):
        for sig in all_updown_signatures(n):
            got, want = triangulation_lattice(sig), _per_diagonal_flip_lattice(sig)
            assert got.elements == want.elements, sig
            assert got.covers == want.covers, sig


def test_ji_contracted_a_refuses_members_outside_one_to_n():
    sig = UpDownSignature(3, frozenset({2}))
    with pytest.raises(ValueError):
        ji_contracted_a(sig, frozenset({1, 9}))
