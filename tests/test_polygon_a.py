"""Tests for polygon triangulations and pattern machinery in type A."""

import itertools
from types import SimpleNamespace

import pytest

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
    signatures_for_orientation,
    triangulation_lattice,
    uncontracted_ji_subsets,
)
from cambrian import suites
from cambrian.coxeter import all_ji_subsets_a
from cambrian.polygon_a import eta_mask_descents
from cambrian.suites import _firing_masks, all_updown_signatures, catalan


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


def test_pi_down_small_examples():
    all_up = UpDownSignature(3, frozenset({1, 2, 3}))
    assert pi_down((2, 3, 1), all_up) == (2, 1, 3)
    assert pi_down((3, 2, 1), all_up) == (3, 2, 1)


@pytest.mark.parametrize("ups", [frozenset(), frozenset({2, 3}), frozenset({1, 4})])
def test_projection_properties(ups):
    sig = UpDownSignature(4, ups)
    system = get_system("A", 3)
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
        assert system.weak_le(down, x) and system.weak_le(x, up)
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


@pytest.mark.parametrize("x", [(1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 4)])
def test_maps_reject_non_permutations(x):
    sig = UpDownSignature(3, frozenset({2}))
    for project in (pi_down, pi_up):
        with pytest.raises(ValueError):
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


def test_eta_masks_decode_to_eta():
    cases = [(sig, n) for n in range(3, 6) for sig in all_updown_signatures(n)]
    cases.append((SIG6, 6))
    for sig, n in cases:
        poly = polygon_from_signature(sig)
        elements = _weak_order(n).elements
        for x, mask in zip(elements, eta_masks(elements, sig)):
            assert _decode(mask, n) == eta(x, poly).diagonals, (x, sig)


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


def test_mask_case_table_matches_descent_set():
    for sig, _ in _small_cases(5):
        if sig.n < 3:
            continue
        for tri in all_triangulations(polygon_from_signature(sig)):
            got = eta_mask_descents(_encode(tri.diagonals, sig.n), sig)
            want = descent_set_of_triangulation(tri, sig)
            assert got == sum(1 << a for a, _ in want), (tri, sig)


@pytest.mark.parametrize("which", [0, 1])
def test_fibers_fail_when_one_projection_entry_moves(monkeypatch, which):
    real = suites.projection_tables

    def moved(lattice, sig):
        tables = real(lattice, sig)
        if sig.to_string() == "udud":
            # A middle member of a fiber, whose own entry is checked
            # against the fiber's ends, is sent to itself.
            fibers = suites._eta_fiber_partition(lattice, sig).values()
            i = next(members for members in fibers if len(members) >= 3)[1]
            tables = [list(t) for t in tables]
            tables[which][i] = i
        return tuple(tables)

    monkeypatch.setattr(suites, "projection_tables", moved)
    report = suites.suite_fibers(max_rank=4)
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["A n=4 sig udud"]
    assert failed[0]["witness"]


def test_fibers_fail_when_two_fibers_merge(monkeypatch):
    real = suites.eta_masks

    def merged(elements, sig):
        masks = real(elements, sig)
        if sig.to_string() == "ddu":
            first, other = masks[0], next(m for m in masks if m != masks[0])
            masks = [first if m == other else m for m in masks]
        return masks

    monkeypatch.setattr(suites, "eta_masks", merged)
    report = suites.suite_fibers(max_rank=3)
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["A n=3 sig ddu"]
    assert failed[0]["witness"]
