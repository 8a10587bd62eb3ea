import itertools

import pytest

from cambrian import congruences
from cambrian import (
    build_system,
    cambrian_congruence,
    cambrian_lattice,
    check_iso_anti_iso,
    descent_quotient_check,
    generating_pairs,
    parabolic_restriction_check,
    parse_orientation,
    recover_orientation,
)
from cambrian.congruences import (
    all_orientations,
    orientation_from_edges,
)
from cambrian.coxeter import get_system
from cambrian.lattices import contraction_congruence, quotient_lattice


def test_parse_orientation_and_reverse():
    system = build_system("A", 3)
    o = parse_orientation(system, "1>2,3>2")
    assert set((s, t) for s, t, _ in o.edges) == {(1, 2), (3, 2)}
    assert set((s, t) for s, t, _ in o.reverse().edges) == {(2, 1), (2, 3)}
    with pytest.raises(ValueError):
        parse_orientation(system, "1>2")
    with pytest.raises(ValueError):
        parse_orientation(system, "1>2,2>1,3>2")


def test_all_orientations_count():
    assert len(all_orientations(build_system("A", 3))) == 4
    assert len(all_orientations(build_system("B", 3))) == 4
    assert len(all_orientations(build_system("H3"))) == 4
    assert len(all_orientations(build_system("I2", None, 7))) == 2


def test_generating_pairs_shape():
    system = build_system("B", 2)
    o = parse_orientation(system, "0>1")
    ((gen, word),) = generating_pairs(system, o)
    # Edge s0 -> s1 with m = 4: t = s1, word = s1 s0 s1.
    assert gen == system.generator(1)
    assert word == system.from_word([1, 0, 1])


def test_cambrian_congruence_counts():
    system = build_system("A", 2)
    for o in all_orientations(system):
        assert cambrian_congruence(system, o).num_classes == 5
    h3 = build_system("H3")
    o = parse_orientation(h3, "1>2,2>3")
    assert cambrian_congruence(h3, o).num_classes == 32


def test_class_representatives_are_bottoms():
    system = build_system("A", 3)
    o = parse_orientation(system, "1>2,3>2")
    camb = cambrian_lattice(system, o)
    lattice = camb.congruence.lattice
    for rep, cls in zip(camb.class_representatives, camb.congruence.classes):
        bottom = cls[0]
        assert rep == lattice.elements[bottom]
        for i in cls:
            assert lattice.le(bottom, i)


def test_recover_orientation_round_trip():
    for family, rank in [("A", 3), ("B", 3), ("I2", 6), ("H3", None)]:
        if family == "I2":
            system = build_system("I2", None, rank)
        else:
            system = build_system(family, rank)
        for o in all_orientations(system):
            quotient = cambrian_lattice(system, o).quotient
            got = recover_orientation(quotient, system)
            assert set(got.edges) == set(o.edges)


def test_check_iso_anti_iso():
    system = build_system("A", 3)
    a = parse_orientation(system, "1>2,2>3")
    b = parse_orientation(system, "2>1,3>2")
    verdict = check_iso_anti_iso(system, a, b)
    assert verdict["diagram"] == "both"
    assert verdict["lattice_iso"] and verdict["lattice_anti_iso"]
    assert verdict["consistent"]
    c = parse_orientation(system, "1>2,3>2")
    verdict = check_iso_anti_iso(system, a, c)
    assert verdict["consistent"]


def test_descent_quotient_check():
    for family, rank in [("A", 3), ("B", 2)]:
        system = build_system(family, rank)
        for o in all_orientations(system):
            ok, witness = descent_quotient_check(system, o)
            assert ok, witness


def _descent_masks(system, quotient):
    """The left descents of each element of ``quotient``, as masks of
    generator positions, read as ``descent_quotient_check`` reads them."""
    bit = {name: 1 << k for k, name in enumerate(system.generator_names)}
    return [sum(bit[s] for s in system.left_descents(e)) for e in quotient.elements]


def _decided_as_scanned(system, quotient):
    """The one-test-per-generator decision against the pair scan, called
    directly: the same verdict and the same witness.  Gives the verdict."""
    delta = _descent_masks(system, quotient)
    ok, witness = congruences._descents_respected(quotient, delta)
    scanned = congruences._descent_pair_scan(quotient, delta)
    assert (ok, witness) == (scanned is None, scanned)
    return ok


ORIENTATION_GROUPS = (
    [("A", n - 1, None) for n in range(3, 7)]
    + [("B", n, None) for n in range(2, 5)]
    + [("I2", None, m) for m in range(3, 9)]
    + [("H3", None, None)]
)


@pytest.mark.parametrize("family, rank, m", ORIENTATION_GROUPS)
def test_descent_decision_matches_the_pair_scan_on_orientations(family, rank, m):
    system = get_system(family, rank, m)
    for o in all_orientations(system):
        assert _decided_as_scanned(system, cambrian_lattice(system, o).quotient), str(o)


@pytest.mark.parametrize("family, rank, passing", [("A", 3, 11), ("A", 4, 26), ("B", 3, 23)])
def test_descent_decision_matches_the_pair_scan_on_contractions(family, rank, passing):
    """Cg(g) for every join-irreducible g; each passes, and in some the
    classes having a generator are empty, a filter that holds vacuously."""
    system = get_system(family, rank)
    lattice = system.weak_order_lattice()
    verdicts = [
        _decided_as_scanned(system, quotient_lattice(contraction_congruence(lattice, g)))
        for g in lattice.join_irreducibles
    ]
    assert verdicts == [True] * passing


def _every_element_but_e_has(system, name):
    """A fault giving every element but the identity the descent ``name``.
    The elements lacking it are then the ideal of the bottom, so joins
    still hold, but those having it are every other element, which is no
    filter when there are two atoms: their meet is the bottom."""
    identity = system.identity()
    return lambda descents, w: descents if w == identity else descents | {name}


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3)])
def test_descent_check_fails_at_the_scans_meet_witness_when_only_meets_break(
    fault_left_descents, family, rank
):
    system = get_system(family, rank)
    fault_left_descents(system, _every_element_but_e_has(system, system.generator_names[-1]))
    for o in all_orientations(system):
        quotient = cambrian_lattice(system, o).quotient
        ok, witness = descent_quotient_check(system, o)
        assert not ok and witness[2] == "meet"
        assert witness == congruences._descent_pair_scan(quotient, _descent_masks(system, quotient))


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3)])
def test_descent_check_holds_vacuously_when_every_element_has_a_descent(
    fault_left_descents, family, rank
):
    """With one generator a descent of every element, the identity
    included, no element lacks it: an empty ideal, which joins respect,
    beside the filter of the bottom.  The check passes, as the scan does."""
    system = get_system(family, rank)
    name = system.generator_names[0]
    fault_left_descents(system, lambda descents, w: descents | {name})
    for o in all_orientations(system):
        assert descent_quotient_check(system, o) == (True, None)
        assert _decided_as_scanned(system, cambrian_lattice(system, o).quotient)


def test_descent_check_raises_when_the_scan_finds_no_failing_pair(
    fault_left_descents, monkeypatch
):
    """A generator that fails its ideal or filter test while no pair breaks
    a join or meet is an internal error."""
    system = get_system("A", 3)
    fault_left_descents(system, _every_element_but_e_has(system, 1))
    monkeypatch.setattr(congruences, "_descent_pair_scan", lambda quotient, delta: None)
    with pytest.raises(AssertionError, match="no pair breaks a join or meet"):
        descent_quotient_check(system, all_orientations(system)[0])


def test_parabolic_restriction():
    system = build_system("A", 3)
    o = parse_orientation(system, "1>2,3>2")
    assert parabolic_restriction_check(system, o, {1, 2})
    assert parabolic_restriction_check(system, o, {2, 3})
    assert parabolic_restriction_check(system, o, {1, 3})
    b3 = build_system("B", 3)
    ob = orientation_from_edges(b3, [(0, 1), (2, 1)])
    assert parabolic_restriction_check(b3, ob, {0, 1})
    assert parabolic_restriction_check(b3, ob, {1, 2})
    # H3 multiplies by descents on the generic engine.
    h3 = build_system("H3")
    for K in [{1, 2}, {2, 3}, {1, 3}]:
        for o in all_orientations(h3):
            assert parabolic_restriction_check(h3, o, K), (o, K)


def _parabolic_search(system, K) -> set:
    """Oracle: W_K by a search over the group from e, right-multiplying
    by every generator in K, the search the down-set of w0(K) replaced."""
    seen = {system.identity()}
    frontier = [system.identity()]
    while frontier:
        w = frontier.pop()
        for name in K:
            nxt = system.right_multiply(w, name)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize(
    "key, sizes",
    [
        (("A", 3), None),
        (("A", 4), None),
        (("B", 3), None),
        (("I2", None, 5), None),
        (("H3",), {(1, 2): 10, (2, 3): 6, (1, 3): 4}),
    ],
)
def test_parabolic_restriction_reads_w_k_as_the_down_set_of_its_longest_element(
    monkeypatch, key, sizes
):
    """For every proper nonempty K, the sub-weak-order the check builds
    holds exactly the elements the search reaches (H3's three rank-2
    parabolics have 10, 6 and 4)."""
    system = build_system(*key)
    names = system.generator_names
    built = []

    def spy(elements, covers):
        built.append(set(elements))
        return build(elements, covers)

    build = congruences.built_lattice
    monkeypatch.setattr(congruences, "built_lattice", spy)
    orientation = all_orientations(system)[0]
    for r in range(1, len(names)):
        for K in itertools.combinations(names, r):
            expected = _parabolic_search(system, K)
            if sizes is not None and r == 2:
                assert len(expected) == sizes[K]
            assert parabolic_restriction_check(system, orientation, K)
            assert built.pop() == expected, K


def test_parabolic_restriction_fails_when_the_sub_closure_drops_its_pairs(monkeypatch):
    # With no generating pair the closure on W_K is the finest partition,
    # which the restricted Cambrian congruence of S_3 (5 classes) is not.
    system = build_system("A", 3)
    o = parse_orientation(system, "1>2,3>2")
    closure = congruences.congruence_closure
    full = system.weak_order_lattice().n

    def dropped(lattice, pairs):
        return closure(lattice, pairs if lattice.n == full else [])

    monkeypatch.setattr(congruences, "congruence_closure", dropped)
    assert not parabolic_restriction_check(system, o, {1, 2})
