"""Negative controls: under a known fault, a suite must fail with a named
failing check, and ``cambrian verify`` must exit 1 and still print its
report.

The first fault drops the last generating pair of every Cambrian
congruence, so each closure is finer than the Cambrian congruence it
stands for; the second adds the pair of the first edge reversed, so each
closure is coarser.  Both fail the same checks.  The suites that read no
Cambrian congruence, and those whose claim also holds for other
congruences (sublattice, mobius, descent, patterns, shard, fibers), pass
under them, and each has faults of its own: a congruence generated by one
join-irreducible whose class bottoms are not a sublattice; M3, a lattice
that is no quotient of a weak order, in place of each Cambrian quotient;
one element's left descents changed; one projection firing witness
dropped; one shard node without its arrows; two eta fibers merged; an
isomorphism search that returns a wrong mapping; tau_+ and tau_- swapped;
a compatibility that rejects one compatible pair, or accepts every pair;
triangulations read with two roots swapped; every H3 congruence
collapsed to one class.

A fault that makes the program build a poset that is no lattice is an
internal error, not a failed check: with the top's class merged into
class 0, every command that builds a quotient exits 4.  So is a group
whose degrees do not count its elements by length, and an I2(m) whose
non-simple roots are given the support {1}: the fan's chamber table then
finds two adjacent chambers that share no wall.
"""

import dataclasses
import json
from array import array

import pytest

from cambrian import congruences, coxeter, fans, lattices, suites
from cambrian.cli import main
from cambrian.coxeter import _SYSTEMS, get_system
from cambrian.lattices import FiniteLattice, LatticeCongruence, contraction_congruence
from cambrian.polygon_a import GroupWalk

# Per suite at --max-rank 3: failing checks, all checks, first failing check.
DROPPED_PAIR = {
    "catalan": (2, 2, "A n=3 [1>2]"),
    "congruence-eq": (20, 20, "A n=3 sig ddd"),
    "fan": (24, 26, "A n=3 sig ddd"),
    "cluster": (3, 14, "cluster poset iso A n=3"),
    "iso": (14, 17, "recover A n=3 [1>2]"),
    "b-tamari": (4, 4, "B n=2 toward_s0"),
}


def _drop_last_pair(monkeypatch):
    real = congruences.generating_pairs

    def dropped(system, orientation):
        return list(real(system, orientation))[:-1]

    monkeypatch.setattr(congruences, "generating_pairs", dropped)


@pytest.fixture
def dropped_pair(monkeypatch):
    _drop_last_pair(monkeypatch)


@pytest.fixture
def reversed_edge(monkeypatch):
    """Each Cambrian congruence also contracts (s, st...), the pair of its
    first edge s -> t reversed."""
    real = congruences.generating_pairs

    def added(system, orientation):
        s, t, m = orientation.edges[0]
        word = [s if k % 2 == 0 else t for k in range(m - 1)]
        return [*real(system, orientation), (system.generator(s), system.from_word(word))]

    monkeypatch.setattr(congruences, "generating_pairs", added)


def _failed(report):
    return [c for c in report["checks"] if not c["passed"]]


def _verify_fails(capsys, *argv):
    """The report of ``cambrian verify`` with ``argv``, which must exit 1
    and print a failing report."""
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
    return report


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_suite_fails_when_a_generating_pair_is_dropped(dropped_pair, suite):
    report = suites.run_suite(suite, max_rank=3)
    failed = _failed(report)
    assert report["passed"] is False
    assert (len(failed), len(report["checks"]), failed[0]["name"]) == DROPPED_PAIR[suite]


def test_fan_suite_fails_a_dropped_pair_after_a_clean_run(monkeypatch):
    """Each fan check closes its own congruence: after a clean run, the
    dropped pair fails the same checks as in a fresh process, so no memo
    of a Cambrian lattice or congruence hides it, and a clean rerun is
    byte-identical to the first run."""
    clean = json.dumps(suites.run_suite("fan"), indent=2)
    _drop_last_pair(monkeypatch)
    report = suites.run_suite("fan", max_rank=3)
    failed = _failed(report)
    assert (len(failed), len(report["checks"]), failed[0]["name"]) == DROPPED_PAIR["fan"]
    monkeypatch.undo()
    assert json.dumps(suites.run_suite("fan"), indent=2) == clean


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_verify_exits_1_with_the_failing_report(dropped_pair, capsys, suite):
    report = _verify_fails(capsys, "--suite", suite, "--max-rank", "3")
    assert _failed(report)[0]["name"] == DROPPED_PAIR[suite][2]


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_suite_fails_when_a_reversed_edge_pair_is_added(reversed_edge, suite):
    """The coarser congruence fails the checks the finer one fails."""
    report = suites.run_suite(suite, max_rank=3)
    failed = _failed(report)
    assert report["passed"] is False
    assert (len(failed), len(report["checks"]), failed[0]["name"]) == DROPPED_PAIR[suite]


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_verify_exits_1_when_a_reversed_edge_pair_is_added(reversed_edge, capsys, suite):
    report = _verify_fails(capsys, "--suite", suite, "--max-rank", "3")
    assert _failed(report)[0]["name"] == DROPPED_PAIR[suite][2]


@pytest.mark.parametrize(
    "family, name, witness",
    [
        ("A", "recover A n=3 [1>2]", "interval over atoms 1, 2 has chain lengths 4 and 4"),
        ("B", "recover B n=2 [0>1]", "interval over atoms 1, 2 has chain lengths 5 and 5"),
        ("I2", "recover I2(3) [1>2]", "interval over atoms 1, 2 has chain lengths 4 and 4"),
        ("H3", "recover H3 [1>2,2>3]", "interval over atoms 2, 3 has chain lengths 4 and 4"),
    ],
    ids=["A", "B", "I2", "H3"],
)
def test_iso_fails_a_quotient_that_is_not_cambrian(dropped_pair, capsys, family, name, witness):
    """The recovery's reason for refusing the quotient is the witness of a
    failed check, not a usage error."""
    code = main(["verify", "--suite", "iso", "--family", family, "--max-rank", "3"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    first = _failed(json.loads(captured.out))[0]
    assert (first["name"], first["recovered"], first["witness"]) == (name, None, witness)


def _unsearched(search, a, b):
    """The search's base case flipped: it answers at once, nothing mapped."""
    return [-1] * a.n


def _swapped(search, a, b):
    """A true isomorphism with the images of the bottom and the top
    swapped: a bijection that sends the bottom's covers off the covers."""
    mapping = search(a, b)
    if mapping is not None:
        mapping[0], mapping[-1] = mapping[-1], mapping[0]
    return mapping


@pytest.mark.parametrize("fault", [_unsearched, _swapped], ids=["unsearched", "swapped"])
def test_verify_iso_exits_1_when_the_search_returns_a_wrong_mapping(monkeypatch, capsys, fault):
    """The search's mapping is checked before it counts, so every duality
    check fails and ``verify`` exits 1 with the failing report."""
    real = lattices._isomorphism_search
    monkeypatch.setattr(lattices, "_isomorphism_search", lambda a, b: fault(real, a, b))
    report = _verify_fails(capsys, "--suite", "iso", "--max-rank", "3")
    assert [c["name"] for c in _failed(report)] == [
        "Tamari self-duality n=3", "B-Tamari anti-isomorphism n=2", "B-Tamari anti-isomorphism n=3"
    ]


def _class_bottoms(cong):
    return sorted({members[0] for members in cong.classes})


def _not_a_sublattice(system):
    """Cg(g) for the first join-irreducible g of the weak order whose
    class bottoms are not a sublattice, or None if there is none."""
    lattice = system.weak_order_lattice()
    for g in lattice.join_irreducibles:
        cong = contraction_congruence(lattice, g)
        if not lattice.is_sublattice(_class_bottoms(cong))[0]:
            return cong
    return None


@pytest.fixture
def bottoms_not_a_sublattice(monkeypatch):
    """Each Cambrian congruence replaced by one generated by a single
    join-irreducible whose class bottoms are not a sublattice, where the
    group has one (not S_3 nor B_2, whose congruences all pass)."""
    real = suites.cambrian_congruence

    def wrong(system, orientation):
        return _not_a_sublattice(system) or real(system, orientation)

    monkeypatch.setattr(suites, "cambrian_congruence", wrong)


# At --max-rank 4 the suite covers S_3, S_4, B_2 and B_3; the checks of S_4
# and B_3 fail, each with the same witness, [x, y, op, x op y].
SUBLATTICE_FAILS = {
    **{
        f"A n=4 [{o}]": ["2,4,3,1", "3,4,2,1", "meet", "2,3,4,1"]
        for o in ("1>2,2>3", "1>2,3>2", "2>1,2>3", "2>1,3>2")
    },
    **{
        f"B n=3 [{o}]": ["3,1,-2", "-3,-1,-2", "meet", "1,3,-2"]
        for o in ("0>1,1>2", "0>1,2>1", "1>0,1>2", "1>0,2>1")
    },
}


def test_sublattice_fails_on_bottoms_that_are_not_a_sublattice(bottoms_not_a_sublattice):
    report = suites.run_suite("sublattice", max_rank=4)
    assert report["passed"] is False and len(report["checks"]) == 12
    assert {c["name"]: c["witness"] for c in _failed(report)} == SUBLATTICE_FAILS


def test_verify_sublattice_exits_1_with_the_failing_report(bottoms_not_a_sublattice, capsys):
    report = _verify_fails(capsys, "--suite", "sublattice", "--max-rank", "4")
    assert {c["name"]: c["witness"] for c in _failed(report)} == SUBLATTICE_FAILS


def test_fan_names_degree_0_for_a_quotient_of_one_class(monkeypatch):
    """With every H3 orientation's congruence collapsed to one class, the
    Hasse-degree check fails each orientation, and the report counts the
    class no cover reaches as degree 0."""

    def collapsed(system, orientation):
        lattice = system.weak_order_lattice()
        return lattices.congruence_closure(lattice, [(lattice.bottom, lattice.top)])

    monkeypatch.setattr(suites, "cambrian_congruence", collapsed)
    report = suites.run_suite("fan", "H3")
    assert [(c["name"], c["hasse_degrees"]) for c in _failed(report)] == [
        (f"H3 [{o}]", [0]) for o in congruences.all_orientations(get_system("H3"))
    ]


def m3():
    elements = ("0", "a", "b", "c", "1")
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return FiniteLattice.from_covers(elements, covers)


@pytest.fixture
def m3_quotients(monkeypatch):
    """Every Cambrian lattice with M3 as its quotient: mu(0, 1) = 2."""
    real = suites.cambrian_lattice

    def wrong(system, orientation):
        return dataclasses.replace(real(system, orientation), quotient=m3())

    monkeypatch.setattr(suites, "cambrian_lattice", wrong)


# (i, j, mu(i, j), whether [i, j] is atomic) for the bottom and top of M3.
M3_WITNESS = "(0, 4, 2, True)"


def test_mobius_fails_on_m3(m3_quotients):
    report = suites.run_suite("mobius", max_rank=3)
    failed = _failed(report)
    assert report["passed"] is False
    assert len(failed) == len(report["checks"]) == 8
    assert {c["witness"] for c in failed} == {M3_WITNESS}


def test_verify_mobius_exits_1_with_the_failing_report(m3_quotients, capsys):
    first = _failed(_verify_fails(capsys, "--suite", "mobius", "--max-rank", "3"))[0]
    assert (first["name"], first["witness"]) == ("A n=3 [1>2]", M3_WITNESS)


def _without_first_arrows(digraph):
    """``digraph`` with the arrows of its first node that has any removed."""

    def emptied(n):
        graph = dict(digraph(n))
        first = next(a for a, targets in graph.items() if targets)
        graph[first] = frozenset()
        return graph

    return emptied


@pytest.fixture
def shard_arrows_dropped(monkeypatch):
    for name in ("shard_digraph_a", "shard_digraph_b"):
        monkeypatch.setattr(suites, name, _without_first_arrows(getattr(suites, name)))


# At --max-rank 3 every check fails; the first witness is (node, its
# closed shard arrows, the forcing read off the weak order).
SHARD_FAILS = ["A n=3", "B n=2", "B n=3"]
SHARD_WITNESS = "([2], [], [[1], [1, 2]])"


def test_shard_fails_when_a_node_loses_its_arrows(shard_arrows_dropped):
    report = suites.run_suite("shard", max_rank=3)
    assert report["passed"] is False
    assert [c["name"] for c in _failed(report)] == SHARD_FAILS
    assert len(report["checks"]) == len(SHARD_FAILS)
    assert _failed(report)[0]["witness"] == SHARD_WITNESS


def test_verify_shard_exits_1_with_the_failing_report(shard_arrows_dropped, capsys):
    report = _verify_fails(capsys, "--suite", "shard", "--max-rank", "3")
    assert [c["name"] for c in _failed(report)] == SHARD_FAILS
    assert _failed(report)[0]["witness"] == SHARD_WITNESS


def _without_atom_descent(system):
    """The fault that drops the first generator from its own atom's left
    descents: that atom has none, while its join with another atom keeps
    both."""
    first = system.generator_names[0]
    atom = system.generator(first)
    return lambda descents, w: descents - {first} if w == atom else descents


@pytest.fixture
def atom_without_its_descent(fault_left_descents):
    for system in (get_system("A", 2), get_system("B", 2), get_system("B", 3)):
        fault_left_descents(system, _without_atom_descent(system))


# At --max-rank 3 every check of S_3, B_2 and B_3 fails: each case table at
# its atom, each quotient at the join of its two first atoms.
DESCENT_QUOTIENT_FAILS = {
    **{
        f"A n=3 quotient descents [{o}]": "((2, 1, 3), (1, 3, 2), 'join')"
        for o in ("1>2", "2>1")
    },
    **{f"B n=2 quotient descents [{o}]": "((-1, 2), (2, 1), 'join')" for o in ("0>1", "1>0")},
    **{
        f"B n=3 quotient descents [{o}]": "((-1, 2, 3), (2, 1, 3), 'join')"
        for o in ("0>1,1>2", "0>1,2>1", "1>0,1>2", "1>0,2>1")
    },
}


def _quotient_descent_failures(report):
    return {c["name"]: c["witness"] for c in _failed(report) if "quotient" in c["name"]}


def test_descent_quotients_fail_when_an_atom_loses_its_descent(atom_without_its_descent):
    report = suites.run_suite("descent", max_rank=3)
    assert len(_failed(report)) == len(report["checks"]) == 11
    assert _quotient_descent_failures(report) == DESCENT_QUOTIENT_FAILS


def test_verify_descent_exits_1_when_an_atom_loses_its_descent(atom_without_its_descent, capsys):
    report = _verify_fails(capsys, "--suite", "descent", "--max-rank", "3")
    assert _quotient_descent_failures(report) == DESCENT_QUOTIENT_FAILS


@pytest.fixture
def fresh_clusters():
    """``clusters`` emptied before and after, so no complex built under a
    fault outlives the test."""
    fans.clusters.cache_clear()
    yield
    fans.clusters.cache_clear()


@pytest.fixture
def every_pair_compatible(monkeypatch, fresh_clusters):
    """A too-permissive ``compatible``: every two almost positive roots."""
    monkeypatch.setattr(fans, "compatible", lambda n, beta, theta: True)


def test_cluster_count_fails_when_every_pair_is_compatible(every_pair_compatible):
    """Each triangulation is still a compatible set, so only the count of
    compatible (n-1)-sets tells, C(roots, n-1) of them; the two clusters
    of S_2 are single roots, which no compatibility can change."""
    report = suites.run_suite("cluster")
    assert {c["name"]: c["count"] for c in _failed(report)} == {
        "cluster count n=3": 10,
        "cluster count n=4": 84,
        "cluster count n=5": 1001,
        "cluster count n=6": 15504,
    }


def test_verify_cluster_exits_1_when_tau_plus_and_minus_swap(monkeypatch, capsys, fresh_clusters):
    """With tau_+ and tau_- swapped, every pair keeps its compatibility,
    so the counts, twists and walls pass; the rotation numbers that orient
    the flips change, and psi no longer inverts the tau_- shifted
    dictionary."""
    real = fans.tau
    monkeypatch.setattr(fans, "tau", lambda n, eps, root: real(n, "-" if eps in ("+", 1) else "+", root))
    report = _verify_fails(capsys, "--suite", "cluster")
    assert [c["name"] for c in _failed(report)] == [
        "cluster poset iso A n=4",
        "cluster poset iso B n=3",
        "psi cone bijection n=3",
        "psi cone bijection n=4",
        "psi cone bijection n=5",
    ]


def test_verify_cluster_exits_1_when_a_triangulation_is_not_compatible(
    monkeypatch, capsys, fresh_clusters
):
    """A ``compatible`` that rejects one compatible pair of S_4 splits the
    triangulations holding both roots: a failed ``cluster count n=4``,
    not an internal error."""
    real = fans.compatible
    rejected = {(-1, 0, 0), (0, 1, 0)}
    monkeypatch.setattr(fans, "compatible", lambda n, b, t: {b, t} != rejected and real(n, b, t))
    report = _verify_fails(capsys, "--suite", "cluster")
    assert [c["name"] for c in _failed(report)] == ["cluster count n=4"]


def test_cluster_count_fails_a_misread_triangulation_at_the_right_count(monkeypatch):
    """Triangulations of S_4 read with alpha_2 and alpha_1 + alpha_2
    swapped: the compatible sets still number Catalan(4), so only the
    check that each triangulation is one of them tells."""
    real = suites.clusters
    swap = {(0, 1, 0): (1, 1, 0), (1, 1, 0): (0, 1, 0)}

    def misread(n):
        complex_ = real(n)
        if n != 4:
            return complex_
        found = tuple(frozenset(swap.get(r, r) for r in c) for c in complex_.clusters)
        return dataclasses.replace(complex_, clusters=found)

    monkeypatch.setattr(suites, "clusters", misread)
    report = suites.run_suite("cluster")
    assert [(c["name"], c["count"], c["expected"]) for c in _failed(report)] == [
        ("cluster count n=4", 14, 14)
    ]


# The faults of the ``run_suite`` controls in test_polygon_a, through the
# command line.


def test_verify_patterns_exits_1_when_a_firing_witness_is_dropped(monkeypatch, capsys):
    """The sweep's fixed-down intervals (later, earlier), packed as
    later | earlier << (n+1), lose the lowest earlier witness."""
    real = suites._pattern_sweep

    def dropped(n):
        avoid_down, fixed_down, avoid_up, fixed_up = real(n)
        width = n + 1

        def drop(packed):
            earlier = packed >> width
            return packed & (1 << width) - 1 | (earlier & earlier - 1) << width

        return avoid_down, array(fixed_down.typecode, map(drop, fixed_down)), avoid_up, fixed_up

    monkeypatch.setattr(suites, "_pattern_sweep", dropped)
    report = _verify_fails(capsys, "--suite", "patterns", "--max-rank", "5")
    assert {c["name"]: c["witness"] for c in _failed(report)} == {
        "A n=3 all signatures": "((2, 3, 1), 'dud')",
        "A n=4 all signatures": "((2, 3, 1, 4), 'dudd')",
        "A n=5 all signatures": "((2, 3, 1, 4, 5), 'duddd')",
    }


def test_verify_fibers_exits_1_when_two_fibers_merge(monkeypatch, capsys):
    """Under ddu the members of the second fiber take the first's place."""
    real = GroupWalk.eta_fibers

    def merged(walk, sig):
        distinct, places = real(walk, sig)
        if sig.to_string() == "ddu":
            distinct = distinct[:1] + distinct[2:]
            places = array(places.typecode, [k - (k >= 1) for k in places])
        return distinct, places

    monkeypatch.setattr(GroupWalk, "eta_fibers", merged)
    report = _verify_fails(capsys, "--suite", "fibers", "--max-rank", "3")
    assert [(c["name"], c["witness"]) for c in _failed(report)] == [("A n=3 sig ddu", "(1, 2, 3)")]


@pytest.mark.parametrize("family, n, first", [("A", 4, "dddd"), ("B", 3, "ddd")])
def test_verify_descent_exits_1_when_one_element_moves_its_descents(
    fault_left_descents, capsys, family, n, first
):
    system = get_system(family, n - 1 if family == "A" else n)
    lattice = system.weak_order_lattice()
    x = lattice.elements[len(lattice.elements) // 2]
    fault_left_descents(system, lambda descents, w: descents ^ {1} if w == x else descents)
    report = _verify_fails(capsys, "--suite", "descent", "--family", family, "--max-rank", str(n))
    case_tables = [c for c in _failed(report) if c["name"].endswith("case tables")]
    assert [(c["name"], c["witness"]) for c in case_tables] == [
        (f"{family} n={n} case tables", str((first, x)))
    ]


def test_descent_faults_leave_no_system_attribute_behind(monkeypatch, fault_left_descents):
    """The descent faults reach the faulted systems alone and, once undone,
    leave no memoized system with a ``left_descents`` of its own, which
    would hide a later class-level fault from it."""
    a3, b3 = get_system("A", 3), get_system("B", 3)
    atom = b3.generator(b3.generator_names[0])
    fault_left_descents(a3, lambda descents, w: descents ^ {1})
    fault_left_descents(b3, _without_atom_descent(b3))
    assert a3.left_descents((1, 2, 3, 4)) == {1}
    assert b3.left_descents(atom) == frozenset()
    assert get_system("A", 2).left_descents((1, 2, 3)) == frozenset()
    monkeypatch.undo()
    assert [key for key, system in _SYSTEMS.items() if "left_descents" in vars(system)] == []
    assert b3.left_descents(atom) == {b3.generator_names[0]}


@pytest.fixture
def top_in_class_zero(monkeypatch):
    """Every closure also merges the top's class into class 0, the
    bottom's: the classes' images then have a cycle, so no quotient."""
    real = congruences.congruence_closure

    def merged(lattice, pairs):
        class_of = real(lattice, pairs).class_of
        top = class_of[lattice.top]
        return LatticeCongruence(lattice, [0 if c == top else c for c in class_of])

    monkeypatch.setattr(congruences, "congruence_closure", merged)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "mobius", "--family", "A", "--max-rank", "3"],
        ["verify", "--suite", "iso", "--family", "A", "--max-rank", "3"],
        ["verify", "--suite", "b-tamari", "--max-rank", "2"],
        ["build", "--family", "A", "--rank", "2", "--orientation", "1>2"],
    ],
)
def test_a_built_poset_that_is_no_lattice_exits_4(top_in_class_zero, capsys, argv):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: built a poset that is not a lattice: ")



def test_a_degree_row_that_does_not_match_its_group_exits_4(monkeypatch, capsys):
    """H3 given the degrees (2, 7, 9): the root count, 15, still holds, but
    the enumeration's elements by length are no q-product of the degrees.
    I2(7) given (2, 6) builds its roots from its bond label, so only the
    same count stops it.  A wrong table is an internal error, not a failed
    Catalan claim."""
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    get_system("H3").degrees = (2, 7, 9)
    get_system("I2", None, 7).degrees = (2, 6)
    for argv in (
        ["verify", "--suite", "catalan", "--family", "H3"],
        ["verify", "--suite", "catalan", "--family", "I2"],
    ):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal error: elements by length ")


def test_wrong_i2_root_supports_exit_4(monkeypatch, capsys):
    """Every non-simple positive root of I2(m) has both simple roots in its
    support.  Given {1} alone, the chamber rays of adjacent chambers no
    longer meet on one hyperplane: the fan check of every orientation of
    I2(3..8) raises, and ``verify --suite fan --family I2`` exits 4 with
    nothing on stdout, not a failed claim."""
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    real = coxeter.CoxeterSystem.supports.fget

    def wrong(system):
        return tuple(s if k < 2 else (1, 0) for k, s in enumerate(real(system)))

    monkeypatch.setattr(coxeter.CoxeterSystem, "supports", property(wrong))
    for m in range(3, 9):
        system = get_system("I2", None, m)
        for orientation in congruences.all_orientations(system):
            with pytest.raises(AssertionError, match="do not share one wall"):
                fans.check_fan_orientation(system, orientation)
    assert main(["verify", "--suite", "fan", "--family", "I2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: chambers 0 and 1 do not share one wall\n"
