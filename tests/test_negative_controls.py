"""Negative controls: under a known fault, a suite must fail with a named
failing check, and ``cambrian verify`` must exit 1 and still print its
report.

The first fault drops the last generating pair of every Cambrian
congruence, so each closure is finer than the Cambrian congruence it
stands for.  The suites that read no Cambrian congruence, and those whose
claim also holds for the finer one (sublattice, mobius, descent, patterns,
shard, fibers), pass under it.  ``sublattice`` and ``mobius`` have faults
of their own: a congruence generated by one join-irreducible whose class
bottoms are not a sublattice, and M3, a lattice that is no quotient of a
weak order, in place of each Cambrian quotient.
"""

import dataclasses
import json

import pytest

from cambrian import congruences, suites
from cambrian.cli import main
from cambrian.lattices import FiniteLattice, contraction_congruence

# Per suite at --max-rank 3: failing checks, all checks, first failing check.
DROPPED_PAIR = {
    "catalan": (2, 2, "A n=3 [1>2]"),
    "congruence-eq": (20, 20, "A n=3 sig ddd"),
    "fan": (24, 26, "A n=3 sig ddd"),
    "cluster": (3, 14, "cluster poset iso A n=3"),
    "iso": (14, 17, "recover A n=3 [1>2]"),
    "b-tamari": (4, 4, "B n=2 toward_s0"),
}


@pytest.fixture
def dropped_pair(monkeypatch):
    real = congruences.generating_pairs

    def dropped(system, orientation):
        return list(real(system, orientation))[:-1]

    monkeypatch.setattr(congruences, "generating_pairs", dropped)


def _failed(report):
    return [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_suite_fails_when_a_generating_pair_is_dropped(dropped_pair, suite):
    report = suites.run_suite(suite, max_rank=3)
    failed = _failed(report)
    assert report["passed"] is False
    assert (len(failed), len(report["checks"]), failed[0]["name"]) == DROPPED_PAIR[suite]


@pytest.mark.parametrize("suite", DROPPED_PAIR)
def test_verify_exits_1_with_the_failing_report(dropped_pair, capsys, suite):
    code = main(["verify", "--suite", suite, "--max-rank", "3"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
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
    code = main(["verify", "--suite", "sublattice", "--max-rank", "4"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert {c["name"]: c["witness"] for c in _failed(report)} == SUBLATTICE_FAILS


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
    code = main(["verify", "--suite", "mobius", "--max-rank", "3"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    first = _failed(json.loads(captured.out))[0]
    assert (first["name"], first["witness"]) == ("A n=3 [1>2]", M3_WITNESS)
