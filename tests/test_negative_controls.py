"""Negative controls: under a known fault, a suite must fail with a named
failing check, and ``cambrian verify`` must exit 1 and still print its
report.

The fault drops the last generating pair of every Cambrian congruence, so
each closure is finer than the Cambrian congruence it stands for.  The
suites that read no Cambrian congruence, and those whose claim also holds
for the finer one (sublattice, mobius, descent, patterns, shard, fibers),
pass under it and need faults of their own.
"""

import json

import pytest

from cambrian import congruences, suites
from cambrian.cli import main

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
