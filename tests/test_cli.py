"""End-to-end tests of the command line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cambrian import cli, coxeter, fans, suites
from cambrian.cli import INTERNAL_ERROR, main
from cambrian.coxeter import CapExceeded
from cambrian.lattices import FiniteLattice
from cambrian.suites import catalan


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_cambrian_json(capsys):
    code, out = run_cli(
        capsys,
        "build", "--family", "A", "--rank", "3",
        "--orientation", "1>2,3>2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["num_elements"] == catalan(4) == 14
    assert len(data["elements"]) == 14
    # Elements come sorted by (length, one-line notation); identity first.
    assert data["elements"][0] == "1,2,3,4"


def test_build_weak_order_i2(capsys):
    code, out = run_cli(capsys, "build", "--family", "I2", "--m", "5")
    assert code == 0
    assert json.loads(out)["num_elements"] == 10


def test_build_b2_quotient(capsys):
    code, out = run_cli(
        capsys, "build", "--family", "B", "--rank", "2", "--orientation", "0>1"
    )
    assert code == 0
    assert json.loads(out)["num_elements"] == math.comb(4, 2) == 6


def test_build_json_round_trip(capsys):
    code, out = run_cli(
        capsys,
        "build", "--family", "A", "--rank", "3", "--orientation", "2>1,2>3",
    )
    assert code == 0
    data = json.loads(out)
    lattice = FiniteLattice.from_covers(
        data["elements"], [tuple(c) for c in data["covers"]]
    )
    assert lattice.n == data["num_elements"]
    assert sorted(lattice.elements) == sorted(data["elements"])
    # The cover relation on labels survives the round trip exactly.
    emitted = {
        (data["elements"][a], data["elements"][b]) for a, b in data["covers"]
    }
    rebuilt = {
        (lattice.elements[a], lattice.elements[b]) for a, b in lattice.covers
    }
    assert emitted == rebuilt


def test_build_dot_output(capsys):
    code, out = run_cli(
        capsys,
        "build", "--family", "A", "--rank", "2", "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "rankdir=BT" in out
    assert out.count("->") == 6  # covers of the S3 weak order


def test_build_output_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, _ = run_cli(
        capsys,
        "build", "--family", "A", "--rank", "2", "--output", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["num_elements"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "catalan", "--max-rank", "3"],
        ["build", "--family", "A", "--rank", "2"],
        ["fan", "--family", "A", "--rank", "2", "--signature", "udu"],
    ],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--output", str(target)])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --output")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_verify_suites_pass(capsys):
    for argv in (
        ["verify", "--suite", "catalan", "--family", "A", "--max-rank", "4"],
        ["verify", "--suite", "b-tamari", "--max-rank", "3"],
        ["verify", "--suite", "shard", "--family", "A", "--max-rank", "4"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize(
    "suite, family",
    [
        ("patterns", "B"), ("patterns", "H3"), ("b-tamari", "A"), ("cluster", "A"),
        ("fibers", "B"), ("fibers", "I2"),
    ],
)
def test_verify_unsupported_family_is_usage_error(capsys, suite, family):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--family", family)
    assert code == 2
    assert out == ""


def test_verify_without_checks_fails(capsys):
    # S_n starts at n = 3, so --max-rank 2 leaves the suite nothing to check.
    code, out = run_cli(capsys, "verify", "--suite", "catalan", "--max-rank", "2")
    assert code == 1
    report = json.loads(out)
    assert report["checks"] == [] and report["passed"] is False


@pytest.mark.parametrize(
    "suite, max_rank, families",
    [
        ("iso", "0", "A,B,I2,H3"),
        ("congruence-eq", "2", "A,B"),
        ("sublattice", "2", "A,B"),
        ("shard", "2", "A,B"),
        ("fan", "2", "A,B,H3"),
        ("descent", "2", "A,B"),
        ("mobius", "2", "A,B"),
    ],
)
def test_verify_fails_when_max_rank_empties_a_named_family(capsys, suite, max_rank, families):
    # S_n starts at n = 3 and B_n at n = 2: the checks left all pass, but
    # the report still names A (and, at 0, B and I2), which has none.
    code, out = run_cli(capsys, "verify", "--suite", suite, "--max-rank", max_rank)
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert report["family"] == families
    assert report["checks"] and all(c["passed"] for c in report["checks"])
    assert not any(c["name"].startswith("A ") for c in report["checks"])


def test_verify_passes_when_the_named_family_keeps_its_checks(capsys):
    # H3 is one group, which --max-rank does not cut.
    code, out = run_cli(
        capsys, "verify", "--suite", "catalan", "--family", "H3", "--max-rank", "1"
    )
    assert code == 0 and json.loads(out)["family"] == "H3"


@pytest.fixture
def family_d(monkeypatch):
    """A row for D_n (bonds (i, i+1) for i <= n-2 and (n-2, n), degrees
    2, 4, ..., 2n-2 and n, index n from 4), opted into the parts of the
    catalan and fan suites that run H3, with one bound each, on a fresh
    system table."""
    row = coxeter.Family(
        "rank", None, lambda r, m: tuple(range(1, r + 1)),
        lambda r, m: {**{(s, s + 1): 3 for s in range(1, r - 1)}, (r - 2, r): 3},
        lambda r, m: (*range(2, 2 * r - 1, 2), r), lambda r, m: f"D_{r}",
        4, lambda n: (n, None), "D n={n}",
    )
    monkeypatch.setitem(coxeter.FAMILIES, "D", row)
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    for name in ("catalan", "fan"):
        suite = suites.SUITES[name]
        parts = tuple(
            part._replace(bounds={**part.bounds, "D": 5})
            if "H3" in getattr(part, "bounds", ()) else part
            for part in suite.parts
        )
        monkeypatch.setitem(
            suites.SUITES, name, suite._replace(families=suite.families + ("D",), parts=parts)
        )


def test_a_new_family_is_its_row_and_one_bound_per_suite(capsys, family_d):
    code, out = run_cli(capsys, "verify", "--suite", "catalan", "--family", "D", "--max-rank", "5")
    report = json.loads(out)
    assert code == 0 and report["family"] == "D"
    assert [c["count"] for c in report["checks"]] == [50] * 8 + [182] * 16
    assert report["checks"][0]["name"].startswith("D n=4 [")

    code, out = run_cli(capsys, "verify", "--suite", "fan", "--family", "D", "--max-rank", "5")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0
    assert len(names) == 8 + 1 + 16 + 1
    assert (names[8], names[-1]) == ("D n=4 equal f-vectors", "D n=5 equal f-vectors")

    code, out = run_cli(
        capsys, "fan", "--family", "D", "--rank", "4", "--orientation", "1>2,3>2,4>2"
    )
    fan = json.loads(out)
    assert code == 0 and fan["family"] == fan["report"]["family"] == "D"
    assert fan["summary"] == {"num_cones": 50, "simplicial": True}
    assert fan["report"]["f_vector"] == [16, 66, 100, 50]


def test_fan_unread_flags_follow_the_chamber_input():
    # The table these flags were written as before the rows derived them;
    # --m, which fan takes for I2, is unread by every other family.
    assert {family: cli._unread("fan", family) for family in suites.SUITES["fan"].families} == {
        "A": ("m",),
        "B": ("m", "orientation", "stasheff_check"),
        "H3": ("rank", "m", "signature", "stasheff_check"),
        "I2": ("rank", "signature", "stasheff_check"),
    }


def test_verify_iso_honours_max_rank_for_i2(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "iso", "--family", "I2", "--max-rank", "4"
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == [
        f"recover I2({m}) [{o}]" for m in (3, 4) for o in ("1>2", "2>1")
    ]


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(system, orientation):
        raise AssertionError("invariant broken")

    # The catalan row's check counts classes through this name.
    monkeypatch.setattr(suites, "cambrian_congruence", broken)
    code = main(["verify", "--suite", "catalan"])
    captured = capsys.readouterr()
    assert code == INTERNAL_ERROR == 4
    assert captured.out == ""
    assert "invariant broken" in captured.err


def test_cluster_suite_exits_4_on_ambiguous_flip(capsys, monkeypatch):
    monkeypatch.setattr(fans, "rotation_number", lambda m, root: 0)
    code = main(["verify", "--suite", "cluster"])
    captured = capsys.readouterr()
    assert code == INTERNAL_ERROR == 4
    assert captured.out == ""
    assert captured.err == "internal error: flip with ambiguous rotation numbers\n"


def test_out_of_memory_exits_4_with_one_error_line():
    """S_8's weak order outgrows 128 MB of address space.  The limit is set
    on the child alone, so the host's memory is never exhausted."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    limit = 128 * 2**20
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["verify", "--suite", "catalan", "--family", "A", "--max-rank", "8", "--cap", "100000"]
    done = subprocess.run(
        [sys.executable, "-m", "cambrian.cli", *argv],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (done.returncode, done.stdout) == (INTERNAL_ERROR, ""), done.stderr
    assert done.stderr.splitlines() == ["error: out of memory"]


def test_verify_cluster_fails_closed_without_nice_coroot(capsys, monkeypatch):
    def no_nice_coroot(n, wall):
        raise LookupError("no positive coroot is orthogonal to the near-cluster")

    monkeypatch.setattr(fans, "nice_coroot", no_nice_coroot)
    code, out = run_cli(capsys, "verify", "--suite", "cluster")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["nice coroot A n=2"]["passed"]
    assert checks["nice coroot A n=2"]["witness"]
    assert not checks["cluster refine A n=2"]["passed"]
    # The B refinement folds S_4 and asks nice_coroot for each folded wall.
    assert not checks["cluster refine B n=2"]["passed"]


@pytest.mark.parametrize(
    "suite, family",
    [
        (suite, family)
        for suite in suites.SUITE_NAMES
        for family in ("A", "B", "I2", "H3")
        if family not in suites.SUITES[suite].families
    ],
)
def test_verify_refuses_an_uncovered_family(capsys, suite, family):
    code = main(["verify", "--suite", suite, "--family", family])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: suite {suite} does not cover family {family!r}\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "no-such-suite"])
    assert err.value.code == 2


def test_fan_a_closes_its_congruence_once(capsys, monkeypatch):
    """The fan check closes the signature's Cambrian congruence, the cone
    export reads the same classes off the eta fibers, and neither builds
    a quotient."""
    from cambrian import congruences

    calls = []
    for name in ("congruence_closure", "quotient_lattice"):
        fn = getattr(congruences, name)

        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(congruences, name, counted)
    code, out = run_cli(capsys, "fan", "--family", "A", "--rank", "3", "--signature", "udud")
    assert code == 0 and json.loads(out)["fan"]["cones"]
    assert calls == ["congruence_closure"]


def test_fan_a_summary(capsys):
    code, out = run_cli(
        capsys, "fan", "--family", "A", "--rank", "2", "--orientation", "1>2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["num_rays"] == 5
    assert data["summary"]["num_cones"] == 5
    assert data["summary"]["simplicial"] is True


def test_fan_a1_empty_orientation(capsys):
    code, out = run_cli(capsys, "fan", "--family", "A", "--rank", "1", "--orientation", "")
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == {"num_rays": 2, "num_cones": 2, "simplicial": True}


def test_fan_h3(capsys):
    code, out = run_cli(capsys, "fan", "--family", "H3", "--orientation", "1>2,2>3")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["num_cones"] == 32
    assert data["summary"]["simplicial"] is True


def test_fan_stasheff(capsys):
    code, out = run_cli(
        capsys,
        "fan", "--family", "A", "--rank", "3",
        "--signature", "uuuu", "--stasheff-check",
    )
    assert code == 0


def test_cap_exceeded_exit_code(capsys):
    code, _ = run_cli(
        capsys, "build", "--family", "A", "--rank", "3", "--cap", "5"
    )
    assert code == 3


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("CAMB_CAP", "5")
    code, _ = run_cli(capsys, "build", "--family", "A", "--rank", "3")
    assert code == 3
    # The flag takes precedence over the environment.
    monkeypatch.setenv("CAMB_CAP", "5")
    code, out = run_cli(
        capsys, "build", "--family", "A", "--rank", "3", "--cap", "100"
    )
    assert code == 0
    monkeypatch.setenv("CAMB_CAP", "not-a-number")
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "A", "--rank", "2"])
    assert err.value.code == 2
    assert "CAMB_CAP" in capsys.readouterr().err


@pytest.fixture
def enumerations(monkeypatch):
    """The systems each weak order enumeration runs on, from a fresh
    system table, so that no group is built before the test starts."""
    monkeypatch.setattr(coxeter, "_SYSTEMS", {})
    calls = []
    enumerate_ = coxeter.CoxeterSystem._enumerate

    def counted(system, *args):
        calls.append(system)
        return enumerate_(system, *args)

    monkeypatch.setattr(coxeter.CoxeterSystem, "_enumerate", counted)
    return calls


def test_default_cap_refuses_s9(capsys, monkeypatch, enumerations):
    """The default cap refuses S_9 before any group is enumerated:
    ``verify`` does not first build S_3..S_8, which are under it."""
    monkeypatch.delenv("CAMB_CAP", raising=False)
    for argv in (
        ["build", "--family", "A", "--rank", "8"],
        ["verify", "--suite", "catalan", "--family", "A", "--max-rank", "9"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: S_9 has 362880 elements, more than cap 50000\n"
    assert enumerations == []


@pytest.mark.parametrize(
    "suite, cap",
    [(name, 5) for name in suites.SUITE_NAMES]
    + [("catalan", 100), ("fan", 100), ("patterns", 100)],
)
def test_every_suite_refuses_an_over_cap_group_before_enumerating(
    monkeypatch, enumerations, suite, cap
):
    """A cap of 5 is below every suite's smallest group.  A cap of 100
    admits S_3, S_4, B_2 and B_3 but not S_5 or H3, which ``catalan``,
    ``fan`` and ``patterns`` reach after them; they refuse before they
    build or enumerate any group."""
    sweeps = []
    monkeypatch.setattr(suites, "_pattern_sweep", sweeps.append)
    with pytest.raises(CapExceeded, match=f"cap {cap}$"):
        suites.run_suite(suite, cap=cap)
    assert enumerations == [] and sweeps == []


def test_patterns_refusal_names_the_first_n_over_the_cap():
    """Every suite refuses with one message, naming the first group over
    the cap: S_n, B_n, I2(m) or H3."""
    for suite, family, cap, message in (
        ("patterns", None, 100, r"S_5 has 120 elements, more than cap 100"),
        ("catalan", "B", 47, r"B_3 has 48 elements, more than cap 47"),
        ("catalan", "I2", 9, r"I2\(5\) has 10 elements, more than cap 9"),
        ("catalan", "H3", 119, r"H3 has 120 elements, more than cap 119"),
    ):
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            suites.run_suite(suite, family=family, cap=cap)


def test_cap_flag_and_env_variable_override_the_default(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_CAP", 5)
    monkeypatch.delenv("CAMB_CAP", raising=False)
    assert run_cli(capsys, "build", "--family", "A", "--rank", "3")[0] == 3
    assert run_cli(capsys, "build", "--family", "A", "--rank", "3", "--cap", "24")[0] == 0
    monkeypatch.setenv("CAMB_CAP", "24")
    assert run_cli(capsys, "build", "--family", "A", "--rank", "3")[0] == 0


def test_build_empty_orientation_is_given(capsys):
    # A_1 has no diagram edges, so "" is its one orientation.
    code, out = run_cli(capsys, "build", "--family", "A", "--rank", "1", "--orientation", "")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "cambrian" and data["num_elements"] == 2
    # Elsewhere it leaves diagram edges undirected.
    code, _ = run_cli(capsys, "build", "--family", "A", "--rank", "3", "--orientation", "")
    assert code == 2


def test_bad_orientation_is_usage_error(capsys):
    code, _ = run_cli(
        capsys, "build", "--family", "A", "--rank", "3", "--orientation", "1>9"
    )
    assert code == 2


def test_fan_i2_is_usage_error(capsys):
    # I2's fan picks its group by --m, as build does: without it, a usage error.
    with pytest.raises(SystemExit) as err:
        main(["fan", "--family", "I2", "--orientation", "1>2,2>3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --m is required for family I2\n"


def test_fan_i2_runs_both_orientations_up_to_m_30(capsys):
    # The fan check reads I2(m)'s root supports, in closed form: m + 2
    # simplicial cones on both orientations, as the fan suite counts.
    for m in range(3, 31):
        for orientation in ("1>2", "2>1"):
            code, out = run_cli(
                capsys, "fan", "--family", "I2", "--m", str(m), "--orientation", orientation
            )
            fan = json.loads(out)
            assert code == 0, (m, orientation)
            assert fan["family"] == fan["report"]["family"] == "I2"
            assert fan["summary"] == {"num_cones": m + 2, "simplicial": True}
            assert fan["report"]["f_vector"] == [m + 2, m + 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "catalan", "--family", "I2", "--max-rank", "8"],
        ["fan", "--family", "H3", "--orientation", "1>2,2>3"],
    ],
)
def test_runs_without_sympy(argv):
    # The package has no runtime dependency: with sympy's import blocked,
    # I2 up to m = 8 and the H3 fan, over Q(sqrt 5), still run.
    script = (
        "import sys; sys.modules['sympy'] = None\n"
        "from cambrian.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr  # 0: every check passed
    assert json.loads(done.stdout)["family"] in ("I2", "H3")


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "--family", "A", "--rank", "3", "--signature", "uudu", "--cap", "5"],
        ["fan", "--family", "B", "--rank", "2", "--signature", "ud", "--cap", "5"],
        ["fan", "--family", "H3", "--orientation", "1>2,2>3", "--cap", "5"],
    ],
    ids=["A", "B", "H3"],
)
def test_fan_cap_exceeded_exit_code(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_verify_honours_cap(capsys, suite):
    # Every suite reads a group of more than 5 elements before its first
    # verdict, so none of them may finish under this cap.
    code, out = run_cli(capsys, "verify", "--suite", suite, "--cap", "5")
    assert code == 3
    assert out == ""


def test_verify_fan_h3_honours_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("CAMB_CAP", "5")
    code, out = run_cli(capsys, "verify", "--suite", "fan", "--family", "H3")
    assert code == 3
    assert out == ""


def test_fan_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("CAMB_CAP", "5")
    code, _ = run_cli(capsys, "fan", "--family", "H3", "--orientation", "1>2,2>3")
    assert code == 3
    code, _ = run_cli(
        capsys, "fan", "--family", "A", "--rank", "3", "--signature", "uudu"
    )
    assert code == 3
    # The flag takes precedence over the environment.
    code, _ = run_cli(
        capsys,
        "fan", "--family", "A", "--rank", "3", "--signature", "uudu",
        "--cap", "24",
    )
    assert code == 0


@pytest.mark.parametrize(
    "flag, argv",
    [
        # Flags a command does not take (fan takes --m for I2 alone).
        ("--rank", ["verify", "--suite", "mobius", "--rank", "9", "--m", "4", "--signature", "uu"]),
        ("--orientation", ["verify", "--suite", "catalan", "--orientation", "1>2"]),
        ("--signature", ["build", "--family", "A", "--rank", "3", "--signature", "uudu"]),
        ("--m", ["fan", "--family", "B", "--rank", "2", "--signature", "ud", "--m", "7"]),
        # --signature and --orientation name the same fan twice.
        (
            "--orientation",
            [
                "fan", "--family", "A", "--rank", "3", "--signature", "uudu",
                "--orientation", "1>2,2>3,3>2",
            ],
        ),
        # Flags the chosen family does not read.
        ("--orientation", ["fan", "--family", "B", "--rank", "2", "--orientation", "0>1"]),
        (
            "--stasheff-check",
            ["fan", "--family", "B", "--rank", "2", "--signature", "ud", "--stasheff-check"],
        ),
        ("--signature", ["fan", "--family", "H3", "--orientation", "1>2,2>3", "--signature", "uuu"]),
        ("--rank", ["fan", "--family", "H3", "--orientation", "1>2,2>3", "--rank", "3"]),
        ("--stasheff-check", ["fan", "--family", "H3", "--orientation", "1>2,2>3", "--stasheff-check"]),
        ("--m", ["build", "--family", "A", "--rank", "3", "--m", "5"]),
        ("--rank", ["build", "--family", "I2", "--m", "5", "--rank", "2"]),
        ("--rank", ["build", "--family", "H3", "--rank", "3"]),
        ("--m", ["fan", "--family", "H3", "--orientation", "1>2,2>3", "--m", "5"]),
        ("--rank", ["fan", "--family", "I2", "--m", "5", "--orientation", "1>2", "--rank", "2"]),
        ("--signature", ["fan", "--family", "I2", "--m", "5", "--signature", "ud"]),
        ("--stasheff-check", ["fan", "--family", "I2", "--m", "5", "--orientation", "1>2",
                              "--stasheff-check"]),
    ],
)
def test_unread_flag_is_usage_error(capsys, flag, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
