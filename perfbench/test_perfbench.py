"""Tests of the benchmark's tracing (coverage of the wrappers, loud failure
on a missing target, exact self times) and of its correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cambrian  # noqa: E402
from cambrian import congruences, lattices, suites  # noqa: E402

import child  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _package_namespaces():
    return [m for name, m in sys.modules.items() if name == "cambrian" or name.startswith("cambrian.")]


def test_every_reference_is_replaced_and_restored():
    before = tracing.originals()
    holders = {
        id(raw): [(m.__name__, k) for m in _package_namespaces() for k, v in vars(m).items() if v is raw]
        for raw in before
    }
    with tracing.install(tracing.Tracer()):
        for m in _package_namespaces():
            for key, value in vars(m).items():
                assert not any(value is raw for raw in before), f"{m.__name__}.{key} not wrapped"
        assert suites.eta is cambrian.polygon_a.eta is cambrian.eta
        assert congruences.congruence_closure is lattices.congruence_closure
        assert cambrian.congruence_closure is lattices.congruence_closure
        for raw in before:
            for module, key in holders[id(raw)]:
                assert getattr(sys.modules[module], key).__wrapped__ is raw
        assert vars(lattices.FiniteLattice)["_validate"].__wrapped__ is not None
        assert vars(lattices.FiniteLattice)["from_covers"].__func__.__wrapped__ is not None
    assert tracing.originals() == before


def test_traced_calls_record_spans_and_counts():
    tracer = tracing.Tracer()
    system = suites.get_system("A", 2)
    lattice = system.weak_order_lattice()
    orientation = congruences.all_orientations(system)[0]
    with tracing.install(tracer):
        cong = cambrian.cambrian_congruence(system, orientation)
        lattices.FiniteLattice.from_covers(lattice.elements, lattice.covers)
    calls, self_s, covered = tracing.self_times(tracer.spans())
    assert calls == {
        "congruences.cambrian_congruence": 1,
        "lattices.closure": 1,
        "lattices.from_covers": 1,
        "lattices.validate": 1,
    }
    assert tracer.counts["lattices.closure.classes"] == cong.num_classes == 5
    assert tracer.counts["lattices.validate.pairs_computed"] == 6 * 5 // 2
    assert all(v >= 0 for v in self_s.values()) and covered > 0


@pytest.mark.parametrize(
    "owner, attr",
    [(lattices.FiniteLattice, "_validate"), (cambrian.coxeter.CoxeterSystem, "_enumerate"),
     (lattices, "congruence_closure")],
)
def test_missing_target_fails_loudly(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    from_covers = vars(lattices.FiniteLattice)["from_covers"]
    with pytest.raises(tracing.MissingTarget, match=attr):
        with tracing.install(tracing.Tracer()):
            pass
    assert vars(lattices.FiniteLattice)["from_covers"] is from_covers


def test_self_time_of_nested_spans_is_exact():
    # root [0, 16] > a [1, 5] > a.1 [2, 3]; root > b [6, 14] > b.1 [7, 9], b.2 [10, 13]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 9.0, 10.0, 13.0, 14.0, 16.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")
    a = tracer.open("leaf")
    a1 = tracer.open("inner")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("mid")
    for _ in range(2):
        tracer.close(tracer.open("inner"))
    tracer.close(b)
    tracer.close(root)
    assert [p for *_, p in tracer.spans()] == [-1, 0, 1, 0, 3, 3]
    calls, self_s, covered = tracing.self_times(tracer.spans())
    assert calls == {"root": 1, "leaf": 1, "inner": 3, "mid": 1}
    assert self_s == {"root": 16.0 - 4.0 - 8.0, "leaf": 4.0 - 1.0, "inner": 1.0 + 2.0 + 3.0,
                      "mid": 8.0 - 5.0}
    assert covered == 16.0


def test_gate_fails_wrong_answers_digests_and_counts():
    request = workloads.catalan_suite("I2", 4)
    assert request.known == (5, 5, 6, 6)
    checks = [{"name": str(k), "passed": True, "count": c} for k, c in enumerate(request.known)]
    assert child.failed_checks(request, checks, True) == 0
    checks[1]["count"] = 4
    checks[2]["passed"] = False
    assert child.failed_checks(request, checks, True) == 2
    assert child.failed_checks(request, checks, False) == request.checks
    assert child.failed_checks(request, checks[:-1], True) == request.checks


def test_reference_time_leaves_out_probes_and_follows_host_speed():
    def probed(scale):
        probe = speed.SpeedProbe()
        probe.starts = [0.0, 5.0 * scale, 10.0 * scale]
        probe.ends = [1.0 * scale, 7.0 * scale, 12.0 * scale]
        return probe

    # program stretches 1-5, 7-10 and 12-14; the probes' median is 2
    assert probed(1).measure(0.5, 11.0) == (7.0, 7.0 * speed.NOMINAL_S / 2.0)
    wall, reference = probed(1).measure(0.0, 14.0)
    assert wall == 9.0 and reference == pytest.approx(9.0 * speed.NOMINAL_S / 2.0)
    # the same work on a host three times slower reads the same
    slow_wall, slow_reference = probed(3).measure(0.0, 42.0)
    assert slow_wall == pytest.approx(3 * wall)
    assert slow_reference == pytest.approx(reference)


def test_probe_ticks_during_program_work():
    probe = speed.SpeedProbe()
    t0 = time.monotonic()
    probe.start()
    while time.monotonic() - t0 < 6 * speed.INTERVAL_S:
        sum(range(1000))
    probe.stop()
    t1 = time.monotonic()
    wall, reference = probe.measure(t0, t1)
    assert len(probe.starts) >= 5
    assert 0 < wall < t1 - t0 and reference > 0


def test_wrapper_cost_is_timed_and_small():
    assert 0 < tracing.wrapper_cost() < 1e-4
