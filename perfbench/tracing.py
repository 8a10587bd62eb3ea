"""Spans around the public entry points of each cambrian module.

The wrappers live here, in the benchmark, and are installed into a running
interpreter; no file of the package changes.  Each wrapped call records a
span (name, start, end, parent) in memory, and some also count the work
they were given (elements, covers, classes, triangulations).  Self time
is a span's duration minus the time covered by its direct child spans.

A function is replaced in every ``cambrian`` module namespace that holds a
reference to it (``suites.eta`` as well as ``polygon_a.eta``), and methods
are replaced on their class.  A target that no longer exists raises
``MissingTarget``, so a renamed function cannot silently drop its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module


class MissingTarget(LookupError):
    """A traced function is not where the target table says it is."""


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]


def self_times(spans) -> tuple[dict[str, int], dict[str, float], float]:
    """Calls and self time per span name, and the time covered by root spans.

    ``spans`` is a sequence of (name, start, end, parent index), parent -1
    for a root.  Spans of one thread nest, so the children of a span cover
    disjoint parts of it and their durations can be summed.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        calls[name] += 1
        self_s[name] += (end - start) - inner
        if parent < 0:
            covered += end - start
    return dict(calls), dict(self_s), covered


# -- what each target counts ------------------------------------------------


def _enumerated(tracer, args, result):
    tracer.counts["coxeter.enumerate.elements"] += len(result[0])


def _built(tracer, args, result):
    tracer.counts["lattices.from_covers.elements"] += result.n
    tracer.counts["lattices.from_covers.covers"] += len(result.covers)


def _validated(tracer, args, result):
    n = args[0].n
    tracer.counts["lattices.validate.pairs_computed"] += n * (n - 1) // 2


def _closed(tracer, args, result):
    tracer.counts["lattices.closure.elements"] += args[0].n
    tracer.counts["lattices.closure.classes"] += result.num_classes


def _triangulated(tracer, args, result):
    tracer.counts["polygon_a.all_triangulations.triangulations"] += len(result)
    if tracer.current() == "polygon_b.symmetric_triangulations":
        tracer.counts["polygon_b.triangulations_generated"] += len(result)


def _kept_symmetric(tracer, args, result):
    tracer.counts["polygon_b.symmetric_kept"] += len(result)


def _suite_report(tracer, args, result):
    tracer.counts["suites.checks"] += len(result["checks"])


# (span name, module, attribute path, work counter or None).  Several
# targets may share a span name; the layer is the part before the first dot.
TARGETS = (
    ("coxeter.enumerate", "cambrian.coxeter", "CoxeterSystem._enumerate", _enumerated),
    ("fields.minpoly", "cambrian.fields", "minimal_polynomial_2cos", None),
    ("fields.mul", "cambrian.fields", "NumberField.mul", None),
    ("fields.solve", "cambrian.fields", "solve_linear", None),
    ("lattices.from_covers", "cambrian.lattices", "FiniteLattice.from_covers", _built),
    ("lattices.validate", "cambrian.lattices", "FiniteLattice._validate", _validated),
    ("lattices.closure", "cambrian.lattices", "congruence_closure", _closed),
    ("lattices.quotient", "cambrian.lattices", "quotient_lattice", None),
    ("lattices.forcing", "cambrian.lattices", "forcing_arrows", None),
    ("lattices.iso", "cambrian.lattices", "poset_isomorphism", None),
    ("lattices.iso", "cambrian.lattices", "poset_anti_isomorphism", None),
    ("congruences.cambrian_congruence", "cambrian.congruences", "cambrian_congruence", None),
    ("congruences.recover_orientation", "cambrian.congruences", "recover_orientation", None),
    ("congruences.descent_quotient_check", "cambrian.congruences", "descent_quotient_check", None),
    ("polygon_a.eta", "cambrian.polygon_a", "eta", None),
    ("polygon_a.lambda_paths", "cambrian.polygon_a", "lambda_paths", None),
    ("polygon_a.pi_down", "cambrian.polygon_a", "pi_down", None),
    ("polygon_a.pi_up", "cambrian.polygon_a", "pi_up", None),
    ("polygon_a.descent_set", "cambrian.polygon_a", "descent_set_of_triangulation", None),
    ("polygon_a.all_triangulations", "cambrian.polygon_a", "all_triangulations", _triangulated),
    ("polygon_a.flip_lattice", "cambrian.polygon_a", "triangulation_lattice", None),
    ("polygon_b.eta_b", "cambrian.polygon_b", "eta_b", None),
    ("polygon_b.symmetric_triangulations", "cambrian.polygon_b", "symmetric_triangulations", _kept_symmetric),
    ("polygon_b.flip_lattice", "cambrian.polygon_b", "symmetric_triangulation_lattice", None),
    ("fans.check_fan_h3", "cambrian.fans", "check_fan_h3", None),
    ("fans.check_fan_a", "cambrian.fans", "check_fan_a", None),
    ("fans.check_fan_b", "cambrian.fans", "check_fan_b", None),
    ("fans.det3", "cambrian.fans", "_det3", None),
    ("fans.rank", "cambrian.fans", "_rank", None),
    ("fans.cluster", "cambrian.fans", "clusters", None),
    ("fans.cluster", "cambrian.fans", "cluster_poset", None),
    ("fans.cluster", "cambrian.fans", "b_cluster_poset", None),
    ("suites.run", "cambrian.suites", "run_suite", _suite_report),
    ("suites.run", "cambrian.suites", "suite_fibers", _suite_report),
)


SPAN_NAMES = frozenset(name for name, *_ in TARGETS)

# Work counts the counters above and the child record.
COUNTS = (
    "coxeter.enumerate.elements",
    "lattices.from_covers.elements",
    "lattices.from_covers.covers",
    "lattices.validate.pairs_computed",
    "lattices.closure.elements",
    "lattices.closure.classes",
    "polygon_a.all_triangulations.triangulations",
    "polygon_b.triangulations_generated",
    "polygon_b.symmetric_kept",
    "suites.checks",
    "suites.report_bytes",
)

# Metric names that do not spell out their span.
ALIASES = {"suites.self_s": "suites.run.self_s"}


def _wrap(tracer: Tracer, name: str, fn, work):
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(i)
        if work is not None:
            work(tracer, args, result)
        return result

    return traced


def wrapper_cost() -> float:
    """Seconds one traced call adds to the call it wraps, timed on a no-op."""

    def noop():
        pass

    calls = 20000
    traced = _wrap(Tracer(), "noop", noop, None)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) of a target, raising MissingTarget."""
    try:
        owner = import_module(module)
    except ImportError as exc:
        raise MissingTarget(f"{module}: {exc}") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module}.{path}: no {part}")
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not (callable(raw) or isinstance(raw, classmethod)):
        raise MissingTarget(f"{module}.{path} is missing or not callable")
    return owner, attr, raw


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "cambrian" or name.startswith("cambrian."))
    ]


@contextmanager
def install(tracer: Tracer, targets=TARGETS):
    """Replace every target by its traced wrapper; undo on exit."""
    undo = []
    try:
        for name, module, path, work in targets:
            owner, attr, raw = _resolve(module, path)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__, work))
                else:
                    new = _wrap(tracer, name, raw, work)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = _wrap(tracer, name, raw, work)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        undo.append((mod, key, raw))
                        setattr(mod, key, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def originals(targets=TARGETS) -> list:
    """The raw objects the targets name, as found now."""
    return [_resolve(module, path)[2] for _, module, path, _ in targets]
