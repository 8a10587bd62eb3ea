"""Host-speed probe: times in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts: on a
2-vCPU VM the same pure-Python loop ran up to twice as long from one minute
to the next, and up to half again as long for a second or two at a time.
CPU time drifts with wall time, so neither can compare two commits measured
at different moments.

``SpeedProbe`` interrupts the measured process every ``INTERVAL_S`` seconds
of wall time (``setitimer``) and times a fixed loop of plain bytecode, dict and
tuple work in the signal handler.  ``measure`` then converts a stretch of
wall time into reference seconds: each stretch between two probes, with the
probes themselves left out, is scaled by ``NOMINAL_S`` over the median
duration of the nearest probes.  A stretch measures the same in reference
seconds whether the host ran fast or slow, and a commit that does less work
reads lower in proportion.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_right

NOMINAL_S = 0.001  # a probe's duration on the reference host, by definition
INTERVAL_S = 0.05  # wall time from one probe to the next
WINDOW = 5  # probes whose median gives the speed around a stretch


def probe_work(rounds: int = 60) -> int:
    """A fixed mix of bytecode, dict, tuple and sorting work, like the
    package's own.  The caller keeps the garbage collector off meanwhile."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for r in range(rounds):
        for i in range(40):
            k = (i * 7919 + r) & 255
            table[k] = table.get(k, 0) + i
            items.append((k, i))
            total += k * i % 7
        items.sort()
        items.clear()
    return total


class SpeedProbe:
    """Probes the host's speed from inside the measured process, on its own
    thread of execution, between two bytecodes of the program."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        # With the collector off, a collection that the program's own
        # allocations have made due runs in program time, not in a probe.
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        probe_work()
        self.starts.append(start)
        self.ends.append(time.monotonic())
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Program time between t0 and t1, probes left out: (wall seconds,
        reference seconds).  Call after ``stop``."""
        starts, ends = self.starts, self.ends
        durations = [e - s for s, e in zip(starts, ends)]
        wall = reference = 0.0
        # stretch j runs from the end of probe j-1 (or t0) to the start of probe j
        j = bisect_right(ends, t0)
        lo = t0
        while lo < t1:
            hi = min(t1, starts[j]) if j < len(starts) else t1
            if hi > lo:
                k = min(j, len(durations) - 1)
                near = durations[max(0, k - WINDOW // 2): k + WINDOW // 2 + 1]
                wall += hi - lo
                reference += (hi - lo) * NOMINAL_S / statistics.median(near)
            if j >= len(starts):
                break
            lo = max(lo, ends[j])
            j += 1
        return wall, reference
