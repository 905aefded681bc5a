"""Scaling measured times to a fixed machine speed.

On a shared host the speed of one core drifts by tens of percent over
seconds, as other work on the host competes for it. A fixed pure-Python
reference loop, timed between cases and outside every measured interval,
slows down with the host; dividing each measured interval by the median
reference time around it, and multiplying by REFERENCE_S, gives the time the
interval would have taken at the reference speed. The raw times are
reported alongside.

The loop never changes with the library, so a change to the library moves
the scaled times exactly as it moves the raw ones on a steady host.
"""
from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.007  # the loop's time on an idle 2-CPU x86 container, Python 3.11
PROBE_EVERY_S = 0.1
MAX_BURST = 20
WINDOW_S = 1.5  # probes within this distance of an interval describe its speed
MIN_PROBES = 5


def reference() -> int:
    """Tuple building, dict, set and sort traffic, like the library's."""
    seen: dict[tuple[int, ...], int] = {}
    acc = 0
    for i in range(4000):
        t = tuple((i * 7 + j * 13) % 17 for j in range(8))
        seen[t] = seen.get(t, 0) + 1
        acc += len(set(t))
        if i % 50 == 0:
            acc += len(sorted(seen))
    return acc


class Speedometer:
    """Reference probes stamped with their midpoint on the perf_counter clock."""

    def __init__(self):
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self.last = perf_counter()

    def probe(self, force: bool = False) -> None:
        """Time the reference loop once per PROBE_EVERY_S since the last
        probe, up to MAX_BURST times, so that a long interval gets as many
        probes after it as it would have had during it; once if forced."""
        due = int((perf_counter() - self.last) / PROBE_EVERY_S)
        for _ in range(1 if force else min(due, MAX_BURST)):
            start = perf_counter()
            reference()
            end = perf_counter()
            self.probe_at.append((start + end) / 2)
            self.probe_s.append(end - start)
            self.last = end

    def probes(self, count: int) -> None:
        for _ in range(count):
            self.probe(force=True)

    def overall(self) -> float:
        """REFERENCE_S over the median of every probe so far."""
        return REFERENCE_S / statistics.median(self.probe_s)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time of the probes within
        WINDOW_S of the interval [start, end], or of the MIN_PROBES nearest."""
        lo = bisect_left(self.probe_at, start - WINDOW_S)
        hi = bisect_right(self.probe_at, end + WINDOW_S)
        if hi - lo >= MIN_PROBES:
            window = self.probe_s[lo:hi]
        else:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.probe_at)), key=lambda i: abs(self.probe_at[i] - mid))
            window = [self.probe_s[i] for i in nearest[:MIN_PROBES]]
        return REFERENCE_S / statistics.median(window)

    def scale(self, intervals) -> list[float]:
        """Scaled durations of (start, end) intervals."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
