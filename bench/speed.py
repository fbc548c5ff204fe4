"""Machine speed, measured by a fixed reference loop, for scaling times.

The shared host this benchmark was built on runs the same Python code at
speeds that differ by a third within seconds and between minutes, which
is more than any regression bound can absorb.  So every timed interval
is scaled by the machine's speed during it.  A ``SpeedMeter`` times a
fixed pure-Python loop (permutation composition and set insertion, like
the package's hot paths, and independent of the package) every
``INTERVAL_S`` seconds, from a timer signal, so that samples fall inside
long calls too.  The meter's clock stops while a sample runs, so the
samples take no part in any measured time.  A stretch that took ``t``
seconds between two samples whose loops took ``r1`` and ``r2`` seconds
counts as ``t * REFERENCE_S / ((r1 + r2) / 2)``: the seconds it would
take on a machine where the loop takes ``REFERENCE_S``.  A change to the
package moves the scaled time as it moves the raw time; a change in
machine speed moves the calls and the loop alike, and cancels.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

_clock = time.perf_counter

#: The reference loop's typical time on the machine of ``baseline.json``;
#: it only sets the unit, so that scaled times read close to raw ones there.
REFERENCE_S = 0.021
#: Time between samples: short against the second-scale speed changes,
#: long against the loop, so that samples cost about a tenth of a run.
INTERVAL_S = 0.25


def reference_loop() -> int:
    """Enumerate the symmetric group S_6, acting on the first 6 of 24
    points, from a transposition and a 6-cycle by breadth-first
    composition, seven times.  Tuples of the package's typical degree
    track its speed better than tuples of length 6; a small group keeps
    the loop's memory (about 0.2 MB) from moving the worker's peak RSS."""
    n, degree, rounds = 6, 24, 7
    a = (1, 0) + tuple(range(2, degree))
    b = tuple(range(1, n)) + (0,) + tuple(range(n, degree))
    total = 0
    for _ in range(rounds):
        seen = {tuple(range(degree))}
        frontier = list(seen)
        while frontier:
            grown = []
            for x in frontier:
                for g in (a, b):
                    y = tuple(g[i] for i in x)
                    if y not in seen:
                        seen.add(y)
                        grown.append(y)
            frontier = grown
        total += len(seen)
    return total


class SpeedMeter:
    """Reference-loop samples on a timer, and a clock that excludes them.

    Use as a context manager: entering takes the first sample and starts
    the timer, leaving stops it and takes the last sample.  ``scaled``
    is valid for intervals of ``clock()`` readings taken in between.
    """

    def __init__(self):
        self.positions: list[float] = []  # clock() reading at each sample
        self.durations: list[float] = []  # reference-loop time of each sample
        self._paused = 0.0                # time spent in samples so far
        self._previous = None
        reference_loop()  # warm up the loop before the first timed sample

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in samples."""
        while True:
            paused = self._paused
            now = _clock()
            if paused == self._paused:  # no sample ran in between
                return now - paused

    def sample(self, *_signal) -> None:
        pause_start = _clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = _clock()
            reference_loop()
            end = _clock()
        finally:
            if enabled:
                gc.enable()
        self.positions.append(pause_start - self._paused)
        self.durations.append(end - start)
        self._paused += _clock() - pause_start

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed for the ``clock()`` interval
        [start, end]: each stretch between two samples is scaled by the
        mean of those two samples."""
        total = 0.0
        k = bisect.bisect_right(self.positions, start) - 1
        while start < end:
            stop = min(end, self.positions[k + 1])
            total += (stop - start) * REFERENCE_S * 2 / (self.durations[k] + self.durations[k + 1])
            start, k = stop, k + 1
        return total
