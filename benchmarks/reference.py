"""Machine-speed reference for wall times measured on a shared host.

The benchmark runs on a few cores of a shared machine whose speed changes
with other tenants' load: interpreter-bound code takes up to twice as long
for stretches of ten to twenty seconds, and CPU time grows with wall time,
so process CPU time does not remove it.  A fixed pure-Python loop, timed
right before and right after every measured operation, slows down with
it.  Reported times are scaled to the speed at which that loop takes
`NOMINAL_S`:

    normalized = measured × NOMINAL_S / reference

An operation of several seconds can span a change of speed, so `Sampler`
also times one repeat of the loop every `SAMPLE_INTERVAL_S` while an
operation runs, and `reference` is the mean of all readings around and
during it.

The loop is part of the benchmark, not of the program, so a change to the
program cannot make it faster or slower; the garbage collector is paused
while it runs so that the size of the program's heap does not reach it
either.  The loop only tracks the speed of the CPU it runs on, so the
benchmark keeps itself and the interpreters it starts on one CPU
(`pin_to_one_cpu`).
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import statistics
import time

NOMINAL_S = 0.0055  # the loop's wall time on an unloaded 2-vCPU Xeon host
SAMPLE_INTERVAL_S = 0.25
_REPEATS = 6


def _loop() -> int:
    # Tuple keys into a dict, as the program's polynomial algebra does.
    table: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89, i % 13)
        table[key] = table.get(key, 0) + i
    return len(table)


def _timed(repeats: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(repeats):
            _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_seconds() -> float:
    """Wall time of the fixed reference loop, garbage collector paused."""
    return _timed(_REPEATS)


class Sampler:
    """Reference readings taken from a SIGALRM handler while `active()`.

    Each reading times one repeat of the loop and is scaled to the units of
    `reference_seconds()`.  `spent` is the wall time the handler took, which
    the caller subtracts from the operation it timed.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(_timed(1) * _REPEATS)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def active(self):
        self.readings, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scale(readings) -> float:
    """Factor that maps a time measured amid these reference readings to
    the nominal speed."""
    return NOMINAL_S / statistics.fmean(readings)
