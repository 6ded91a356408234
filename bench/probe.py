"""Machine-speed probe: calibrates wall times against host drift.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent over seconds to minutes; the drift slows the program and this
probe together. The probe is a fixed slice of work in two parts, about
2 ms each: interpreter-bound and small-array NumPy work, which follows
how fast the core runs, and a walk over Python objects scattered through
a table of about 50 MB, which follows how long memory takes to answer
when neighbours crowd the shared caches (the compile workloads feel
that, the first part alone does not). A timer runs the probe every
``INTERVAL_S`` seconds for the whole run, interrupting whatever runs at
the time, and its time is kept out of every interval timed
(:meth:`Probe.measured`). An operation, setup or span is then scaled by
``REF_MS / median probe ms`` of the samples taken during it or within
``REACH_S`` of it (:meth:`Probe.calibrated`), so calibrated times read
in ms of a machine on which the probe takes ``REF_MS``.

The probe is the benchmark's own code: no change to the program moves it.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

import numpy as np


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096


class Probe:
    """Samples machine speed on a timer while a ``with`` block runs."""

    #: nominal probe time; sets the unit of calibrated times
    REF_MS = 4.0
    INTERVAL_S = 0.1
    #: samples this close to an interval also calibrate it. The host's
    #: speed moves within a second, so a whole run's probe median
    #: calibrates an operation badly, and a wider reach does worse when
    #: the host is busiest. Samples are only ever taken on the timer:
    #: back to back, the walk finds the table still in cache and reads
    #: the machine as fast
    REACH_S = 0.5
    #: objects in the table, and how many of them one probe visits
    TABLE, WALK = 300_000, 20_000

    def __init__(self) -> None:
        self.array = np.ones((49, 32), dtype=np.float32)
        before = _resident_bytes()
        table = [(i, str(i)) for i in range(self.TABLE)]
        random.Random(0).shuffle(table)
        self.table = table
        self.walk = table[:self.WALK]
        #: memory the table holds, which is the probe's, not the program's
        self.resident_bytes = _resident_bytes() - before
        #: (start, end, probe ns) of every sample, in time order; the
        #: program is paused from start to end
        self.samples = []
        self._starts = []
        self._busy = False

    def once(self) -> int:
        a = self.array
        # a collection here would time the program's heap, not the host
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            acc = 0
            for i in range(20_000):
                acc += i * i % 7
            for _ in range(150):
                acc += float(np.add.accumulate(a, axis=0)[-1, 0])
                a.reshape(7, 7, 32)[:, 3, :].copy()
            for item in self.walk:
                acc += item[0]
            return time.perf_counter_ns() - t0
        finally:
            gc.enable()

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        ns = self.once()
        self.samples.append((t0, time.perf_counter_ns(), ns))
        self._busy = False

    def _tick(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # signal.signal runs a tick already delivered before it swaps
        # the handler back
        signal.signal(signal.SIGALRM, self._previous)
        self._starts = [t0 for t0, _, _ in self.samples]

    # -- after the ``with`` block: times of intervals inside it ------------

    def _between(self, start_ns: int, end_ns: int) -> list:
        lo = bisect.bisect_left(self._starts, start_ns)
        hi = bisect.bisect_right(self._starts, end_ns)
        return self.samples[lo:hi]

    def measured(self, start_ns: int, end_ns: int) -> int:
        """Length of an interval less the probing inside it, ns."""
        paused = sum(t1 - t0 for t0, t1, _ in self._between(start_ns, end_ns))
        return end_ns - start_ns - paused

    def calibrated(self, start_ns: int, end_ns: int) -> float:
        """Measured length scaled to the reference machine speed, ns."""
        reach = int(self.REACH_S * 1e9)
        near = self._between(start_ns - reach, end_ns + reach)
        factor = self.REF_MS / (statistics.median(ns for *_, ns in near) / 1e6)
        return self.measured(start_ns, end_ns) * factor

    def median_ms(self) -> float:
        return statistics.median(ns for *_, ns in self.samples) / 1e6
