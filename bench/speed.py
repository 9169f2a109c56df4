"""How fast the machine runs Python right now.

On a shared virtual machine (2 vCPUs, Python 3.11) the same
interpreter-bound work takes up to half as long again from one minute to
the next, whatever the program does.  Over two sets of ten 40-second
runs of the h1 workload, the unscaled throughput spread by 0.26 and 0.29
of its median (distance between quartiles), and the unscaled median
latency by 0.23 and 0.33: wider than the 0.25 bound the benchmark may
fix.  So each command's latency is scaled to a reference machine speed.

The probe times a fixed piece of exact rational arithmetic, the rank of
the 10 x 10 Hilbert matrix by the benchmark's own elimination, which is
the kind of work the program spends its time on; it never calls the
program.  A SIGALRM handler takes a sample every INTERVAL_S seconds, so
the samples land inside the commands being timed, long ones included.

A sample is the CPU time of the probing thread, not its wall time.
While the program keeps every CPU busy, for instance with a pool of
worker processes, the probe waits for a CPU; that wait is the program's
own load, not the machine's speed, and CPU time leaves it out.  The
handler's wall time is removed from the command's latency.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

from exact import fraction_rank

REFERENCE_MS = 2.0
INTERVAL_S = 0.2
# Samples this close to a command also describe it; the machine's speed
# changes over seconds, so a short command borrows its neighbours' samples.
HALF_WINDOW_S = 0.5
PROBE_MATRIX = [[Fraction(1, i + j + 1) for j in range(10)]
                for i in range(10)]


def probe_ms() -> float:
    """CPU time of the fixed reference computation, in milliseconds.

    The cyclic garbage collector is held off meanwhile: a collection the
    probe's allocations would trigger scans the program's heap, and its
    cost belongs to the program, not to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        fraction_rank(PROBE_MATRIX)
        return 1000 * (time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples probe_ms() on a wall-clock timer while it is entered."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_ms())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def factor(self, t0: float, t1: float) -> float:
        """Reference over observed speed around the interval [t0, t1].

        Uses the mean of the samples taken from HALF_WINDOW_S before t0
        to HALF_WINDOW_S after t1, or the next sample if there is none.
        """
        lo = bisect.bisect_left(self.times, t0 - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + HALF_WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            near = [self.samples[i]]
        return REFERENCE_MS / (sum(near) / len(near))
