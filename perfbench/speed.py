"""Machine-speed probe: scales measured time to a fixed reference speed.

On a shared host the speed at which this process runs Python changes by
+-30% from one tens of milliseconds to the next and drifts over minutes, as
other tenants load the cores and caches.  Two runs of the same code minutes
apart then differ by more than any change worth measuring.

While a ``SpeedProbe`` is active, a timer interrupts the process after every
``INTERVAL_S`` of its user CPU time and runs a fixed pure-Python loop that
takes about a tenth of a millisecond.  Each run of the loop samples how fast
the machine runs Python at that moment, as ``REFERENCE_S`` over the loop's
wall time.  A span of work is scaled by the mean of the samples taken during
it (or, for a span too short to hold ``WINDOW`` samples, of the ``WINDOW``
samples around it): that is the time the same work would take on a machine
where the loop takes exactly ``REFERENCE_S``.  The time the probes take is
subtracted from the spans they fall into.

``REFERENCE_S`` is about the loop's median time on a shared 2-vCPU Xeon VM,
so scaled times stay close to the wall times seen there.  The probe is part
of the benchmark, not of forcekit: no change to the program can move it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01       # user CPU time between two probes
PROBE_LOOPS = 400       # iterations of the probe loop
REFERENCE_S = 140e-6    # loop time that defines the reference speed
WINDOW = 20             # least number of samples a span is scaled by


def _loop(n: int) -> int:
    # Integer arithmetic, bit operations and a small dict, as in forcekit's
    # bitmask code.
    acc, seen = 0, {}
    for i in range(n):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> (i & 7)
        seen[x & 63] = acc.bit_count()
    return acc + len(seen)


class SpeedProbe:
    """Context manager that samples machine speed during the work it wraps.

    ``mark()`` is the number of samples so far; the work between two marks
    ``a <= b`` spent ``probe_s(a, b)`` seconds in probes and is scaled by
    ``factor(a, b)``.
    """

    def __init__(self):
        self.samples: list[float] = []        # REFERENCE_S / loop time
        self.cumulative: list[float] = [0.0]  # probe time before sample i

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _loop(PROBE_LOOPS)
        dt = time.perf_counter() - t0
        self.samples.append(REFERENCE_S / dt)
        self.cumulative.append(self.cumulative[-1] + dt)

    def __enter__(self):
        _loop(PROBE_LOOPS)                    # warm the loop's code up
        self._previous = signal.signal(signal.SIGVTALRM, self._handler)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def probe_s(self, a: int, b: int) -> float:
        return self.cumulative[b] - self.cumulative[a]

    def factor(self, a: int, b: int) -> float:
        """Mean sample over [a, b), widened around its middle to WINDOW
        samples when it holds fewer; 1 when no sample was taken at all."""
        n = len(self.samples)
        if b - a < WINDOW:
            a = max(0, min((a + b - WINDOW) // 2, n - WINDOW))
            b = min(n, a + WINDOW)
        if b <= a:
            return 1.0
        return sum(self.samples[a:b]) / (b - a)
