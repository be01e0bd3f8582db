"""Machine-speed normalisation for timings taken on a shared machine.

On a small shared VM the same pure-Python work can take twice as long from
one minute to the next, because other tenants contend for the cores.  A
Speedometer samples that speed: while it runs, a SIGALRM handler times a
fixed piece of Fraction arithmetic every PROBE_EVERY_S.  A call's
normalised time is its wall time, less the probes that interrupted it,
scaled by the mean of REFERENCE_PROBE_S / probe time over the probes taken
within WINDOW_S of the call: its wall time on a machine that runs the probe
in REFERENCE_PROBE_S.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.01
WINDOW_S = 0.1
WARM_UP_PROBES = 50
# the probe's time on an uncontended core of the 2-core VM the benchmark was
# defined on (Python 3.11); normalised times are wall times at that speed
REFERENCE_PROBE_S = 125e-6


_PROBE_TERMS = [Fraction(3 * k + 1, 7 * k + 2) for k in range(40)]


def _probe_work():
    """acc <- acc·x + x over 40 fixed rationals: Fraction arithmetic, the
    kind of work mcvlie does, in bench-owned code that no change to mcvlie
    can speed up."""
    acc = Fraction(0)
    for x in _PROBE_TERMS:
        acc = acc * x + x
    return acc


class Speedometer:
    """Speed samples of one process; start() arms the timer, stop() disarms."""

    def __init__(self):
        self.starts = []  # probe start times, increasing
        self.durations = []
        for _ in range(WARM_UP_PROBES):  # first calls in a fresh process run slow
            _probe_work()

    def _probe(self):
        t0 = perf_counter()
        _probe_work()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def _tick(self, signum, frame):
        self._probe()

    def spin(self):
        """Probe back to back for WINDOW_S, for samples just before or after
        a call (probes that interrupt a sleep read slower than a busy core)."""
        end = perf_counter() + WINDOW_S
        while perf_counter() < end:
            self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        """Mean of REFERENCE_PROBE_S / probe time over the probes taken within
        WINDOW_S of the interval [t0, t1]."""
        near = self.durations[bisect_left(self.starts, t0 - WINDOW_S):
                              bisect_right(self.starts, t1 + WINDOW_S)]
        if not near:
            raise RuntimeError("no speed probe near the interval")
        return sum(REFERENCE_PROBE_S / d for d in near) / len(near)

    def normalise(self, t0, t1):
        """(net seconds, normalised seconds) of a call that ran from t0 to t1
        under the armed timer."""
        net = t1 - t0 - sum(self.durations[bisect_left(self.starts, t0):bisect_left(self.starts, t1)])
        return net, net * self.factor(t0, t1)
