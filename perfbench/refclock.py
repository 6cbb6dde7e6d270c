"""Time measured at a fixed reference speed.

The machines this benchmark runs on share cores with other tenants, and
the speed of one core swings by up to 2x within a second.  ``probe()``
times a fixed pure-Python kernel -- ``Fraction`` arithmetic with results
kept in a dict, the kind of work the library does -- and returns how much
slower than its constant nominal time it ran just now.  The kernel does not
call the library, so a faster library cannot make the reference clock
faster.  Of the kernels tried (plain integer arithmetic, 600-bit integers,
method calls), this one tracked the library's own slowdowns best.

A ``Timeline`` probes every ``INTERVAL_S`` from a SIGALRM handler, so also
in the middle of a long library call, and whenever the runner marks the end
of a verdict, so that short verdicts have probes close on both sides.  The
time the probes take is not work time.  Each stretch of work between two
probes is divided by the geometric mean of the four probes around it,
which gives its length at the reference speed.  The nominal time fixes
only the unit: a slowdown of 1 means the kernel ran as fast as on an idle
core of the baseline machine.
"""

import bisect
import contextlib
import gc
import math
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05


def _fractions():
    acc = Fraction(1)
    table = {}
    for i in range(1, 60):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + i
        table[(i % 11, i % 5)] = acc
        if acc.numerator > 10 ** 18:
            acc = Fraction(1)
    return len(table)


# seconds one _fractions() call takes on an idle core of the baseline machine
NOMINAL_S = 2.0e-4


def probe():
    """Current slowdown against the nominal speed, best of three runs.

    The collector is off meanwhile, so that it cannot charge the library's
    garbage to the probe; the kernel frees everything it allocates, so it
    leaves the collector's allocation count where it was.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = perf_counter()
            _fractions()
            dt = perf_counter() - t0
            if best is None or dt < best:
                best = dt
    finally:
        if was_enabled:
            gc.enable()
    return best / NOMINAL_S


class Timeline:
    """Probes taken during a stretch of work, and durations scaled by them."""

    def __init__(self):
        self.probes = []  # (start, end, slowdown), in time order
        self._busy = False

    def _probe(self, *_signal_args):
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            slow = probe()
            self.probes.append((t0, perf_counter(), slow))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Probe now, every INTERVAL_S while inside, and on the way out."""
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            self.probes.sort()
            self._ends = [end for _, end, _ in self.probes]

    def mark(self):
        """Probe now, with the timer's signal held back meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._probe()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _slowdown(self, j):
        window = self.probes[max(0, j - 1):j + 3]
        return math.exp(sum(math.log(s) for _, _, s in window) / len(window))

    def work(self, a, b, scaled=True):
        """Work time inside [a, b]: probes excluded, optionally at the
        reference speed.  Only valid once ``ticking`` has exited."""
        j = max(0, bisect.bisect_right(self._ends, a) - 1)
        total = 0.0
        while j < len(self.probes):
            lo = max(a, self.probes[j][1])
            hi = min(b, self.probes[j + 1][0]) if j + 1 < len(self.probes) \
                else b
            if hi > lo:
                total += (hi - lo) / (self._slowdown(j) if scaled else 1.0)
            j += 1
            if j >= len(self.probes) or self.probes[j][0] >= b:
                break
        return total
