"""Host-speed sampling, so that end-to-end times survive a shared machine.

On a shared 2-core VM the same code runs up to 1.9 times slower for seconds
to minutes at a time, depending on what else the host is running.  While an
untraced run measures, `HostSampler` times a small fixed kernel every
`INTERVAL_S` of wall time from a SIGALRM handler, in the same thread as the
ops, so the samples fall inside the ops themselves.  An op's normalised time
is its wall time minus the time the handler took, divided by the op's
slowdown: the median kernel time sampled during the op over `NOMINAL_S`.

The kernel uses only numpy, never the package, so a change to shrinkerlab
cannot move it.  It is 3x3 linear algebra called one matrix at a time, so it
measures numpy's per-call overhead, which dominates the package's ops.  In
repeated runs of identical ops it tracked their slowdowns better than a
129x129 stencil, a plain Python loop or a 4 MB memory stream did.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0025  # kernel time that defines one normalised second
INTERVAL_S = 0.1


def _kernel(mats):
    acc = 0.0
    for m in mats:
        q, r = np.linalg.qr(m)
        acc += float(np.linalg.det(r)) + float(np.linalg.solve(m, q[0])[0])
    return acc


class HostSampler:
    """Context manager that samples the kernel time on a wall-clock timer.

    `samples` holds (start, seconds) pairs on `clock`'s time line.
    """

    def __init__(self, interval=INTERVAL_S, clock=time.perf_counter):
        rng = np.random.default_rng(20120305)
        self._mats = rng.standard_normal((64, 3, 3)) + 3.0 * np.eye(3)
        self.interval = interval
        self.clock = clock
        self.samples = []
        self._previous = None

    def sample(self):
        t0 = self.clock()
        _kernel(self._mats)
        self.samples.append((t0, self.clock() - t0))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        _kernel(self._mats)  # warm-up, not recorded
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a window shorter than one interval
            self.sample()
        return False

    def within(self, start, end):
        return [s for t, s in self.samples if start <= t < end]

    def slowdown(self, start=-float("inf"), end=float("inf")):
        """Median kernel time in [start, end) over NOMINAL_S; over the whole
        run when the window holds no sample."""
        found = self.within(start, end) or [s for _, s in self.samples]
        return statistics.median(found) / NOMINAL_S

    def normalised(self, start, end):
        """Seconds in [start, end), minus sampling, at nominal host speed."""
        own = end - start - sum(self.within(start, end))
        return own / self.slowdown(start, end)
