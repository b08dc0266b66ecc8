"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same CPU-bound round can take
from 1x to 2x its quiet-machine time, with CPU time equal to wall time:
the process is slowed, not descheduled, in phases lasting from seconds to
minutes.  No number of rounds inside one run averages that out.

So every benchmark child process runs a Sampler: a SIGALRM handler that
times a fixed pure-Python kernel once every EVERY_S seconds of wall time,
on the same core and inside whatever operation is running, so that long
operations are sampled as densely as short ones.  The handler's own time
is subtracted from every measured interval.  A round's timed operations
are scaled by REFERENCE_S over the mean kernel time sampled while they
ran, and its set-up by the same over the samples taken during set-up (or,
when set-up was too short to be sampled, those of the operations).

The kernel multiplies two sparse big-integer Laurent polynomials held in
dicts, the same kind of work as the program's series layer, but it does
not call the program.  It shares the process with the program, so the
garbage collector is held off while it runs: a collection would scan the
program's live objects and make the kernel's time depend on the size of
the program's heap.  Times are thus reported in seconds of a machine on
which the kernel takes REFERENCE_S.
"""

import gc
import signal
import time

# Median kernel time on the quiet 2-core development host (Python 3.11).
REFERENCE_S = 0.0235
EVERY_S = 0.5


def kernel():
    a = {(q, y): (q * 7919 + y * 104729) % 1000003 - 500001
         for q in range(0, 480, 24) for y in range(-40, 41, 4)}
    b = {(q, y): ((q + 5) * 1299709 + y * 15485863) % 1000000007 - 500000003
         for q in range(0, 480, 24) for y in range(-24, 25, 4)}
    out = {}
    for (qa, ya), ca in a.items():
        for (qb, yb), cb in b.items():
            q = qa + qb
            if q < 480:
                key = (q, ya + yb)
                new = out.get(key, 0) + ca * cb
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
    return out


class Sampler:
    """Kernel samples taken from a wall-clock interval timer."""

    def __init__(self):
        self.samples = []  # (monotonic time, kernel seconds)
        self.spent = 0.0  # seconds spent in the handler

    def _handler(self, signum, frame):
        # no collection inside the kernel: its time must not depend on
        # the size of the program's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        self.spent += time.monotonic() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        """Stop the timer and take a last sample, so that even a short
        phase ends with one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._handler(None, None)

    def kernels(self, start=0.0, end=float("inf")):
        """Kernel times sampled between two monotonic times."""
        return [k for t, k in self.samples if start <= t < end]

    def since(self, t0, spent0):
        """Seconds since monotonic time t0, less handler time since spent0."""
        return time.monotonic() - t0 - (self.spent - spent0)


class Clock:
    """Sums the durations of timed operations, handler time excluded."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.seconds = 0.0

    def timed(self, fn, *args, **kwargs):
        t0, spent0 = time.monotonic(), self.sampler.spent
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += self.sampler.since(t0, spent0)


def scale(kernels):
    """Factor from raw to calibrated seconds for a round whose kernel
    samples are given: REFERENCE_S over their mean."""
    return REFERENCE_S * len(kernels) / sum(kernels)
