"""Samples the speed of the host while the code being measured runs.

On a shared virtual machine each vCPU flips between a fast and a slow state
(pure-Python code runs about 1.6x slower in the slow one) every tenth of a
second to every few seconds, and the share of time spent slow changes from
minute to minute.  A measured time therefore depends on that share as much as
on the code.  While a ``HostProbe`` is entered, a ``SIGALRM`` timer interrupts
the main thread every ``EVERY_S`` seconds and times ``work()``, a fixed piece
of benchmark code that does not change with chipalg.  The mean of these
samples tracks the share of slow time over the same stretch as the measured
code, and ``slowdown()`` of the samples is their mean over ``REFERENCE_S``:
the factor by which this host ran slower than the reference host.  Dividing
a measured time by it gives the time on the reference host, in reference
seconds.  ``HostProbe.scale`` does so with the samples taken while the time
was measured, less the time those samples took.

The module imports only built-in modules, so that it can be loaded before
the code it measures without loading anything for it.
"""

import gc
import signal
import time

EVERY_S = 0.02
REFERENCE_S = 0.0002


def slowdown(times: list) -> float:
    if not times:
        raise RuntimeError("the host probe took no samples")
    return sum(times) / len(times) / REFERENCE_S


def work() -> int:
    """Fixed pure-Python work on tuples, dicts and small integers."""
    seen = {}
    for a in range(24):
        for b in range(24):
            key = (a * b % 17, a + b)
            seen[key] = seen.get(key, 0) + a - b
    return len(seen)


class HostProbe:
    """Host speed samples taken while the probe is entered, one of them on
    entry; not reentrant."""

    def __init__(self):
        self.times = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        # With the collector off, garbage left by the interrupted code is not
        # collected inside the sample.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.times.append(elapsed)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mark(self) -> tuple:
        """The current point in the samples, to pass to ``scale``."""
        return len(self.times), self.spent

    def scale(self, seconds: float, mark: tuple) -> tuple:
        """``seconds`` measured since ``mark``, less the samples taken since,
        as (wall seconds, reference seconds).  The slowdown is that of the
        samples taken since ``mark`` and of the last one before it."""
        count, spent = mark
        seconds -= self.spent - spent
        return seconds, seconds / slowdown(self.times[max(count - 1, 0):])
