"""Machine-speed sampling, so that times from a noisy shared machine compare.

On a shared 2-vCPU host the same op can take 0.2 s in one minute and
0.37 s in the next, because the speed the host gives this process drifts
over seconds to minutes.  A `SpeedSampler` runs a fixed pure-Python loop
from a SIGALRM handler every `INTERVAL` seconds of wall time while it is
active, in the benchmark's own thread, so the loop sees the machine as the
op sees it.  A time measured while sampling is rescaled by
`NOMINAL_LOOP_S / median(loop time)`: the seconds it would have taken at
the nominal speed.  On a machine running at the nominal speed the rescaled
time equals the wall time.  On identical work, rescaling cut the spread of
5-second medians from 29% to 8% of the median on that host.

The loop's own time is counted in `spent`; `clock()` is a perf_counter
that stops while the loop runs, so intervals timed with it leave the loop
out.  No thread or process is started.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

INTERVAL = 0.025
# median duration of `_loop` on the host the benchmark was defined on
# (Intel Xeon at 2.0 GHz, 2 vCPUs, CPython 3.11), at its usual speed
NOMINAL_LOOP_S = 1.5e-4


def _loop() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


class SpeedSampler:
    """Samples the loop's duration while active; install() once per process."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        """Seconds of wall time, not counting the time spent sampling."""
        return perf_counter() - self.spent

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run fn() while sampling; returns (result, seconds by clock(), samples)."""
        first = len(self.samples)
        self.active = True
        t0 = self.clock()
        try:
            result = fn()
        finally:
            elapsed = self.clock() - t0
            self.active = False
        return result, elapsed, self.samples[first:]


def scale(samples: list[float]) -> float:
    """Factor taking times measured during `samples` to the nominal speed."""
    return NOMINAL_LOOP_S / median(samples) if samples else 1.0
