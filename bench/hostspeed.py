"""The speed of the shared host, sampled between requests.

The benchmark runs on a host it shares. There a fixed pure-Python loop
takes anywhere between 1.0 and 1.5 times its fastest time, in phases that
last from seconds to minutes (measured on a 2-vCPU VM), and the same swing
moves every request's wall time: more than a regression bound between two
runs of the same code. So besides its wall time, every timed request is
expressed at a fixed nominal speed,

    t_nominal = t * NOMINAL_S / r,

where r is the mean time of the reference loop sampled just before and just
after the request. The loop is benchmark code, identical on every commit
compared, so a change to the library moves t and not r.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

REFERENCE_LOOPS = 30_000
REFERENCE_REPS = 3       # a sample is the median of this many loop times
NOMINAL_S = 0.002        # the reference loop's time at nominal speed
EVERY_S = 0.2            # sample at most this often between short requests


def reference_seconds() -> float:
    """Time of a fixed integer loop: small-int arithmetic, like the library's.

    Of the loops tried (this one, a list-based long division, an allocation
    loop, a tuple-building loop), this one tracked norm_profile best.
    """
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    def __init__(self, samples=()):
        self.samples = list(samples)
        self._last = -math.inf

    def sample(self, every: float = 0.0) -> int:
        """Take a sample unless one is younger than ``every`` seconds;
        returns the index of the latest sample."""
        if perf_counter() - self._last >= every:
            self.samples.append(reference_seconds())
            self._last = perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """NOMINAL_S over the mean of sample ``index`` and the one after it."""
        around = self.samples[index:index + 2]
        return NOMINAL_S * len(around) / sum(around)

    def relative(self) -> float:
        """Median speed of the run, as a multiple of the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
