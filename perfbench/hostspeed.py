"""A clock that corrects the benchmark's timings for the host's speed.

A shared virtual machine runs one vCPU at a speed that drifts by up to 2x
over seconds to minutes, as other tenants load the host: in one process,
1000 estimator training steps ran at 650 steps/s and, a minute later, at
1300 steps/s. A run of a few tens of seconds sees one or two such states, so
raw timings of the same code spread by 0.2-0.5 of their median across runs.

The clock runs a fixed reference kernel, the probe, at fixed points of the
benchmark's sequence of calls: before and after each timed interval, and
every few training steps. It never picks a point by time: probes that fall
between the program's allocations at times that vary from run to run leave
its heap laid out differently and moved the peak RSS of one seed's runs by
up to 8%. The clock's timeline leaves the probes' own time out.

A timed interval is scaled by REFERENCE_S over a median probe time. The
result is in reference seconds: the time the work takes on a host that runs
the probe in REFERENCE_S. For an interval shorter than WINDOW, or one with
probes inside it, the median is over the probes from WINDOW before it to
WINDOW after it: the host's state changes over seconds, and one probe alone
reads up to 1.4x its median. A longer interval with no probe inside (one
sample_batch call of seconds, or a whole run_benchmark) has only the probes
at its ends to go on, and those, taken next to heavy work, misread the
speed during it; it is scaled by the median over the whole run. Over five
runs of sample_long, its 12 s bodies scaled that way spread by 0.055 of
their median, by 0.086 when scaled from their end probes, and by 0.22
unscaled.

The probe does what the program does most: small matrix products with tanh
(nn layers) and the pairwise-distance reduction of metrics.energy_distance,
on arrays that fit in the cache. The slow host states slow it and the
program alike: over five runs of a workload the scaled training and chain
rates spread by 0.03-0.12 of their median where the unscaled ones spread by
0.1-0.44. Work that streams large arrays through memory does not follow the
probe (see workloads.FewStep).
"""
from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

import numpy as np

WINDOW = 1.0
# About the probe's median time on a 2-vCPU x86_64 host (Python 3.11,
# numpy 2.4, one OpenBLAS thread). A unit, fixed once: changing it, or the
# probe, rescales every reported timing.
REFERENCE_S = 0.0095


@dataclass(frozen=True)
class Timed:
    """A measured interval of the clock: `work` units done between t0 and t1."""

    t0: float
    t1: float
    work: float | None = None  # None: the value is the duration itself
    scaled: bool = True


class HostClock:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.paused = 0.0   # seconds spent in probes
        self.marks: list[float] = []    # where each probe sits on the clock
        self.probes: list[float] = []   # how long each probe took
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((256, 64))
        self._w = rng.standard_normal((64, 64)) / 8
        self._a = rng.standard_normal((256, 1, 2))
        self._b = rng.standard_normal((1, 512, 2))
        # preallocated: the probe's speed must not depend on the allocator's
        # state, which the program's work leaves behind
        self._h = np.empty((256, 64))
        self._d = np.empty((256, 512, 2))
        self._s = np.empty((256, 512))

    def now(self) -> float:
        """Seconds, not counting the probes."""
        return time.perf_counter() - self.paused

    def probe(self, times: int = 1) -> None:
        for _ in range(times if self.enabled else 0):
            t0 = time.perf_counter()
            for _ in range(20):
                np.tanh(np.matmul(self._x, self._w, out=self._h), out=self._h)
            d = np.subtract(self._a, self._b, out=self._d)
            np.multiply(d, d, out=d)
            np.sqrt(d.sum(axis=-1, out=self._s), out=self._s).mean()
            spent = time.perf_counter() - t0
            self.paused += spent
            self.marks.append(self.now())
            self.probes.append(spent)

    def start(self, probes: int = 1) -> float:
        """The start of a timed interval, after `probes` probes."""
        self.probe(probes)
        return self.now()

    def since(self, t0: float, work: float | None = None, scaled: bool = True,
              probes: int = 1) -> Timed:
        """The interval from t0 (from start()) to now; then `probes` probes."""
        t1 = self.now()
        self.probe(probes)
        return Timed(t0, t1, work, scaled)

    def seconds(self, t: Timed) -> float:
        """The interval in reference seconds; resolve after the run's last probe."""
        raw = t.t1 - t.t0
        if not (self.enabled and self.probes and t.scaled):
            return raw
        inside = bisect.bisect_left(self.marks, t.t1) - bisect.bisect_right(self.marks, t.t0)
        if raw > WINDOW and not inside:
            return raw * REFERENCE_S / statistics.median(self.probes)
        lo = bisect.bisect_left(self.marks, t.t0 - WINDOW)
        hi = bisect.bisect_right(self.marks, t.t1 + WINDOW)
        return raw * REFERENCE_S / statistics.median(self.probes[lo:hi])

    def value(self, t: Timed) -> float:
        """A rate (work per reference second) or a duration in reference seconds."""
        s = self.seconds(t)
        return s if t.work is None else t.work / s


CLOCK = HostClock(enabled=False)


def use(clock: HostClock) -> None:
    """Make `clock` the one workloads time with."""
    global CLOCK
    CLOCK = clock
