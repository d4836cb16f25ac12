"""Host-speed correction for the benchmark's timings.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by up to 2x over seconds to minutes (README.md, "Host
noise").  A probe therefore times a fixed piece of interpreter work, the
kernel, every SAMPLE_EVERY_S of CPU time while queries run.  A query's
latency is multiplied by the mean of K_REF_S / (kernel time) over the
samples around it.  Times are then seconds at the reference speed: the
speed at which the kernel takes K_REF_S.

The kernel is benchmark code, so no change to topolab changes it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Near the median kernel time on the reference host (2-vCPU Xeon VM at
# 2.1 GHz, where it ranged 0.21-0.47 ms).  It only sets the scale; it is
# frozen so that figures from different commits compare.
K_REF_S = 3.0e-4
SAMPLE_EVERY_S = 0.05  # of process CPU time
WINDOW_S = 0.2  # kernel samples this close to a query set its speed

_KERNEL_GENS = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))


def kernel() -> int:
    """Tuple permutes and dict updates, like topolab's Python loops."""
    seen: dict[tuple[int, ...], int] = {}
    perm = tuple(range(7))
    for i in range(300):
        perm = tuple(perm[x] for x in _KERNEL_GENS[i & 1])
        seen[perm] = seen.get(perm, 0) + i
    return len(seen)


def kernel_median(samples: int) -> float:
    """Median time of the kernel over back-to-back runs: the same warm
    timing the probe takes."""
    costs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        costs.append(time.perf_counter() - t0)
    return statistics.median(costs)


class SpeedProbe:
    """Times the kernel from a SIGPROF handler while it is started."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample began
        self.cost: list[float] = []  # the timed (second) kernel run
        self.spent: list[float] = []  # the whole sample

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()  # warms the caches the interrupted query left cold
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.cost.append(t2 - t1)
        self.spent.append(t2 - t0)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran between t0 and t1."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        return sum(self.spent[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second near [t0, t1]: the mean of
        K_REF_S / kernel time over the samples there.  The mean of the
        ratio, not the ratio of a mean, so that a query spanning fast and
        slow phases is credited with the work each phase did."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.cost[lo:hi] or self.cost
        return K_REF_S * sum(1.0 / cost for cost in near) / len(near)
