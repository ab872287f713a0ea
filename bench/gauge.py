"""Host-speed gauge: a fixed reference computation, sampled on a timer.

The benchmark runs on shared cores whose speed drifts by tens of percent
over seconds to minutes as other tenants load the host: the same 30-second
run of fixed work can take 20% longer than the one before it, and set-up
times fall into a fast and a slow cluster about 40% apart. A fixed
reference kernel slows down in step. The Sampler times the kernel every
0.25 s from a SIGALRM handler while the benchmark runs; each task's time
(the handler's own time taken out) is then scaled by

    REFERENCE_S / (mean reading during the task)

so reported times are "seconds at the nominal reference speed". On a
shared 2-core host (Python 3.11, numpy 2.4), over 150 s of alternating
50 ms blocks, scaling by the kernel cut the spread (interquartile range
over median) of `energy` calls from 11% to 5% and of off-curve
`potential_at_points` batches from 14% to 5%; over ten 20-second runs per
workload the scaled wall time spread by 2.8% to 7.4% while the raw wall
times differed by up to 35%.

The kernel is a scalar Python float loop; it is the benchmark's own code,
so no change to the package moves it, and a change that makes the package
faster lowers the scaled times exactly as much as the raw ones.
"""

import bisect
import math
import signal
import statistics
import time

# nominal time of one reference call; only scales the reported times
REFERENCE_S = 1e-3
INTERVAL_S = 0.25
CALLS_PER_READING = 2


def reference():
    acc = 0.0
    for k in range(1, 6300):
        acc += math.sin(k * 1e-3) ** 2 / (k + 1.0)
    return acc


def measure(calls: int) -> float:
    """Median time of `calls` reference calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Reads the gauge every INTERVAL_S seconds of wall time.

    `clock()` is perf_counter minus the time spent in readings, so
    intervals measured with it exclude the gauge's own work.
    """

    def __init__(self):
        self.times = []      # clock() at each reading
        self.readings = []   # seconds per reference call
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _read(self, *_):
        t0 = time.perf_counter()
        reading = measure(CALLS_PER_READING)
        self.times.append(t0 - self.spent)
        self.readings.append(reading)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._read()

    def scaled(self, t0: float, t1: float) -> float:
        """(t1 - t0), both from clock(), at the nominal reference speed: the
        mean reading inside the interval, or the nearest reading before it
        (or after it) when none fell inside."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            speed = statistics.fmean(self.readings[lo:hi])
        else:
            speed = self.readings[lo - 1 if lo > 0 else 0]
        return (t1 - t0) * REFERENCE_S / speed

    def median_reading(self) -> float:
        return statistics.median(self.readings)
