"""Host-speed correction for the benchmark's timings.

The vCPUs of a shared machine do not run at one speed: a fixed pure-Python
loop reads about 1.6 times slower while a neighbour loads the same core, and
that load comes and goes from one second to the next and changes its duty
from one minute to the next.  A run's raw timings follow it, so ten runs'
medians spread by 0.1 to 0.3 of their median.  A `SpeedProbe` times a fixed
reference kernel, kept here beside the benchmark and never changed with the
package, between calls whenever `EVERY_S` seconds have passed since the
last probe.  A call's timing is multiplied by ``NOMINAL_S`` over the mean
of the two probes that bracket it, which expresses it at the reference
machine's unloaded speed.  The kernel does not touch the package, so a
change that makes the package slower still reads slower.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

from refkernel import kernel

# The kernel's time on the machine this benchmark was introduced on (2 cores,
# Python 3.11), unloaded.
NOMINAL_S = 0.0037
# Least seconds between probes: short enough that the load seldom changes
# between a short call and its probes, long enough to cost under 8% of a run.
EVERY_S = 0.05


class SpeedProbe:
    """Times of the reference kernel, and the scale they give a timing."""

    def __init__(self) -> None:
        self.end: List[float] = []
        self.took: List[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.end.append(time.perf_counter())
        self.took.append(self.end[-1] - t0)

    def tick(self) -> None:
        """Probe if the last probe is `EVERY_S` old; call between timings."""
        if time.perf_counter() - self.end[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float) -> float:
        """Factor that takes a timing starting at `t0` to the nominal speed.

        Probes run only between timings, so the last probe to end before
        `t0` and the next one bracket the timing.  Sample once more after the
        last timing.
        """
        i = bisect.bisect_right(self.end, t0)
        return NOMINAL_S / statistics.fmean(self.took[max(0, i - 1):i + 1])
