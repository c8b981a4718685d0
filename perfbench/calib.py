"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed for one
process switches between levels up to 80% apart, for a fraction of a second
to tens of seconds at a time.  A fixed kernel with the mix of work fockcalc
does (interpreted complex arithmetic and small numpy array operations) is
timed right before and right after each timed interval.  The interval is
scaled by ``REFERENCE_S`` over the mean of those two kernel times, so it
reads as seconds on a host where the kernel takes ``REFERENCE_S``.  A change
to fockcalc moves the scaled time as it moves the raw one; a host that is
slower while the interval runs does not.  The raw values are kept as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005  # about the kernel's median on a 2-vCPU 2.1 GHz Xeon virtual machine


def _kernel() -> complex:
    acc = 0j
    z = 0.3 + 0.4j
    for k in range(30000):
        acc = acc * z + k
    v = np.arange(64, dtype=np.complex128)
    for _ in range(1000):
        v = v * z + 1.0
        acc += v.sum()
    return acc


def scaled(elapsed: float, before: float, after: float) -> float:
    """Raw seconds of an interval in reference seconds, from the kernel times around it."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))


class SpeedProbe:
    """Kernel timings taken between timed intervals.

    ``mark()`` times the kernel and returns the index of that sample; the
    interval that follows ends at the next sample taken, so one more
    ``mark()`` must follow the last interval before ``scale`` is used.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def mark(self) -> int:
        start = time.perf_counter()
        _kernel()
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def scale(self, elapsed: float, mark: int) -> float:
        """Raw seconds of the interval after sample ``mark`` in reference seconds."""
        return scaled(elapsed, self.times[mark], self.times[mark + 1])

    def factor(self) -> float:
        """Reference seconds per raw second at the run's median kernel time."""
        return REFERENCE_S / statistics.median(self.times)
