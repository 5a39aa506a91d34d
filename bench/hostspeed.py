"""Host-speed correction for timings taken on a shared host.

On a shared virtual machine the same deterministic work can take 45% longer
from one minute to the next, because other tenants slow the CPU down. A
fixed pure-Python kernel, timed from a SIGALRM timer every INTERVAL_S while
the work runs, measures that slow-down as it happens. A timing is reported
as its wall time times REFERENCE_KERNEL_S over the median kernel time
sampled during it: the time the work would take on a host where the kernel
takes REFERENCE_KERNEL_S. The kernel runs no venroute code, so a change to
the program moves the corrected time by as much as the wall time. The
sampling costs about 1.5% of the run, on the parent and the change alike.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_KERNEL_S = 0.0012  # the kernel's time on a 2-vCPU Xeon VM at full speed
INTERVAL_S = 0.1


def kernel_s() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Kernel times sampled from a timer signal while the process works."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel time)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        self.samples.append((time.perf_counter(), kernel_s()))

    def factor(self, start: float, end: float) -> float:
        """Correction for work done between ``start`` and ``end``.

        Uses the samples taken in that interval, or every sample when the
        interval is too short to hold one.
        """
        inside = [k for t, k in self.samples if start <= t <= end]
        return REFERENCE_KERNEL_S / statistics.median(inside or [k for _, k in self.samples])
