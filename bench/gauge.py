"""Speed gauges: a fixed unit of work timed alongside the timed loop.

The machine the benchmark was sized on is shared, and other tenants change
how fast its CPUs run by up to half, for seconds at a time and by drifting
over minutes; its CPU time drifts with wall time, so no clock removes this.
A gauge times a fixed unit of work between operations, all through a run
and outside the operations' clock, and each timing the benchmark reports is
scaled by the unit's nominal time over the gauge's time around it: it
reads as it would on a machine that runs the unit in its nominal time.  No
unit uses ``tunnel_slopes``, so a change to the package moves the reported
timings and not the gauges.

The machine's slow and fast phases do not move all work alike: pure Python
speeds up by up to 1.8x when starting an interpreter speeds up by 1.3x.  So
work done in this process is scaled by a unit of pure Python, and work done
by fresh interpreters (a CLI call, a set-up launch) by starting one.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import Callable


def python_unit() -> int:
    """Standard-library work of the kind the package does: exact fractions,
    small tuples, lists, dicts and calls.  Returns a checksum so that
    nothing is skipped."""
    acc = Fraction(0)
    pairs = []
    for i in range(1, 60):
        acc += Fraction(2 * i + 1, i * i + 3)
        pairs.append(((i * 7919) % 1009, i))
    pairs.sort()
    counts: dict = {}
    for x, i in pairs:
        counts[x % 31] = counts.get(x % 31, 0) + i
    return acc.numerator % 97 + len(counts)


class Gauge:
    """Samples of one unit taken through a run, and the scale they give."""

    def __init__(self, unit: Callable[[], object], nominal_s: float, window: int) -> None:
        self.unit = unit
        # The unit's median time on the machine the benchmark was sized
        # on; only a scale, so that reported timings read as seconds.
        self.nominal_s = nominal_s
        # How many samples around a timing its scale is the median of.
        self.window = window
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the unit once, with the collector paused so that the size of
        the workload's heap does not change the unit's time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.unit()
            self.samples.append(time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()

    def scale(self, at: int) -> float:
        """Nominal time over the median of the samples centred on ``at``.

        ``at`` is the number of samples taken before the timing, so an
        even window holds as many samples from before it as after.
        """
        lo = max(0, min(at - self.window // 2, len(self.samples) - self.window))
        return self.nominal_s / statistics.median(self.samples[lo : lo + self.window])


def python_gauge() -> Gauge:
    """Sampled once per 20 ms of operation time, 11 samples span 0.2 s."""
    return Gauge(python_unit, nominal_s=0.00036, window=11)
