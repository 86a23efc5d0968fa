"""Host speed, measured while the program is idle.

On a shared host the speed of a core drifts by 30-60% over minutes as
neighbours come and go, so the raw wall times of the same code, measured a
few minutes apart, differ by more than the changes the benchmark must
resolve.  Between commands, never during one, the benchmark times a fixed
piece of interpreted work, right before and right after each timed piece
of the program's work.  That piece's wall time is multiplied by REF_CAL_S
over the mean of the mean time before it and the mean time after it.  No command runs while the calibration work
is timed, so the program's own use of the cores (threads, processes) cannot
change the factor.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median calibration time on the reference machine (2-core x86_64 shared
# host, Python 3.11, numpy 2.4).  Any constant works; this one keeps scaled
# times close to raw ones there.
REF_CAL_S = 1.0e-3
# Time spent sampling after a piece of work, as a share of the work's time.
SHARE = 0.05
_DRAWS = np.random.default_rng(0).standard_exponential(8192)


def calibration_work() -> int:
    """An interpreted loop over numpy scalars, the style of the program's hot loops.

    Of the kernels tried (integer arithmetic, dict updates, numpy calls and
    this one), this one's time tracked the program's best.
    """
    hits = 0
    for i in range(_DRAWS.size):
        if _DRAWS[i] >= 1.0:
            hits += 1
    return hits


class HostSpeed:
    """Scales each timed piece of work by the host speed sampled just before and after it.

    Means, not medians: a long command runs through the host's bursts of
    contention, so its slowdown is their average.  Before and after weigh
    the same, however many samples each holds.

    Call begin() right before a series of timed pieces of work, and scale(dt)
    right after each one.
    """

    def __init__(self):
        self.before: list[float] = []  # the latest clump of samples
        self.factors: list[float] = []  # one per scale() call
        self.samples = 0

    def _clump(self, busy_s: float, least: int) -> list[float]:
        """Time calibration_work at least `least` times, and for SHARE of busy_s."""
        times: list[float] = []
        while len(times) < least or sum(times) < SHARE * busy_s:
            t0 = perf_counter()
            calibration_work()
            times.append(perf_counter() - t0)
        self.samples += len(times)
        return times

    def begin(self) -> None:
        self.before = self._clump(0.0, 20)

    def scale(self, dt: float) -> float:
        """dt, a wall time that ended just now, at the reference host speed."""
        after = self._clump(dt, 3)
        factor = REF_CAL_S / (0.5 * (statistics.fmean(self.before) + statistics.fmean(after)))
        self.before = after
        self.factors.append(factor)
        return dt * factor
