"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of the same code drifts: one rbakit
analysis took anywhere from 1x to 1.9x its fastest CPU time within a
minute, and slow spells lasted from milliseconds to minutes. Every input of
a run slows alike, so a run's medians follow the host, not the program.

A fixed kernel that does not touch rbakit (Fraction arithmetic, small LAPACK
calls, dict and string work: the mix an analysis spends its time on) is
sampled between inputs: once per ``INTERVAL_S`` of measured work, up to
``MAX_BURST`` samples after a long input. Each sample runs the kernel twice
and takes the CPU time of the second run, whose caches are warm. An input
that took ``t`` CPU seconds is reported as ``t * KERNEL_NOMINAL_S / k``,
where ``k`` is the median time of the samples taken just before and just
after it. The speed changes within tens of milliseconds, so only the
nearest samples track it: on ten-run sets, a one-second window left two to
three times the spread of the nearest samples.

The result reads as seconds on the machine the nominal value was taken
on, with the host's drift divided out; a change to rbakit moves it exactly
as it moves the CPU time. The uncalibrated times are kept in the run's
record.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon virtual machine while its host
# was quiet; it only sets the scale in which calibrated times read.
KERNEL_NOMINAL_S = 1.0e-3
INTERVAL_S = 0.02          # measured work per kernel sample
MAX_BURST = 5              # samples taken at once after a long input
WINDOW_S = 0.03            # kernel samples this close to an input set its factor
MIN_SAMPLES = 2            # else the nearest samples in time

_rng = random.Random(0)
_FRACTIONS = [Fraction(_rng.randint(1, 99), _rng.randint(1, 99)) for _ in range(13)]
_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def kernel() -> None:
    """About 1 ms of work of the kinds an rbakit analysis does."""
    s = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS:
            s += a * b
    np.linalg.eigvals(_MATRIX)
    np.linalg.svd(_MATRIX)
    d = {}
    for k in range(600):
        d[str(k)] = (k, k * k)
    repr(sorted(d.items())[:200])


class Calibrator:
    """Kernel samples over a run, and the speed factor at any moment of it."""

    def __init__(self):
        self.midpoints = []   # of each sample, in time order
        self.seconds = []     # kernel CPU time of each sample
        self.last = 0.0       # end of the last sample

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            kernel()  # untimed: refills the caches the analysis before it used
            start, cpu = time.perf_counter(), time.process_time()
            kernel()
            end, cpu = time.perf_counter(), time.process_time() - cpu
            self.midpoints.append((start + end) / 2)
            self.seconds.append(cpu)
            self.last = end

    def catch_up(self) -> None:
        """The samples owed for the work since the last one."""
        owed = int((time.perf_counter() - self.last) / INTERVAL_S)
        if owed:
            self.sample(min(owed, MAX_BURST))

    def factor(self, start: float, end: float) -> float:
        """KERNEL_NOMINAL_S over the median kernel time near [start, end]."""
        lo = bisect.bisect_left(self.midpoints, start - WINDOW_S)
        hi = bisect.bisect_right(self.midpoints, end + WINDOW_S)
        # too few: widen to the nearest samples in time on either side
        while hi - lo < min(MIN_SAMPLES, len(self.seconds)):
            if lo > 0 and (hi == len(self.seconds)
                           or start - self.midpoints[lo - 1] <= self.midpoints[hi] - end):
                lo -= 1
            else:
                hi += 1
        return KERNEL_NOMINAL_S / statistics.median(self.seconds[lo:hi])
