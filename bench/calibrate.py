"""Calibration of the CPU speed the benchmark gets, for scaling its timings.

The benchmark runs on a few cores of a shared host whose speed switches
between regimes about 1.7x apart, every few seconds to tens of seconds.
Wall and CPU time move together, so neither alone is steady.  The runner
therefore times a fixed unit of work -- pure-Python arithmetic, one adaptive
``quad`` and small batched ``eigvalsh`` calls, the kinds of work the package
does -- before and after every operation and, for in-process operations,
every ``INTERVAL_S`` during it, from a timer signal as a sampling profiler
would.  Each operation's time, less the time spent in the samples, is then
scaled to the speed at which one unit takes ``REFERENCE_UNIT_S``:

    scaled = measured * mean(REFERENCE_UNIT_S / unit time, over the readings)

that is, the time the same work would take at the reference speed.  The
unit is the benchmark's own code and calls nothing in ``wignerq``, so a
change to the package moves the scaled times as it moves the measured ones,
while a change in host speed cancels out.  The measured times are kept in
the run record next to the scaled ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import quad

#: Median seconds of one unit on the reference machine (2-vCPU KVM guest,
#: Intel Xeon family 6 model 207, Python 3, numpy and scipy as installed),
#: measured in its common regime.  It only fixes the scale of the reported
#: times; any constant would do, as long as it never changes.
REFERENCE_UNIT_S = 4.5e-3

#: Units timed before and after each operation; their median is the reading.
UNITS_PER_READING = 3

#: Seconds between the single units timed during an in-process operation.
INTERVAL_S = 0.25

_MATRICES = np.random.default_rng(0).standard_normal((64, 3, 3))
_MATRICES = _MATRICES + _MATRICES.transpose(0, 2, 1)


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(x)


def unit() -> float:
    """Seconds one fixed unit of work takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20_000):
        s += math.sin(i * 1e-3)
    quad(_integrand, 0.0, 5.0, epsabs=1e-13, limit=200)
    for _ in range(20):
        np.linalg.eigvalsh(_MATRICES)
    return time.perf_counter() - t0


def reading() -> float:
    """Median seconds of ``UNITS_PER_READING`` units: the current speed."""
    return statistics.median(unit() for _ in range(UNITS_PER_READING))


def scale(seconds: float, readings: list[float]) -> float:
    """``seconds`` of work done while ``readings`` were taken, at the
    reference speed."""
    return seconds * statistics.fmean(REFERENCE_UNIT_S / r for r in readings)


class Sampler:
    """Times one unit every ``INTERVAL_S`` while in the ``with`` block.

    The units run in the main thread from ``SIGALRM``, between two bytecodes
    of whatever runs there; ``spent`` is the time they took, to be taken off
    the block's measured time.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(unit())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
