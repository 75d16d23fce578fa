"""Host-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared VM whose speed drifts by
20-40% over tens of seconds, with dsym's code and any other CPU-bound code
slowing alike.  A fixed reference task, timed every CALIBRATE_EVERY_S of the
measured loop, tracks that drift.  Timed metrics are reported at the
reference speed: a raw time t measured while the reference task took r
seconds on average is reported as t * REFERENCE_S / r.  Both the raw values
and the host factor r / REFERENCE_S are printed with every run.

The reference task never calls dsym, so a change to dsym moves the reported
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the reference task takes on a 2-core x86-64 VM (OpenBLAS 1 thread,
# numpy 2.4, Python 3.11) in its steady state: the unit of reported times.
REFERENCE_S = 0.0055
CALIBRATE_EVERY_S = 0.2

_MATRIX = np.random.default_rng(0).random((24, 24))
_MATRIX = _MATRIX + _MATRIX.T


def reference_task() -> float:
    """Seconds for a fixed mix of interpreter work and small LAPACK calls,
    the two kinds of work dsym's CLI spends its time in."""
    started = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += len(str(i)) ^ (i & 7)
    for _ in range(50):
        np.linalg.eigvalsh(_MATRIX)
    return time.perf_counter() - started


class HostSpeed:
    """Reference-task samples taken while a run measures."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> float:
        value = reference_task()
        self.samples.append(value)
        self._last = time.perf_counter()
        return value

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Mean reference time over REFERENCE_S: above 1, the host ran slow."""
        return statistics.fmean(self.samples) / REFERENCE_S
