"""Calibration loops that measure how fast the machine runs right now.

Shared hosts change speed by up to 1.5x over tens of seconds, which is
more than any bound a benchmark could hold on raw wall times.  Timing a
fixed, mazecells-independent loop right before and after each measured
run gives the machine's current speed; run times are reported rescaled
to a machine on which the loop takes CALIBRATION_REF_S.  The loop mixes
the kinds of work the program does: interpreted Python with method
calls, NumPy calls on 100x100 slices and NumPy passes over arrays larger
than cache.  Its arrays are preallocated or small, so its speed does not
depend on the allocator state the measured program left behind.

Set-up time is mostly the import of NumPy, which loads shared libraries
and many modules rather than computing, so it is rescaled instead by
the time the same fresh interpreter took to import NumPy, to a machine
on which that takes NUMPY_IMPORT_REF_S.
"""

from __future__ import annotations

import math
import time

import numpy as np

CALIBRATION_REF_S = 0.02
NUMPY_IMPORT_REF_S = 0.12

_MID = np.linspace(0.0, 1.0, 10_000).reshape(100, 100)
_MASK = _MID > 0.3
_LARGE = np.linspace(0.0, 1.0, 200_000)
_BUF = np.empty_like(_LARGE)


class _Acc:
    def __init__(self):
        self.v = 0.0

    def add(self, j: int) -> None:
        self.v += math.sqrt(j) * 0.5


def _work() -> float:
    acc = _Acc()
    for j in range(25_000):
        acc.add(j)
    s = acc.v
    for _ in range(200):
        m = _MASK[1:, :-1] & _MASK[:-1, 1:]
        s += float((np.where(m, _MID[1:, :-1], 0.0) * _MID[:-1, 1:]).sum()) + int(m.sum())
    for _ in range(15):
        np.multiply(_LARGE, 1.5, out=_BUF)
        np.arctan(_BUF, out=_BUF)
        s += float(_BUF.sum())
    return s


def calibration_s() -> float:
    """Median time of five passes of the fixed calibration loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]
