"""Machine-speed calibration interleaved with the measured commands.

Other tenants of a shared host slow this process for seconds to minutes at a
time, by up to a factor of three, while the process still counts as running
(CPU time equals wall time).  The slowdown dwarfs what a change to the program
moves, and no length of run averages it out.  So the benchmark measures the
machine's speed right before and after each stretch of commands, with a fixed
slice of reference work (small-matrix numpy calls and an interpreter loop,
the mix the workloads spend their time in), and rescales the stretch's
timings to the speed at which one slice takes :data:`REFERENCE_SLICE_S`.
The reading is the mean slice time over a stretch of wall time, not the
median, so that it counts the time lost to the other tenants as the
commands' own timings do.  The reference work calls no package code, so a
change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SLICE_S = 0.0006
"""One slice on an idle 2.1 GHz Xeon core; rescaled timings are at that speed."""

READING_S = 0.3
"""Wall time of slices per reading."""

_MATRICES = np.random.default_rng(0).standard_normal((24, 4, 4))


def _slice() -> None:
    for m in _MATRICES:
        np.linalg.norm(m, 2)
    total = 0
    for i in range(3000):
        total += i * 7 % 13


def reading() -> float:
    """Mean seconds per reference slice over :data:`READING_S` of wall time."""
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < READING_S:
        _slice()
        count += 1
    return (time.perf_counter() - start) / count


def scale(before: float, after: float) -> float:
    """Factor that converts timings taken between two readings to reference speed."""
    return REFERENCE_SLICE_S / ((before + after) / 2)
