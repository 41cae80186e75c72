"""Times in reference seconds, to take out the host's changing CPU speed.

The CPU speed of a shared virtual machine swings: 1.7x within seconds on a
2-vCPU Intel Xeon VM with Python 3.11, where raw wall times of identical
runs spread by 15-35%.  A fixed pure-Python kernel is therefore timed next
to each measurement, and a wall time is reported in reference seconds:
wall * REFERENCE_KERNEL_S / kernel time around the measurement.  At
reference speed the kernel takes exactly 1 ms.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_KERNEL_S = 0.001


def _kernel() -> float:
    t0 = perf_counter()
    acc: dict = {}
    for i in range(300):
        key = (("a", i % 7), ("b", i % 11))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return perf_counter() - t0


def calibrate() -> float:
    """Median of three timings of the kernel: dict, tuple and Fraction work like the library's."""
    return statistics.median([_kernel(), _kernel(), _kernel()])


def to_reference(wall: float, kernel_before: float, kernel_after: float) -> float:
    return wall * REFERENCE_KERNEL_S / ((kernel_before + kernel_after) / 2)


def timed(fn) -> float:
    """Run fn once; its time in reference seconds."""
    before = calibrate()
    t0 = perf_counter()
    fn()
    wall = perf_counter() - t0
    return to_reference(wall, before, calibrate())
