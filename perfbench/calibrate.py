"""Host-speed calibration of the measured times.

The benchmark runs on small shared virtual machines, whose speed drifts by
a third and more over tens of seconds as the host's other tenants come and
go.  Such a drift moves every op of a run alike and would swamp the
differences the benchmark is there to show.  So a fixed pure-Python kernel
(Fraction arithmetic and dict updates, close to what the library's own hot
loops do, and using none of the library) is timed between the ops, and each
op's wall time is scaled by REFERENCE_S over the kernel's time around it
(see scaled()): the result is the op's time at the reference speed.  A
change to the program cannot move the kernel, so it moves the scaled time
in full.

On a 2-core KVM guest (Intel Xeon, CPython 3.11) the scaled time of a fixed
op spread 2% over 10 s windows where its wall time spread 13%.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of kernel() on that 2-core KVM guest (Intel Xeon, CPython 3.11).
REFERENCE_S = 0.0047
# The longer an op, the less its time follows the kernel's: brief swings of
# speed average out over it, and on that guest a 7 s op moved a third as
# much as the kernel runs around it, a 40 ms op nine tenths as much.  So the
# scaling fades with the op's length, as the power 1 - length / FADE_S of
# the kernel's speed, and leaves ops of FADE_S and longer as they are.
FADE_S = 10.0


def kernel() -> Fraction:
    total, buckets = Fraction(0), {}
    for i in range(1, 1000):
        total += Fraction(i % 7, i)
        buckets[i % 97] = buckets.get(i % 97, 0) + i
    return total


def kernel_time() -> float:
    """Time of one kernel() run.  The collector is off during it, so that
    the garbage the program leaves does not change the kernel's time."""
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def speed_factor(samples) -> float:
    """REFERENCE_S over the median of kernel times taken around one short
    measurement; the median keeps one preempted sample from counting."""
    return REFERENCE_S / statistics.median(samples)


def scaled(times, kernels) -> list[float]:
    """Wall times of the ops of one pass at the reference speed.  kernels
    holds the kernel times before the first op and after each; an op is
    scaled by the runs right around it, the two nearest on each side."""
    assert len(kernels) == len(times) + 1
    return [t * speed_factor(kernels[max(0, k - 1):k + 3]) ** max(0.0, 1 - t / FADE_S)
            for k, t in enumerate(times)]
