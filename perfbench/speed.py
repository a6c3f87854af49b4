"""How fast the machine runs at a given moment, from a fixed reference loop.

The benchmark's machine is shared: the wall time of a fixed piece of code
drifts by up to a half over tens of seconds, in spells that can outlast a
whole run (measured on a 2-vCPU Xeon virtual machine: a plain Python loop's
median per 10 s ranged from 1.2 to 1.8 times its fastest time).  A worker
therefore times ``speed_sample`` between consecutive ops, and ``run.py``
scales each op's wall time by ``REF_S`` over the faster of the two samples
around it.  A scaled time reads as the op's wall time on the machine at the
speed where a reference pass takes ``REF_S``; it changes with the program's
own cost, while most of the load that other tenants put on the machine
cancels out (ops slow down somewhat more than the reference loop does).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the 1st percentile of speed_sample over 30 s on the
# 2-vCPU Xeon virtual machine the benchmark was sized on.
REF_S = 1.0e-3
SPEED_PASSES = 5

_ARRAY = np.arange(40_000, dtype=np.int64)


def reference_pass():
    """Seconds for one pass of a fixed mix of interpreted and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    int((_ARRAY * 3 % 7).sum())
    return time.perf_counter() - t0


def speed_sample():
    """Median of SPEED_PASSES reference passes, in seconds."""
    return statistics.median(reference_pass() for _ in range(SPEED_PASSES))


def scale(wall_s, before_s, after_s):
    """``wall_s`` at reference speed, from the samples taken around it.

    The faster of the two samples sets the speed, so that one sample slowed
    by a stall outside the op cannot shrink the op's time.
    """
    return wall_s * REF_S / min(before_s, after_s)
