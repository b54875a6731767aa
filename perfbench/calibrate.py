"""Calibration kernel: how fast this core runs interpreted code right now.

The benchmark shares its cores with other tenants, and their load changes
the speed of the same code by up to 2x over tens of seconds. Every timed
unit is therefore bracketed by this fixed pure-Python kernel (integer mixing,
dict and list updates, the operations goerw's kernels are made of), and the
unit's time is rescaled to the speed at which the kernel takes NOMINAL_S:

    rescaled = measured * NOMINAL_S / kernel time around the unit

A change to goerw moves the unit and not the kernel, so it still shows in
full; a change in the machine's speed moves both and cancels.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0025
_M64 = (1 << 64) - 1


def _kernel() -> int:
    counts: dict[int, int] = {}
    trail: list[int] = []
    h = 1
    for i in range(3000):
        h = (h ^ i) + 0x9E3779B97F4A7C15 & _M64
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        h ^= h >> 31
        counts[h & 1023] = counts.get(h & 1023, 0) + 1
        trail.append(h & 255)
    return len(counts) + sum(trail)


def kernel_seconds(repeats: int = 5) -> float:
    """Median wall time of the kernel over a few back-to-back repeats."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
