"""Machine-speed reference for scaling wall times.

On a shared machine the speed of identical pure-Python work swings by up to
2x over tens of seconds, as other tenants come and go.  Every timed stretch
is therefore bracketed by samples of a fixed reference kernel (dict updates
with small and with 80-digit Fractions, like the program's own arithmetic),
and its wall time is reported scaled by ``REFERENCE_S / median(samples)``: the
time it would have taken at the speed where the kernel takes
``REFERENCE_S``.  The kernel is the benchmark's own code, so a change to the
program cannot move it; it runs with the garbage collector off, so the
program's live heap does not change its cost either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[int, Fraction] = {}
        step = Fraction(1, 3)
        big = Fraction(3**90, 7**70)
        for i in range(300):
            acc[i % 97] = acc.get(i % 97, Fraction(0)) + step * i
            acc[i % 13] += big * Fraction(i, 11)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor turning a wall time bracketed by ``samples`` into a scaled one."""
    return REFERENCE_S / statistics.median(samples)
