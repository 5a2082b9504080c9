"""Machine-speed reference for the end-to-end times.

On a shared machine the speed of the CPU drifts: on 2 CPUs the same item
took 1.6 times as long in one minute as a few minutes later, and
interpreter start-up drifted with it.  Drift that large swamps any
change to the program, so each end-to-end time is measured between two
runs of a fixed reference loop and scaled to the speed at which that
loop takes NOMINAL_S.  The loop is exact rational arithmetic in pure
Python, like the program, and shares no code with it; a change to the
program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Reference loop seconds at the speed the times are scaled to: about
# the loop's time on 2 CPUs of an "Intel(R) Xeon(R) Processor" host.
NOMINAL_S = 0.010


def loop_seconds() -> float:
    """One run of the reference loop: a harmonic sum whose terms grow to
    a few thousand bits, as the program's coefficients do."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 2000):
        total += Fraction(1, k)
    return time.perf_counter() - start


class Speed:
    """Scales each measured time by the reference loops around it."""

    def __init__(self):
        self._before = loop_seconds()

    def scale(self, seconds: float) -> float:
        after = loop_seconds()
        factor = NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        return seconds * factor
