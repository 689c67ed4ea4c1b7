"""Scaling of measured times to one reference speed of the machine.

The shared host this benchmark was tuned on (2 vCPUs of a Xeon) runs a
process at a fast and at a slower speed, switching many times a second,
and the share of time at each speed drifts over minutes.  A single
operation can take 1.7 times as long in one phase as in the other, so
raw times of the same code differ from run to run by far more than the
benchmark's bounds.  So every timed interval is bracketed by two runs of
a fixed pure-Python loop, and the interval is scaled to the speed at
which that loop takes REFERENCE_S: the steady, slower speed of that
host.  The loop sums Fractions.  Like the program, it allocates objects
and calls Python functions, so a slow phase slows it about as much as
it slows the program; a bare integer loop slows only 1.4 times.  It
calls no ``cremona`` code, so a change to the program cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

TERMS = 250
REFERENCE_S = 0.0011


def loop_seconds() -> float:
    """Time of the fixed loop, now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, TERMS + 1):
        total += Fraction(1, i)
    return time.perf_counter() - start


def scale(elapsed: float, loop_s: float) -> float:
    """`elapsed`, measured while the loop took `loop_s`, at the reference speed."""
    return elapsed * REFERENCE_S / loop_s
