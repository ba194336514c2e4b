"""Host-speed probe.

On a shared host the same Python code runs up to ~1.7x slower for
seconds at a time (a fixed arithmetic loop, timed in 20-second windows,
varies by ~10% between windows and by 1.5x between single seconds).
The benchmark therefore times every block of operations next to this
probe -- a fixed pure-Python loop measured in *thread CPU
time*, so waiting for the GIL or for a core does not count -- run while
the program under test is idle.  Times are reported *adjusted*: divided by
:func:`factor`, the probe's duration over :data:`NOMINAL_S`, i.e. in
milliseconds of a host on which the probe takes 2 ms.  Raw times are
kept in the record next to them.
"""

from __future__ import annotations

import statistics
import time

#: Probe duration that :func:`factor` maps to 1.0.
NOMINAL_S = 0.002
_ITERATIONS = 20000
_REPEATS = 3


def _spin() -> int:
    total = 0
    for value in range(_ITERATIONS):
        total += value * value % 7
    return total


def factor() -> float:
    """How much slower than nominal the host runs Python right now."""
    samples = []
    for _ in range(_REPEATS):
        start = time.thread_time()
        _spin()
        samples.append(time.thread_time() - start)
    return statistics.median(samples) / NOMINAL_S
