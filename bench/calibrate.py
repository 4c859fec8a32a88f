"""A fixed pure-Python calibration loop, timed next to the ops it calibrates.

The machines this runs on change speed by up to a factor of two within
minutes (other tenants share the cores), and op times follow. Dividing an
op's time by the loop's time measured beside it cancels most of that drift.
Normalized times are quoted as seconds on a machine where the loop takes
NOMINAL_S, so that they read close to wall time on a quiet machine here.
"""

from __future__ import annotations

import time
from statistics import median

NOMINAL_S = 0.002  # the loop's time on a quiet 2-core x86-64 box, Python 3.11

_TABLE = list(range(256)) * 8
_INDEX = [(i * 7919) % len(_TABLE) for i in range(20000)]


def _loop() -> int:
    # table lookups and XOR, as in GF(2^w) arithmetic, then tuple and dict
    # churn, as in node-file parsing
    acc = 0
    table = _TABLE
    for i in _INDEX:
        acc ^= table[i] * (i & 7)
    d = {}
    for i in range(3000):
        d[(i, i & 255)] = (i, i ^ acc)
    return acc + len(d)


def loop_seconds(repeats: int = 5) -> float:
    """Median time of the calibration loop over a few repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return median(times)
