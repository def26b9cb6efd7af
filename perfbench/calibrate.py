"""Host-speed calibration for the benchmark's timings.

The host this benchmark was sized on ran the same interpreter-bound work
anywhere from 0.7x to 1.4x its median speed, in slow or fast spells lasting
seconds to minutes, so the median times of one operation in processes run
one after another differed by up to 49 %. Each timing is therefore scaled by
how fast the host ran a fixed kernel right before and right after it:

    scaled = measured * NOMINAL_S / kernel_time

A scaled time reads as the wall time on a host that runs the kernel in
``NOMINAL_S``. The kernel shares no code with acklab, so any change to the
program moves scaled times exactly as it moves wall times on a steady host.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0025
REPEATS = 5


def _kernel() -> float:
    """Interpreter work with small NumPy calls, the mix acklab's hot paths run."""
    row = np.arange(300, dtype=float)
    acc = 0.0
    seen: dict[int, float] = {}
    for i in range(400):
        acc += float(np.min(row[i % 50 :] + acc * 1e-9)) * 1e-3 + (i * 0.37) % 7.0
        seen[i & 255] = acc
    return acc + sum(seen.values())


def kernel_time() -> float:
    """Median wall time of a few runs of the calibration kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]


def scale(measured: float, before: float, after: float) -> float:
    """``measured`` in nominal-speed seconds, from the kernel times around it."""
    return measured * NOMINAL_S / (0.5 * (before + after))
