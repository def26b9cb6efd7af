"""Reference permit class rules that the library's exponent rules replaced.

:func:`log2_plf_delay` prices a span with the class base taken from a
rounded logarithm, ``floor(log2(max(x, 1)) / 2)``, for floats and arrays,
as ``acklab.cost.plf_delay`` once did.  Rounding the log can move the base
by one class near a power of two, but both probe pairs still hold the
exact winner, so it gives every bit the library's ``frexp`` rule gives.
:func:`loop_round_up` finds the class round-up by counting up from 0.
The tests check the library's prices and round-up against these.
"""

from __future__ import annotations

import math

import numpy as np


def log2_plf_delay(x, num_classes: int | None):
    """``min_k (2**k - 1) + x * 2**-k`` over ``0 <= k <= num_classes``
    (all ``k`` when None), probing the two classes from a log2 base.  A
    negative or NaN float span is priced as 0, as ``max(0.0, x)`` takes it;
    NaN array entries stay NaN."""
    if num_classes == 0:
        return x + 0.0
    if isinstance(x, np.ndarray):
        x = np.maximum(0.0, x)
        base = np.floor(0.5 * np.log2(np.maximum(x, 1.0)))
        if num_classes is not None:
            base = np.minimum(base, num_classes - 1.0)
        w, minimum = np.exp2(base), np.minimum
    else:
        x = max(0.0, x)
        base = math.floor(0.5 * math.log2(max(x, 1.0)))
        if num_classes is not None:
            base = min(base, num_classes - 1)
        w, minimum = 2.0 ** base, min
    ratio = x / w
    return minimum((w - 1.0) + ratio, (2.0 * w - 1.0) + 0.5 * ratio)


def loop_round_up(x) -> int:
    """The smallest ``k >= 0`` with ``4**k >= x``, compared exactly."""
    k = 0
    while 4**k < x:
        k += 1
    return k
