"""Reference brute-force oracle and vector cost, one partition at a time.

:func:`brute_force_optimal` walks the 2^(n-1) cut masks in a Python loop
and costs each partition on its own, and :func:`f_vector` evaluates one
delay vector.  The library enumerates the masks in NumPy chunks and
evaluates whole matrices of delay vectors (:func:`acklab.cost.f_rows`);
the tests check it against these, bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from acklab.cost import DelayModelSpec, Objective, bdelay, order_weights
from acklab.model import Schedule
from acklab.offline import BruteForceInfeasibleError


def f_vector(spec: DelayModelSpec, delays: Sequence[float]) -> float:
    """Delay cost of the full per-packet delay vector."""
    if spec.objective is not Objective.VECTOR:
        raise ValueError(f"{spec.kind!r} is a batch model; use bdelay")
    d = np.asarray(delays, dtype=float)
    if d.size and float(d.min()) < 0.0:
        raise ValueError("delay vector entries must be non-negative")
    kind = spec.kind
    if kind == "sum_vector" or (kind == "lp" and spec.p == 1):
        return float(d.sum())
    if kind == "concave_two_piece":
        ell = spec.prefix_len
        head = float(d[:ell].sum())
        tail = float(d[ell:].sum())
        return min(spec.eps * head + tail, (spec.dim / ell) * head + spec.eps * tail)
    if d.size == 0:
        return 0.0
    weights = order_weights(spec, d.size)
    if weights is not None and len(weights) > 1:
        return float(np.dot(weights, np.sort(d)[::-1][: len(weights)]))
    top = float(np.maximum.reduce(d))
    if weights is not None:
        return weights[0] * top
    # lp with 1 < p < inf.  With top in [2**(e-1), 2**e), every p-th power
    # within 2**+-1000 keeps the sum of the powers inside the float range
    # and the digits of every power that matters.
    e = math.frexp(top)[1]
    if top == 0.0 or spec.p * max(e, 1 - e) < 1000.0 - math.log2(d.size):
        return float(np.add.reduce(d ** spec.p) ** (1.0 / spec.p))
    # Otherwise divide by the largest delay first, so no power overflows.
    return top * float(np.add.reduce((d / top) ** spec.p)) ** (1.0 / spec.p)


def brute_force_optimal(
    arrivals: Sequence[float], spec: DelayModelSpec
) -> tuple[float, Schedule]:
    """Exhaustive minimum over all contiguous partitions (any objective).

    Each block is acknowledged at its last packet's arrival.  Partitions
    whose induced ack times collide are skipped.  The first mask with the
    strictly smallest cost wins.
    """
    arr = tuple(float(a) for a in arrivals)
    n = len(arr)
    if n == 0:
        return 0.0, Schedule(())
    if n > 22:
        raise BruteForceInfeasibleError(
            f"brute force enumerates 2^(n-1) partitions; n={n} exceeds the n<=22 guard"
        )
    objective = spec.objective
    if objective is not Objective.VECTOR:
        block = {
            (lo, hi): bdelay(spec, arr[lo:hi], arr[hi - 1])
            for lo in range(n)
            for hi in range(lo + 1, n + 1)
        }
    best_cost = None
    best_acks: tuple[float, ...] = ()
    for mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        bounds = [0] + cuts + [n]
        acks = [arr[b - 1] for b in bounds[1:]]
        if any(acks[i] >= acks[i + 1] for i in range(len(acks) - 1)):
            continue
        k = len(acks)
        if objective is Objective.VECTOR:
            d: list[float] = []
            for lo, hi, t in zip(bounds, bounds[1:], acks):
                d.extend(t - arr[j] for j in range(lo, hi))
            delay = f_vector(spec, d)
        else:
            per = [block[lo, hi] for lo, hi in zip(bounds, bounds[1:])]
            if objective is Objective.SUM_BATCH:
                # Left to right, as the builtin sum added floats before
                # Python 3.12 (which compensates the rounding).
                delay = 0
                for cost in per:
                    delay += cost
            else:
                delay = max(per)
        cost = k + delay
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_acks = tuple(acks)
    assert best_cost is not None
    return float(best_cost), Schedule(best_acks)
