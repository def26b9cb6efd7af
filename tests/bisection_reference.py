"""Bisection reference for threshold times.

:func:`solve_threshold_time` finds the earliest time at which any monotone
evaluator reaches a target, by exponential expansion and bisection.  The
library's policies ack at exact crossings of running aggregates instead;
the tests check those crossings against this solver on explicit evaluators
(the cost of a batch or delay vector rebuilt at each probed time).
"""

from __future__ import annotations

import logging
from typing import Callable

from acklab.engine import EngineError
from acklab.tolerance import tol_at

log = logging.getLogger(__name__)

EXPANSION_CAP = 2.0 ** 64
_MAX_SOLVE_STEPS = 500


def solve_threshold_time(
    evaluator: Callable[[float], float],
    t_lo: float,
    target: float,
    expansion_cap: float = EXPANSION_CAP,
) -> float | None:
    """Earliest ``t >= t_lo`` with ``evaluator(t) >= target`` (right-continuous).

    The evaluator must be monotone non-decreasing.  Returns ``t_lo`` when the
    target is already met there.  Returns None when exponential expansion
    exceeds ``expansion_cap`` scaled by ``max(1, |t_lo|)`` without a crossing.
    """
    tol_v = tol_at(target)
    f_lo = evaluator(t_lo)
    if f_lo >= target - tol_v:
        return t_lo
    scale = max(1.0, abs(t_lo))
    step = 1e-6 * scale
    lo, hi = t_lo, t_lo + step
    f_hi = evaluator(hi)
    steps = 0
    while f_hi < target - tol_v:
        if f_hi < f_lo - tol_at(f_lo):
            raise EngineError("evaluator decreased during expansion; model contract violated")
        if step > expansion_cap * scale or steps > _MAX_SOLVE_STEPS:
            log.debug("threshold expansion cap hit without crossing (target=%r)", target)
            return None
        lo, f_lo = hi, f_hi
        step *= 2.0
        hi = t_lo + step
        f_hi = evaluator(hi)
        steps += 1
    # Bisect: refine time to tolerance, and value too wherever the evaluator
    # is continuous at the crossing (jumps bottom out at machine precision).
    floor = 4e-16 * max(1.0, abs(hi))
    for _ in range(_MAX_SOLVE_STEPS):
        if hi - lo <= floor:
            break
        if hi - lo <= tol_at(hi) and f_hi <= target + tol_v:
            break
        mid = 0.5 * (lo + hi)
        f_mid = evaluator(mid)
        if f_mid < f_lo - tol_at(f_lo) or f_mid > f_hi + tol_at(f_hi):
            raise EngineError("evaluator not monotone during bisection; model contract violated")
        if f_mid >= target - tol_v:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return hi
