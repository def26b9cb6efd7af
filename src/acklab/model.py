"""Core domain types: instances, schedules, batches, and cost evaluation.

Conventions used throughout the package:

* packet indices are 0-based and refer to positions in the arrival sequence;
* a batch is the contiguous index range ``(t_prev, t]`` induced by consecutive
  acknowledgment times, with an arrival exactly at an ack time joining that
  ack's batch (arrivals are processed before acks at equal times); ``_walk``
  is the one place that applies this rule;
* all types are immutable values after construction.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cost import (
    DelayModelSpec,
    Objective,
    bdelay_kernel,
    check_real,
    f_vector,
    model_from_json,
    model_to_json,
)


class InvalidScheduleError(ValueError):
    """The schedule does not serve the instance (uncovered packet, idle ack...)."""


def check_arrivals(arrivals: Sequence[float]) -> tuple[float, ...]:
    """The arrival times as floats; ValueError unless they are finite,
    non-negative and non-decreasing, and their count times their span is
    finite.

    A batch's size times its span bounds every batch formula, so the last
    rule keeps them all inside the float range, at any shift of the times.
    """
    # Finite floats skip check_real's type tests, which would dominate here.
    arr = tuple(
        a if type(a) is float and math.isfinite(a) else float(check_real(a, "arrival time"))
        for a in arrivals
    )
    if any(a < 0 for a in arr):
        raise ValueError("arrival times must be non-negative")
    if any(arr[i] > arr[i + 1] for i in range(len(arr) - 1)):
        raise ValueError("arrival times must be non-decreasing")
    if arr and not math.isfinite(len(arr) * (arr[-1] - arr[0])):
        raise ValueError(
            f"{len(arr)} arrivals over a span of {arr[-1] - arr[0]!r} leave the float range"
        )
    return arr


@dataclass(frozen=True)
class Instance:
    """An arrival sequence plus the delay model it is charged under."""

    arrivals: tuple[float, ...]
    model: DelayModelSpec
    horizon: float | None = None

    def __post_init__(self) -> None:
        arr = check_arrivals(self.arrivals)
        object.__setattr__(self, "arrivals", arr)
        if self.horizon is not None:
            check_real(self.horizon, "horizon")
            if arr and self.horizon < arr[-1]:
                raise ValueError("horizon must not precede the last arrival")

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @property
    def effective_horizon(self) -> float:
        if self.horizon is not None:
            return float(self.horizon)
        return self.arrivals[-1] if self.arrivals else 0.0


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing acknowledgment times, none of them NaN."""

    ack_times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ack_times", tuple(float(t) for t in self.ack_times))
        ts = self.ack_times
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("ack times must be strictly increasing")
        if any(math.isnan(t) for t in ts):
            raise ValueError("ack times must not be NaN")

    @property
    def k(self) -> int:
        return len(self.ack_times)


@dataclass(frozen=True)
class Batch:
    """Contiguous packet index range served by one acknowledgment."""

    start: int   # first packet index, inclusive
    stop: int    # one past the last packet index
    ack_time: float

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class CostBreakdown:
    """Evaluated objective: ack count, delay cost and their sum."""

    ack_count: int
    delay_cost: float
    total: float
    objective: Objective

    def to_json(self) -> dict:
        return {
            "acks": self.ack_count,
            "delay": self.delay_cost,
            "total": self.total,
            "objective": self.objective.value,
        }


def _walk(
    arrivals: Sequence[float], ack_times: Sequence[float]
) -> Iterator[tuple[int, int, float]]:
    """Yield ``(start, stop, t)`` for each ack time ``t`` in order: the ack
    serves ``arrivals[start:stop]``, an arrival at ``t`` included, and an
    ack that serves no packet has ``stop == start``.  The ack times must be
    a :class:`Schedule`'s; raises InvalidScheduleError when the last ack
    precedes the last arrival."""
    if len(arrivals) and (not ack_times or ack_times[-1] < arrivals[-1]):
        raise InvalidScheduleError("last ack precedes the last arrival")
    start = 0
    for t in ack_times:
        stop = bisect_right(arrivals, t, start)
        yield start, stop, t
        start = stop


def batches_from_acks(
    arrivals: Sequence[float], ack_times: Sequence[float]
) -> list[Batch]:
    """Partition packet indices into the batches induced by the ack times.

    Acks that cover no packet are dropped from the result.  Rejects
    non-increasing ack times (ValueError) and schedules that leave the last
    packet uncovered (InvalidScheduleError).
    """
    return [Batch(*b) for b in _walk(arrivals, Schedule(ack_times).ack_times) if b[1] > b[0]]


def evaluate_schedule(instance: Instance, schedule: Schedule) -> CostBreakdown:
    """Total cost of the schedule under the instance's objective, in one
    walk that keeps a cost a batch (a delay a packet for vector models).
    InvalidScheduleError if an ack is idle or a packet is left unacked."""
    spec = instance.model
    arrivals = instance.arrivals
    vector = spec.objective is Objective.VECTOR
    delay_of = None if vector else bdelay_kernel(spec)
    costs = array("d")
    for start, stop, t in _walk(arrivals, schedule.ack_times):
        if stop == start:
            raise InvalidScheduleError(f"ack at {t!r} serves no pending packet")
        if vector:
            costs.extend(max(0.0, t - a) for a in arrivals[start:stop])
        else:
            costs.append(delay_of(arrivals[start:stop], t))
    if vector:
        delay = f_vector(spec, costs)
    elif spec.objective is Objective.SUM_BATCH:
        delay = float(sum(costs))
    else:
        delay = max(costs, default=0.0)
    return CostBreakdown(schedule.k, delay, schedule.k + delay, spec.objective)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    out: dict = {
        "arrivals": list(instance.arrivals),
        "model": model_to_json(instance.model),
    }
    if instance.horizon is not None:
        out["horizon"] = instance.horizon
    return out


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict) or "arrivals" not in obj or "model" not in obj:
        raise ValueError("instance must be an object with 'arrivals' and 'model'")
    if not isinstance(obj["arrivals"], list):
        raise ValueError(f"arrivals must be a list, got {obj['arrivals']!r}")
    return Instance(
        tuple(obj["arrivals"]),
        model_from_json(obj["model"]),
        horizon=obj.get("horizon"),
    )
