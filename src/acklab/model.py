"""Core domain types: instances, schedules, batches, and cost evaluation.

Conventions used throughout the package:

* packet indices are 0-based and refer to positions in the arrival sequence;
* a batch is the contiguous index range ``(t_prev, t]`` induced by consecutive
  acknowledgment times, with an arrival exactly at an ack time joining that
  ack's batch (arrivals are processed before acks at equal times);
* all types are immutable values after construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .cost import (
    DelayModelSpec,
    Objective,
    bdelay,
    check_real,
    f_vector,
    model_from_json,
    model_to_json,
)

DelayVector = tuple[float, ...]


class InvalidScheduleError(ValueError):
    """The schedule does not serve the instance (uncovered packet, idle ack...)."""


@dataclass(frozen=True)
class Instance:
    """An arrival sequence plus the delay model it is charged under."""

    arrivals: tuple[float, ...]
    model: DelayModelSpec
    horizon: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "arrivals", tuple(float(check_real(a, "arrival time")) for a in self.arrivals)
        )
        arr = self.arrivals
        if self.horizon is not None:
            check_real(self.horizon, "horizon")
        if any(a < 0 for a in arr):
            raise ValueError("arrival times must be non-negative")
        if any(arr[i] > arr[i + 1] for i in range(len(arr) - 1)):
            raise ValueError("arrival times must be non-decreasing")
        if self.horizon is not None and arr and self.horizon < arr[-1]:
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
    """Strictly increasing acknowledgment times."""

    ack_times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ack_times", tuple(float(t) for t in self.ack_times))
        ts = self.ack_times
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("ack times must be strictly increasing")

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


def batches_from_acks(
    arrivals: Sequence[float], ack_times: Sequence[float]
) -> list[Batch]:
    """Partition packet indices into the batches induced by the ack times.

    Acks that cover no packet are dropped from the result.  Rejects
    non-increasing ack times and schedules that leave the last packet
    uncovered.
    """
    arr = list(arrivals)
    acks = list(ack_times)
    if any(acks[i] >= acks[i + 1] for i in range(len(acks) - 1)):
        raise ValueError("ack times must be strictly increasing")
    if arr and (not acks or acks[-1] < arr[-1]):
        raise InvalidScheduleError("last ack precedes the last arrival")
    batches: list[Batch] = []
    start = 0
    for t in acks:
        stop = bisect_right(arr, t)
        if stop > start:
            batches.append(Batch(start, stop, float(t)))
            start = stop
    return batches


def validate_schedule(instance: Instance, schedule: Schedule) -> list[Batch]:
    """Check the schedule serves the instance; return its batches.

    Every ack must serve at least one packet (an idle ack only adds cost, so
    it is treated as a schedule bug rather than silently dropped).
    """
    acks = schedule.ack_times
    batches = batches_from_acks(instance.arrivals, acks)
    for i, t in enumerate(acks):
        if i == len(batches) or batches[i].ack_time != t:
            raise InvalidScheduleError(f"ack at {t!r} serves no pending packet")
    return batches


def _delays(arrivals: Sequence[float], batches: list[Batch]) -> DelayVector:
    """Per-packet waiting times under the batches, in packet order."""
    return tuple(max(0.0, b.ack_time - arrivals[j]) for b in batches for j in b.indices)


def delay_vector_of(arrivals: Sequence[float], schedule: Schedule) -> DelayVector:
    """Per-packet waiting times under the schedule."""
    return _delays(arrivals, batches_from_acks(arrivals, schedule.ack_times))


def evaluate_schedule(instance: Instance, schedule: Schedule) -> CostBreakdown:
    """Total cost of the schedule under the instance's objective."""
    batches = validate_schedule(instance, schedule)
    spec = instance.model
    k = len(batches)
    if spec.objective is Objective.VECTOR:
        delay = f_vector(spec, _delays(instance.arrivals, batches))
    else:
        per_batch = [
            bdelay(spec, instance.arrivals[b.start : b.stop], b.ack_time)
            for b in batches
        ]
        if spec.objective is Objective.SUM_BATCH:
            delay = float(sum(per_batch))
        else:
            delay = max(per_batch) if per_batch else 0.0
    return CostBreakdown(k, float(delay), k + float(delay), spec.objective)


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
