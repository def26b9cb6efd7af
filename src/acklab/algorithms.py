"""Online acknowledgment policies.

Four policies plus one adversary-harness variant:

* :class:`GreedyTau` — ack when the pending batch's delay cost reaches a
  fixed threshold (tau = 1 is the classic greedy).
* :class:`GreedyMaxMonotone` — for max-aggregated objectives: the i-th ack
  fires when the pending batch's delay cost reaches i.
* :class:`GreedyBatchOblivious` — for vector objectives: ack whenever the
  global delay cost has grown by 1 since the last ack.
* :class:`SumMonotonePhases` — budget/buffer phase algorithm driven by the
  offline suffix DP; logarithmically competitive for sum-aggregated models.
* :class:`VectorThresholdGreedy` — fixed-threshold greedy over the pending
  packets' vector cost; used by the concave lower-bound driver.

Every policy is the greedy rule "acknowledge once the pending packets'
delay cost reaches a target" with its own target.  Each keeps its model's
running aggregate (:func:`aggregate`), with pending arrivals measured from
the first pending one, and plans its ack at the aggregate's exact crossing
(:func:`threshold_time`).  None of them evaluates a cost on an explicit
delay list or bisects.
"""

from __future__ import annotations

import math
from abc import abstractmethod

from .cost import DelayModelSpec, Objective, aggregate, check_real, threshold_time
from .engine import OnlineAlgorithm
from .offline import DpTable
from .tolerance import tol_at


def _require(spec: DelayModelSpec, objective: Objective, who: str) -> None:
    if spec.objective is not objective:
        raise ValueError(
            f"{who} needs a {objective.value}-aggregated model, got {spec.kind!r}/{spec.objective.value}"
        )


class _ThresholdPolicy(OnlineAlgorithm):
    """Acknowledge once the pending packets' delay cost reaches ``_target()``.

    The cost is the model's running aggregate, with offsets measured from
    the first pending arrival.  Every arrival re-plans the ack time at the
    aggregate's crossing; every ack drops the plan and, by default, the
    pending packets from the aggregate.
    """

    def __init__(self, spec: DelayModelSpec):
        super().__init__(spec)
        self._aggregate = aggregate(spec)
        self._origin = 0.0
        self._planned: float | None = None

    @abstractmethod
    def _target(self) -> float:
        """Delay cost at which the pending packets are acknowledged."""

    def observe_arrival(self, time: float, index: int) -> None:
        now = float(time)
        if not self._pending:
            self._origin = now
        self._aggregate.add(now - self._origin)
        self._register_arrival(now, index)
        self._planned = threshold_time(self._aggregate, self._origin, self._target(), now)

    def planned_ack_time(self) -> float | None:
        return self._planned

    def commit_ack(self, time: float) -> list[int]:
        self._planned = None
        return super().commit_ack(time)

    def _after_ack(self, time: float) -> None:
        self._aggregate.clear()


class GreedyTau(_ThresholdPolicy):
    """Acknowledge once the pending batch's delay cost reaches ``tau``."""

    _objective = Objective.SUM_BATCH
    _who = "greedy_tau"

    def __init__(self, spec: DelayModelSpec, tau: float = 1.0):
        _require(spec, self._objective, self._who)
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError("tau must be positive and finite")
        super().__init__(spec)
        self.tau = float(tau)

    def _target(self) -> float:
        return self.tau


class GreedyMaxMonotone(_ThresholdPolicy):
    """For max-aggregated objectives: the i-th batch is held until its delay
    cost reaches i, so each ack raises the total cost by exactly one."""

    def __init__(self, spec: DelayModelSpec):
        _require(spec, Objective.MAX_BATCH, "max-monotone greedy")
        super().__init__(spec)
        self.acks_made = 0

    def _target(self) -> float:
        return float(self.acks_made + 1)

    def _after_ack(self, time: float) -> None:
        super()._after_ack(time)
        self.acks_made += 1


class GreedyBatchOblivious(_ThresholdPolicy):
    """For vector objectives: ack whenever the delay cost grows by 1.

    Delays of served packets are frozen at their ack time, in the aggregate;
    the trigger level is the cost at the last ack plus one.  A new arrival
    can jump the cost past the trigger (new coordinate), in which case the
    ack fires at the arrival itself.
    """

    def __init__(self, spec: DelayModelSpec):
        _require(spec, Objective.VECTOR, "batch-oblivious greedy")
        super().__init__(spec)
        self.baseline = 0.0

    def _target(self) -> float:
        return self.baseline + 1.0

    def _after_ack(self, time: float) -> None:
        self.baseline = self._aggregate.freeze(time - self._origin)


class VectorThresholdGreedy(GreedyTau):
    """Fixed-threshold greedy over the pending packets' vector cost.

    The vector-model counterpart of :class:`GreedyTau`: served packets drop
    out of the cost entirely and the trigger level stays ``tau``.
    """

    _objective = Objective.VECTOR
    _who = "vector threshold greedy"


class SumMonotonePhases(_ThresholdPolicy):
    """Phase-based policy for sum-aggregated monotone batch costs.

    Every arrival finds the longest critical suffix of all packets seen so
    far; its single-ack serve cost sets a budget.  A budget service acks
    once the pending delay cost reaches the budget and is followed by up to
    three buffer services at twice the budget, which promote back to a budget
    service only when a fresh critical suffix costs at least twice the
    recorded one.  Budgets are reassigned only when the critical batch is;
    the critical time is re-planned on every arrival.

    The policy pushes every arrival into one offline prefix DP
    (:class:`DpTable`) and asks it for the longest critical suffix.
    """

    IDLE, BUDGET, BUFFER = "idle", "budget", "buffer"

    def __init__(self, spec: DelayModelSpec):
        _require(spec, Objective.SUM_BATCH, "phase algorithm")
        super().__init__(spec)
        self._table = DpTable(spec)
        self.kind = self.IDLE
        self.buffer_index = 0
        self.suffix_start: int | None = None
        self.suffix_stop: int | None = None
        self.serve_cost = 0.0
        self.budget = 0.0

    def _target(self) -> float:
        # Service ends when bserve(pending, t) = bdelay + 1 reaches the budget.
        return self.budget - 1.0

    def _critical_suffix(self, time: float) -> tuple[int, float]:
        """Record an arrival; return the start of the longest critical suffix
        and that suffix's single-ack serve cost."""
        blocks = self._table.push(time)
        start = self._table.critical_start(blocks)
        return start, float(blocks[start]) + 1.0

    def _assign_critical(self, start: int, serve_cost: float) -> None:
        self.suffix_start = start
        self.suffix_stop = self._table.size
        self.serve_cost = serve_cost
        self.budget = 2.0 * serve_cost

    def observe_arrival(self, time: float, index: int) -> None:
        start, serve = self._critical_suffix(float(time))

        if self.kind == self.IDLE:
            self.kind = self.BUDGET
            self.buffer_index = 0
            self._assign_critical(start, serve)
            self._emit(
                "service_start",
                service="budget",
                budget=self.budget,
                serve_cost=serve,
                suffix_start=start,
            )
        elif self.kind == self.BUDGET:
            if self.suffix_start is not None and start <= self.suffix_start:
                old = self.budget
                self._assign_critical(start, serve)
                self._emit("budget_update", old=old, new=self.budget, serve_cost=serve)
        else:  # buffer service
            if serve >= 2.0 * self.serve_cost - tol_at(2.0 * self.serve_cost):
                self._assign_critical(start, serve)
                self.kind = self.BUDGET
                self.buffer_index = 0
                self._emit(
                    "promotion",
                    budget=self.budget,
                    serve_cost=serve,
                    suffix_start=start,
                )
        super().observe_arrival(time, index)

    def _after_ack(self, time: float) -> None:
        super()._after_ack(time)
        if self.kind == self.BUDGET:
            self.kind = self.BUFFER
            self.buffer_index = 1
            old = self.budget
            self.budget = 2.0 * old
            self._emit(
                "service_start",
                service="buffer",
                index=1,
                budget=self.budget,
                serve_cost=self.serve_cost,
            )
        elif self.kind == self.BUFFER and self.buffer_index < 3:
            self.buffer_index += 1
            self._emit(
                "service_start",
                service="buffer",
                index=self.buffer_index,
                budget=self.budget,
                serve_cost=self.serve_cost,
            )
        else:
            self.kind = self.IDLE
            self.buffer_index = 0
            self.suffix_start = None
            self.suffix_stop = None
            self.serve_cost = 0.0
            self.budget = 0.0


ALGORITHM_NAMES = ("greedy_tau", "max_mono", "vector_greedy", "phases", "greedy_tau_vector")


def make_algorithm(alg_spec: dict, model: DelayModelSpec) -> OnlineAlgorithm:
    """Build an algorithm from its JSON selector, validating model fit."""
    if not isinstance(alg_spec, dict) or "alg" not in alg_spec:
        raise ValueError("algorithm spec must be an object with an 'alg' field")
    name = alg_spec["alg"]
    if name == "greedy_tau":
        return GreedyTau(model, tau=check_real(alg_spec.get("tau", 1.0), "greedy_tau tau"))
    if name == "max_mono":
        return GreedyMaxMonotone(model)
    if name == "vector_greedy":
        return GreedyBatchOblivious(model)
    if name == "phases":
        return SumMonotonePhases(model)
    if name == "greedy_tau_vector":
        tau = check_real(alg_spec.get("tau", 1.0), "greedy_tau_vector tau")
        return VectorThresholdGreedy(model, tau=tau)
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
