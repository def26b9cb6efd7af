"""Online acknowledgment policies.

Four policies:

* :class:`GreedyTau` — ack when the pending packets' delay cost reaches a
  fixed threshold (tau = 1 is the classic greedy), under sum-aggregated and
  vector models alike.
* :class:`GreedyMaxMonotone` — for max-aggregated objectives: the i-th ack
  fires when the pending batch's delay cost reaches i.
* :class:`GreedyBatchOblivious` — for vector objectives: ack whenever the
  global delay cost has grown by 1 since the last ack.
* :class:`SumMonotonePhases` — budget/buffer phase algorithm driven by the
  offline suffix DP; logarithmically competitive for sum-aggregated models.
  Its state in a phase is one service counter.

Every policy is the greedy rule "acknowledge once the pending packets'
delay cost reaches a target" with its own target.  Each keeps its model's
running aggregate (:func:`aggregate`), with pending arrivals measured from
the first pending one, and plans its ack at the aggregate's exact crossing
(:func:`threshold_time`).  None of them evaluates a cost on an explicit
delay list or bisects, and the planned ack time is all a caller needs to
look ahead: with no further arrivals, it is when every pending packet is
acknowledged.  The simulation driver, not the policy, keeps the pending
packets.
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
    the first pending arrival, ``_origin``, which is None while nothing is
    pending.  Every arrival re-plans the ack time at the aggregate's
    crossing; every ack drops the plan and the pending packets from the
    aggregate.
    """

    def __init__(self, spec: DelayModelSpec):
        super().__init__(spec)
        self._aggregate = aggregate(spec)
        self._origin: float | None = None
        self._planned: float | None = None

    @abstractmethod
    def _target(self) -> float:
        """Delay cost at which the pending packets are acknowledged."""

    def observe_arrival(self, time: float) -> None:
        now = float(time)
        if self._origin is None:
            self._origin = now
        self._aggregate.add(now - self._origin)
        self._planned = threshold_time(self._aggregate, self._origin, self._target(), now)

    def planned_ack_time(self) -> float | None:
        return self._planned

    def commit_ack(self, time: float) -> None:
        self._planned = None
        self._origin = None
        self._aggregate.clear()


class GreedyTau(_ThresholdPolicy):
    """Acknowledge once the pending packets' delay cost reaches ``tau``.

    Under a sum-aggregated model the cost is the pending batch's; under a
    vector model it is the pending packets' vector cost, and served packets
    drop out of it entirely.
    """

    def __init__(self, spec: DelayModelSpec, tau: float = 1.0):
        if spec.objective is Objective.MAX_BATCH:
            raise ValueError(
                "greedy_tau needs a sum-aggregated or vector model, "
                f"got {spec.kind!r}/{spec.objective.value}"
            )
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

    def commit_ack(self, time: float) -> None:
        super().commit_ack(time)
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

    def commit_ack(self, time: float) -> None:
        self.baseline = self._aggregate.freeze(time - self._origin)
        super().commit_ack(time)


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
    (:class:`DpTable`), asks it for the longest critical suffix and reads
    that suffix's serve cost with :meth:`DpTable.single`.  Only
    ``max_wait_pow`` builds block columns and rows on the way.  Under
    ``permit_plf``, and ``max_wait`` as its class 0, the critical suffix
    starts at the DP's last-batch start, so an arrival costs amortised
    O(classes) however long the prefix.  ``service`` is None between
    phases, 0 in a budget service and 1-3 in a buffer service.
    """

    def __init__(self, spec: DelayModelSpec):
        _require(spec, Objective.SUM_BATCH, "phase algorithm")
        super().__init__(spec)
        self._table = DpTable(spec)
        self.service: int | None = None
        self.suffix_start = 0
        self.serve_cost = 0.0

    @property
    def budget(self) -> float:
        """Twice the recorded serve cost in a budget service, four times in
        a buffer service."""
        return (2.0 if self.service == 0 else 4.0) * self.serve_cost

    def _target(self) -> float:
        # Service ends when bserve(pending, t) = bdelay + 1 reaches the budget.
        return self.budget - 1.0

    def _critical_suffix(self, time: float) -> tuple[int, float]:
        """Record an arrival; return the start of the longest critical suffix
        and that suffix's single-ack serve cost."""
        table = self._table
        table.push(time)
        start = table.critical_start()
        return start, table.single(start)

    def observe_arrival(self, time: float) -> None:
        start, serve = self._critical_suffix(float(time))

        if self.service is None:
            self.service = 0
            self.suffix_start, self.serve_cost = start, serve
            self.emit(
                time,
                "service_start",
                service="budget",
                budget=self.budget,
                serve_cost=serve,
                suffix_start=start,
            )
        elif self.service == 0:
            if start <= self.suffix_start:
                old = self.budget
                self.suffix_start, self.serve_cost = start, serve
                self.emit(time, "budget_update", old=old, new=self.budget, serve_cost=serve)
        elif serve >= 2.0 * self.serve_cost - tol_at(2.0 * self.serve_cost):
            self.suffix_start, self.serve_cost = start, serve
            self.service = 0
            self.emit(
                time,
                "promotion",
                budget=self.budget,
                serve_cost=serve,
                suffix_start=start,
            )
        super().observe_arrival(time)

    def commit_ack(self, time: float) -> None:
        super().commit_ack(time)
        if self.service == 3:
            self.service = None
            return
        self.service += 1
        self.emit(
            time,
            "service_start",
            service="buffer",
            index=self.service,
            budget=self.budget,
            serve_cost=self.serve_cost,
        )


# Selector name -> (policy, the parameters it takes with their defaults).
# ``greedy_tau_vector`` is another name for ``greedy_tau``.
ALGORITHMS: dict[str, tuple[type[OnlineAlgorithm], dict[str, float]]] = {
    "greedy_tau": (GreedyTau, {"tau": 1.0}),
    "max_mono": (GreedyMaxMonotone, {}),
    "vector_greedy": (GreedyBatchOblivious, {}),
    "phases": (SumMonotonePhases, {}),
    "greedy_tau_vector": (GreedyTau, {"tau": 1.0}),
}
ALGORITHM_NAMES = tuple(ALGORITHMS)


def make_algorithm(alg_spec: dict, model: DelayModelSpec) -> OnlineAlgorithm:
    """Build an algorithm from its JSON selector, validating its keys and
    the model fit."""
    if not isinstance(alg_spec, dict) or "alg" not in alg_spec:
        raise ValueError("algorithm spec must be an object with an 'alg' field")
    name = alg_spec["alg"]
    if name not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
    cls, defaults = ALGORITHMS[name]
    unknown = set(alg_spec) - {"alg", *defaults}
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ValueError(f"algorithm {name!r} takes no key {names}")
    return cls(model, **{
        key: check_real(alg_spec.get(key, default), f"{name} {key}")
        for key, default in defaults.items()
    })
