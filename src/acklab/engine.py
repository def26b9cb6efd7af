"""Deterministic continuous-time simulation of online acknowledgment policies.

The simulator numbers the packets, keeps the run's one exact time order and
flushes at the end of input; algorithms own their trigger logic and expose
it via the :class:`OnlineAlgorithm` contract: observe arrivals, plan the
next ack, hear of each commit.  :class:`SimulationDriver` is the
incremental core so adaptive adversaries can interleave releases with the
algorithm's reactions; :func:`simulate` replays a fixed instance through it.
The driver keeps the one trace: arrivals, flushes, acks with the indices
they serve, and the policy's own events, which the policy reports through
the :meth:`OnlineAlgorithm.emit` callback the driver hands it, stamped with
the time of the arrival or ack they follow.  The callback holds the trace,
not the driver, so a finished run is freed without the cycle collector.
The engine solves no threshold equations and looks no further ahead than
the policy: each policy plans its own ack time at the exact crossing of its
cost, and :meth:`OnlineAlgorithm.planned_ack_time` is the only look-ahead.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .cost import DelayModelSpec, dump_json
from .model import Instance, Schedule


class EngineError(RuntimeError):
    """An algorithm violated the simulation contract."""


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulation event with a model-specific payload."""

    time: float
    kind: str
    detail: dict

    def to_json_line(self) -> str:
        return dump_json({"time": self.time, "kind": self.kind, "detail": self.detail})


class OnlineAlgorithm(ABC):
    """Behavioral contract for deterministic online acknowledgment policies.

    Implementations must be deterministic functions of the observation
    sequence, must never plan an ack in the past, and may only use arrivals
    observed so far.  The driver numbers the packets, and every ack serves
    all pending ones; subclasses extend :meth:`commit_ack` through ``super()``.
    """

    spec: DelayModelSpec

    def __init__(self, spec: DelayModelSpec):
        self.spec = spec

    # -- observation / commitment ------------------------------------------

    @abstractmethod
    def observe_arrival(self, time: float) -> None:
        """Called when the next packet arrives at ``time``."""

    @abstractmethod
    def planned_ack_time(self) -> float | None:
        """Next self-triggered ack time, or None if no ack is planned."""

    def commit_ack(self, time: float) -> None:
        """Called when the driver acknowledges every pending packet at ``time``."""

    # -- tracing -------------------------------------------------------------

    def emit(self, kind: str, **detail) -> None:
        """Report a policy event.  A :class:`SimulationDriver` replaces this
        with a callback that records it after the arrival or ack it follows,
        at that time; unattached, the event is dropped."""


class SimulationDriver:
    """Incremental event loop around one algorithm instance.

    Callers deliver arrivals in time order and the driver numbers them.  It
    commits the planned acks strictly before each delivery, so an arrival
    and an ack at the same instant process the arrival first, and raises
    :class:`EngineError` on a plan before ``now`` or an arrival before
    ``now`` or at a committed ack's time.  Each ``ack`` trace event lists
    the indices it serves, ``pending``; the algorithm's events follow it.
    """

    def __init__(self, algorithm: OnlineAlgorithm):
        self.algorithm = algorithm
        self.now = 0.0
        self.served = 0
        self.delivered = 0
        self.ack_times: list[float] = []
        self.trace: list[TraceEvent] = []
        trace = self.trace

        def record(kind: str, **detail) -> None:  # holds no reference to the driver
            trace.append(TraceEvent(trace[-1].time, kind, detail))

        algorithm.emit = record

    @property
    def pending(self) -> range:
        return range(self.served, self.delivered)

    def _planned(self) -> float | None:
        t = self.algorithm.planned_ack_time()
        if t is not None and not t >= self.now:
            raise EngineError(f"algorithm planned ack at {t!r} before {self.now!r}")
        return t

    def _commit(self, t: float) -> None:
        if not self.pending:
            raise EngineError(f"ack at {t!r} served no pending packet")
        self.now = t
        self.trace.append(TraceEvent(t, "ack", {"indices": list(self.pending)}))
        self.served = self.delivered
        self.algorithm.commit_ack(t)
        self.ack_times.append(t)

    def run_until(self, t_limit: float) -> None:
        """Commit planned acks strictly before ``t_limit``."""
        while True:
            t = self._planned()
            if t is None or t >= t_limit:
                return
            self._commit(t)

    def deliver(self, time: float) -> None:
        """Advance to ``time`` and hand the next packet to the algorithm."""
        if not time >= self.now or (self.ack_times and time == self.ack_times[-1]):
            raise EngineError(f"arrival at {time!r} is out of order at {self.now!r}")
        self.run_until(time)
        self.now = time
        self.trace.append(TraceEvent(time, "arrival", {"index": self.delivered}))
        self.delivered += 1
        self.algorithm.observe_arrival(time)

    def finish(self, horizon: float) -> None:
        """Run remaining planned acks (possibly past the horizon), then flush.

        The algorithm never learns the input ended; if packets are pending
        but no ack is planned, the driver issues one flush ack at
        ``max(horizon, now)`` — the earliest legal time.
        """
        self.run_until(math.inf)
        if self.pending:
            t = max(horizon, self.now)
            self.trace.append(TraceEvent(t, "flush", {}))
            self._commit(t)


def simulate(
    instance: Instance, algorithm: OnlineAlgorithm
) -> tuple[Schedule, list[TraceEvent]]:
    """Run the algorithm over the instance; returns its schedule and trace."""
    if algorithm.spec != instance.model:
        raise EngineError("algorithm was built for a different delay model")
    driver = SimulationDriver(algorithm)
    for a in instance.arrivals:
        driver.deliver(a)
    driver.finish(instance.effective_horizon)
    return Schedule(tuple(driver.ack_times)), driver.trace
