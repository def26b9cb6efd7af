"""Deterministic continuous-time simulation of online acknowledgment policies.

The simulator numbers the packets, keeps the run's one exact time order and
flushes at the end of input; algorithms own their trigger logic and expose
it via the :class:`OnlineAlgorithm` contract: observe arrivals, plan the
next ack, hear of each commit.  :class:`SimulationDriver` is the
incremental core so adaptive adversaries can interleave releases with the
algorithm's reactions; :func:`simulate` replays a fixed instance through it.
The driver keeps only the ack times.  Given a sink, a callable that takes
one :class:`TraceEvent` (``events.append``, or a function that writes a
line), it writes the trace to it as it goes: arrivals, flushes, acks with
the indices they serve, and the policy's own events.  A policy reports
those through :meth:`OnlineAlgorithm.emit`, passing the time of the arrival
or ack it is handling; the driver replaces ``emit`` with a callback that
holds only the sink, so a finished run is freed without the cycle
collector.  With no sink ``emit`` stays the class's no-op.
The engine solves no threshold equations and looks no further ahead than
the policy: each policy plans its own ack time at the exact crossing of its
cost, and :meth:`OnlineAlgorithm.planned_ack_time` is the only look-ahead.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

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

    def emit(self, time: float, kind: str, **detail) -> None:
        """Report a policy event at ``time``, the arrival or ack being
        handled.  A :class:`SimulationDriver` with a sink replaces this with
        a callback that writes it; with no sink, the event is dropped."""


Sink = Callable[[TraceEvent], None]


class SimulationDriver:
    """Incremental event loop around one algorithm instance.

    Callers deliver arrivals in time order and the driver numbers them.  It
    commits the planned acks strictly before each delivery, so an arrival
    and an ack at the same instant process the arrival first, and raises
    :class:`EngineError` on a plan before ``now`` or an arrival before
    ``now`` or at a committed ack's time.  Given a ``sink``, it writes each
    event to it as it handles it; each ``ack`` event lists the indices it
    serves, ``pending``, and the algorithm's events follow it.
    """

    def __init__(self, algorithm: OnlineAlgorithm, sink: Sink | None = None):
        self.algorithm = algorithm
        self.now = 0.0
        self.served = 0
        self.delivered = 0
        self.ack_times: list[float] = []
        self._sink = sink
        if sink is not None:
            # Holds the sink alone, not the driver.
            algorithm.emit = lambda time, kind, **detail: sink(TraceEvent(time, kind, detail))

    @property
    def pending(self) -> range:
        return range(self.served, self.delivered)

    def _planned(self) -> float | None:
        t = self.algorithm.planned_ack_time()
        if t is not None and not t >= self.now:
            raise EngineError(f"algorithm planned ack at {t!r} before {self.now!r}")
        return t

    def _commit(self, t: float) -> None:
        if self.served == self.delivered:
            raise EngineError(f"ack at {t!r} served no pending packet")
        self.now = t
        if self._sink is not None:
            self._sink(TraceEvent(t, "ack", {"indices": list(self.pending)}))
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
        if self._sink is not None:
            self._sink(TraceEvent(time, "arrival", {"index": self.delivered}))
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
            if self._sink is not None:
                self._sink(TraceEvent(t, "flush", {}))
            self._commit(t)


def simulate(
    instance: Instance, algorithm: OnlineAlgorithm, sink: Sink | None = None
) -> Schedule:
    """Run the algorithm over the instance and return its schedule; the
    trace goes to ``sink`` as it is made, or nowhere."""
    if algorithm.spec != instance.model:
        raise EngineError("algorithm was built for a different delay model")
    driver = SimulationDriver(algorithm, sink)
    for a in instance.arrivals:
        driver.deliver(a)
    driver.finish(instance.effective_horizon)
    return Schedule(driver.ack_times)
