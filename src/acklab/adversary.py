"""Lower-bound machinery.

* :func:`gen_greedy_tau_hard` — the arrival family on which fixed-threshold
  greedy pays a factor-n more than the offline optimum, and
  :func:`run_greedy_tau_adversary`, which plays a policy on it.
* :func:`run_concave_adversary` — the adaptive two-branch adversary for
  concave vector costs.
* The permit reduction: :class:`TcpPermitAdapter` (which rounds each wait
  up to a permit class with :func:`acklab.cost.plf_round_up`),
  :func:`run_pp_adversary`, :func:`permit_cover_optimal`, and
  :func:`permits_to_tcp_schedule`.

Permit timelines are exact integers (spans grow geometrically under the
adversary and quickly exceed float precision for consecutive timestamps);
the acknowledgment simulation runs on the float images of those integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .cost import (
    DelayModelSpec,
    capped_linear,
    concave_two_piece,
    plf_eval,
    plf_round_up,
)
from .engine import OnlineAlgorithm, SimulationDriver, simulate
from .model import Instance, Schedule, evaluate_schedule
from .offline import dp_optimal


class ProtocolViolation(RuntimeError):
    """A permit algorithm failed to cover a request, or charging failed."""


@dataclass(frozen=True)
class Permit:
    """A permit of class ``k`` bought at ``start``: cost 2**k, covers
    ``[start, start + 4**k]`` (closed interval, exact integers)."""

    start: int
    k: int

    @property
    def cost(self) -> int:
        return 2 ** self.k

    @property
    def duration(self) -> int:
        return 4 ** self.k

    @property
    def end(self) -> int:
        return self.start + self.duration

    def covers(self, t: int) -> bool:
        return self.start <= t <= self.end


@dataclass
class PermitAccount:
    """Purchased permits and their running cost.

    Coverage queries go through the union of the permits' intervals, kept as
    sorted disjoint closed intervals and updated with each permit appended
    to ``permits``, so a query costs a binary search instead of a scan.
    """

    permits: list[Permit] = field(default_factory=list)
    _starts: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _ends: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _merged: int = field(default=0, init=False, repr=False, compare=False)
    _frontier: int = field(default=1, init=False, repr=False, compare=False)

    def add(self, permit: Permit) -> None:
        self.permits.append(permit)

    @property
    def total_cost(self) -> int:
        return sum(p.cost for p in self.permits)

    def _sync(self) -> None:
        """Merge the permits appended since the last query into the union."""
        starts, ends = self._starts, self._ends
        for permit in self.permits[self._merged :]:
            lo, hi = permit.start, permit.end
            i = bisect_left(ends, lo)  # first interval that can touch [lo, hi]
            j = i
            while j < len(starts) and starts[j] <= hi:
                lo, hi = min(lo, starts[j]), max(hi, ends[j])
                j += 1
            starts[i:j] = [lo]
            ends[i:j] = [hi]
        self._merged = len(self.permits)

    def covers(self, t: int) -> bool:
        self._sync()
        i = bisect_right(self._starts, t) - 1
        return i >= 0 and t <= self._ends[i]

    def earliest_uncovered(self) -> int:
        """Smallest integer time ``t >= 1`` that no permit covers."""
        self._sync()
        # Coverage only grows, so the answer never moves back.
        t = self._frontier
        while True:
            i = bisect_right(self._starts, t) - 1
            if i < 0 or self._ends[i] < t:
                break
            t = self._ends[i] + 1
        self._frontier = t
        return t


# ---------------------------------------------------------------------------
# Greedy blow-up family
# ---------------------------------------------------------------------------

def gen_greedy_tau_hard(n: int, tau: float, eps: float) -> Instance:
    """Arrivals ``i * (tau + eps)`` under the tau-capped linear model.

    Fixed-threshold greedy acks each packet alone tau after its arrival while
    one final ack serves everything for ``1 + tau``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    if not 0 < eps < tau:
        raise ValueError("eps must satisfy 0 < eps < tau")
    arrivals = tuple(i * (tau + eps) for i in range(1, n + 1))
    return Instance(arrivals, capped_linear(tau))


def run_greedy_tau_adversary(
    algorithm_factory: Callable[[DelayModelSpec], OnlineAlgorithm], n: int, tau: float, eps: float
) -> tuple[float, float]:
    """Play a policy on :func:`gen_greedy_tau_hard`'s instance and return its
    cost and the instance's optimum, the prefix DP's.  The family's
    parameters are checked before the policy is built."""
    instance = gen_greedy_tau_hard(n, tau, eps)
    schedule = simulate(instance, algorithm_factory(instance.model))
    alg_cost = evaluate_schedule(instance, schedule).total
    return alg_cost, dp_optimal(instance.arrivals, instance.model)[0]


# ---------------------------------------------------------------------------
# Adaptive concave adversary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcaveAdversaryReport:
    n: int
    prefix_len: int
    eps: float
    branch: int
    early_acks: int
    alg_cost: float
    comparison_cost: float
    comparison_cost_closed_form: float
    ratio: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ell": self.prefix_len,
            "eps": self.eps,
            "branch": self.branch,
            "early_acks": self.early_acks,
            "alg_cost": self.alg_cost,
            "comparison_cost": self.comparison_cost,
            "comparison_cost_closed_form": self.comparison_cost_closed_form,
            "ratio": self.ratio,
        }


def run_concave_adversary(
    algorithm_factory: Callable[[DelayModelSpec], OnlineAlgorithm], n: int
) -> ConcaveAdversaryReport:
    """Drive an algorithm through the adaptive concave lower-bound game.

    Packets 1..ell are released at unit times; the count of acks committed
    strictly before time ell+1 picks the branch.  Branch 1 dumps the
    remaining packets at ell+1 and compares against the single ack at ell+1;
    branch 2 keeps unit-time releases and compares against acking each of the
    first ell packets on arrival plus one final ack at time n.
    """
    if n < 4:
        raise ValueError("the adversary needs n >= 4")
    ell = math.isqrt(n)
    if ell * ell < n:
        ell += 1
    eps = 1.0 / n ** 2
    spec = concave_two_piece(ell, eps, n)
    alg = algorithm_factory(spec)
    driver = SimulationDriver(alg)

    prefix = [float(i) for i in range(1, ell + 1)]
    for a in prefix:
        driver.deliver(a)
    driver.run_until(float(ell + 1))
    early_acks = len(driver.ack_times)

    if early_acks >= ell / 2:
        branch = 1
        arrivals = prefix + [float(ell + 1)] * (n - ell)
        comparison = Schedule((float(ell + 1),))
        closed = 1.0 + eps * ell * (ell + 1) / 2.0
    else:
        branch = 2
        arrivals = prefix + [float(i) for i in range(ell + 1, n + 1)]
        comparison = Schedule((*prefix, float(n)))
        tail = n - ell
        closed = (ell + 1) + eps * tail * (tail - 1) / 2.0
    for a in arrivals[ell:]:
        driver.deliver(a)

    instance = Instance(tuple(arrivals), spec)
    driver.finish(instance.effective_horizon)
    alg_cost = evaluate_schedule(instance, Schedule(tuple(driver.ack_times))).total
    comparison_cost = evaluate_schedule(instance, comparison).total
    return ConcaveAdversaryReport(
        n=n,
        prefix_len=ell,
        eps=eps,
        branch=branch,
        early_acks=early_acks,
        alg_cost=alg_cost,
        comparison_cost=comparison_cost,
        comparison_cost_closed_form=closed,
        ratio=alg_cost / comparison_cost,
    )


# ---------------------------------------------------------------------------
# The permit reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermitPurchase:
    """One adversary round: the request and the permits bought for it."""

    request: int
    permits: tuple[Permit, ...]


class TcpPermitAdapter:
    """Permit strategy derived from an acknowledgment algorithm.

    For each uncovered request the adapter forwards the arrival to the
    algorithm and reads its planned ack time: every ack serves all pending
    packets, so that is when the request would be acknowledged absent
    further input.  It rounds that waiting span up to a permit class and
    buys one permit starting at the request.
    """

    def __init__(self, algorithm: OnlineAlgorithm):
        self.driver = SimulationDriver(algorithm)
        self.account = PermitAccount()
        self.next_times: list[float] = []

    def on_request(self, t: int) -> Permit:
        ft = float(t)
        self.driver.deliver(ft)
        nt = self.driver.algorithm.planned_ack_time()
        if nt is None:
            # The algorithm would hold the packet until a flush; treat the
            # wait as zero and buy the smallest permit.
            nt = ft
        permit = Permit(start=t, k=plf_round_up(max(0.0, nt - ft)))
        self.account.add(permit)
        self.next_times.append(nt)
        return permit


@dataclass(frozen=True)
class PPAdversaryReport:
    request_times: tuple[int, ...]
    purchases: tuple[PermitPurchase, ...]
    total_cost: int

    @property
    def chained(self) -> bool:
        """True when each request lands right after the previous permit ends."""
        for prev, nxt in zip(self.purchases, self.request_times[1:]):
            if len(prev.permits) != 1 or nxt != prev.permits[0].end + 1:
                return False
        return True


def run_pp_adversary(permit_algorithm, n_requests: int) -> PPAdversaryReport:
    """Feed the algorithm requests at the earliest uncovered timesteps.

    After each request the algorithm must have covered it; the report records
    the per-request purchases so callers can check the chained structure
    produced by acknowledgment-derived strategies.
    """
    if n_requests < 1:
        raise ValueError("need at least one request")
    account: PermitAccount = permit_algorithm.account
    requests: list[int] = []
    purchases: list[PermitPurchase] = []
    for _ in range(n_requests):
        t = account.earliest_uncovered()
        before = len(account.permits)
        permit_algorithm.on_request(t)
        if not account.covers(t):
            raise ProtocolViolation(f"request at {t} left uncovered")
        bought = tuple(account.permits[before:])
        requests.append(t)
        purchases.append(PermitPurchase(t, bought))
    return PPAdversaryReport(tuple(requests), tuple(purchases), account.total_cost)


def permit_cover_optimal(request_times: Sequence[int]) -> tuple[int, list[Permit]]:
    """Exact cheapest permit cover of the given request times.

    Permits start at the first uncovered request (WLOG); the DP scans classes
    up to the smallest duration spanning the whole request range.
    """
    times = sorted(int(t) for t in request_times)
    m = len(times)
    if m == 0:
        return 0, []
    k_max = plf_round_up(times[-1] - times[0])
    best = [0] * (m + 1)
    pick = [0] * m
    for i in range(m - 1, -1, -1):
        best_cost = None
        for k in range(k_max + 1):
            nxt = bisect_right(times, times[i] + 4 ** k, lo=i)
            cost = 2 ** k + best[nxt]
            if best_cost is None or cost < best_cost:
                best_cost = cost
                pick[i] = k
        best[i] = best_cost
    permits = []
    i = 0
    while i < m:
        permit = Permit(start=times[i], k=pick[i])
        permits.append(permit)
        i = bisect_right(times, permit.end, lo=i)
    return best[0], permits


def permits_to_tcp_schedule(
    permits: Sequence[Permit], arrivals: Sequence[int]
) -> Schedule:
    """Convert a permit cover into an acknowledgment schedule.

    Repeatedly acknowledge the earliest unserved packet at the furthest end
    time among permits covering it.  Each batch's full cost is charged (and
    checked) against twice the cost of the permit providing that end time.
    """
    times = sorted(int(a) for a in arrivals)
    acks: list[int] = []
    i = 0
    while i < len(times):
        a = times[i]
        covering = [p for p in permits if p.covers(a)]
        if not covering:
            raise ProtocolViolation(f"arrival at {a} not covered by any permit")
        charged = max(covering, key=lambda p: (p.end, p.k))
        t = charged.end
        batch_cost = plf_eval(float(t - a), num_classes=None)
        if batch_cost > 2.0 * charged.cost * (1 + 1e-12):
            raise ProtocolViolation(
                f"batch at {t} costs {batch_cost} > twice permit cost {charged.cost}"
            )
        acks.append(t)
        i = bisect_right(times, t, lo=i)
    return Schedule(tuple(float(t) for t in acks))
