"""Exact offline solvers for the acknowledgment batching problem.

* :class:`DpTable` / :func:`dp_optimal` — prefix DP for sum-aggregated
  batch models, acknowledging each batch at its last packet's arrival (WLOG
  for monotone batch costs: moving an ack earlier onto the batch's last
  arrival never increases cost).  A step costs amortised O(1) under
  ``linear_sum`` and ``capped_linear`` (a monotone hull) and O(classes)
  under ``permit_plf`` and ``max_wait``, its class 0 (a running minimum per
  class); ``max_wait_pow`` still costs a whole block column, O(n) per
  step.  The table grows one arrival at a time, keeping each per-arrival
  fact once in a flat :class:`array.array` buffer, and holds the one
  critical-suffix search: the phase-based online algorithm asks it for the
  longest suffix whose optimum is a single acknowledgment after every
  arrival.
* :func:`longest_critical_suffix` — push a fixed arrival list into a fresh
  :class:`DpTable` and ask it for its longest critical suffix.
* :func:`brute_force_optimal` — enumeration over all contiguous partitions,
  in NumPy chunks of cut masks with one matrix row per partition; the
  independent oracle for every objective kind (and the only exact one for
  max- and vector-aggregated objectives), up to n = 22.
* :func:`exact_optimum` — the oracle rule of ``ack solve`` and ``ack
  bench``: the DP for sum objectives, brute force for the others, unless
  one of them is named.

The DP and suffix kernels work on arrival times minus the first arrival, so
their costs keep their digits however far from zero the instance lies.  A
table binds its model's block kernel once (:func:`acklab.cost.cost_kernel`),
for Python floats and for NumPy arrays.  Only ``max_wait_pow`` costs block
columns and rows: a whole column per step and a whole row per scanned
start, which on dense arrivals run to hundreds of blocks.  The other kinds
cost one block at a time on floats wherever the DP stores a value, reads a
single-ack cost or, under the sum-wait kinds, scans for the critical
suffix.  The class kinds (``permit_plf``, and ``max_wait`` as class 0)
cost a span alone, concave and non-decreasing in it, and for such a cost
the longest critical suffix starts at the DP's own last-batch start, so
their search reads it off the table in O(1).  No search keeps state for
the next one.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from itertools import count
from typing import Sequence

import numpy as np

from .cost import (
    ARRAY_OPS,
    DelayModelSpec,
    Objective,
    SUM_WAIT_KINDS,
    bdelay_kernel,
    cost_kernel,
    f_rows,
    linear_sum,
    plf_round_up,
)
from .model import Schedule, check_arrivals
from .tolerance import tol_at


_MASK_CHUNK = 1 << 14  # cut masks per NumPy chunk in brute_force_optimal
_UNIT_ROUNDOFF = 2.0**-53  # the largest relative error of one float rounding


class BruteForceInfeasibleError(ValueError):
    """Instance too large for exhaustive partition enumeration."""


class DpTable:
    """Prefix DP values and back-pointers of a growing arrival sequence.

    For ``i <= size``, ``values[i]`` is the optimal cost of serving the first
    ``i`` packets and ``choice[i]`` the start index of the last batch in that
    optimum.  Each per-arrival fact is kept once, in a flat buffer that
    :meth:`push` appends to: ``values`` and the arrival offsets ``a`` (minus
    the first arrival) and prefix sums ``S`` as ``array("d")``, ``choice``
    as ``array("q")``.  The loops read them as Python floats and ints; the
    NumPy passes (the class join, the column step and the row scan) take
    zero-copy ``np.frombuffer`` views.  An ``array`` that exports a buffer
    cannot grow and raises BufferError, so no view may outlive the call that
    makes it: the row scan's generator holds one until
    :meth:`critical_start` returns.

    A step chooses the new arrival's last-batch start ``j`` and stores
    ``values[j] + cost(block j..i) + 1``, where ``cost`` is the model's
    block kernel, bound once for floats and once for arrays.  How it chooses
    depends on the kind:

    * ``linear_sum``: block ``j..i`` at arrival ``x`` costs
      ``(i - j + 1)·x - (S[i+1] - S[j])``, so ``j`` minimises the line
      ``values[j] + S[j] - j·x``.  The lines come in falling slope and ``x``
      never falls, so a monotone lower hull answers in amortised O(1): the
      head is popped only when the next line is strictly better, and ties
      keep the smallest ``j``, as a first minimum does.
    * ``capped_linear``: ``min(linear, tau)`` distributes over the minimum,
      and ``values[0] = 0`` is the least value, so the step is the linear
      hull's minimum, or start 0 at the cap when the cap is no larger.
    * ``permit_plf``: the price curve is a minimum of one affine function of
      the span per class k, so ``j`` minimises ``values[j] - a_j·2**-k``
      for some k: one running minimum per class, for the classes
      ``0..min(K, plf_round_up(span))``.  A class that joins as the
      span grows is filled once from the past starts.  Starts whose class
      value lies within :func:`tol_at` of the best are decided by the
      stored formula, ties by the smaller start.  The critical-suffix
      search reads its answer off ``choice`` (:meth:`critical_start`).
    * ``max_wait``: a block's delay is its span, permit class 0's cost, so
      the step and the critical-suffix search are ``permit_plf``'s with
      class 0 alone (K = 0).
    * ``max_wait_pow`` costs the whole block column ``0..i`` with the array
      kernel and takes its first minimum; :meth:`single` and the
      critical-suffix scan read that column, and the scan costs rows as
      arrays too, since NumPy's power and Python's can round a block apart.
    """

    def __init__(self, spec: DelayModelSpec):
        if spec.objective is not Objective.SUM_BATCH:
            raise ValueError(
                "the prefix DP requires a sum-aggregated batch model, "
                f"got {spec.kind!r}/{spec.objective.value}"
            )
        self.spec = spec
        self.size = 0  # arrivals pushed
        self._origin = 0.0
        self.values = array("d", [0.0])
        self.choice = array("q", [0])
        self._sums = array("d", [0.0])  # S[0..size]
        self._firsts = array("d")  # a[0..size-1]
        self._column: np.ndarray | None = None  # the last block column (max_wait_pow)
        self._num_classes: int | None = None  # K of the class kinds, else None
        self._cost = cost_kernel(spec)  # cost(m, total, first, t) of one block
        # A plain function, called with the table: a bound method stored on
        # the table would tie it into a reference cycle.
        if spec.kind in SUM_WAIT_KINDS:
            self._step = DpTable._hull_step
            linear = spec.kind == "linear_sum"
            self._linear = self._cost if linear else cost_kernel(linear_sum())
            self._lines: deque[tuple[float, int]] = deque()  # (values[j] + S[j], start j)
        elif spec.kind in ("permit_plf", "max_wait"):
            # max_wait's batch delay is its span: permit class 0 alone.
            self._step = DpTable._class_step
            self._num_classes = spec.num_classes if spec.kind == "permit_plf" else 0
            self._slopes: list[float] = []  # 2**-k per class k kept
            self._class_min: list[float] = []  # min_j values[j] - a_j * 2**-k
            self._class_arg: list[int] = []  # its first minimising start
            self._covered = -1  # largest span the classes kept serve in full
        else:
            self._step = DpTable._column_step
            # The block kernel of an array.  max_wait_pow's cost reads the
            # first arrival and the ack time alone, so callers pass 0.0 for
            # size and arrival sum.
            self._blocks = cost_kernel(spec, ARRAY_OPS)

    def push(self, time: float) -> None:
        """Add an arrival no earlier than the last one and fill its DP entry."""
        i = self.size
        if i == 0:
            self._origin = time
        x = float(time - self._origin)
        total = self._sums[i] + x
        self._firsts.append(x)
        self._sums.append(total)
        j, value = self._step(self, i, x, total)
        self.values.append(value)
        self.choice.append(j)
        self.size = i + 1

    def _cand(self, cost, j: int, i: int, x: float, total: float) -> float:
        """``values[j]`` plus the serve cost of block ``j..i`` at ``x`` under
        the block kernel ``cost``: the DP entry that last-batch start ``j``
        gives arrival ``i``."""
        before, first = self._sums[j], self._firsts[j]
        return self.values[j] + cost(float(i - j + 1), total - before, first, x) + 1.0

    def _hull_step(self, i: int, x: float, total: float) -> tuple[int, float]:
        lines, cand, linear = self._lines, self._cand, self._linear
        b = self.values[i] + self._sums[i]
        # Line j2 is never the first minimum once line i meets line j1 no
        # later than j2 does.
        while len(lines) >= 2:
            b1, j1 = lines[-2]
            b2, j2 = lines[-1]
            if (b - b1) * (j2 - j1) <= (b2 - b1) * (i - j1):
                lines.pop()
            else:
                break
        lines.append((b, i))
        # The head is the first minimum of the stored formula among the lines.
        j = lines[0][1]
        best = cand(linear, j, i, x, total)
        while len(lines) >= 2:
            nxt = cand(linear, lines[1][1], i, x, total)
            if not nxt < best:
                break
            lines.popleft()
            j, best = lines[0][1], nxt
        if self._cost is linear:
            return j, best
        capped = cand(self._cost, j, i, x, total)
        whole = cand(self._cost, 0, i, x, total)
        return (0, whole) if whole <= capped else (j, capped)

    def _class_step(self, i: int, x: float, total: float) -> tuple[int, float]:
        mins, args, slopes = self._class_min, self._class_arg, self._slopes
        own = self.values[i]
        if x > self._covered:
            top, self._covered = _permit_classes(x, self._num_classes)
            values, firsts = np.frombuffer(self.values), np.frombuffer(self._firsts)
            for k in range(len(mins), top + 1):
                slopes.append(2.0 ** -k)
                past = values - firsts * slopes[k]
                j = int(np.argmin(past))
                mins.append(float(past[j]))
                args.append(j)
        # Class k serves block j..i for (values[j] - a_j 2**-k) + 2**k + x 2**-k.
        cls = []
        for k, w in enumerate(slopes):
            xw = x * w
            if own - xw < mins[k]:
                mins[k], args[k] = own - xw, i
            cls.append(mins[k] + (1.0 / w + xw))
        low = min(cls)
        bound = low + tol_at(low)
        near = [args[k] for k, c in enumerate(cls) if c <= bound]
        value, j = min((self._cand(self._cost, j, i, x, total), j) for j in near)
        return j, value

    def _column_step(self, i: int, x: float, total: float) -> tuple[int, float]:
        self._column = blocks = self._blocks(0.0, 0.0, np.frombuffer(self._firsts), x)
        cand = np.frombuffer(self.values) + blocks + 1.0
        j = int(np.argmin(cand))  # first minimum: ties prefer the larger batch
        return j, float(cand[j])

    def single(self, p: int) -> float:
        """Serve cost of packets ``p..size-1`` in one batch acknowledged at
        the last arrival: its delay plus 1."""
        if self._column is not None:
            return float(self._column[p]) + 1.0
        n, sums, firsts = self.size, self._sums, self._firsts
        return self._cost(float(n - p), sums[n] - sums[p], firsts[p], firsts[n - 1]) + 1.0

    def _block_optima(self):
        """Yield the first certified start, then ``(p, G[p])`` for the
        starts ``p`` before it, right to left, where ``G[p]`` is the optimum
        of packets ``p..n-1`` on their own, costing one block at a time on
        Python floats.

        The walk left from the last packet certifies each start whose
        single-ack cost, its optimum, is at most 2.  ``suffix[k]`` is
        ``G[n - k]``: 0 for no packets, each certified cost, each optimum."""
        n, cost, sums, firsts = self.size, self._cost, self._sums, self._firsts
        suffix, certified = [0.0], n
        while certified and (g := self.single(certified - 1)) <= 2.0:
            suffix.append(g)
            certified -= 1
        yield certified
        for p in range(certified - 1, -1, -1):
            # A first block p..q of m packets acknowledged at a_q, then
            # G[q + 1]; reversed(suffix) runs over G[p + 1..n].
            before, first = sums[p], firsts[p]
            g = math.inf
            for m, total, t, rest in zip(count(1.0), sums[p + 1 :], firsts[p:], reversed(suffix)):
                c = cost(m, total - before, first, t) + rest
                if c < g:
                    g = c
            g += 1.0
            suffix.append(g)
            yield p, g

    def _row_optima(self):
        """:meth:`_block_optima` for ``max_wait_pow``, costing each row of
        blocks ``p..q`` and reading the certified starts from the column."""
        n, arr, single = self.size, np.frombuffer(self._firsts), self._column + 1.0
        certified = int(np.argmax(single <= 2.0))
        yield certified
        G = np.zeros(n + 1)
        G[certified:n] = single[certified:]
        for p in range(certified - 1, -1, -1):
            row = self._blocks(0.0, 0.0, arr[p], arr[p:n])
            g = G[p] = float(np.min(row + G[p + 1 :])) + 1.0
            yield p, g

    def critical_start(self) -> int:
        """Start index of the longest critical suffix of the arrivals pushed
        so far: see :func:`longest_critical_suffix`.

        When one ack for everything is optimal, the whole prefix is the
        critical suffix and no suffix search runs.  Otherwise the class
        kinds (``permit_plf``, and ``max_wait`` as class 0) return
        ``choice[n]``, the last-batch start of the prefix optimum, in O(1)
        and with no NumPy work: their batch cost is a concave,
        non-decreasing function of the batch's span alone, and for such a
        cost the first minimising last-batch start is the longest critical
        suffix's (:func:`longest_critical_suffix` gives the proof).

        The other models run the pruned right-to-left scan over the suffix
        optima before their certified starts: the sum-wait kinds cost each
        block ``p..q`` on Python floats and keep the optima in a list, as
        long as the suffixes scanned; ``max_wait_pow`` costs each row
        ``p..n-1`` as one array, as its DP steps cost each column.  No state
        is kept between calls.

        The scan stops at a start whose slack, its single-ack cost minus
        its optimum, passes ``1 + margin``.  In exact arithmetic every
        earlier start then has slack above ``margin``, and a start ``p`` is
        critical at slack ``tol_at(G[p])`` or less, where ``G[p] <= G[0] =
        opt`` since serving fewer packets never costs more; so ``margin =
        tol_at(opt)`` covers every start.  Under the sum-wait kinds the
        floats add their rounding to that argument, which holds as written
        in exact arithmetic on the stored offsets and prefix sums.  With
        ``u = 2**-53`` and ``x`` the last offset, so that every block of
        ``m`` packets sums terms of at most ``m·x``, against that exact
        arithmetic the single-ack costs of ``p' < p`` are off by at most
        ``u(2nx + 2·whole)`` each, the block ``p'..p-1`` that bounds
        ``G[p']`` by ``u(2nx + whole)``, its two sums by ``2u·opt`` and
        each slack's subtraction by ``u·whole``.  So the float slack of ``p'`` is
        at least that of ``p`` minus ``1 + E`` with ``E = 8u(nx + whole +
        opt)``, where the constant 8 (against the 6, 7 and 2 counted) also
        covers the second-order terms and the float ``G[p']`` passing
        ``opt``, which moves its tolerance by ``TOL`` times that, for
        ``n < 10**9``.  The sum-wait scan stops at ``1 + tol_at(opt) +
        E``.  ``max_wait_pow``, whose NumPy power has no such bound here,
        keeps ``tol_at(whole)``, which bounds every ``tol_at(G[p])`` too.
        """
        n = self.size
        opt = self.values[n]
        whole = self.single(0)
        if whole - opt <= tol_at(opt):
            return 0
        if self._num_classes is not None:
            return self.choice[n]
        if self._column is None:
            scan = self._block_optima()
            margin = tol_at(opt) + 8.0 * _UNIT_ROUNDOFF * (n * self._firsts[n - 1] + whole + opt)
        else:
            scan, margin = self._row_optima(), tol_at(whole)
        best = next(scan)
        if best in (0, n):  # n: not even a lone packet's rounded cost is <= 2
            return 0
        for p, g in scan:
            slack = self.single(p) - g
            if slack <= tol_at(g):
                best = p
            elif slack > 1.0 + margin:
                break
        return best


def dp_optimal(
    arrivals: Sequence[float], spec: DelayModelSpec
) -> tuple[float, Schedule]:
    """Optimal cost and a realizing schedule for sum-aggregated batch models."""
    table = DpTable(spec)
    arr = check_arrivals(arrivals)
    for a in arr:
        table.push(a)
    acks: list[float] = []
    i = len(arr)
    while i > 0:
        acks.append(arr[i - 1])
        i = table.choice[i]
    # Exactly tied arrivals across a batch boundary collapse into one ack.
    schedule = Schedule(tuple(sorted(set(acks))))
    return table.values[len(arr)], schedule


def _permit_classes(span: float, num_classes: int) -> tuple[int, int | float]:
    """Highest permit class kept for blocks up to ``span``, and the largest
    span the classes kept serve in full.

    Class k costs ``2**k + x * 2**-k``; for ``x <= 4**k`` every higher class
    costs more, so classes up to ``top = ceil(log4 span)`` suffice, capped
    at ``num_classes``.  They serve every span up to ``4**top``, returned
    as an exact integer (the float power overflows at ``top = 512``), or
    up to inf once ``top`` reaches the cap.  :meth:`DpTable._class_step`
    adds classes only when a span passes that bound, and takes the new top
    from here.
    """
    top = min(num_classes, plf_round_up(span))
    return top, 4**top if top < num_classes else math.inf


def longest_critical_suffix(arrivals: Sequence[float], spec: DelayModelSpec) -> int:
    """Start index of the longest suffix whose optimum is one acknowledgment.

    A suffix starting at ``p`` is critical when serving it with a single ack
    at its last packet's arrival is offline-optimal (ties count as critical).
    The singleton suffix always qualifies, so the result is well defined.
    Like :func:`dp_optimal`, it takes sum-aggregated batch models only.

    A start whose single-ack cost is at most 2 is critical, since any split
    pays at least two acks.  The single-ack cost never increases with the
    start, so every start from the first such one on is critical.

    The class kinds (``permit_plf``, and ``max_wait`` as its class 0) price
    a batch by its span alone, with a concave price: a minimum of affine
    functions of the span, ``1 + span`` for ``max_wait``.  For such a cost
    the answer is ``b = choice[n]``, the first minimiser of ``V[j] +
    single[j]`` over the last-batch starts ``j`` of the prefix DP, where
    ``V`` is the DP's values, ``single[j] = price(a_{n-1} - a_j) + 1`` and
    ``G[p]`` is the optimum of packets ``p..n-1`` on their own (exact
    arithmetic):

    * ``b`` is critical: ``V[n] = V[b] + single[b]``, and serving ``0..b-1``
      and ``b..n-1`` optimally on their own gives ``V[n] <= V[b] + G[b]``,
      so ``single[b] <= G[b]``.
    * No start ``p < b`` is critical.  Say one were, and lay the optimum
      that ``choice`` gives as blocks ``[b_j, e_j]``; ``p`` lies in one with
      ``e_j < n - 1``.  Cutting ``p..n-1`` after ``e_j`` gives ``G[p] <=
      price(a_{e_j} - a_p) + 1 + T`` with ``T = V[n] - V[e_j + 1]``, the
      cost of the blocks after ``e_j``.  The price is concave, so
      ``single[q] - price(a_{e_j} - a_q)`` is smallest at ``q = b_j`` over
      the starts ``q`` of the block, and with ``single[p] <= G[p]``,
      ``single[b_j] <= price(a_{e_j} - a_{b_j}) + G[p] - price(a_{e_j} -
      a_p) <= V[e_j + 1] - V[b_j] + T = V[n] - V[b_j]``.
      So ``b_j <= p < b`` is a minimiser too, against ``b`` being the
      first one.

    So the search reads ``choice[n]`` off the table in O(1).  The stop rule
    below would not do for these kinds: a long dense run can make one ack
    optimal for a suffix whose tail alone prefers a split, so a large slack
    at ``p`` says nothing of earlier starts.  For ``[0.0] + [1e6 + i for i
    in range(201)] + [1e6 + 216, 1e6 + 232]`` the longest critical suffix
    starts at 1, which is ``choice[n]``, yet start 202's single-ack cost
    exceeds its optimum by 6, so the stop rule would answer 203.

    The other models (``linear_sum``, ``capped_linear``, ``max_wait_pow``)
    find their certified starts first (the sum-wait kinds walk left from
    the last packet on floats, ``max_wait_pow`` reads its block column).
    They scan the earlier starts right to left and stop once a start ``p``
    has a single-ack slack over its optimum above 1: no earlier start
    ``p'`` is critical then, so the stop never changes the answer
    (:meth:`DpTable.critical_start` gives the float margin).  Serving
    ``p'..p-1`` in one batch gives ``G[p'] <= d(p'..p-1) + 1 + G[p]``, and
    where the block delay is superadditive the single-ack cost of ``p'``
    exceeds that of ``p`` by at least ``d(p'..p-1)``.  The capped delay
    ``min(linear, tau)`` leaves two cases:

    * an unsaturated ``p'`` (single-ack delay below ``tau``) has every block
      inside ``p'..n-1`` below the cap, where the model is ``linear_sum``;
    * a saturated ``p'`` costs ``tau + 1`` alone, as start 0 does, and
      ``G[p'] <= G[0]`` since serving fewer packets never costs more, so its
      slack is at least start 0's: it is not critical, or no scan would run.

    The search is :meth:`DpTable.critical_start`, asked once after the whole
    list is pushed; the phase algorithm asks its own table after every
    arrival.
    """
    table = DpTable(spec)
    arr = check_arrivals(arrivals)
    if not arr:
        raise ValueError("empty arrival prefix has no critical suffix")
    for a in arr:
        table.push(a)
    return table.critical_start()


def brute_force_optimal(
    arrivals: Sequence[float], spec: DelayModelSpec
) -> tuple[float, Schedule]:
    """Exhaustive minimum over all contiguous partitions (any objective).

    Each block is acknowledged at its last packet's arrival.  Partitions
    whose induced ack times collide (exactly tied arrivals across a block
    boundary) are skipped; the merged partition is always enumerated too and
    costs no more under the built-in models.

    Bit ``i`` of a cut mask closes a block at packet ``i``, and the last
    packet always closes one.  The 2^(n-1) masks are taken in chunks of
    ``_MASK_CHUNK``, one matrix column per partition, so memory stays
    bounded up to the n <= 22 guard.  Batch objectives gather each closing
    block's cost from a table of all n(n+1)/2 blocks and add them left to
    right or take their maximum; vector objectives evaluate the delay
    vectors, one row per partition, with :func:`acklab.cost.f_rows`.  The first mask with the strictly smallest
    cost wins, so the optimum is the one a loop over the masks would find.
    """
    arr = check_arrivals(arrivals)
    n = len(arr)
    if n == 0:
        return 0.0, Schedule(())
    if n > 22:
        raise BruteForceInfeasibleError(
            f"brute force enumerates 2^(n-1) partitions; n={n} exceeds the n<=22 guard"
        )
    a = np.asarray(arr)
    objective = spec.objective
    if objective is not Objective.VECTOR:
        # block[i, lo]: packets lo..i acknowledged at packet i, costed once
        # rather than once for every partition holding it.
        block = np.zeros((n, n))
        delay_of = bdelay_kernel(spec)
        for i in range(n):
            for lo in range(i + 1):
                block[i, lo] = delay_of(arr[lo : i + 1], arr[i])
    shifts = np.arange(n - 1)[:, None]
    best_cost = None
    best_acks: tuple[float, ...] = ()
    masks = 1 << (n - 1)
    for start in range(0, masks, _MASK_CHUNK):
        mask = np.arange(start, min(start + _MASK_CHUNK, masks))
        # Column r is one partition: cuts[i, r] closes a block at packet i,
        # and ack[i, r] is the arrival that acknowledges packet i.
        cuts = np.ones((n, mask.size), dtype=bool)
        cuts[:-1] = (mask >> shifts) & 1
        ack = np.empty((n, mask.size))
        ack[-1] = a[-1]
        for i in range(n - 2, -1, -1):
            ack[i] = np.where(cuts[i], a[i], ack[i + 1])
        if objective is Objective.VECTOR:
            delay = f_rows(spec, (ack - a[:, None]).T)
        else:
            delay = np.zeros(mask.size)
            combine = np.add if objective is Objective.SUM_BATCH else np.maximum
            first = np.zeros(mask.size, dtype=np.intp)  # first packet of the open block
            for i in range(n):
                combine(delay, block[i].take(first), out=delay, where=cuts[i])
                first[cuts[i]] = i + 1
        cost = cuts.sum(axis=0) + delay
        # A close collides when the next block is acknowledged at the same time.
        rows = np.flatnonzero(~np.any(cuts[:-1] & (ack[1:] == a[:-1, None]), axis=0))
        if rows.size == 0:
            continue
        row = int(rows[np.argmin(cost[rows])])
        if best_cost is None or cost[row] < best_cost:
            best_cost = float(cost[row])
            best_acks = tuple(a[cuts[:, row]].tolist())
    assert best_cost is not None
    return best_cost, Schedule(best_acks)


ORACLES = ("auto", "dp", "brute")


def exact_optimum(
    arrivals: Sequence[float], spec: DelayModelSpec, oracle: str = "auto"
) -> tuple[float, Schedule, str]:
    """Optimal cost and schedule from one of :data:`ORACLES`, and the name
    of the oracle that ran.

    ``auto`` runs the prefix DP on sum-aggregated batch models and brute
    force on every other objective.  ``dp`` raises ValueError on those, and
    brute force raises :class:`BruteForceInfeasibleError` above n = 22.
    """
    if oracle == "dp" or (oracle == "auto" and spec.objective is Objective.SUM_BATCH):
        return (*dp_optimal(arrivals, spec), "dp")
    return (*brute_force_optimal(arrivals, spec), "brute")
