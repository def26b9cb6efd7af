"""Reference prefix DP with one block column per arrival.

:class:`ColumnDpTable` is the quadratic kernel the library's
:class:`acklab.offline.DpTable` replaced: every :meth:`~ColumnDpTable.push`
costs the whole block column ``j..i`` in NumPy, takes the first minimum of
``values[j] + block + 1`` with ``argmin`` and returns the column, and
:meth:`~ColumnDpTable.critical_start` reads the single-ack costs from that
column and runs the pruned right-to-left scan on NumPy rows, one row of
blocks ``p..q`` per start and an array of all ``n + 1`` suffix optima, as
the library still does under ``max_wait_pow``, the only kind it costs on
block columns and rows.  The library chooses each start from a monotone
hull or per-class running minima, reads single-ack costs one at a time
and, under the sum-wait kinds, scans with its float block kernel.  Under
``permit_plf``, and ``max_wait`` as permit class 0 alone, its search reads
the DP's last-batch start, where this kernel tests every start against
the permit model's class table, or scans rows for ``max_wait``.  The
tests check its values, back-pointers, critical starts and serve costs
against this kernel, bit for bit.  :func:`suffix_opt` asks a fresh table
for its suffix optima: one row scan per start, or the permit model's
class table that replays its prefix
(:class:`permit_reference.ReplayPermitTable`).
"""

from __future__ import annotations

import numpy as np

from acklab.cost import ARRAY_OPS, DelayModelSpec, Objective, cost_kernel
from acklab.model import check_arrivals
from acklab.tolerance import TOL, tol_at
from permit_reference import ReplayPermitTable


class ColumnDpTable:
    """Prefix DP values and back-pointers, one NumPy block column per arrival."""

    def __init__(self, spec: DelayModelSpec):
        if spec.objective is not Objective.SUM_BATCH:
            raise ValueError("the prefix DP requires a sum-aggregated batch model")
        self.spec = spec
        self._blocks = cost_kernel(spec, ARRAY_OPS)
        self.size = 0
        self._origin = 0.0
        self._arr = np.zeros(16)
        self._prefix = np.zeros(17)
        self._counts = np.arange(1.0, 17.0)
        self.values = np.zeros(17)
        self.choice = np.zeros(17, dtype=int)
        self._permits = ReplayPermitTable(spec.num_classes) if spec.kind == "permit_plf" else None

    def push(self, time: float) -> np.ndarray:
        """Fill the new arrival's DP entry; return the delays of the blocks
        ``j..i`` acknowledged at it, for every start ``j``."""
        i = self.size
        if i == self._arr.size:
            self._arr, self._prefix, self.values, self.choice = (
                np.concatenate((a, np.zeros(i, dtype=a.dtype)))
                for a in (self._arr, self._prefix, self.values, self.choice)
            )
            self._counts = np.arange(1.0, 2 * i + 1.0)
        if i == 0:
            self._origin = time
        arr, prefix, values = self._arr, self._prefix, self.values
        arr[i] = rebased = time - self._origin
        prefix[i + 1] = prefix[i] + rebased
        blocks = self._blocks(
            self._counts[i::-1], prefix[i + 1] - prefix[: i + 1], arr[: i + 1], rebased
        )
        cand = values[: i + 1] + blocks + 1.0
        j = int(np.argmin(cand))  # first minimum: ties prefer the larger batch
        values[i + 1] = cand[j]
        self.choice[i + 1] = j
        self.size = i + 1
        return blocks

    def _row(self, p: int) -> np.ndarray:
        n, arr, prefix = self.size, self._arr, self._prefix
        return self._blocks(
            self._counts[: n - p], prefix[p + 1 : n + 1] - prefix[p], arr[p], arr[p:n]
        )

    def suffix_optima(self) -> np.ndarray:
        n = self.size
        if self._permits is not None:
            return np.append(self._permits.fold(self._arr, n), 0.0)
        G = np.zeros(n + 1)
        for p in range(n - 1, -1, -1):
            G[p] = float(np.min(self._row(p) + G[p + 1 :])) + 1.0
        return G

    def critical_start(self, blocks: np.ndarray) -> int:
        """Start of the longest critical suffix; ``blocks`` is what the last
        :meth:`push` returned."""
        single = blocks + 1.0
        n = self.size
        opt = float(self.values[n])
        if single[0] - opt <= tol_at(opt):
            return 0
        certified = int(np.argmax(single <= 2.0))
        if certified == 0:
            return 0
        if self._permits is not None:
            G = self.suffix_optima()[:certified]
            hits = np.flatnonzero(single[:certified] - G <= np.maximum(np.abs(G), 1.0) * TOL)
            return int(hits[0]) if hits.size else certified
        margin = tol_at(float(single[0]))
        G = np.zeros(n + 1)
        G[certified:n] = single[certified:]
        best = certified
        for p in range(certified - 1, -1, -1):
            G[p] = float(np.min(self._row(p) + G[p + 1 :])) + 1.0
            slack = float(single[p]) - G[p]
            if slack <= tol_at(G[p]):
                best = p
            elif slack > 1.0 + margin:
                break
        return best


def suffix_opt(arrivals, spec: DelayModelSpec) -> np.ndarray:
    """Optimal cost of serving each suffix of the arrival list.

    Returns ``G`` of length ``n + 1`` with ``G[p]`` the optimal cost of
    serving packets ``p..n-1`` on their own and ``G[n] = 0``.
    """
    table = ColumnDpTable(spec)
    for a in check_arrivals(arrivals):
        table.push(a)
    return table.suffix_optima()
