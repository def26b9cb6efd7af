"""Reference permit suffix table that replays its prefix when a class joins.

:class:`ReplayPermitTable` is the fold the library's
:class:`acklab.offline.PermitSuffixTable` replaced.  It keeps classes
``0..min(K, ceil(log4 span) + 1)`` and, once the span outgrows its top
class, rebuilds every row from the first packet with the larger class set,
so every row it keeps is the gap-accumulated min-plus recurrence over the
whole prefix.  The library folds each packet in once and fills a joining
class's row from its single blocks and a shadow row; the tests check its
suffix optima, critical starts and ``phases`` schedules against this table.
``steps`` counts the packets folded, replays included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from acklab.cost import plf_round_up


class ReplayPermitTable:
    """Per-class suffix optima of a growing permit-model prefix, rebuilt from
    packet 0 whenever a class joins."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.size = 0  # packets folded in
        self.steps = 0  # packets folded, replays included
        self._costs = np.zeros((0, 1))
        self._slopes = np.zeros((0, 1))
        self._open = np.zeros((0, 16))
        self._best = np.zeros(16)

    def fold(self, arr: Sequence[float], n: int) -> np.ndarray:
        """Fold in ``arr[size:n]`` and return the suffix optima of ``arr[:n]``."""
        span = float(arr[n - 1] - arr[0])
        top = self._costs.size - 1
        starts = self._best.size
        while starts < n:
            starts *= 2
        if top < 0 or (top < self.num_classes and span > 4**top):
            classes = min(self.num_classes, plf_round_up(span) + 1) + 1
            self.size = 0
            self._costs = np.exp2(np.arange(classes, dtype=float))[:, None]
            self._slopes = 1.0 / self._costs
            self._open = np.zeros((classes, starts))
            self._best = np.zeros(starts)
        elif starts > self._best.size:
            grow = starts - self._best.size
            self._open = np.concatenate((self._open, np.zeros((self._costs.size, grow))), axis=1)
            self._best = np.concatenate((self._best, np.zeros(grow)))
        open_, best, costs, slopes = self._open, self._best, self._costs, self._slopes
        for i in range(self.size, n):
            if i:
                head = open_[:, :i]
                renew = best[:i] + costs
                head += (arr[i] - arr[i - 1]) * slopes
                np.minimum(head, renew, out=head)
            open_[:, i : i + 1] = costs
            np.minimum.reduce(open_[:, : i + 1], axis=0, out=best[: i + 1])
        self.steps += n - self.size
        self.size = n
        return best[:n]
