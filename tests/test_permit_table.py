"""The class kinds' critical-suffix search, which reads the prefix DP's
last-batch start, against the reference suffix table that replays its
prefix whenever a class joins.

``permit_plf``, and ``max_wait`` as its class 0, price a batch by a concave
function of its span, so the longest critical suffix starts at
``choice[n]`` (:func:`acklab.offline.longest_critical_suffix` gives the
proof).  After every arrival the search must answer what a search of
every start answers: the first start whose single-ack cost is within
``G * TOL`` of its suffix optimum ``G``, read from
:class:`permit_reference.ReplayPermitTable`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acklab import DpTable, Instance, Objective, max_wait, permit_plf, simulate
from acklab.adversary import TcpPermitAdapter, run_pp_adversary
from acklab.algorithms import SumMonotonePhases
from acklab.cost import ARRAY_OPS, cost_kernel, plf_round_up
from acklab.offline import brute_force_optimal
from acklab.tolerance import TOL, tol_at
from permit_reference import ReplayPermitTable
from test_offline import naive_critical_start

CLASSES = (0, 2, 32, 600)
SHIFTS = (0.0, 1e6, 1e12)
N = 150


def spec_of(num_classes):
    """The model of ``num_classes`` permit classes: K = 0 is ``max_wait``."""
    if num_classes == 0:
        return max_wait(Objective.SUM_BATCH)
    return permit_plf(num_classes=num_classes)


def timeline(shape, rng, n=N):
    if shape == "ties":
        return np.sort(np.repeat(rng.uniform(0, n / 4, n), rng.integers(1, 4, n))[:n])
    if shape == "bursty":
        # Clusters of mean size 4, every 4 time units on average, 0.01 apart.
        sizes = rng.geometric(0.25, n)
        starts = np.repeat(np.cumsum(rng.exponential(4.0, n)), sizes)[:n]
        inside = np.concatenate([np.arange(k) for k in sizes])[:n]
        return np.sort(starts + 0.01 * inside)
    if shape == "grid":
        return np.round(np.cumsum(rng.exponential(1.0, n)) * 64) / 64
    if shape == "integer":
        return np.cumsum(rng.integers(0, 4, n)).astype(float)
    # Gaps of 4**k + 1, as between the permit game's chained requests, with
    # runs of unit gaps between them.
    k = rng.integers(0, 7, n)
    gaps = np.where(rng.random(n) < 0.2, 4.0 ** k + 1.0, 1.0)
    return np.cumsum(gaps) - gaps[0]


def cases(shapes=("ties", "bursty", "grid", "powers")):
    for shape in shapes:
        for shift in SHIFTS:
            for num_classes in CLASSES:
                yield pytest.param(shape, shift, num_classes, id=f"{shape}-{shift:g}-K{num_classes}")


def arrivals_of(shape, shift, num_classes):
    seed = [sum(map(ord, shape)), int(shift > 0) + 2 * int(shift > 1e6), num_classes]
    return (timeline(shape, np.random.default_rng(seed)) + shift).tolist()


class ReferenceSearch:
    """The search of every start over a growing prefix: each start's
    single-ack cost, priced as one array, tested against the replaying
    table's suffix optima after the whole-prefix check."""

    def __init__(self, spec):
        self._blocks = cost_kernel(spec, ARRAY_OPS)
        self._ref = ReplayPermitTable(spec.num_classes if spec.kind == "permit_plf" else 0)
        self._offsets = []

    def push_and_search(self, table):
        """Take ``table``'s newest arrival; return its critical start."""
        n = table.size
        self._offsets.append(table._firsts[n - 1])
        offsets = np.asarray(self._offsets)
        G = self._ref.fold(offsets, n)
        single = self._blocks(0.0, 0.0, offsets, offsets[-1]) + 1.0
        opt = table.values[n]
        if single[0] - opt <= tol_at(opt):
            return 0
        return int(np.argmax(single - G <= G * TOL))


def reference_search(table):
    """:meth:`DpTable.critical_start` by a search of every start, for a
    table asked after every push, as the phase algorithm asks its own."""
    if table.size == 1:
        table.reference = ReferenceSearch(table.spec)
    return table.reference.push_and_search(table)


@pytest.mark.parametrize("shape, shift, num_classes", cases())
def test_critical_starts_match_the_replaying_fold(shape, shift, num_classes):
    spec = spec_of(num_classes)
    table, searched = DpTable(spec), 0
    for t in arrivals_of(shape, shift, num_classes):
        table.push(t)
        want = reference_search(table)
        assert table.critical_start() == want, table.size
        searched += want > 0
    # A dense tied timeline can keep one ack for everything optimal
    # throughout; every other shape passes the whole-prefix check often.
    assert searched > 0 or shape == "ties"


@pytest.mark.parametrize("shape, shift, num_classes", cases())
def test_phases_matches_the_replaying_search(shape, shift, num_classes, monkeypatch):
    arrivals = arrivals_of(shape, shift, num_classes)
    spec = spec_of(num_classes)

    def run():
        return simulate(Instance(tuple(arrivals), spec), SumMonotonePhases(spec)).ack_times

    got = run()
    monkeypatch.setattr(DpTable, "critical_start", reference_search)
    assert got == run()


@settings(max_examples=150, deadline=None)
@given(
    num_classes=st.sampled_from([0, 1, 3, 32]),
    gaps=st.lists(
        st.one_of(
            st.just(0.0),
            st.sampled_from([0.25, 0.5, 1.0, 4.0, 16.0, 65.0]),
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=30,
    ),
    shift=st.sampled_from(SHIFTS),
)
def test_search_matches_the_naive_scan(num_classes, gaps, shift):
    spec = spec_of(num_classes)
    arrivals = (np.cumsum(gaps) + shift).tolist()
    table = DpTable(spec)
    for n, t in enumerate(arrivals, 1):
        table.push(t)
        assert table.critical_start() == naive_critical_start(arrivals[:n], spec), n


@pytest.mark.parametrize("shape, shift, num_classes", cases(("integer", "grid")))
def test_exact_timelines_answer_0_or_the_last_batch_start(shape, shift, num_classes):
    # On integer and 1/64-grid times every offset is exact, so the DP's
    # near-ties are exact ties, which the first minimiser breaks: the
    # answer is the whole prefix or choice[n], and both are met.
    table, seen = DpTable(spec_of(num_classes)), set()
    for t in arrivals_of(shape, shift, num_classes):
        table.push(t)
        start = table.critical_start()
        last = table.choice[table.size]
        assert start in (0, last), table.size
        seen.add("whole" if start == 0 else "choice")
    assert seen == {"whole", "choice"}


def test_a_joining_class_sees_a_block_after_a_wide_gap():
    # Packet 0 alone, then a gap of 40 and a dense run of 200.  Pushed one
    # packet at a time, the span passes 64 and class 4 joins: the optimum
    # is packet 0 alone (cost 1) and one class-4 block from 40 (16 + 200/16
    # = 28.5), which starts after a gap wider than 2**4; the single class-4
    # block from packet 0 costs 31.0.
    arrivals = [0.0] + [40.0 + i for i in range(201)]
    spec, ref = permit_plf(num_classes=600), ReplayPermitTable(600)
    table = DpTable(spec)
    for t in arrivals:
        table.push(t)
    n = table.size
    assert table.values[n] == ref.fold(arrivals, n)[0] == 29.5
    assert table.single(0) == 31.0
    assert table.critical_start() == table.choice[n] == 1


def test_classes_past_the_float_power_range():
    # Pushed one packet at a time, the span 5e307 keeps classes up to 512,
    # and the next push compares the span 5.5e307 with 4**512, past the
    # float range: it must be compared exactly, not as 4.0 ** 512.
    arrivals = [0.0, 5e307, 5.5e307]
    spec = permit_plf(num_classes=600)
    table = DpTable(spec)
    for n, t in enumerate(arrivals, 1):
        table.push(t)
        G = [brute_force_optimal(arrivals[p:n], spec)[0] for p in range(n)]
        assert table.values[n] == G[0], n
        want = next(p for p in range(n) if table.single(p) - G[p] <= tol_at(G[p]))
        assert table.critical_start() == want, n
    assert len(table._slopes) == 513


def test_the_permit_game_matches_the_replaying_search(monkeypatch):
    # 930 requests under phases, first with the search reading choice[n],
    # then with the search of every start on the replaying table: the same
    # permits are bought.
    def game():
        algorithm = SumMonotonePhases(permit_plf(num_classes=600))
        report = run_pp_adversary(TcpPermitAdapter(algorithm), 930)
        assert report.chained
        return report.purchases

    got = game()
    monkeypatch.setattr(DpTable, "critical_start", reference_search)
    assert got == game()


@pytest.mark.parametrize("num_classes", [0, 1, 2, 32])
def test_dp_keeps_the_classes_the_span_needs(num_classes):
    # Spans of exactly 4**k, the next float above and past the cap: the DP
    # keeps classes 0..min(K, plf_round_up(span)), and no spare class
    # above them.
    arrivals = [0.0]
    for k in range(num_classes + 3):
        arrivals += [4.0**k, math.nextafter(4.0**k, math.inf)]
    table = DpTable(spec_of(num_classes))
    for t in arrivals:
        table.push(t)
        classes = min(num_classes, plf_round_up(t)) + 1
        assert len(table._slopes) == len(table._class_min) == classes, t
        assert table.critical_start() in (0, table.choice[table.size]), t
