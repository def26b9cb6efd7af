"""The permit suffix table, which folds each packet in once, against the
reference that replays its prefix whenever a class joins.

Both tables are folded in random chunks, as the phase algorithm folds the
packets that arrived since it last asked.  Their suffix optima must agree
within rtol 1e-12, and the critical starts and ``phases`` schedules built
on them must be identical.
"""

import math

import numpy as np
import pytest

from acklab import DpTable, Instance, Objective, max_wait, permit_plf, simulate
from acklab.adversary import TcpPermitAdapter, run_pp_adversary
from acklab.algorithms import SumMonotonePhases
from acklab.cost import plf_round_up
import acklab.offline as offline
from acklab.offline import PermitSuffixTable, brute_force_optimal
from permit_reference import ReplayPermitTable

CLASSES = (0, 2, 32, 600)
SHIFTS = (0.0, 1e6, 1e12)
N = 150


def spec_of(num_classes):
    """The model a table of ``num_classes`` serves: K = 0 is ``max_wait``."""
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
    # Gaps of 4**k + 1, as between the permit game's chained requests, with
    # runs of unit gaps between them.
    k = rng.integers(0, 7, n)
    gaps = np.where(rng.random(n) < 0.2, 4.0 ** k + 1.0, 1.0)
    return np.cumsum(gaps) - gaps[0]


def cases():
    for shape in ("ties", "bursty", "grid", "powers"):
        for shift in SHIFTS:
            for num_classes in CLASSES:
                yield pytest.param(shape, shift, num_classes, id=f"{shape}-{shift:g}-K{num_classes}")


def arrivals_of(shape, shift, num_classes):
    seed = [sum(map(ord, shape)), int(shift > 0) + 2 * int(shift > 1e6), num_classes]
    return (timeline(shape, np.random.default_rng(seed)) + shift).tolist()


def chunk_ends(rng, n):
    """Random fold points ending at ``n``."""
    ends, m = [], 0
    while m < n:
        m = min(n, m + int(rng.integers(1, 9)))
        ends.append(m)
    return ends


@pytest.mark.parametrize("shape, shift, num_classes", cases())
def test_suffix_optima_match_the_replaying_fold(shape, shift, num_classes):
    arrivals = arrivals_of(shape, shift, num_classes)
    table, ref = PermitSuffixTable(num_classes), ReplayPermitTable(num_classes)
    for n in chunk_ends(np.random.default_rng(num_classes), len(arrivals)):
        got, want = table.fold(arrivals, n), ref.fold(arrivals, n)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (n, np.max(np.abs(got - want)))
    assert table.steps == table.size == len(arrivals)


@pytest.mark.parametrize("shape, shift, num_classes", cases())
def test_critical_starts_and_phases_match_the_replaying_fold(
    shape, shift, num_classes, monkeypatch
):
    arrivals = arrivals_of(shape, shift, num_classes)
    spec = spec_of(num_classes)
    asks = set(chunk_ends(np.random.default_rng(num_classes + 1), len(arrivals)))

    def run():
        table, starts = DpTable(spec), []
        for i, t in enumerate(arrivals, 1):
            table.push(t)
            if i in asks:
                starts.append(table.critical_start())
        schedule = simulate(Instance(tuple(arrivals), spec), SumMonotonePhases(spec))
        return starts, schedule.ack_times

    got = run()
    monkeypatch.setattr(offline, "PermitSuffixTable", ReplayPermitTable)
    assert got == run()


def test_a_joining_class_reads_its_shadow_row():
    # Packet 0 alone, then a gap of 40 and a dense run of 200.  Folded one
    # packet at a time, the gap is folded in with classes 0..3 (span 40),
    # and class 4 joins once the span passes 64.  G[0] is packet 0 alone
    # (cost 1) and one class-4 block from 40 (16 + 200/16 = 28.5).  That
    # block starts after a gap wider than 2**4, so only the shadow row
    # holds it: the single class-4 block from packet 0 costs 31.0.
    arrivals = [0.0] + [40.0 + i for i in range(201)]
    table, ref = PermitSuffixTable(600), ReplayPermitTable(600)
    for n in range(1, len(arrivals) + 1):
        got, want = table.fold(arrivals, n), ref.fold(arrivals, n)
    assert got[0] == want[0] == 29.5
    assert ref.steps > table.steps == len(arrivals)


def test_classes_past_the_float_power_range():
    # Folded one packet at a time, the span 5e307 keeps classes up to 512,
    # and the next fold compares the span 5.5e307 with 4**512, past the
    # float range: it must be compared exactly, not as 4.0 ** 512.
    arrivals = [0.0, 5e307, 5.5e307]
    spec = permit_plf(num_classes=600)
    table, ref = PermitSuffixTable(600), ReplayPermitTable(600)
    for n in range(1, len(arrivals) + 1):
        got = table.fold(arrivals, n).tolist()
        assert got == [brute_force_optimal(arrivals[p:n], spec)[0] for p in range(n)], n
        assert got == ref.fold(arrivals, n).tolist(), n
    assert table._costs.size == 513


@pytest.mark.parametrize("num_classes", [0, 1, 3, 32, 600])
def test_each_packet_is_folded_once(num_classes):
    rng = np.random.default_rng(num_classes)
    for arrivals in (
        np.cumsum(rng.exponential(1.0, 300)).tolist(),
        np.cumsum(np.where(rng.random(300) < 0.1, 4.0 ** rng.integers(0, 9, 300), 0.5)).tolist(),
    ):
        table = PermitSuffixTable(num_classes)
        sizes = []
        for n in chunk_ends(rng, len(arrivals)):
            table.fold(arrivals, n)
            sizes.append(table.size)
        assert sizes == sorted(sizes)
        assert table.steps == len(arrivals)


def test_the_permit_game_folds_each_request_once():
    # The replaying fold took 2152 steps for these 930 requests.
    algorithm = SumMonotonePhases(permit_plf(num_classes=600))
    report = run_pp_adversary(TcpPermitAdapter(algorithm), 930)
    assert report.chained
    assert algorithm._table._permits.steps == 930


@pytest.mark.parametrize("num_classes", [0, 1, 2, 32])
def test_dp_and_suffix_table_keep_the_same_classes(num_classes):
    # Spans of exactly 4**k, the next float above and past the cap: the DP
    # and the suffix table keep classes 0..min(K, plf_round_up(span)), and
    # no spare class above them.
    arrivals = [0.0]
    for k in range(num_classes + 3):
        arrivals += [4.0**k, math.nextafter(4.0**k, math.inf)]
    table = DpTable(spec_of(num_classes))
    for t in arrivals:
        table.push(t)
        classes = min(num_classes, plf_round_up(t)) + 1
        assert len(table._slopes) == len(table._class_min) == classes, t
        table.critical_start()
        # The suffix table folds lazily: bring it up to date where the
        # search returned before asking it.
        table._permits.fold(table._firsts, table.size)
        assert table._permits._costs.size == classes, t
