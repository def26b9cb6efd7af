"""The prefix DP's hull and class-minimum steps, and its critical-suffix
scan, against the column kernel and its NumPy row scan.

After every arrival the library's :class:`DpTable` must hold the same
values and back-pointers as :class:`dp_reference.ColumnDpTable`, bit for
bit, and give the same critical start and serve cost.
"""

import tracemalloc

import numpy as np
import pytest

from acklab import (
    DpTable,
    Instance,
    Objective,
    capped_linear,
    dp_optimal,
    evaluate_schedule,
    linear_sum,
    max_wait,
    max_wait_pow,
    permit_plf,
)
from acklab.tolerance import TOL, tol_at
from dp_reference import ColumnDpTable
from test_offline import geometric_timeline

SPECS = [
    linear_sum(),
    capped_linear(0.5),
    capped_linear(1.0),
    capped_linear(3.0),
    permit_plf(num_classes=32),
    permit_plf(num_classes=600),
    max_wait(Objective.SUM_BATCH),
    max_wait_pow(2, Objective.SUM_BATCH),
]


def timelines(rng, n):
    """One arrival timeline of each shape, starting near 0."""
    yield "uniform", np.cumsum(rng.exponential(1.0, n))
    # Clusters of mean size 4, every 4 time units on average, 0.01 apart.
    sizes = rng.geometric(0.25, n)
    starts = np.repeat(np.cumsum(rng.exponential(4.0, n)), sizes)[:n]
    inside = np.concatenate([np.arange(k) for k in sizes])[:n]
    yield "bursty", starts + 0.01 * inside
    yield "ties", np.sort(np.repeat(rng.uniform(0, n / 2, n), rng.integers(1, 4, n))[:n])
    yield "grid", np.round(np.cumsum(rng.exponential(1.0, n)) * 64) / 64
    yield "geometric", np.asarray(geometric_timeline(rng, 1e6, integer=bool(rng.integers(2))))


def assert_tables_agree(spec, arrivals):
    """Push ``arrivals`` into both tables and compare them after each one.

    Every push after a search also checks that no NumPy view of the
    table's buffers outlived it: a buffer that still exports one cannot
    grow and raises BufferError.

    Returns how often the reference's first start with a single-ack cost
    of at most 2 moved left.
    """
    ref, table = ColumnDpTable(spec), DpTable(spec)
    falls, before = 0, 0
    for t in arrivals:
        blocks = ref.push(t)
        table.push(t)
        n = table.size
        assert np.array_equal(table.values[: n + 1], ref.values[: n + 1]), (spec, n)
        assert np.array_equal(table.choice[: n + 1], ref.choice[: n + 1]), (spec, n)
        start = ref.critical_start(blocks)
        assert table.critical_start() == start, (spec, n)
        assert table.single(start) == float(blocks[start]) + 1.0, (spec, n)
        certified = int(np.argmax(blocks + 1.0 <= 2.0))
        falls += certified < before
        before = certified
    return falls


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.tau or s.num_classes or ''}")
def test_steps_match_column_kernel(spec):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for shape, arrivals in timelines(rng, 130):
            for shift in (0.0, 1e6, 1e12):
                assert_tables_agree(spec, arrivals + shift)


@pytest.mark.parametrize(
    "num_classes, arrivals",
    [
        # Two classes reach the same value from different starts: the
        # smaller start wins, as in a first minimum.
        (32, [5.0, 5.0, 10.0, 13.0, 15.0, 19.0, 22.0, 23.0, 24.0, 28.0, 31.0, 34.0]),
        # Class values an ulp apart whose stored values tie: the stored
        # formula decides between the starts.
        (2, [0.1, 0.9, 2.2, 3.9000000000000004, 5.1000000000000005, 7.1000000000000005]),
    ],
)
def test_permit_step_breaks_class_ties_as_the_column_kernel(num_classes, arrivals):
    assert_tables_agree(permit_plf(num_classes=num_classes), arrivals)


def test_float_ties_off_the_corpus_stay_within_tolerance():
    # On timelines of thirds and tenths two starts can store values that
    # round to the same float though their exact values differ in the last
    # bit.  The column kernel keeps the smaller start, the hull or a class
    # minimum the one it ranks first, so a choice may differ there; the
    # values stay within the tolerance and every schedule realises its value.
    rng = np.random.default_rng(13)
    for spec in (linear_sum(), capped_linear(1.0), permit_plf(num_classes=3)):
        for i in range(40):
            step = (1.0 / 3.0, 0.1)[i % 2]
            arrivals = np.cumsum(rng.integers(0, 8, 40) * step) + (0.0, 1e6)[i % 4 // 2]
            ref, table = ColumnDpTable(spec), DpTable(spec)
            for t in arrivals:
                ref.push(t)
                table.push(t)
            got, want = table.values[: table.size + 1], ref.values[: ref.size + 1]
            assert np.all(np.abs(got - want) <= TOL * np.maximum(np.abs(want), 1.0))
            cost, sched = dp_optimal(arrivals, spec)
            realized = evaluate_schedule(Instance(tuple(arrivals), spec), sched).total
            assert abs(realized - cost) <= tol_at(cost)


@pytest.mark.parametrize("spec", [linear_sum(), capped_linear(3.0)])
def test_certified_start_steps_back_when_a_tie_lowers_a_float_cost(spec):
    # v is (1 + u) / 2 rounded up, so single(0) = 1 + (3v - (u + v)) is
    # one rounding above 2 at three packets.  A fourth packet tied with v
    # re-rounds the arrival sum, single(0) falls to exactly 2, and start 0
    # costs at most 2 again, as the reference's fall count shows.  The
    # search must still agree with the column kernel where a tie lowers a
    # float cost.
    u, v = 0.7319559607774623, 0.8659779803887313
    assert assert_tables_agree(spec, [0.0, u, v]) == 0
    assert assert_tables_agree(spec, [0.0, u, v, v]) == 1


def test_no_start_certified_when_prefix_sums_round_away_a_packet():
    # Near 1e17 the prefix sums round a packet's own arrival away, so even
    # the lone last packet's float cost passes 2 and no start qualifies.
    # The critical start is then 0, as the column kernel's first minimum
    # of an all-false test is, and the search does not run off the end.
    arrivals = [0.0, 3.0, 1e17, 1e17 + 16]
    table = DpTable(linear_sum())
    for t in arrivals:
        table.push(t)
    assert all(table.single(p) > 2.0 for p in range(len(arrivals)))
    assert table.critical_start() == 0
    assert_tables_agree(linear_sum(), arrivals + [1e17 + 48, 1e17 + 64])


@pytest.mark.parametrize(
    "spec",
    [permit_plf(num_classes=32), max_wait(Objective.SUM_BATCH), max_wait_pow(2, Objective.SUM_BATCH)],
    ids=lambda s: s.kind,
)
def test_search_prices_single_acks_only_for_the_rows_it_scans(spec, monkeypatch):
    # The class kinds price one single ack, the whole-prefix check, and test
    # every start in one array pass.  max_wait_pow prices one more for each
    # row it scans and reads the starts that cost at most 2 from its block
    # column, so it never prices one of them.
    single, row_optima = DpTable.single, DpTable._row_optima
    priced, rows = [], []

    def counting_single(table, p):
        priced.append(p)
        return single(table, p)

    def counting_rows(table):
        for item in row_optima(table):
            if isinstance(item, tuple):
                rows.append(item[0])
            yield item

    monkeypatch.setattr(DpTable, "single", counting_single)
    monkeypatch.setattr(DpTable, "_row_optima", counting_rows)
    _, arrivals = list(timelines(np.random.default_rng(5), 300))[1]  # bursty
    table, searched = DpTable(spec), 0
    for t in arrivals:
        table.push(t)
        priced.clear()
        rows.clear()
        table.critical_start()
        assert priced == [0] + rows, table.size
        searched += bool(rows)
    assert searched > 0 if spec.kind == "max_wait_pow" else searched == 0


SCAN_SPECS = [
    linear_sum(),
    capped_linear(0.5),
    capped_linear(1.0),
    capped_linear(1000.0),
    max_wait(Objective.SUM_BATCH),
    max_wait_pow(2, Objective.SUM_BATCH),
    max_wait_pow(3, Objective.SUM_BATCH),
    max_wait_pow(5, Objective.SUM_BATCH),
]


@pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: f"{s.kind}-{s.tau or s.p or ''}")
def test_scan_matches_numpy_row_scan(spec):
    # Under the sum-wait kinds the scan costs each block with the table's
    # float kernel and keeps the suffix optima in a list; the reference scan
    # costs whole NumPy rows into an array of n + 1 optima, as the table
    # does under the max kinds.  Both must stop at the same start and
    # serve it at the same cost, after every arrival.
    scans = 0
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        for shape, arrivals in timelines(rng, 100):
            if shape == "uniform":
                continue
            for shift in (0.0, 1e6, 1e12):
                ref, table = ColumnDpTable(spec), DpTable(spec)
                for t in arrivals + shift:
                    blocks = ref.push(t)
                    table.push(t)
                    n, single = table.size, blocks + 1.0
                    start = ref.critical_start(blocks)
                    assert table.critical_start() == start, (shape, shift, n)
                    assert table.single(start) == float(single[start]), (shape, shift, n)
                    whole_optimal = single[0] - ref.values[n] <= tol_at(float(ref.values[n]))
                    scans += not whole_optimal and np.argmax(single <= 2.0) > 0
    # Under a cap tau <= 1 one ack costs at most 2, so every start is
    # certified and no scan runs.
    capped_low = spec.kind == "capped_linear" and spec.tau <= 1.0
    assert scans == 0 if capped_low else scans >= 1000


def test_table_keeps_each_arrival_fact_once():
    # Offsets, prefix sums, values and back-pointers sit in one flat buffer
    # each, 8 bytes an arrival apiece; the hull and the class minima hold a
    # handful of starts.  A second copy of the arrivals, or a list of float
    # objects (32 bytes an entry), would pass the bound.
    n = 20000
    arrivals = np.cumsum(np.random.default_rng(3).exponential(1.0, n)).tolist()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for spec in (linear_sum(), permit_plf(num_classes=32), max_wait(Objective.SUM_BATCH)):
            before = tracemalloc.get_traced_memory()[0]
            table = DpTable(spec)
            for t in arrivals:
                table.push(t)
            kept = tracemalloc.get_traced_memory()[0] - before
            assert kept <= 48 * n, (spec.kind, kept / n)
            del table
    finally:
        if started:
            tracemalloc.stop()
