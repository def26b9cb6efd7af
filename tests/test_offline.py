import numpy as np
import pytest

from acklab import (
    BruteForceInfeasibleError,
    DpTable,
    Instance,
    Objective,
    brute_force_optimal,
    capped_linear,
    dp_optimal,
    evaluate_schedule,
    linear_sum,
    longest_critical_suffix,
    max_wait,
    max_wait_pow,
    permit_plf,
    simulate,
    top_k,
)
from acklab.algorithms import SumMonotonePhases
from acklab.cost import FLOAT_OPS, bdelay, cost_kernel
import acklab
import acklab.offline as offline
from acklab.offline import PermitSuffixTable
from acklab.tolerance import tol_at
from dp_reference import suffix_opt


def naive_suffix(arrivals, spec):
    """Suffix optima from scalar ``bdelay`` on explicit slices, O(n^3)."""
    a = [float(x) for x in arrivals]
    n = len(a)
    G = [0.0] * (n + 1)
    for p in range(n - 1, -1, -1):
        G[p] = 1.0 + min(bdelay(spec, a[p : q + 1], a[q]) + G[q + 1] for q in range(p, n))
    return np.asarray(G)


def geometric_timeline(rng, span, integer):
    """Arrivals whose gaps mostly grow geometrically (growth 1.2 to 2.2, as
    in the permit game's chained requests), with short gaps between, until
    the span passes ``span``."""
    growth = rng.uniform(1.2, 2.2)
    a = [float(rng.integers(0, 1000))]
    while a[-1] - a[0] < span:
        step = a[-1] * (growth - 1.0) if rng.random() < 0.7 else 0.0
        gap = float(int(step) + rng.integers(1, 4)) if integer else step + rng.uniform(0.1, 3.0)
        a.append(a[-1] + gap)
    return a


def naive_critical_start(arrivals, spec):
    """First start whose single-ack cost matches the unpruned suffix table."""
    G = naive_suffix(arrivals, spec)
    a = [float(x) for x in arrivals]
    return next(
        p
        for p in range(len(a))
        if bdelay(spec, a[p:], a[-1]) + 1.0 - G[p] <= 1e-9 * max(1.0, abs(G[p]))
    )


class TestDpOptimal:
    def test_linear_example(self):
        cost, sched = dp_optimal([0, 0.5, 3], linear_sum())
        assert cost == pytest.approx(2.5, abs=1e-12)
        assert sched.ack_times == (0.5, 3.0)

    def test_single_packet(self):
        cost, sched = dp_optimal([5], linear_sum())
        assert cost == 1.0 and sched.ack_times == (5.0,)

    def test_capped_hard_instance(self):
        cost, sched = dp_optimal([1.001, 2.002, 3.003], capped_linear(1.0))
        assert cost == pytest.approx(2.0, abs=1e-12)
        assert sched.ack_times == (3.003,)

    def test_rejects_non_sum_objective(self):
        with pytest.raises(ValueError):
            dp_optimal([0, 1], max_wait())

    def test_empty(self):
        cost, sched = dp_optimal([], linear_sum())
        assert cost == 0.0 and sched.ack_times == ()

    def test_values_non_decreasing_and_schedule_realizes_cost(self):
        rng = np.random.default_rng(0)
        for spec in (linear_sum(), capped_linear(1.0), permit_plf()):
            for _ in range(40):
                arrivals = tuple(sorted(rng.uniform(0, 10, rng.integers(1, 12))))
                table = DpTable(spec)
                for a in arrivals:
                    table.push(a)
                assert all(
                    table.values[i] <= table.values[i + 1] + 1e-12
                    for i in range(len(arrivals))
                )
                cost, sched = dp_optimal(arrivals, spec)
                realized = evaluate_schedule(Instance(arrivals, spec), sched).total
                assert realized == pytest.approx(cost, abs=1e-9)

    @pytest.mark.parametrize(
        "spec", [linear_sum(), capped_linear(1.0), capped_linear(3.0), permit_plf()]
    )
    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e9, 1e12])
    def test_shifted_times_keep_their_digits(self, spec, shift):
        # The DP works on times minus the first arrival and every batch is
        # costed relative to its own first arrival, so a shift changes
        # nothing beyond the rounding of the shifted arrivals themselves.
        rng = np.random.default_rng(7)
        for _ in range(5):
            arrivals = shift + np.cumsum(rng.exponential(1.0, 200))
            cost, sched = dp_optimal(arrivals, spec)
            realized = evaluate_schedule(Instance(tuple(arrivals), spec), sched).total
            assert abs(realized - cost) <= tol_at(cost)
            unshifted, _ = dp_optimal(arrivals - arrivals[0], spec)
            assert abs(unshifted - cost) <= tol_at(cost)


@pytest.mark.parametrize(
    "arrivals",
    [
        [3.0, 1.0],  # out of order
        [float("nan"), 1.0],
        [0.0, float("inf")],
        [-1.0, 0.0],
        [0.0, True],
        [0, 1e308, 1.7e308],  # n times the span leaves the float range
    ],
)
@pytest.mark.parametrize("solver", [dp_optimal, brute_force_optimal, longest_critical_suffix])
def test_solvers_reject_the_arrivals_an_instance_rejects(solver, arrivals):
    for spec in (linear_sum(), capped_linear(1.0)):
        with pytest.raises(ValueError):
            Instance(tuple(arrivals), spec)
        with pytest.raises(ValueError):
            solver(arrivals, spec)


class TestSuffixOpt:
    def test_two_packets(self):
        assert suffix_opt([0, 0.1], linear_sum()) == pytest.approx([1.1, 1.0, 0.0])

    def test_gap_forces_split(self):
        G = suffix_opt([0, 0.1, 10], linear_sum())
        assert G[1] == pytest.approx(2.0, abs=1e-12)

    def test_single(self):
        assert suffix_opt([7], linear_sum()) == pytest.approx([1.0, 0.0])

    def test_empty(self):
        assert suffix_opt([], linear_sum()) == pytest.approx([0.0])

    def test_prefix_value_matches_dp(self):
        rng = np.random.default_rng(1)
        for spec in (linear_sum(), capped_linear(0.5), permit_plf()):
            for _ in range(30):
                arrivals = tuple(sorted(rng.uniform(0, 10, rng.integers(1, 12))))
                assert suffix_opt(arrivals, spec)[0] == pytest.approx(
                    dp_optimal(arrivals, spec)[0], abs=1e-9
                )

    def test_fast_kernels_match_row_scan(self):
        rng = np.random.default_rng(2)
        specs = [capped_linear(0.5), capped_linear(2.0), permit_plf(), permit_plf(num_classes=3)]
        for i in range(200):
            n = int(rng.integers(1, 40))
            if i % 3 == 0:  # heavy arrival ties
                arrivals = tuple(sorted(np.repeat(rng.uniform(0, 5, max(1, n // 3)), 3)[:n]))
            else:
                arrivals = tuple(sorted(rng.uniform(0, 20, n)))
            spec = specs[i % len(specs)]
            got = suffix_opt(arrivals, spec)
            assert np.allclose(got, naive_suffix(arrivals, spec), rtol=1e-12, atol=1e-12)


class TestCriticalSuffix:
    def test_whole_sequence_critical(self):
        assert longest_critical_suffix([0, 0.1], linear_sum()) == 0

    def test_gap_breaks_criticality(self):
        assert longest_critical_suffix([0, 0.1, 10], linear_sum()) == 2

    def test_single(self):
        assert longest_critical_suffix([7], linear_sum()) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            longest_critical_suffix([], linear_sum())

    def test_max_objective_rejected(self):
        # The search runs on the sum DP's table, so a max-aggregated model
        # is refused as dp_optimal refuses it.
        with pytest.raises(ValueError, match="sum-aggregated"):
            longest_critical_suffix([0, 1, 2.5], max_wait())

    def test_matches_unpruned_scan(self):
        rng = np.random.default_rng(3)
        specs = [
            linear_sum(),
            capped_linear(1.0),
            permit_plf(),
            max_wait(Objective.SUM_BATCH),
            max_wait_pow(2, Objective.SUM_BATCH),
        ]
        for i in range(300):
            n = int(rng.integers(1, 35))
            arrivals = tuple(sorted(rng.uniform(0, 10, n)))
            spec = specs[i % len(specs)]
            assert longest_critical_suffix(arrivals, spec) == naive_critical_start(arrivals, spec)

    @pytest.mark.parametrize(
        "spec",
        [
            linear_sum(),
            capped_linear(0.5),
            capped_linear(1.0),
            capped_linear(3.0),
            capped_linear(10.0),
            capped_linear(50.0),
            permit_plf(),
            permit_plf(num_classes=3),
            max_wait(Objective.SUM_BATCH),
            max_wait_pow(3, Objective.SUM_BATCH),
        ],
    )
    def test_certified_search_matches_reference(self, spec):
        rng = np.random.default_rng(6)
        saturated = 0  # capped searches whose scan reaches a start at the cap
        for i in range(250):
            n = int(rng.integers(1, 60))
            if i >= 150:  # bursts at gaps up to 100, past every cap tested
                bursts = np.cumsum(10.0 ** rng.uniform(-2, 2, n))
                arrivals = np.repeat(bursts, rng.geometric(0.25, n))[:n]
            elif i % 3 == 0:  # tied arrivals
                arrivals = np.repeat(rng.uniform(0, 8, n), rng.integers(1, 4, n))[:n]
            elif i % 3 == 1:  # gaps of every scale
                arrivals = np.cumsum(10.0 ** rng.uniform(-3, 1, n))
            else:
                arrivals = rng.uniform(0, 30, n)
            if i % 5 == 0:
                arrivals = arrivals + 2e6
            arrivals = tuple(sorted(arrivals))
            start = longest_critical_suffix(arrivals, spec)
            assert start == naive_critical_start(arrivals, spec), arrivals
            if spec.kind == "capped_linear" and start > 0:
                # The scan visits start - 1; count it when that start sits at
                # the cap, where the superadditive stop argument does not hold.
                saturated += bdelay(spec, arrivals[start - 1 :], arrivals[-1]) == spec.tau
        if spec.kind == "capped_linear" and spec.tau > 1.0:
            # With tau <= 1 every start costs at most 2 and no scan runs.
            assert saturated > 0

    def test_capped_search_runs_no_suffix_table(self, monkeypatch):
        # The capped model takes the pruned row scan of linear_sum: its
        # critical search never folds the permit model's suffix table.
        def refuse(table, arr, n):
            raise AssertionError("permit suffix table folded for a capped search")

        monkeypatch.setattr(PermitSuffixTable, "fold", refuse)
        rng = np.random.default_rng(11)
        searched = 0
        for tau in (0.5, 3.0, 10.0, 50.0):
            spec = capped_linear(tau)
            for _ in range(20):
                arrivals = np.cumsum(rng.exponential(1.0, int(rng.integers(2, 80))))
                searched += longest_critical_suffix(arrivals, spec) > 0
            sched = simulate(Instance(tuple(arrivals), spec), SumMonotonePhases(spec))
            assert sched.k > 0
        assert searched > 0

    def test_permit_prefix_crossing_the_switch(self):
        # Geometric gaps like the permit adversary's timeline, with prefixes
        # spanning from 1 to past 1e12.  The permit kernel used to hand spans
        # past 1e6 to the row scan; it now works on gaps and serves every span.
        arrivals = [1.0]
        while arrivals[-1] < 1e12:
            arrivals.append(arrivals[-1] * 1.7 + 1.0)
        spec = permit_plf(num_classes=600)
        for n in range(1, len(arrivals) + 1):
            assert longest_critical_suffix(arrivals[:n], spec) == naive_critical_start(
                arrivals[:n], spec
            )

    def test_permit_search_has_no_early_stop(self):
        # A dense run of 201 packets after a lone one, then two packets 16
        # apart.  One ack serves packets 1.. optimally, though the tail 202..
        # alone prefers a split: its single-ack cost exceeds its optimum by 6.
        spec = permit_plf()
        arrivals = [0.0] + [1e6 + i for i in range(201)] + [1e6 + 216, 1e6 + 232]

        def slack(p):
            single = bdelay(spec, arrivals[p:], arrivals[-1]) + 1.0
            return single - dp_optimal(arrivals[p:], spec)[0]

        assert longest_critical_suffix(arrivals, spec) == 1
        assert slack(1) == 0.0
        # The search starts below 203, the first start whose single-ack cost
        # is at most 2, and linear_sum's stop rule (slack above 1) would end
        # it at 202 and answer 203.
        assert bdelay(spec, arrivals[203:], arrivals[-1]) + 1.0 <= 2.0
        assert slack(202) == 6.0

    @pytest.mark.parametrize("num_classes", [3, 32, 600])
    def test_permit_kernel_on_geometric_timelines(self, num_classes):
        rng = np.random.default_rng(8)
        spec = permit_plf(num_classes=num_classes)
        for span in (1e3, 1e6, 1e9, 1e12):
            for i in range(6):
                # Integer times as in the permit game, and every other
                # timeline with fractional gaps.
                arrivals = geometric_timeline(rng, span, integer=i % 2 == 0)
                got = suffix_opt(arrivals, spec)
                assert np.allclose(got, naive_suffix(arrivals, spec), rtol=1e-12, atol=0.0)
                assert longest_critical_suffix(arrivals, spec) == naive_critical_start(
                    arrivals, spec
                )


class TestPermitSuffixTable:
    @pytest.mark.parametrize("num_classes", [1, 3, 32, 600])
    def test_matches_suffix_kernel(self, num_classes):
        # Folding in a few arrivals at a time, as the phase algorithm does
        # when it asks only now and then, gives the scalar reference's
        # optima, also across the joins that add a class.
        rng = np.random.default_rng(9)
        spec = permit_plf(num_classes=num_classes)
        timelines = [geometric_timeline(rng, 1e7, integer=i % 2 == 0) for i in range(4)]
        timelines.append(np.sort(np.repeat(rng.uniform(0, 50, 30), 2)))  # tied arrivals
        timelines.append(np.cumsum(rng.exponential(1.0, 120)))
        for arrivals in timelines:
            arrivals = np.asarray(arrivals, dtype=float)
            table = PermitSuffixTable(num_classes)
            n = 0
            while n < arrivals.size:
                n = min(arrivals.size, n + int(rng.integers(1, 6)))
                got = table.fold(arrivals, n)
                want = naive_suffix(arrivals[:n], spec)[:n]
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (arrivals, n)
            assert table.size == arrivals.size


class TestBruteForce:
    def test_partition_count_small(self):
        # n=4 enumerates exactly 8 partitions; spot-check via the optimum.
        cost, _ = brute_force_optimal([0, 1, 2, 3], linear_sum())
        assert cost == pytest.approx(dp_optimal([0, 1, 2, 3], linear_sum())[0])

    def test_matches_dp_example(self):
        cost, sched = brute_force_optimal([0, 0.5, 3], linear_sum())
        assert cost == pytest.approx(2.5) and sched.ack_times == (0.5, 3.0)

    def test_max_objective(self):
        cost, sched = brute_force_optimal([0, 10], max_wait())
        assert cost == pytest.approx(2.0)
        assert sched.ack_times == (0.0, 10.0)

    def test_vector_objective(self):
        # hand enumeration of the 4 partitions: {1,2}@0.5 + {3}@3 wins with
        # delay vector (0.5, 0, 0) -> top-1 = 0.5, total 2.5
        cost, sched = brute_force_optimal([0, 0.5, 3], top_k(1))
        assert cost == pytest.approx(2.5)
        assert sched.ack_times == (0.5, 3.0)

    def test_block_table_binds_one_kernel(self, monkeypatch):
        binds = []
        bind = acklab.cost.cost_kernel

        def counted(spec, *args):
            binds.append(spec)
            return bind(spec, *args)

        monkeypatch.setattr(acklab.cost, "cost_kernel", counted)
        brute_force_optimal([0.0, 0.5, 1.0, 4.0, 4.5, 9.0], max_wait())
        assert binds == [max_wait()]

    def test_size_guard(self):
        with pytest.raises(BruteForceInfeasibleError):
            brute_force_optimal(list(range(23)), linear_sum())

    def test_dp_equivalence_random(self):
        rng = np.random.default_rng(4)
        specs = [linear_sum(), capped_linear(0.5), capped_linear(1.0), permit_plf()]
        for i in range(120):
            arrivals = tuple(sorted(rng.uniform(0, 10, rng.integers(1, 10))))
            spec = specs[i % len(specs)]
            assert dp_optimal(arrivals, spec)[0] == pytest.approx(
                brute_force_optimal(arrivals, spec)[0], abs=1e-9
            )


def test_vectorized_blocks_match_scalar_bdelay():
    rng = np.random.default_rng(5)
    specs = [
        linear_sum(),
        capped_linear(1.0),
        permit_plf(),
        max_wait(Objective.SUM_BATCH),
        max_wait_pow(3, Objective.SUM_BATCH),
    ]
    for spec in specs:
        for _ in range(30):
            n = int(rng.integers(1, 10))
            arr = np.sort(rng.uniform(0, 10, n))
            table = DpTable(spec)
            for i, t in enumerate(arr):
                table.push(t)
                for j in range(i + 1):
                    assert table.single(j) - 1.0 == pytest.approx(
                        bdelay(spec, arr[j : i + 1], arr[i]), rel=1e-12, abs=1e-12
                    )
            # The critical-suffix scan costs block p..q at a_q with the
            # table's kernel, from its prefix sums and first arrivals.
            p = int(rng.integers(n))
            sums, firsts = table._sums, table._firsts
            for q in range(p, n):
                block = table._cost(float(q - p + 1), sums[q + 1] - sums[p], firsts[p], firsts[q])
                assert block == pytest.approx(
                    bdelay(spec, arr[p : q + 1], arr[q]), rel=1e-12, abs=1e-12
                )


@pytest.mark.parametrize(
    "spec", [linear_sum(), capped_linear(1.0), permit_plf(), max_wait(Objective.SUM_BATCH)]
)
def test_push_costs_no_block_column(monkeypatch, spec):
    # The hull and the class minima (max_wait's is permit class 0) choose
    # each start; push then costs the chosen blocks one at a time with the
    # kernel the table bound, and never builds a column of them.
    costed = []

    def scalars_only(model, ops=FLOAT_OPS):
        kernel = cost_kernel(model, ops)

        def cost(*numbers):
            if any(isinstance(x, np.ndarray) for x in numbers):
                raise AssertionError("push passed an array to the block kernel")
            costed.append(numbers)
            return kernel(*numbers)

        return cost

    monkeypatch.setattr(offline, "cost_kernel", scalars_only)
    table = DpTable(spec)
    for t in geometric_timeline(np.random.default_rng(12), 1e4, integer=False):
        table.push(t)
    assert len(costed) >= table.size


def test_one_critical_suffix_search_left_in_the_library():
    # DpTable holds the only suffix search; the stateless twin, its
    # re-basing, the backward permit kernel, the capped kernel and the block
    # helpers are gone.
    for name in (
        "_rebased",
        "_blocks_ending_at",
        "_starting_rows",
        "_suffix_table",
        "_critical_start",
        "_suffix_permit",
        "_suffix_capped",
        "_first_match",
    ):
        assert not hasattr(offline, name), name


def test_test_only_helpers_left_the_library():
    # The suffix optima, a schedule's delay vector and the toy permit
    # strategy had callers only in the tests, which keep their own; the
    # vector threshold greedy is GreedyTau.
    for module, name in (
        (offline, "suffix_opt"),
        (acklab.model, "delay_vector_of"),
        (acklab.adversary, "FixedClassStrategy"),
        (acklab.algorithms, "VectorThresholdGreedy"),
    ):
        assert not hasattr(module, name), name
        assert not hasattr(acklab, name), name
    assert not hasattr(DpTable, "suffix_optima")
    for name in ("_objective", "_who"):
        assert not hasattr(acklab.GreedyTau, name), name
