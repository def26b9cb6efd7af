import math
from fractions import Fraction

import numpy as np
import pytest

from acklab import (
    DpTable,
    GreedyBatchOblivious,
    GreedyMaxMonotone,
    GreedyTau,
    Instance,
    Objective,
    SumMonotonePhases,
    bdelay,
    capped_linear,
    evaluate_schedule,
    f_vector,
    gen_greedy_tau_hard,
    linear_sum,
    longest_critical_suffix,
    lp_norm,
    make_algorithm,
    max_wait,
    max_wait_pow,
    permit_plf,
    simulate,
    sum_vector,
)
import acklab.cost
import acklab.offline
from acklab.algorithms import ALGORITHM_NAMES, ALGORITHMS
from acklab.cost import FLOAT_OPS, cost_kernel
from acklab.engine import SimulationDriver
from acklab.harness import gen_bursty, gen_uniform
from acklab.model import batches_from_acks
from acklab.tolerance import tol_at
from test_offline import naive_critical_start


def chained_timelines(rng):
    """Integer timelines whose gaps mostly grow geometrically, like the
    permit game's chained requests, with a few short gaps between: they
    cross permit class boundaries mid-run and pass a span of 1e6.  The last
    one repeats every third arrival of another, for tied arrivals."""
    out = []
    for growth in (1.2, 1.7, 2.2):
        a = [1.0]
        while a[-1] < 2e6:
            step = a[-1] * (growth - 1.0) if rng.random() < 0.7 else rng.integers(0, 4)
            a.append(a[-1] + math.floor(step) + 1.0)
        out.append(tuple(a))
    out.append(tuple(sorted(out[1] + out[1][::3])))
    return out


def run(instance, algorithm):
    trace = []
    schedule = simulate(instance, algorithm, trace.append)
    return schedule, trace, evaluate_schedule(instance, schedule)


class TestGreedyTau:
    def test_three_packets(self):
        inst = Instance((0, 0.5, 3), linear_sum())
        sched, _, out = run(inst, GreedyTau(linear_sum(), 1.0))
        assert sched.ack_times[0] == pytest.approx(0.75, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(4.0, abs=1e-9)

    def test_hard_instance_acks_each_packet(self):
        inst = gen_greedy_tau_hard(3, 1.0, 1e-3)
        sched, _, out = run(inst, GreedyTau(inst.model, 1.0))
        assert len(sched.ack_times) == 3
        for t, a in zip(sched.ack_times, inst.arrivals):
            assert t == pytest.approx(a + 1.0, abs=1e-9)
        assert out.total == pytest.approx(6.0, abs=1e-6)

    def test_single_packet(self):
        inst = Instance((0,), linear_sum())
        _, _, out = run(inst, GreedyTau(linear_sum(), 1.0))
        assert out.total == pytest.approx(2.0, abs=1e-6)

    def test_ack_fires_at_threshold(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            arrivals = gen_uniform(int(rng.integers(1, 40)), 1.0, rng)
            inst = Instance(arrivals, linear_sum())
            sched, _, _ = run(inst, GreedyTau(linear_sum(), 1.0))
            for b in batches_from_acks(inst.arrivals, sched.ack_times):
                got = bdelay(linear_sum(), inst.arrivals[b.start : b.stop], b.ack_time)
                assert got == pytest.approx(1.0, abs=1e-6)

    def test_requires_sum_or_vector_objective(self):
        with pytest.raises(ValueError, match="sum-aggregated or vector model"):
            GreedyTau(max_wait(), 1.0)
        with pytest.raises(ValueError):
            GreedyTau(linear_sum(), 0.0)
        with pytest.raises(ValueError):
            GreedyTau(linear_sum(), math.inf)

    def test_permit_lone_packet_acks_at_exact_crossing(self):
        # plf(1) - 1 == 1 exactly, so the ack lands at t + 1 and not a
        # bisection step past it.
        for t in range(1, 2000):
            alg = GreedyTau(permit_plf(), 1.0)
            alg.observe_arrival(float(t))
            assert alg.planned_ack_time() == t + 1.0

    def test_permit_plans_take_three_cost_evaluations(self):
        # Each plan costs the batch at the arrival, one float below the
        # crossing and at it: the crossing is exact up to a float almost
        # everywhere, so 2000 plans take 6007 evaluations.  A seed that
        # drifts off the crossing would show here as a walk.
        n, spec = 2000, permit_plf(num_classes=32)
        arrivals = np.cumsum(np.random.default_rng(1).exponential(1.0, n)).tolist()
        alg = GreedyTau(spec, 1.0)
        calls, cost = 0, alg._aggregate.cost

        def counted(s):
            nonlocal calls
            calls += 1
            return cost(s)

        alg._aggregate.cost = counted
        simulate(Instance(arrivals, spec), alg)
        assert f"{calls / n:.2f}" == "3.00"


class TestGreedyMaxMonotone:
    def test_two_packets(self):
        inst = Instance((0, 10), max_wait())
        sched, _, out = run(inst, GreedyMaxMonotone(max_wait()))
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(12.0, abs=1e-9)
        assert out.total == pytest.approx(4.0, abs=1e-6)

    def test_single_packet_ratio_two(self):
        inst = Instance((0,), max_wait())
        _, _, out = run(inst, GreedyMaxMonotone(max_wait()))
        assert out.total == pytest.approx(2.0, abs=1e-6)

    def test_power_model(self):
        inst = Instance((0,), max_wait_pow(2))
        sched, _, _ = run(inst, GreedyMaxMonotone(max_wait_pow(2)))
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-6)

    def test_ith_batch_reaches_level_i(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            arrivals = gen_uniform(int(rng.integers(1, 25)), 0.3, rng)
            inst = Instance(arrivals, max_wait())
            sched, _, out = run(inst, GreedyMaxMonotone(max_wait()))
            batches = batches_from_acks(inst.arrivals, sched.ack_times)
            for i, b in enumerate(batches, start=1):
                got = bdelay(max_wait(), inst.arrivals[b.start : b.stop], b.ack_time)
                assert got == pytest.approx(float(i), abs=1e-6)
            assert out.total <= 2 * len(batches) + 1e-6

    def test_requires_max_objective(self):
        with pytest.raises(ValueError):
            GreedyMaxMonotone(linear_sum())


class TestGreedyBatchOblivious:
    def test_sum_vector_matches_classic_greedy(self):
        inst = Instance((0, 0.5, 3), sum_vector())
        sched, _, _ = run(inst, GreedyBatchOblivious(sum_vector()))
        assert sched.ack_times[0] == pytest.approx(0.75, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(4.0, abs=1e-9)

    def test_lp_inf_single(self):
        inst = Instance((0,), lp_norm(math.inf))
        sched, _, _ = run(inst, GreedyBatchOblivious(lp_norm(math.inf)))
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-9)

    def test_lp2_two_simultaneous(self):
        inst = Instance((0, 0), lp_norm(2))
        sched, _, _ = run(inst, GreedyBatchOblivious(lp_norm(2)))
        assert sched.ack_times[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_cost_increments_by_one_between_acks(self):
        rng = np.random.default_rng(2)
        spec = lp_norm(2)
        for _ in range(8):
            arrivals = gen_uniform(int(rng.integers(2, 30)), 1.0, rng)
            inst = Instance(arrivals, spec)
            sched, _, out = run(inst, GreedyBatchOblivious(spec))
            levels = []
            for t in sched.ack_times:
                d = [max(0.0, min(t, ack) - a) for a, ack in _final_acks(inst, sched)]
                levels.append(f_vector(spec, d))
            for prev, cur in zip([0.0] + levels, levels):
                assert cur - prev == pytest.approx(1.0, abs=1e-6)
            assert out.ack_count == len(sched.ack_times)

    def test_requires_vector_objective(self):
        with pytest.raises(ValueError):
            GreedyBatchOblivious(linear_sum())


def _final_acks(instance, schedule):
    """(arrival, its batch ack time) pairs under the schedule."""
    out = []
    for b in batches_from_acks(instance.arrivals, schedule.ack_times):
        for j in b.indices:
            out.append((instance.arrivals[j], b.ack_time))
    return out


class TestGreedyTauOnVectorModels:
    def test_matches_greedy_tau_on_sum_vector(self):
        arrivals = (0.0, 0.5, 3.0)
        v_inst = Instance(arrivals, sum_vector())
        sched_v, _, _ = run(v_inst, GreedyTau(sum_vector(), 1.0))
        s_inst = Instance(arrivals, linear_sum())
        sched_s, _, _ = run(s_inst, GreedyTau(linear_sum(), 1.0))
        for a, b in zip(sched_v.ack_times, sched_s.ack_times):
            assert a == pytest.approx(b, abs=1e-9)


PINNED_PHASE_ARRIVALS = (
    1.0, 1.25, 2.25, 2.5, 5.5, 7.5, 7.75, 7.75, 8.0, 9.5, 9.75, 12.0, 12.0, 13.0
)


class TestSumMonotonePhases:
    @pytest.mark.parametrize(
        "spec, cluster_rate, burst_mean, intra_scale",
        [
            (linear_sum(), 0.25, 4.0, 0.01),
            # Dense bursts: a row scan would cost hundreds of rows per arrival.
            (max_wait(Objective.SUM_BATCH), 1.0, 100.0, 0.001),
            (permit_plf(num_classes=32), 1.0, 100.0, 0.001),
        ],
        ids=["linear_sum", "max_wait", "permit_plf"],
    )
    def test_block_costs_per_arrival_do_not_grow_with_n(
        self, monkeypatch, spec, cluster_rate, burst_mean, intra_scale
    ):
        # Every call of a kernel bound from cost_kernel counts once, on a
        # block or on an array of them: the DP step, the critical-suffix
        # search and the pending batch's aggregate.  About 25 per arrival
        # under linear_sum and 6 under max_wait and permit_plf, whose
        # search prices only the whole-prefix single ack and reads its
        # answer off the table; work linear in the arrivals seen would be
        # thousands, and would grow from the first quarter of the arrivals
        # to all of them.
        calls = 0

        def counting(spec, ops=FLOAT_OPS):
            kernel = cost_kernel(spec, ops)

            def cost(*numbers):
                nonlocal calls
                calls += 1
                return kernel(*numbers)

            return cost

        searches, in_search = 0, 0
        critical_start = DpTable.critical_start

        def counted_search(table):
            nonlocal searches, in_search
            before = calls
            start = critical_start(table)
            searches += 1
            in_search += calls - before
            return start

        monkeypatch.setattr(acklab.cost, "cost_kernel", counting)
        monkeypatch.setattr(acklab.offline, "cost_kernel", counting)
        monkeypatch.setattr(DpTable, "critical_start", counted_search)
        n = 8000
        arrivals = gen_bursty(n, cluster_rate, burst_mean, intra_scale, np.random.default_rng(7))
        per_arrival = []
        for m in (n // 4, n):
            calls = searches = in_search = 0
            simulate(Instance(arrivals[:m], spec), SumMonotonePhases(spec))
            assert m <= calls <= 40 * m
            assert searches == m
            if spec.kind != "linear_sum":
                # The whole-prefix check prices one single ack, and the
                # search past it none.
                assert in_search == searches
            per_arrival.append(calls / m)
        assert per_arrival[1] <= 1.2 * per_arrival[0], per_arrival

    def test_single_packet(self):
        inst = Instance((0,), linear_sum())
        sched, trace, out = run(inst, SumMonotonePhases(linear_sum()))
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-9)
        assert out.total == pytest.approx(2.0, abs=1e-6)
        starts = [ev for ev in trace if ev.kind == "service_start"]
        assert starts[0].detail["service"] == "budget"
        assert starts[0].detail["budget"] == pytest.approx(2.0, abs=1e-9)

    def test_extending_critical_suffix_updates_budget(self):
        inst = Instance((0, 0.1), linear_sum())
        sched, trace, out = run(inst, SumMonotonePhases(linear_sum()))
        assert sched.ack_times == pytest.approx((0.65,), abs=1e-9)
        assert out.total == pytest.approx(2.2, abs=1e-6)
        updates = [ev for ev in trace if ev.kind == "budget_update"]
        assert updates and updates[0].detail["new"] == pytest.approx(2.2, abs=1e-9)

    def test_buffer_service_not_promoted_by_small_suffix(self):
        inst = Instance((0, 0.1, 10), linear_sum())
        sched, trace, _ = run(inst, SumMonotonePhases(linear_sum()))
        assert sched.ack_times[0] == pytest.approx(0.65, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(13.4, abs=1e-9)
        assert not any(ev.kind == "promotion" for ev in trace)
        buffers = [
            ev for ev in trace
            if ev.kind == "service_start" and ev.detail["service"] == "buffer"
        ]
        assert buffers and buffers[0].detail["budget"] == pytest.approx(4.4, abs=1e-9)

    @pytest.mark.parametrize(
        "spec", [linear_sum(), capped_linear(1.0), permit_plf()]
    )
    def test_service_invariants_on_random_instances(self, spec):
        rng = np.random.default_rng(3)
        for i in range(6):
            n = int(rng.integers(2, 60))
            arrivals = (
                gen_uniform(n, 1.0, rng) if i % 2 else gen_bursty(n, 0.3, 4.0, 0.01, rng)
            )
            inst = Instance(arrivals, spec)
            sched, trace, _ = run(inst, SumMonotonePhases(spec))

            flush_times = {ev.time for ev in trace if ev.kind == "flush"}
            budget = None
            serve_cost = None
            buffers_since_budget = 0
            pending = []
            for ev in trace:
                if ev.kind == "arrival":
                    pending.append(inst.arrivals[ev.detail["index"]])
                elif ev.kind in ("service_start", "promotion", "budget_update"):
                    new_budget = ev.detail.get("new", ev.detail.get("budget"))
                    if ev.kind == "service_start" and ev.detail["service"] == "buffer":
                        assert ev.detail["index"] == buffers_since_budget + 1
                        buffers_since_budget += 1
                        assert buffers_since_budget <= 3
                    if ev.kind in ("promotion",) or (
                        ev.kind == "service_start" and ev.detail["service"] == "budget"
                    ):
                        buffers_since_budget = 0
                        budget = None  # fresh service may reset the level
                    if budget is not None and ev.kind == "budget_update":
                        assert new_budget >= budget - 1e-9
                    budget = new_budget
                    serve_cost = ev.detail.get("serve_cost", serve_cost)
                elif ev.kind == "ack" and pending:
                    paid = bdelay(spec, tuple(pending), ev.time)
                    # a non-flush service ack fires when bdelay + 1 reaches b
                    if paid + 1.0 < budget - 1e-6:
                        assert ev.time in flush_times  # only a flush may underpay
                    else:
                        assert paid + 1.0 == pytest.approx(
                            budget, abs=1e-6 * max(1.0, budget)
                        )
                    pending = []

    def test_full_trace_pinned(self):
        # One run through every phase transition: budget service with a
        # budget update, buffers 1-3, the end of the phase (no event), a new
        # budget service, a promotion and the buffer after it.
        arrivals = PINNED_PHASE_ARRIVALS
        trace = []
        simulate(Instance(arrivals, linear_sum()), SumMonotonePhases(linear_sum()), trace.append)
        events = [(ev.time, ev.kind, ev.detail) for ev in trace if ev.kind != "arrival"]

        def buffer(index, budget, serve_cost):
            return {"service": "buffer", "index": index, "budget": budget, "serve_cost": serve_cost}

        assert events == [
            (1.0, "service_start",
             {"service": "budget", "budget": 2.0, "serve_cost": 1.0, "suffix_start": 0}),
            (1.25, "budget_update", {"old": 2.0, "new": 2.5, "serve_cost": 1.25}),
            (1.875, "ack", {"indices": [0, 1]}),
            (1.875, "service_start", buffer(1, 5.0, 1.25)),
            (4.375, "ack", {"indices": [2, 3]}),
            (4.375, "service_start", buffer(2, 5.0, 1.25)),
            (8.100000000000001, "ack", {"indices": [4, 5, 6, 7, 8]}),
            (8.100000000000001, "service_start", buffer(3, 5.0, 1.25)),
            (11.625, "ack", {"indices": [9, 10]}),
            (12.0, "service_start",
             {"service": "budget", "budget": 2.0, "serve_cost": 1.0, "suffix_start": 11}),
            (12.0, "budget_update", {"old": 2.0, "new": 2.0, "serve_cost": 1.0}),
            (12.5, "ack", {"indices": [11, 12]}),
            (12.5, "service_start", buffer(1, 4.0, 1.0)),
            (13.0, "promotion", {"budget": 4.0, "serve_cost": 2.0, "suffix_start": 12}),
            (16.0, "ack", {"indices": [13]}),
            (16.0, "service_start", buffer(1, 8.0, 2.0)),
        ]
        arrival_times = [ev.time for ev in trace if ev.kind == "arrival"]
        assert arrival_times == list(arrivals)

    def test_phase_is_one_service_counter(self):
        # None between phases, 0 in a budget service, 1-3 in a buffer service.
        alg = SumMonotonePhases(linear_sum())
        for name in ("kind", "buffer_index", "IDLE", "BUDGET", "BUFFER"):
            assert not hasattr(alg, name), name
        driver = SimulationDriver(alg)
        services = [alg.service]

        def record():
            if alg.service != services[-1]:
                services.append(alg.service)

        for a in PINNED_PHASE_ARRIVALS:
            driver.run_until(a)
            record()
            driver.deliver(a)
            record()
        driver.finish(PINNED_PHASE_ARRIVALS[-1])
        record()
        assert services == [None, 0, 1, 2, 3, None, 0, 1, 0, 1]

    def test_budget_is_read_from_the_serve_cost(self):
        # Twice the serve cost in a budget service, four times in a buffer
        # service, at every event; nothing stores a budget of its own.
        alg = SumMonotonePhases(linear_sum())
        trace = []
        driver = SimulationDriver(alg, trace.append)
        for a in PINNED_PHASE_ARRIVALS:
            driver.deliver(a)
            assert alg.budget == 2.0 * alg.serve_cost * (1 if alg.service == 0 else 2)
        driver.finish(PINNED_PHASE_ARRIVALS[-1])
        traced = [ev.detail for ev in trace if "budget" in ev.detail]
        assert len(traced) > 5
        for detail in traced:
            factor = 4.0 if detail.get("service") == "buffer" else 2.0
            assert detail["budget"] == factor * detail["serve_cost"], detail
        with pytest.raises(AttributeError):
            alg.budget = 1.0

    @pytest.mark.parametrize(
        "name, objective",
        [("greedy_tau", Objective.SUM_BATCH), ("phases", Objective.SUM_BATCH),
         ("max_mono", Objective.MAX_BATCH)],
    )
    @pytest.mark.parametrize("t", [0.0, 0.25, 3.0, 1e6])
    def test_lone_permit_packet_acked_one_after_it(self, name, objective, t):
        spec = permit_plf(objective=objective)
        sched = simulate(Instance((t,), spec), make_algorithm({"alg": name}, spec))
        assert sched.ack_times == (t + 1.0,)

    def test_requires_sum_objective(self):
        with pytest.raises(ValueError):
            SumMonotonePhases(max_wait())

    @pytest.mark.parametrize(
        "spec",
        [
            linear_sum(),
            capped_linear(0.5),
            capped_linear(3.0),
            permit_plf(),
            max_wait(Objective.SUM_BATCH),
            max_wait_pow(2, Objective.SUM_BATCH),
            permit_plf(num_classes=1),
            permit_plf(num_classes=3),
            permit_plf(num_classes=600),
        ],
    )
    def test_incremental_suffix_matches_fresh_search(self, spec):
        # The policy's growing table and a fresh table asked once run one
        # search, so the first 30 packets of each timeline are also checked
        # against slow references: a prefix DP and a suffix table built from
        # scalar bdelay on explicit slices.
        rng = np.random.default_rng(4)
        timelines = []
        for i in range(8):
            n = int(rng.integers(2, 80))
            timelines.append(
                gen_uniform(n, 1.0, rng) if i % 2 else gen_bursty(n, 0.3, 4.0, 0.01, rng)
            )
        chained = chained_timelines(rng) if spec.kind == "permit_plf" else []
        shifted = [tuple(1e12 + a for a in arrivals) for arrivals in timelines[:4]]
        for arrivals in timelines + chained + shifted:
            alg = SumMonotonePhases(spec)
            values, searched = [0.0], False
            for j, t in enumerate(arrivals):
                start, serve = alg._critical_suffix(t)
                searched |= start > 0
                assert start == longest_critical_suffix(arrivals[: j + 1], spec), (arrivals, j)
                assert serve == pytest.approx(
                    bdelay(spec, arrivals[start : j + 1], t) + 1.0, rel=1e-12
                )
                if j < 30:
                    values.append(1.0 + min(
                        values[i] + bdelay(spec, arrivals[i : j + 1], t) for i in range(j + 1)
                    ))
                    for got, want in zip(alg._table.values[: j + 2], values, strict=True):
                        assert abs(got - want) <= tol_at(want), (arrivals, j)
                    assert start == naive_critical_start(arrivals[: j + 1], spec), (arrivals, j)
            if arrivals in chained:
                # On a chained timeline the whole-prefix shortcut fails
                # somewhere, so the DP's last-batch start answered.
                assert searched


# ---------------------------------------------------------------------------
# Exact batch crossings at large offsets
# ---------------------------------------------------------------------------

GRID_POLICIES = {
    "greedy_tau-1-linear_sum": lambda: GreedyTau(linear_sum(), 1.0),
    "greedy_tau-0.7-linear_sum": lambda: GreedyTau(linear_sum(), 0.7),
    "greedy_tau-1-capped_linear": lambda: GreedyTau(capped_linear(1.0), 1.0),
    "greedy_tau-0.7-capped_linear": lambda: GreedyTau(capped_linear(1.0), 0.7),
    "phases-linear_sum": lambda: SumMonotonePhases(linear_sum()),
    "max_mono-max_wait_pow": lambda: GreedyMaxMonotone(max_wait_pow(2)),
}


def exact_batch_cost(spec, batch, t):
    """The cost at ``t`` of the batch's packets arrived by then, computed in
    exact arithmetic and rounded once to a float: no float evaluation of the
    cost can do better."""
    t = Fraction(t)
    waits = [t - Fraction(a) for a in batch if a <= t]
    if spec.kind == "max_wait_pow":
        return float(max(waits) ** int(spec.p))
    cost = sum(waits)
    return float(min(cost, Fraction(spec.tau)) if spec.kind == "capped_linear" else cost)


@pytest.mark.parametrize("shift", [0.0, 2.0**33, 2.0**40])
@pytest.mark.parametrize("policy", list(GRID_POLICIES))
def test_batch_acks_at_exact_crossings_at_large_offsets(policy, shift):
    # Arrivals on a 1/64 grid keep every offset from the first pending
    # arrival exact at these shifts, so the cost the policy plans with has
    # no cancellation.  A sum of absolute arrival times near 2**40 would be
    # a multiple of 2**-11 and miss crossings by up to that much.
    rng = np.random.default_rng(1)
    grid = np.round(np.cumsum(rng.exponential(1.0, 300)) * 64) / 64
    alg = GRID_POLICIES[policy]()
    arrivals = tuple(shift + grid)
    trace = []
    driver = SimulationDriver(alg, trace.append)
    commits = []
    commit = alg.commit_ack

    def recording_commit(t):
        commits.append((t, alg._target(), t == alg.planned_ack_time()))
        commit(t)

    alg.commit_ack = recording_commit
    for a in arrivals:
        driver.deliver(a)
    driver.finish(arrivals[-1])
    batches = [ev.detail["indices"] for ev in trace if ev.kind == "ack"]
    planned = [
        (t, target, [arrivals[j] for j in batch])
        for (t, target, flag), batch in zip(commits, batches)
        if flag
    ]
    assert len(planned) > 40
    for t, target, batch in planned:  # the first float at which the cost reaches the target
        assert exact_batch_cost(alg.spec, batch, t) >= target, (t, target)
        before = math.nextafter(t, -math.inf)
        assert exact_batch_cost(alg.spec, batch, before) < target, (t, target)


class TestMakeAlgorithm:
    def test_selectors(self):
        assert isinstance(
            make_algorithm({"alg": "greedy_tau", "tau": 2.0}, linear_sum()), GreedyTau
        )
        assert isinstance(make_algorithm({"alg": "max_mono"}, max_wait()), GreedyMaxMonotone)
        assert isinstance(
            make_algorithm({"alg": "vector_greedy"}, lp_norm(2)), GreedyBatchOblivious
        )
        assert isinstance(make_algorithm({"alg": "phases"}, linear_sum()), SumMonotonePhases)
        assert isinstance(
            make_algorithm({"alg": "greedy_tau_vector"}, lp_norm(2)), GreedyTau
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm({"alg": "nope"}, linear_sum())
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm({"alg": ["phases"]}, linear_sum())

    @pytest.mark.parametrize(
        "selector, model, stray",
        [
            ({"alg": "greedy_tau", "tua": 0.5}, linear_sum(), "tua"),
            ({"alg": "phases", "tau": 2}, linear_sum(), "tau"),
            ({"alg": "max_mono", "tau": 1.0}, max_wait(), "tau"),
            ({"alg": "vector_greedy", "tau": 1.0}, lp_norm(2), "tau"),
            ({"alg": "greedy_tau_vector", "tau": 1.0, "k": 3}, lp_norm(2), "k"),
        ],
    )
    def test_keys_the_algorithm_does_not_take(self, selector, model, stray):
        with pytest.raises(ValueError, match=f"takes no key '{stray}'"):
            make_algorithm(selector, model)

    def test_names_and_defaults_come_from_one_table(self):
        assert ALGORITHM_NAMES == tuple(ALGORITHMS)
        models = {"max_mono": max_wait(), "vector_greedy": lp_norm(2), "greedy_tau_vector": lp_norm(2)}
        for name, (cls, defaults) in ALGORITHMS.items():
            alg = make_algorithm({"alg": name}, models.get(name, linear_sum()))
            assert type(alg) is cls
            assert {key: getattr(alg, key) for key in defaults} == defaults

    def test_objective_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm({"alg": "max_mono"}, linear_sum())
