import math
from fractions import Fraction

import numpy as np
import pytest

from acklab import (
    GreedyBatchOblivious,
    GreedyMaxMonotone,
    GreedyTau,
    Instance,
    Objective,
    SumMonotonePhases,
    VectorThresholdGreedy,
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
from acklab import offline
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
    schedule, trace = simulate(instance, algorithm)
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

    def test_requires_sum_objective(self):
        with pytest.raises(ValueError):
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
            alg.observe_arrival(float(t), 0)
            assert alg.planned_ack_time() == t + 1.0


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


class TestVectorThresholdGreedy:
    def test_matches_greedy_tau_on_sum_vector(self):
        arrivals = (0.0, 0.5, 3.0)
        v_inst = Instance(arrivals, sum_vector())
        sched_v, _, _ = run(v_inst, VectorThresholdGreedy(sum_vector(), 1.0))
        s_inst = Instance(arrivals, linear_sum())
        sched_s, _, _ = run(s_inst, GreedyTau(linear_sum(), 1.0))
        for a, b in zip(sched_v.ack_times, sched_s.ack_times):
            assert a == pytest.approx(b, abs=1e-9)


class TestSumMonotonePhases:
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
        # The policy's table and the stateless search share one kernel, so
        # the first 30 packets of each timeline are also checked against slow
        # references: a prefix DP and a suffix table built from scalar bdelay
        # on explicit slices.
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
            values = [0.0]
            for j, t in enumerate(arrivals):
                start, serve = alg._critical_suffix(t)
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
                # somewhere, so the incremental permit table answered.
                assert alg._table._permits.size > 0

    def test_permit_never_runs_the_stateless_search(self, monkeypatch):
        def stateless(*args):
            raise AssertionError("the permit model has its own incremental table")

        monkeypatch.setattr(offline, "_suffix_permit", stateless)
        for arrivals in chained_timelines(np.random.default_rng(5)):
            alg = SumMonotonePhases(permit_plf(num_classes=600))
            for t in arrivals:
                alg._critical_suffix(t)
            assert alg._table._permits.size > 0


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
    instance = Instance(tuple(shift + grid), alg.spec)
    commits = []
    commit = alg.commit_ack

    def recording_commit(t):
        planned = t == alg.planned_ack_time()
        commits.append((t, alg._target(), [a for _, a in alg._pending], planned))
        return commit(t)

    alg.commit_ack = recording_commit
    simulate(instance, alg)
    planned = [(t, target, batch) for t, target, batch, flag in commits if flag]
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
            make_algorithm({"alg": "greedy_tau_vector"}, lp_norm(2)), VectorThresholdGreedy
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm({"alg": "nope"}, linear_sum())

    def test_objective_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm({"alg": "max_mono"}, linear_sum())
