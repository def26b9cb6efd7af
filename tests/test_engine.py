import copy
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acklab
from acklab import (
    EngineError,
    GreedyTau,
    Instance,
    Objective,
    Schedule,
    SumMonotonePhases,
    batches_from_acks,
    capped_linear,
    evaluate_schedule,
    linear_sum,
    lp_norm,
    make_algorithm,
    max_wait,
    max_wait_pow,
    ordered_norm,
    permit_plf,
    simulate,
    sum_vector,
    top_k,
)
from acklab import engine
from acklab.adversary import TcpPermitAdapter
from acklab.algorithms import ALGORITHM_NAMES
from acklab.cost import cost_kernel
from acklab.engine import OnlineAlgorithm, SimulationDriver
from acklab.harness import gen_bursty
from bisection_reference import solve_threshold_time


class TestSolveThresholdTime:
    def test_linear_closed_form(self):
        t = solve_threshold_time(lambda t: max(0.0, t), 0.0, 1.0)
        assert t == pytest.approx(1.0, abs=1e-9)

    def test_bounded_evaluator_returns_none(self):
        fn = lambda t: cost_kernel(capped_linear(1.0))(1, 0.0, 0.0, t)  # noqa: E731
        assert solve_threshold_time(fn, 0.0, 2.0) is None

    def test_bounded_evaluator_none_without_sup_hint(self):
        fn = lambda t: cost_kernel(capped_linear(1.0))(1, 0.0, 0.0, t)  # noqa: E731
        assert solve_threshold_time(fn, 0.0, 2.0, expansion_cap=2.0 ** 40) is None

    def test_two_packet_example(self):
        fn = lambda t: cost_kernel(linear_sum())(2, 0.1, 0.0, t)  # noqa: E731
        t = solve_threshold_time(fn, 0.1, 1.2)
        assert t == pytest.approx(0.65, abs=1e-9)

    def test_already_met_returns_t_lo(self):
        assert solve_threshold_time(lambda t: 5.0, 3.0, 1.0) == 3.0

    def test_value_near_target_at_continuous_crossing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            slope = 10.0 ** rng.uniform(-2, 3)
            target = 10.0 ** rng.uniform(-1, 2)
            t0 = rng.uniform(0, 10)
            fn = lambda t: max(0.0, (t - t0) * slope)  # noqa: E731
            t = solve_threshold_time(fn, t0, target)
            assert fn(t) == pytest.approx(target, abs=1e-9 * max(1.0, target))

    def test_jump_crossing_returns_first_time_at_or_above(self):
        fn = lambda t: 0.0 if t < 2.0 else 5.0  # noqa: E731
        t = solve_threshold_time(fn, 0.0, 1.0)
        assert t == pytest.approx(2.0, abs=1e-9)
        assert fn(t) >= 1.0

    def test_non_monotone_detected(self):
        with pytest.raises(EngineError):
            solve_threshold_time(lambda t: math.sin(t * 37.0) * 5.0, 0.0, 4.9)


class TestSimulate:
    def test_single_packet_greedy(self):
        inst = Instance((0,), linear_sum())
        trace = []
        sched = simulate(inst, GreedyTau(linear_sum(), 1.0), trace.append)
        assert len(sched.ack_times) == 1
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-9)
        kinds = [ev.kind for ev in trace]
        assert kinds == ["arrival", "ack"]

    def test_empty_instance(self):
        inst = Instance((), linear_sum())
        trace = []
        sched = simulate(inst, GreedyTau(linear_sum(), 1.0), trace.append)
        assert sched.ack_times == () and trace == []

    def test_greedy_three_packets(self):
        inst = Instance((0, 0.5, 3), linear_sum())
        sched = simulate(inst, GreedyTau(linear_sum(), 1.0))
        assert sched.ack_times[0] == pytest.approx(0.75, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(4.0, abs=1e-9)
        assert evaluate_schedule(inst, sched).total == pytest.approx(4.0, abs=1e-6)

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(1)
        arrivals = tuple(np.cumsum(rng.exponential(1.0, 30)))
        inst = Instance(arrivals, linear_sum())
        dumps = []
        for _ in range(2):
            trace = []
            sched = simulate(inst, SumMonotonePhases(linear_sum()), trace.append)
            dumps.append(
                json.dumps(list(sched.ack_times))
                + "\n".join(ev.to_json_line() for ev in trace)
            )
        assert dumps[0] == dumps[1]

    def test_online_causality_truncation(self):
        rng = np.random.default_rng(2)
        arrivals = tuple(np.cumsum(rng.exponential(1.0, 20)))
        full_inst = Instance(arrivals, linear_sum())
        full_trace = []
        simulate(full_inst, GreedyTau(linear_sum(), 1.0), full_trace.append)
        for j in (5, 10, 15):
            cut = arrivals[j]  # a_{j+1} in 0-based terms
            trunc = Instance(arrivals[:j], linear_sum())
            trace = []
            simulate(trunc, GreedyTau(linear_sum(), 1.0), trace.append)
            want = [ev.to_json_line() for ev in full_trace if ev.time < cut]
            got = [ev.to_json_line() for ev in trace if ev.time < cut]
            assert got == want

    def test_flush_when_no_trigger_reachable(self):
        # capped model: the budget is unreachable, the driver must flush
        spec = capped_linear(0.25)
        inst = Instance((0.0, 1.0), spec, horizon=5.0)
        trace = []
        sched = simulate(inst, SumMonotonePhases(spec), trace.append)
        assert any(ev.kind == "flush" for ev in trace)
        assert sched.ack_times[-1] == 5.0

    def test_arrival_before_current_time_rejected(self):
        driver = SimulationDriver(GreedyTau(linear_sum(), 1.0))
        driver.deliver(2.0)
        with pytest.raises(EngineError):
            driver.deliver(1.0)

    def test_model_mismatch_rejected(self):
        inst = Instance((0,), capped_linear(1.0))
        with pytest.raises(EngineError):
            simulate(inst, GreedyTau(linear_sum(), 1.0))


class TestPlannedAckTime:
    """The plan is the only look-ahead: after an arrival, the planned ack
    time is when the newest packet gets acknowledged absent arrivals."""

    def test_greedy_single_packet(self):
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(5.0)
        assert alg.planned_ack_time() == pytest.approx(6.0, abs=1e-9)

    def test_phases_single_packet(self):
        alg = SumMonotonePhases(linear_sum())
        alg.observe_arrival(0.0)
        assert alg.planned_ack_time() == pytest.approx(1.0, abs=1e-9)

    def test_phases_permit_model(self):
        alg = SumMonotonePhases(permit_plf())
        alg.observe_arrival(1.0)
        assert alg.planned_ack_time() == pytest.approx(2.0, abs=1e-9)

    def test_reading_the_plan_changes_no_state(self):
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(0.0)
        before = copy.deepcopy(alg.__dict__)
        alg.planned_ack_time()
        # Aggregates define no __eq__, so theirs is compared by its fields.
        assert vars(alg.__dict__.pop("_aggregate")) == vars(before.pop("_aggregate"))
        assert alg.__dict__ == before

    def test_none_when_never_acked(self):
        spec = capped_linear(0.25)
        alg = SumMonotonePhases(spec)
        alg.observe_arrival(0.0)  # budget 2, cap 0.25: trigger unreachable
        assert alg.planned_ack_time() is None

    def test_plan_agrees_with_a_replay_on_spread_sequence(self):
        # build arrivals so each lands after the previous one's planned ack
        spec = linear_sum()
        alg = GreedyTau(spec, 1.0)
        driver = SimulationDriver(alg)
        arrivals, plans = [], []
        t = 0.7
        for j in range(8):
            driver.deliver(t)
            arrivals.append(t)
            plan = alg.planned_ack_time()
            plans.append(plan)
            t = plan + 0.3 + 0.1 * j
        fresh = GreedyTau(spec, 1.0)
        sched = simulate(Instance(tuple(arrivals), spec), fresh)
        assert sched.ack_times == tuple(plans)

    def test_second_look_ahead_is_gone(self):
        assert not hasattr(acklab, "next_threshold")
        assert not hasattr(engine, "next_threshold")
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(0.0)
        assert not hasattr(alg, "last_arrival_index")
        adapter = TcpPermitAdapter(SumMonotonePhases(permit_plf()))
        adapter.on_request(1)
        assert not hasattr(adapter, "requests")


def _accepts(name, spec):
    try:
        make_algorithm({"alg": name}, spec)
    except ValueError:
        return False
    return True


SINK_MODELS = (
    linear_sum(),
    capped_linear(1.0),
    max_wait(Objective.SUM_BATCH),
    max_wait(Objective.MAX_BATCH),
    max_wait_pow(2, Objective.SUM_BATCH),
    max_wait_pow(2, Objective.MAX_BATCH),
    permit_plf(num_classes=32),
    permit_plf(num_classes=32, objective=Objective.MAX_BATCH),
    lp_norm(2.0),
    lp_norm(math.inf),
    top_k(3),
    ordered_norm((3.0, 2.0, 1.0, 0.5)),
    sum_vector(),
)
SINK_CASES = [
    (name, spec) for name in ALGORITHM_NAMES for spec in SINK_MODELS if _accepts(name, spec)
]


# Arrivals that take phases through a budget update and its buffer services.
PHASE_ARRIVALS = (0.0, 0.1, 0.15, 2.0, 2.05, 2.1, 5.0, 9.0, 9.5, 14.0)


class TestSink:
    """The trace goes to a sink if one is given; without one the driver
    builds no event and the run is the same."""

    def test_every_policy_takes_some_model(self):
        assert {name for name, _ in SINK_CASES} == set(ALGORITHM_NAMES)

    @pytest.mark.parametrize(
        "name, spec", SINK_CASES, ids=[f"{n}-{s.kind}-{s.objective.name}" for n, s in SINK_CASES]
    )
    def test_sink_changes_no_ack(self, name, spec):
        arrivals = gen_bursty(200, 1.0, 4.0, 0.01, np.random.default_rng(5))
        instance = Instance(tuple(arrivals), spec)
        trace = []
        traced = simulate(instance, make_algorithm({"alg": name}, spec), trace.append)
        plain = simulate(instance, make_algorithm({"alg": name}, spec))
        assert plain.ack_times == traced.ack_times
        batches = batches_from_acks(instance.arrivals, plain.ack_times)
        assert acked_batches(trace) == [list(b.indices) for b in batches]

    def test_driver_with_no_sink_leaves_emit_the_class_no_op(self):
        policy = SumMonotonePhases(linear_sum())
        driver = SimulationDriver(policy)
        for a in PHASE_ARRIVALS:
            driver.deliver(a)
        driver.finish(PHASE_ARRIVALS[-1])
        assert "emit" not in vars(policy)
        assert policy.emit.__func__ is OnlineAlgorithm.emit

        traced, trace = SumMonotonePhases(linear_sum()), []
        driver = SimulationDriver(traced, trace.append)
        for a in PHASE_ARRIVALS:
            driver.deliver(a)
        driver.finish(PHASE_ARRIVALS[-1])
        assert "emit" in vars(traced)
        assert {"service_start", "budget_update"} <= {ev.kind for ev in trace}

    def test_policy_events_are_stamped_with_the_event_they_follow(self):
        trace = []
        simulate(Instance(PHASE_ARRIVALS, linear_sum()), SumMonotonePhases(linear_sum()),
                 trace.append)
        driven = ("arrival", "ack", "flush")
        assert trace[0].kind == "arrival"
        last = trace[0]
        for ev in trace[1:]:
            if ev.kind in driven:
                last = ev
            else:
                assert ev.time == last.time, (ev, last)

    @pytest.mark.parametrize(
        "make",
        [lambda spec: GreedyTau(spec, 1.0), SumMonotonePhases],
        ids=["greedy_tau", "phases"],
    )
    def test_run_with_no_sink_keeps_no_trace(self, make):
        # At its peak a run holds the policy's state and the ack times: 28
        # and 49 bytes a packet.  A kept trace costs about 580 under
        # greedy_tau and 630 under phases.
        n = 20000
        spec = linear_sum()
        instance = Instance(
            tuple(np.cumsum(np.random.default_rng(3).exponential(1.0, n)).tolist()), spec
        )
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            policy = make(spec)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            schedule = simulate(instance, policy)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert schedule.ack_times
        assert peak <= 128 * n, peak / n


class _EagerAcker(OnlineAlgorithm):
    """Acks every packet the instant it arrives (test stub)."""

    def __init__(self, spec):
        super().__init__(spec)
        self._planned = None

    def observe_arrival(self, time):
        self._planned = time

    def planned_ack_time(self):
        return self._planned

    def commit_ack(self, time):
        super().commit_ack(time)
        self._planned = None


class _FlushOnly(OnlineAlgorithm):
    """Implements only the two required methods and never plans an ack."""

    last = None

    def observe_arrival(self, time):
        self.last = time

    def planned_ack_time(self):
        return None


class _StalePlan(_FlushOnly):
    """Plans an ack at its last arrival and never hears of the commit."""

    def planned_ack_time(self):
        return self.last


def acked_batches(trace):
    return [ev.detail["indices"] for ev in trace if ev.kind == "ack"]


class TestDriverOwnsThePendingPackets:
    def test_policy_with_only_the_required_methods(self):
        spec = linear_sum()
        trace = []
        sched = simulate(
            Instance((0.0, 1.0, 2.5), spec, horizon=4.0), _FlushOnly(spec), trace.append
        )
        assert sched.ack_times == (4.0,)
        assert [ev.kind for ev in trace][-2:] == ["flush", "ack"]
        assert trace[-1].detail == {"indices": [0, 1, 2]}

        trace = []
        driver = SimulationDriver(_FlushOnly(spec), trace.append)
        driver.deliver(0.0)
        driver.deliver(1.0)
        assert list(driver.pending) == [0, 1] and acked_batches(trace) == []
        driver.finish(0.5)
        assert driver.ack_times == [1.0] and acked_batches(trace) == [[0, 1]]
        assert list(driver.pending) == []

    def test_ack_with_nothing_pending_rejected(self):
        trace = []
        driver = SimulationDriver(_StalePlan(linear_sum()), trace.append)
        driver.deliver(1.0)
        with pytest.raises(EngineError, match="served no pending packet"):
            driver.deliver(2.0)
        assert acked_batches(trace) == [[0]]

    def test_policies_keep_no_packet_list(self):
        for name in ("_pending", "_register_arrival", "has_pending", "_after_ack"):
            assert not hasattr(OnlineAlgorithm, name), name
        alg = SumMonotonePhases(linear_sum())
        alg.observe_arrival(0.0)
        assert alg.commit_ack(1.0) is None
        assert not hasattr(alg, "_pending")


@pytest.mark.parametrize("traced", [True, False], ids=["sink", "no-sink"])
@pytest.mark.parametrize("spec", [linear_sum(), permit_plf()], ids=lambda s: s.kind)
def test_finished_run_is_freed_without_the_cycle_collector(spec, traced):
    # Neither the driver's trace callback nor the prefix DP's step may tie
    # the policy or its table into a reference cycle.
    arrivals = tuple(np.cumsum(np.random.default_rng(0).exponential(1.0, 50)).tolist())
    trace = []
    gc.disable()
    try:
        policy = SumMonotonePhases(spec)
        refs = weakref.ref(policy), weakref.ref(policy._table)
        result = simulate(Instance(arrivals, spec), policy, trace.append if traced else None)
        assert result.ack_times and bool(trace) == traced
        del policy, result
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_arrivals_processed_before_equal_time_ack():
    spec = linear_sum()
    inst = Instance((1.0, 1.0, 1.0), spec)
    trace = []
    sched = simulate(inst, _EagerAcker(spec), trace.append)
    # all three tied arrivals join the single ack at t=1
    assert sched.ack_times == (1.0,)
    assert [ev.kind for ev in trace] == ["arrival", "arrival", "arrival", "ack"]
    assert trace[-1].detail["indices"] == [0, 1, 2]


class _Scripted(OnlineAlgorithm):
    """Plans ``after_arrival(time)`` at each arrival and ``after_commit(time)``
    at each commit (test stub)."""

    def __init__(self, spec, after_arrival, after_commit=lambda time: None):
        super().__init__(spec)
        self._after_arrival, self._after_commit = after_arrival, after_commit
        self._planned = None

    def observe_arrival(self, time):
        self._planned = self._after_arrival(time)

    def planned_ack_time(self):
        return self._planned

    def commit_ack(self, time):
        super().commit_ack(time)
        self._planned = self._after_commit(time)


class TestExactTimeOrder:
    """The driver keeps one exact order, so every schedule it returns is one
    that ``evaluate_schedule`` accepts and whose batches are the trace's."""

    @pytest.mark.parametrize("arrivals", [(1.0,), (0.0, 1.0, 5.0)])
    def test_plan_a_float_before_the_arrival_rejected(self, arrivals):
        spec = linear_sum()
        with pytest.raises(EngineError, match="before"):
            simulate(Instance(arrivals, spec), _Scripted(spec, lambda time: time - 1e-12))

    def test_arrival_at_a_committed_ack_rejected(self):
        # Acks its first packet at once and later ones 1.0 after they arrive.
        first = iter([True])
        policy = _Scripted(linear_sum(), lambda time: time if next(first, False) else time + 1.0)
        trace = []
        driver = SimulationDriver(policy, trace.append)
        driver.deliver(1.0)
        driver.run_until(5.0)
        assert driver.ack_times == [1.0] and driver.now == 1.0
        with pytest.raises(EngineError, match="out of order"):
            driver.deliver(1.0)
        assert list(driver.pending) == [] and acked_batches(trace) == [[0]]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12),
        st.data(),
    )
    def test_every_run_is_rejected_or_consistent(self, gaps, data):
        arrivals = tuple(np.cumsum(gaps).tolist())
        spec = linear_sum()

        def choose(now):
            return data.draw(st.one_of(
                st.none(),
                st.just(now),
                st.sampled_from([0.25, 0.5, 1.0, 1.5]).map(lambda d: now + d),
                st.just(math.nextafter(now, -math.inf)),
            ))

        # Adversaries release time up to, or past, the next arrival.
        trace = []
        driver = SimulationDriver(_Scripted(spec, choose, choose), trace.append)
        try:
            for a in arrivals:
                driver.run_until(a + data.draw(st.sampled_from([0.0, 0.25, 1.0])))
                driver.deliver(a)
            driver.finish(arrivals[-1])
        except EngineError:
            return
        evaluate_schedule(Instance(arrivals, spec), Schedule(tuple(driver.ack_times)))
        batches = batches_from_acks(arrivals, driver.ack_times)
        assert [list(b.indices) for b in batches] == acked_batches(trace)
        arrived = [ev.detail["index"] for ev in trace if ev.kind == "arrival"]
        assert arrived == list(range(len(arrivals)))
