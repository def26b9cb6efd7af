import copy
import gc
import json
import math
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
    Schedule,
    SumMonotonePhases,
    batches_from_acks,
    capped_linear,
    evaluate_schedule,
    linear_sum,
    permit_plf,
    simulate,
)
from acklab import engine
from acklab.adversary import TcpPermitAdapter
from acklab.cost import cost_kernel
from acklab.engine import OnlineAlgorithm, SimulationDriver
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
        sched, trace = simulate(inst, GreedyTau(linear_sum(), 1.0))
        assert len(sched.ack_times) == 1
        assert sched.ack_times[0] == pytest.approx(1.0, abs=1e-9)
        kinds = [ev.kind for ev in trace]
        assert kinds == ["arrival", "ack"]

    def test_empty_instance(self):
        inst = Instance((), linear_sum())
        sched, trace = simulate(inst, GreedyTau(linear_sum(), 1.0))
        assert sched.ack_times == () and trace == []

    def test_greedy_three_packets(self):
        inst = Instance((0, 0.5, 3), linear_sum())
        sched, _ = simulate(inst, GreedyTau(linear_sum(), 1.0))
        assert sched.ack_times[0] == pytest.approx(0.75, abs=1e-9)
        assert sched.ack_times[1] == pytest.approx(4.0, abs=1e-9)
        assert evaluate_schedule(inst, sched).total == pytest.approx(4.0, abs=1e-6)

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(1)
        arrivals = tuple(np.cumsum(rng.exponential(1.0, 30)))
        inst = Instance(arrivals, linear_sum())
        dumps = []
        for _ in range(2):
            sched, trace = simulate(inst, SumMonotonePhases(linear_sum()))
            dumps.append(
                json.dumps(list(sched.ack_times))
                + "\n".join(ev.to_json_line() for ev in trace)
            )
        assert dumps[0] == dumps[1]

    def test_online_causality_truncation(self):
        rng = np.random.default_rng(2)
        arrivals = tuple(np.cumsum(rng.exponential(1.0, 20)))
        full_inst = Instance(arrivals, linear_sum())
        _, full_trace = simulate(full_inst, GreedyTau(linear_sum(), 1.0))
        for j in (5, 10, 15):
            cut = arrivals[j]  # a_{j+1} in 0-based terms
            trunc = Instance(arrivals[:j], linear_sum())
            _, trace = simulate(trunc, GreedyTau(linear_sum(), 1.0))
            want = [ev.to_json_line() for ev in full_trace if ev.time < cut]
            got = [ev.to_json_line() for ev in trace if ev.time < cut]
            assert got == want

    def test_flush_when_no_trigger_reachable(self):
        # capped model: the budget is unreachable, the driver must flush
        spec = capped_linear(0.25)
        inst = Instance((0.0, 1.0), spec, horizon=5.0)
        sched, trace = simulate(inst, SumMonotonePhases(spec))
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
        sched, _ = simulate(Instance(tuple(arrivals), spec), fresh)
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


def acked_batches(driver):
    return [ev.detail["indices"] for ev in driver.trace if ev.kind == "ack"]


class TestDriverOwnsThePendingPackets:
    def test_policy_with_only_the_required_methods(self):
        spec = linear_sum()
        sched, trace = simulate(Instance((0.0, 1.0, 2.5), spec, horizon=4.0), _FlushOnly(spec))
        assert sched.ack_times == (4.0,)
        assert [ev.kind for ev in trace][-2:] == ["flush", "ack"]
        assert trace[-1].detail == {"indices": [0, 1, 2]}

        driver = SimulationDriver(_FlushOnly(spec))
        driver.deliver(0.0)
        driver.deliver(1.0)
        assert list(driver.pending) == [0, 1] and acked_batches(driver) == []
        driver.finish(0.5)
        assert driver.ack_times == [1.0] and acked_batches(driver) == [[0, 1]]
        assert list(driver.pending) == []

    def test_ack_with_nothing_pending_rejected(self):
        driver = SimulationDriver(_StalePlan(linear_sum()))
        driver.deliver(1.0)
        with pytest.raises(EngineError, match="served no pending packet"):
            driver.deliver(2.0)
        assert acked_batches(driver) == [[0]]

    def test_policies_keep_no_packet_list(self):
        for name in ("_pending", "_register_arrival", "has_pending", "_after_ack"):
            assert not hasattr(OnlineAlgorithm, name), name
        alg = SumMonotonePhases(linear_sum())
        alg.observe_arrival(0.0)
        assert alg.commit_ack(1.0) is None
        assert not hasattr(alg, "_pending")


@pytest.mark.parametrize("spec", [linear_sum(), permit_plf()], ids=lambda s: s.kind)
def test_finished_run_is_freed_without_the_cycle_collector(spec):
    # Neither the driver's trace callback nor the prefix DP's step may tie
    # the policy or its table into a reference cycle.
    arrivals = tuple(np.cumsum(np.random.default_rng(0).exponential(1.0, 50)).tolist())
    gc.disable()
    try:
        policy = SumMonotonePhases(spec)
        refs = weakref.ref(policy), weakref.ref(policy._table)
        result = simulate(Instance(arrivals, spec), policy)
        assert result[1]
        del policy, result
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_arrivals_processed_before_equal_time_ack():
    spec = linear_sum()
    inst = Instance((1.0, 1.0, 1.0), spec)
    sched, trace = simulate(inst, _EagerAcker(spec))
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
        driver = SimulationDriver(policy)
        driver.deliver(1.0)
        driver.run_until(5.0)
        assert driver.ack_times == [1.0] and driver.now == 1.0
        with pytest.raises(EngineError, match="out of order"):
            driver.deliver(1.0)
        assert list(driver.pending) == [] and acked_batches(driver) == [[0]]

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
        driver = SimulationDriver(_Scripted(spec, choose, choose))
        try:
            for a in arrivals:
                driver.run_until(a + data.draw(st.sampled_from([0.0, 0.25, 1.0])))
                driver.deliver(a)
            driver.finish(arrivals[-1])
        except EngineError:
            return
        evaluate_schedule(Instance(arrivals, spec), Schedule(tuple(driver.ack_times)))
        batches = batches_from_acks(arrivals, driver.ack_times)
        assert [list(b.indices) for b in batches] == acked_batches(driver)
        arrived = [ev.detail["index"] for ev in driver.trace if ev.kind == "arrival"]
        assert arrived == list(range(len(arrivals)))
