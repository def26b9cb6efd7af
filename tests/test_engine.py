import copy
import json
import math

import numpy as np
import pytest

from acklab import (
    EngineError,
    GreedyTau,
    Instance,
    SumMonotonePhases,
    capped_linear,
    evaluate_schedule,
    linear_sum,
    next_threshold,
    permit_plf,
    simulate,
)
from acklab.cost import batch_cost
from acklab.engine import OnlineAlgorithm, SimulationDriver
from bisection_reference import solve_threshold_time


class TestSolveThresholdTime:
    def test_linear_closed_form(self):
        t = solve_threshold_time(lambda t: max(0.0, t), 0.0, 1.0)
        assert t == pytest.approx(1.0, abs=1e-9)

    def test_bounded_evaluator_returns_none(self):
        fn = lambda t: batch_cost(capped_linear(1.0), 1, 0.0, 0.0, t)  # noqa: E731
        assert solve_threshold_time(fn, 0.0, 2.0) is None

    def test_bounded_evaluator_none_without_sup_hint(self):
        fn = lambda t: batch_cost(capped_linear(1.0), 1, 0.0, 0.0, t)  # noqa: E731
        assert solve_threshold_time(fn, 0.0, 2.0, expansion_cap=2.0 ** 40) is None

    def test_two_packet_example(self):
        fn = lambda t: batch_cost(linear_sum(), 2, 0.1, 0.0, t)  # noqa: E731
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
        driver.deliver(2.0, 0)
        with pytest.raises(EngineError):
            driver.deliver(1.0, 1)

    def test_model_mismatch_rejected(self):
        inst = Instance((0,), capped_linear(1.0))
        with pytest.raises(EngineError):
            simulate(inst, GreedyTau(linear_sum(), 1.0))


class TestNextThreshold:
    def test_greedy_single_packet(self):
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(5.0, 0)
        assert next_threshold(alg) == pytest.approx(6.0, abs=1e-9)

    def test_phases_single_packet(self):
        alg = SumMonotonePhases(linear_sum())
        alg.observe_arrival(0.0, 0)
        assert next_threshold(alg) == pytest.approx(1.0, abs=1e-9)

    def test_phases_permit_model(self):
        alg = SumMonotonePhases(permit_plf())
        alg.observe_arrival(1.0, 0)
        assert next_threshold(alg) == pytest.approx(2.0, abs=1e-9)

    def test_state_restored(self):
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(0.0, 0)
        before = copy.deepcopy(alg.__dict__)
        next_threshold(alg)
        # Aggregates define no __eq__, so theirs is compared by its fields.
        assert vars(alg.__dict__.pop("_aggregate")) == vars(before.pop("_aggregate"))
        assert alg.__dict__ == before

    def test_rejects_acknowledged_latest_packet(self):
        alg = GreedyTau(linear_sum(), 1.0)
        alg.observe_arrival(0.0, 0)
        alg.commit_ack(1.0)
        with pytest.raises(EngineError):
            next_threshold(alg)

    def test_none_when_never_acked(self):
        spec = capped_linear(0.25)
        alg = SumMonotonePhases(spec)
        alg.observe_arrival(0.0, 0)  # budget 2, cap 0.25: trigger unreachable
        assert next_threshold(alg) is None

    def test_threshold_consistency_on_spread_sequence(self):
        # build arrivals so each lands after the previous one's look-ahead time
        spec = linear_sum()
        alg = GreedyTau(spec, 1.0)
        driver = SimulationDriver(alg)
        arrivals, nexts = [], []
        t = 0.7
        for j in range(8):
            driver.deliver(t, j)
            arrivals.append(t)
            nt = next_threshold(alg)
            nexts.append(nt)
            t = nt + 0.3 + 0.1 * j
        fresh = GreedyTau(spec, 1.0)
        sched, _ = simulate(Instance(tuple(arrivals), spec), fresh)
        assert len(sched.ack_times) == len(arrivals)
        for got, want in zip(sched.ack_times, nexts):
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))


class _EagerAcker(OnlineAlgorithm):
    """Acks every packet the instant it arrives (test stub)."""

    def __init__(self, spec):
        super().__init__(spec)
        self._planned = None

    def observe_arrival(self, time, index):
        self._register_arrival(time, index)
        self._planned = time

    def planned_ack_time(self):
        return self._planned

    def _after_ack(self, time):
        self._planned = None


def test_arrivals_processed_before_equal_time_ack():
    spec = linear_sum()
    inst = Instance((1.0, 1.0, 1.0), spec)
    sched, trace = simulate(inst, _EagerAcker(spec))
    # all three tied arrivals join the single ack at t=1
    assert sched.ack_times == (1.0,)
    assert [ev.kind for ev in trace] == ["arrival", "arrival", "arrival", "ack"]
    assert trace[-1].detail["indices"] == [0, 1, 2]
