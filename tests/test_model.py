import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acklab.cost
from acklab import (
    Instance,
    InvalidScheduleError,
    Objective,
    Schedule,
    batches_from_acks,
    bdelay,
    evaluate_schedule,
    f_vector,
    instance_from_json,
    instance_to_json,
    linear_sum,
    lp_norm,
    max_wait,
    permit_plf,
    sum_vector,
    top_k,
)
from acklab.harness import _BATCH_MODELS, _VECTOR_MODELS


def delay_vector_of(arrivals, schedule):
    """Per-packet waiting times under the schedule."""
    batches = batches_from_acks(arrivals, schedule.ack_times)
    return tuple(max(0.0, b.ack_time - arrivals[j]) for b in batches for j in b.indices)


def batch_sets(batches):
    return [(list(b.indices), b.ack_time) for b in batches]


class TestBatchesFromAcks:
    def test_two_batches(self):
        batches = batches_from_acks([0, 0.5, 3], [0.5, 3])
        assert batch_sets(batches) == [([0, 1], 0.5), ([2], 3.0)]

    def test_empty(self):
        assert batches_from_acks([], []) == []

    def test_tied_arrivals_inclusive(self):
        batches = batches_from_acks([1, 1, 1], [1])
        assert batch_sets(batches) == [([0, 1, 2], 1.0)]

    def test_uncovered_rejected(self):
        with pytest.raises(InvalidScheduleError):
            batches_from_acks([0, 5], [1])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            batches_from_acks([0, 1], [1, 1])

    def test_idle_ack_dropped(self):
        batches = batches_from_acks([0, 3], [1, 2, 3])
        assert batch_sets(batches) == [([0], 1.0), ([1], 3.0)]


class TestEvaluateSchedule:
    def test_linear_sum(self):
        inst = Instance((0, 0.5, 3), linear_sum())
        out = evaluate_schedule(inst, Schedule((0.5, 3)))
        assert out.ack_count == 2
        assert out.delay_cost == pytest.approx(0.5, abs=1e-12)
        assert out.total == pytest.approx(2.5, abs=1e-12)

    def test_max_wait(self):
        inst = Instance((0, 10), max_wait())
        out = evaluate_schedule(inst, Schedule((1, 12)))
        assert out.ack_count == 2
        assert out.delay_cost == pytest.approx(2.0, abs=1e-12)
        assert out.total == pytest.approx(4.0, abs=1e-12)

    def test_empty(self):
        inst = Instance((), linear_sum())
        out = evaluate_schedule(inst, Schedule(()))
        assert (out.ack_count, out.delay_cost, out.total) == (0, 0.0, 0.0)

    def test_total_is_exact_sum(self):
        inst = Instance((0, 1, 2, 7), linear_sum())
        out = evaluate_schedule(inst, Schedule((2.5, 7.25)))
        assert out.total == out.ack_count + out.delay_cost

    def test_idle_ack_rejected(self):
        for spec in (linear_sum(), lp_norm(2)):
            inst = Instance((0, 3), spec)
            with pytest.raises(InvalidScheduleError, match="ack at 2.0 serves no pending packet"):
                evaluate_schedule(inst, Schedule((1, 2, 3)))
            with pytest.raises(InvalidScheduleError, match="ack at 1.0 serves no pending packet"):
                evaluate_schedule(Instance((), spec), Schedule((1,)))

    @pytest.mark.parametrize("spec", [linear_sum(), lp_norm(2)], ids=["batch", "vector"])
    @pytest.mark.parametrize("acks", [(1,), (1, 4.5), ()])
    def test_uncovered_packet_rejected(self, spec, acks):
        inst = Instance((0, 5), spec)
        with pytest.raises(InvalidScheduleError, match="last ack precedes the last arrival"):
            evaluate_schedule(inst, Schedule(acks))

    def test_binds_one_kernel_per_schedule(self, monkeypatch):
        # bdelay binds its model's cost kernel on every call; a schedule
        # binds it once for all of its batches.
        binds = []
        bind = acklab.cost.cost_kernel

        def counted(spec, *args):
            binds.append(spec)
            return bind(spec, *args)

        monkeypatch.setattr(acklab.cost, "cost_kernel", counted)
        arrivals = tuple(float(i) for i in range(40))
        out = evaluate_schedule(Instance(arrivals, permit_plf()), Schedule(arrivals[3::4]))
        assert out.ack_count == 10
        assert binds == [permit_plf()]

    def test_vector_objective(self):
        inst = Instance((0, 1), lp_norm(2))
        out = evaluate_schedule(inst, Schedule((2,)))
        assert out.delay_cost == pytest.approx(np.hypot(2.0, 1.0), abs=1e-12)


class TestDelayVector:
    def test_basic(self):
        assert delay_vector_of([0, 0.5, 3], Schedule((0.5, 3))) == (0.5, 0.0, 0.0)

    def test_zero_delay(self):
        assert delay_vector_of([2], Schedule((2,))) == (0.0,)

    def test_single_ack(self):
        assert delay_vector_of([0, 1, 2], Schedule((2,))) == (2.0, 1.0, 0.0)


class TestValidation:
    def test_instance_requires_sorted(self):
        with pytest.raises(ValueError):
            Instance((1, 0), linear_sum())

    def test_instance_requires_nonnegative(self):
        with pytest.raises(ValueError):
            Instance((-1, 0), linear_sum())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", True])
    def test_instance_requires_finite_numbers(self, bad):
        with pytest.raises(ValueError):
            Instance((0.0, bad), linear_sum())
        with pytest.raises(ValueError):
            Instance((0.0,), linear_sum(), horizon=bad)

    def test_horizon_before_last_arrival(self):
        with pytest.raises(ValueError):
            Instance((0, 5), linear_sum(), horizon=4)

    def test_schedule_strictly_increasing(self):
        with pytest.raises(ValueError):
            Schedule((1, 1))

    @pytest.mark.parametrize("acks", [(math.nan,), (1.0, math.nan), (math.nan, 1.0)])
    def test_schedule_rejects_nan(self, acks):
        # A NaN ack would serve every pending packet at a vector cost of 0.
        with pytest.raises(ValueError, match="NaN"):
            Schedule(acks)
        with pytest.raises(ValueError):
            batches_from_acks([0.0, 0.5], acks)


arrival_lists = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=12
).map(sorted)


@given(arrival_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_batches_partition_indices(arrivals, data):
    n = len(arrivals)
    cut_count = data.draw(st.integers(min_value=0, max_value=n - 1))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=cut_count,
                max_size=cut_count,
                unique=True,
            )
        )
    ) if n > 1 else []
    bounds = [0] + cuts + [n]
    acks = []
    for hi in bounds[1:]:
        t = arrivals[hi - 1]
        if not acks or t > acks[-1]:
            acks.append(t)
    batches = batches_from_acks(arrivals, acks)
    seen = [j for b in batches for j in b.indices]
    assert seen == list(range(n))
    for b in batches:
        assert all(arrivals[j] <= b.ack_time for j in b.indices)


@given(arrival_lists)
@settings(max_examples=100, deadline=None)
def test_earlier_ack_never_increases_delays(arrivals):
    last = arrivals[-1]
    late = Schedule((last + 1.0,))
    early = Schedule((last + 0.25,))
    d_late = delay_vector_of(arrivals, late)
    d_early = delay_vector_of(arrivals, early)
    assert all(e <= l for e, l in zip(d_early, d_late))


def served_acks(arrivals, ack_times):
    """The ack times that serve at least one packet, found by a linear scan."""
    served, i = [], 0
    for t in sorted(set(ack_times)):
        j = i
        while j < len(arrivals) and arrivals[j] <= t:
            j += 1
        if j > i:
            served.append(t)
            i = j
    return served


@given(
    arrival_lists,
    st.lists(st.floats(min_value=0, max_value=110, allow_nan=False), max_size=12),
    st.floats(min_value=0, max_value=10, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_schedule_equals_its_batches(arrivals, ack_times, slack):
    # One walk charges exactly what the batch list and the delay vector
    # charge: the same floats added in the same order, compared with ==.
    schedule = Schedule(served_acks(arrivals, [*ack_times, arrivals[-1] + slack]))
    batches = batches_from_acks(arrivals, schedule.ack_times)
    assert len(batches) == schedule.k
    for kind in _BATCH_MODELS:
        for objective, combine in ((Objective.SUM_BATCH, sum), (Objective.MAX_BATCH, max)):
            spec = dataclasses.replace(kind, objective=objective)
            out = evaluate_schedule(Instance(arrivals, spec), schedule)
            want = combine(bdelay(spec, arrivals[b.start : b.stop], b.ack_time) for b in batches)
            assert (out.ack_count, out.delay_cost) == (schedule.k, float(want)), spec
            assert out.total == out.ack_count + out.delay_cost
    for spec in _VECTOR_MODELS:
        out = evaluate_schedule(Instance(arrivals, spec), schedule)
        assert out.delay_cost == f_vector(spec, delay_vector_of(arrivals, schedule)), spec


@pytest.mark.parametrize(
    "spec, bound",
    [*((spec, 8) for spec in _BATCH_MODELS), (lp_norm(2), 32), (top_k(3), 32)],
    ids=lambda v: getattr(v, "kind", str(v)),
)
def test_evaluate_schedule_memory_per_packet(spec, bound):
    # Charging keeps one float per batch (batch kinds) or per packet (vector
    # kinds, with f_vector's arrays), never a batch object.  The bounds are
    # bytes a packet of the tracemalloc peak with one ack per two packets.
    n = 20000
    arrivals = tuple(0.5 * i for i in range(n))
    instance = Instance(arrivals, spec)
    schedule = Schedule(arrivals[1::2])
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = evaluate_schedule(instance, schedule)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert out.ack_count == n // 2
    assert peak <= bound * n, peak / n


def test_instance_json_roundtrip():
    inst = Instance((0, 1.5, 2), lp_norm(2), horizon=4.0)
    blob = json.dumps(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert back.arrivals == inst.arrivals
    assert back.model == inst.model
    assert back.horizon == inst.horizon


def test_cost_breakdown_json():
    inst = Instance((0,), sum_vector())
    out = evaluate_schedule(inst, Schedule((0,))).to_json()
    assert out == {"acks": 1, "delay": 0.0, "total": 1.0, "objective": "vector"}
