import json
import math
import sys

import numpy as np
import pytest

from acklab import (
    DelayModelSpec,
    Objective,
    bdelay,
    capped_linear,
    check_continuous_submodular,
    check_monotone,
    concave_two_piece,
    f_vector,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    model_from_json,
    model_to_json,
    ordered_norm,
    permit_plf,
    plf_eval,
    sum_vector,
    top_k,
)
from acklab.adversary import plf_round_up
from acklab.cost import (
    _BATCH_COSTS,
    _KINDS,
    BATCH_KINDS,
    VECTOR_KINDS,
    ARRAY_OPS,
    aggregate,
    cost_kernel,
    dump_json,
    plf_delay,
    threshold_time,
)
from bisection_reference import solve_threshold_time
from plf_reference import log2_plf_delay

ALL_BATCH = [linear_sum(), max_wait(), max_wait_pow(2), capped_linear(1.0), permit_plf()]
ALL_VECTOR = [
    lp_norm(1),
    lp_norm(2),
    lp_norm(math.inf),
    top_k(1),
    top_k(3),
    ordered_norm((3, 2, 1, 1, 0.5)),
    concave_two_piece(2, 0.5, 5),
    sum_vector(),
]


class TestBdelay:
    def test_linear_sum(self):
        assert bdelay(linear_sum(), [0, 0.5], 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_capped(self):
        assert bdelay(capped_linear(1.0), [0, 0, 0], 5) == 1.0

    def test_permit_zero_span(self):
        assert bdelay(permit_plf(), [1], 1) == 0.0

    def test_max_wait_pow(self):
        assert bdelay(max_wait_pow(2), [1, 2], 5) == pytest.approx(16.0)

    def test_empty_batch(self):
        assert bdelay(linear_sum(), [], 3) == 0.0

    def test_ack_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            bdelay(linear_sum(), [5], 4)

    @pytest.mark.parametrize(
        "batch, t", [([0.0, 1.0], math.nan), ([0.0, math.nan], 1.0), ([math.nan, 0.0], 1.0)]
    )
    def test_nan_is_not_zero_delay(self, batch, t):
        # max(0.0, nan) is 0.0: unchecked, a NaN ack time or arrival would cost nothing.
        with pytest.raises(ValueError):
            bdelay(linear_sum(), batch, t)

    def test_vector_kind_rejected(self):
        with pytest.raises(ValueError):
            bdelay(lp_norm(2), [0], 1)

    @pytest.mark.parametrize("spec", ALL_BATCH)
    def test_zero_wait_batch_costs_nothing(self, spec):
        assert bdelay(spec, [3.0, 3.0], 3.0) == 0.0

    @pytest.mark.parametrize("spec", ALL_BATCH)
    def test_compiled_fn_matches_bdelay(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(200):
            batch = sorted(rng.uniform(0, 10, rng.integers(1, 6)))
            t = batch[-1] + rng.uniform(0, 5)
            assert _batch_fn(spec, batch)(t) == pytest.approx(
                bdelay(spec, batch, t), rel=1e-12, abs=1e-12
            )


def _batch_fn(spec, batch):
    """``t -> bdelay(spec, batch, t)`` for a fixed batch, built on the float kernel."""
    m, total, first, cost = len(batch), math.fsum(batch), min(batch), cost_kernel(spec)
    return lambda t: cost(m, total, first, t)


def _threshold_time(spec, batch, target, t_lo):
    pending = aggregate(spec)
    for a in batch:
        pending.add(a - batch[0])
    return threshold_time(pending, batch[0], target, t_lo)


class TestBatchCost:
    @pytest.mark.parametrize("spec", ALL_BATCH + [max_wait_pow(3), permit_plf(num_classes=3)])
    def test_arrays_match_scalars(self, spec):
        rng = np.random.default_rng(12)
        m = rng.integers(1, 9, 500).astype(float)
        first = rng.uniform(0, 10, 500)
        total = m * first + rng.uniform(0, 20, 500)
        t = first + 10.0 ** rng.uniform(-3, 3, 500)
        # NumPy's power may differ from C pow by an ulp; all else is exact.
        rtol = 1e-15 if spec.kind == "max_wait_pow" else 0.0
        rows, cost = cost_kernel(spec, ARRAY_OPS), cost_kernel(spec)
        got = rows(m, total, first, t)
        want = [cost(*map(float, args)) for args in zip(m, total, first, t)]
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
        # One scalar argument broadcasts against the arrays.
        row = rows(m, total, 1.5, t)
        want = [cost(float(a), float(b), 1.5, float(c)) for a, b, c in zip(m, total, t)]
        np.testing.assert_allclose(row, want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize(
        "spec", [linear_sum(), capped_linear(1.7e308)], ids=["linear_sum", "capped_linear"]
    )
    def test_arrays_match_scalars_across_the_product_overflow(self, spec):
        # m t passes the float range above max / m; both kernels then take
        # the wait m t - total a power of two lower, so they agree bit for
        # bit on each side, and a wait back in range stays finite.
        rows, cost = cost_kernel(spec, ARRAY_OPS), cost_kernel(spec)
        top = sys.float_info.max
        finite_past_the_edge = 0
        for m in (2, 3, 5):
            edge = top / m
            ts = [edge]
            for _ in range(16):
                ts = [math.nextafter(ts[0], 0.0), *ts, math.nextafter(ts[-1], math.inf)]
            ts += [edge * f for f in (1.001, 1.5, 2.0)] + [1.1e308, top]
            for total in (0.0, 5e307, 0.5 * top, top):
                got = rows(m, total, 0.0, np.array(ts))
                want = [cost(m, total, 0.0, t) for t in ts]
                assert got.tolist() == want, (m, total)
                finite_past_the_edge += sum(
                    math.isfinite(w) for t, w in zip(ts, want) if m * t == math.inf
                )
        assert finite_past_the_edge > 0
        assert rows(2, 5e307, 0.0, np.array([1.1e308])).tolist() == [1.7e308]

    def test_scalars_stay_python_floats(self):
        for spec in ALL_BATCH:
            assert type(cost_kernel(spec)(2, 1.0, 0.0, 3.0)) is float

    def test_vector_kind_rejected(self):
        with pytest.raises(ValueError):
            cost_kernel(lp_norm(2))


class TestBatchThresholdTime:
    @pytest.mark.parametrize("spec", ALL_BATCH + [capped_linear(3.0), permit_plf(num_classes=3)])
    def test_matches_solver_reference(self, spec):
        rng = np.random.default_rng(11)
        for i in range(300):
            offset = 10.0 ** rng.uniform(0, 12) if i % 2 else 0.0
            batch = sorted(offset + rng.uniform(0, 10, rng.integers(1, 8)))
            t_lo = batch[-1]
            tau = spec.tau or 1.0
            # Capped targets land on both sides of the cap.
            target = tau * rng.uniform(0.05, 2.5) if i % 3 else 10.0 ** rng.uniform(-2, 3)
            got = _threshold_time(spec, batch, target, t_lo)
            want = solve_threshold_time(_batch_fn(spec, batch), t_lo, target)
            if want is None:
                assert got is None
                continue
            assert got is not None and got >= t_lo
            assert got == pytest.approx(want, rel=4e-9, abs=4e-9)
            goal = min(target, spec.tau) if spec.kind == "capped_linear" else target
            # Costs are what evaluate_schedule charges: relative to the first
            # arrival, so a large offset does not cancel their digits.
            assert bdelay(spec, batch, got) >= (
                goal if got > t_lo else goal - 1e-9 * max(1.0, goal)
            )
            if got > t_lo:  # and not one float earlier
                assert bdelay(spec, batch, math.nextafter(got, -math.inf)) < goal

    def test_capped_target_above_cap_is_unreachable(self):
        assert _threshold_time(capped_linear(1.0), [0.0, 0.5], 1.5, 0.5) is None
        assert _threshold_time(capped_linear(1.0), [0.0, 0.5], 1.0, 0.5) == 0.75
        # A target within tolerance above the cap is met where the cap is.
        assert _threshold_time(capped_linear(1.0), [0.0, 0.5], 1.0 + 1e-12, 0.5) == 0.75

    def test_permit_crossing_past_the_float_range_is_unreachable(self):
        # The permit crossing w * (level - w) overflows to +inf.
        assert _threshold_time(permit_plf(), [0.0, 1.0, 2.0], 1e300, 2.0) is None

    @pytest.mark.parametrize(
        "spec", [linear_sum(), capped_linear(1.7e308)], ids=["linear_sum", "capped_linear"]
    )
    def test_linear_target_past_the_product_overflow(self, spec):
        # 2 t overflows from t = 2**1023 on, but the cost 2 t - 5e307 stays
        # in range up to 1.1e308, where it meets the target: the crossing
        # and the wait are taken where their sums fit.
        assert _threshold_time(spec, [0.0, 5e307], 1.7e308, 5e307) == 1.1e308
        kernel = cost_kernel(spec)
        ts = [math.nextafter(2.0 ** 1023, 0.0), 2.0 ** 1023, math.nextafter(1.1e308, 0.0), 1.1e308]
        costs = [kernel(2, 5e307, 0.0, t) for t in ts]
        assert costs == sorted(costs) and costs[-2] < 1.7e308 == costs[-1]

    def test_already_met_returns_t_lo(self):
        assert _threshold_time(linear_sum(), [0.0, 3.0], 1.0, 3.0) == 3.0

    @pytest.mark.parametrize("k", range(0, 25))
    def test_permit_span_exactly_four_to_the_k(self, k):
        # plf(4**k) = 2**(k+1), so a target of 2**(k+1) - 1 is crossed at span
        # 4**k exactly, which rounds up to class k and not k + 1.
        first = float(3 * k + 1)
        t = _threshold_time(permit_plf(), [first], 2.0 ** (k + 1) - 1.0, first)
        assert t == first + 4.0 ** k
        assert plf_round_up(t - first) == k

    def test_float_spacing_at_huge_times(self):
        # At 1e17 the float spacing is 16: the first time whose delay reaches 1.
        t = _threshold_time(linear_sum(), [1e17], 1.0, 1e17)
        assert t == math.nextafter(1e17, math.inf) == 1e17 + 16


class TestFVector:
    def test_top_k(self):
        assert f_vector(top_k(2), (3, 1, 2)) == 5.0

    def test_ordered(self):
        assert f_vector(ordered_norm((2, 1, 1)), (1, 3, 2)) == 9.0

    def test_concave_two_piece(self):
        assert f_vector(concave_two_piece(1, 0.5, 2), (1, 1)) == 1.5

    def test_lp_inf(self):
        assert f_vector(lp_norm(math.inf), (1, 4, 2)) == 4.0

    def test_lp_powers_out_of_float_range(self):
        # 7**400 overflows and (1e-3)**400 underflows; neither may show.
        assert f_vector(lp_norm(400), [7.0, 3.0, 7.0]) == pytest.approx(7.0 * 2 ** (1 / 400))
        assert f_vector(lp_norm(400), [1e-3] * 5) == pytest.approx(1e-3 * 5 ** (1 / 400))
        assert f_vector(lp_norm(2), [1e200, 1e200]) == pytest.approx(1e200 * math.sqrt(2))

    @pytest.mark.parametrize("p", [1.5, 2, 3, 17])
    def test_lp_in_float_range_is_the_plain_power_sum(self, p):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = rng.uniform(0, 10, rng.integers(1, 14))
            assert f_vector(lp_norm(p), d) == float((d ** p).sum() ** (1.0 / p))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_vector(sum_vector(), (1, -0.5))

    def test_batch_kind_rejected(self):
        with pytest.raises(ValueError):
            f_vector(linear_sum(), (1,))

    @pytest.mark.parametrize("spec", ALL_VECTOR)
    def test_zero_padding_consistent(self, spec):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = tuple(rng.uniform(0, 10, rng.integers(0, 7)))
            assert f_vector(spec, d + (0.0,)) == f_vector(spec, d)

    @pytest.mark.parametrize("spec", ALL_VECTOR)
    def test_coordinate_monotone(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = list(rng.uniform(0, 10, rng.integers(1, 7)))
            before = f_vector(spec, d)
            j = int(rng.integers(len(d)))
            d[j] += rng.uniform(0, 5)
            assert f_vector(spec, d) >= before - 1e-12


class TestPlf:
    def test_values(self):
        assert plf_eval(0) == 1.0
        assert plf_eval(3) == 3.5
        assert plf_eval(4) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            plf_eval(-1)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        xs = np.concatenate(
            [10.0 ** rng.uniform(-6, 12, 2000), [0.0, 1.0, 2.0, 4.0, 16.0, 4.0 ** 33]]
        )
        for classes in (4, 32, None):
            hi = classes if classes is not None else 64
            brute = np.min([2.0 ** k + xs * 2.0 ** (-k) for k in range(hi + 1)], axis=0)
            got = plf_eval(xs, classes)
            assert np.allclose(got, brute, rtol=1e-12)
            scalars = np.array([plf_eval(float(x), classes) for x in xs])
            assert np.allclose(scalars, brute, rtol=1e-12)

    @pytest.mark.parametrize("classes", [1, 3, 32, 600, None])
    def test_array_equals_scalar_at_class_boundaries(self, classes):
        # Spans 4**k and 2 * 4**k (where two classes tie) and their float
        # neighbours, where a rounded log could pick the wrong classes.
        points = []
        for k in range(0, 40):
            for x in (4.0 ** k, 2.0 * 4.0 ** k):
                points += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        xs = np.array([0.0, 0.5] + points)
        assert plf_eval(xs, classes).tolist() == [plf_eval(float(x), classes) for x in xs]

    def test_delay_rounds_once_per_class(self):
        # The price curve less 1, rounded once: 1 + (1 - 2**-53) rounds up
        # to 2, so a curve taken first and less 1 after reads 1 a float early.
        below = math.nextafter(1.0, 0.0)
        assert plf_delay(below) == below < 1.0 == plf_delay(1.0)
        assert plf_delay(0.0) == 0.0 and plf_delay(3.0) == 2.5
        xs = np.array([0.0, below, 1.0, 3.0, 4.0 ** 5 + 0.1])
        assert plf_delay(xs).tolist() == [plf_delay(float(x)) for x in xs]
        assert plf_eval(xs).tolist() == (plf_delay(xs) + 1.0).tolist()
        spec = permit_plf()
        assert cost_kernel(spec)(1, 0.0, 0.0, below) == below
        rows = cost_kernel(spec, ARRAY_OPS)
        assert rows(3, 0.5, 0.0, np.array([below, 1.0])).tolist() == [below, 1.0]

    @pytest.mark.parametrize("classes", [1, 2, 3, 32, 600])
    def test_prices_match_the_log2_rule_bit_for_bit(self, classes):
        # Each class wins on [4**k / 2, 2 * 4**k], so its ends and their
        # float neighbours are where a class rule can miss the winner.
        spans = [0.0, -0.0, math.nan, 0.5, 1e308, sys.float_info.max]
        for k in range(512):
            for x in (4.0 ** k / 2.0, 4.0 ** k, 2.0 * 4.0 ** k):
                lo = hi = x
                for _ in range(3):
                    lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                    spans += [lo, hi]
                spans.append(x)
        xs = np.array(spans)

        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64).tolist()

        spec = permit_plf(num_classes=classes)
        want = bits([log2_plf_delay(x, classes) for x in spans])
        assert bits([cost_kernel(spec)(1, 0.0, 0.0, x) for x in spans]) == want
        rows = cost_kernel(spec, ARRAY_OPS)(1, 0.0, 0.0, xs)
        assert bits(rows) == bits(log2_plf_delay(xs, classes))
        # plf_delay takes no NaN float span; its own prices are the same.
        real = [x for x in spans if x == x]
        assert bits([plf_delay(x, classes) for x in real]) == bits(
            [log2_plf_delay(x, classes) for x in real]
        )
        assert bits(plf_delay(np.array(real), classes)) == bits(
            log2_plf_delay(np.array(real), classes)
        )
        with pytest.raises(ValueError, match="non-negative"):
            plf_delay(math.nan, classes)

    @pytest.mark.parametrize("classes", [1, 2, 3, 32, 600])
    def test_permit_crossing_is_the_best_class_bound(self, classes):
        # The span at which the price reaches a goal is the largest class
        # bound w * (goal + 1 - w), w = 2**k; the crossing probes two.
        agg = aggregate(permit_plf(num_classes=classes))
        agg.add(0.0)
        goals = [0.0, 0.5, 1.0, 1e300, sys.float_info.max]
        for j in range(0, 1024, 7):
            level = 2.0 ** j
            for x in (math.nextafter(level, 0.0), level, math.nextafter(level, math.inf)):
                goals.append(x - 1.0)
        for goal in goals:
            level = goal + 1.0
            want = max(2.0 ** k * (level - 2.0 ** k) for k in range(classes + 1))
            assert agg.crossing(goal) == want, goal

    def test_unbounded_classes_match_the_log2_rule(self):
        xs = [0.0, 0.75, 3.0, 4.0 ** 40, 2.0 * 4.0 ** 300, 1e308]
        assert [plf_delay(x, None) for x in xs] == [log2_plf_delay(x, None) for x in xs]

    def test_class_zero_alone_is_the_span(self):
        # K = 0 keeps class 0 alone, whose delay 2**0 - 1 + x is the span:
        # max_wait's batch delay.
        xs = np.array([0.0, 0.25, 1.0, 3.0, 4.0 ** 5 + 0.1])
        assert plf_delay(0.0, 0) == 0.0 and plf_eval(0.0, 0) == 1.0
        assert [plf_delay(float(x), 0) for x in xs] == xs.tolist()
        assert plf_delay(xs, 0).tolist() == xs.tolist()
        assert plf_eval(xs, 0).tolist() == (xs + 1.0).tolist()

    @pytest.mark.parametrize("classes", [-1, -0.5, 1.5, math.nan])
    def test_bad_class_count_rejected(self, classes):
        for x in (5.0, np.array([0.0, 5.0])):
            for curve in (plf_delay, plf_eval):
                with pytest.raises(ValueError, match="class count"):
                    curve(x, classes)

    def test_empty_array(self):
        assert plf_eval(np.zeros(0)).size == 0
        with pytest.raises(ValueError):
            plf_eval(np.array([1.0, -1.0]))

    def test_concave_midpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            x1, x2 = sorted(rng.uniform(0, 4.0 ** 10, 2))
            mid = plf_eval((x1 + x2) / 2)
            assert mid >= (plf_eval(x1) + plf_eval(x2)) / 2 - 1e-9 * max(1.0, mid)


# One spec per catalogue row, built by the kind's factory.
FACTORY_SPECS = {
    "linear_sum": linear_sum(),
    "max_wait": max_wait(),
    "max_wait_pow": max_wait_pow(2),
    "capped_linear": capped_linear(1.0),
    "permit_plf": permit_plf(5),
    "lp": lp_norm(math.inf),
    "top_k": top_k(3),
    "ordered": ordered_norm((3, 2, 1)),
    "concave_two_piece": concave_two_piece(2, 0.5, 5),
    "sum_vector": sum_vector(),
}


class TestCatalogue:
    def test_every_row_has_a_factory(self):
        assert list(FACTORY_SPECS) == list(_KINDS)

    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_factory_spec_round_trips_with_its_row_keys(self, kind):
        spec = FACTORY_SPECS[kind]
        default, params = _KINDS[kind]
        assert spec.kind == kind and spec.objective is default
        wire = model_to_json(spec)
        assert list(wire) == ["kind", *(key for _, key in params)]
        assert model_from_json(wire) == spec

    def test_every_batch_kind_has_one_cost_kernel(self):
        assert sorted(_BATCH_COSTS) == sorted(BATCH_KINDS)
        for kind in VECTOR_KINDS:
            with pytest.raises(ValueError, match="is a vector model; use f_vector"):
                cost_kernel(FACTORY_SPECS[kind])

    def test_kinds_split_by_default_objective(self):
        assert BATCH_KINDS == ("linear_sum", "max_wait", "max_wait_pow", "capped_linear", "permit_plf")
        assert VECTOR_KINDS == ("lp", "top_k", "ordered", "concave_two_piece", "sum_vector")
        for kind in BATCH_KINDS:
            assert _KINDS[kind][0] in (Objective.SUM_BATCH, Objective.MAX_BATCH)
        for kind in VECTOR_KINDS:
            assert _KINDS[kind][0] is Objective.VECTOR

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "capped_linear", "tau": 1.0, "K": 3}, "delay model 'capped_linear' takes no key 'K'"),
            ({"kind": "sum_vector", "w": [1], "p": 1}, "delay model 'sum_vector' takes no key 'p', 'w'"),
        ],
    )
    def test_foreign_key_messages(self, obj, message):
        with pytest.raises(ValueError) as info:
            model_from_json(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", [[1], {"a": 1}, None, 3])
    def test_non_string_kind_is_unknown(self, kind):
        for make in (lambda: model_from_json({"kind": kind}), lambda: DelayModelSpec(kind, Objective.SUM_BATCH)):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == f"unknown delay model kind {kind!r}"


class TestDumpJson:
    @pytest.mark.parametrize("kwargs", [{}, {"indent": 2}, {"sort_keys": True}])
    def test_writes_what_json_dumps_writes(self, kwargs):
        obj = {"time": 0.1 + 0.2, "kind": "ack", "detail": {"indices": [2, 0], "p": math.inf}}
        wire = dict(obj, detail={"indices": [2, 0], "p": "inf"})
        assert dump_json(obj, **kwargs) == json.dumps(wire, **kwargs)
        assert dump_json(wire, **kwargs) == json.dumps(wire, **kwargs)

    @pytest.mark.parametrize(
        "obj",
        [
            "caf\u00e9 \"quoted\"\n",
            [1, -2**80, 0.1, -0.0, 1e308, 5e-324, True, False, None],
            (1.5, "a", [()], {}),
            {"k\u00fc": {"nested": [{"x": [1, [2, [3]]]}]}, "": "", "b": None},
            {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
        ],
    )
    def test_one_shot_encoder_writes_what_json_dumps_writes(self, obj):
        # Without options dump_json runs one encoder built once; a value
        # shared twice is no cycle.
        shared = [1.0, "x"]
        for value in (obj, [obj, obj], {"a": shared, "b": shared}):
            assert dump_json(value) == json.dumps(value, allow_nan=False)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_rejects_other_non_finite_floats(self, value):
        with pytest.raises(ValueError):
            dump_json({"x": [value]})
        assert dump_json({"x": [1.0]}) == '{"x": [1.0]}'


class TestSpecValidation:
    @pytest.mark.parametrize("objective, want", [("sum", Objective.SUM_BATCH), ("max", Objective.MAX_BATCH)])
    def test_objective_value_is_coerced(self, objective, want):
        spec = DelayModelSpec("linear_sum", objective)
        assert spec.objective is want
        assert spec == DelayModelSpec("linear_sum", want)
        assert model_from_json(model_to_json(spec)) == spec

    @pytest.mark.parametrize(
        "objective, message",
        [
            ("vector", "batch model 'linear_sum' needs a sum or max objective"),
            ("bogus", "'bogus' is not a valid Objective"),
            (["sum"], "['sum'] is not a valid Objective"),
        ],
    )
    def test_objective_value_is_checked(self, objective, message):
        with pytest.raises(ValueError) as info:
            DelayModelSpec("linear_sum", objective)
        assert str(info.value) == message

    def test_objective_mismatch(self):
        with pytest.raises(ValueError, match=r"^vector model 'lp' needs the vector objective$"):
            DelayModelSpec("lp", Objective.SUM_BATCH, p=2)
        with pytest.raises(ValueError, match=r"^batch model 'linear_sum' needs a sum or max objective$"):
            DelayModelSpec("linear_sum", Objective.VECTOR)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            capped_linear(0.0)
        with pytest.raises(ValueError):
            ordered_norm((1, 2))  # increasing weights
        with pytest.raises(ValueError):
            top_k(0)
        with pytest.raises(ValueError):
            lp_norm(0.5)
        with pytest.raises(ValueError):
            max_wait_pow(1.5)

    def test_fields_the_kind_does_not_take(self):
        with pytest.raises(ValueError, match=r"^delay model 'linear_sum' takes no tau$"):
            DelayModelSpec("linear_sum", Objective.SUM_BATCH, tau=1.0)
        with pytest.raises(ValueError, match=r"^delay model 'lp' takes no weights$"):
            DelayModelSpec("lp", Objective.VECTOR, p=2, weights=(1.0, 2.0))

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "lp", "p": 2, "w": [1, 2]},
            {"kind": "linear_sum", "tau": 1},
            {"kind": "capped_linear", "tau": 1.0, "K": 3},
            {"kind": "permit_plf", "k": 3},
            {"kind": "sum_vector", "p": 1},
            {"kind": "top_k", "k": 2, "bogus": 0},
        ],
    )
    def test_keys_the_kind_does_not_take(self, obj):
        with pytest.raises(ValueError, match="takes no key"):
            model_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "capped_linear", "tau": "1"},
            {"kind": "capped_linear", "tau": True},
            {"kind": "capped_linear", "tau": float("nan")},
            {"kind": "capped_linear", "tau": float("inf")},
            {"kind": "max_wait_pow", "p": True},
            {"kind": "max_wait_pow", "p": float("inf")},
            {"kind": "lp", "p": float("nan")},
            {"kind": "lp", "p": "2"},
            {"kind": "lp", "p": True},
            {"kind": "permit_plf", "K": "32"},
            {"kind": "permit_plf", "K": float("inf")},
            {"kind": "permit_plf", "K": 2.5},
            {"kind": "permit_plf", "K": False},
            {"kind": "top_k", "k": None},
            {"kind": "ordered", "w": 5},
            {"kind": "ordered", "w": None},
        ],
    )
    def test_param_types_and_finiteness(self, obj):
        with pytest.raises(ValueError):
            model_from_json(obj)

    def test_whole_float_counts_accepted(self):
        assert model_from_json({"kind": "permit_plf", "K": 3.0}).num_classes == 3
        assert model_from_json({"kind": "lp", "p": "inf"}).p == math.inf

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown delay model kind 'bogus'$"):
            DelayModelSpec("bogus", Objective.SUM_BATCH)
        with pytest.raises(ValueError, match=r"^unknown delay model kind 'bogus'$"):
            model_from_json({"kind": "bogus"})

    @pytest.mark.parametrize("spec", ALL_BATCH + ALL_VECTOR)
    def test_json_roundtrip(self, spec):
        assert model_from_json(model_to_json(spec)) == spec

    def test_wire_examples(self):
        assert model_from_json({"kind": "lp", "p": 2}) == lp_norm(2)
        assert model_from_json({"kind": "capped_linear", "tau": 1.0}) == capped_linear(1.0)
        assert model_from_json({"kind": "permit_plf", "K": 32}) == permit_plf(32)
        assert model_from_json({"kind": "permit_plf"}) == permit_plf()  # K defaults to 32
        assert model_from_json({"kind": "ordered", "w": [2, 1, 1]}) == ordered_norm((2, 1, 1))
        assert model_from_json({"kind": "lp", "p": "inf"}) == lp_norm(math.inf)
        assert model_from_json(
            {"kind": "max_wait", "objective": "sum"}
        ) == max_wait(Objective.SUM_BATCH)


class TestPropertyCheckers:
    @pytest.mark.parametrize("spec", ALL_BATCH)
    def test_builtins_monotone(self, spec):
        rep = check_monotone(spec, samples=2000, seed=1)
        assert rep.passed, rep

    def test_decreasing_model_rejected(self):
        rep = check_monotone(lambda batch, t: 1.0 / (1.0 + t), samples=2000, seed=1)
        assert not rep.passed
        assert rep.counterexample is not None

    @pytest.mark.parametrize(
        "spec",
        [lp_norm(1), lp_norm(2), lp_norm(math.inf), top_k(1), top_k(3),
         ordered_norm((3, 2, 1, 1, 0.5)), sum_vector()],
    )
    def test_norms_submodular(self, spec):
        rep = check_continuous_submodular(spec, samples=2000, seed=2)
        assert rep.passed, rep

    def test_squared_sum_rejected(self):
        rep = check_continuous_submodular(lambda d: float(sum(d)) ** 2, samples=2000, seed=2)
        assert not rep.passed
        cx = rep.counterexample
        assert cx["lhs"] > cx["rhs"]

    def test_two_piece_minimum_violates_lattice_inequality(self):
        # min{0.5 d1 + d2, 2 d1 + 0.5 d2} on x=(1,0), y=(0,1):
        # f(x v y) + f(x ^ y) = 1.5 + 0 > 0.5 + 0.5 = f(x) + f(y).
        spec = concave_two_piece(1, 0.5, 2)
        assert f_vector(spec, (1, 0)) == 0.5
        assert f_vector(spec, (0, 1)) == 0.5
        assert f_vector(spec, (1, 1)) == 1.5
        rep = check_continuous_submodular(spec, dimension=2, samples=5000, seed=3)
        assert not rep.passed

    def test_sum_vector_is_modular(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y = rng.uniform(0, 10, (2, 5))
            lhs = f_vector(sum_vector(), np.maximum(x, y)) + f_vector(
                sum_vector(), np.minimum(x, y)
            )
            rhs = f_vector(sum_vector(), x) + f_vector(sum_vector(), y)
            assert lhs == pytest.approx(rhs, abs=1e-9)
