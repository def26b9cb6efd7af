import math
import sys

import numpy as np
import pytest

from acklab import (
    GreedyBatchOblivious,
    GreedyTau,
    Instance,
    Permit,
    PermitAccount,
    ProtocolViolation,
    SumMonotonePhases,
    TcpPermitAdapter,
    dp_optimal,
    evaluate_schedule,
    gen_greedy_tau_hard,
    permit_cover_optimal,
    permit_plf,
    permits_to_tcp_schedule,
    plf_eval,
    plf_round_up,
    run_concave_adversary,
    run_pp_adversary,
    simulate,
)
from acklab.engine import OnlineAlgorithm
from plf_reference import loop_round_up


class FixedClassStrategy:
    """Toy permit strategy: always buy one permit of a fixed class."""

    def __init__(self, k: int):
        self.k = int(k)
        self.account = PermitAccount()

    def on_request(self, t: int) -> Permit:
        permit = Permit(start=t, k=self.k)
        self.account.add(permit)
        return permit


PIPELINE_SPEC = permit_plf(num_classes=600)


class TestHardFamily:
    def test_arrival_formula(self):
        inst = gen_greedy_tau_hard(3, 1.0, 1e-3)
        assert inst.arrivals == pytest.approx((1.001, 2.002, 3.003))
        assert inst.model.kind == "capped_linear" and inst.model.tau == 1.0

    def test_single(self):
        assert gen_greedy_tau_hard(1, 2.0, 0.5).arrivals == (2.5,)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gen_greedy_tau_hard(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            gen_greedy_tau_hard(3, 1.0, 2.0)  # eps >= tau

    def test_ratio_equals_n(self):
        inst = gen_greedy_tau_hard(20, 1.0, 1e-3)
        trace = []
        sched = simulate(inst, GreedyTau(inst.model, 1.0), trace.append)
        assert not any(ev.kind == "flush" for ev in trace)
        alg_cost = evaluate_schedule(inst, sched).total
        opt_cost, _ = dp_optimal(inst.arrivals, inst.model)
        assert alg_cost / opt_cost == pytest.approx(20.0, abs=1e-6)


class TestPlfRoundUp:
    def test_examples(self):
        assert plf_round_up(0) == 0
        assert plf_round_up(3) == 1
        assert plf_round_up(5) == 2

    def test_boundary_prefers_cheaper_class(self):
        assert plf_round_up(4.0) == 1  # exactly D_1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            plf_round_up(-1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        # frexp reads inf and NaN as exponent 0, which would round them
        # up to class 1 and class 0.
        with pytest.raises(ValueError, match="finite"):
            plf_round_up(x)

    def test_postconditions_random(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.0, 4.0 ** 10, 10_000):
            k = plf_round_up(float(x))
            assert 4 ** k >= x
            assert 2 ** k <= 2.0 * plf_eval(float(x), num_classes=None)

    def test_integer_spans_past_the_float_range(self):
        # 4**664 < 10**400 <= 4**665; the span never becomes a float.
        assert plf_round_up(10**400) == 665
        assert plf_round_up(4**700) == 700
        assert plf_round_up(4**700 + 1) == 701

    def test_matches_the_loop(self):
        # Floats at and next to 4**k / 2, 4**k and 2 * 4**k, below 1 and
        # up to the largest float; ints there and past the float range.
        floats = [0.0, 5e-324, 0.25, 0.3, 0.999, 1e308, sys.float_info.max]
        ints = [0, 1, 2, 10**400 - 1, 10**400, 10**400 + 1]
        for k in range(512):
            for x in (4.0 ** k / 2.0, 4.0 ** k, 2.0 * 4.0 ** k):
                floats += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        for k in range(1, 800):
            ints += [4**k - 1, 4**k, 4**k + 1, 2 * 4**k]
        for x in floats + ints:
            assert plf_round_up(x) == loop_round_up(x), x

    def test_matches_enumerated_classes_at_boundaries(self):
        # The attaining class, ties to the cheaper one, found over every class.
        def reference(x):
            kstar = min(range(80), key=lambda k: (2.0 ** k + x * 2.0 ** -k, k))
            while 4 ** kstar < x:
                kstar += 1
            return kstar

        for k in range(0, 36):
            for x in (4.0 ** k, 2.0 * 4.0 ** k):
                for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                    assert plf_round_up(y) == reference(y), y


class TestPPAdversary:
    def test_always_class0(self):
        rep = run_pp_adversary(FixedClassStrategy(0), 5)
        assert rep.request_times == (1, 3, 5, 7, 9)

    def test_always_class1(self):
        rep = run_pp_adversary(FixedClassStrategy(1), 3)
        assert rep.request_times == (1, 6, 11)

    def test_single_request(self):
        rep = run_pp_adversary(FixedClassStrategy(3), 1)
        assert rep.request_times == (1,)

    def test_uncovering_strategy_rejected(self):
        class Lazy:
            def __init__(self):
                self.account = __import__("acklab").PermitAccount()

            def on_request(self, t):
                pass

        with pytest.raises(ProtocolViolation):
            run_pp_adversary(Lazy(), 1)


class TestPermitAccount:
    def test_frontier_matches_scans(self):
        # Reference: the scans over every permit that the frontier replaces.
        def covered(permits, t):
            return any(p.covers(t) for p in permits)

        def earliest_uncovered(permits):
            t = 1
            for start, end in sorted((p.start, p.end) for p in permits):
                if start > t:
                    break
                t = max(t, end + 1)
            return t

        rng = np.random.default_rng(3)
        for _ in range(300):
            account = PermitAccount()
            for _ in range(int(rng.integers(1, 12))):
                account.add(Permit(int(rng.integers(-3, 60)), int(rng.integers(0, 3))))
                assert account.earliest_uncovered() == earliest_uncovered(account.permits)
                for t in range(-5, 80):
                    assert account.covers(t) == covered(account.permits, t)
                    assert account.covers(t + 0.5) == covered(account.permits, t + 0.5)


class TestPermitCoverOptimal:
    def test_pair(self):
        cost, permits = permit_cover_optimal([1, 2])
        assert cost == 1 and permits == [Permit(1, 0)]

    def test_single(self):
        assert permit_cover_optimal([1])[0] == 1

    def test_gap(self):
        assert permit_cover_optimal([1, 6])[0] == 2

    def test_empty(self):
        assert permit_cover_optimal([])[0] == 0

    def test_span_past_the_float_range(self):
        cost, permits = permit_cover_optimal([0, 1, 10**400])
        assert cost == 2 and permits == [Permit(0, 0), Permit(10**400, 0)]

    def test_cover_is_valid_and_matches_cost(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            times = sorted(
                int(t) for t in np.cumsum(rng.integers(1, 60, rng.integers(1, 15)))
            )
            cost, permits = permit_cover_optimal(times)
            assert sum(p.cost for p in permits) == cost
            assert all(any(p.covers(t) for p in permits) for t in times)


class TestPermitsToTcp:
    def test_example_class1(self):
        sched = permits_to_tcp_schedule([Permit(0, 1)], [0, 2])
        assert sched.ack_times == (4.0,)
        assert plf_eval(4.0) == 4.0 <= 2 * Permit(0, 1).cost

    def test_example_class0(self):
        sched = permits_to_tcp_schedule([Permit(0, 0)], [0])
        assert sched.ack_times == (1.0,)

    def test_empty(self):
        assert permits_to_tcp_schedule([Permit(0, 0)], []).ack_times == ()

    def test_uncovered_rejected(self):
        with pytest.raises(ProtocolViolation):
            permits_to_tcp_schedule([Permit(0, 0)], [5])

    def test_cost_at_most_twice_permit_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            times = sorted(
                int(t) for t in np.cumsum(rng.integers(1, 40, rng.integers(1, 12)))
            )
            cost, permits = permit_cover_optimal(times)
            sched = permits_to_tcp_schedule(permits, times)
            spec = permit_plf(num_classes=64)
            total = evaluate_schedule(
                Instance(tuple(float(t) for t in times), spec), sched
            ).total
            assert total <= 2.0 * cost + 1e-9 * max(1.0, cost)


class TestTcpToPermit:
    def test_first_request_phases(self):
        adapter = TcpPermitAdapter(SumMonotonePhases(PIPELINE_SPEC))
        permit = adapter.on_request(1)
        assert permit == Permit(1, 0)
        assert adapter.next_times[0] == pytest.approx(2.0, abs=1e-9)

    def test_first_request_greedy(self):
        adapter = TcpPermitAdapter(GreedyTau(PIPELINE_SPEC, 1.0))
        permit = adapter.on_request(1)
        assert permit == Permit(1, 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SumMonotonePhases(PIPELINE_SPEC),
            lambda: GreedyTau(PIPELINE_SPEC, 1.0),
            lambda: GreedyTau(PIPELINE_SPEC, 0.5),
        ],
    )
    def test_pipeline_small(self, make):
        adapter = TcpPermitAdapter(make())
        rep = run_pp_adversary(adapter, 12)
        assert rep.chained
        # every request's permit starts at the request and is bought alone
        for req, purchase in zip(rep.request_times, rep.purchases):
            assert len(purchase.permits) == 1
            assert purchase.permits[0].start == req
        # per-request cost within twice the rounded span cost
        for purchase, nt, req in zip(rep.purchases, adapter.next_times, rep.request_times):
            span = nt - float(req)
            assert purchase.permits[0].cost <= 2.0 * plf_eval(span, num_classes=None) + 1e-9

    @pytest.mark.parametrize(
        "make",
        [lambda: SumMonotonePhases(PIPELINE_SPEC), lambda: GreedyTau(PIPELINE_SPEC, 1.0)],
    )
    def test_replay_matches_lookahead(self, make):
        adapter = TcpPermitAdapter(make())
        rep = run_pp_adversary(adapter, 10)
        arrivals = tuple(float(t) for t in rep.request_times)
        sched = simulate(Instance(arrivals, PIPELINE_SPEC), make())
        assert len(sched.ack_times) == len(arrivals)
        for got, want in zip(sched.ack_times, adapter.next_times):
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))


class _ImmediateAcker(OnlineAlgorithm):
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


class TestConcaveAdversary:
    def test_branch1_against_eager_acker(self):
        rep = run_concave_adversary(lambda spec: _ImmediateAcker(spec), 16)
        assert rep.branch == 1
        ell = rep.prefix_len
        want = 1.0 + rep.eps * ell * (ell + 1) / 2.0
        assert rep.comparison_cost == pytest.approx(want, rel=1e-12)
        assert rep.alg_cost >= ell  # one ack per early packet

    def test_branch2_against_vector_greedy(self):
        rep = run_concave_adversary(lambda spec: GreedyBatchOblivious(spec), 16)
        assert rep.branch == 2
        ell, n = rep.prefix_len, rep.n
        tail = n - ell
        want = (ell + 1) + rep.eps * tail * (tail - 1) / 2.0
        assert rep.comparison_cost == pytest.approx(want, rel=1e-12)
        assert rep.ratio > 1.0

    def test_closed_form_example_n4(self):
        # ell = 2, eps = 1/16: branch-1 comparison cost = 1 + eps * 3
        rep = run_concave_adversary(lambda spec: _ImmediateAcker(spec), 4)
        assert rep.branch == 1
        assert rep.comparison_cost == pytest.approx(1.1875, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            run_concave_adversary(lambda spec: _ImmediateAcker(spec), 3)

    def test_ratio_grows_with_n(self):
        r64 = run_concave_adversary(lambda s: GreedyTau(s, 1.0), 64)
        r256 = run_concave_adversary(lambda s: GreedyTau(s, 1.0), 256)
        assert r256.ratio > r64.ratio
