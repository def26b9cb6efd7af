"""The vector policies' exact crossings, against the bisection reference.

Both vector policies keep their delay vector as a running aggregate and ack
at its closed-form (or Newton) crossing.  These tests rebuild the explicit
delay vector from the run and check every planned ack time against
:func:`solve_threshold_time` on that vector's :func:`f_vector` cost.
"""

import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import acklab
from acklab import (
    GreedyBatchOblivious,
    GreedyMaxMonotone,
    GreedyTau,
    Instance,
    Objective,
    SumMonotonePhases,
    capped_linear,
    concave_two_piece,
    f_vector,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    ordered_norm,
    permit_plf,
    run_concave_adversary,
    simulate,
    sum_vector,
    top_k,
)
from acklab import algorithms, cost, engine
from acklab.algorithms import _ThresholdPolicy
from acklab.cli import main
from acklab.harness import gen_bursty, gen_uniform
from acklab.model import batches_from_acks
from acklab.tolerance import tol_at
from bisection_reference import solve_threshold_time
from test_algorithms import chained_timelines

SPECS = [
    lp_norm(1),
    lp_norm(1.5),
    lp_norm(2),
    lp_norm(3),
    lp_norm(math.inf),
    top_k(2),  # below the pending count of most batches
    top_k(9),  # above it
    ordered_norm((2.0, 1.0)),  # shorter than the vector
    ordered_norm((3.0, 2.5, 2.5, 2.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.1, 0.1, 0.0)),  # longer
    concave_two_piece(4, 0.05, 16),
    sum_vector(),
]


def timelines(rng):
    """Random, bursty and tied arrivals.  Under the batch-oblivious greedy
    the bursts leave long waits pending while short frozen delays stand,
    so pending delays pass frozen ones."""
    uniform = gen_uniform(14, 1.5, rng)
    bursty = gen_bursty(16, 0.4, 5.0, 0.02, rng)
    tied = tuple(float(x) for x in np.round(np.cumsum(rng.exponential(0.6, 14)) * 2.0) / 2.0)
    return {"uniform": uniform, "bursty": bursty, "tied": tied}


def policies():
    return {
        "vector_greedy": lambda spec: GreedyBatchOblivious(spec),
        "greedy_tau_vector": lambda spec: GreedyTau(spec, 1.0),
        "greedy_tau_vector_2.5": lambda spec: GreedyTau(spec, 2.5),
    }


def spec_id(spec):
    return f"{spec.kind}-{spec.p or spec.k or len(spec.weights or ())}"


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("policy", list(policies()))
def test_planned_times_match_bisection_reference(spec, policy):
    rng = np.random.default_rng(17)
    factory = policies()[policy]
    oblivious = policy == "vector_greedy"
    for family, base in timelines(rng).items():
        for shift in (0.0, 1e6, 1e9):
            arrivals = tuple(shift + a for a in base)
            alg = factory(spec)
            trace: list[engine.TraceEvent] = []
            driver = engine.SimulationDriver(alg, trace.append)
            frozen: list[float] = []
            events_seen = 0
            for index, a in enumerate(arrivals):
                driver.deliver(a)
                for ev in trace[events_seen:]:
                    if oblivious and ev.kind == "ack":
                        frozen.extend(ev.time - arrivals[j] for j in ev.detail["indices"])
                        want = f_vector(spec, frozen)
                        assert abs(alg.baseline - want) <= tol_at(want), (family, shift)
                events_seen = len(trace)

                pending = [arrivals[j] for j in driver.pending]
                head = frozen if oblivious else []
                target = f_vector(spec, frozen) + 1.0 if oblivious else alg.tau

                def vector_at(t):
                    return head + [max(0.0, t - p) for p in pending]

                got = alg.planned_ack_time()
                want = solve_threshold_time(lambda t: f_vector(spec, vector_at(t)), a, target)
                where = (family, shift, index)
                if want is None:
                    assert got is None, where
                    continue
                assert got is not None and got >= a, where
                assert abs(got - want) <= tol_at(want), (where, got, want)
                assert f_vector(spec, vector_at(got)) >= target - tol_at(target), where
                if got > a:  # the first float at which the policy's own cost reaches it
                    before = math.nextafter(got, -math.inf)
                    assert alg._aggregate.cost(before - alg._origin) < alg._target(), (where, got)
            driver.finish(arrivals[-1])


# ---------------------------------------------------------------------------
# top_k and lp with p = inf are ordered norms
# ---------------------------------------------------------------------------

SEEDS = 40
ORDERED_TWINS = [
    *((top_k(k), ordered_norm((1.0,) * k)) for k in (1, 2, 3, 9)),
    (lp_norm(math.inf), ordered_norm((1.0,))),
]
# top_k shares the ordered-norm aggregate but keeps its own cost formula,
# the affine pieces j s - X_j + H_{k-j}, which round differently from the
# sorted merge of explicit weights, so only these twins plan float-identical
# acks.  An exact (Fraction) audit over k = 2, 3, 4, 5 and 9 counted 386
# acks off the exact crossing for the pieces and 400 for the merge; k = 3
# alone went the other way, 87 against the merge's 74.  On general weights
# the merge beat a level form sum (w_r - w_{r+1}) T_r, 674 against 696.
PLANNING_TWINS = [(top_k(1), ordered_norm((1.0,))), (lp_norm(math.inf), ordered_norm((1.0,)))]


def planned_times(spec, factory, arrivals):
    """The policy's planned ack time after every arrival, and its acks."""
    driver = engine.SimulationDriver(factory(spec))
    planned = []
    for a in arrivals:
        driver.deliver(a)
        planned.append(driver.algorithm.planned_ack_time())
    driver.finish(arrivals[-1])
    return planned, driver.ack_times


@pytest.mark.parametrize("policy", list(policies()))
@pytest.mark.parametrize("spec, twin", PLANNING_TWINS, ids=spec_id)
def test_ordered_twins_plan_the_same_acks(spec, twin, policy):
    factory = policies()[policy]
    for seed in range(SEEDS):
        for family, base in timelines(np.random.default_rng(seed)).items():
            for shift in (0.0, 1e6, 1e12):
                arrivals = tuple(shift + a for a in base)
                where = (seed, family, shift)
                assert planned_times(spec, factory, arrivals) == planned_times(
                    twin, factory, arrivals
                ), where


@pytest.mark.parametrize("spec, twin", ORDERED_TWINS, ids=spec_id)
def test_ordered_twins_cost_the_same(spec, twin):
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 3, 5, 9, 20, 100):
        for _ in range(50):
            d = rng.exponential(1.0, size) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert f_vector(spec, d) == f_vector(twin, d), d


def test_top_k_beyond_the_packet_count_builds_no_weights():
    # Only the weights that meet a delay are built, so k = 1e15 costs like
    # k = the packet count instead of allocating 1e15 weights.
    huge = top_k(10**15)
    assert cost.order_weights(huge, 3) == (1.0, 1.0, 1.0)
    assert f_vector(huge, [1.0, 2.0, 3.0]) == 6.0


@pytest.mark.parametrize("policy", ["vector_greedy", "greedy_tau_vector"])
def test_top_k_aggregate_builds_no_weights(policy, monkeypatch):
    # top_k's unit weights stay implicit online too: no weight tuple is
    # built, and the aggregate holds no list longer than the packet count.
    order_weights, built = cost.order_weights, []

    def recording(spec, n=None):
        built.append(order_weights(spec, n))
        return built[-1]

    monkeypatch.setattr(cost, "order_weights", recording)
    arrivals = timelines(np.random.default_rng(3))["bursty"]
    alg = policies()[policy](top_k(10**15))
    driver = engine.SimulationDriver(alg)
    for a in arrivals:
        driver.deliver(a)
        held = [v for v in vars(alg._aggregate).values() if isinstance(v, (list, tuple))]
        assert all(len(v) <= len(arrivals) + 1 for v in held)
    driver.finish(arrivals[-1])
    assert alg._aggregate.w is None and built == []


def test_top_k_weights_without_a_packet_count():
    # With n = None an ordered norm gives all its weights: k unit weights.
    assert cost.order_weights(top_k(3)) == (1.0, 1.0, 1.0)
    assert cost.order_weights(top_k(3), 2) == (1.0, 1.0)


def exact_ordered_cost(weights, delays):
    return sum(Fraction(w) * d for w, d in zip(weights, sorted(delays, reverse=True)))


def test_vector_greedy_ack_reaches_its_exact_target():
    # Seed 9's 0.5-grid timeline, shifted by 1e6: at 1000003.5, the third
    # ack's arrival, the exact cost is 1.16e-10 short of the target, so the
    # ack lands one float later, where the exact cost first reaches it.
    weights = (2.0, 1.0)
    spec = ordered_norm(weights)
    arrivals = tuple(1e6 + a for a in timelines(np.random.default_rng(9))["tied"])
    schedule = simulate(Instance(arrivals, spec), GreedyBatchOblivious(spec))
    assert schedule.ack_times[2] == 1000003.5000000001
    frozen: list[Fraction] = []
    for batch in batches_from_acks(arrivals, schedule.ack_times)[:3]:
        target = exact_ordered_cost(weights, frozen) + 1
        pending = [Fraction(a) for a in arrivals[batch.start : batch.stop]]
        t = Fraction(batch.ack_time)
        before = Fraction(math.nextafter(batch.ack_time, -math.inf))
        assert exact_ordered_cost(weights, frozen + [t - a for a in pending]) >= target
        waiting = [before - a for a in pending if a <= before]
        assert exact_ordered_cost(weights, frozen + waiting) < target
        frozen += [t - a for a in pending]


# ---------------------------------------------------------------------------
# The concave lower-bound game
# ---------------------------------------------------------------------------

def concave_game_branch2(n, factory):
    """The concave game's second branch (unit releases 1..n) as a fixed
    instance, which is what both policies face in the game."""
    ell = math.isqrt(n - 1) + 1
    spec = concave_two_piece(ell, 1.0 / n ** 2, n)
    instance = Instance(tuple(float(i) for i in range(1, n + 1)), spec)
    trace: list[engine.TraceEvent] = []
    schedule = simulate(instance, factory(spec), trace.append)
    return instance, schedule, trace


def test_concave_game_acks_at_the_exact_crossing():
    instance, schedule, _ = concave_game_branch2(400, lambda s: GreedyBatchOblivious(s))
    batches = batches_from_acks(instance.arrivals, schedule.ack_times)
    # The cost reaches its trigger at 23.0 exactly; the arrival at 23.0 is
    # processed first and joins the batch, so the ack serves two packets.
    assert schedule.ack_times[1] == 23.0
    assert len(batches[1].indices) == 2
    assert len(schedule.ack_times) == 191


@pytest.mark.parametrize(
    "factory",
    [lambda s: GreedyBatchOblivious(s), lambda s: GreedyTau(s, 1.0)],
    ids=["vector_greedy", "greedy_tau_vector"],
)
def test_concave_game_cost_is_below_target_one_float_before_each_ack(factory):
    instance, schedule, trace = concave_game_branch2(400, factory)
    spec = instance.model
    flushes = {ev.time for ev in trace if ev.kind == "flush"}
    oblivious = isinstance(factory(spec), GreedyBatchOblivious)
    frozen: list[float] = []
    for batch in batches_from_acks(instance.arrivals, schedule.ack_times):
        t = batch.ack_time
        target = f_vector(spec, frozen) + 1.0 if oblivious else 1.0
        before = math.nextafter(t, -math.inf)
        waiting = [a for a in instance.arrivals[batch.start : batch.stop] if a <= before]
        delays = (frozen if oblivious else []) + [before - a for a in waiting]
        if t not in flushes:
            assert f_vector(spec, delays) < target, t
        frozen.extend(t - a for a in instance.arrivals[batch.start : batch.stop])


CONCAVE_REPORTS = {
    # (alg, n): (alg_cost, ratio)
    ("vector_greedy", 64): (58.0, 6.1860222893448595),
    ("vector_greedy", 256): (242.0, 13.878039048225748),
    ("vector_greedy", 400): (382.0, 17.808805918397674),
    ("greedy_tau_vector", 64): (360.37985830325607, 38.43651441542904),
    ("greedy_tau_vector", 256): (2448.439086051869, 140.41129439433885),
    ("greedy_tau_vector", 400): (4620.451062211364, 215.40501628894384),
}


@pytest.mark.parametrize("alg, n", list(CONCAVE_REPORTS))
def test_concave_adversary_reports_pinned(capsys, alg, n):
    spec = {"alg": alg, "tau": 1.0} if alg == "greedy_tau_vector" else {"alg": alg}
    code = main(["adversary", "--kind", "concave", "--n", str(n), "--alg", json.dumps(spec)])
    got = json.loads(capsys.readouterr().out)
    assert code == 0
    alg_cost, ratio = CONCAVE_REPORTS[alg, n]
    assert (got["branch"], got["early_acks"]) == (2, 0)
    assert got["alg_cost"] == pytest.approx(alg_cost, rel=1e-12)
    assert got["ratio"] == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize(
    "factory",
    [lambda s: GreedyBatchOblivious(s), lambda s: GreedyTau(s, 1.0)],
    ids=["vector_greedy", "greedy_tau_vector"],
)
def test_concave_adversary_at_large_n(factory):
    ratios = []
    for n in (1024, 4096):
        rep = run_concave_adversary(factory, n)
        ell, eps = rep.prefix_len, rep.eps
        assert rep.branch == 2
        tail = n - ell
        closed = (ell + 1) + eps * tail * (tail - 1) / 2.0
        assert rep.comparison_cost == pytest.approx(closed, rel=1e-12)
        assert rep.comparison_cost_closed_form == pytest.approx(closed, rel=1e-12)
        ratios.append(rep.ratio)
    assert ratios[1] > ratios[0]


# ---------------------------------------------------------------------------
# One code path
# ---------------------------------------------------------------------------

def test_no_bisection_left_in_the_library():
    assert not hasattr(acklab, "solve_threshold_time")
    assert not hasattr(engine, "solve_threshold_time")
    assert not hasattr(engine, "logging")
    for cls in (_ThresholdPolicy, GreedyBatchOblivious, GreedyTau):
        assert not hasattr(cls, "_delays") and not hasattr(cls, "_cost_at"), cls
    # One threshold core: batch and vector policies plan through the same
    # aggregate and the same threshold_time.
    for name in ("_BatchThresholdPolicy", "_VectorThresholdPolicy"):
        assert not hasattr(algorithms, name), name
    for name in ("batch_threshold_time", "vector_aggregate", "vector_threshold_time"):
        assert not hasattr(cost, name), name
    for alg in (
        GreedyTau(linear_sum()), SumMonotonePhases(linear_sum()), GreedyBatchOblivious(lp_norm(2))
    ):
        alg.observe_arrival(0.0)
        assert not hasattr(alg, "_plan") and not hasattr(alg, "_pending_sum"), alg


def test_concave_aggregate_is_two_sum_aggregates():
    agg = cost.aggregate(concave_two_piece(4, 0.05, 16))
    assert type(agg.head) is type(agg.tail) is type(cost.aggregate(sum_vector()))
    for name in ("m_head", "x_head", "frozen_head", "m_tail", "x_tail", "frozen_tail"):
        assert not hasattr(agg, name), name
    for name in ("_parts", "_drop_pending"):
        assert not hasattr(type(agg), name), name


def test_one_ordered_norm_aggregate():
    for name in ("_MaxAggregate", "_TopKAggregate", "plf_probe"):
        assert not hasattr(cost, name), name
    assert not hasattr(acklab.adversary, "plf_probe")
    specs = (lp_norm(math.inf), ordered_norm((2.0, 1.0)), top_k(1), top_k(3), top_k(10**15))
    assert len({type(cost.aggregate(spec)) for spec in specs}) == 1


def test_one_newton_crossing_for_the_convex_aggregates():
    power, ordered = type(cost.aggregate(lp_norm(2))), type(cost.aggregate(top_k(2)))
    assert power is not ordered
    for cls in (power, ordered):
        assert "crossing" not in vars(cls), cls
    assert power.crossing is ordered.crossing


# ---------------------------------------------------------------------------
# The crossing only seeds the walk
# ---------------------------------------------------------------------------

def nudge(c, floats, toward):
    for _ in range(floats):
        c = math.nextafter(c, toward)
    return c


# threshold_time walks from an aggregate's crossing to the first float at
# which the cost reaches the goal, so a crossing a few floats or a relative
# 1e-12 off must plan the same acks.
CROSSING_MOVES = {
    "up-4-floats": lambda c: nudge(c, 4, math.inf),
    "down-4-floats": lambda c: nudge(c, 4, -math.inf),
    "times-1+1e-12": lambda c: c * (1.0 + 1e-12),
    "times-1-1e-12": lambda c: c * (1.0 - 1e-12),
}


def batch_cases(kind):
    """``kind``'s batch policies on test_algorithms' grid timeline (at its
    large shifts) and chained timelines."""
    runs = {
        "linear_sum": [
            (linear_sum(), GreedyTau),
            (linear_sum(), lambda s: GreedyTau(s, 0.7)),
            (linear_sum(), SumMonotonePhases),
        ],
        "capped_linear": [
            (capped_linear(1.0), GreedyTau),
            (capped_linear(1.0), lambda s: GreedyTau(s, 0.7)),
        ],
        "max_wait": [(max_wait(), GreedyMaxMonotone)],
        "max_wait_pow": [
            (max_wait_pow(2), GreedyMaxMonotone),
            (max_wait_pow(3, Objective.SUM_BATCH), GreedyTau),
        ],
        "permit_plf": [(permit_plf(), GreedyTau), (permit_plf(), SumMonotonePhases)],
    }[kind]
    rng = np.random.default_rng(1)
    grid = np.round(np.cumsum(rng.exponential(1.0, 300)) * 64) / 64
    lines = [tuple(shift + grid) for shift in (0.0, 2.0**33, 2.0**40)]
    lines += chained_timelines(np.random.default_rng(0))
    return [(spec, make, arrivals) for spec, make in runs for arrivals in lines]


def vector_cases(spec):
    """``spec`` under every vector policy, on the timelines of seeds 0-2 at
    shifts 0, 1e6 and 1e12."""
    return [
        (spec, make, tuple(shift + a for a in base))
        for make in policies().values()
        for seed in range(3)
        for base in timelines(np.random.default_rng(seed)).values()
        for shift in (0.0, 1e6, 1e12)
    ]


@functools.lru_cache(maxsize=None)
def unmoved_plans(model):
    """``model``'s cases and their plans from the unmoved crossings."""
    cases = batch_cases(model) if model in cost.BATCH_KINDS else vector_cases(model)
    return cases, [planned_times(*case) for case in cases]


def crossing_cases():
    for model in (*cost.BATCH_KINDS, *SPECS):
        for move in CROSSING_MOVES:
            name = model if isinstance(model, str) else spec_id(model)
            yield pytest.param(model, move, id=f"{name}-{move}")


@pytest.mark.parametrize("model, move", crossing_cases())
def test_crossing_only_seeds_the_walk(model, move, monkeypatch):
    cases, wanted = unmoved_plans(model)

    def moved_aggregate(spec):
        agg = cost.aggregate(spec)
        crossing = agg.crossing
        agg.crossing = lambda goal: (
            CROSSING_MOVES[move](c) if math.isfinite(c := crossing(goal)) else c
        )
        return agg

    monkeypatch.setattr(algorithms, "aggregate", moved_aggregate)
    for case, want in zip(cases, wanted):
        assert planned_times(*case) == want, case[2][:3]


# ---------------------------------------------------------------------------
# Every aggregate's float cost is monotone
# ---------------------------------------------------------------------------

MONOTONE_MODELS = [
    linear_sum(),
    capped_linear(1.0),
    max_wait(),
    max_wait_pow(3, Objective.SUM_BATCH),
    permit_plf(),
    *(lp_norm(p) for p in (1.5, 2, 3, 7.5, math.inf)),
    *(top_k(k) for k in (1, 3, 9)),
    ordered_norm((2.0, 1.0)),
    ordered_norm((1.0, 0.5, 0.25, 0.125)),
    ordered_norm((3.0, 2.5, 2.5, 2.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.1, 0.1, 0.0)),
    concave_two_piece(4, 0.05, 16),
    sum_vector(),
]


def offsets(rng):
    """1-12 sorted arrival offsets from 0, scaled by 1e-6 to 1e6."""
    xs = np.cumsum(rng.exponential(1.0, rng.integers(1, 13))) * 10.0 ** rng.uniform(-6.0, 6.0)
    return (xs - xs[0]).tolist()


def random_state(spec, rng):
    """An aggregate with pending packets and, for most vector states, a
    frozen part of its own scale."""
    agg = cost.aggregate(spec)
    if spec.objective is Objective.VECTOR and rng.random() < 0.8:
        served = offsets(rng)
        for x in served:
            agg.add(x)
        agg.freeze(served[-1] + float(rng.exponential(served[-1] + 1e-3)))
    pending = offsets(rng)
    for x in pending:
        agg.add(x)
    return agg, pending[-1]


@pytest.mark.parametrize("spec", MONOTONE_MODELS, ids=spec_id)
def test_every_aggregate_cost_is_monotone_over_the_floats(spec):
    # Over the 64 floats around each crossing the float cost never falls,
    # so threshold_time's walk ends on the same float from any seed.
    rng = np.random.default_rng(23)
    for state in range(300):
        agg, last = random_state(spec, rng)
        goal = agg.cost(last + float(rng.exponential(last + 1e-3)))
        c = agg.crossing(goal)
        if not math.isfinite(c):
            continue
        t = nudge(max(c, last), 32, -math.inf)
        costs = []
        for _ in range(64):
            costs.append(agg.cost(t))
            t = math.nextafter(t, math.inf)
        assert all(a <= b for a, b in zip(costs, costs[1:])), (state, goal, costs)


# ---------------------------------------------------------------------------
# Every walk ends
# ---------------------------------------------------------------------------

class CountedCost:
    """An aggregate whose crossing is forced to ``seed`` and whose cost
    raises after ``limit`` calls, so a walk of one float per call fails
    fast."""

    def __init__(self, agg, seed, limit=10**4):
        self.agg, self.seed, self.calls, self.limit = agg, seed, 0, limit
        self.cap = getattr(agg, "cap", math.inf)

    def cost(self, s):
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError("the walk took more than 10**4 cost calls")
        return self.agg.cost(s)

    def crossing(self, goal):
        return self.seed


WALK_CASES = {
    # spec, pending offsets, target, the first float time at which the
    # cost reaches it (None: the cost at the largest float falls short)
    "linear_sum": (linear_sum(), [0.0, 1.0], 2.0, 1.5),
    "linear_sum-far": (linear_sum(), [0.0, 1.0], 1e300, 5e299),
    "capped_linear-far": (capped_linear(1e300), [0.0, 1.0], 1e300, 5e299),
    "lp-2": (lp_norm(2), [0.0], 1.0, 1.0),
    "lp-2-far": (lp_norm(2), [0.0, 1.0, 2.0], 1.7e308, 9.814954576223639e307),
    "top_k-2-far": (top_k(2), [0.0, 1.0], 1e308, 5e307),
    "ordered-out-of-reach": (ordered_norm((1e-300,)), [0.0], 1e10, None),
}


@pytest.mark.parametrize("seed", [0.0, sys.float_info.max], ids=["zero", "largest"])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_walk_from_any_seed_ends(case, seed):
    # A walk of one float per cost call would take about 2**62 calls from
    # either seed; galloping and bisecting takes about 130.
    spec, pending, target, want = WALK_CASES[case]
    agg = cost.aggregate(spec)
    for x in pending:
        agg.add(x)
    assert cost.threshold_time(CountedCost(agg, seed), 0.0, target, pending[-1]) == want
    if want is None:
        assert agg.cost(sys.float_info.max) < target
    else:
        assert agg.cost(want) >= target > agg.cost(math.nextafter(want, -math.inf))


class CountedCrossing(CountedCost):
    """An aggregate whose own crossing seeds the walk, counting the costs
    the crossing takes as well as the walk's."""

    def crossing(self, goal):
        inner = self.agg._value_slope

        def counted(s):
            self.calls += 1
            return inner(s)

        self.agg._value_slope = counted
        try:
            return self.agg.crossing(goal)
        finally:
            self.agg._value_slope = inner


@pytest.mark.parametrize("case", ["lp-2-far", "top_k-2-far", "ordered-out-of-reach"])
def test_crossing_past_the_float_range_seeds_a_short_walk(case):
    # The cost at goal / w1 leaves the float range (or goal / w1 does).
    # The crossing halves back into it and climbs the tangent, so the
    # walk starts next to the answer: a seed at 0 took about 135 costs.
    spec, pending, target, want = WALK_CASES[case]
    agg = cost.aggregate(spec)
    for x in pending:
        agg.add(x)
    counted = CountedCrossing(agg, None)
    assert cost.threshold_time(counted, 0.0, target, pending[-1]) == want
    assert counted.calls <= 8
