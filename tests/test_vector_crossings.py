"""The vector policies' exact crossings, against the bisection reference.

Both vector policies keep their delay vector as a running aggregate and ack
at its closed-form (or Newton) crossing.  These tests rebuild the explicit
delay vector from the run and check every planned ack time against
:func:`solve_threshold_time` on that vector's :func:`f_vector` cost.
"""

import json
import math

import numpy as np
import pytest

import acklab
from acklab import (
    GreedyBatchOblivious,
    GreedyTau,
    Instance,
    SumMonotonePhases,
    VectorThresholdGreedy,
    concave_two_piece,
    f_vector,
    linear_sum,
    lp_norm,
    ordered_norm,
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
        "greedy_tau_vector": lambda spec: VectorThresholdGreedy(spec, 1.0),
        "greedy_tau_vector_2.5": lambda spec: VectorThresholdGreedy(spec, 2.5),
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
            driver = engine.SimulationDriver(alg)
            frozen: list[float] = []
            acks_seen = 0
            for index, a in enumerate(arrivals):
                driver.deliver(a, index)
                for t, batch in zip(driver.ack_times[acks_seen:], driver.ack_batches[acks_seen:]):
                    if oblivious:
                        frozen.extend(t - arrivals[j] for j in batch)
                        want = f_vector(spec, frozen)
                        assert abs(alg.baseline - want) <= tol_at(want), (family, shift)
                acks_seen = len(driver.ack_times)

                pending = [p for _, p in alg._pending]
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
# The concave lower-bound game
# ---------------------------------------------------------------------------

def concave_game_branch2(n, factory):
    """The concave game's second branch (unit releases 1..n) as a fixed
    instance, which is what both policies face in the game."""
    ell = math.isqrt(n - 1) + 1
    spec = concave_two_piece(ell, 1.0 / n ** 2, n)
    instance = Instance(tuple(float(i) for i in range(1, n + 1)), spec)
    schedule, trace = simulate(instance, factory(spec))
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
    [lambda s: GreedyBatchOblivious(s), lambda s: VectorThresholdGreedy(s, 1.0)],
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
    [lambda s: GreedyBatchOblivious(s), lambda s: VectorThresholdGreedy(s, 1.0)],
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
    for cls in (_ThresholdPolicy, GreedyBatchOblivious, VectorThresholdGreedy):
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
        alg.observe_arrival(0.0, 0)
        assert not hasattr(alg, "_plan") and not hasattr(alg, "_pending_sum"), alg
