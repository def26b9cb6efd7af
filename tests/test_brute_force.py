"""The chunked brute-force oracle and the row-wise vector cost against the
one-partition-at-a-time reference in ``brute_force_reference``: the same
cost and the same schedule, bit for bit."""

import math

import numpy as np
import pytest

import acklab.offline as offline
from acklab import (
    GreedyBatchOblivious,
    Instance,
    Objective,
    brute_force_optimal,
    capped_linear,
    concave_two_piece,
    f_rows,
    f_vector,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    ordered_norm,
    permit_plf,
    simulate,
    sum_vector,
    top_k,
)
from acklab import cost
import brute_force_reference as reference

SPECS = [
    linear_sum(),
    linear_sum(Objective.MAX_BATCH),
    max_wait(),
    max_wait(Objective.SUM_BATCH),
    max_wait_pow(200),
    capped_linear(1.0),
    permit_plf(),
    lp_norm(1.5),
    lp_norm(2),
    lp_norm(math.inf),
    top_k(3),
    top_k(40),
    ordered_norm((3, 2, 1)),
    concave_two_piece(2, 0.1, 5),
    sum_vector(),
]
VECTOR_SPECS = [s for s in SPECS if s.objective is Objective.VECTOR] + [lp_norm(400), lp_norm(1)]


def timelines(rng, n):
    """Uniform, 0.5-grid and duplicated-arrival timelines of n packets.

    The uniform one spans up to 6n, so past n = 6 ``max_wait_pow(200)`` has
    blocks that cost +inf; the other two tie arrivals."""
    yield np.sort(rng.uniform(0.0, 6.0 * n, n))
    yield np.sort(rng.integers(0, 2 * n, n) * 0.5)
    yield np.sort(np.repeat(rng.uniform(0.0, n, (n + 1) // 2), 2)[:n])


def assert_same_optimum(arrivals, spec):
    got = brute_force_optimal(arrivals, spec)
    want = reference.brute_force_optimal(arrivals, spec)
    assert got[0] == want[0] and got[1] == want[1], (arrivals, spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.objective.value}-{s.p}")
def test_matches_reference_up_to_n_12(spec):
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for arrivals in timelines(rng, n):
            for shift in (0.0, 1e6, 1e12):
                assert_same_optimum((arrivals + shift).tolist(), spec)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("spec", [max_wait(), lp_norm(2), top_k(3)], ids=lambda s: s.kind)
def test_matches_reference_across_chunks(spec, n):
    # n = 16 takes two chunks of 2^14 masks.  Evenly spaced arrivals tie
    # many partitions' costs, also across the chunk boundary; the random
    # 0.5 grid ties arrivals, so many partitions collide.
    rng = np.random.default_rng(n)
    assert_same_optimum((0.5 * np.arange(n)).tolist(), spec)
    assert_same_optimum(np.sort(rng.integers(0, n, n) * 0.5).tolist(), spec)


@pytest.mark.parametrize(
    "spec", [linear_sum(), max_wait(Objective.SUM_BATCH), sum_vector()], ids=lambda s: s.kind
)
def test_tie_across_the_chunk_boundary(spec):
    # Packets 14 and 15 arrive 1 apart, far from the others: one ack for
    # both (delay 1, in the first chunk) ties two acks (delay 0, in the
    # second chunk, whose masks cut after packet 14).  The first wins.
    arrivals = [0.5 * i for i in range(14)] + [100.0, 101.0]
    assert_same_optimum(arrivals, spec)
    _, schedule = brute_force_optimal(arrivals, spec)
    assert schedule.ack_times[-1] == 101.0 and 100.0 not in schedule.ack_times


def test_first_of_tied_masks_wins_across_chunks(monkeypatch):
    # Under max_wait all four partitions of [0, 1, 2] cost 3; mask 0 (one
    # ack at 2) comes first, and a later chunk's tie must not replace it.
    for chunk in (1, 2, 4):
        monkeypatch.setattr(offline, "_MASK_CHUNK", chunk)
        cost, schedule = brute_force_optimal([0.0, 1.0, 2.0], max_wait())
        assert cost == 3.0 and schedule.ack_times == (2.0,)


@pytest.mark.parametrize("chunk", [1, 4, 8])
def test_small_chunks_match_reference(monkeypatch, chunk):
    monkeypatch.setattr(offline, "_MASK_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n in range(1, 9):
        for arrivals in timelines(rng, n):
            for spec in SPECS:
                assert_same_optimum(arrivals.tolist(), spec)


def test_chunks_that_only_collide_are_skipped(monkeypatch):
    # Four tied arrivals: every cut makes two acks collide, so only mask 0
    # is a schedule and every later chunk has no valid row.
    monkeypatch.setattr(offline, "_MASK_CHUNK", 2)
    for spec in (linear_sum(), lp_norm(2)):
        cost, schedule = brute_force_optimal([1.0] * 4, spec)
        assert cost == 1.0 and schedule.ack_times == (1.0,)


def random_vectors(rng):
    for n in (0, 1, 2, 3, 7, 8, 9, 16, 17, 22, 40, 300):
        for scale in (1e-200, 1e-3, 1.0, 1e6, 1e200):
            d = rng.uniform(0.0, 1.0, n) * scale
            d[rng.random(n) < 0.2] = 0.0
            yield d


@pytest.mark.parametrize("spec", VECTOR_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
def test_f_vector_matches_reference(spec):
    rng = np.random.default_rng(3)
    for d in random_vectors(rng):
        assert f_vector(spec, d) == reference.f_vector(spec, d), (spec, d)
        assert f_vector(spec, tuple(d.tolist())) == reference.f_vector(spec, d)


@pytest.mark.parametrize("p", [2, 3.5, 400])
def test_lp_scaling_test_near_its_bound(p):
    # Largest delays whose p-th power sits at the edge of 2**+-1000: the
    # scaling decision, and so every bit of the cost, follows the reference.
    spec = lp_norm(p)
    for n in (1, 2, 5, 22):
        for sign in (1.0, -1.0):
            edge = 2.0 ** (sign * (1000.0 - math.log2(n)) / p)
            for top in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                d = np.full(n, top)
                d[1:] *= np.linspace(0.0, 1.0, n - 1, endpoint=False)
                assert f_vector(spec, d) == reference.f_vector(spec, d), (p, n, top)


def rule_edges(p, n):
    """Pairs (scaled, unscaled) of adjacent tops on either side of the lp
    scaling bound p * max(e, 1 - e) >= 1000 - log2(n), e = frexp(top)[1]."""
    bound = 1000.0 - math.log2(n)
    high = 2.0 ** (math.ceil(bound / p) - 1)  # the least top of exponent ceil(bound / p)
    low = 2.0 ** math.floor(1.0 - bound / p)  # the least top of exponent floor(1 - bound / p) + 1
    return [(high, math.nextafter(high, 0.0)), (math.nextafter(low, 0.0), low)]


# Tops where np.log2 and math.log2 differ in the last bit, and p puts
# p * log2(top) on either side of the old bound.
OLD_LOG2_TOPS = [(3.7733302391694336e17, 17.126626195446125), (7.244443920071378e17, 16.854978189500233)]


@pytest.mark.parametrize("p", [2, 3.5, 17.126626195446125, 16.854978189500233, 400])
def test_lp_scaling_rule_at_its_bound(p):
    # The rule is decided on frexp's exponent, exact and the same in NumPy
    # and Python: rows on either side of the bound cost as the reference.
    spec = lp_norm(p)
    for n in (1, 2, 5, 22):
        tops = [top for pair in rule_edges(p, n) for top in pair]
        for scaled, unscaled in rule_edges(p, n):
            assert cost._lp_divisor(scaled, p, n) == scaled
            assert cost._lp_divisor(unscaled, p, n) == 1.0
        tops += [top for top, q in OLD_LOG2_TOPS if q == p]
        D = np.array(tops)[:, None] * np.linspace(1.0, 0.0, n, endpoint=False)
        want = [reference.f_vector(spec, row) for row in D]
        assert f_rows(spec, D).tolist() == want, (p, n)
        assert [f_vector(spec, row) for row in D] == want, (p, n)


@pytest.mark.parametrize("p", [1100, 2000, 1e6])
def test_lp_at_large_p(p):
    # Divided by the largest delay, whose own power is then 1.  A power of
    # two as divisor leaves it in [1, 2) or [0.5, 1), and its p-th power
    # can leave the float range: 1.5**2000 overflows, 0.5**1100 underflows.
    spec = lp_norm(p)
    assert f_vector(spec, [1.5, 0.3]) == 1.5
    assert f_vector(spec, [0.5, 0.25]) == 0.5
    assert f_vector(spec, [0.0, 0.0]) == 0.0
    arrivals = (0.0, 0.25, 1.0, 1.1)
    schedule = simulate(Instance(arrivals, spec), GreedyBatchOblivious(spec))
    assert schedule.ack_times == (1.0, 3.1)


@pytest.mark.parametrize("spec", VECTOR_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
def test_f_rows_is_f_vector_row_by_row(spec):
    # Rows of mixed scales take both lp paths in one call, and a transposed
    # (column-major) matrix costs the same as its copy.
    rng = np.random.default_rng(4)
    for n in (1, 5, 13, 22):
        D = rng.uniform(0.0, 1.0, (40, n)) * 10.0 ** rng.choice([-200, 0, 200], (40, 1))
        D[rng.random(D.shape) < 0.2] = 0.0
        D[0] = 0.0
        want = [f_vector(spec, row) for row in D]
        assert f_rows(spec, D).tolist() == want
        assert f_rows(spec, np.asfortranarray(D)).tolist() == want


def test_f_rows_rejects_batch_models_and_negative_delays():
    with pytest.raises(ValueError):
        f_rows(linear_sum(), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        f_rows(sum_vector(), np.array([[1.0, -0.5]]))
