"""Checks of acklab's outputs, computed apart from acklab.

Nothing here imports acklab. Every optimum and every schedule cost is
recomputed from the closed-form definition of the delay model, so a wrong
answer from the program cannot be confirmed by the program's own code.

Model objects are the JSON dictionaries the benchmark hands to the CLI:
``linear_sum``, ``capped_linear`` (``tau``), ``permit_plf`` (``K``),
``max_wait``, ``max_wait_pow`` (``p``), ``lp`` (``p``) and ``top_k`` (``k``).
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
SUM_KINDS = ("linear_sum", "capped_linear", "permit_plf")
MAX_KINDS = ("max_wait", "max_wait_pow")
VECTOR_KINDS = ("lp", "top_k")


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def expect_close(got: float, want: float, what: str, rel: float = REL) -> None:
    expect(
        abs(got - want) <= rel * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r}",
    )


def expect_ratio(ratio: float, what: str, upper: float | None = None) -> None:
    """Competitive ratios are at least 1; ``upper`` is a bound from the paper."""
    expect(ratio >= 1.0 - REL, f"{what}: ratio {ratio!r} below 1")
    if upper is not None:
        expect(ratio <= upper, f"{what}: ratio {ratio!r} above the bound {upper!r}")


# ---------------------------------------------------------------------------
# Delay models from their definitions
# ---------------------------------------------------------------------------

def plf(spans: np.ndarray, classes: int) -> np.ndarray:
    """Permit price curve ``min over 0 <= k <= classes of 2**k + x / 2**k``.

    Going from class k to k+1 pays off only when ``x > 2 * 4**k``, so classes
    above ``ceil(log4(max x)) + 1`` never attain the minimum and are skipped.
    """
    x = np.asarray(spans, dtype=float)
    top = int(math.ceil(math.log(max(float(x.max(initial=1.0)), 1.0), 4))) + 1
    w = 2.0 ** np.arange(min(classes, top) + 1, dtype=float)
    return np.min(w[:, None] + x[None, :] / w[:, None], axis=0)


def _block_costs(model: dict, a: np.ndarray, csum: np.ndarray, i: int) -> np.ndarray:
    """Cost of acking packets ``j..i`` at ``a[i]`` for every ``j <= i`` (sum models)."""
    kind = model["kind"]
    t = a[i]
    if kind in ("linear_sum", "capped_linear"):
        sizes = np.arange(i + 1, 0, -1, dtype=float)
        cost = np.maximum(sizes * t - (csum[i + 1] - csum[: i + 1]), 0.0)
        return np.minimum(cost, model["tau"]) if kind == "capped_linear" else cost
    if kind == "permit_plf":
        return plf(t - a[: i + 1], model["K"]) - 1.0
    raise ValueError(f"no block cost for {kind!r}")


def sum_optimum(arrivals, model: dict) -> float:
    """O(n^2) prefix DP: the optimal cost for a sum-aggregated batch model."""
    a = np.asarray(arrivals, dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(a)))
    best = np.zeros(a.size + 1)
    for i in range(a.size):
        best[i + 1] = float(np.min(best[: i + 1] + _block_costs(model, a, csum, i))) + 1.0
    return float(best[-1])


def _delay_cost(model: dict, d: np.ndarray) -> np.ndarray:
    """Delay cost of each row of packet delays ``d`` (rows are partitions).

    For the max models a batch's delay is its first packet's wait, which is
    the largest wait in the batch, so the max over batches is ``max(d)``.
    """
    kind = model["kind"]
    if kind == "max_wait":
        return d.max(axis=1)
    if kind == "max_wait_pow":
        return d.max(axis=1) ** model["p"]
    if kind == "lp":
        return (d ** model["p"]).sum(axis=1) ** (1.0 / model["p"])
    if kind == "top_k":
        top = min(model["k"], d.shape[1])
        return np.sort(d, axis=1)[:, d.shape[1] - top :].sum(axis=1)
    raise ValueError(f"no enumeration for {kind!r}")


def enumerated_optimum(arrivals, model: dict) -> float:
    """Minimum over all 2^(n-1) contiguous partitions, vectorised over cut masks.

    Each batch is acked at its last arrival. A cut between two equal arrival
    times is not a schedule (the later packet joins the earlier ack), so
    those masks are dropped.
    """
    a = np.asarray(arrivals, dtype=float)
    n = a.size
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    is_end = np.ones((masks.size, n), dtype=bool)
    is_end[:, :-1] = (masks[:, None] >> np.arange(n - 1)) & 1 == 1
    legal = ~np.any(is_end[:, :-1] & (a[:-1] == a[1:]), axis=1)
    end = np.empty((masks.size, n), dtype=np.int64)
    end[:, -1] = n - 1
    for j in range(n - 2, -1, -1):
        end[:, j] = np.where(is_end[:, j], j, end[:, j + 1])
    cost = is_end.sum(axis=1) + _delay_cost(model, a[end] - a[None, :])
    return float(np.min(cost[legal]))


def schedule_cost(arrivals, model: dict, ack_times) -> tuple[int, float]:
    """Ack count and delay cost of a schedule, from its ack times alone.

    Rejects a schedule that is not strictly increasing, leaves a packet
    unacknowledged, or has an ack that serves no packet. A packet arriving
    exactly at an ack time is served by that ack.
    """
    a = np.asarray(arrivals, dtype=float)
    t = np.asarray(ack_times, dtype=float)
    expect(t.size >= 1, "schedule has no ack")
    expect(bool(np.all(np.diff(t) > 0)), "ack times not strictly increasing")
    expect(t[-1] >= a[-1], f"packet at {a[-1]!r} is never acknowledged")
    stops = np.searchsorted(a, t, side="right")
    starts = np.concatenate(([0], stops[:-1]))
    expect(bool(np.all(stops > starts)), "an ack serves no packet")
    kind = model["kind"]
    if kind in VECTOR_KINDS:
        batch = np.repeat(np.arange(t.size), stops - starts)
        delays = (t[batch] - a)[None, :]
        return t.size, float(_delay_cost(model, delays)[0])
    first = a[starts]
    if kind in ("linear_sum", "capped_linear"):
        csum = np.concatenate(([0.0], np.cumsum(a)))
        per = np.maximum((stops - starts) * t - (csum[stops] - csum[starts]), 0.0)
        if kind == "capped_linear":
            per = np.minimum(per, model["tau"])
    elif kind == "permit_plf":
        per = plf(t - first, model["K"]) - 1.0
    elif kind == "max_wait":
        per = t - first
    elif kind == "max_wait_pow":
        per = (t - first) ** model["p"]
    else:
        raise ValueError(f"no schedule cost for {kind!r}")
    return t.size, float(per.max() if kind in MAX_KINDS else per.sum())


def uniform_arrivals(n: int, seed: int, rate: float = 1.0) -> np.ndarray:
    """The arrivals ``ack bench`` draws for a uniform generator and a seed:
    cumulative sums of exponential gaps from NumPy's default generator."""
    return np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, n))


def concave_closed_form(n: int, branch: int) -> float:
    """Cost of the concave adversary's comparison schedule.

    With ``ell = ceil(sqrt(n))`` and ``eps = 1/n^2``: branch 1 acks once at
    ``ell + 1`` and pays ``1 + eps * ell(ell+1)/2``; branch 2 acks each of the
    first ``ell`` packets on arrival and the rest at ``n``, paying
    ``ell + 1 + eps * (n-ell)(n-ell-1)/2``.
    """
    ell = math.isqrt(n - 1) + 1
    eps = 1.0 / n ** 2
    if branch == 1:
        return 1.0 + eps * ell * (ell + 1) / 2.0
    expect(branch == 2, f"unknown branch {branch!r}")
    tail = n - ell
    return ell + 1.0 + eps * tail * (tail - 1) / 2.0


def ratio_bound(alg: dict, kind: str, n: int) -> float | None:
    """Upper bound on the competitive ratio proven in the paper, if any."""
    name = alg["alg"]
    two = 2.0 + 1e-6
    if name == "greedy_tau" and alg.get("tau", 1.0) == 1.0 and kind == "linear_sum":
        return two
    if name == "max_mono" and kind in MAX_KINDS:
        return two
    if name == "vector_greedy" and kind in VECTOR_KINDS:
        return two
    if name == "phases" and kind in SUM_KINDS:
        return 14.0 * math.log2(n) + 1e-9
    return None
