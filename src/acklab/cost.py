"""Delay-cost model catalog.

Two families of models are supported:

* batch models, evaluated per acknowledged batch via :func:`bdelay`
  (``linear_sum``, ``max_wait``, ``max_wait_pow``, ``capped_linear``,
  ``permit_plf``), aggregated as a sum or a max across batches.  Each depends
  on its batch only through the batch's size, arrival sum and first arrival,
  and :func:`batch_cost` is the one evaluator of all five: it takes those
  numbers as floats, for the online policies, or as NumPy arrays, for the
  offline kernels' blocks.  :func:`bdelay` feeds it times relative to the
  batch's first arrival, so costs keep their digits at any time offset;
* vector models, evaluated once over the per-packet delay vector via
  :func:`f_vector` (``lp``, ``top_k``, ``ordered``, ``concave_two_piece``,
  ``sum_vector``).

Online, every model is kept as a running aggregate (:func:`aggregate`): a
batch model's pending batch as its size and arrival offsets, with the
model's closed-form inverse as its crossing, and a vector model's growing
delay vector as what its kind needs of it.  :func:`threshold_time` turns
any aggregate's crossing into the exact float time its cost reaches a
target.

The module also provides the piecewise-linear permit cost curve
:func:`plf_eval` and randomized property testers for monotonicity and the
lattice (continuous-submodularity) inequality.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .tolerance import tol_at


class Objective(str, Enum):
    """How per-batch or per-packet delay costs aggregate into the objective."""

    SUM_BATCH = "sum"
    MAX_BATCH = "max"
    VECTOR = "vector"


BATCH_KINDS = ("linear_sum", "max_wait", "max_wait_pow", "capped_linear", "permit_plf")
VECTOR_KINDS = ("lp", "top_k", "ordered", "concave_two_piece", "sum_vector")

_DEFAULT_OBJECTIVE = {
    "linear_sum": Objective.SUM_BATCH,
    "max_wait": Objective.MAX_BATCH,
    "max_wait_pow": Objective.MAX_BATCH,
    "capped_linear": Objective.SUM_BATCH,
    "permit_plf": Objective.SUM_BATCH,
}

DEFAULT_PERMIT_CLASSES = 32


def check_real(value, what: str, allow_inf: bool = False) -> float:
    """Return ``value`` if it is a real number (not a bool), finite unless
    ``allow_inf`` permits +inf; raise ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if math.isnan(value) or value == -math.inf or (value == math.inf and not allow_inf):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class DelayModelSpec:
    """Immutable description of a delay-cost model.

    Only the fields relevant to ``kind`` are set; the rest stay ``None``.
    """

    kind: str
    objective: Objective
    p: float | None = None                      # exponent: max_wait_pow, lp
    tau: float | None = None                    # cap: capped_linear
    num_classes: int | None = None              # permit classes: permit_plf
    k: int | None = None                        # top_k
    weights: tuple[float, ...] | None = None    # ordered norm (non-increasing)
    prefix_len: int | None = None               # concave_two_piece split point
    eps: float | None = None                    # concave_two_piece small slope
    dim: int | None = None                      # concave_two_piece nominal size

    def __post_init__(self) -> None:
        if self.kind in BATCH_KINDS:
            if self.objective not in (Objective.SUM_BATCH, Objective.MAX_BATCH):
                raise ValueError(f"batch model {self.kind!r} needs a sum or max objective")
        elif self.kind in VECTOR_KINDS:
            if self.objective is not Objective.VECTOR:
                raise ValueError(f"vector model {self.kind!r} needs the vector objective")
        else:
            raise ValueError(f"unknown delay model kind {self.kind!r}")

        if self.kind == "max_wait_pow":
            p = check_real(self.p, "max_wait_pow exponent p")
            if p < 1 or int(p) != p:
                raise ValueError("max_wait_pow needs an integer exponent p >= 1")
        if self.kind == "capped_linear":
            if not check_real(self.tau, "capped_linear cap tau") > 0:
                raise ValueError("capped_linear needs a cap tau > 0")
        if self.kind == "permit_plf":
            if self._integer("num_classes", "permit_plf class count K") < 1:
                raise ValueError("permit_plf needs num_classes >= 1")
        if self.kind == "lp":
            if check_real(self.p, "lp exponent p", allow_inf=True) < 1:
                raise ValueError("lp norm needs p >= 1 (math.inf allowed)")
        if self.kind == "top_k":
            if self._integer("k", "top_k size k") < 1:
                raise ValueError("top_k needs k >= 1")
        if self.kind == "ordered":
            w = self.weights
            if not w or any(check_real(x, "ordered norm weight") < 0 for x in w):
                raise ValueError("ordered norm needs non-negative weights")
            if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
                raise ValueError("ordered norm weights must be non-increasing")
        if self.kind == "concave_two_piece":
            if self._integer("prefix_len", "concave_two_piece ell") < 1:
                raise ValueError("concave_two_piece needs prefix_len >= 1")
            if check_real(self.eps, "concave_two_piece eps") < 0:
                raise ValueError("concave_two_piece needs eps >= 0")
            if self._integer("dim", "concave_two_piece n") < self.prefix_len:
                raise ValueError("concave_two_piece needs dim >= prefix_len")

    def _integer(self, field_name: str, what: str) -> int:
        """Check that a count field holds a whole number and store it as ``int``."""
        value = check_real(getattr(self, field_name), what)
        if int(value) != value:
            raise ValueError(f"{what} must be a whole number, got {value!r}")
        object.__setattr__(self, field_name, int(value))
        return int(value)

    @property
    def is_batch_kind(self) -> bool:
        return self.kind in BATCH_KINDS


def linear_sum(objective: Objective = Objective.SUM_BATCH) -> DelayModelSpec:
    """Total waiting time of the batch."""
    return DelayModelSpec("linear_sum", objective)


def max_wait(objective: Objective = Objective.MAX_BATCH) -> DelayModelSpec:
    """Largest waiting time in the batch."""
    return DelayModelSpec("max_wait", objective)


def max_wait_pow(p: int, objective: Objective = Objective.MAX_BATCH) -> DelayModelSpec:
    """Largest waiting time in the batch, raised to an integer power."""
    return DelayModelSpec("max_wait_pow", objective, p=p)


def capped_linear(tau: float, objective: Objective = Objective.SUM_BATCH) -> DelayModelSpec:
    """Total waiting time, saturated at ``tau``."""
    return DelayModelSpec("capped_linear", objective, tau=tau)


def permit_plf(
    num_classes: int = DEFAULT_PERMIT_CLASSES,
    objective: Objective = Objective.SUM_BATCH,
) -> DelayModelSpec:
    """Batch cost driven by the permit price curve over the batch's age span.

    ``num_classes`` bounds the permit classes the curve minimizes over; the
    default covers spans up to ``4**32``.
    """
    return DelayModelSpec("permit_plf", objective, num_classes=num_classes)


def lp_norm(p: float) -> DelayModelSpec:
    """lp norm of the delay vector (``math.inf`` gives the max entry)."""
    return DelayModelSpec("lp", Objective.VECTOR, p=p)


def top_k(k: int) -> DelayModelSpec:
    """Sum of the k largest delays."""
    return DelayModelSpec("top_k", Objective.VECTOR, k=k)


def ordered_norm(weights: Sequence[float]) -> DelayModelSpec:
    """Weighted sum of sorted delays, weights non-increasing."""
    return DelayModelSpec("ordered", Objective.VECTOR, weights=tuple(float(w) for w in weights))


def concave_two_piece(prefix_len: int, eps: float, dim: int) -> DelayModelSpec:
    """Minimum of two linear functionals split at ``prefix_len`` coordinates."""
    return DelayModelSpec(
        "concave_two_piece", Objective.VECTOR, prefix_len=prefix_len, eps=eps, dim=dim
    )


def sum_vector() -> DelayModelSpec:
    """Plain sum of the delay vector (the linear model, vector form)."""
    return DelayModelSpec("sum_vector", Objective.VECTOR)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def model_to_json(spec: DelayModelSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.kind in ("max_wait_pow", "lp"):
        out["p"] = spec.p if spec.p != math.inf else "inf"
    if spec.kind == "capped_linear":
        out["tau"] = spec.tau
    if spec.kind == "permit_plf":
        out["K"] = spec.num_classes
    if spec.kind == "top_k":
        out["k"] = spec.k
    if spec.kind == "ordered":
        out["w"] = list(spec.weights or ())
    if spec.kind == "concave_two_piece":
        out["ell"] = spec.prefix_len
        out["eps"] = spec.eps
        out["n"] = spec.dim
    if spec.kind in BATCH_KINDS and spec.objective is not _DEFAULT_OBJECTIVE[spec.kind]:
        out["objective"] = spec.objective.value
    return out


def model_from_json(obj: dict) -> DelayModelSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("model spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind in BATCH_KINDS:
        objective = Objective(obj.get("objective", _DEFAULT_OBJECTIVE[kind].value))
    elif kind in VECTOR_KINDS:
        objective = Objective(obj.get("objective", Objective.VECTOR.value))
    else:
        raise ValueError(f"unknown delay model kind {kind!r}")
    p = obj.get("p")
    if p == "inf":
        p = math.inf
    weights = obj.get("w")
    if "w" in obj and not isinstance(weights, list):
        raise ValueError(f"ordered norm weights w must be a list, got {weights!r}")
    return DelayModelSpec(
        kind,
        objective,
        p=p,
        tau=obj.get("tau"),
        num_classes=obj.get("K", DEFAULT_PERMIT_CLASSES if kind == "permit_plf" else None),
        k=obj.get("k"),
        weights=tuple(weights) if "w" in obj else None,
        prefix_len=obj.get("ell"),
        eps=obj.get("eps"),
        dim=obj.get("n"),
    )


# ---------------------------------------------------------------------------
# Permit price curve and batch costs, for floats or NumPy arrays
# ---------------------------------------------------------------------------

def plf_probe(x, num_classes: int | None = DEFAULT_PERMIT_CLASSES):
    """The two permit classes that can attain the price curve at span ``x``.

    Class k costs ``2**k + x * 2**-k``, which is convex in k and minimal at
    ``k = log4(x)``: class k wins for spans in ``[4**k / 2, 2 * 4**k]``.  So
    the minimum over ``0 <= k <= num_classes`` is attained at ``base`` or
    ``base + 1`` with ``base = floor(log4(max(x, 1)))`` clipped to
    ``num_classes - 1``.  Returns ``(base, cost of base, cost of base + 1)``;
    ``x`` may be a float or an array.
    """
    if isinstance(x, np.ndarray):
        base = np.floor(0.5 * np.log2(np.maximum(x, 1.0)))
        if num_classes is not None:
            base = np.minimum(base, num_classes - 1.0)
        w = np.exp2(base)
    else:
        base = math.floor(0.5 * math.log2(max(x, 1.0)))
        if num_classes is not None:
            base = min(base, num_classes - 1)
        w = 2.0 ** base
    ratio = x / w
    return base, w + ratio, 2.0 * w + 0.5 * ratio


def plf_eval(x, num_classes: int | None = DEFAULT_PERMIT_CLASSES):
    """Cheapest cost of covering a span of ``x`` with one permit class.

    Evaluates ``min_k 2**k + x * 2**-k`` over ``0 <= k <= num_classes``
    (all ``k >= 0`` when ``num_classes`` is None) for a float or,
    elementwise, an array of spans, probing only the two classes of
    :func:`plf_probe`.
    """
    if isinstance(x, np.ndarray):
        if x.size and float(x.min()) < 0.0:
            raise ValueError("span must be non-negative")
        _, low, high = plf_probe(x, num_classes)
        return np.minimum(low, high)
    if x < 0:
        raise ValueError("span must be non-negative")
    _, low, high = plf_probe(x, num_classes)
    return min(low, high)


def batch_cost(spec: DelayModelSpec, m, total, first, t):
    """Delay cost of acknowledging, at ``t``, a batch of ``m >= 1`` packets
    whose arrival times sum to ``total`` and start at ``first``.

    Every batch kind depends on its batch only through these three numbers,
    so this is the one place the batch formulas are written: online policies
    keep the numbers up to date instead of the batch itself, and the offline
    kernels pass arrays of them, one entry per block.  Any of the four
    arguments may be a NumPy array (they broadcast); floats are evaluated
    with builtins, which is much faster than NumPy on single numbers.
    """
    if (
        isinstance(m, np.ndarray)
        or isinstance(t, np.ndarray)
        or isinstance(first, np.ndarray)
        or isinstance(total, np.ndarray)
    ):
        maximum, minimum = np.maximum, np.minimum
    else:
        maximum, minimum = max, min
    kind = spec.kind
    if kind == "linear_sum":
        return maximum(0.0, m * t - total)
    if kind == "capped_linear":
        return minimum(maximum(0.0, m * t - total), spec.tau)
    if kind == "max_wait":
        return maximum(0.0, t - first)
    if kind == "max_wait_pow":
        return maximum(0.0, t - first) ** spec.p
    if kind == "permit_plf":
        return plf_eval(maximum(0.0, t - first), spec.num_classes) - 1.0
    raise ValueError(f"{kind!r} is a vector model; use f_vector")


def bdelay(spec: DelayModelSpec, batch_arrivals: Sequence[float], t: float) -> float:
    """Delay cost of acknowledging the given batch at time ``t``.

    Empty batches cost 0; ``t`` must not precede any arrival in the batch.
    Times are taken relative to the batch's first arrival, so the cost keeps
    its digits however far from zero the batch lies.
    """
    if not spec.is_batch_kind:
        raise ValueError(f"{spec.kind!r} is a vector model; use f_vector")
    if len(batch_arrivals) == 0:
        return 0.0
    last = max(batch_arrivals)
    if t < last - tol_at(last):
        raise ValueError(f"ack time {t!r} precedes an arrival in the batch")
    first = min(batch_arrivals)
    total = math.fsum(a - first for a in batch_arrivals)
    return batch_cost(spec, len(batch_arrivals), total, 0.0, t - first)


# ---------------------------------------------------------------------------
# Vector evaluators
# ---------------------------------------------------------------------------

def f_vector(spec: DelayModelSpec, delays: Sequence[float]) -> float:
    """Delay cost of the full per-packet delay vector."""
    if spec.is_batch_kind:
        raise ValueError(f"{spec.kind!r} is a batch model; use bdelay")
    d = np.asarray(delays, dtype=float)
    if d.size and float(d.min()) < 0.0:
        raise ValueError("delay vector entries must be non-negative")
    kind = spec.kind
    if kind == "sum_vector":
        return float(d.sum())
    if kind == "lp":
        if d.size == 0:
            return 0.0
        if spec.p == math.inf:
            return float(d.max())
        if spec.p == 1:
            return float(d.sum())
        # Brute force calls this once per partition, so the reductions skip
        # the Python wrappers of ndarray.max and ndarray.sum (same results).
        top = float(np.maximum.reduce(d))
        if top == 0.0:
            return 0.0
        # The largest p-th power within 2**+-1000 keeps the sum of the powers
        # inside the float range and the digits of every power that matters.
        if abs(spec.p * math.log2(top)) < 1000.0 - math.log2(d.size):
            return float(np.add.reduce(d ** spec.p) ** (1.0 / spec.p))
        # Otherwise divide by the largest delay first, so no power overflows.
        return top * float(np.add.reduce((d / top) ** spec.p)) ** (1.0 / spec.p)
    if kind == "top_k":
        if d.size == 0:
            return 0.0
        top = np.sort(d)[::-1][: spec.k]
        return float(top.sum())
    if kind == "ordered":
        if d.size == 0:
            return 0.0
        w = np.asarray(spec.weights, dtype=float)
        m = min(w.size, d.size)
        s = np.sort(d)[::-1][:m]
        return float(np.dot(w[:m], s))
    if kind == "concave_two_piece":
        ell = spec.prefix_len
        head = float(d[:ell].sum())
        tail = float(d[ell:].sum())
        return min(spec.eps * head + tail, (spec.dim / ell) * head + spec.eps * tail)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Running aggregates: the cost of the pending batch or of a growing delay
# vector, without the batch or the vector
# ---------------------------------------------------------------------------
#
# An online policy's cost has two parts: frozen delays of served packets
# (only ``vector_greedy`` keeps them) and the delays ``s - x`` of the pending
# packets, where ``x`` is an arrival and ``s`` the time, both measured from
# the first pending arrival (so shifted inputs keep their digits).  Each
# aggregate keeps what its model needs of both parts and implements:
#
# * ``add(x)`` — a packet arrives at offset ``x``;
# * ``cost(s)`` — the cost at offset ``s``: :func:`batch_cost` of the
#   pending batch, or :func:`f_vector` of the whole delay vector;
# * ``crossing(goal)`` — an offset at which the cost reaches ``goal``,
#   exact up to rounding, or None when it never does;
# * ``freeze(s)`` (vector models) — serve the pending packets at ``s``,
#   keep their delays, and return the cost of the frozen part alone;
# * ``clear()`` — drop the pending packets without keeping their delays;
# * ``cap`` (batch models) — the least upper bound of the cost: the capped
#   model's ``tau``, inf for the others and for every vector model.


def _affine_crossing(slope: float, value0: float, goal: float) -> float:
    """Where ``value0 + slope * s`` reaches ``goal`` (±inf when flat)."""
    if slope > 0.0:
        return (goal - value0) / slope
    return -math.inf if value0 >= goal else math.inf


def _newton_down(value_slope, s: float, lo: float) -> float:
    """Newton's method from ``s``, at or right of the root of a convex,
    increasing function, never going below ``lo``.  Each step lands on the
    root of a tangent, which lies below the function, so the iterates fall
    monotonically towards the root; on a piecewise-linear function each step
    enters a new piece and the last one is exact."""
    while True:
        v, d = value_slope(s)
        if v <= 0.0 or d <= 0.0:
            return s
        nxt = max(lo, s - v / d)
        if nxt >= s:
            return s
        s = nxt


class _BatchAggregate:
    """A batch model's pending batch: its size and the sum of its arrival
    offsets, the first arrival being at offset 0, which is all
    :func:`batch_cost` needs.  The crossing is the model's closed-form
    inverse; a goal more than a tolerance above ``cap`` is unreachable."""

    def __init__(self, spec: DelayModelSpec):
        self.spec = spec
        self.cap = spec.tau if spec.kind == "capped_linear" else math.inf
        self.clear()

    def add(self, x: float) -> None:
        self.m += 1
        self.total += x

    def cost(self, s: float) -> float:
        return batch_cost(self.spec, self.m, self.total, 0.0, s)

    def crossing(self, goal: float) -> float | None:
        if self.cap < goal:
            if self.cap < goal - tol_at(goal):
                return None
            goal = self.cap
        kind = self.spec.kind
        if kind in ("linear_sum", "capped_linear"):
            return (goal + self.total) / self.m
        if kind == "max_wait":
            return goal
        if kind == "max_wait_pow":
            return goal ** (1.0 / self.spec.p)
        # permit_plf: min_k 2**k + x * 2**-k >= level holds iff x >= 2**k (level - 2**k)
        # for every class k.  That bound is concave in 2**k with its peak at
        # level / 2, so the classes next to log2(level / 2) attain the maximum.
        level = goal + 1.0
        base = math.floor(math.log2(level / 2.0))
        span = 0.0
        for cand in (base - 1, base, base + 1):
            w = 2.0 ** min(max(cand, 0), self.spec.num_classes)
            span = max(span, w * (level - w))
        return span

    def clear(self) -> None:
        self.m = 0
        self.total = 0.0


class _SumAggregate:
    """``sum_vector`` and ``lp`` with p = 1: a count and an arrival sum."""

    def __init__(self, spec: DelayModelSpec):
        self.frozen = 0.0
        self.m = 0
        self.total = 0.0

    def add(self, x: float) -> None:
        self.m += 1
        self.total += x

    def cost(self, s: float) -> float:
        return self.frozen + max(0.0, self.m * s - self.total)

    def crossing(self, goal: float) -> float | None:
        return (goal - self.frozen + self.total) / self.m

    def freeze(self, s: float) -> float:
        self.frozen = self.cost(s)
        self.clear()
        return self.frozen

    def clear(self) -> None:
        self.m = 0
        self.total = 0.0


class _MaxAggregate:
    """``lp`` with p = inf: the running maximum.  The first pending packet,
    at offset 0, has the largest pending delay ``s``."""

    def __init__(self, spec: DelayModelSpec):
        self.frozen = 0.0

    def add(self, x: float) -> None:
        pass

    def cost(self, s: float) -> float:
        return max(self.frozen, s)

    def crossing(self, goal: float) -> float | None:
        return goal

    def freeze(self, s: float) -> float:
        self.frozen = self.cost(s)
        return self.frozen

    def clear(self) -> None:
        pass


class _PowerAggregate:
    """``lp`` with any other p: the norm of the frozen delays and the pending
    offsets.  Every delay is divided by the largest one in play before it
    is raised to the p-th power, so no power overflows however large p is.
    The pending sum of p-th powers is convex and increasing in ``s``, so its
    crossing comes from Newton's method started above it; each step costs
    O(pending)."""

    def __init__(self, spec: DelayModelSpec):
        self.p = float(spec.p)
        self.frozen = 0.0
        self.xs: list[float] = []

    def add(self, x: float) -> None:
        self.xs.append(x)

    def cost(self, s: float) -> float:
        # Policies evaluate the aggregate with packets pending, and the first
        # of them, at offset 0, has the largest pending delay s.
        scale = max(self.frozen, s)
        if scale <= 0.0:
            return 0.0
        p = self.p
        powers = (self.frozen / scale) ** p + sum((max(0.0, s - x) / scale) ** p for x in self.xs)
        return scale * powers ** (1.0 / p)

    def crossing(self, goal: float) -> float | None:
        # In units of goal: sum ((s - x) / goal)**p must reach need.
        p, xs = self.p, self.xs
        need = 1.0 - (self.frozen / goal) ** p
        per = goal * (need / len(xs)) ** (1.0 / p)

        def value_slope(s):
            d = [max(0.0, s - x) / goal for x in xs]
            return sum(v ** p for v in d) - need, p / goal * sum(v ** (p - 1.0) for v in d)

        # Every offset is at least 0 and at most xs[-1], so the root lies in
        # [per, xs[-1] + per] and below goal * need**(1/p).
        return _newton_down(value_slope, min(goal * need ** (1.0 / p), xs[-1] + per), per)

    def freeze(self, s: float) -> float:
        self.frozen = self.cost(s)
        self.clear()
        return self.frozen

    def clear(self) -> None:
        self.xs = []


class _TopKAggregate:
    """``top_k``: the k largest frozen delays and the first k pending
    offsets.  The j largest pending delays are those of the first j pending
    packets, so the cost is the maximum over j of ``j s - X_j + H_{k-j}``
    (X: pending prefix sums, H: sums of the largest frozen delays) and its
    crossing the minimum of the pieces' crossings."""

    def __init__(self, spec: DelayModelSpec):
        self.k = spec.k
        self.top: list[float] = []  # decreasing
        self.top_sums = [0.0]  # H_r for r = 0 .. len(top)
        self.xs: list[float] = []

    def add(self, x: float) -> None:
        if len(self.xs) < self.k:
            self.xs.append(x)

    def _pieces(self):
        """``(j, X_j, H_{k-j})`` for j = 0 .. the pending count (at most k)."""
        sums, last = self.top_sums, len(self.top_sums) - 1
        total = 0.0
        yield 0, total, sums[min(self.k, last)]
        for j, x in enumerate(self.xs, 1):
            total += x
            yield j, total, sums[min(self.k - j, last)]

    def cost(self, s: float) -> float:
        return max(j * s - total + frozen for j, total, frozen in self._pieces())

    def crossing(self, goal: float) -> float | None:
        return min((goal - frozen + total) / j for j, total, frozen in self._pieces() if j)

    def freeze(self, s: float) -> float:
        self.top = heapq.nlargest(self.k, [*self.top, *(max(0.0, s - x) for x in self.xs)])
        self.top_sums = [0.0]
        for v in self.top:
            self.top_sums.append(self.top_sums[-1] + v)
        self.clear()
        return self.top_sums[-1]

    def clear(self) -> None:
        self.xs = []


class _OrderedAggregate:
    """``ordered``: the largest frozen delays, one per weight, in decreasing
    order, and the first pending offsets, one per weight.  The cost at ``s``
    is one sorted merge of the two; it is convex and piecewise linear in
    ``s`` with the weights at the pending packets' places as its slope, so
    Newton's method from above reaches the crossing exactly, one merge per
    step."""

    def __init__(self, spec: DelayModelSpec):
        self.w = spec.weights
        self.top: list[float] = []
        self.xs: list[float] = []

    def add(self, x: float) -> None:
        if len(self.xs) < len(self.w):
            self.xs.append(x)

    def _merge(self, s: float) -> tuple[float, float]:
        """Cost at ``s`` and its slope there."""
        top, xs = self.top, self.xs
        value = slope = 0.0
        q = i = 0
        for w in self.w[: len(top) + len(xs)]:
            if i < len(xs) and (q == len(top) or s - xs[i] >= top[q]):
                value += w * max(0.0, s - xs[i])
                slope += w
                i += 1
            else:
                value += w * top[q]
                q += 1
        return value, slope

    def cost(self, s: float) -> float:
        return self._merge(s)[0]

    def crossing(self, goal: float) -> float | None:
        if self.w[0] <= 0.0:
            return None

        def value_slope(s):
            value, slope = self._merge(s)
            return value - goal, slope

        # The first pending packet's delay is s, so the cost is at least w[0] s.
        return _newton_down(value_slope, goal / self.w[0], 0.0)

    def freeze(self, s: float) -> float:
        self.top = heapq.nlargest(len(self.w), [*self.top, *(max(0.0, s - x) for x in self.xs)])
        self.clear()
        return self.cost(0.0)

    def clear(self) -> None:
        self.xs = []


class _ConcaveAggregate:
    """``concave_two_piece``: a count and an arrival sum each for the head
    (the first ``ell`` packets the aggregate holds) and the tail.  The cost
    is the minimum of two affine functions, so its crossing is the later of
    their crossings."""

    def __init__(self, spec: DelayModelSpec):
        self.ell = spec.prefix_len
        self.eps = spec.eps
        self.ratio = spec.dim / spec.prefix_len
        self.frozen_head = self.frozen_tail = 0.0
        self.held = 0  # packets held, frozen ones included
        self._drop_pending()

    def add(self, x: float) -> None:
        if self.held < self.ell:
            self.m_head += 1
            self.x_head += x
        else:
            self.m_tail += 1
            self.x_tail += x
        self.held += 1

    def _parts(self, s: float) -> tuple[float, float]:
        return (
            self.frozen_head + max(0.0, self.m_head * s - self.x_head),
            self.frozen_tail + max(0.0, self.m_tail * s - self.x_tail),
        )

    def cost(self, s: float) -> float:
        head, tail = self._parts(s)
        return min(self.eps * head + tail, self.ratio * head + self.eps * tail)

    def crossing(self, goal: float) -> float | None:
        eps, ratio = self.eps, self.ratio
        head0 = self.frozen_head - self.x_head
        tail0 = self.frozen_tail - self.x_tail
        m_head, m_tail = self.m_head, self.m_tail
        s = max(
            _affine_crossing(eps * m_head + m_tail, eps * head0 + tail0, goal),
            _affine_crossing(ratio * m_head + eps * m_tail, ratio * head0 + eps * tail0, goal),
        )
        return s if s < math.inf else None

    def freeze(self, s: float) -> float:
        self.frozen_head, self.frozen_tail = self._parts(s)
        self._drop_pending()
        return self.cost(0.0)

    def clear(self) -> None:
        self.held -= self.m_head + self.m_tail
        self._drop_pending()

    def _drop_pending(self) -> None:
        self.m_head = self.m_tail = 0
        self.x_head = self.x_tail = 0.0


_AGGREGATES = {
    **dict.fromkeys(BATCH_KINDS, _BatchAggregate),
    "sum_vector": _SumAggregate,
    "top_k": _TopKAggregate,
    "ordered": _OrderedAggregate,
    "concave_two_piece": _ConcaveAggregate,
}
_LP_AGGREGATES = {1: _SumAggregate, math.inf: _MaxAggregate}


def aggregate(spec: DelayModelSpec):
    """Empty running aggregate of a model's pending batch or delay vector."""
    if spec.kind == "lp":
        return _LP_AGGREGATES.get(spec.p, _PowerAggregate)(spec)
    return _AGGREGATES[spec.kind](spec)


def threshold_time(aggregate, origin: float, target: float, t_lo: float) -> float | None:
    """Earliest float time ``t >= t_lo`` at which an aggregate's cost
    reaches ``target``; None means the target is out of reach.

    ``origin`` is the time the aggregate's offsets are measured from.
    Returns ``t_lo`` when the cost there is already within tolerance of the
    target.  Otherwise the aggregate's crossing is moved one float at a
    time, down while the cost one float earlier still reaches the goal and
    up while the cost falls short of it, so the time is exact even where
    float spacing exceeds the tolerance.  The goal is the target, or the
    cost's cap when the target lies within tolerance above it.
    """
    cost = aggregate.cost
    if cost(t_lo - origin) >= target - tol_at(target):
        return t_lo
    s = aggregate.crossing(target)
    if s is None:
        return None
    goal = min(target, getattr(aggregate, "cap", math.inf))
    t = max(t_lo, origin + s)
    while t > t_lo and cost(math.nextafter(t, -math.inf) - origin) >= goal:
        t = math.nextafter(t, -math.inf)
    while cost(t - origin) < goal:
        t = math.nextafter(t, math.inf)
    return t


# ---------------------------------------------------------------------------
# Property testers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a randomized property check; counterexamples are data."""

    name: str
    passed: bool
    samples: int
    counterexample: dict | None = None

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f" counterexample={self.counterexample}"
        return f"{self.name}: {status} ({self.samples} samples){extra}"


def _log_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # Entries span [1e-3, 1e3] to stress tolerance behavior at both scales.
    return 10.0 ** rng.uniform(-3.0, 3.0, size)


def check_monotone(
    model: DelayModelSpec | Callable[[Sequence[float], float], float],
    samples: int = 10_000,
    seed: int = 0,
) -> PropertyReport:
    """Sample nested batches and ordered times; flag any cost decrease.

    ``model`` may be a spec or a raw ``(batch, t) -> cost`` callable (useful
    for probing deliberately broken models).
    """
    if isinstance(model, DelayModelSpec):
        fn = lambda batch, t: bdelay(model, batch, t)  # noqa: E731
        name = f"monotone:{model.kind}"
    else:
        fn = model
        name = "monotone:<callable>"
    rng = np.random.default_rng(seed)
    for i in range(samples):
        m = int(rng.integers(1, 9))
        sup = np.sort(_log_uniform(rng, m))
        keep = rng.random(m) < 0.6
        keep[int(rng.integers(m))] = True
        sub = sup[keep]
        gap = float(_log_uniform(rng, 1)[0]) if rng.random() < 0.8 else 0.0
        t_hi = float(sup[-1]) + gap
        t_lo = float(sub[-1]) + (t_hi - float(sub[-1])) * float(rng.random())
        lo = fn(tuple(sub), t_lo)
        hi = fn(tuple(sup), t_hi)
        if lo > hi + tol_at(hi):
            return PropertyReport(
                name,
                False,
                i + 1,
                {
                    "batch": [float(a) for a in sub],
                    "super_batch": [float(a) for a in sup],
                    "t": t_lo,
                    "t_super": t_hi,
                    "value": float(lo),
                    "super_value": float(hi),
                },
            )
    return PropertyReport(name, True, samples)


def check_continuous_submodular(
    model: DelayModelSpec | Callable[[Sequence[float]], float],
    dimension: int = 5,
    samples: int = 10_000,
    seed: int = 0,
) -> PropertyReport:
    """Sample vector pairs and test the lattice inequality
    ``f(x v y) + f(x ^ y) <= f(x) + f(y)``.
    """
    if isinstance(model, DelayModelSpec):
        fn = lambda v: f_vector(model, v)  # noqa: E731
        name = f"submodular:{model.kind}"
    else:
        fn = model
        name = "submodular:<callable>"
    rng = np.random.default_rng(seed)
    for i in range(samples):
        x = _log_uniform(rng, dimension)
        y = _log_uniform(rng, dimension)
        x[rng.random(dimension) < 0.15] = 0.0
        y[rng.random(dimension) < 0.15] = 0.0
        join = np.maximum(x, y)
        meet = np.minimum(x, y)
        lhs = fn(join) + fn(meet)
        rhs = fn(x) + fn(y)
        if lhs > rhs + tol_at(rhs):
            return PropertyReport(
                name,
                False,
                i + 1,
                {
                    "x": [float(v) for v in x],
                    "y": [float(v) for v in y],
                    "lhs": float(lhs),
                    "rhs": float(rhs),
                },
            )
    return PropertyReport(name, True, samples)
