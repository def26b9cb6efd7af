"""Delay-cost model catalog.

Two families of models are supported:

* batch models, evaluated per acknowledged batch via :func:`bdelay`
  (``linear_sum``, ``max_wait``, ``max_wait_pow``, ``capped_linear``,
  ``permit_plf``), aggregated as a sum or a max across batches.  Each depends
  on its batch only through the batch's size, arrival sum and first arrival,
  and each kind's formula of those numbers is written once
  (``_BATCH_COSTS``).  :func:`cost_kernel` binds it once per model, for
  Python floats (the online aggregates and the prefix DP's steps) or NumPy
  arrays (the prefix DP's block columns and rows).  :func:`bdelay`
  feeds the float kernel times relative to the batch's first arrival, so
  costs keep their digits at any time offset, and :func:`bdelay_kernel`
  binds it once for callers that price many batches;
* vector models, evaluated once over the per-packet delay vector via
  :func:`f_vector` (``lp``, ``top_k``, ``ordered``, ``concave_two_piece``,
  ``sum_vector``).  It is the one-row case of :func:`f_rows`, which costs
  every row of a matrix of delay vectors at once, as brute force and the
  submodularity tester need.  ``top_k`` and ``lp`` with p = inf are ordered
  norms (:func:`order_weights`) and share the ``ordered`` evaluator, and
  ``lp`` with p = 1 shares ``sum_vector``'s.  Online, both also share the
  ``ordered`` aggregate, ``top_k`` with its own cost formula, whose affine
  pieces land nearer the exact crossing than the sorted merge does.

Online, every model is kept as a running aggregate (:func:`aggregate`): a
batch model's pending batch as its size and arrival offsets, with the
model's closed-form inverse as its crossing, and a vector model's growing
delay vector as what its kind needs of it (``sum_vector``, ``lp`` with
p = 1 and each half of ``concave_two_piece``: the ``linear_sum`` batch
aggregate with a frozen part).  The convex ones, ``lp`` with p > 1 and
the ordered norms, share one crossing: Newton's method from above on the
aggregate's own cost.  :func:`threshold_time` walks from any aggregate's
crossing to the first float time at which its cost reaches a target, so
the crossing only seeds the walk; it alone finds a target out of reach.

The module also provides the JSON wire format (:func:`model_to_json`,
:func:`dump_json`), the piecewise-linear permit cost curve :func:`plf_eval`
(1 plus the batch delay :func:`plf_delay`) with its class round-up
:func:`plf_round_up`, and randomized property testers for monotonicity and
the lattice (continuous-submodularity) inequality.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import numbers
import struct
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .tolerance import tol_at


class Objective(str, Enum):
    """How per-batch or per-packet delay costs aggregate into the objective."""

    SUM_BATCH = "sum"
    MAX_BATCH = "max"
    VECTOR = "vector"


# The model catalogue: each kind's default objective (a vector kind's only
# one) and the parameters it takes, as (DelayModelSpec field, JSON key)
# pairs.  A kind leaves every other field None, and its JSON takes no other
# key but "kind" and "objective".
_KINDS: dict[str, tuple[Objective, tuple[tuple[str, str], ...]]] = {
    "linear_sum": (Objective.SUM_BATCH, ()),
    "max_wait": (Objective.MAX_BATCH, ()),
    "max_wait_pow": (Objective.MAX_BATCH, (("p", "p"),)),
    "capped_linear": (Objective.SUM_BATCH, (("tau", "tau"),)),
    "permit_plf": (Objective.SUM_BATCH, (("num_classes", "K"),)),
    "lp": (Objective.VECTOR, (("p", "p"),)),
    "top_k": (Objective.VECTOR, (("k", "k"),)),
    "ordered": (Objective.VECTOR, (("weights", "w"),)),
    "concave_two_piece": (Objective.VECTOR, (("prefix_len", "ell"), ("eps", "eps"), ("dim", "n"))),
    "sum_vector": (Objective.VECTOR, ()),
}
VECTOR_KINDS = tuple(kind for kind, (default, _) in _KINDS.items() if default is Objective.VECTOR)
BATCH_KINDS = tuple(kind for kind in _KINDS if kind not in VECTOR_KINDS)
# The batch kinds whose wait is the batch's summed wait m t - sum(a), not
# its span t - a_first.
SUM_WAIT_KINDS = ("linear_sum", "capped_linear")

DEFAULT_PERMIT_CLASSES = 32


def _catalogue_row(kind) -> tuple[Objective, tuple[tuple[str, str], ...]]:
    """The ``_KINDS`` row of ``kind``; any other value, an unhashable one
    included, is an unknown kind."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown delay model kind {kind!r}") from None


def check_real(value, what: str, allow_inf: bool = False) -> float:
    """Return ``value`` if it is a real number (not a bool) that converts to
    a float, finite unless ``allow_inf`` permits +inf; raise ValueError
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{what} must be finite, got a number past the float range") from None
    if math.isnan(x) or x == -math.inf or (x == math.inf and not allow_inf):
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
        default, params = _catalogue_row(self.kind)
        # Objective() raises ValueError for any other value, unhashable too.
        object.__setattr__(self, "objective", Objective(self.objective))
        if default is Objective.VECTOR:
            if self.objective is not Objective.VECTOR:
                raise ValueError(f"vector model {self.kind!r} needs the vector objective")
        elif self.objective not in (Objective.SUM_BATCH, Objective.MAX_BATCH):
            raise ValueError(f"batch model {self.kind!r} needs a sum or max objective")
        taken = {"kind", "objective", *(name for name, _ in params)}
        for f in fields(self):
            if f.name not in taken and getattr(self, f.name) is not None:
                raise ValueError(f"delay model {self.kind!r} takes no {f.name}")

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

def _inf_as_string(obj):
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    if isinstance(obj, dict):
        return {key: _inf_as_string(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_as_string(value) for value in obj]
    return obj


def _strict_encode() -> Callable[[object], str]:
    """The strict encoder of every call with no options, trace lines
    included, built once.  ``JSONEncoder.encode`` builds a new C encoder on
    each call, a third of a trace line's cost; this binds one with the same
    settings, less the circular-reference check, which no output here
    needs.  Without the C encoder, it is ``JSONEncoder.encode``."""
    encoder = json.JSONEncoder(allow_nan=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    chunks = make(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )
    return lambda obj: "".join(chunks(obj, 0))


_ENCODE = _strict_encode()


def dump_json(obj, **kwargs) -> str:
    """Strict JSON text of ``obj``: +inf is written as the string ``"inf"``,
    as ``lp`` writes its p, and any other non-finite float raises
    ValueError.  ``kwargs`` go to :class:`json.JSONEncoder`."""
    encode = json.JSONEncoder(allow_nan=False, **kwargs).encode if kwargs else _ENCODE
    try:
        return encode(obj)
    except ValueError:
        return encode(_inf_as_string(obj))


def model_to_json(spec: DelayModelSpec) -> dict:
    out: dict = {"kind": spec.kind}
    default, params = _KINDS[spec.kind]
    for name, key in params:
        value = getattr(spec, name)
        if name == "weights":
            value = list(value)
        out[key] = "inf" if value == math.inf else value
    if spec.objective is not default:
        out["objective"] = spec.objective.value
    return out


def model_from_json(obj: dict) -> DelayModelSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("model spec must be an object with a 'kind' field")
    kind = obj["kind"]
    default, params = _catalogue_row(kind)
    objective = Objective(obj.get("objective", default))
    unknown = set(obj) - {"kind", "objective", *(key for _, key in params)}
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ValueError(f"delay model {kind!r} takes no key {names}")
    values = {name: obj.get(key) for name, key in params}
    if kind == "permit_plf":
        values["num_classes"] = obj.get("K", DEFAULT_PERMIT_CLASSES)
    if values.get("p") == "inf":
        values["p"] = math.inf
    if "w" in obj:
        if not isinstance(obj["w"], list):
            raise ValueError(f"ordered norm weights w must be a list, got {obj['w']!r}")
        values["weights"] = tuple(obj["w"])
    return DelayModelSpec(kind, objective, **values)


# ---------------------------------------------------------------------------
# Permit price curve and batch costs, for floats or NumPy arrays
# ---------------------------------------------------------------------------

def plf_delay(x, num_classes: int | None = DEFAULT_PERMIT_CLASSES):
    """The permit price curve less 1: the delay cost of a ``permit_plf``
    batch whose packets span ``x``.

    Evaluates ``min_k (2**k - 1) + x * 2**-k`` over ``0 <= k <= num_classes``
    (all ``k >= 0`` when ``num_classes`` is None) for a float or,
    elementwise, an array of spans.  ``2**k - 1`` and ``x * 2**-k`` are
    exact, so each class's value is rounded once and a lone packet's delay
    reaches 1 at a span of exactly 1.  Class k's cost is convex in k and
    minimal at ``k = log4(x)``: class k wins for spans in
    ``[4**k / 2, 2 * 4**k]``.  So only two classes are probed, by
    :func:`_float_permit` and :func:`_array_permit`.  With
    ``num_classes = 0``, class 0 alone, the delay is the span, as under
    ``max_wait``.  A negative, NaN or fractional class count raises
    ValueError, and so does a negative span (a NaN one, too, for a float).
    """
    if num_classes is not None and not (num_classes >= 0 and num_classes % 1 == 0):
        raise ValueError(f"permit class count must be a whole number >= 0, got {num_classes!r}")
    if isinstance(x, np.ndarray):
        if x.size and float(x.min()) < 0.0:
            raise ValueError("span must be non-negative")
        price = _array_permit
    else:
        if not x >= 0:
            raise ValueError(f"span must be non-negative, got {x!r}")
        price = _float_permit
    if num_classes == 0:
        return x + 0.0
    return price(x, math.inf if num_classes is None else num_classes - 1)


def plf_eval(x, num_classes: int | None = DEFAULT_PERMIT_CLASSES):
    """Cheapest cost of covering a span of ``x`` with one permit class: 1 + :func:`plf_delay`."""
    return plf_delay(x, num_classes) + 1.0


def plf_round_up(x: float) -> int:
    """Smallest permit class whose duration covers a span of ``x``: the
    smallest ``k >= 0`` with ``4**k >= x``.

    That is also the smallest useful class: the class attaining the price
    curve covers ``x`` only when ``x`` lies in ``[4**a / 2, 4**a]``, and
    there class ``a - 1`` does not cover ``x``.  With ``e`` the binary
    exponent of ``x`` (``2**(e-1) <= x < 2**e``: ``math.frexp`` for a float,
    ``int.bit_length`` for an int, since a float cannot hold ``10**400``),
    the class is ``e // 2``, or ``e // 2 + 1`` when ``4**(e // 2) < x``.
    ``4**k`` is compared with ``x`` exactly, so integer spans past 2**53
    round up correctly.  The result also satisfies ``2**k <= 2 *
    plf_eval(x)`` (classes unbounded).  A NaN or infinite span has no such
    class and raises ValueError, as a negative one does.
    """
    if not isinstance(x, int) and not math.isfinite(x):
        raise ValueError(f"span must be finite, got {x!r}")
    if x < 0:
        raise ValueError("span must be non-negative")
    k = max(0, (x.bit_length() if isinstance(x, int) else math.frexp(x)[1]) // 2)
    if 4 ** k < x:
        k += 1
    # The price curve is at least 1 and, by AM-GM, at least 2 sqrt(x), so
    # 4**k <= max(1, 16 x) gives 2**k <= 2 * plf_eval(x).  Compared exactly,
    # so integer spans past the float range are checked too.
    if not 4 ** k <= max(1, 16 * x):
        raise AssertionError(f"round-up postcondition failed for x={x!r}: k*={k}")
    return k


class CostOps(NamedTuple):
    """The operations a batch formula takes beyond arithmetic, for floats
    or for arrays."""

    maximum: Callable
    minimum: Callable
    power: Callable
    wait: Callable  # wait(m, total, t): the sum-wait kinds' wait, clamped at 0
    permit: Callable  # permit(x, top): plf_delay of spans x over classes 0..top + 1


def _float_power(x: float, p) -> float:
    # A power past the float range saturates at +inf: the cost is monotone,
    # so such a batch is never cheaper than any finite one.
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _array_power(x: np.ndarray, p) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x ** p


def _float_wait(m: int, total: float, t: float) -> float:
    # m t - total, clamped at 0 as max(0.0, ...) clamps (NaN too).  Where
    # m t overflows, the same two roundings are taken a power of two lower,
    # which moves no bit, so the wait is finite wherever its value is and
    # stays monotone in t.
    wait = m * t - total
    if wait == math.inf:
        scale = 2.0 ** math.frexp(m)[1]
        wait = (m * (t / scale) - total / scale) * scale
    return wait if wait > 0.0 else 0.0


def _array_wait(m, total, t) -> np.ndarray:
    # The float kernel's rule, entry by entry: a wait that overflows is
    # taken again a power of two lower, and the clamp sends NaN to 0.
    with np.errstate(over="ignore"):
        wait = m * t - total
        over = wait == np.inf
        if over.any():
            scale = np.exp2(np.frexp(np.asarray(m, dtype=float))[1])
            wait = np.where(over, (m * (t / scale) - total / scale) * scale, wait)
    return np.where(wait > 0.0, wait, 0.0)


def _float_permit(x: float, top: int | float) -> float:
    """:func:`plf_delay` of a float span ``x`` over classes ``0..top + 1``,
    a negative or NaN span taken as 0, as ``max(0.0, x)`` takes it.

    One exact class rule: with ``e = math.frexp(x)[1]``, so that
    ``2**(e-1) <= x < 2**e``, a span ``x >= 1`` probes classes ``b`` and
    ``b + 1`` for ``b = min((e - 1) >> 1, top)``, and a span below 1
    probes classes 0 and 1.  The exact winner, class ``k`` on spans
    ``[4**k / 2, 2 * 4**k]``, is one of them, and each class's value is
    rounded once, by a monotone rounding, so the smaller probe is the
    rounded minimum over every class.
    """
    if x >= 1.0:
        base = (math.frexp(x)[1] - 1) >> 1
        w = 2.0 ** (base if base < top else top)
    else:
        if not x > 0.0:
            x = 0.0
        w = 1.0
    ratio = x / w
    low, high = (w - 1.0) + ratio, (2.0 * w - 1.0) + 0.5 * ratio
    return low if low <= high else high


def _array_permit(x: np.ndarray, top: int | float) -> np.ndarray:
    # The float kernel's class rule, entry by entry: a span below 1 has
    # e <= 0, so base 0.  NaN spans stay NaN.
    x = np.maximum(0.0, x)
    w = np.exp2(np.minimum(np.maximum((np.frexp(x)[1] - 1) >> 1, 0), top))
    ratio = x / w
    return np.minimum((w - 1.0) + ratio, (2.0 * w - 1.0) + 0.5 * ratio)


FLOAT_OPS = CostOps(max, min, _float_power, _float_wait, _float_permit)
ARRAY_OPS = CostOps(np.maximum, np.minimum, _array_power, _array_wait, _array_permit)


# Each batch kind's delay cost of a batch of ``m >= 1`` packets whose
# arrival times sum to ``total`` and start at ``first``, acknowledged at
# ``t``, written once over the operations it takes: given the model and
# those operations, it returns ``cost(m, total, first, t)``.  The wait is
# ``m t - total`` for SUM_WAIT_KINDS and ``t - first`` for the others,
# clamped at 0.

def _linear_sum_cost(spec: DelayModelSpec, ops: CostOps) -> Callable:
    wait = ops.wait

    def cost(m, total, first, t):
        return wait(m, total, t)
    return cost


def _capped_linear_cost(spec: DelayModelSpec, ops: CostOps) -> Callable:
    wait, minimum, tau = ops.wait, ops.minimum, spec.tau

    def cost(m, total, first, t):
        return minimum(wait(m, total, t), tau)
    return cost


def _max_wait_cost(spec: DelayModelSpec, ops: CostOps) -> Callable:
    maximum = ops.maximum

    def cost(m, total, first, t):
        return maximum(0.0, t - first)
    return cost


def _max_wait_pow_cost(spec: DelayModelSpec, ops: CostOps) -> Callable:
    maximum, power, p = ops.maximum, ops.power, spec.p

    def cost(m, total, first, t):
        return power(maximum(0.0, t - first), p)
    return cost


def _permit_plf_cost(spec: DelayModelSpec, ops: CostOps) -> Callable:
    # The class count is checked once, here: the spec holds K >= 1.
    price, top = ops.permit, spec.num_classes - 1

    def cost(m, total, first, t):
        return price(t - first, top)
    return cost


_BATCH_COSTS = {
    "linear_sum": _linear_sum_cost,
    "capped_linear": _capped_linear_cost,
    "max_wait": _max_wait_cost,
    "max_wait_pow": _max_wait_pow_cost,
    "permit_plf": _permit_plf_cost,
}


def cost_kernel(spec: DelayModelSpec, ops: CostOps = FLOAT_OPS) -> Callable:
    """``spec``'s batch cost as a function ``cost(m, total, first, t)``,
    bound once: with :data:`FLOAT_OPS` it takes and returns Python floats,
    with :data:`ARRAY_OPS` NumPy arrays, one entry per batch.

    Every batch kind depends on its batch only through its size, arrival
    sum and first arrival, so these are the only batch formulas: online
    aggregates and the prefix DP bind the float kernel once and keep the
    three numbers up to date instead of the batch itself.
    """
    make = _BATCH_COSTS.get(spec.kind)
    if make is None:
        raise ValueError(f"{spec.kind!r} is a vector model; use f_vector")
    return make(spec, ops)


def bdelay_kernel(spec: DelayModelSpec) -> Callable[[Sequence[float], float], float]:
    """:func:`bdelay` for ``spec`` with its float kernel bound once: a
    function ``delay(batch_arrivals, t)`` for callers that price many
    batches of one model, such as :func:`acklab.model.evaluate_schedule`
    and brute force's block table.  Every call makes :func:`bdelay`'s
    checks."""
    if spec.objective is Objective.VECTOR:
        raise ValueError(f"{spec.kind!r} is a vector model; use f_vector")
    cost = cost_kernel(spec)

    def delay(batch_arrivals: Sequence[float], t: float) -> float:
        if len(batch_arrivals) == 0:
            return 0.0
        if not t >= max(batch_arrivals):
            raise ValueError(f"ack time {t!r} does not follow every arrival in the batch")
        first = min(batch_arrivals)
        total = math.fsum(a - first for a in batch_arrivals)
        if not math.isfinite(total):
            raise ValueError(f"batch arrival offsets must sum to a finite number, got {total!r}")
        return cost(len(batch_arrivals), total, 0.0, t - first)

    return delay


def bdelay(spec: DelayModelSpec, batch_arrivals: Sequence[float], t: float) -> float:
    """Delay cost of acknowledging the given batch at time ``t``.

    Empty batches cost 0; ``t`` must not precede any arrival in the batch.
    Times are taken relative to the batch's first arrival, so the cost keeps
    its digits however far from zero the batch lies.  A NaN ack time or
    arrival raises ValueError rather than pricing as zero delay.
    """
    return bdelay_kernel(spec)(batch_arrivals, t)


# ---------------------------------------------------------------------------
# Vector evaluators
# ---------------------------------------------------------------------------

def order_weights(spec: DelayModelSpec, n: int | None = None) -> tuple[float, ...] | None:
    """The weights an ordered norm puts on the ``n`` largest delays (all its
    weights when it has fewer, or when ``n`` is None); None for any other
    model.

    An ordered norm's cost is the dot product of its weights with the
    delays sorted in decreasing order: ``top_k`` puts weight 1 on the k
    largest delays, ``lp`` with p = inf on the largest one.  Pass ``n`` for
    ``top_k``: only weights that meet a delay are built, so a huge k costs
    nothing."""
    if spec.kind == "ordered":
        return spec.weights[:n]
    if spec.kind == "top_k":
        return (1.0,) * (spec.k if n is None else min(spec.k, n))
    if spec.kind == "lp" and spec.p == math.inf:
        return (1.0,)[:n]
    return None


def _lp_divisor(top: float, p: float, n: int) -> float:
    """What ``lp`` with 1 < p < inf divides ``n`` delays by, ``top`` the
    largest, before it raises them to the p-th power: 1.0 inside the float
    range, and ``top`` only when ``top > 0`` and ``p * max(e, 1 - e) >=
    1000 - log2(n)``, ``e`` the exponent of ``math.frexp(top)``.

    ``top`` lies in ``[2**(e-1), 2**e)``, so inside that bound every power
    lies within 2**+-1000 and their sum in the float range, with the digits
    of every power that matters.  Undivided delays make the cost monotone
    in each of them.  Past the bound, dividing by ``top`` keeps its own
    power at 1, where a fixed power of two could leave it past the range.
    """
    e = math.frexp(top)[1]
    # max(e, 1 - e), written out: the builtin max costs more than the rest.
    return top if top > 0.0 and p * (e if e > 0 else 1 - e) >= 1000.0 - math.log2(n) else 1.0


def f_rows(spec: DelayModelSpec, delays: np.ndarray) -> np.ndarray:
    """Delay cost of each row of a matrix of per-packet delay vectors.

    Every reduction runs along a row in the order one vector's would, so
    row ``r`` costs exactly ``f_vector(spec, delays[r])``: sums use NumPy's
    row reductions, an ordered norm's weighted sum ``np.vecdot`` (the dot
    product of ``np.dot``, fused multiply-adds included), and ``lp``'s root
    is taken one row at a time in Python, because NumPy's vector ``power``
    rounds differently in the last bit.  ``lp`` scales each row by
    :func:`_lp_divisor`'s rule, decided on ``np.frexp``'s exponent, which is
    exact and equal to ``math.frexp``'s.
    """
    if spec.objective is not Objective.VECTOR:
        raise ValueError(f"{spec.kind!r} is a batch model; use bdelay")
    D = np.ascontiguousarray(delays, dtype=float)
    if D.size and float(D.min()) < 0.0:
        raise ValueError("delay vector entries must be non-negative")
    rows, n = D.shape
    kind = spec.kind
    if kind == "sum_vector" or (kind == "lp" and spec.p == 1):
        return np.add.reduce(D, axis=1)
    if kind == "concave_two_piece":
        ell = spec.prefix_len
        head = np.add.reduce(D[:, :ell], axis=1)
        tail = np.add.reduce(D[:, ell:], axis=1)
        first = spec.eps * head + tail
        second = (spec.dim / ell) * head + spec.eps * tail
        return np.where(second < first, second, first)
    if n == 0:
        return np.zeros(rows)
    weights = order_weights(spec, n)
    if weights is not None:
        largest = np.sort(D, axis=1)[:, : -len(weights) - 1 : -1]
        return np.vecdot(np.ascontiguousarray(largest), weights)
    top = np.maximum.reduce(D, axis=1)
    # lp with 1 < p < inf: _lp_divisor's rule, row by row (the rows kept
    # unscaled are divided by 1, which changes no bit).
    p, root = spec.p, 1.0 / spec.p
    e = np.frexp(top)[1]
    scaled = (top > 0.0) & (p * np.maximum(e, 1 - e) >= 1000.0 - math.log2(n))
    scale = np.where(scaled, top, 1.0)
    sums = np.add.reduce((D / scale[:, None]) ** p, axis=1)
    return scale * np.array([s ** root for s in sums.tolist()])


def f_vector(spec: DelayModelSpec, delays: Sequence[float]) -> float:
    """Delay cost of the full per-packet delay vector: :func:`f_rows` of
    one row."""
    return float(f_rows(spec, np.asarray(delays, dtype=float)[None, :])[0])


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
# * ``cost(s)`` — the cost at offset ``s``: the model's batch kernel of the
#   pending batch, or :func:`f_vector` of the whole delay vector;
# * ``crossing(goal)`` — an offset at which the cost reaches ``goal``,
#   exact up to rounding, or +inf when it never does;
# * ``freeze(s)`` (vector models) — serve the pending packets at ``s``,
#   keep their delays, and return the cost of the frozen part alone;
# * ``clear()`` — drop the pending packets without keeping their delays;
# * ``cap`` (batch aggregates) — the least upper bound of the cost: the
#   capped model's ``tau``, inf for the others and for every vector model.


def _affine_crossing(slope: float, value0: float, goal: float) -> float:
    """Where ``value0 + slope * s`` reaches ``goal`` (±inf when flat)."""
    if slope > 0.0:
        return (goal - value0) / slope
    return -math.inf if value0 >= goal else math.inf


class _BatchAggregate:
    """A batch model's pending batch: its size and the sum of its arrival
    offsets, the first arrival being at offset 0, which is all the model's
    batch kernel needs, plus the cost of served packets, ``frozen``
    (0 under batch policies; under ``linear_sum`` this is the vector sum's
    aggregate).  The crossing is the model's closed-form inverse."""

    def __init__(self, spec: DelayModelSpec):
        self.spec = spec
        self._cost = cost_kernel(spec)
        self.cap = spec.tau if spec.kind == "capped_linear" else math.inf
        self.frozen = 0.0
        self.clear()

    def add(self, x: float) -> None:
        self.m += 1
        self.total += x

    def cost(self, s: float) -> float:
        return self.frozen + self._cost(self.m, self.total, 0.0, s)

    def crossing(self, goal: float) -> float:
        kind = self.spec.kind
        if kind in SUM_WAIT_KINDS:
            s = (goal - self.frozen + self.total) / self.m
            # The sum may leave the float range where the quotient does not.
            return s if s < math.inf else (goal - self.frozen) / self.m + self.total / self.m
        if kind == "max_wait":
            return goal
        if kind == "max_wait_pow":
            return goal ** (1.0 / self.spec.p)
        # permit_plf: min_k 2**k + x * 2**-k >= level holds iff x >= 2**k (level - 2**k)
        # for every class k.  That bound is concave in 2**k with its peak at
        # level / 2, and 2**(e-2) <= level / 2 < 2**(e-1) for e the exponent
        # of level, so classes e - 2 and e - 1, kept within 0..K, attain it.
        level = goal + 1.0
        w = 2.0 ** min(max(math.frexp(level)[1] - 2, 0), self.spec.num_classes - 1)
        return max(w * (level - w), 2.0 * w * (level - 2.0 * w))

    def freeze(self, s: float) -> float:
        self.frozen = self.cost(s)
        self.clear()
        return self.frozen

    def clear(self) -> None:
        self.m = 0
        self.total = 0.0


class _ConvexAggregate:
    """The vector aggregates whose cost is convex and increasing in ``s``:
    ``lp`` with p > 1 and the ordered norms.  The first pending packet's
    delay is ``s``, so the cost is at least ``w1 s``, ``w1`` the weight on
    the largest delay, and the crossing lies at or below ``goal / w1``.
    Newton's method falls to it from there on the aggregate's own value and
    slope (``_value_slope(s)``): each step lands on the root of a tangent,
    which lies below the cost, so the iterates fall monotonically towards
    the crossing, and on a piecewise-linear cost each step enters a new
    piece and the last one is exact.  Where the cost at ``goal / w1`` leaves
    the float range, Newton has no step: the start is halved until the cost
    is back in range, and from below the goal one tangent step up lands at
    or above the crossing, by convexity.  With ``w1 <= 0`` the cost never
    grows and the crossing is +inf."""

    w1 = 1.0

    def crossing(self, goal: float) -> float:
        if self.w1 <= 0.0:
            return math.inf
        s = min(goal / self.w1, _LARGEST)
        value, slope = self._value_slope(s)
        if value == math.inf:
            while value == math.inf and s > 0.0:
                s *= 0.5
                value, slope = self._value_slope(s)
            if value < goal and slope > 0.0:
                below = s
                s = min(s + (goal - value) / slope, _LARGEST)
                value, slope = self._value_slope(s)
                if value == math.inf:
                    return below
        while True:
            if value - goal <= 0.0 or slope <= 0.0:
                return s
            nxt = max(0.0, s - (value - goal) / slope)
            if nxt >= s:
                return s
            s = nxt
            value, slope = self._value_slope(s)


class _PowerAggregate(_ConvexAggregate):
    """``lp`` with any other p: the norm of the frozen delays and the pending
    offsets.  The frozen norm and the pending delays are divided by
    :func:`_lp_divisor` of the largest of them before they are raised to
    the p-th power: by nothing inside the float range, so the cost is
    monotone in ``s`` float by float, and by that largest one past it, so
    no power overflows however large p is.  Each cost, and each Newton step
    of the crossing, costs O(pending)."""

    def __init__(self, spec: DelayModelSpec):
        self.p = float(spec.p)
        self.frozen = 0.0
        self.xs: list[float] = []

    def add(self, x: float) -> None:
        self.xs.append(x)

    def _scale(self, s: float) -> float:
        # Policies evaluate the aggregate with packets pending, and the first
        # of them, at offset 0, has the largest pending delay s.
        return _lp_divisor(s if s > self.frozen else self.frozen, self.p, len(self.xs) + 1)

    def cost(self, s: float) -> float:
        scale, p = self._scale(s), self.p
        powers = (self.frozen / scale) ** p + sum((max(0.0, s - x) / scale) ** p for x in self.xs)
        return scale * powers ** (1.0 / p)

    def _value_slope(self, s: float) -> tuple[float, float]:
        """The norm at ``s`` and its slope there: the pending delays'
        (p-1)-th powers summed, over the norm's; 0 where the norm is 0."""
        scale, p = self._scale(s), self.p
        d = [max(0.0, s - x) / scale for x in self.xs]
        norm = ((self.frozen / scale) ** p + sum(v ** p for v in d)) ** (1.0 / p)
        if norm == 0.0:
            return 0.0, 0.0
        return scale * norm, sum(v ** (p - 1.0) for v in d) / norm ** (p - 1.0)

    def freeze(self, s: float) -> float:
        self.frozen = self.cost(s)
        self.clear()
        return self.frozen

    def clear(self) -> None:
        self.xs = []


class _OrderedAggregate(_ConvexAggregate):
    """The ordered norms (:func:`order_weights`): ``ordered``, ``lp`` with
    p = inf (the single weight 1) and ``top_k`` (k unit weights, which are
    never built, so a huge k costs nothing).  It keeps the largest frozen
    delays, one per weight, in decreasing order, with their prefix sums
    ``top_sums``, and the first pending offsets, one per weight.

    The cost is convex and piecewise linear in ``s``, its slope the weights
    at the pending packets' places, so the Newton crossing is exact, one
    cost a step.  Explicit weights cost one sorted merge of the frozen and
    pending delays.  ``top_k`` costs the maximum over j of
    ``j s - X_j + H_{k-j}`` (X: pending prefix sums, H: ``top_sums``), whose
    rounding lands on the exact crossing more often than the merge's."""

    def __init__(self, spec: DelayModelSpec):
        self.w = None if spec.kind == "top_k" else order_weights(spec)
        self.size = spec.k if self.w is None else len(self.w)
        self.w1 = 1.0 if self.w is None else self.w[0]
        self._value_slope = self._pieces if self.w is None else self._merge
        self.top: list[float] = []  # decreasing
        self.top_sums = [0.0]  # H_r for r = 0 .. len(top)
        self.xs: list[float] = []

    def add(self, x: float) -> None:
        if len(self.xs) < self.size:
            self.xs.append(x)

    def _pieces(self, s: float) -> tuple[float, float]:
        """``top_k``'s cost at ``s`` and its slope: the largest piece, over
        j = 0 .. the pending count, and its j."""
        sums, last, k = self.top_sums, len(self.top_sums) - 1, self.size
        value, slope, total = sums[min(k, last)], 0, 0.0
        for j, x in enumerate(self.xs, 1):
            total += x
            piece = j * s - total + sums[min(k - j, last)]
            if piece >= value:
                value, slope = piece, j
        return value, slope

    def _merge(self, s: float) -> tuple[float, float]:
        """Explicit weights' cost at ``s`` and its slope."""
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
        return self._value_slope(s)[0]

    def freeze(self, s: float) -> float:
        self.top = heapq.nlargest(self.size, [*self.top, *(max(0.0, s - x) for x in self.xs)])
        self.top_sums = list(itertools.accumulate(self.top, initial=0.0))
        self.clear()
        return self.cost(0.0)

    def clear(self) -> None:
        self.xs = []


class _ConcaveAggregate:
    """``concave_two_piece``: one ``linear_sum`` batch aggregate for the
    head (the first ``ell`` packets the aggregate holds) and one for the
    tail, each with its frozen part.  The cost is the minimum of two affine
    functions, so its crossing is the later of their crossings, +inf when
    either never reaches the goal."""

    def __init__(self, spec: DelayModelSpec):
        self.ell = spec.prefix_len
        self.eps = spec.eps
        self.ratio = spec.dim / spec.prefix_len
        self.head = _BatchAggregate(linear_sum())
        self.tail = _BatchAggregate(linear_sum())
        self.held = 0  # packets held, frozen ones included

    def add(self, x: float) -> None:
        (self.head if self.held < self.ell else self.tail).add(x)
        self.held += 1

    def cost(self, s: float) -> float:
        head, tail = self.head.cost(s), self.tail.cost(s)
        return min(self.eps * head + tail, self.ratio * head + self.eps * tail)

    def crossing(self, goal: float) -> float:
        eps, ratio, head, tail = self.eps, self.ratio, self.head, self.tail
        head0 = head.frozen - head.total
        tail0 = tail.frozen - tail.total
        return max(
            _affine_crossing(eps * head.m + tail.m, eps * head0 + tail0, goal),
            _affine_crossing(ratio * head.m + eps * tail.m, ratio * head0 + eps * tail0, goal),
        )

    def freeze(self, s: float) -> float:
        self.head.freeze(s)
        self.tail.freeze(s)
        return self.cost(0.0)

    def clear(self) -> None:
        self.held -= self.head.m + self.tail.m
        self.head.clear()
        self.tail.clear()


_AGGREGATES = {
    **dict.fromkeys(BATCH_KINDS, _BatchAggregate),
    "top_k": _OrderedAggregate,
    "ordered": _OrderedAggregate,
    "concave_two_piece": _ConcaveAggregate,
}


def aggregate(spec: DelayModelSpec):
    """Empty running aggregate of a model's pending batch or delay vector."""
    if spec.kind == "sum_vector" or (spec.kind == "lp" and spec.p == 1):
        return _BatchAggregate(linear_sum())
    if spec.kind == "lp":
        return (_OrderedAggregate if spec.p == math.inf else _PowerAggregate)(spec)
    return _AGGREGATES[spec.kind](spec)


# Single float steps threshold_time takes from an aggregate's crossing before
# it gallops: a seed usually lies this close to the answer.
_NEAR_STEPS = 8
_LARGEST = sys.float_info.max
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")
_MAGNITUDE = (1 << 63) - 1


def _rank(t: float) -> int:
    """``t``'s place among the floats: ``_rank(nextafter(t, inf)) ==
    _rank(t) + 1``, with both zeros at 0."""
    bits = _BITS.unpack(_DOUBLE.pack(t))[0]
    return bits if bits >= 0 else -(bits & _MAGNITUDE)


def _at_rank(rank: int) -> float:
    """The float of a ``_rank``."""
    return _DOUBLE.unpack(_BITS.pack(rank if rank >= 0 else -rank | ~_MAGNITUDE))[0]


def threshold_time(aggregate, origin: float, target: float, t_lo: float) -> float | None:
    """Earliest float time ``t >= t_lo`` at which an aggregate's cost
    reaches ``target``; None means the target is out of reach.

    ``origin`` is the time the aggregate's offsets are measured from.
    Returns ``t_lo`` when the cost there already reaches the target.
    Otherwise it starts from the aggregate's crossing and steps one float
    at a time, down while the cost one float earlier still reaches the goal
    and up while the cost falls short of it, for at most ``_NEAR_STEPS``
    steps.  Past them it gallops over the floats, 1, 2, 4, ... apart, to a
    float on the other side of the answer and bisects between the two.  So
    the time is exact even where float spacing exceeds the tolerance, and
    every walk ends.  The goal is the target, or the cost's cap when the
    target lies within tolerance above it.

    This is the one place a target is found out of reach: when it lies more
    than a tolerance above the cap, when the crossing gives no finite time
    (``origin`` plus the crossing is +inf or NaN), and when the cost at the
    largest finite float still falls short of the goal.

    The crossing only seeds the walk.  Every aggregate's float cost is
    monotone, so the time does not depend on it, and an aggregate may find
    its crossing another way without moving an ack as long as its ``cost``
    keeps every bit.
    """
    cost = aggregate.cost
    if cost(t_lo - origin) >= target:
        return t_lo
    goal = target
    cap = getattr(aggregate, "cap", math.inf)
    if cap < goal:
        if cap < goal - tol_at(goal):
            return None
        goal = cap
    t = origin + aggregate.crossing(goal)
    if not t < math.inf:
        return None
    t, steps = max(t_lo, t), _NEAR_STEPS
    while t > t_lo and cost(math.nextafter(t, -math.inf) - origin) >= goal:
        t, steps = math.nextafter(t, -math.inf), steps - 1
        if not steps:
            return _gallop(cost, origin, goal, t, t_lo)
    while cost(t - origin) < goal:
        if t == _LARGEST:
            return None
        t, steps = math.nextafter(t, math.inf), steps - 1
        if not steps:
            return _gallop(cost, origin, goal, t, t_lo)
    return t


def _gallop(
    cost: Callable[[float], float], origin: float, goal: float, t: float, t_lo: float
) -> float | None:
    """:func:`threshold_time`'s far walk: the least float from ``t_lo`` up
    to the largest finite one at which ``cost``, monotone, reaches
    ``goal``, or None when there is none.  Gallops over float ranks from
    ``t`` by 1, 2, 4, ..., down while the cost reaches the goal and up
    while it falls short, then bisects."""

    def reaches(rank: int) -> bool:
        return cost(_at_rank(rank) - origin) >= goal

    start, low = _rank(t), _rank(t_lo)
    end, width = _rank(_LARGEST), 1
    if reaches(start):
        hi = start
        while reaches(lo := max(low, hi - width)):
            if lo == low:
                return _at_rank(low)
            hi, width = lo, 2 * width
    else:
        lo = start
        while not reaches(hi := min(end, lo + width)):
            if hi == end:
                return None
            lo, width = hi, 2 * width
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return _at_rank(hi)


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
        fn = bdelay_kernel(model)
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

    All samples are drawn first, one row each; a spec costs each of the four
    matrices with one :func:`f_rows` call, a raw callable is called per row.
    The report names the first failing sample.
    """
    if isinstance(model, DelayModelSpec):
        fn = lambda rows: f_rows(model, rows)  # noqa: E731
        name = f"submodular:{model.kind}"
    else:
        fn = lambda rows: np.array([model(v) for v in rows])  # noqa: E731
        name = "submodular:<callable>"
    rng = np.random.default_rng(seed)
    x = np.empty((samples, dimension))
    y = np.empty((samples, dimension))
    for i in range(samples):
        x[i] = _log_uniform(rng, dimension)
        y[i] = _log_uniform(rng, dimension)
        x[i, rng.random(dimension) < 0.15] = 0.0
        y[i, rng.random(dimension) < 0.15] = 0.0
    lhs = (fn(np.maximum(x, y)) + fn(np.minimum(x, y))).tolist()
    rhs = (fn(x) + fn(y)).tolist()
    for i in range(samples):
        if lhs[i] > rhs[i] + tol_at(rhs[i]):
            return PropertyReport(
                name,
                False,
                i + 1,
                {"x": x[i].tolist(), "y": y[i].tolist(), "lhs": lhs[i], "rhs": rhs[i]},
            )
    return PropertyReport(name, True, samples)
