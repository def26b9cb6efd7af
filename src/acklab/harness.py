"""Benchmark harness: instance generators, ratio sweeps, CSV/JSON/SVG output,
and the self-check property suite behind ``ack verify``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import groupby, product
from typing import Callable, Sequence, get_type_hints

import numpy as np

from . import adversary as adv
from .algorithms import SumMonotonePhases, make_algorithm
from .cost import (
    DelayModelSpec,
    PropertyReport,
    capped_linear,
    check_continuous_submodular,
    check_real,
    check_monotone,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    model_from_json,
    ordered_norm,
    permit_plf,
    plf_eval,
    sum_vector,
    top_k,
)
from .engine import simulate
from .model import Instance, evaluate_schedule
from .offline import ORACLES, brute_force_optimal, dp_optimal, exact_optimum
from .tolerance import tol_at

DEFAULT_SEED = 94021


def base_seed() -> int:
    """Default RNG seed, overridable via the ACK_SEED environment variable."""
    raw = os.environ.get("ACK_SEED")
    if not raw:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"ACK_SEED must be a non-negative integer, got {raw!r}")
    return seed


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def gen_uniform(n: int, rate: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Arrivals as cumulative sums of exponential gaps with the given rate."""
    gaps = rng.exponential(scale=1.0 / rate, size=n)
    return tuple(np.cumsum(gaps).tolist())


def gen_bursty(
    n: int,
    cluster_rate: float,
    burst_mean: float,
    intra_scale: float,
    rng: np.random.Generator,
) -> tuple[float, ...]:
    """Clusters of geometric size at exponential cluster gaps."""
    out: list[float] = []
    t = 0.0
    while len(out) < n:
        t += rng.exponential(scale=1.0 / cluster_rate)
        size = int(rng.geometric(p=min(1.0, 1.0 / burst_mean)))
        s = t
        for _ in range(min(size, n - len(out))):
            out.append(s)
            s += rng.exponential(scale=intra_scale)
    return tuple(sorted(out[:n]))


def _gen_param(gen_spec: dict, key: str, default: float, allow_zero: bool = False) -> float:
    """A generator parameter: a positive number (or non-negative)."""
    what = f"{gen_spec.get('kind', 'uniform')} generator {key}"
    value = float(check_real(gen_spec.get(key, default), what))
    if value < 0.0 or (value == 0.0 and not allow_zero):
        raise ValueError(f"{what} must be {'non-negative' if allow_zero else 'positive'}")
    return value


def generate_instance(
    gen_spec: dict, n: int, model: DelayModelSpec, seed: int
) -> Instance:
    kind = gen_spec.get("kind", "uniform")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        arrivals = gen_uniform(n, _gen_param(gen_spec, "rate", 1.0), rng)
    elif kind == "bursty":
        arrivals = gen_bursty(
            n,
            _gen_param(gen_spec, "cluster_rate", 0.25),
            _gen_param(gen_spec, "burst_mean", 4.0),
            _gen_param(gen_spec, "intra_scale", 0.01, allow_zero=True),
            rng,
        )
    elif kind == "greedy_tau_hard":
        tau = _gen_param(gen_spec, "tau", 1.0)
        eps = _gen_param(gen_spec, "eps", 1e-3)
        return Instance(
            adv.gen_greedy_tau_hard(n, tau, eps).arrivals, model
        )
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return Instance(arrivals, model)


# ---------------------------------------------------------------------------
# Bench sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    """One CSV row of a bench sweep: the fields in order are its columns."""

    instance_id: str
    n: int
    model_kind: str
    alg_spec: str
    alg_cost: float
    opt_cost: float
    oracle: str
    ratio: float
    runtime_ms: float
    seed: int


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_list(config: dict, key: str, default: list, ok: Callable, what: str) -> list:
    value = config.get(key, default)
    if not isinstance(value, list) or not all(ok(v) for v in value):
        raise ValueError(f"bench config {key!r} must be a list of {what}, got {value!r}")
    return value


def run_bench(config: dict) -> list[BenchRow]:
    """Run the configured sweep; rows come out in deterministic order.

    Raises ValueError on a config field of the wrong type.
    """
    generators, models, algorithms = (
        _config_list(config, key, default, lambda v: isinstance(v, dict), "objects")
        for key, default in (
            ("generators", [{"kind": "uniform", "rate": 1.0}]),
            ("models", []),
            ("algorithms", []),
        )
    )
    models = [model_from_json(m) for m in models]
    sizes = _config_list(config, "n", [], lambda v: _is_int(v) and v > 0, "positive integers")
    seeds = config.get("seeds", 1)
    if _is_int(seeds) and seeds >= 0:
        seeds = list(range(base_seed(), base_seed() + seeds))
    else:
        seeds = _config_list(
            config, "seeds", [], lambda v: _is_int(v) and v >= 0,
            "non-negative integers (or a count)",
        )
    oracle = config.get("oracle", "auto")
    if oracle not in ORACLES:
        raise ValueError(f"bench config 'oracle' must be auto, dp or brute, got {oracle!r}")
    rows: list[BenchRow] = []
    for gen_spec in generators:
        for model in models:
            # The instance and its optimum depend on (n, seed), not on the algorithm.
            instances: dict[tuple[int, int], Instance] = {}
            optima: dict[tuple[int, int], tuple[float, str]] = {}
            for alg_json, n, seed in product(algorithms, sizes, seeds):
                if (n, seed) not in instances:
                    instances[n, seed] = generate_instance(gen_spec, n, model, seed)
                instance = instances[n, seed]
                alg = make_algorithm(alg_json, model)
                start = time.perf_counter()
                schedule = simulate(instance, alg)
                alg_cost = evaluate_schedule(instance, schedule).total
                elapsed = (time.perf_counter() - start) * 1000.0
                if (n, seed) not in optima:
                    cost, _, used = exact_optimum(instance.arrivals, instance.model, oracle)
                    optima[n, seed] = cost, used
                opt_cost, used = optima[n, seed]
                ratio = alg_cost / opt_cost if opt_cost > 0 else math.inf
                instance_id = (
                    f"{gen_spec.get('kind', 'uniform')}-{model.kind}"
                    f"-{alg_json['alg']}-n{n}-s{seed}"
                )
                rows.append(BenchRow(
                    instance_id, n, model.kind, json.dumps(alg_json, sort_keys=True),
                    alg_cost, opt_cost, used, ratio, elapsed, seed,
                ))
    return rows


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(BenchRow)]
    floats = {name for name, kind in get_type_hints(BenchRow).items() if kind is float}
    writer.writerow(names)
    for r in rows:
        writer.writerow(
            _fmt(getattr(r, name)) if name in floats else getattr(r, name) for name in names
        )
    return buf.getvalue()


def summarize(rows: Sequence[BenchRow]) -> dict:
    """Max and mean ratio per (model, algorithm, n)."""
    groups: dict[tuple[str, str, int], list[float]] = {}
    for r in rows:
        groups.setdefault((r.model_kind, r.alg_spec, r.n), []).append(r.ratio)
    out = []
    for (model_kind, alg_spec, n), ratios in sorted(groups.items()):
        out.append(
            {
                "model": model_kind,
                "alg": alg_spec,
                "n": n,
                "max_ratio": max(ratios),
                "mean_ratio": sum(ratios) / len(ratios),
                "count": len(ratios),
            }
        )
    return {"groups": out}


def svg_ratio_chart(rows: Sequence[BenchRow]) -> str:
    """Minimal ratio-vs-n line chart: one polyline per model/alg series
    through the mean ratios of :func:`summarize`, scaled to its largest max
    ratio."""
    groups = summarize(rows)["groups"]
    width, height, margin = 640, 400, 40
    sizes = [g["n"] for g in groups]
    max_ratio = max((g["max_ratio"] for g in groups), default=1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - 10}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" y2="10" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12">n</text>',
        f'<text x="4" y="{height // 2}" font-size="12">ratio</text>',
    ]
    if sizes:
        xmin, xmax = min(sizes), max(sizes)
        xspan = max(1, xmax - xmin)

        def px(n: int) -> float:
            return margin + (n - xmin) / xspan * (width - margin - 20)

        def py(ratio: float) -> float:
            return (height - margin) - ratio / max(max_ratio, 1e-12) * (height - margin - 20)

        palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
        series = groupby(groups, key=lambda g: (g["model"], g["alg"]))
        for idx, ((model_kind, alg_spec), points) in enumerate(series):
            pts = " ".join(f"{px(g['n']):.1f},{py(g['mean_ratio']):.1f}" for g in points)
            color = palette[idx % len(palette)]
            parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
            parts.append(
                f'<text x="{margin + 4}" y="{16 + 14 * idx}" font-size="11" '
                f'fill="{color}">{model_kind} {alg_spec}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Property suite (ack verify)
# ---------------------------------------------------------------------------

def _report(passed: bool, detail: str = "") -> PropertyReport:
    """One-sample report of a lab check; :func:`verify_suite` names it."""
    return PropertyReport("", passed, 1, None if passed else {"detail": detail})


def _rejected(report: PropertyReport) -> PropertyReport:
    """A planted counterexample's report: it passes when the tester failed
    the planted model, and keeps the counterexample the tester found."""
    return replace(report, passed=not report.passed)


def _check_oracle_equivalence(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    specs = [linear_sum(), capped_linear(1.0), permit_plf()]
    for i in range(60):
        n = int(rng.integers(1, 9))
        arrivals = tuple(sorted(rng.uniform(0.0, 10.0, n)))
        spec = specs[i % len(specs)]
        dp_cost, dp_sched = dp_optimal(arrivals, spec)
        bf_cost, _ = brute_force_optimal(arrivals, spec)
        if abs(dp_cost - bf_cost) > tol_at(bf_cost):
            return _report(False, f"n={n} {spec.kind}: dp={dp_cost} brute={bf_cost}")
        realized = evaluate_schedule(Instance(arrivals, spec), dp_sched).total
        if abs(realized - dp_cost) > tol_at(dp_cost):
            return _report(False, f"dp schedule realizes {realized} != {dp_cost}")
    return _report(True)


def _check_plf_concavity(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    for _ in range(5000):
        x1, x2 = sorted(rng.uniform(0.0, 4.0 ** 10, 2))
        mid = plf_eval((x1 + x2) / 2.0)
        chord = (plf_eval(x1) + plf_eval(x2)) / 2.0
        if mid < chord - tol_at(chord):
            return _report(False, f"x1={x1} x2={x2}")
    return _report(True)


def _check_roundup(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 4.0 ** 10, 10_000)
    for x in xs:
        k = adv.plf_round_up(float(x))  # postconditions asserted inside
        if not (4 ** k >= x and 2 ** k <= 2.0 * plf_eval(float(x), num_classes=None)):
            return _report(False, f"x={x} k={k}")
    return _report(True)


def _check_greedy_hard_family(seed: int) -> PropertyReport:
    greedy = partial(make_algorithm, {"alg": "greedy_tau", "tau": 1.0})
    alg_cost, opt_cost = adv.run_greedy_tau_adversary(greedy, 25, 1.0, 1e-3)
    ratio = alg_cost / opt_cost
    return _report(abs(ratio - 25.0) <= 1e-6, f"ratio={ratio}")


def _check_permit_charging(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        gaps = rng.integers(1, 50, m)
        times = np.cumsum(gaps)
        cost, permits = adv.permit_cover_optimal([int(t) for t in times])
        schedule = adv.permits_to_tcp_schedule(permits, [int(t) for t in times])
        spec = permit_plf(num_classes=64)
        total = evaluate_schedule(
            Instance(tuple(float(t) for t in times), spec), schedule
        ).total
        if total > 2.0 * cost + tol_at(2.0 * cost):
            return _report(False, f"tcp={total} > 2*permit={cost}")
    return _report(True)


def _check_determinism(seed: int) -> PropertyReport:
    spec = linear_sum()
    rng = np.random.default_rng(seed)
    arrivals = gen_uniform(40, 1.0, rng)
    instance = Instance(arrivals, spec)
    outs = []
    for _ in range(2):
        alg = SumMonotonePhases(spec)
        trace = []
        schedule = simulate(instance, alg, trace.append)
        outs.append(
            json.dumps(list(schedule.ack_times))
            + "".join(ev.to_json_line() for ev in trace)
        )
    return _report(outs[0] == outs[1])


_BATCH_MODELS = (linear_sum(), max_wait(), max_wait_pow(2), capped_linear(1.0), permit_plf())
_VECTOR_MODELS = (
    lp_norm(1.0),
    lp_norm(2.0),
    lp_norm(math.inf),
    top_k(3),
    ordered_norm((3.0, 2.0, 1.0, 1.0, 0.5)),
    sum_vector(),
)


def verify_suite(only: str | None = None, samples: int = 10_000, seed: int | None = None) -> list[PropertyReport]:
    """Run the named property checks (filtered by substring) and report.

    Each check is one ``(name, check)`` entry below, called with the seed;
    its report takes the entry's name, so ``--only`` filters match the
    output."""
    seed = base_seed() if seed is None else seed
    checks: list[tuple[str, Callable[..., PropertyReport]]] = [
        *(
            (f"monotone:{spec.kind}", partial(check_monotone, spec, samples=samples))
            for spec in _BATCH_MODELS
        ),
        *(
            (
                f"submodular:{spec.kind}-p{spec.p}" if spec.kind == "lp" else f"submodular:{spec.kind}",
                partial(check_continuous_submodular, spec, samples=samples),
            )
            for spec in _VECTOR_MODELS
        ),
        # The squared sum is superadditive, so the tester must reject it.
        (
            "submodular:planted-square-rejected",
            lambda seed: _rejected(
                check_continuous_submodular(lambda d: float(sum(d)) ** 2, samples=samples, seed=seed)
            ),
        ),
        (
            "monotone:planted-decreasing-rejected",
            lambda seed: _rejected(
                check_monotone(lambda batch, t: 1.0 / (1.0 + t), samples=samples, seed=seed)
            ),
        ),
        ("oracle:dp-vs-brute", _check_oracle_equivalence),
        ("plf:concavity", _check_plf_concavity),
        ("plf:round-up", _check_roundup),
        ("adversary:greedy-hard", _check_greedy_hard_family),
        ("adversary:permit-charging", _check_permit_charging),
        ("engine:determinism", _check_determinism),
    ]
    return [replace(check(seed=seed), name=name) for name, check in checks if not only or only in name]
