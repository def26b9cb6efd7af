"""The three workloads: operations, their inputs from the seed, and their checks.

An operation is one ``ack`` command line. Each workload builds a fixed list
of operations (a round) from its seed; the benchmark repeats whole rounds.
Each operation knows how many packets it carries, how to verify its output
against ``checks`` and which wrong answers its verification must reject.
The first operation of a round is also the untimed warm-up of the set-up, so
each workload puts a short one first.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

PHASES_N = 500
SUM_MODELS = (
    {"kind": "linear_sum"},
    {"kind": "capped_linear", "tau": 1.0},
    {"kind": "permit_plf", "K": 32},
)
SWEEP_SUM_N = 2000
SWEEP_BRUTE_N = 13
GREEDY_TAUS = ({"alg": "greedy_tau", "tau": 1.0}, {"alg": "greedy_tau", "tau": 0.5})
VECTOR_ALGS = ({"alg": "vector_greedy"}, {"alg": "greedy_tau_vector", "tau": 1.0})


@dataclass
class Op:
    """One CLI command, the packets it carries, and how its output is checked."""

    name: str
    argv: list[str]
    packets: int
    verify: Callable[[dict], None]
    # Wrong answers made from a verified output; each callable must raise CheckError.
    planted: Callable[[dict], list[tuple[str, Callable[[], None]]]]
    read: Callable[[dict], dict] = field(default=lambda out: out)
    instances: int = 0  # distinct instances an ``ack bench`` operation generates


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


# ---------------------------------------------------------------------------
# phases-sum: `ack run` with the phase algorithm, then `ack solve --oracle dp`
# ---------------------------------------------------------------------------

def _uniform(n: int, rng: np.random.Generator) -> list[float]:
    return np.cumsum(rng.exponential(1.0, n)).tolist()


def _bursty(n: int, rng: np.random.Generator) -> list[float]:
    """Clusters of geometric size (mean 4) every 4 time units on average;
    packets inside a cluster are 0.01 apart on average."""
    out: list[float] = []
    t = 0.0
    while len(out) < n:
        t += rng.exponential(4.0)
        s = t
        for _ in range(min(int(rng.geometric(0.25)), n - len(out))):
            out.append(s)
            s += rng.exponential(0.01)
    return sorted(out)


def _schedule_checks(arr, model, out, what):
    acks, delay = ck.schedule_cost(arr, model, out["ack_times"])
    ck.expect(out["acks"] == acks, f"{what}: reports {out['acks']} acks for {acks} ack times")
    ck.expect_close(out["delay"], delay, f"{what}: delay against its ack times")
    ck.expect_close(out["total"], acks + delay, f"{what}: total against its ack times")


def phases_sum(seed: int, tmp: Path) -> list[Op]:
    rng = _rng(seed, "phases-sum")
    ops: list[Op] = []
    for model in SUM_MODELS:
        for shape, gen in (("uniform", _uniform), ("bursty", _bursty)):
            arr = gen(PHASES_N, rng)
            path = tmp / f"{model['kind']}-{shape}.json"
            path.write_text(json.dumps({"arrivals": arr, "model": model}))
            name = f"{model['kind']}/{shape}"
            opt = functools.cache(lambda arr=arr, model=model: ck.sum_optimum(arr, model))
            bound = ck.ratio_bound({"alg": "phases"}, model["kind"], PHASES_N)

            def verify_run(out, arr=arr, model=model, opt=opt, bound=bound, name=name):
                _schedule_checks(arr, model, out, f"run {name}")
                ck.expect_ratio(out["total"] / opt(), f"phases on {name}", bound)

            def verify_solve(out, arr=arr, model=model, opt=opt, name=name):
                _schedule_checks(arr, model, out, f"solve {name}")
                ck.expect_close(out["total"], opt(), f"dp optimum of {name}")

            def planted_run(out, verify=verify_run, bound=bound, name=name):
                return [
                    ("schedule leaving the last packet uncovered",
                     lambda: verify(dict(out, ack_times=out["ack_times"][:-1]))),
                    ("total off by 1e-6 relative",
                     lambda: verify(dict(out, total=out["total"] * (1 + 1e-6)))),
                    ("phases ratio above 14 log2 n",
                     lambda: ck.expect_ratio(bound * (1 + 1e-6), name, bound)),
                    ("ratio below 1",
                     lambda: ck.expect_ratio(1 - 1e-6, name, bound)),
                ]

            def planted_solve(out, verify=verify_solve, opt=opt):
                return [
                    ("optimum off by 1e-6 relative",
                     lambda: ck.expect_close(out["total"] * (1 + 1e-6), opt(), "dp optimum")),
                    ("schedule leaving the last packet uncovered",
                     lambda: verify(dict(out, ack_times=out["ack_times"][:-1]))),
                ]

            trace = str(tmp / f"{model['kind']}-{shape}.trace.jsonl")
            alg = json.dumps({"alg": "phases"})
            ops.append(Op(f"solve {name}", ["solve", "--instance", str(path), "--oracle", "dp"],
                          PHASES_N, verify_solve, planted_solve))
            ops.append(Op(f"run {name}", ["run", "--instance", str(path), "--alg", alg,
                                          "--trace", trace], PHASES_N, verify_run, planted_run))
    return ops


# ---------------------------------------------------------------------------
# greedy-sweep: `ack bench` with explicit seed lists
# ---------------------------------------------------------------------------

def _read_bench(out: dict) -> dict:
    with open(Path(out["out"]) / "bench.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("runtime_ms")  # the only column that changes between runs
    return {"rows": rows, "count": out["rows"]}


def _bench_op(name: str, config: dict, tmp: Path, index: int) -> Op:
    path = tmp / f"bench-{index}.json"
    path.write_text(json.dumps(config))
    gen = config["generators"][0]
    optima = {
        (json.dumps(m, sort_keys=True), n, s): functools.cache(
            lambda m=m, n=n, s=s: (
                ck.sum_optimum if m["kind"] in ck.SUM_KINDS else ck.enumerated_optimum
            )(ck.uniform_arrivals(n, s, gen["rate"]), m)
        )
        for m in config["models"] for n in config["n"] for s in config["seeds"]
    }
    expected = [
        (m, alg, n, s)
        for m in config["models"] for alg in config["algorithms"]
        for n in config["n"] for s in config["seeds"]
    ]

    def verify(out):
        rows = out["rows"]
        ck.expect(out["count"] == len(rows) == len(expected),
                  f"{name}: {len(rows)} rows, expected {len(expected)}")
        for row, (m, alg, n, s) in zip(rows, expected):
            what = f"{name} row {row['instance_id']}"
            ck.expect(
                (row["model_kind"], json.loads(row["alg_spec"]), int(row["n"]), int(row["seed"]))
                == (m["kind"], alg, n, s),
                f"{what}: out of order",
            )
            ck.expect(row["oracle"] == config["oracle"], f"{what}: oracle {row['oracle']}")
            opt = optima[(json.dumps(m, sort_keys=True), n, s)]()
            ck.expect_close(float(row["opt_cost"]), opt, f"{what}: optimum")
            ratio = float(row["ratio"])
            ck.expect_close(ratio, float(row["alg_cost"]) / float(row["opt_cost"]), f"{what}: ratio")
            ck.expect_ratio(ratio, what, ck.ratio_bound(alg, m["kind"], n))

    def planted(out):
        row = out["rows"][0]
        m, alg, n, _ = expected[0]
        bound = ck.ratio_bound(alg, m["kind"], n)
        wrong_opt = dict(row, opt_cost=repr(float(row["opt_cost"]) * (1 + 1e-6)),
                         alg_cost=repr(float(row["alg_cost"]) * (1 + 1e-6)))
        cases = [
            ("optimum off by 1e-6 relative",
             lambda: verify(dict(out, rows=[wrong_opt] + out["rows"][1:]))),
            ("ratio below 1", lambda: ck.expect_ratio(1 - 1e-6, name, bound)),
            ("a row missing", lambda: verify(dict(out, rows=out["rows"][1:], count=out["count"] - 1))),
        ]
        if bound is not None:
            cases.append(("ratio above 2", lambda: ck.expect_ratio(bound * (1 + 1e-6), name, bound)))
        return cases

    packets = sum(n for (_, _, n, _) in expected)
    return Op(name, ["bench", "--config", str(path), "--out", str(tmp / f"bench-{index}")],
              packets, verify, planted, _read_bench, instances=len(optima))


def greedy_sweep(seed: int, tmp: Path) -> list[Op]:
    uniform = [{"kind": "uniform", "rate": 1.0}]
    base = seed * 100
    configs = []
    for i, model in enumerate(({"kind": "max_wait"}, {"kind": "max_wait_pow", "p": 2})):
        configs.append((f"max_mono {model['kind']}", {
            "generators": uniform, "models": [model], "algorithms": [{"alg": "max_mono"}],
            "n": [SWEEP_BRUTE_N], "seeds": [base + 10 + 2 * i, base + 11 + 2 * i],
            "oracle": "brute"}))
    for i, model in enumerate(({"kind": "lp", "p": 2}, {"kind": "top_k", "k": 3})):
        configs.append((f"vector {model['kind']}", {
            "generators": uniform, "models": [model], "algorithms": list(VECTOR_ALGS),
            "n": [SWEEP_BRUTE_N], "seeds": [base + 20 + i], "oracle": "brute"}))
    for i, model in enumerate(SUM_MODELS):
        configs.append((f"greedy_tau {model['kind']}", {
            "generators": uniform, "models": [model], "algorithms": list(GREEDY_TAUS),
            "n": [SWEEP_SUM_N], "seeds": [base + i], "oracle": "dp"}))
    return [_bench_op(name, cfg, tmp, i) for i, (name, cfg) in enumerate(configs)]


# ---------------------------------------------------------------------------
# adversaries: `ack adversary` of each kind
# ---------------------------------------------------------------------------

def _concave(n: int, alg: dict) -> Op:
    name = f"concave {alg['alg']} n={n}"

    def verify(out):
        ck.expect(out["n"] == n and out["ell"] == math.isqrt(n - 1) + 1, f"{name}: n or ell")
        ck.expect_close(out["eps"], 1.0 / n ** 2, f"{name}: eps")
        ck.expect_close(out["reference_cost"], ck.concave_closed_form(n, out["branch"]),
                        f"{name}: comparison cost against its closed form")
        ck.expect_close(out["ratio"], out["alg_cost"] / out["reference_cost"], f"{name}: ratio")
        ck.expect_ratio(out["ratio"], name)

    def planted(out):
        return [("comparison cost off by 1e-6 relative",
                 lambda: verify(dict(out, reference_cost=out["reference_cost"] * (1 + 1e-6),
                                     ratio=out["alg_cost"] / (out["reference_cost"] * (1 + 1e-6)))))]

    return Op(name, ["adversary", "--kind", "concave", "--alg", json.dumps(alg), "--n", str(n)],
              n, verify, planted)


def _permit(n: int, alg: dict) -> Op:
    name = f"permit {alg['alg']} n={n}"

    def verify(out):
        ck.expect(out["n_requests"] == n, f"{name}: n_requests")
        ck.expect(out["chained"] is True, f"{name}: requests not chained")
        ck.expect_close(out["ratio"], out["alg_cost"] / out["reference_cost"], f"{name}: ratio")
        ck.expect_ratio(out["ratio"], name)

    def planted(out):
        return [
            ("chained false", lambda: verify(dict(out, chained=False))),
            ("permit cost below the optimum cover",
             lambda: verify(dict(out, alg_cost=out["reference_cost"] * (1 - 1e-6),
                                 ratio=1 - 1e-6))),
        ]

    return Op(name, ["adversary", "--kind", "permit", "--alg", json.dumps(alg), "--n", str(n)],
              n, verify, planted)


def _hard(n: int, eps: float) -> Op:
    name = f"greedy_tau hard n={n}"

    def verify(out):
        ck.expect(out["n"] == n, f"{name}: n")
        ck.expect_close(out["reference_cost"], 2.0, f"{name}: optimum 1 + tau")
        ck.expect(abs(out["ratio"] - n) <= 1e-9 * n, f"{name}: ratio {out['ratio']!r} is not n")

    def planted(out):
        return [("ratio off n by 1e-6 relative",
                 lambda: verify(dict(out, ratio=n * (1 + 1e-6))))]

    return Op(name, ["adversary", "--kind", "greedy_tau", "--alg",
                     json.dumps({"alg": "greedy_tau", "tau": 1.0}), "--n", str(n),
                     "--tau", "1.0", "--eps", repr(eps)], n, verify, planted)


PERMIT_PHASES_N = 930


def adversaries(seed: int, tmp: Path) -> list[Op]:
    # The games are deterministic, so the seed moves their sizes by a few
    # percent. Not the permit game under phases: its timeline passes 1e6 at
    # request 897 and every later request takes the slow critical-suffix scan,
    # so its time is steep in n; it keeps a fixed size with 33 slow requests.
    j = _rng(seed, "adversaries").integers(0, 8, 4)
    return [
        _hard(2000 + int(j[3]), 1e-3 * (1.0 + int(j[3]) / 8.0)),
        _concave(400 + int(j[0]), {"alg": "vector_greedy"}),
        _concave(400 + int(j[1]), {"alg": "greedy_tau_vector", "tau": 1.0}),
        _permit(PERMIT_PHASES_N, {"alg": "phases"}),
        _permit(600 + int(j[2]), {"alg": "greedy_tau", "tau": 1.0}),
    ]


WORKLOADS = {
    "phases-sum": phases_sum,
    "greedy-sweep": greedy_sweep,
    "adversaries": adversaries,
}
