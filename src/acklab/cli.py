"""``ack`` command-line front end.

Subcommands: ``solve`` (offline optimum), ``run`` (simulate an online
algorithm), ``adversary`` (lower-bound drivers), ``bench`` (ratio sweeps),
``verify`` (property suite).

Exit codes: 0 ok, 1 property failure, 2 usage/parse error, 3 infeasible.
:func:`main` is the one place that picks them: a command and the library
code under it raise ``ValueError`` on input they reject, and ``main`` turns
it into one ``error:`` line and exit 2; ``BruteForceInfeasibleError``, a
``ValueError`` too, exits 3.  Faults of the program (``EngineError``,
``ProtocolViolation``, ``AssertionError``) still raise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import adversary as adv
from .algorithms import make_algorithm
from .cost import dump_json, permit_plf
from .engine import simulate
from .harness import (
    run_bench,
    rows_to_csv,
    summarize,
    svg_ratio_chart,
    verify_suite,
)
from .model import evaluate_schedule, instance_from_json
from .offline import ORACLES, BruteForceInfeasibleError, exact_optimum

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_inline_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON {text!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def cmd_solve(args: argparse.Namespace) -> int:
    instance = instance_from_json(_load_json(args.instance))
    try:
        _, schedule, used = exact_optimum(instance.arrivals, instance.model, args.oracle)
    except BruteForceInfeasibleError:
        raise
    except ValueError as exc:
        raise ValueError(f"{args.oracle} oracle rejected: {exc}") from exc
    breakdown = evaluate_schedule(instance, schedule)
    out = breakdown.to_json()
    out["ack_times"] = list(schedule.ack_times)
    out["oracle"] = used
    print(dump_json(out))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    instance = instance_from_json(_load_json(args.instance))
    algorithm = make_algorithm(_parse_inline_json(args.alg), instance.model)
    trace_path = args.trace or args.instance + ".trace.jsonl"
    try:
        fh = open(trace_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write the trace: {exc}") from exc
    with fh:
        schedule = simulate(
            instance, algorithm, lambda event: fh.write(event.to_json_line() + "\n")
        )
    out = evaluate_schedule(instance, schedule).to_json()
    out["ack_times"] = list(schedule.ack_times)
    out["trace"] = trace_path
    print(dump_json(out))
    return EXIT_OK


def cmd_adversary(args: argparse.Namespace) -> int:
    alg_json = _parse_inline_json(args.alg)
    if args.kind == "greedy_tau":
        alg_cost, opt_cost = adv.run_greedy_tau_adversary(
            lambda spec: make_algorithm(alg_json, spec), args.n, args.tau, args.eps
        )
        report = {
            "kind": "greedy_tau",
            "n": args.n,
            "alg_cost": alg_cost,
            "reference_cost": opt_cost,
            "ratio": alg_cost / opt_cost,
        }
    elif args.kind == "concave":
        result = adv.run_concave_adversary(lambda spec: make_algorithm(alg_json, spec), args.n)
        report = {"kind": "concave", **result.to_json()}
        report["reference_cost"] = report.pop("comparison_cost")
    else:  # permit
        algorithm = make_algorithm(alg_json, permit_plf(num_classes=600))
        result = adv.run_pp_adversary(adv.TcpPermitAdapter(algorithm), args.n)
        opt_cost, _ = adv.permit_cover_optimal(result.request_times)
        report = {
            "kind": "permit",
            "n_requests": args.n,
            "alg_cost": float(result.total_cost),
            "reference_cost": float(opt_cost),
            "ratio": result.total_cost / opt_cost,
            "chained": result.chained,
            "max_class": max(p.k for pur in result.purchases for p in pur.permits),
        }
    print(dump_json(report))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ValueError("bench config must be a JSON object")
    out_dir = Path(args.out)
    # The nearest existing ancestor (or the path itself) must be a directory.
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"cannot create {out_dir}: {existing} is not a directory")
    rows = run_bench(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench.csv").write_text(rows_to_csv(rows), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        dump_json(summarize(rows), indent=2) + "\n", encoding="utf-8"
    )
    if config.get("svg", False):
        (out_dir / "ratio.svg").write_text(svg_ratio_chart(rows), encoding="utf-8")
    print(dump_json({"rows": len(rows), "out": str(out_dir)}))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    reports = verify_suite(only=args.only, samples=args.samples)
    failed = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = f"{status} {rep.name} ({rep.samples} samples)"
        if not rep.passed:
            line += f" counterexample={dump_json(rep.counterexample)}"
            failed += 1
        print(line)
    print(f"{len(reports) - failed}/{len(reports)} properties passed")
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ack",
        description="Simulation laboratory for online acknowledgment batching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the offline optimum of an instance")
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument(
        "--oracle",
        choices=ORACLES,
        default="auto",
        help="dp (sum objectives), brute (n <= 22) or auto: dp where it applies, else brute",
    )
    p_solve.set_defaults(fn=cmd_solve)

    p_run = sub.add_parser("run", help="simulate an online algorithm on an instance")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--alg", required=True, help='algorithm JSON, e.g. {"alg":"phases"}')
    p_run.add_argument("--trace", help="trace output path (JSON lines)")
    p_run.set_defaults(fn=cmd_run)

    p_adv = sub.add_parser("adversary", help="run a lower-bound construction")
    p_adv.add_argument("--kind", choices=("greedy_tau", "concave", "permit"), required=True)
    p_adv.add_argument("--alg", default='{"alg":"greedy_tau","tau":1.0}')
    p_adv.add_argument("--n", type=int, required=True)
    p_adv.add_argument("--tau", type=float, default=1.0)
    p_adv.add_argument("--eps", type=float, default=1e-3)
    p_adv.set_defaults(fn=cmd_adversary)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default="bench_out")
    p_bench.set_defaults(fn=cmd_bench)

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--only", help="substring filter on property names")
    p_verify.add_argument("--samples", type=int, default=10_000)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except BruteForceInfeasibleError as exc:  # a ValueError, so caught first
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
