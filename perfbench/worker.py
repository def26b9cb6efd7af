"""One workload in its own single-threaded process.

``run.py`` starts this script; it is not meant to be run by hand. Modes:

* ``setup``: import acklab, build the inputs, run one untimed warm-up
  operation, report the set-up time and exit;
* ``measure``: the same set-up, then whole rounds of operations until
  ``--seconds`` have passed, each operation timed on its own. Every output is
  checked outside the timed region. With ``--trace 1`` traced and untraced
  rounds alternate and the per-layer figures of the traced rounds are
  reported.

The last line of standard output is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--t0", type=float, required=True, help="wall clock when the process was started")
    p.add_argument("--tmp", required=True, help="directory for instance files and outputs")
    return p.parse_args()


def execute(op, cli) -> tuple[float, str | None]:
    """Run one operation in-process; returns its time and captured output,
    or None for the output when the command fails."""
    gc.collect()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit):
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"operation {op.name} failed with exit code {code}", file=sys.stderr)
        return elapsed, None
    return elapsed, buf.getvalue()


class Verifier:
    """Checks each operation's first output; later outputs must equal it."""

    def __init__(self):
        self.seen: dict[int, str] = {}
        self.first: dict[int, dict] = {}
        self.errors: list[str] = []

    def __call__(self, index: int, op, output: str) -> None:
        try:
            data = op.read(json.loads(output.strip().splitlines()[-1]))
            key = json.dumps(data, sort_keys=True)
            if index in self.seen:
                checks.expect(key == self.seen[index], f"{op.name}: output changed between rounds")
                return
            self.seen[index] = key
            op.verify(data)
            self.first[index] = data
        except Exception as exc:  # every failure of a check is reported, none stops the run
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")

    def planted(self, ops) -> int:
        """Feed each check its planted wrong answers; return how many were rejected."""
        rejected = 0
        for index, data in self.first.items():
            for what, attempt in ops[index].planted(data):
                try:
                    attempt()
                except checks.CheckError:
                    rejected += 1
                else:
                    self.errors.append(f"{ops[index].name}: accepted a planted {what}")
        return rejected


def main() -> int:
    args = _args()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import acklab.cli

    if not Path(acklab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"acklab imported from {acklab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tmp = Path(args.tmp)
    ops = workloads.WORKLOADS[args.workload](args.seed, tmp)
    cli = acklab.cli
    _, warm = execute(ops[0], cli)
    setup = {"setup_raw_s": time.time() - args.t0, "setup_kernel_s": calibrate.kernel_time()}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    verifier = Verifier()
    if warm is not None:
        verifier(0, ops[0], warm)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    samples: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    rounds = {"plain": [], "traced": []}
    layers: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    before = calibrate.kernel_time()
    while True:
        traced = tracer is not None and len(rounds["plain"]) > len(rounds["traced"])
        if traced:
            tracer.reset()
            tracer.install()
        spent = spent_raw = 0.0
        try:
            for index, op in enumerate(ops):
                elapsed, out = execute(op, cli)
                after = calibrate.kernel_time()
                scaled = calibrate.scale(elapsed, before, after)
                before = after
                attempted += 1
                spent += scaled
                spent_raw += elapsed
                if out is None:
                    failed += 1
                    continue
                if not traced:
                    samples[index].append(scaled)
                    raw[index].append(elapsed)
                verifier(index, op, out)
        finally:
            if traced:
                tracer.uninstall()
        rounds["traced" if traced else "plain"].append(spent)
        if traced:
            layers.append(_layer_figures(tracer, ops, spent / spent_raw))
        if time.perf_counter() - start >= args.seconds and (
            tracer is None or len(rounds["traced"]) == len(rounds["plain"])
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rejected = verifier.planted(ops)
    for err in verifier.errors:
        print(f"check failed: {err}", file=sys.stderr)

    timed = [
        (op, statistics.median(s), statistics.median(r))
        for op, s, r in zip(ops, samples, raw) if s
    ]
    record = {
        "correct": not verifier.errors,
        "attempted": attempted,
        "failed": failed,
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rounds["plain"]),
        "planted_rejected": rejected,
        "ops": [
            {"name": op.name, "packets": op.packets, "median_ms": m * 1000.0,
             "median_wall_ms": r * 1000.0}
            for op, m, r in timed
        ],
    }
    if timed:
        record["packets_per_s"] = sum(op.packets for op, _, _ in timed) / sum(m for _, m, _ in timed)
        record["op_ms.p50"] = statistics.median(m for _, m, _ in timed) * 1000.0
        record["wall_packets_per_s"] = sum(op.packets for op, _, _ in timed) / sum(r for _, _, r in timed)
    if tracer is not None:
        record["per_layer"] = _summarise_layers(layers, rounds)
        record["per_layer_rounds"] = layers
    print(json.dumps(record))
    return 0


COUNTS = (
    "offline.critical_suffix.calls", "offline.critical_suffix.packets",
    "offline.dp.calls", "offline.dp.cells", "offline.brute.calls", "offline.brute.partitions",
    "engine.threshold.calls", "engine.threshold.evals", "engine.lookahead.calls",
    "algorithms.observe.calls", "cost.f_vector.calls", "cost.f_vector.entries",
    "model.evaluate.calls",
)
SELF_MS = {
    "offline.critical_suffix.ms": "offline.critical_suffix",
    "offline.dp.ms": "offline.dp",
    "offline.brute.ms": "offline.brute",
    "engine.threshold.self_ms": "engine.threshold",
    "engine.lookahead.ms": "engine.lookahead",
    "engine.simulate.self_ms": "engine.simulate",
    "algorithms.observe.self_ms": "algorithms.observe",
    "cost.f_vector.ms": "cost.f_vector",
    "cost.batch_fn.ms": "cost.batch_fn",
    "model.evaluate.ms": "model.evaluate",
    "harness.run_bench.self_ms": "harness.run_bench",
    "adversary.permit_cover.ms": "adversary.permit_cover",
    "adversary.self_ms": "adversary",
    "cli.self_ms": "cli",
}


def _layer_figures(tracer, ops, speed: float) -> dict:
    """Counts and self times of one traced round; ``speed`` scales wall time
    to nominal-speed time, as for the end-to-end timings."""
    out = {name: tracer.counts.get(name, 0) for name in COUNTS}
    out.update({
        name: tracer.self_s.get(layer, 0.0) * 1000.0 * speed for name, layer in SELF_MS.items()
    })
    instances = sum(op.instances for op in ops)
    out["harness.optima_per_instance"] = tracer.optima_in_bench / instances if instances else 0.0
    return out


def _summarise_layers(layers: list[dict], rounds: dict) -> dict:
    """Counts of the first traced round; times as medians over traced rounds."""
    out = {name: layers[0][name] for name in COUNTS + ("harness.optima_per_instance",)}
    for name in SELF_MS:
        out[name] = statistics.median(layer[name] for layer in layers)
    out["trace.overhead"] = statistics.median(rounds["traced"]) / statistics.median(rounds["plain"])
    return out


if __name__ == "__main__":
    sys.exit(main())
