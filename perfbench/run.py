"""Benchmark of the ``ack`` commands, end to end and layer by layer.

    python3 perfbench/run.py --workload phases-sum --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; acklab is imported from ``src/``.
Workloads: ``phases-sum``, ``greedy-sweep``, ``adversaries`` (see README.md).

Each workload runs in its own single-threaded worker process. The set-up
(interpreter start, ``import acklab``, input generation and one warm-up
operation) is measured in several fresh processes and reported as a median.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The worker's full
record is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
UNITS = {"packets_per_s": "1/s", "op_ms.p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, tmp: str, timeout: float) -> dict:
    """Run one worker process to its end and return its JSON record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--tmp", tmp,
    ]
    before = calibrate.kernel_time()
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
        stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), kernel_before_s=before)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "acklab" / "__init__.py").is_file():
        print(f"perfbench: no acklab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            setups = []
            if not args.trace:
                for _ in range(SETUP_SAMPLES - 1):
                    setups.append(spawn(args, "setup", tmp, 60.0))
            record = spawn(args, "measure", tmp, DEADLINE_S - (time.monotonic() - begin))
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    if not args.trace:
        setups.append(record)
        record["setup_samples_s"] = [
            calibrate.scale(s["setup_raw_s"], s["kernel_before_s"], s["setup_kernel_s"])
            for s in setups
        ]
        record["setup_s"] = statistics.median(record["setup_samples_s"])
        record["setup_wall_samples_s"] = [s["setup_raw_s"] for s in setups]
    if record["attempted"] - record["failed"] == 0:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in UNITS.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name in ("harness.optima_per_instance", "trace.overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
