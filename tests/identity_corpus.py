"""Identity corpus: a digest of ``ack`` outputs that a refactor must keep.

Run from the repository root::

    PYTHONPATH=src python tests/identity_corpus.py

In one process it calls :func:`acklab.cli.main` on 163 cases and prints one
line per case, ``<model json> <shape> <seed> <shift> <sha256>``, then a last
line ``<cases> <digest>``.

* 162 instances: the models ``max_wait``, ``max_wait_pow`` p = 2 and 3
  (sum objective), ``linear_sum``, ``capped_linear`` tau = 1 and
  ``permit_plf`` K = 32; the timelines ``uniform`` (cumulative exponential
  gaps of mean 1), ``bursty`` (``gen_bursty(300, 1.0, 100.0, 0.001)``) and
  ``grid`` (uniform rounded to 1/64); n = 300, seeds 1-3, shifts 0, 1e6
  and 1e12.  Each runs ``ack solve --oracle dp`` and ``ack run --alg
  '{"alg":"phases"}' --trace``.  A case's hash covers both exit codes,
  both reports (the trace path in the ``run`` report replaced by a fixed
  token) and the SHA-256 of every trace line.
* One permit game: ``ack adversary --kind permit --n 930 --alg
  '{"alg":"phases"}'``, hashed over its exit code and report.

The digest is the SHA-256 of the case lines joined by newlines.  Two trees
that give the same digest on one machine gave the same offline optima,
schedules, costs and traces on every case.  Digests of different NumPy or
libm builds may differ, so the script checks no golden value; it exits 0
once every case has run and exited 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from acklab import (
    Objective,
    capped_linear,
    linear_sum,
    max_wait,
    max_wait_pow,
    permit_plf,
)
from acklab.cli import main
from acklab.cost import model_to_json
from acklab.harness import gen_bursty

N = 300
SEEDS = (1, 2, 3)
SHIFTS = (0.0, 1e6, 1e12)
PHASES = '{"alg":"phases"}'
TRACE_TOKEN = "<trace>"

MODELS = (
    max_wait(Objective.SUM_BATCH),
    max_wait_pow(2, Objective.SUM_BATCH),
    max_wait_pow(3, Objective.SUM_BATCH),
    linear_sum(),
    capped_linear(1.0),
    permit_plf(num_classes=32),
)


def timeline(shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "bursty":
        return np.asarray(gen_bursty(N, 1.0, 100.0, 0.001, rng))
    uniform = np.cumsum(rng.exponential(1.0, N))
    return np.round(uniform * 64) / 64 if shape == "grid" else uniform


def call(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of ``ack`` on ``argv``, which must
    succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"ack {' '.join(argv)} exited {code}")
    return code, out.getvalue()


def instance_hash(model: dict, arrivals: list[float], workdir: Path) -> str:
    instance, trace = workdir / "instance.json", workdir / "trace.jsonl"
    instance.write_text(json.dumps({"arrivals": arrivals, "model": model}), encoding="utf-8")
    h = hashlib.sha256()
    code, report = call(["solve", "--instance", str(instance), "--oracle", "dp"])
    h.update(f"{code}\n{report}".encode())
    code, report = call(
        ["run", "--instance", str(instance), "--alg", PHASES, "--trace", str(trace)]
    )
    h.update(f"{code}\n{report.replace(json.dumps(str(trace)), json.dumps(TRACE_TOKEN))}".encode())
    with open(trace, "rb") as fh:
        for line in fh:
            h.update(hashlib.sha256(line).hexdigest().encode())
    return h.hexdigest()


def cases(workdir: Path):
    for spec in MODELS:
        model = model_to_json(spec)
        text = json.dumps(model, separators=(",", ":"))
        for shape in ("uniform", "bursty", "grid"):
            for seed in SEEDS:
                for shift in SHIFTS:
                    arrivals = (timeline(shape, seed) + shift).tolist()
                    digest = instance_hash(model, arrivals, workdir)
                    yield f"{text} {shape} {seed} {shift:g} {digest}"
    code, report = call(["adversary", "--kind", "permit", "--n", "930", "--alg", PHASES])
    digest = hashlib.sha256(f"{code}\n{report}".encode()).hexdigest()
    model = json.dumps(model_to_json(permit_plf(num_classes=600)), separators=(",", ":"))
    yield f"{model} adversary-930 - - {digest}"


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        for line in cases(Path(tmp)):
            print(line)
            lines.append(line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(len(lines), digest)
    return 0


if __name__ == "__main__":
    sys.exit(run())
