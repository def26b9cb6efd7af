"""Identity corpus: a digest of ``ack`` outputs that a refactor must keep.

Run from the repository root::

    PYTHONPATH=src python tests/identity_corpus.py

In one process it calls :func:`acklab.cli.main` on 465 cases and prints one
line per case, ``<model json> <shape> <seed> <shift> <sha256>``, then a last
line ``<cases> <digest>``.

* 162 batch instances: the models ``max_wait``, ``max_wait_pow`` p = 2 and
  3 (sum objective), ``linear_sum``, ``capped_linear`` tau = 1 and
  ``permit_plf`` K = 32; the timelines ``uniform`` (cumulative exponential
  gaps of mean 1), ``bursty`` (``gen_bursty(300, 1.0, 100.0, 0.001)``) and
  ``grid`` (uniform rounded to 1/64); n = 300, seeds 1-3, shifts 0, 1e6
  and 1e12.  Each runs ``ack solve --oracle dp`` and ``ack run --alg
  '{"alg":"phases"}' --trace``.  A case's hash covers both exit codes,
  both reports (the trace path in the ``run`` report replaced by a fixed
  token) and the SHA-256 of every trace line.
* One permit game: ``ack adversary --kind permit --n 930 --alg
  '{"alg":"phases"}'``, hashed over its exit code and report.
* 216 vector instances: the models ``lp`` p = 1.5, 2, 3, 7.5 and inf,
  ``top_k`` k = 2 and 9 and a 12-weight ``ordered`` norm on the same
  timelines.
  Each runs ``ack run --trace`` under ``vector_greedy`` and under
  ``greedy_tau_vector``, hashed as above.
* Two concave games: ``ack adversary --kind concave --n 400`` under
  ``vector_greedy`` and under ``greedy_tau_vector``.
* 81 ``greedy_tau`` instances: ``permit_plf`` K = 1, 32 and 600 on the
  batch timelines, each running ``ack run --alg
  '{"alg":"greedy_tau","tau":1.0}' --trace``, hashed as above.  Their
  shape reads ``greedy_tau:<timeline>``.
* The permit game under ``greedy_tau``: ``ack adversary --kind permit --n
  930 --alg '{"alg":"greedy_tau","tau":1.0}'``.
* One ``ack bench`` sweep: ``linear_sum``, ``capped_linear`` tau = 1 and
  ``permit_plf`` K = 32 under ``greedy_tau`` tau = 1 and 0.5 and under
  ``phases``, on uniform timelines, n = 300, seeds 1-3, DP oracle.  Its
  hash covers the exit code, the report (the output directory replaced by
  a fixed token) and the rows of ``bench.csv`` without the ``runtime_ms``
  column, the one column that changes between runs.
* The greedy lower-bound game: ``ack adversary --kind greedy_tau --n
  2000``, under its default policy ``greedy_tau`` tau = 1.

The first 463 lines are those of the script before the last two cases.

The digest is the SHA-256 of the case lines joined by newlines.  Two trees
that give the same digest on one machine gave the same offline optima,
schedules, costs and traces on every case.  Digests of different NumPy or
libm builds may differ, so the script checks no golden value; it exits 0
once every case has run and exited 0.
"""

from __future__ import annotations

import contextlib
import csv
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
    gen_greedy_tau_hard,
    concave_two_piece,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    ordered_norm,
    permit_plf,
    top_k,
)
from acklab.cli import main
from acklab.cost import model_to_json
from acklab.harness import gen_bursty

N = 300
SEEDS = (1, 2, 3)
SHIFTS = (0.0, 1e6, 1e12)
PHASES = '{"alg":"phases"}'
GREEDY_TAU = '{"alg":"greedy_tau","tau":1.0}'
TRACE_TOKEN = "<trace>"
OUT_TOKEN = "<out>"

MODELS = (
    max_wait(Objective.SUM_BATCH),
    max_wait_pow(2, Objective.SUM_BATCH),
    max_wait_pow(3, Objective.SUM_BATCH),
    linear_sum(),
    capped_linear(1.0),
    permit_plf(num_classes=32),
)
VECTOR_MODELS = (
    lp_norm(1.5),
    lp_norm(2),
    lp_norm(3),
    lp_norm(7.5),
    lp_norm(float("inf")),
    top_k(2),
    top_k(9),
    ordered_norm((3.0, 2.5, 2.5, 2.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.1, 0.1, 0.0)),
)
VECTOR_POLICIES = ('{"alg":"vector_greedy"}', '{"alg":"greedy_tau_vector"}')
GREEDY_TAU_MODELS = tuple(permit_plf(num_classes=k) for k in (1, 32, 600))
BENCH_MODELS = (linear_sum(), capped_linear(1.0), permit_plf(num_classes=32))
BENCH_POLICIES = (GREEDY_TAU, '{"alg":"greedy_tau","tau":0.5}', PHASES)


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


def instance_hash(spec, arrivals: list[float], workdir: Path, policies=None) -> str:
    """A batch instance's hash: its DP optimum and its run under phases.  A
    vector instance's: its runs under the vector policies.  Given
    ``policies``, the runs under them alone."""
    instance, trace = workdir / "instance.json", workdir / "trace.jsonl"
    model = model_to_json(spec)
    instance.write_text(json.dumps({"arrivals": arrivals, "model": model}), encoding="utf-8")
    h = hashlib.sha256()
    if policies is None and spec.objective is Objective.VECTOR:
        policies = VECTOR_POLICIES
    elif policies is None:
        code, report = call(["solve", "--instance", str(instance), "--oracle", "dp"])
        h.update(f"{code}\n{report}".encode())
        policies = (PHASES,)
    for alg in policies:
        code, report = call(
            ["run", "--instance", str(instance), "--alg", alg, "--trace", str(trace)]
        )
        report = report.replace(json.dumps(str(trace)), json.dumps(TRACE_TOKEN))
        h.update(f"{code}\n{report}".encode())
        with open(trace, "rb") as fh:
            for line in fh:
                h.update(hashlib.sha256(line).hexdigest().encode())
    return h.hexdigest()


def game_line(model, name: str, argv: list[str]) -> str:
    code, report = call(["adversary", *argv])
    digest = hashlib.sha256(f"{code}\n{report}".encode()).hexdigest()
    return f"{json.dumps(model_to_json(model), separators=(',', ':'))} {name} - - {digest}"


def bench_line(workdir: Path) -> str:
    """The case line of one ``ack bench`` sweep, hashed without its
    timings."""
    config, out = workdir / "bench.json", workdir / "bench"
    config.write_text(json.dumps({
        "generators": [{"kind": "uniform", "rate": 1.0}],
        "models": [model_to_json(spec) for spec in BENCH_MODELS],
        "algorithms": [json.loads(alg) for alg in BENCH_POLICIES],
        "n": [N],
        "seeds": list(SEEDS),
        "oracle": "dp",
    }), encoding="utf-8")
    code, report = call(["bench", "--config", str(config), "--out", str(out)])
    report = report.replace(json.dumps(str(out)), json.dumps(OUT_TOKEN))
    with open(out / "bench.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    timing = rows[0].index("runtime_ms")
    rows = [row[:timing] + row[timing + 1:] for row in rows]
    digest = hashlib.sha256(f"{code}\n{report}\n{json.dumps(rows)}".encode()).hexdigest()
    models = json.dumps([model_to_json(spec) for spec in BENCH_MODELS], separators=(",", ":"))
    return f"{models} bench-{N} - - {digest}"


def instance_lines(models, workdir: Path, alg: str | None = None):
    """The case lines of ``models`` on every timeline, seed and shift;
    with ``alg``, of its runs alone, the shape prefixed by its name."""
    prefix = "" if alg is None else f"{json.loads(alg)['alg']}:"
    policies = None if alg is None else (alg,)
    for spec in models:
        text = json.dumps(model_to_json(spec), separators=(",", ":"))
        for shape in ("uniform", "bursty", "grid"):
            for seed in SEEDS:
                for shift in SHIFTS:
                    arrivals = (timeline(shape, seed) + shift).tolist()
                    digest = instance_hash(spec, arrivals, workdir, policies)
                    yield f"{text} {prefix}{shape} {seed} {shift:g} {digest}"


def cases(workdir: Path):
    yield from instance_lines(MODELS, workdir)
    yield game_line(
        permit_plf(num_classes=600), "adversary-930",
        ["--kind", "permit", "--n", "930", "--alg", PHASES],
    )
    yield from instance_lines(VECTOR_MODELS, workdir)
    # The concave game's model, concave_two_piece with ell = ceil(sqrt(n)),
    # eps = 1 / n**2 and dim n, at n = 400.
    concave = concave_two_piece(20, 1.0 / 400**2, 400)
    for alg in VECTOR_POLICIES:
        name = f"concave-400-{json.loads(alg)['alg']}"
        yield game_line(concave, name, ["--kind", "concave", "--n", "400", "--alg", alg])
    yield from instance_lines(GREEDY_TAU_MODELS, workdir, GREEDY_TAU)
    yield game_line(
        permit_plf(num_classes=600), "adversary-930-greedy_tau",
        ["--kind", "permit", "--n", "930", "--alg", GREEDY_TAU],
    )
    yield bench_line(workdir)
    yield game_line(
        gen_greedy_tau_hard(2000, 1.0, 1e-3).model, "adversary-greedy_tau-2000",
        ["--kind", "greedy_tau", "--n", "2000"],
    )


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
