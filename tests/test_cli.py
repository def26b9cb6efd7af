import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acklab import batches_from_acks, lp_norm
from acklab.algorithms import ALGORITHMS
from acklab.cli import main
from acklab.cost import BATCH_KINDS, VECTOR_KINDS, aggregate
from acklab.engine import TraceEvent
from acklab.harness import DEFAULT_SEED, BenchRow, base_seed, rows_to_csv
from acklab.tolerance import tol_at

SRC = Path(__file__).resolve().parents[1] / "src"


def write_instance(tmp_path, arrivals, model, name="inst.json", horizon=None):
    obj = {"arrivals": arrivals, "model": model}
    if horizon is not None:
        obj["horizon"] = horizon
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def frozen_baseline(spec, arrivals, ack_times):
    """The vector cost of a schedule as ``vector_greedy`` keeps it: its
    running aggregate with every batch frozen at its ack, which is the
    policy's final baseline when the schedule is its own."""
    frozen = aggregate(spec)
    cost = 0.0
    for batch in batches_from_acks(arrivals, ack_times):
        origin = arrivals[batch.start]
        for j in batch.indices:
            frozen.add(arrivals[j] - origin)
        cost = frozen.freeze(batch.ack_time - origin)
    return cost


OVERFLOW_ARRIVALS = [0, 1, 2.5, 100]
SATURATED_MODEL = {"kind": "max_wait_pow", "p": 1e300, "objective": "sum"}


def strict_loads(text):
    """``json.loads`` that rejects ``Infinity``, ``-Infinity`` and ``NaN``."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)

# A 401-digit JSON integer: a number, but not one a float can hold.
BIG_INT = 10**400

BAD_TAUS = ["null", "[1]", "true", '"inf"', '"1"', "NaN", "Infinity", "0", "-1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSolve:
    def test_linear_example(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 0.5, 3], {"kind": "linear_sum"})
        code, out = run_cli(capsys, "solve", "--instance", path)
        assert code == 0
        got = json.loads(out)
        assert got["total"] == pytest.approx(2.5)
        assert got["ack_times"] == [0.5, 3.0]

    def test_empty_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, [], {"kind": "linear_sum"})
        code, out = run_cli(capsys, "solve", "--instance", path)
        assert code == 0 and json.loads(out)["total"] == 0.0

    def test_brute_size_guard_exit_3(self, tmp_path, capsys):
        path = write_instance(tmp_path, list(range(25)), {"kind": "linear_sum"})
        code, _ = run_cli(capsys, "solve", "--instance", path, "--oracle", "brute")
        assert code == 3

    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "linear_sum", "objective": "bogus"},
            # The objective is checked before the keys and the parameters.
            {"kind": "linear_sum", "objective": "bogus", "tau": 1.0},
            {"kind": "ordered", "objective": "bogus", "w": 1.0},
        ],
    )
    def test_unknown_objective_message(self, tmp_path, capsys, model):
        path = write_instance(tmp_path, [0, 1], model)
        code = main(["solve", "--instance", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: 'bogus' is not a valid Objective\n"

    def test_dp_rejects_max_objective(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 1], {"kind": "max_wait"})
        code, _ = run_cli(capsys, "solve", "--instance", path, "--oracle", "dp")
        assert code == 2

    @pytest.mark.parametrize(
        "model, oracle",
        [
            ({"kind": "max_wait"}, "brute"),
            ({"kind": "top_k", "k": 3}, "brute"),
            ({"kind": "lp", "p": 2}, "brute"),
            ({"kind": "linear_sum"}, "dp"),
            ({"kind": "max_wait", "objective": "sum"}, "dp"),
        ],
    )
    def test_auto_oracle_is_the_default(self, tmp_path, capsys, model, oracle):
        # Without --oracle, sum objectives take the DP and the others brute
        # force, and the output names the oracle that ran.
        arrivals = [0.0, 0.4, 1.9, 2.0, 3.5, 3.6, 3.7, 6.0, 6.2, 8.9, 9.0, 9.5, 12.0]
        path = write_instance(tmp_path, arrivals, model)
        code, out = run_cli(capsys, "solve", "--instance", path)
        assert code == 0
        default = json.loads(out)
        assert default["oracle"] == oracle
        code, out = run_cli(capsys, "solve", "--instance", path, "--oracle", oracle)
        assert code == 0 and json.loads(out) == default

    @pytest.mark.parametrize("model", [{"kind": "max_wait"}, {"kind": "top_k", "k": 3}])
    def test_auto_oracle_keeps_the_brute_force_guard(self, tmp_path, capsys, model):
        path = write_instance(tmp_path, [float(i) for i in range(30)], model)
        code, out = run_cli(capsys, "solve", "--instance", path)
        assert code == 3 and out == ""

    @pytest.mark.parametrize(
        "model", [{"kind": "linear_sum"}, {"kind": "capped_linear", "tau": 1.0}]
    )
    def test_span_past_float_range_exit_2(self, tmp_path, capsys, model):
        # 3 * 1.7e308 leaves the float range, so the batch formulas would
        # overflow (the DP used to return NaN, bdelay to raise from fsum).
        path = write_instance(tmp_path, [0, 1e308, 1.7e308], model)
        for argv in (
            ("solve", "--instance", path, "--oracle", "dp"),
            ("solve", "--instance", path, "--oracle", "brute"),
            ("run", "--instance", path, "--alg", '{"alg":"phases"}',
             "--trace", str(tmp_path / "t.jsonl")),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv

    @pytest.mark.parametrize(
        "arrivals, model, horizon",
        [
            ([0, float("nan"), 2], {"kind": "linear_sum"}, None),
            ([0, float("inf")], {"kind": "linear_sum"}, None),
            ([0, 1], {"kind": "linear_sum"}, float("inf")),
            ([0, 1], {"kind": "capped_linear", "tau": "1"}, None),
            ([0, 1], {"kind": "permit_plf", "K": True}, None),
            ([0, 1], {"kind": "max_wait_pow", "p": float("nan")}, None),
            (5, {"kind": "linear_sum"}, None),
            (None, {"kind": "linear_sum"}, None),
            ([0, 1], {"kind": "ordered", "w": 5}, None),
            ([0, 1], {"kind": "ordered", "w": None}, None),
            ([0, 1], {"kind": "linear_sum", "tau": 1}, None),
            ([0, 1], {"kind": "lp", "p": 2, "w": [1, 2]}, None),
            ([0, 1], {"kind": [1]}, None),
            ([0, 1], {"kind": {"a": 1}}, None),
        ],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, arrivals, model, horizon):
        path = write_instance(tmp_path, arrivals, model, horizon=horizon)
        for argv in (
            ("solve", "--instance", path, "--oracle", "brute"),
            ("run", "--instance", path, "--alg", '{"alg":"greedy_tau"}',
             "--trace", str(tmp_path / "t.jsonl")),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2 and out == ""

    def test_permit_classes_default_to_32(self, tmp_path, capsys):
        outs = []
        for model in ({"kind": "permit_plf"}, {"kind": "permit_plf", "K": 32}):
            path = write_instance(tmp_path, [0, 1, 5], model)
            code, out = run_cli(capsys, "solve", "--instance", path)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run_cli(capsys, "solve", "--instance", str(bad))
        assert code == 2

    @pytest.mark.parametrize("oracle, objective", [("brute", "max"), ("dp", "sum")])
    def test_power_past_float_range(self, tmp_path, capsys, oracle, objective):
        # 2.5**200 and 99**200 leave the float range; those batches cost
        # +inf and the optimum, one ack per packet, stays finite.
        model = {"kind": "max_wait_pow", "p": 200, "objective": objective}
        path = write_instance(tmp_path, OVERFLOW_ARRIVALS, model)
        code, out = run_cli(capsys, "solve", "--instance", path, "--oracle", oracle)
        assert code == 0
        assert json.loads(out)["total"] == 4.0


class TestRun:
    def test_phases_example(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 0.1], {"kind": "linear_sum"})
        trace = tmp_path / "t.jsonl"
        code, out = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"phases"}',
            "--trace", str(trace),
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.2, abs=1e-6)
        lines = trace.read_text().strip().split("\n")
        events = [json.loads(line) for line in lines]
        assert events[0]["kind"] == "arrival"
        assert all(
            a["time"] <= b["time"] for a, b in zip(events, events[1:])
        )

    def test_trace_is_written_event_by_event(self, tmp_path, capsys, monkeypatch):
        # The run hands the driver a sink that writes each event's line as
        # the driver makes it, to the default path when no --trace is given.
        from acklab import cli, engine

        events = []

        def simulate(instance, algorithm, sink=None):
            assert sink is not None

            def both(event):
                events.append(event)
                sink(event)

            return engine.simulate(instance, algorithm, both)

        monkeypatch.setattr(cli, "simulate", simulate)
        path = write_instance(tmp_path, [0, 0.1, 0.15, 2.0, 2.05, 5.0], {"kind": "linear_sum"})
        code, out = run_cli(capsys, "run", "--instance", path, "--alg", '{"alg":"phases"}')
        assert code == 0
        trace = json.loads(out)["trace"]
        assert trace == path + ".trace.jsonl"
        assert len(events) > 12 and {ev.kind for ev in events} > {"arrival", "ack"}
        assert Path(trace).read_text() == "".join(ev.to_json_line() + "\n" for ev in events)

    def test_run_memory_per_packet(self, tmp_path, capsys):
        # The whole command's tracemalloc peak under greedy_tau on
        # linear_sum reads 143 bytes a packet.  It is reached while
        # evaluate_schedule's Batch list (73 a packet) is alive beside the
        # loaded instance (32) and the ack times (18).  The bound is that
        # reading plus 25 %.
        n = 20000
        arrivals = np.cumsum(np.random.default_rng(1).exponential(1.0, n)).tolist()
        path = write_instance(tmp_path, arrivals, {"kind": "linear_sum"})
        argv = ["run", "--instance", path, "--alg", '{"alg":"greedy_tau","tau":1.0}',
                "--trace", str(tmp_path / "t.jsonl")]
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["acks"] > n // 4
        assert peak <= 179 * n, peak / n

    def test_phases_with_power_past_float_range(self, tmp_path, capsys):
        path = write_instance(tmp_path, OVERFLOW_ARRIVALS, SATURATED_MODEL)
        code, _ = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"phases"}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0

    def test_phases_with_permit_classes_past_float_range(self, tmp_path, capsys):
        # With K = 600 the first search keeps classes up to 512 for a span
        # past 4**511, and the next one compares its span with 4**512, which
        # a float power cannot hold.
        path = write_instance(
            tmp_path, [0.0, 5e307, 5.5e307], {"kind": "permit_plf", "K": 600}
        )
        code, out = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"phases"}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        assert strict_loads(out)["acks"] == 3

    def test_infinite_cost_is_strict_json(self, tmp_path, capsys):
        # The first ack lands one float after 1.0, where the batch cost jumps
        # from 1 to +inf, so the run's delay and total are +inf.
        path = write_instance(tmp_path, OVERFLOW_ARRIVALS, SATURATED_MODEL)
        trace = tmp_path / "t.jsonl"
        code, out = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"phases"}',
            "--trace", str(trace),
        )
        assert code == 0
        got = strict_loads(out)
        assert (got["delay"], got["total"]) == ("inf", "inf")
        for line in trace.read_text().splitlines():
            strict_loads(line)

    def test_trace_lines_are_strict_json(self):
        line = TraceEvent(1.0, "budget_update", {"new": math.inf}).to_json_line()
        assert strict_loads(line)["detail"]["new"] == "inf"
        with pytest.raises(ValueError):
            TraceEvent(1.0, "budget_update", {"new": math.nan}).to_json_line()

    def test_trace_schema(self, tmp_path, capsys):
        # Each event kind carries exactly these detail keys (the README's
        # trace table).  The phases run reaches all four phase events; greedy_tau
        # at tau = 2 never reaches its target under a cap of 1 and is flushed.
        def key_sets(arrivals, model, alg):
            path = write_instance(tmp_path, arrivals, model)
            trace = tmp_path / "t.jsonl"
            code, _ = run_cli(
                capsys, "run", "--instance", path, "--alg", alg, "--trace", str(trace)
            )
            assert code == 0
            seen = {}
            for line in trace.read_text().splitlines():
                event = json.loads(line)
                assert set(event) == {"time", "kind", "detail"}
                seen.setdefault(event["kind"], set()).add(frozenset(event["detail"]))
            return seen

        phases = key_sets(
            [1.0, 1.25, 2.25, 2.5, 5.5, 7.5, 7.75, 7.75, 8.0, 9.5, 9.75, 12.0, 12.0, 13.0],
            {"kind": "linear_sum"},
            '{"alg":"phases"}',
        )
        assert phases == {
            "arrival": {frozenset({"index"})},
            "ack": {frozenset({"indices"})},
            "service_start": {
                frozenset({"service", "budget", "serve_cost", "suffix_start"}),
                frozenset({"service", "index", "budget", "serve_cost"}),
            },
            "budget_update": {frozenset({"old", "new", "serve_cost"})},
            "promotion": {frozenset({"budget", "serve_cost", "suffix_start"})},
        }
        flushed = key_sets(
            [0.0, 0.5], {"kind": "capped_linear", "tau": 1.0}, '{"alg":"greedy_tau","tau":2.0}'
        )
        assert flushed == {
            "arrival": {frozenset({"index"})},
            "ack": {frozenset({"indices"})},
            "flush": {frozenset()},
        }

    def test_greedy_single(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0], {"kind": "linear_sum"})
        code, out = run_cli(
            capsys, "run", "--instance", path,
            "--alg", '{"alg":"greedy_tau","tau":1.0}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.0, abs=1e-6)

    def test_greedy_tau_at_float_spacing(self, tmp_path, capsys):
        # At 1e17 the float spacing is 16, so each packet waits one spacing.
        path = write_instance(
            tmp_path, [1e17, 1e17 + 64, 1e17 + 128], {"kind": "linear_sum"}
        )
        code, out = run_cli(
            capsys, "run", "--instance", path,
            "--alg", '{"alg":"greedy_tau","tau":1.0}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        got = json.loads(out)
        assert got["delay"] == 48.0 and got["acks"] == 3

    def test_target_past_the_float_range_flushes_at_the_horizon(self, tmp_path, capsys):
        # The permit crossing overflows to +inf.
        path = write_instance(tmp_path, [0, 1, 2], {"kind": "permit_plf"})
        code, out = run_cli(
            capsys, "run", "--instance", path,
            "--alg", json.dumps({"alg": "greedy_tau", "tau": 1e300}),
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0 and out.count("\n") == 1
        assert json.loads(out)["ack_times"] == [2]

    def test_linear_target_past_the_product_overflow_is_met(self, tmp_path, capsys):
        # 2 t overflows from t = 2**1023 on, but the batch cost 2 t - 5e307
        # meets tau = 1.7e308 at t = 1.1e308, inside the float range, and
        # the report prices the batch there.
        path = write_instance(tmp_path, [0, 5e307], {"kind": "linear_sum"})
        code, out = run_cli(
            capsys, "run", "--instance", path,
            "--alg", json.dumps({"alg": "greedy_tau", "tau": 1.7e308}),
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        got = strict_loads(out)
        assert got["ack_times"] == [1.1e308] and got["delay"] == 1.7e308

    @pytest.mark.parametrize(
        "arrivals, model, tau, ack_time, flushed",
        [
            # Newton's first step overflows and lands at 0, 5e307 below.
            ([0, 1], {"kind": "top_k", "k": 2}, 1e308, 5e307, False),
            # goal / w1 overflows; even the largest float falls short.
            ([0], {"kind": "ordered", "w": [1e-300]}, 1e10, 0.0, True),
            # The norm's slope at 0 divided by a zero norm.
            ([0, 1, 2], {"kind": "lp", "p": 2}, 1.7e308, 9.814954576223639e307, False),
        ],
    )
    def test_extreme_targets_end(self, tmp_path, capsys, arrivals, model, tau, ack_time, flushed):
        path, trace = write_instance(tmp_path, arrivals, model), tmp_path / "t.jsonl"
        code, out = run_cli(
            capsys, "run", "--instance", path,
            "--alg", json.dumps({"alg": "greedy_tau", "tau": tau}), "--trace", str(trace),
        )
        assert code == 0
        assert strict_loads(out)["ack_times"] == [ack_time]
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert ("flush" in kinds) == flushed

    def run_lp_400(self, tmp_path, capsys, alg, arrivals):
        """``ack run`` on ``lp`` with p = 400; checks the printed delay
        against the cost the policy's aggregate freezes for the schedule."""
        path = write_instance(tmp_path, arrivals, {"kind": "lp", "p": 400})
        code, out = run_cli(
            capsys, "run", "--instance", path, "--alg", alg,
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        got = json.loads(out)
        want = frozen_baseline(lp_norm(400), arrivals, got["ack_times"])
        assert abs(got["delay"] - want) <= tol_at(want)
        return got["ack_times"]

    @pytest.mark.parametrize(
        "alg, ack_times",
        [
            ('{"alg":"vector_greedy"}', [1.0, 4.0, 8.0, 13.0, 19.0, 26.0, 34.0]),
            ('{"alg":"greedy_tau_vector","tau":3.0}', [3.0 + 4 * i for i in range(8)]),
        ],
    )
    def test_lp_with_large_p(self, tmp_path, capsys, alg, ack_times):
        # Delays past 5.9 have a 400th power beyond the float range; the
        # policies' ack times and the printed delay must not depend on it.
        assert self.run_lp_400(tmp_path, capsys, alg, list(range(30))) == ack_times

    def test_lp_with_large_p_and_small_delays(self, tmp_path, capsys):
        # Delays near 1e-3 have a 400th power below the float range.
        alg = '{"alg":"greedy_tau_vector","tau":3e-3}'
        acks = self.run_lp_400(tmp_path, capsys, alg, [1e-3 * i for i in range(30)])
        assert acks == pytest.approx([3e-3 + 4e-3 * i for i in range(8)], rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "lp", "p": 1},
            {"kind": "lp", "p": 2},
            {"kind": "lp", "p": "inf"},
            {"kind": "top_k", "k": 3},
            {"kind": "ordered", "w": [1.0, 0.5, 0.25]},
            {"kind": "sum_vector"},
            {"kind": "concave_two_piece", "ell": 4, "eps": 0.05, "n": 30},
        ],
        ids=lambda model: "-".join(str(v) for v in model.values() if not isinstance(v, list)),
    )
    @pytest.mark.parametrize("tau", [1.0, 2.5])
    def test_greedy_selectors_agree_on_vector_models(self, tmp_path, capsys, model, tau):
        # greedy_tau_vector is another name for greedy_tau.
        arrivals = [0.37 * i + 0.11 * (i % 3) for i in range(30)]
        path = write_instance(tmp_path, arrivals, model)
        runs = []
        for alg in ("greedy_tau", "greedy_tau_vector"):
            trace = tmp_path / f"{alg}.jsonl"
            code, out = run_cli(
                capsys, "run", "--instance", path, "--alg", f'{{"alg":"{alg}","tau":{tau}}}',
                "--trace", str(trace),
            )
            assert code == 0
            report = json.loads(out)
            assert report.pop("trace") == str(trace)
            runs.append((report, trace.read_text()))
        assert runs[0] == runs[1]
        assert len(runs[0][0]["ack_times"]) > 1 and runs[0][1].count("\n") > 30

    @pytest.mark.parametrize("alg", ["greedy_tau", "greedy_tau_vector"])
    def test_greedy_selectors_reject_max_models(self, tmp_path, capsys, alg):
        path = write_instance(tmp_path, [0, 1], {"kind": "max_wait"})
        code = main(
            ["run", "--instance", path, "--alg", f'{{"alg":"{alg}"}}',
             "--trace", str(tmp_path / "t.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "sum-aggregated or vector model" in captured.err

    def test_mismatch_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 1], {"kind": "linear_sum"})
        code, _ = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"max_mono"}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "alg, stray",
        [('{"alg":"greedy_tau","tua":0.5}', "tua"), ('{"alg":"phases","tau":2}', "tau")],
    )
    def test_key_the_algorithm_does_not_take_exit_2(self, tmp_path, capsys, alg, stray):
        path = write_instance(tmp_path, [0, 1], {"kind": "linear_sum"})
        code = main(["run", "--instance", path, "--alg", alg, "--trace", str(tmp_path / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: algorithm {json.loads(alg)['alg']!r} takes no key '{stray}'\n"

    @pytest.mark.parametrize("below", ["missing", "inst.json"])
    def test_unwritable_trace_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch, below):
        # A trace path in a missing directory or below a regular file.
        from acklab import cli

        def no_simulation(*args):
            raise AssertionError("simulated before checking the trace path")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        path = write_instance(tmp_path, [0, 1], {"kind": "linear_sum"})
        trace = tmp_path / below / "t.jsonl"
        code = main(["run", "--instance", path, "--alg", '{"alg":"phases"}', "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("tau", BAD_TAUS)
    @pytest.mark.parametrize(
        "alg, model",
        [("greedy_tau", {"kind": "linear_sum"}), ("greedy_tau_vector", {"kind": "lp", "p": 2})],
    )
    def test_bad_tau_exit_2(self, tmp_path, capsys, alg, model, tau):
        path = write_instance(tmp_path, [0, 1], model)
        code, out = run_cli(
            capsys, "run", "--instance", path, "--alg", f'{{"alg":"{alg}","tau":{tau}}}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 2 and out == ""


class TestAdversary:
    def test_greedy_tau_kind(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "--kind", "greedy_tau", "--n", "10",
            "--alg", '{"alg":"greedy_tau","tau":1.0}',
        )
        assert code == 0
        got = json.loads(out)
        assert got["ratio"] == pytest.approx(10.0, abs=1e-6)

    def test_concave_kind(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "--kind", "concave", "--n", "16",
            "--alg", '{"alg":"vector_greedy"}',
        )
        assert code == 0
        got = json.loads(out)
        assert got["branch"] in (1, 2) and got["ratio"] > 0

    def test_permit_kind(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "--kind", "permit", "--n", "8",
            "--alg", '{"alg":"phases"}',
        )
        assert code == 0
        got = json.loads(out)
        assert got["chained"] is True
        assert got["ratio"] >= 1.0

    @pytest.mark.parametrize("alg", ["max_mono", "phases"])
    def test_vector_alg_on_concave_required(self, capsys, alg):
        code, _ = run_cli(
            capsys, "adversary", "--kind", "concave", "--n", "8", "--alg", f'{{"alg":"{alg}"}}'
        )
        assert code == 2

    @pytest.mark.parametrize("n", [8, 64])
    def test_greedy_selectors_agree_on_concave(self, capsys, n):
        reports = [
            run_cli(
                capsys, "adversary", "--kind", "concave", "--n", str(n),
                "--alg", f'{{"alg":"{alg}","tau":1.0}}',
            )
            for alg in ("greedy_tau", "greedy_tau_vector")
        ]
        assert reports[0] == reports[1] and reports[0][0] == 0

    @pytest.mark.parametrize("tau", BAD_TAUS)
    @pytest.mark.parametrize(
        "kind, alg",
        [("greedy_tau", "greedy_tau"), ("permit", "greedy_tau"), ("concave", "greedy_tau_vector")],
    )
    def test_bad_tau_exit_2(self, capsys, kind, alg, tau):
        code, out = run_cli(
            capsys, "adversary", "--kind", kind, "--n", "8",
            "--alg", f'{{"alg":"{alg}","tau":{tau}}}',
        )
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "args",
        [
            *(
                ("--kind", kind, "--n", n)
                for kind in ("greedy_tau", "concave", "permit")
                for n in ("0", "-3")
            ),
            *(("--kind", "greedy_tau", "--n", "8", "--tau", t) for t in ("nan", "inf", "0", "-1")),
            ("--kind", "greedy_tau", "--n", "8", "--tau", "1", "--eps", "1"),
            ("--kind", "greedy_tau", "--n", "8", "--tau", "0.5", "--eps", "2"),
        ],
    )
    def test_bad_generator_input_exit_2(self, capsys, args):
        alg = '{"alg":"vector_greedy"}' if "concave" in args else '{"alg":"greedy_tau"}'
        code, out = run_cli(capsys, "adversary", *args, "--alg", alg)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "n, alg_cost, reference_cost, max_class",
        [(300, 2096.0, 173.0, 5), (1200, 15755.0, 701.0, 11)],
    )
    def test_permit_game_under_phases_pinned(self, capsys, n, alg_cost, reference_cost, max_class):
        code, out = run_cli(
            capsys, "adversary", "--kind", "permit", "--n", str(n), "--alg", '{"alg":"phases"}'
        )
        assert code == 0
        got = json.loads(out)
        assert (got["alg_cost"], got["reference_cost"], got["max_class"]) == (
            alg_cost, reference_cost, max_class
        )
        assert got["chained"] is True

    def test_permit_game_past_ten_thousand_requests(self, capsys):
        # The exact cover DP has no request limit: the game's optimum is
        # reported however many requests it plays.
        code, out = run_cli(capsys, "adversary", "--kind", "permit", "--n", "10001")
        assert code == 0
        got = json.loads(out)
        assert (got["n_requests"], got["alg_cost"], got["reference_cost"]) == (10001, 10001.0, 192.0)
        assert got["chained"] is True


class TestModuleEntryPoint:
    """``python -m acklab`` from a source checkout, without installing."""

    def run_module(self, tmp_path, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "acklab", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_solve(self, tmp_path):
        path = write_instance(tmp_path, [0, 0.5, 3], {"kind": "linear_sum"})
        proc = self.run_module(tmp_path, "solve", "--instance", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ack_times"] == [0.5, 3.0]

    def test_unknown_subcommand_exit_2(self, tmp_path):
        proc = self.run_module(tmp_path, "nope")
        assert proc.returncode == 2 and proc.stdout == ""


BENCH_CONFIG = {
    "generators": [{"kind": "uniform", "rate": 1.0}],
    "models": [{"kind": "linear_sum"}],
    "algorithms": [{"alg": "greedy_tau", "tau": 1.0}, {"alg": "phases"}],
    "n": [4, 8],
    "seeds": 3,
    "svg": True,
}


class TestBench:
    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        csv_text = (out_dir / "bench.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("instance_id,n,model_kind,alg_spec")
        assert len(lines) == 1 + 2 * 2 * 3  # 2 algs x 2 sizes x 3 seeds
        summary = json.loads((out_dir / "summary.json").read_text())
        assert all(g["max_ratio"] >= g["mean_ratio"] - 1e-12 for g in summary["groups"])
        assert (out_dir / "ratio.svg").read_text().startswith("<svg")

    def test_infinite_ratio_is_strict_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "generators": [{"kind": "uniform", "rate": 1.0}],
            "models": [SATURATED_MODEL],
            "algorithms": [{"alg": "phases"}],
            "n": [4],
            "seeds": [1, 2, 3],
        }))
        out_dir = tmp_path / "out"
        code, out = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        strict_loads(out)
        (group,) = strict_loads((out_dir / "summary.json").read_text())["groups"]
        assert group["max_ratio"] == "inf"

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": [], "algorithms": [], "n": []}))
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "bench.csv").read_text().strip().split("\n")
        assert len(lines) == 1

    def test_csv_columns_are_the_bench_row_fields(self):
        row = BenchRow("i", 3, "linear_sum", '{"alg": "phases"}', 2 / 3, 1.5, "dp", math.inf, 0.1, 7)
        assert rows_to_csv([row]) == (
            "instance_id,n,model_kind,alg_spec,alg_cost,opt_cost,oracle,ratio,runtime_ms,seed\n"
            'i,3,linear_sum,"{""alg"": ""phases""}",0.666666666667,1.5,dp,inf,0.1,7\n'
        )

    def test_deterministic_modulo_runtime(self, tmp_path, capsys):
        import csv as csv_mod

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        csvs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
            assert code == 0
            with open(out_dir / "bench.csv", newline="") as fh:
                rows = list(csv_mod.reader(fh))
            drop = rows[0].index("runtime_ms")
            csvs.append([[c for i, c in enumerate(r) if i != drop] for r in rows])
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("out", ["cfg.json", "cfg.json/out", "cfg.json/out/deeper"])
    def test_output_below_a_regular_file_exit_2_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, out
    ):
        from acklab import cli

        def no_sweep(config):
            raise AssertionError("swept before checking the output path")

        monkeypatch.setattr(cli, "run_bench", no_sweep)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cannot create {tmp_path / out}: {cfg} is not a directory\n"

    def test_output_directories_are_made(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "a" / "b"))
        assert code == 0 and (tmp_path / "a" / "b" / "bench.csv").is_file()

    def test_optimum_computed_once_per_instance(self, monkeypatch):
        from acklab import harness

        calls = []
        original = harness.exact_optimum

        def counting(arrivals, spec, oracle):
            calls.append(arrivals)
            return original(arrivals, spec, oracle)

        monkeypatch.setattr(harness, "exact_optimum", counting)
        rows = harness.run_bench(dict(BENCH_CONFIG, seeds=[1, 2]))
        assert len(rows) == 8  # 2 algorithms x 2 sizes x 2 seeds
        assert len(calls) == 4 and len(set(calls)) == 4

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": [{"kind": "bogus"}], "algorithms": [], "n": []}))
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"models": 5},
            {"models": [5]},
            {"models": {"kind": "linear_sum"}},
            {"generators": "uniform"},
            {"generators": [["uniform"]]},
            {"algorithms": {"alg": "greedy_tau"}},
            {"algorithms": ["greedy_tau"]},
            {"n": 5},
            {"n": [0]},
            {"n": [-4]},
            {"n": [4.0]},
            {"n": [True]},
            {"n": ["4"]},
            {"seeds": "x"},
            {"seeds": [1, "2"]},
            {"seeds": 1.5},
            {"seeds": [True]},
            {"seeds": -2},
            {"seeds": [-1]},
            {"oracle": "bogus"},
            {"oracle": ["dp"]},
            {"generators": [{"kind": "uniform", "rate": None}]},
            {"generators": [{"kind": "uniform", "rate": 0}]},
            {"generators": [{"kind": "uniform", "rate": "2"}]},
            {"generators": [{"kind": "bursty", "burst_mean": 0}]},
            {"generators": [{"kind": "bursty", "intra_scale": -1}]},
            {"generators": [{"kind": "greedy_tau_hard", "tau": None}]},
            {"models": [{"kind": "linear_sum", "tau": 1}]},
        ],
    )
    def test_bad_config_field_exit_2(self, tmp_path, capsys, field):
        config = dict(
            {"models": [{"kind": "linear_sum"}], "algorithms": [{"alg": "greedy_tau"}], "n": [4]},
            **field,
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_hard_family_sweep_ratio_equals_n(self, tmp_path, capsys):
        import csv as csv_mod

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "generators": [{"kind": "greedy_tau_hard", "tau": 1.0, "eps": 1e-3}],
                    "models": [{"kind": "capped_linear", "tau": 1.0}],
                    "algorithms": [{"alg": "greedy_tau", "tau": 1.0}],
                    "n": [5, 9],
                    "seeds": 1,
                }
            )
        )
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "bench.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        for row in rows:
            assert float(row["ratio"]) == pytest.approx(float(row["n"]), abs=1e-6)


VERIFY_NAMES = [
    "monotone:linear_sum",
    "monotone:max_wait",
    "monotone:max_wait_pow",
    "monotone:capped_linear",
    "monotone:permit_plf",
    "submodular:lp-p1.0",
    "submodular:lp-p2.0",
    "submodular:lp-pinf",
    "submodular:top_k",
    "submodular:ordered",
    "submodular:sum_vector",
    "submodular:planted-square-rejected",
    "monotone:planted-decreasing-rejected",
    "oracle:dp-vs-brute",
    "plf:concavity",
    "plf:round-up",
    "adversary:greedy-hard",
    "adversary:permit-charging",
    "engine:determinism",
]


class TestVerify:
    def test_filtered_subset_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--only", "plf", "--samples", "500")
        assert code == 0
        assert "PASS plf:concavity" in out
        assert "PASS plf:round-up" in out

    def test_full_suite_small_samples(self, capsys):
        code, out = run_cli(capsys, "verify", "--samples", "400")
        assert code == 0
        assert "FAIL" not in out
        assert "monotone:linear_sum" in out
        assert "submodular:planted-square-rejected" in out

    def test_registry_names_and_order(self, capsys):
        code, out = run_cli(capsys, "verify", "--samples", "20")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name] for name in VERIFY_NAMES]
        assert lines[-1] == "19/19 properties passed"

    def test_only_planted_selects_the_two_planted_checks(self, capsys):
        code, out = run_cli(capsys, "verify", "--only", "planted", "--samples", "300")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", "submodular:planted-square-rejected"],
            ["PASS", "monotone:planted-decreasing-rejected"],
        ]
        assert lines[-1] == "2/2 properties passed"

    def test_usage_error(self, capsys):
        assert main(["bogus-command"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out = run_cli(capsys, "verify", "--samples", samples)
        assert code == 2 and out == ""


class TestErrorBoundary:
    """Any ``ValueError`` under a command is one ``error:`` line and exit 2."""

    def run_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        return captured.err

    @pytest.mark.parametrize("seed", ["abc", "-1"])
    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_bad_ack_seed_exit_2(self, tmp_path, capsys, monkeypatch, command, seed):
        monkeypatch.setenv("ACK_SEED", seed)
        if command == "verify":
            argv = ["verify", "--only", "plf", "--samples", "1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(BENCH_CONFIG))  # "seeds" is a count
            argv = ["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]
        err = self.run_error(capsys, argv)
        assert err == f"error: ACK_SEED must be a non-negative integer, got {seed!r}\n"

    @pytest.mark.parametrize("raw, seed", [(None, DEFAULT_SEED), ("", DEFAULT_SEED), ("7", 7)])
    def test_unset_or_empty_ack_seed_keeps_the_default(self, monkeypatch, raw, seed):
        if raw is None:
            monkeypatch.delenv("ACK_SEED", raising=False)
        else:
            monkeypatch.setenv("ACK_SEED", raw)
        assert base_seed() == seed

    @pytest.mark.parametrize("command", ["solve", "run", "bench"])
    def test_input_file_not_utf8_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"arrivals": [0], "model": "\xff"}')
        argv = {
            "solve": ["solve", "--instance", str(path)],
            "run": ["run", "--instance", str(path), "--alg", '{"alg":"phases"}',
                    "--trace", str(tmp_path / "t.jsonl")],
            "bench": ["bench", "--config", str(path), "--out", str(tmp_path / "out")],
        }[command]
        err = self.run_error(capsys, argv)
        assert "can't decode byte 0xff" in err
        assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "arrivals, model, horizon, alg",
        [
            ([0, BIG_INT], {"kind": "linear_sum"}, None, "greedy_tau"),
            ([0, 1], {"kind": "capped_linear", "tau": BIG_INT}, None, "greedy_tau"),
            ([0, 1], {"kind": "linear_sum"}, BIG_INT, "greedy_tau"),
            ([0, 1], {"kind": "permit_plf", "K": BIG_INT}, None, "greedy_tau"),
            ([0, 1], {"kind": "ordered", "w": [BIG_INT, 1]}, None, "vector_greedy"),
        ],
    )
    def test_instance_integer_past_float_range_exit_2(
        self, tmp_path, capsys, arrivals, model, horizon, alg
    ):
        path = write_instance(tmp_path, arrivals, model, horizon=horizon)
        for argv in (
            ["solve", "--instance", path],
            ["run", "--instance", path, "--alg", json.dumps({"alg": alg}),
             "--trace", str(tmp_path / "t.jsonl")],
        ):
            assert "past the float range" in self.run_error(capsys, argv)

    def test_parameter_integer_past_float_range_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 1], {"kind": "linear_sum"})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BENCH_CONFIG, generators=[{"rate": BIG_INT}])))
        for argv in (
            ["run", "--instance", path, "--alg", json.dumps({"alg": "greedy_tau", "tau": BIG_INT}),
             "--trace", str(tmp_path / "t.jsonl")],
            ["bench", "--config", str(cfg), "--out", str(tmp_path / "out")],
        ):
            assert "past the float range" in self.run_error(capsys, argv)


# ---------------------------------------------------------------------------
# Fuzzing the CLI boundary
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 2.0, 1e-300, 1e300]),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2)
)
VALUES = NUMBERS | JUNK


def mostly(valid):
    """``valid`` nine times in ten, else any number or a value of the wrong type."""
    return st.sampled_from(range(10)).flatmap(lambda i: VALUES if i == 9 else valid)


TIMES = st.lists(st.floats(0.0, 100.0), max_size=12).map(sorted)
ARRIVALS = mostly(TIMES | TIMES.map(lambda a: [1e12 + x for x in a]))
MODEL_PARAMS = {
    "linear_sum": {},
    "max_wait": {},
    "max_wait_pow": {"p": st.integers(1, 300) | st.just(1e300)},
    "capped_linear": {"tau": st.floats(0.01, 10.0)},
    "permit_plf": {"K": st.integers(1, 40)},
    "lp": {"p": st.floats(1.0, 8.0) | st.sampled_from(["inf", 300, 1e300])},
    "top_k": {"k": st.integers(1, 6)},
    "ordered": {
        "w": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(
            lambda w: sorted(w, reverse=True)
        )
    },
    "concave_two_piece": {"ell": st.integers(1, 6), "eps": st.floats(0.0, 1.0), "n": st.integers(6, 12)},
    "sum_vector": {},
}
assert set(MODEL_PARAMS) == {*BATCH_KINDS, *VECTOR_KINDS}
MODELS = mostly(
    st.one_of(
        *(
            st.fixed_dictionaries(
                {"kind": st.just(kind), **{key: mostly(v) for key, v in params.items()}},
                optional={"objective": mostly(st.sampled_from(["sum", "max", "vector"]))},
            )
            for kind, params in MODEL_PARAMS.items()
        ),
        st.just({"kind": "bogus"}),
    )
)


def stray_key(selector):
    """One selector in ten gets a key its algorithm does not take: ``tau``
    where it takes none, else the misspelt ``tua``."""
    takes = ALGORITHMS.get(selector["alg"], (None, {}))[1]
    key = "tua" if takes else "tau"
    return st.sampled_from(range(10)).map(lambda i: {**selector, key: 0.5} if i == 9 else selector)


ALG_OBJECTS = mostly(
    st.one_of(
        *(
            st.fixed_dictionaries(
                {"alg": st.just(name)},
                optional={key: mostly(st.floats(0.1, 3.0)) for key in takes},
            )
            for name, (_, takes) in ALGORITHMS.items()
        ),
        st.just({"alg": "bogus"}),
    ).flatmap(stray_key)
)
ALGS = ALG_OBJECTS.map(json.dumps) | st.sampled_from(["", "[", "{}"])
INSTANCES = mostly(
    st.fixed_dictionaries(
        {"arrivals": ARRIVALS, "model": MODELS}, optional={"horizon": mostly(st.floats(100.0, 200.0))}
    )
)
GENERATORS = mostly(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["uniform", "bursty", "greedy_tau_hard", "bogus"])},
        optional={
            key: mostly(st.floats(0.01, 2.0))
            for key in ("rate", "cluster_rate", "burst_mean", "intra_scale", "tau", "eps")
        },
    )
)
BENCH_CONFIGS = mostly(
    st.fixed_dictionaries(
        {
            "models": mostly(st.lists(MODELS, min_size=1, max_size=2)),
            "algorithms": mostly(st.lists(ALG_OBJECTS, min_size=1, max_size=2)),
            "n": mostly(st.lists(st.integers(1, 8), min_size=1, max_size=2)),
        },
        optional={
            "generators": mostly(st.lists(GENERATORS, max_size=2)),
            "seeds": mostly(st.integers(0, 2) | st.lists(st.integers(0, 3), max_size=2)),
            "oracle": mostly(st.sampled_from(["auto", "dp", "brute"])),
        },
    )
)
GENERATOR_FLOATS = st.sampled_from(["1", "0.5", "2", "1e-3", "0", "-1", "nan", "inf"])
COMMANDS = st.one_of(
    st.tuples(
        st.just("solve"),
        INSTANCES,
        st.sampled_from([["--oracle", "dp"], ["--oracle", "brute"], ["--oracle", "auto"], []]),
    ),
    st.tuples(st.just("run"), INSTANCES, ALGS.map(lambda alg: ["--alg", alg])),
    st.tuples(st.just("bench"), BENCH_CONFIGS, st.just([])),
    st.tuples(
        st.just("adversary"),
        st.none(),
        st.tuples(
            st.sampled_from(["greedy_tau", "concave", "permit"]),
            st.integers(4, 40) | st.integers(-2, 3),
            ALGS,
            GENERATOR_FLOATS,
            GENERATOR_FLOATS,
        ).map(lambda a: ["--kind", a[0], "--n", str(a[1]), "--alg", a[2], "--tau", a[3], "--eps", a[4]]),
    ),
    st.tuples(
        st.just("verify"),
        st.none(),
        st.sampled_from([["--only", "plf", "--samples", "2"], ["--samples", "0"]]),
    ),
)
# ACK_SEED: unset nine calls in ten, else a count, empty or not a count.
ACK_SEEDS = st.sampled_from(range(10)).flatmap(
    lambda i: st.sampled_from(["0", "7", "", "-1", "abc", "1.5"]) if i == 9 else st.none()
)
# One call in five writes its trace or bench output below the input file, a
# regular file.
CLI_CALLS = st.tuples(COMMANDS, st.sampled_from(range(5)), ACK_SEEDS).map(
    lambda c: (*c[0], c[1] == 4, c[2])
)


def overflow_call(command, objective, p, args):
    model = {"kind": "max_wait_pow", "p": p, "objective": objective}
    return command, {"arrivals": OVERFLOW_ARRIVALS, "model": model}, args


WIDE_SPAN = {"arrivals": [0, 1e308, 1.7e308], "model": {"kind": "linear_sum"}}
SMALL_INSTANCE = {"arrivals": [0, 1], "model": {"kind": "linear_sum"}}
PERMIT_OUT_OF_REACH = {"arrivals": [0, 1, 2], "model": {"kind": "permit_plf"}}
# The model strategy draws string kinds only; a kind that cannot be hashed
# is still an unknown kind, not a traceback.
LIST_KIND = {"arrivals": [0, 1], "model": {"kind": [1]}}
OBJECT_KIND = {"arrivals": [0, 1], "model": {"kind": {"a": 1}}}
SMALL_SWEEP = {"models": [{"kind": "linear_sum"}], "algorithms": [{"alg": "phases"}], "n": [2]}
NOT_UTF8 = b'{"arrivals": [0], "model": "\xff"}'
VERIFY_PLF = ["--only", "plf", "--samples", "2"]


def cli_call(command, payload, args, below_file=False, ack_seed=None):
    return command, payload, args, below_file, ack_seed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(CLI_CALLS)
@example(overflow_call("solve", "max", 200, ["--oracle", "brute"]))
@example(overflow_call("solve", "sum", 200, ["--oracle", "dp"]))
@example(overflow_call("run", "sum", 1e300, ["--alg", '{"alg":"phases"}']))
@example(("solve", WIDE_SPAN, ["--oracle", "dp"]))
@example(("solve", WIDE_SPAN, ["--oracle", "brute"]))
@example(("run", WIDE_SPAN, ["--alg", '{"alg":"phases"}']))
@example(("run", SMALL_INSTANCE, ["--alg", '{"alg":"phases"}'], True))
@example(("run", SMALL_INSTANCE, ["--alg", '{"alg":"greedy_tau","tua":0.5}'], False))
@example(("bench", SMALL_SWEEP, [], True))
@example(("solve", NOT_UTF8, []))
@example(("run", NOT_UTF8, ["--alg", '{"alg":"phases"}']))
@example(("bench", NOT_UTF8, []))
@example(("verify", None, VERIFY_PLF, False, "abc"))
@example(("verify", None, VERIFY_PLF, False, "-1"))
@example(("bench", {**SMALL_SWEEP, "seeds": 1}, [], False, "abc"))
@example(("bench", {**SMALL_SWEEP, "seeds": 1}, [], False, "-1"))
@example(("run", PERMIT_OUT_OF_REACH, ["--alg", '{"alg":"greedy_tau","tau":1e300}']))
@example(("solve", LIST_KIND, []))
@example(("run", OBJECT_KIND, ["--alg", '{"alg":"phases"}']))
@example(("bench", {**SMALL_SWEEP, "models": [{"kind": [1]}]}, []))
def test_cli_keeps_its_exit_codes_on_random_input(call):
    # Whatever JSON (or non-UTF-8 bytes) reaches solve, run, bench or
    # adversary, and whatever ACK_SEED holds, main returns one of its four
    # exit codes: no exception escapes, and a NumPy overflow warning fails
    # the test as an error.
    command, payload, args, below_file, ack_seed = cli_call(*call)
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(
        io.StringIO()
    ), mock.patch.dict(os.environ):
        os.environ.pop("ACK_SEED", None)
        if ack_seed is not None:
            os.environ["ACK_SEED"] = ack_seed
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        out_dir = path if below_file else tmp
        if command == "solve":
            argv = ["solve", "--instance", path, *args]
        elif command == "run":
            argv = ["run", "--instance", path, *args, "--trace", os.path.join(out_dir, "t.jsonl")]
        elif command == "bench":
            argv = ["bench", "--config", path, "--out", os.path.join(out_dir, "out")]
        elif command == "verify":
            argv = ["verify", *args]
        else:
            argv = ["adversary", *args]
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, payload, ack_seed)
