import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acklab import batches_from_acks, lp_norm
from acklab.cli import main
from acklab.cost import aggregate
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

    def test_dp_rejects_max_objective(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 1], {"kind": "max_wait"})
        code, _ = run_cli(capsys, "solve", "--instance", path)
        assert code == 2

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

    def test_mismatch_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, [0, 1], {"kind": "linear_sum"})
        code, _ = run_cli(
            capsys, "run", "--instance", path, "--alg", '{"alg":"max_mono"}',
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 2

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

    def test_vector_alg_on_concave_required(self, capsys):
        code, _ = run_cli(
            capsys, "adversary", "--kind", "concave", "--n", "8",
            "--alg", '{"alg":"greedy_tau"}',
        )
        assert code == 2

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

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": [], "algorithms": [], "n": []}))
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "bench.csv").read_text().strip().split("\n")
        assert len(lines) == 1

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

    def test_optimum_computed_once_per_instance(self, monkeypatch):
        from acklab import harness

        calls = []
        original = harness._optimum

        def counting(instance, oracle):
            calls.append(instance.arrivals)
            return original(instance, oracle)

        monkeypatch.setattr(harness, "_optimum", counting)
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

    def test_usage_error(self, capsys):
        assert main(["bogus-command"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out = run_cli(capsys, "verify", "--samples", samples)
        assert code == 2 and out == ""
