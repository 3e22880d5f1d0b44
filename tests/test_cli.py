"""Tests for the command line interface."""

import os
import re

import pytest

from repro.cli import main


def section(out, heading):
    """The lines of one ``## heading`` section of a printed report."""
    lines = out.splitlines()
    start = lines.index(f"## {heading}")
    end = next(
        (k for k in range(start + 1, len(lines)) if lines[k].startswith("#")),
        len(lines),
    )
    return [line for line in lines[start:end] if line.strip()]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table1" in out

    def test_theorem3_runs(self, capsys):
        assert main(["theorem3"]) == 0
        out = capsys.readouterr().out
        assert "FIX" in out

    def test_lemma56_small(self, capsys):
        assert main(["lemma56", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out

    def test_fig6_csv_output(self, tmp_path, capsys, monkeypatch):
        # shrink the sweep via monkeypatching the default ns for speed
        import repro.experiments.figures as figs

        monkeypatch.setattr(figs, "FIG6_NS", (3, 5))
        assert main(["fig6", "--trials", "500", "--out", str(tmp_path)]) == 0
        assert any(tmp_path.glob("figure6_*.csv"))

    def test_scaling_small(self, capsys, monkeypatch):
        import repro.experiments.scaling as sc

        orig = sc.scaling_experiment
        monkeypatch.setattr(
            sc,
            "scaling_experiment",
            lambda runs, seed: orig(ns=(8,), steps=40, runs=1, seed=seed),
        )
        assert main(["scaling"]) == 0
        assert "rel spread" in capsys.readouterr().out

    def test_invalid_command(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestObservabilityCommands:
    def test_trace_records_and_reconciles(self, capsys):
        assert main(["trace", "--n", "8", "--steps", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "events.total" in out
        assert "reconciliation with run aggregates: OK" in out

    def test_trace_writes_valid_ndjson(self, tmp_path, capsys):
        path = tmp_path / "t.ndjson"
        assert main([
            "trace", "--n", "8", "--steps", "40", "--seed", "1",
            "--trace-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "(schema valid)" in out
        from repro.observability import validate_ndjson

        assert sum(validate_ndjson(path).values()) > 0

    def test_trace_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        main(["trace", "--n", "8", "--steps", "40", "--seed", "1",
              "--trace-out", str(a)])
        main(["trace", "--n", "8", "--steps", "40", "--seed", "2",
              "--trace-out", str(b)])
        capsys.readouterr()
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "balance.ops" in out

    def test_trace_capacity_surfaces_evictions(self, capsys):
        assert main([
            "trace", "--n", "8", "--steps", "40", "--seed", "1",
            "--capacity", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "evicted (capacity 50" in out
        # survivors cannot add up to the run totals, so the summary
        # must neither claim a full trace nor cry reconciliation wolf
        assert "0 events evicted" not in out
        assert "reconciliation with run aggregates: skipped" in out

    def test_trace_unbounded_reports_complete(self, capsys):
        assert main(["trace", "--n", "8", "--steps", "40", "--seed", "1"]) == 0
        assert "0 events evicted (complete trace)" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "--n", "8", "--steps", "40"]) == 0
        out = capsys.readouterr().out
        assert "triggers.check" in out and "ledger.snake_redeal" in out
        assert "selection.select" in out
        assert "% of total" in out

    def test_list_mentions_tools(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "trace" in out and "profile" in out
        assert "report" in out and "spans" in out


class TestAsyncAndChaosCommands:
    def test_trace_async_reconciles(self, capsys):
        assert main([
            "trace", "--engine", "async", "--n", "8", "--horizon", "20",
            "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "traced async run" in out
        assert "events.async_deliver" in out
        assert "reconciliation with run aggregates: OK" in out

    def test_trace_async_writes_valid_ndjson(self, tmp_path, capsys):
        path = tmp_path / "a.ndjson"
        assert main([
            "trace", "--engine", "async", "--n", "8", "--horizon", "20",
            "--trace-out", str(path),
        ]) == 0
        assert "(schema valid)" in capsys.readouterr().out
        from repro.observability import validate_ndjson

        counts = validate_ndjson(path)
        assert counts["async_deliver"] > 0

    def test_trace_faulted_reconciles_async(self, monkeypatch, capsys):
        import repro.observability as obs

        calls = []
        real = obs.reconcile_async_trace

        def spy(events, result):
            calls.append(result)
            return real(events, result)

        monkeypatch.setattr(obs, "reconcile_async_trace", spy)
        assert main(["trace", "--faulted", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "traced async (faulted) run: n=16 horizon=80" in out
        assert "events.fault_crash" in out
        assert "reconciliation with run aggregates: OK" in out
        assert len(calls) == 1

    def test_profile_async_sections(self, capsys):
        assert main([
            "profile", "--engine", "async", "--n", "8", "--horizon", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiled async run" in out
        assert "async.action" in out and "async.complete" in out

    def test_chaos_writes_schema_valid_json(self, tmp_path, capsys):
        assert main([
            "chaos", "--n", "16", "--horizon", "60", "--crash-frac", "0.15",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Theorem-4 band" in out
        assert "wrote" in out
        import json

        from repro.experiments.resilience import RESILIENCE_SHAPE
        from repro.simulation.serialize import check_document

        doc = json.loads((tmp_path / "resilience.json").read_text())
        assert check_document(doc, RESILIENCE_SHAPE) == []
        assert doc["config"]["crash_frac"] == 0.15

    def test_list_mentions_chaos(self, capsys):
        main(["list"])
        assert "chaos" in capsys.readouterr().out


class TestChurnCommand:
    def test_smoke_writes_schema_valid_json(self, tmp_path, capsys):
        assert main(["churn", "--smoke", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Theorem-4 band" in out
        assert "wrote" in out and "schema valid" in out
        import json

        from repro.experiments.dynamics import DYNAMICS_SHAPE
        from repro.simulation.serialize import check_document

        doc = json.loads((tmp_path / "dynamics.json").read_text())
        assert check_document(doc, DYNAMICS_SHAPE) == []
        assert len({c["topology"] for c in doc["cells"]}) >= 3

    def test_smoke_deterministic_per_seed(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["churn", "--smoke", "--seed", "3", "--out", str(a)]) == 0
        assert main(["churn", "--smoke", "--seed", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        da = json.loads((a / "dynamics.json").read_text())
        db = json.loads((b / "dynamics.json").read_text())
        da.pop("backend"), db.pop("backend")
        assert da == db

    def test_axis_overrides(self, tmp_path, capsys):
        assert main([
            "churn", "--smoke", "--topologies", "ring",
            "--churn-rates", "0.0", "--skews", "0.0,0.5",
            "--out", str(tmp_path),
        ]) == 0
        import json

        doc = json.loads((tmp_path / "dynamics.json").read_text())
        assert len(doc["cells"]) == 2
        assert {c["topology"] for c in doc["cells"]} == {"ring"}

    def test_list_mentions_churn(self, capsys):
        main(["list"])
        assert "churn" in capsys.readouterr().out

    def test_report_dynamics(self, tmp_path, capsys):
        assert main(["churn", "--smoke", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "dynamics.json"
        assert main(["report", "--dynamics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# dynamics report" in out
        assert "Theorem-4 band" in out

    def test_smoke_applies_explicit_n_and_horizon(self, tmp_path, capsys):
        import json

        assert main([
            "churn", "--smoke", "--n", "8", "--horizon", "4",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        from repro.experiments.dynamics import DynamicsConfig

        cfg = json.loads((tmp_path / "dynamics.json").read_text())["config"]
        assert (cfg["n"], cfg["horizon"]) == (8, 4.0)
        # everything not given explicitly stays the smoke grid
        smoke = DynamicsConfig.smoke()
        assert cfg["warmup"] == smoke.warmup
        assert tuple(cfg["topologies"]) == smoke.topologies

    def test_report_dynamics_rejects_nan(self, tmp_path, capsys):
        import json

        assert main(["churn", "--smoke", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "dynamics.json"
        doc = json.loads(path.read_text())
        doc["cells"][0]["band_occupancy"] = float("nan")
        path.write_text(json.dumps(doc))   # bare NaN: not JSON
        with pytest.raises(SystemExit, match="not a valid dynamics"):
            main(["report", "--dynamics", str(path)])


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestStrictJsonDocuments:
    """Undefined statistics are written as null, never as bare NaN."""

    def test_chaos_burst_past_horizon(self, tmp_path, capsys):
        import json

        assert main(["chaos", "--horizon", "20", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        text = (tmp_path / "resilience.json").read_text()
        doc = json.loads(text, parse_constant=_reject_constant)
        assert doc["faulted"]["report"]["spike_ratio"] is None

    def test_churn_warmup_past_horizon(self, tmp_path, capsys):
        import json

        assert main([
            "churn", "--n", "16", "--horizon", "4", "--topologies", "complete",
            "--churn-rates", "0", "--skews", "0", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        text = (tmp_path / "dynamics.json").read_text()
        doc = json.loads(text, parse_constant=_reject_constant)
        assert doc["cells"][0]["band_occupancy"] is None


class TestUnknownNameExit2:
    """Unknown plan/profile/topology names exit 2 and list the choices."""

    def check(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unknown" in err
        assert needle in err

    def test_chaos_unknown_plan(self, capsys):
        self.check(
            ["chaos", "--plan", "bogus"], "known plans: crash_burst", capsys
        )

    def test_serve_unknown_traffic(self, capsys):
        self.check(
            ["serve", "--smoke", "--traffic", "bogus"],
            "known traffic profiles: poisson",
            capsys,
        )

    def test_churn_unknown_topology(self, capsys):
        self.check(
            ["churn", "--smoke", "--topologies", "bogus"],
            "known topologies:",
            capsys,
        )

    def test_churn_bad_rate_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["churn", "--smoke", "--churn-rates", "a,b"])
        assert exc.value.code == 2
        assert "comma-separated numbers" in capsys.readouterr().err


class TestNumericOptionExit2:
    """Out-of-range numeric options exit 2 with ``error:`` before any
    command runs."""

    def check(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["table1", "fig7", "lemma56", "scaling", "sensitivity"]
    )
    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one(self, command, runs, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "1")
        self.check(
            [command, "--runs", runs],
            f"error: --runs needs a value >= 1, got {runs}",
            tmp_path,
            capsys,
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "--steps", "0"], "--steps needs a value >= 1, got 0"),
            (["trace", "--n", "1"], "-n needs a value >= 2, got 1"),
            (["trace", "--capacity", "0"], "--capacity needs a value >= 1, got 0"),
            (["fig6", "--trials", "0"], "--trials needs a value >= 1, got 0"),
            (
                ["profile", "--engine", "async", "--horizon", "-1"],
                "--horizon needs a value > 0, got -1.0",
            ),
            (["trace", "--f", "0.5"], "--f/--delta/--cap: f must be >= 1, got 0.5"),
            (["trace", "--delta", "0"], "--f/--delta/--cap: delta must be >= 1, got 0"),
            (
                ["trace", "--cap", "-1"],
                "--f/--delta/--cap: C must be a positive int, got -1",
            ),
            (
                ["trace", "--steps", "5", "--n", "4", "--delta", "5"],
                "--f/--delta/--cap: delta must be < n (delta=5, n=4)",
            ),
            (
                ["serve", "--queue-cap", "0", "--horizon", "2"],
                "--queue-cap needs a value >= 1, got 0",
            ),
            (
                ["chaos", "--crash-frac", "2", "--horizon", "2"],
                "--crash-frac needs a value in [0, 1], got 2.0",
            ),
            (
                ["chaos", "--message-loss", "2"],
                "--message-loss needs a value in [0, 1), got 2.0",
            ),
            (["trace", "--f", "inf"], "--f/--delta/--cap: f must be finite, got inf"),
            (
                ["churn", "--delta", "40", "--horizon", "2", "--n", "8"],
                "--f/--delta/--cap: delta must be < n (delta=40, n=8)",
            ),
            (
                ["bench", "-n", "2", "--delta", "2", "--ticks", "2"],
                "--f/--delta/--cap: delta must be < n (delta=2, n=2)",
            ),
            (
                ["bench", "--sizes", "64,2", "--ticks", "2"],
                "--f/--delta/--cap: delta must be < n (delta=2, n=2)",
            ),
            (
                ["serve", "--rate", "-1", "--horizon", "2"],
                "--rate needs a value >= 0, got -1.0",
            ),
            (
                ["serve", "--n", "2", "--horizon", "2"],
                "-n needs a value > delta = 2, got 2",
            ),
            (
                ["churn", "--smoke", "--n", "2", "--horizon", "2"],
                "-n needs a value > delta = 2, got 2",
            ),
        ],
    )
    def test_out_of_range(self, argv, message, tmp_path, capsys):
        self.check(argv, f"error: {message}", tmp_path, capsys)


class TestReportAndSpansCommands:
    def test_report_clean_sync_run(self, capsys):
        assert main(["report", "--n", "8", "--steps", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "**Verdict: all monitors OK.**" in out
        assert "`theorem4_band`" in out
        assert "## Balancing-operation spans" in out

    def test_report_html_artifact(self, tmp_path, capsys):
        dest = tmp_path / "run.html"
        assert main([
            "report", "--n", "8", "--steps", "60",
            "--report-out", str(dest),
        ]) == 0
        html = dest.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<h2>Monitor verdicts</h2>" in html

    @pytest.mark.tier2
    def test_report_faulted_tells_the_breach_story(self, capsys):
        assert main(["report", "--faulted", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "monitor breach" in out
        assert "**theorem4_band**" in out
        assert "recovered at" in out
        assert "crash regime" in out

    def test_spans_live_run(self, capsys):
        assert main(["spans", "--n", "8", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert "| outcome | spans |" in out and "| completed |" in out
        assert "Worst span (longest, then most event-ful):" in out

    def test_spans_from_trace_file(self, tmp_path, capsys):
        from repro.observability import Tracer
        from repro.params import LBParams
        from repro.simulation.driver import run_simulation
        from repro.workload import Section7Workload

        tracer = Tracer()
        run_simulation(
            8, LBParams(f=1.3, delta=2, C=4),
            Section7Workload(8, 60, layout_rng=0), 60, seed=0,
            tracer=tracer,
        )
        path = tmp_path / "t.ndjson"
        tracer.to_ndjson(path)
        assert main(["spans", "--trace-in", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"spans from {path}" in out
        assert "Worst span (longest, then most event-ful):" in out
        # the recorded run is the report's default run: same ranking
        assert main(["report", "--n", "8", "--steps", "60"]) == 0
        heading = "Balancing-operation spans"
        assert section(out, heading) == section(
            capsys.readouterr().out, heading
        )

    def test_spans_from_spanless_trace_is_graceful(self, tmp_path, capsys):
        from repro.observability import Tracer

        # no balancing operation ran: only the driver's tick snapshots
        tracer = Tracer()
        for t in range(3):
            tracer.emit("tick", t=t, loads=[1, 1], ops=0, migrated=0)
        path = tmp_path / "t.ndjson"
        tracer.to_ndjson(path)
        assert main(["spans", "--trace-in", str(path)]) == 0
        assert "(no spans recorded)" in capsys.readouterr().out

    def test_spans_ranks_like_the_report(self, capsys):
        args = ["--n", "8", "--steps", "60", "--engine", "async",
                "--horizon", "20"]
        assert main(["spans", *args]) == 0
        spans_out = capsys.readouterr().out
        assert main(["report", *args]) == 0
        report_out = capsys.readouterr().out
        heading = "Balancing-operation spans"
        assert section(spans_out, heading) == section(report_out, heading)

    def test_profile_prints_the_report_profiler_rows(self, capsys):
        assert main(["profile", "--n", "8", "--steps", "40"]) == 0
        profile_out = capsys.readouterr().out
        assert main(["report", "--n", "8", "--steps", "40"]) == 0
        report_out = capsys.readouterr().out

        def rows(out):
            # section name and call count; the timing columns are
            # wall-clock and differ between two runs
            table = section(out, "Profiler hot sections")
            return table[1], sorted(
                tuple(line.split(" | ")[:2]) for line in table[3:]
            )

        assert rows(profile_out) == rows(report_out)
        assert len(rows(profile_out)[1]) > 3

    def test_compare_clean_exits_zero(self, capsys):
        ref = "results/BENCH_engine.json"
        assert main([
            "report", "--compare", ref, ref, "--tolerance", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "no drift" in out

    def test_compare_drift_exits_nonzero(self, tmp_path, capsys):
        import json

        ref = "results/BENCH_engine.json"
        doc = json.loads(open(ref).read())
        doc["runs"][0]["total_ops"] += 1
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["report", "--compare", ref, str(cand)])
        assert exc.value.code == 2
        assert "DRIFT" in capsys.readouterr().out


    def test_compare_history_drift_exits_nonzero(self, tmp_path, capsys):
        import json

        doc = json.loads(open("results/BENCH_engine.json").read())
        doc["runs"][0]["total_ops"] += 1
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main([
                "report", "--compare", "results/bench_history.ndjson",
                str(cand), "--tolerance", "0.05",
            ])
        assert exc.value.code == 2
        assert "total_ops" in capsys.readouterr().out


class TestBackendErrors:
    def test_bench_unknown_backend_exits_2_with_listing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--backend", "bogus", "--sizes", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "native" in err          # the known-backend listing

    def test_chaos_unknown_backend_exits_2_with_listing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--backend", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "native" in err

    @pytest.mark.parametrize("cmd", ["fig7", "table1", "sensitivity"])
    def test_quality_commands_reject_unknown_backend(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--runs", "2", "--backend", "bogus", "--jobs", "3"])
        assert exc.value.code == 2
        assert "unknown backend 'bogus'" in capsys.readouterr().err

    def test_backend_flags_reach_the_batch(self, monkeypatch, capsys):
        from repro.simulation import parallel

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        resolved = []
        real = parallel.resolve_backend

        def spy(backend=None, jobs=None):
            resolved.append(real(backend, jobs))
            return resolved[-1]

        monkeypatch.setattr(parallel, "resolve_backend", spy)
        assert main([
            "fig7", "--runs", "1", "--backend", "multiprocessing",
            "--jobs", "2",
        ]) == 0
        # the first call validates the flags; the rest are the batches
        assert len(resolved) > 1
        assert set(resolved) == {("multiprocessing", 2)}

    def test_environment_restored_after_main(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        before = dict(os.environ)
        assert main([
            "theorem3", "--backend", "multiprocessing", "--jobs", "2",
        ]) == 0
        assert dict(os.environ) == before

    def test_bench_unknown_profile_exits_2_with_listing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--profile", "bogus", "--sizes", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown profile 'bogus'" in err
        assert "quiet, stationary, growth" in err  # the known-name listing


class TestBenchSmokeFlags:
    def test_single_size_profile_and_ticks(self, tmp_path, capsys):
        import json

        assert main([
            "bench", "--profile", "quiet", "-n", "64", "--ticks", "10",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        doc = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert [r["profile"] for r in doc["runs"]] == ["quiet"]
        assert doc["runs"][0]["n"] == 64
        assert doc["runs"][0]["ticks"] == 10
        assert doc["runs"][0]["engine"] == "columnar"

    @pytest.mark.parametrize("ticks", ["0", "-5"])
    def test_ticks_below_one_exits_2_and_writes_nothing(
        self, tmp_path, capsys, ticks
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "bench", "--profile", "quiet", "-n", "64", "--ticks", ticks,
                "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "--ticks" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-n", "1"], "error: -n needs a value >= 2, got 1"),
            (["--sizes", "1"], "error: --sizes needs values >= 2, got '1'"),
            (["--sizes", "x"], "error: --sizes expects comma-separated ints, got 'x'"),
        ],
    )
    def test_bad_size_names_the_option_given_and_exits_2(
        self, tmp_path, capsys, argv, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, seed", [(["--seed", "0"], 0), ([], 7)])
    def test_seed_is_the_engine_seed(self, tmp_path, capsys, argv, seed):
        import json

        assert main([
            "bench", "--profile", "quiet", "-n", "64", "--ticks", "10",
            "--out", str(tmp_path), *argv,
        ]) == 0
        doc = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert doc["params"]["engine_seed"] == seed


class TestSizeFlag:
    """``--n`` given explicitly is honoured, whatever its value."""

    def test_bench_n_16_benchmarks_only_n_16(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.microbench as mb

        seen = []

        def stub(ns, **kwargs):
            seen.append(ns)
            return {
                "schema": mb.BENCH_SCHEMA, "git_rev": "stub",
                "params": {"f": 1.3, "delta": 2, "C": 4}, "runs": [],
            }

        monkeypatch.setattr(mb, "bench_report", stub)
        assert main(["bench", "-n", "16", "--out", str(tmp_path)]) == 0
        assert seen == [(16,)]

    def test_churn_n_16_runs_n_16(self, tmp_path, capsys):
        import json

        assert main([
            "churn", "--n", "16", "--horizon", "10", "--topologies",
            "complete", "--churn-rates", "0", "--skews", "0",
            "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "dynamics.json").read_text())
        assert doc["config"]["n"] == 16


class TestServeCommand:
    def test_smoke_chaos_writes_schema_valid_service_json(
        self, tmp_path, capsys
    ):
        assert main([
            "serve", "--smoke", "--chaos", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "shedding" in out
        assert "wrote" in out
        import json

        from repro.service import SERVICE_SHAPE
        from repro.simulation.serialize import check_document

        doc = json.loads((tmp_path / "service.json").read_text())
        assert check_document(doc, SERVICE_SHAPE) == []
        assert doc["final_state"] == "healthy"
        assert any(tr["state"] == "shedding" for tr in doc["timeline"])

    def test_record_then_replay_reproduces_slo(self, tmp_path, capsys):
        offered = tmp_path / "offered.json"
        assert main([
            "serve", "--smoke", "--chaos", "--out", str(tmp_path / "a"),
            "--record", str(offered),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--smoke", "--chaos", "--out", str(tmp_path / "b"),
            "--replay", str(offered),
        ]) == 0
        assert "replayed" in capsys.readouterr().out
        import json

        a = json.loads((tmp_path / "a" / "service.json").read_text())
        b = json.loads((tmp_path / "b" / "service.json").read_text())
        assert a["slo"] == b["slo"]
        assert a["timeline"] == b["timeline"]

    def test_record_and_replay_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "serve", "--record", str(tmp_path / "a.json"),
                "--replay", str(tmp_path / "b.json"),
            ])

    def test_quiet_default_run(self, tmp_path, capsys):
        assert main([
            "serve", "--rate", "1.0", "--horizon", "20",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "final state        : healthy" in out

    def test_report_service_renders_sections(self, tmp_path, capsys):
        assert main([
            "serve", "--smoke", "--chaos", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "--service", str(tmp_path / "service.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "### SLO verdicts" in out
        assert "### Degradation-state timeline" in out
        assert "### Worst-sojourn waterfall" in out

    def test_report_service_rejects_invalid_doc(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        with pytest.raises(SystemExit, match="not a valid service"):
            main(["report", "--service", str(bad)])

    def test_list_mentions_serve(self, capsys):
        main(["list"])
        assert "serve" in capsys.readouterr().out


class TestTelemetryCli:
    def test_trace_export_unknown_format_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "trace", "--export", "bogus",
                "--trace-out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown export format 'bogus'" in err
        assert "chrome" in err  # the known-format listing

    def test_trace_export_requires_trace_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--export", "chrome"])
        assert exc.value.code == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_trace_export_chrome_writes_perfetto_json(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "trace.json"
        assert main([
            "trace", "--n", "8", "--steps", "40", "--seed", "1",
            "--export", "chrome", "--trace-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "open in Perfetto" in out
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"][0]["ph"] == "M"
        # spans are derived from the plain trace: one B/E pair per
        # balancing operation, its events as instants on the lanes
        ops = int(re.search(r"\(ops=(\d+),", out).group(1))
        phases = [e.get("ph") for e in doc["traceEvents"]]
        assert phases.count("B") == phases.count("E") == ops > 0
        assert "i" in phases

    def test_bench_appends_history_and_compare_reads_it(
        self, tmp_path, capsys
    ):
        import json

        args = [
            "bench", "--profile", "quiet", "-n", "64", "--ticks", "10",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        history = tmp_path / "bench_history.ndjson"
        assert "bench_history.ndjson" in capsys.readouterr().out
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["schema"] == "repro.bench_history.v1"
        assert {"git_rev", "date", "backend", "runs"} <= rec.keys()
        assert rec["runs"][0]["n"] == 64
        # a second run appends (never truncates) ...
        assert main(args) == 0
        assert len(history.read_text().splitlines()) == 2
        capsys.readouterr()
        # ... and the last record serves as a comparison baseline
        assert main([
            "report", "--compare", str(history),
            str(tmp_path / "BENCH_engine.json"),
        ]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_bench_trace_out_writes_bench_timeline(
        self, tmp_path, capsys
    ):
        import json

        args = [
            "bench", "--profile", "quiet,stationary", "-n", "64",
            "--ticks", "10", "--jobs", "2", "--backend", "multiprocessing",
        ]
        trace = tmp_path / "bench_trace.json"
        assert main([
            *args, "--out", str(tmp_path), "--trace-out", str(trace),
        ]) == 0
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        bench = json.loads((tmp_path / "BENCH_engine.json").read_text())
        runs = bench["runs"]
        doc = json.loads(trace.read_text())
        begins = [e for e in doc["traceEvents"] if e.get("ph") == "B"]
        assert len(begins) == 1 + len(runs) == 3
        assert begins[0]["name"] == "bench:grid"
        assert [(e["name"], e["tid"]) for e in begins[1:]] == [
            (f"bench:{r['profile']}@{r['n']}", i) for i, r in enumerate(runs)
        ]
        run_id = f"bench-{bench['git_rev']}"
        assert {e["args"]["run_id"] for e in begins} == {run_id}
        assert doc["otherData"]["run_id"] == run_id
        # the trace export leaves the measured counters untouched
        plain = json.loads((tmp_path / "plain" / "BENCH_engine.json").read_text())
        assert [(r["total_ops"], r["events"]) for r in runs] == [
            (r["total_ops"], r["events"]) for r in plain["runs"]
        ]

    def test_serve_telemetry_serves_and_stops(self, tmp_path, capsys):
        assert main([
            "serve", "--smoke", "--telemetry", "0", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: serving http://127.0.0.1:" in out
        assert "samples served" in out and "(now stopped)" in out

    def test_top_once_against_live_endpoint(self, capsys):
        from repro.observability import TelemetrySampler
        from repro.observability.export import TelemetryServer

        sampler = TelemetrySampler(interval=0.0)
        sampler.sample(0.0, [])
        with TelemetryServer(sampler) as server:
            assert main(["top", "--url", server.url, "--once"]) == 0
        assert "repro top" in capsys.readouterr().out

    def test_top_once_unreachable_exits_1(self, capsys):
        assert main([
            "top", "--url", "http://127.0.0.1:9/metrics", "--once",
        ]) == 1
        assert "cannot scrape" in capsys.readouterr().err

    def test_list_mentions_telemetry(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "telemetry" in out and "top" in out
