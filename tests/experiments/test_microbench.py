"""Tests for the bench-document readers, the regression compare, the
bench timeline and the harness's input checks."""

import copy
import json

import pytest

from repro.experiments.microbench import (
    BENCH_SCHEMA,
    bench_report,
    bench_timeline,
    compare_bench,
    load_bench,
    load_bench_history,
    run_microbench,
)


def bench_doc(**overrides):
    doc = {
        "schema": BENCH_SCHEMA,
        "git_rev": "abc1234",
        "runs": [
            {
                "n": 64, "profile": "quiet", "ticks_per_sec": 1000.0,
                "elapsed_sec": 0.2,
                "total_ops": 0, "events": {"trigger": 0},
            },
            {
                "n": 64, "profile": "stationary", "ticks_per_sec": 500.0,
                "elapsed_sec": 0.4,
                "total_ops": 2215, "events": {"trigger": 2215, "borrow": 90},
            },
        ],
        "grid_elapsed_sec": 0.6,
    }
    doc.update(overrides)
    return doc


class TestBenchTimeline:
    def test_one_span_per_run_under_the_grid_span(self):
        doc = bench_doc()
        root, *runs = bench_timeline(doc)
        assert len(runs) == len(doc["runs"])
        assert (root.span, root.op, root.start) == (0, "bench:grid", 0.0)
        assert root.end == pytest.approx(0.6)
        for i, (s, run) in enumerate(zip(runs, doc["runs"])):
            assert s.op == f"bench:{run['profile']}@{run['n']}"
            assert (s.span, s.proc, s.start) == (i + 1, i, 0.0)
            assert (s.end, s.status) == (run["elapsed_sec"], "completed")

    def test_grid_span_ends_at_the_grid_wall_time_when_runs_overlap(self):
        # two runs of 0.2 s and 0.4 s overlapped on a pool: the grid took
        # 0.45 s of wall time, not the 0.6 s its runs sum to
        doc = bench_doc(grid_elapsed_sec=0.45)
        root, *runs = bench_timeline(doc)
        assert root.end == 0.45
        assert root.end < sum(r["elapsed_sec"] for r in doc["runs"])
        assert max(s.end for s in runs) < root.end

    def test_report_records_the_grid_wall_time(self):
        doc = bench_report((16,), profiles=("quiet", "stationary"), ticks=5)
        longest = max(r["elapsed_sec"] for r in doc["runs"])
        assert doc["grid_elapsed_sec"] >= longest
        root = bench_timeline(doc)[0]
        assert (root.op, root.end) == ("bench:grid", doc["grid_elapsed_sec"])

    def test_same_timeline_on_either_backend_apart_from_end_times(self):
        def shape(backend, jobs):
            doc = bench_report(
                (16,), profiles=("quiet", "stationary"), ticks=5,
                backend=backend, jobs=jobs,
            )
            return [
                (s.span, s.op, s.proc, s.start, s.status)
                for s in bench_timeline(doc)
            ]

        assert shape("native", 1) == shape("multiprocessing", 2)


class TestRunMicrobenchInputs:
    @pytest.mark.parametrize("kwargs", [{"ticks": 0}, {"ticks": -5}, {"warmup": -1}])
    def test_rejects_empty_or_negative_budgets(self, kwargs):
        with pytest.raises(ValueError, match="ticks >= 1 and warmup >= 0"):
            run_microbench(16, "quiet", **kwargs)


class TestProfiledPass:
    """``ticks_per_sec`` times an unprofiled engine; a second, profiled
    pass fills ``sections`` and must replay the timed one."""

    def _spy(self, monkeypatch, **extra):
        from repro.core.columnar import ColumnarEngine
        from repro.experiments import microbench

        built = []

        class Spy(ColumnarEngine):
            def __init__(self, *args, profiler=None, **kwargs):
                super().__init__(*args, profiler=profiler, **kwargs)
                built.append(self)
                if profiler is not None:
                    for name, value in extra.items():
                        setattr(self, name, value)

        monkeypatch.setattr(microbench, "ColumnarEngine", Spy)
        return built

    def test_timed_pass_is_unprofiled_and_sections_come_from_a_replay(
        self, monkeypatch
    ):
        built = self._spy(monkeypatch)
        rec = run_microbench(32, "stationary", warmup=20, ticks=10, profile_sections=True)
        timed, profiled = built
        assert timed.profiler is None and profiled.profiler is not None
        assert timed._walk is not None  # the timed pass reached a residual tick
        assert rec["total_ops"] == profiled.total_ops > 0
        assert "columnar.residual" in rec["sections"]

    def test_a_diverging_profiled_pass_is_an_error(self, monkeypatch):
        self._spy(monkeypatch, total_ops=-1)
        with pytest.raises(RuntimeError, match="diverged from the timed pass"):
            run_microbench(32, "stationary", warmup=20, ticks=10, profile_sections=True)


class TestCompareBench:
    def test_identical_docs_no_drift(self):
        text, ok = compare_bench(bench_doc(), bench_doc())
        assert ok and "no drift" in text

    def test_counter_mismatch_always_drifts(self):
        cand = bench_doc()
        cand["runs"][1]["total_ops"] += 1
        text, ok = compare_bench(bench_doc(), cand, tolerance=0.01)
        assert not ok
        assert "total_ops 2215 -> 2216" in text

    def test_event_counter_mismatch_drifts(self):
        cand = copy.deepcopy(bench_doc())
        cand["runs"][1]["events"]["borrow"] = 91
        _, ok = compare_bench(bench_doc(), cand)
        assert not ok

    def test_throughput_below_tolerance_drifts(self):
        cand = bench_doc()
        cand["runs"][0]["ticks_per_sec"] = 600.0  # x0.6 < 0.75
        text, ok = compare_bench(bench_doc(), cand, tolerance=0.75)
        assert not ok and "throughput" in text

    def test_throughput_within_tolerance_ok(self):
        cand = bench_doc()
        cand["runs"][0]["ticks_per_sec"] = 800.0  # x0.8 >= 0.75
        _, ok = compare_bench(bench_doc(), cand, tolerance=0.75)
        assert ok

    def test_disjoint_runs_reported_but_ignored(self):
        cand = bench_doc()
        cand["runs"] = [dict(cand["runs"][0], n=256)]
        text, ok = compare_bench(bench_doc(), cand)
        assert ok
        assert "only in reference" in text and "only in candidate" in text

    def test_tolerance_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_bench(bench_doc(), bench_doc(), tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            compare_bench(bench_doc(), bench_doc(), tolerance=1.5)


class TestLoadBench:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(bench_doc()))
        assert load_bench(p)["git_rev"] == "abc1234"

    def test_schema_tag_checked(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bench_doc(schema="something.else")))
        with pytest.raises(ValueError, match="expected schema"):
            load_bench(p)

    def test_committed_baseline_loads(self):
        doc = load_bench("results/BENCH_engine.json")
        assert doc["runs"], "committed baseline must contain runs"


def history_line(**overrides):
    rec = {
        "schema": "repro.bench_history.v1",
        "git_rev": "abc1234",
        "date": "2026-08-08T00:00:00Z",
        "backend": "native",
        "runs": [
            {"n": 64, "profile": "quiet", "engine": "columnar",
             "ticks_per_sec": 1000.0, "total_ops": 0,
             "peak_rss_bytes": 1},
            {"n": 64, "profile": "stationary", "engine": "columnar",
             "ticks_per_sec": 500.0, "total_ops": 2215,
             "peak_rss_bytes": 1},
        ],
    }
    rec.update(overrides)
    return rec


class TestLoadBenchHistory:
    def test_last_record_wins(self, tmp_path):
        p = tmp_path / "bench_history.ndjson"
        p.write_text(
            json.dumps(history_line(git_rev="old1111")) + "\n"
            + json.dumps(history_line()) + "\n"
        )
        doc = load_bench_history(p)
        assert doc["schema"] == BENCH_SCHEMA  # compare-shaped
        assert doc["git_rev"] == "abc1234"
        assert len(doc["runs"]) == 2

    def test_schema_tag_checked(self, tmp_path):
        p = tmp_path / "h.ndjson"
        p.write_text(json.dumps(history_line(schema="nope")) + "\n")
        with pytest.raises(ValueError, match="expected schema"):
            load_bench_history(p)

    def test_empty_history_rejected(self, tmp_path):
        p = tmp_path / "h.ndjson"
        p.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_bench_history(p)

    def test_committed_history_loads_and_matches_baseline(self):
        hist = load_bench_history("results/bench_history.ndjson")
        _, ok = compare_bench(hist, load_bench("results/BENCH_engine.json"))
        assert ok, "committed history must agree with the JSON baseline"

    def test_history_baseline_gates_on_ops_not_events(self, tmp_path):
        """A condensed history row (no events) vs a full candidate:
        identical counters pass, a total_ops change still drifts."""
        p = tmp_path / "h.ndjson"
        p.write_text(json.dumps(history_line()) + "\n")
        hist = load_bench_history(p)
        _, ok = compare_bench(hist, bench_doc(), tolerance=0.5)
        assert ok
        cand = copy.deepcopy(bench_doc())
        cand["runs"][1]["total_ops"] += 1
        text, ok = compare_bench(hist, cand, tolerance=0.5)
        assert not ok and "total_ops" in text
