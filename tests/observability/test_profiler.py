"""Tests for the profiling hooks."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.observability import MetricsRegistry, Profiler
from repro.observability.profiler import SECTION_BUCKETS

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _sections(prof: Profiler) -> dict:
    """``{section: (calls, total_ms, min_us, max_us)}`` from the summary."""
    return {
        name: (calls, total, lo, hi)
        for name, calls, total, _, _, lo, hi in prof.summary()
    }


class TestSectionHistogram:
    def test_observe_tracks_extremes(self):
        prof = Profiler()
        for ns in (10_000, 30_000, 20_000):
            prof.observe_ns("s", ns)
        calls, total, lo, hi = _sections(prof)["s"]
        assert (calls, lo, hi) == (3, pytest.approx(10.0), pytest.approx(30.0))
        assert total == pytest.approx(0.06)
        h = prof.registry.histogram("section.s", SECTION_BUCKETS)
        assert h.count == 3
        assert h.mean == pytest.approx(20e-6)


class TestProfiler:
    def test_section_records_time(self):
        prof = Profiler()
        with prof.section("work"):
            sum(range(100))
        calls, total, _, _ = _sections(prof)["work"]
        assert calls == 1
        assert total > 0

    def test_section_records_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof.section("boom"):
                raise RuntimeError
        assert _sections(prof)["boom"][0] == 1

    def test_summary_sorted_by_total_desc(self):
        prof = Profiler()
        prof.observe_ns("small", 1_000)
        prof.observe_ns("big", 9_000_000)
        rows = prof.summary()
        assert [r[0] for r in rows] == ["big", "small"]
        name, calls, total_ms, share_pct, mean_us, min_us, max_us = rows[0]
        assert calls == 1
        assert total_ms == pytest.approx(9.0)
        assert mean_us == pytest.approx(9_000.0)

    def test_summary_share_of_total(self):
        prof = Profiler()
        prof.observe_ns("a", 3_000)
        prof.observe_ns("b", 1_000)
        shares = {row[0]: row[3] for row in prof.summary()}
        assert shares["a"] == pytest.approx(75.0)
        assert shares["b"] == pytest.approx(25.0)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_summary_share_empty_profiler(self):
        assert Profiler().summary() == []

    def test_sections_live_in_the_given_registry(self):
        registry = MetricsRegistry()
        registry.counter("sim.ticks").inc()
        prof = Profiler(registry)
        prof.observe_ns("s", 1_000)
        assert prof.registry is registry
        assert "section.s" in registry
        assert [r[0] for r in prof.summary()] == ["s"]


class TestEngineProfiling:
    def test_engine_sections_populated(self):
        from repro import Engine, EngineConfig, LBParams

        prof = Profiler()
        # the per-action triggers.check contract holds on the scalar
        # sweep; the columnar pipeline batches quiet checks into
        # columnar.classify (see docs/OBSERVABILITY.md)
        eng = Engine(
            EngineConfig(n=4, params=LBParams(f=1.2, delta=2, C=2)),
            rng=1,
            profiler=prof,
        )
        for _ in range(30):
            eng.step(np.ones(4, dtype=np.int64))
        calls = {name: row[0] for name, row in _sections(prof).items()}
        assert calls["triggers.check"] == 30 * 4  # per proc per tick
        assert calls["selection.select"] == eng.total_ops
        # one d re-deal per operation, plus a b re-deal when debts exist
        assert eng.total_ops <= calls["ledger.snake_redeal"] <= 2 * eng.total_ops
        assert eng.total_ops > 0

    def test_pipeline_sections_populated(self):
        from repro import EngineConfig, LBParams
        from repro.core.columnar import ColumnarEngine

        prof = Profiler()
        eng = ColumnarEngine(
            EngineConfig(n=4, params=LBParams(f=1.2, delta=2, C=2)),
            rng=1,
            profiler=prof,
        )
        for _ in range(30):
            eng.step(np.ones(4, dtype=np.int64))
        # every pass runs once per tick; scalar-handler checks still
        # land in triggers.check individually
        calls = {name: row[0] for name, row in _sections(prof).items()}
        for name in ("classify", "fused_quiet", "residual"):
            assert calls[f"columnar.{name}"] == 30
        assert calls["selection.select"] == eng.total_ops
        assert calls["triggers.check"] >= eng.total_ops

    def test_unprofiled_engine_pays_nothing(self):
        from repro import Engine, EngineConfig, LBParams

        from repro.core.async_engine import AsyncEngine, ConstantRates

        eng = Engine(EngineConfig(n=2, params=LBParams(f=1.5, delta=1, C=2)), rng=0)
        assert eng.profiler is None
        assert eng._profile is False
        eng.step(np.array([1, 1]))
        rates = ConstantRates(np.full(2, 0.5), np.full(2, 0.5))
        aeng = AsyncEngine(LBParams(f=1.5, delta=1, C=2), rates)
        assert aeng.profiler is None
        assert aeng._profile is False

    def test_async_engine_takes_a_section_only_profiler(self):
        from repro import LBParams
        from repro.core.async_engine import AsyncEngine, ConstantRates

        prof = Profiler()

        class SectionOnly:
            """Duck-typed profiler exposing nothing but ``section``."""

            def section(self, name):
                return prof.section(name)

        rates = ConstantRates(np.full(4, 0.7), np.full(4, 0.3))
        AsyncEngine(LBParams(f=1.2, delta=1, C=4), rates, profiler=SectionOnly()).run(5.0)
        assert _sections(prof)["async.action"][0] > 0


def _perfbench_vocabulary() -> set[str]:
    """Span and section names of the benchmark's per-layer tracing,
    loaded read-only from the file (it is not an importable package)."""
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {span for span, _, _ in layers.TARGETS} | set(layers.PROFILER_SECTIONS)


class TestSectionVocabulary:
    """Every section an engine emits is a layer of the repo benchmark,
    so a bench diff, a profile and a live scrape share one name."""

    def test_engine_sections_are_perfbench_layers(self):
        from repro import Engine, EngineConfig, LBParams
        from repro.core.async_engine import AsyncEngine, ConstantRates
        from repro.core.columnar import ColumnarEngine

        vocabulary = _perfbench_vocabulary()
        emitted: set[str] = set()
        config = EngineConfig(n=8, params=LBParams(f=1.2, delta=2, C=2))
        acts = np.random.default_rng(3).choice([-1, 1], size=(60, 8), p=[0.4, 0.6])
        for cls in (Engine, ColumnarEngine):
            prof = Profiler()
            eng = cls(config, rng=1, profiler=prof)
            for row in acts:
                eng.step(row)
            assert eng.total_ops > 0
            emitted |= {r[0] for r in prof.summary()}
        prof = Profiler()
        rates = ConstantRates(np.full(8, 0.7), np.full(8, 0.3))
        AsyncEngine(LBParams(f=1.2, delta=2, C=4), rates, profiler=prof).run(20.0)
        emitted |= {r[0] for r in prof.summary()}
        assert {"ledger.snake_redeal", "columnar.residual", "async.action"} <= emitted
        assert emitted <= vocabulary, sorted(emitted - vocabulary)

    def test_service_doc_unchanged_by_profiler(self):
        from repro.service import ServiceConfig, service_run

        cfg = ServiceConfig.smoke(seed=0)
        prof = Profiler()
        profiled = service_run(cfg, chaos=True, profiler=prof)
        assert profiled.doc == service_run(cfg, chaos=True).doc
        assert _sections(prof)["async.action"][0] > 0
