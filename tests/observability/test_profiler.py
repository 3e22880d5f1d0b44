"""Tests for the profiling hooks."""

import pytest

from repro.observability import NULL_PROFILER, Profiler
from repro.observability.profiler import NullProfiler, SectionStats


class TestSectionStats:
    def test_observe_tracks_extremes(self):
        s = SectionStats()
        s.observe_ns(10)
        s.observe_ns(30)
        s.observe_ns(20)
        assert (s.count, s.total_ns, s.min_ns, s.max_ns) == (3, 60, 10, 30)
        assert s.mean_ns == pytest.approx(20.0)

    def test_fold(self):
        a, b = SectionStats(), SectionStats()
        a.observe_ns(5)
        b.observe_ns(1)
        b.observe_ns(9)
        a.fold(b)
        assert (a.count, a.total_ns, a.min_ns, a.max_ns) == (3, 15, 1, 9)

    def test_fold_empty_is_identity(self):
        a = SectionStats()
        a.observe_ns(7)
        a.fold(SectionStats())
        assert (a.count, a.min_ns, a.max_ns) == (1, 7, 7)


class TestProfiler:
    def test_section_records_time(self):
        prof = Profiler()
        with prof.section("work"):
            sum(range(100))
        assert prof.records["work"].count == 1
        assert prof.records["work"].total_ns > 0

    def test_section_records_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof.section("boom"):
                raise RuntimeError
        assert prof.records["boom"].count == 1

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

    def test_as_dict_merge_dict_round_trip(self):
        a = Profiler()
        a.observe_ns("s", 100)
        a.observe_ns("s", 300)
        b = Profiler()
        b.observe_ns("s", 50)
        b.merge_dict(a.as_dict())
        s = b.records["s"]
        assert (s.count, s.total_ns, s.min_ns, s.max_ns) == (3, 450, 50, 300)

    def test_null_profiler_discards(self):
        with NULL_PROFILER.section("anything"):
            pass
        NULL_PROFILER.observe_ns("anything", 5)
        assert NULL_PROFILER.records == {}
        assert NULL_PROFILER.summary() == []
        assert not NullProfiler.enabled


class TestEngineProfiling:
    def test_engine_sections_populated(self):
        import numpy as np

        from repro import Engine, EngineConfig, LBParams

        prof = Profiler()
        # the per-action trigger.check contract holds on the scalar
        # sweep; the columnar pipeline batches quiet checks into
        # pipeline.classify (see docs/OBSERVABILITY.md)
        eng = Engine(
            EngineConfig(n=4, params=LBParams(f=1.2, delta=2, C=2)),
            rng=1,
            profiler=prof,
        )
        for _ in range(30):
            eng.step(np.ones(4, dtype=np.int64))
        assert prof.records["trigger.check"].count == 30 * 4  # per proc per tick
        assert prof.records["balance.select"].count == eng.total_ops
        assert prof.records["balance.deal"].count == eng.total_ops
        assert eng.total_ops > 0

    def test_pipeline_sections_populated(self):
        import numpy as np

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
        # land in trigger.check individually
        for name in ("classify", "advance+apply", "residual"):
            assert prof.records[f"pipeline.{name}"].count == 30
        assert prof.records["balance.select"].count == eng.total_ops
        assert prof.records["trigger.check"].count >= eng.total_ops

    def test_unprofiled_engine_pays_nothing(self):
        import numpy as np

        from repro import Engine, EngineConfig, LBParams

        eng = Engine(EngineConfig(n=2, params=LBParams(f=1.5, delta=1, C=2)), rng=0)
        assert eng.profiler is None
        assert eng._profile is False
        eng.step(np.array([1, 1]))
        assert NULL_PROFILER.records == {}
