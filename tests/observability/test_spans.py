"""Tests for balancing-operation spans.

Covers the recorder/reconstruction round trip on real engine runs
(synchronous and asynchronous, clean and faulted), tolerance to
ring-buffer truncation, and the renderers behind ``repro spans``.
"""

import pytest

from repro import LBParams
from repro.observability import (
    SpanRecorder,
    Tracer,
    rank_spans,
    spans_from_trace,
    validate_trace,
    worst_span,
)
from repro.observability.report import spans_section
from repro.observability.spans import Span, render_waterfall

PARAMS = LBParams(f=1.3, delta=2, C=4)


def sync_trace(n=16, steps=150, seed=2, capacity=None):
    from repro.simulation.driver import run_simulation
    from repro.workload import Section7Workload

    tracer = Tracer(capacity=capacity)
    spans = SpanRecorder(tracer)
    res = run_simulation(
        n, PARAMS, Section7Workload(n, steps, layout_rng=seed), steps,
        seed=seed, tracer=tracer, spans=spans,
    )
    return res, tracer, spans


class TestSyncEngineSpans:
    def test_one_span_per_balancing_op_all_completed(self):
        res, tracer, rec = sync_trace()
        spans = spans_from_trace(tracer.events)
        assert len(spans) == res.total_ops > 0
        assert rec.open == 0
        assert all(s.status == "completed" for s in spans)
        # the synchronous engine runs the whole op inline in one tick
        assert all(s.duration == 0.0 for s in spans)
        validate_trace(tracer.events)

    def test_sync_phases_in_causal_order(self):
        _, tracer, _ = sync_trace()
        for s in spans_from_trace(tracer.events):
            assert s.op == "balance"
            assert s.phases[:2] == ["partner_select", "deal"]
            # zero or more debt settlements follow the deal
            assert set(s.phases[2:]) <= {"debt_settle"}

    def test_migrated_totals_match_balance_events(self):
        _, tracer, _ = sync_trace()
        spans = spans_from_trace(tracer.events)
        migrated = sum(s.migrated for s in spans)
        balance_events = [
            e for e in tracer.events if e["type"] == "balance"
        ]
        assert migrated == sum(e["migrated"] for e in balance_events) > 0


class TestTruncatedTraces:
    def test_evicted_starts_drop_their_points_and_ends(self):
        res, tracer, rec = sync_trace(capacity=400)
        assert tracer.dropped > 0
        spans = spans_from_trace(tracer.events)
        # fewer spans survive than were recorded, and every survivor is
        # fully reconstructed (its start is in the buffer by construction)
        assert 0 < len(spans) < rec.started
        assert all(s.status == "completed" for s in spans)

    def test_open_span_reconstructs_with_none_status(self):
        tracer = Tracer()
        rec = SpanRecorder(tracer)
        sid = rec.start(t=1.0, op="balance", proc=0)
        rec.point(sid, t=1.5, phase="partner_select", proc=0)
        (s,) = spans_from_trace(tracer.events)
        assert s.status is None and s.end is None and s.duration is None
        assert rec.open == 1


@pytest.mark.tier2
class TestAsyncEngineSpans:
    @pytest.fixture(scope="class")
    def faulted(self):
        from repro.experiments.resilience import ResilienceConfig

        cfg = ResilienceConfig()
        tracer = Tracer()
        rec = SpanRecorder(tracer)
        engine = cfg.engine(cfg.plan(), tracer=tracer, spans=rec)
        res = engine.run(cfg.horizon)
        return res, tracer, rec

    def test_faulted_run_shows_failure_outcomes(self, faulted):
        res, tracer, rec = faulted
        spans = spans_from_trace(tracer.events)
        statuses = {s.status for s in spans}
        assert "completed" in statuses
        # the crash burst + message loss must surface at least one
        # non-completed outcome
        assert statuses & {"reclaimed", "aborted", "gave_up", "quiesced"}
        validate_trace(tracer.events)

    def test_span_accounting_closes_or_stays_open_at_horizon(self, faulted):
        _, tracer, rec = faulted
        spans = spans_from_trace(tracer.events)
        open_spans = [s for s in spans if s.status is None]
        assert len(spans) == rec.started
        assert len(open_spans) == rec.open

    def test_completed_async_spans_have_latency(self, faulted):
        _, tracer, _ = faulted
        done = [
            s for s in spans_from_trace(tracer.events)
            if s.status == "completed"
        ]
        assert done and all(s.duration > 0 for s in done)


def toy_span(**kw):
    defaults = dict(span=0, op="balance", proc=1, start=2.0)
    defaults.update(kw)
    return Span(**defaults)


class TestRenderers:
    def test_worst_span_prefers_longest_then_busiest(self):
        a = toy_span(span=0, end=2.0, status="completed")
        b = toy_span(span=1, end=7.0, status="reclaimed")
        c = toy_span(
            span=2, end=2.0, status="completed",
            points=[{"t": 2.0, "phase": "deal", "proc": 1}],
        )
        assert worst_span([a, b, c]) is b       # longest duration wins
        assert worst_span([a, c]) is c          # ties go to the busiest
        assert worst_span([]) is None

    def test_rank_spans_worst_first_ties_in_trace_order(self):
        a = toy_span(span=0, end=2.0, status="completed")
        b = toy_span(span=1, end=7.0, status="reclaimed")
        c = toy_span(span=2, end=2.0, status="completed")
        assert [s.span for s in rank_spans([a, b, c])] == [1, 0, 2]
        assert worst_span([a, c]) is a
        assert rank_spans([]) == []

    def test_waterfall_contains_every_step(self):
        s = toy_span(
            end=4.0, status="completed", migrated=3,
            points=[
                {"t": 2.5, "phase": "partner_select", "proc": 1},
                {"t": 3.0, "phase": "deal", "proc": 4},
            ],
        )
        out = render_waterfall(s)
        assert "status=completed" in out and "migrated=3" in out
        assert "partner_select" in out and "deal" in out
        assert "duration=2" in out

    def test_spans_section_summary_and_empty(self):
        _, tracer, _ = sync_trace(steps=60)
        out = "\n".join(spans_section(spans_from_trace(tracer.events)))
        assert "| outcome | spans |" in out and "Worst span" in out
        assert spans_section([])[-1] == "(no spans recorded)"
