"""Tests for balancing-operation spans.

Covers the derivation of spans from ordinary trace events on real
engine runs (synchronous and asynchronous, clean and faulted) against a
golden record, each asynchronous outcome on hand-written event streams,
tolerance to ring-buffer truncation, and the renderers behind
``repro spans``.

``golden_spans.json`` holds the spans of four runs as recorded by the
engines' former span emitter, one ``[span, op, proc, start, end,
status, migrated, [[t, phase, proc], ...]]`` row per span: the default
``repro spans --engine sync``, ``--engine async`` and ``--faulted``
runs, and a ring-of-4 dynamic network whose churn isolates initiators
(the set-up of ``test_sync_engine_isolated_counter``).
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from repro import LBParams
from repro.observability import (
    Tracer,
    rank_spans,
    spans_from_trace,
    validate_trace,
    worst_span,
)
from repro.observability.report import spans_section
from repro.observability.spans import Span, render_waterfall

PARAMS = LBParams(f=1.3, delta=2, C=4)
GOLDEN = Path(__file__).with_name("golden_spans.json")


def sync_trace(n=16, steps=150, seed=2, capacity=None):
    from repro.simulation.driver import run_simulation
    from repro.workload import Section7Workload

    tracer = Tracer(capacity=capacity)
    res = run_simulation(
        n, PARAMS, Section7Workload(n, steps, layout_rng=seed), steps,
        seed=seed, tracer=tracer,
    )
    return res, tracer


def _cli_trace(*argv: str) -> list[dict]:
    """The trace of the run ``repro spans <argv>`` observes."""
    from repro import cli

    args = cli._build_parser().parse_args(["spans", *argv])
    tracer = Tracer()
    cli._observed_run(argparse.Namespace(**{**vars(args), "seed": 0}), tracer=tracer)
    return tracer.events


def _isolating_dynnet_trace() -> list[dict]:
    from repro.core import Engine, EngineConfig
    from repro.dynnet import ChurnPlan, DynamicNetwork, LeaveWindow
    from repro.network import Ring
    from repro.workload import Section7Workload

    n = 4
    plan = ChurnPlan(
        leaves=(
            LeaveWindow(proc=1, start=1.0, end=100.0),
            LeaveWindow(proc=3, start=1.0, end=100.0),
        )
    )
    tracer = Tracer()
    e = Engine(
        EngineConfig(n=n, params=LBParams(f=1.5, delta=3, C=2)), rng=7,
        dynnet=DynamicNetwork(Ring(n), plan=plan), tracer=tracer,
    )
    wl = Section7Workload(n, horizon=40, layout_rng=11)
    wrng = np.random.default_rng(13)
    for t in range(40):
        e.step(wl.actions(t, e.l, wrng))
    assert e.isolated_ops > 0
    return tracer.events


GOLDEN_RUNS = {
    "sync": lambda: _cli_trace("--engine", "sync"),
    "async": lambda: _cli_trace("--engine", "async"),
    "faulted": lambda: _cli_trace("--faulted"),
    "dynnet_isolated": _isolating_dynnet_trace,
}


def _row(s: Span) -> list:
    return [
        s.span, s.op, s.proc, s.start, s.end, s.status, s.migrated,
        [[p["t"], p["phase"], p["proc"]] for p in s.points],
    ]


class TestGoldenSpans:
    @pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
    def test_plain_trace_reproduces_the_recorded_spans(self, run):
        expected = json.loads(GOLDEN.read_text())[run]
        events = GOLDEN_RUNS[run]()
        validate_trace(events)
        assert [_row(s) for s in spans_from_trace(events)] == expected

    def test_golden_record_covers_the_isolated_outcome(self):
        golden = json.loads(GOLDEN.read_text())
        statuses = {row[5] for rows in golden.values() for row in rows}
        assert {"completed", "isolated", "quiesced", "reclaimed"} <= statuses


class TestSyncEngineSpans:
    def test_one_span_per_balancing_op_all_completed(self):
        res, tracer = sync_trace()
        spans = spans_from_trace(tracer.events)
        assert len(spans) == res.total_ops > 0
        assert all(s.status == "completed" for s in spans)
        # the synchronous engine runs the whole op inline in one tick
        assert all(s.duration == 0.0 for s in spans)
        validate_trace(tracer.events)

    def test_sync_phases_in_causal_order(self):
        _, tracer = sync_trace()
        for s in spans_from_trace(tracer.events):
            assert s.op == "balance"
            assert s.phases[:2] == ["partner_select", "deal"]
            # zero or more debt settlements follow the deal
            assert set(s.phases[2:]) <= {"debt_settle"}

    def test_migrated_totals_match_balance_events(self):
        _, tracer = sync_trace()
        spans = spans_from_trace(tracer.events)
        migrated = sum(s.migrated for s in spans)
        balance_events = [
            e for e in tracer.events if e["type"] == "balance"
        ]
        assert migrated == sum(e["migrated"] for e in balance_events) > 0

    def test_own_class_repayment_is_not_a_phase(self):
        # a debtor settling its own class outside any operation emits a
        # self debt_settle too; only a participant's, right after the
        # deal, belongs to the span
        events = [
            {"type": "trigger", "t": 3, "proc": 0, "decision": "growth",
             "own_load": 4, "l_old": 2},
            {"type": "partner_select", "t": 3, "initiator": 0, "partners": [2]},
            {"type": "balance", "t": 3, "initiator": 0, "participants": [0, 2],
             "loads_before": [4, 0], "loads_after": [2, 2], "migrated": 2},
            {"type": "transfer", "t": 3, "src": 0, "dst": 2, "amount": 2,
             "cause": "balance"},
            {"type": "debt_settle", "t": 3, "proc": 2, "cls": 2, "count": 1,
             "mechanism": "self"},
            {"type": "borrow", "t": 3, "proc": 5, "cls": 0},
            {"type": "debt_settle", "t": 3, "proc": 0, "cls": 0, "count": 1,
             "mechanism": "self"},
        ]
        (s,) = spans_from_trace(events)
        assert s.phases == ["partner_select", "deal", "debt_settle"]
        assert s.points[-1]["proc"] == 2
        assert (s.status, s.migrated) == ("completed", 2)


def _ev(etype: str, time: float, initiator: int, **fields) -> dict:
    return {"type": etype, "time": time, "initiator": initiator, **fields}


class TestAsyncOutcomes:
    """Each asynchronous outcome from hand-written event streams."""

    def test_refused_then_accepted_episode_is_one_span(self):
        (s,) = spans_from_trace([
            _ev("async_drop", 1.0, 4, declined=2),
            _ev("async_retry", 1.0, 4, attempt=1, delay=0.6),
            _ev("async_accept", 1.6, 4, group=[4, 1]),
            _ev("fault_straggle", 1.6, 4, factor=3.0),
            _ev("async_balance", 1.9, 4, group=[4, 1], loads_before=[3, 1],
                loads_after=[2, 2], migrated=1),
        ])
        assert (s.proc, s.start, s.end) == (4, 1.0, 1.9)
        assert s.phases == ["declined", "retry", "partner_select", "straggle"]
        assert (s.status, s.migrated) == ("completed", 1)

    def test_abandon_reasons(self):
        spans = spans_from_trace([
            _ev("async_drop", 1.0, 0, declined=2),
            _ev("async_retry", 1.0, 0, attempt=1, delay=0.5),
            _ev("async_abandon", 1.5, 0, reason="crashed"),
            _ev("async_accept", 2.0, 1, group=[1, 3]),
            _ev("async_abandon", 2.1, 1, reason="stranded"),
            _ev("async_drop", 3.0, 2, declined=1),
            _ev("async_retry", 3.0, 2, attempt=1, delay=0.5),
            _ev("async_abandon", 3.5, 2, reason="quiesced"),
            # 0's attempt count resets once its load drifts back, but the
            # crash already ended its episode
            _ev("async_abandon", 9.0, 0, reason="quiesced"),
        ])
        assert [(s.proc, s.status, s.end) for s in spans] == [
            (0, "aborted", 1.5), (1, "aborted", 2.1), (2, "quiesced", 3.5),
        ]
        assert spans[1].phases == ["partner_select"]

    def test_lost_completion_and_budget_outcomes(self):
        lost, gave_up = spans_from_trace([
            _ev("async_accept", 1.0, 5, group=[5, 6]),
            _ev("async_drop", 1.05, 7, declined=2),
            _ev("fault_msg_loss", 1.1, 5, group=[5, 6]),
            _ev("async_giveup", 1.2, 7, attempts=1),
            _ev("fault_reclaim", 2.1, 5, group=[5, 6], waited=1.1),
        ])
        assert lost.phases == ["partner_select", "msg_loss"]
        assert (lost.status, lost.end) == ("reclaimed", 2.1)
        assert (gave_up.proc, gave_up.status, gave_up.phases) == (
            7, "gave_up", ["declined"],
        )


class TestTruncatedTraces:
    def test_evicted_starts_drop_their_points_and_ends(self):
        res, tracer = sync_trace(capacity=400)
        assert tracer.dropped > 0
        spans = spans_from_trace(tracer.events)
        # fewer spans survive than operations ran, and every survivor is
        # fully reconstructed (its trigger is in the buffer by construction)
        assert 0 < len(spans) < res.total_ops
        assert all(s.status == "completed" for s in spans)

    def test_open_span_reconstructs_with_none_status(self):
        # an operation still in flight at the horizon
        (s,) = spans_from_trace([_ev("async_accept", 1.0, 0, group=[0, 2])])
        assert s.status is None and s.end is None and s.duration is None
        assert s.phases == ["partner_select"]

    def test_orphans_are_reported(self):
        res, tracer = sync_trace()
        # evict everything up to and including the first trigger: its
        # partner_select and balance lose their opening event
        first = next(
            k for k, e in enumerate(tracer.events) if e["type"] == "trigger"
        )
        warn = Tracer()
        spans = spans_from_trace(tracer.events[first + 1:], tracer=warn)
        assert len(spans) == res.total_ops - 1
        (warning,) = [e for e in warn.events if e["type"] == "trace_truncated"]
        assert warning["dropped"] == 2
        assert warning["time"] == tracer.events[first]["t"]


@pytest.mark.tier2
class TestAsyncEngineSpans:
    @pytest.fixture(scope="class")
    def faulted(self):
        from repro.experiments.resilience import ResilienceConfig

        cfg = ResilienceConfig()
        tracer = Tracer()
        engine = cfg.engine(cfg.plan(), tracer=tracer)
        res = engine.run(cfg.horizon)
        return res, tracer, cfg

    def test_faulted_run_shows_failure_outcomes(self, faulted):
        res, tracer, _ = faulted
        spans = spans_from_trace(tracer.events)
        statuses = {s.status for s in spans}
        assert "completed" in statuses
        # the crash burst + message loss must surface at least one
        # non-completed outcome
        assert statuses & {"reclaimed", "aborted", "gave_up", "quiesced"}
        validate_trace(tracer.events)

    def test_span_accounting_closes_or_stays_open_at_horizon(self, faulted):
        _, tracer, cfg = faulted
        spans = spans_from_trace(tracer.events)
        accepts = sum(e["type"] == "async_accept" for e in tracer.events)
        assert sum("partner_select" in s.phases for s in spans) == accepts
        # an initiator has at most one episode open at the horizon
        open_procs = [s.proc for s in spans if s.status is None]
        assert len(open_procs) == len(set(open_procs)) <= cfg.n

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
        _, tracer = sync_trace(steps=60)
        out = "\n".join(spans_section(spans_from_trace(tracer.events)))
        assert "| outcome | spans |" in out and "Worst span" in out
        assert spans_section([])[-1] == "(no spans recorded)"
