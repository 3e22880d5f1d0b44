"""Tests for the structured event tracer (ring buffer + NDJSON)."""

import io
import json

import numpy as np
import pytest

from repro import Engine, EngineConfig, LBParams
from repro.observability import NULL_TRACER, Tracer, validate_trace
from repro.observability.tracer import NullTracer, read_ndjson, write_ndjson

# Deterministic 2-processor scenario: n=2, f=1.5, delta=1, C=2, rng=0,
# driven by a fixed action sequence.  The golden trace below is the
# *complete* event sequence this run must produce — the instrumentation
# contract for every engine emission site (trigger, partner_select,
# balance, transfer, borrow, repay, dance, debt_settle) in one run.
GOLDEN_ACTIONS = [(1, 1), (1, 0), (1, -1), (-1, -1), (0, -1), (1, 1)]

GOLDEN_TRACE = [
    {"type": "trigger", "seq": 0, "t": 0, "proc": 0, "decision": "growth", "own_load": 1, "l_old": 0},
    {"type": "partner_select", "seq": 1, "t": 0, "initiator": 0, "partners": [1]},
    {"type": "balance", "seq": 2, "t": 0, "initiator": 0, "participants": [0, 1], "loads_before": [1, 0], "loads_after": [0, 1], "migrated": 1},
    {"type": "transfer", "seq": 3, "t": 0, "src": 0, "dst": 1, "amount": 1, "cause": "balance"},
    {"type": "trigger", "seq": 4, "t": 0, "proc": 1, "decision": "growth", "own_load": 1, "l_old": 0},
    {"type": "partner_select", "seq": 5, "t": 0, "initiator": 1, "partners": [0]},
    {"type": "balance", "seq": 6, "t": 0, "initiator": 1, "participants": [1, 0], "loads_before": [2, 0], "loads_after": [1, 1], "migrated": 1},
    {"type": "transfer", "seq": 7, "t": 0, "src": 1, "dst": 0, "amount": 1, "cause": "balance"},
    {"type": "trigger", "seq": 8, "t": 1, "proc": 0, "decision": "growth", "own_load": 1, "l_old": 0},
    {"type": "partner_select", "seq": 9, "t": 1, "initiator": 0, "partners": [1]},
    {"type": "balance", "seq": 10, "t": 1, "initiator": 0, "participants": [0, 1], "loads_before": [2, 1], "loads_after": [2, 1], "migrated": 0},
    {"type": "trigger", "seq": 11, "t": 2, "proc": 0, "decision": "growth", "own_load": 2, "l_old": 1},
    {"type": "partner_select", "seq": 12, "t": 2, "initiator": 0, "partners": [1]},
    {"type": "balance", "seq": 13, "t": 2, "initiator": 0, "participants": [0, 1], "loads_before": [3, 1], "loads_after": [2, 2], "migrated": 1},
    {"type": "transfer", "seq": 14, "t": 2, "src": 0, "dst": 1, "amount": 1, "cause": "balance"},
    {"type": "borrow", "seq": 15, "t": 2, "proc": 1, "cls": 0},
    {"type": "trigger", "seq": 16, "t": 3, "proc": 0, "decision": "decrease", "own_load": 0, "l_old": 1},
    {"type": "partner_select", "seq": 17, "t": 3, "initiator": 0, "partners": [1]},
    {"type": "balance", "seq": 18, "t": 3, "initiator": 0, "participants": [0, 1], "loads_before": [1, 1], "loads_after": [1, 1], "migrated": 0},
    {"type": "dance", "seq": 19, "t": 3, "debtor": 1, "cls": 0, "group": [0, 1]},
    {"type": "transfer", "seq": 20, "t": 3, "src": 1, "dst": 1, "amount": 1, "cause": "dance"},
    {"type": "debt_settle", "seq": 21, "t": 3, "proc": 1, "cls": 0, "count": 1, "mechanism": "dance"},
    {"type": "borrow", "seq": 22, "t": 3, "proc": 1, "cls": 0},
    {"type": "trigger", "seq": 23, "t": 5, "proc": 0, "decision": "growth", "own_load": 1, "l_old": 0},
    {"type": "partner_select", "seq": 24, "t": 5, "initiator": 0, "partners": [1]},
    {"type": "balance", "seq": 25, "t": 5, "initiator": 0, "participants": [0, 1], "loads_before": [2, 0], "loads_after": [1, 1], "migrated": 1},
    {"type": "transfer", "seq": 26, "t": 5, "src": 0, "dst": 1, "amount": 1, "cause": "balance"},
    {"type": "repay", "seq": 27, "t": 5, "proc": 1, "cls": 0},
]


def golden_engine(tracer=None):
    eng = Engine(
        EngineConfig(n=2, params=LBParams(f=1.5, delta=1, C=2)),
        rng=0,
        tracer=tracer,
    )
    for a in GOLDEN_ACTIONS:
        eng.step(np.array(a))
    return eng


class TestGoldenTrace:
    def test_exact_event_sequence(self):
        tracer = Tracer()
        golden_engine(tracer)
        assert tracer.events == GOLDEN_TRACE

    def test_golden_trace_validates(self):
        validate_trace(GOLDEN_TRACE)

    def test_trace_does_not_perturb_the_run(self):
        traced = golden_engine(Tracer())
        plain = golden_engine()
        assert traced.l.tolist() == plain.l.tolist()
        assert traced.total_ops == plain.total_ops
        assert np.array_equal(traced.d.dense(), plain.d.dense())
        assert np.array_equal(traced.b.dense(), plain.b.dense())


class TestDisabledTracer:
    def test_null_tracer_is_default_and_collects_nothing(self):
        eng = golden_engine()
        assert eng.tracer is NULL_TRACER
        assert eng._trace is False
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events == []

    def test_null_tracer_emit_is_noop(self):
        NULL_TRACER.emit("balance", anything="goes")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.counts() == {}

    def test_null_tracer_singleton(self):
        assert NullTracer() is not NULL_TRACER  # distinct instances allowed
        assert not NullTracer.enabled
        assert Tracer.enabled


class TestRingBuffer:
    def test_capacity_evicts_oldest_and_counts_dropped(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.emit("tick", t=i, loads=[0], ops=0, migrated=0)
        assert len(t) == 3
        assert t.dropped == 2
        assert [ev["t"] for ev in t.events] == [2, 3, 4]
        # seq still reflects the full emission history
        assert [ev["seq"] for ev in t.events] == [2, 3, 4]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear_keeps_seq_monotonic(self):
        t = Tracer()
        t.emit("borrow", t=0, proc=0, cls=0)
        t.clear()
        t.emit("borrow", t=1, proc=0, cls=0)
        assert t.events[0]["seq"] == 1


class TestNdjson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        tracer = Tracer()
        golden_engine(tracer)
        assert tracer.to_ndjson(path) == len(GOLDEN_TRACE)
        assert read_ndjson(path) == GOLDEN_TRACE

    def test_numpy_values_are_coerced(self):
        buf = io.StringIO()
        events = [{"type": "tick", "seq": np.int64(0), "t": np.int64(3),
                   "loads": np.array([1, 2]), "ops": 0, "migrated": 0}]
        write_ndjson(events, buf)
        line = json.loads(buf.getvalue())
        assert line == {"type": "tick", "seq": 0, "t": 3,
                        "loads": [1, 2], "ops": 0, "migrated": 0}

    def test_one_line_per_event(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_ndjson(GOLDEN_TRACE, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(GOLDEN_TRACE)
        assert all(json.loads(ln)["type"] for ln in lines)
