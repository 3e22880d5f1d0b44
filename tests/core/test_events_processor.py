"""Tests for the balance trace events and the per-processor view."""

import numpy as np
import pytest

from repro import Engine, EngineConfig, LBParams
from repro.core.balance import greedy_transfers
from repro.observability.tracer import Tracer


def traced_engine(n=6, f=1.3, delta=2, seed=0) -> Engine:
    return Engine(
        EngineConfig(n=n, params=LBParams(f=f, delta=delta, C=4)),
        rng=seed,
        tracer=Tracer(),
    )


def balance_events(e: Engine) -> list[dict]:
    return [ev for ev in e.tracer if ev["type"] == "balance"]


def drive(e: Engine, ticks: int, seed: int = 1) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        e.step((rng.random(e.n) < 0.7).astype(np.int64))


class TestEventRecording:
    def test_events_match_op_count(self):
        e = traced_engine()
        drive(e, 50)
        assert len(balance_events(e)) == e.total_ops
        assert e.total_ops > 0

    def test_event_fields_consistent(self):
        e = traced_engine()
        drive(e, 30)
        events = balance_events(e)
        assert events
        for ev in events:
            before, after = ev["loads_before"], ev["loads_after"]
            assert ev["participants"][0] == ev["initiator"]
            assert len(ev["participants"]) == 3  # delta + 1
            assert sum(before) == sum(after)  # conserved
            assert max(after) - min(after) <= 1
            assert ev["migrated"] == sum(
                max(a - b, 0) for a, b in zip(after, before)
            )

    def test_transfers_cover_deltas(self):
        moves = greedy_transfers((0, 3, 5), (9, 0, 0), (3, 3, 3))
        assert sum(amount for _, _, amount in moves) == 6
        assert all(src == 0 for src, _, _ in moves)
        assert {dst for _, dst, _ in moves} == {3, 5}

    def test_transfers_empty_when_balanced(self):
        assert greedy_transfers((0, 1), (3, 3), (3, 3)) == []


class TestProcessorView:
    def test_appendix_variables(self):
        e = traced_engine(n=5)
        drive(e, 40)
        for i in range(5):
            v = e.processor(i)
            assert v.load == int(e.l[i])
            assert v.own_load == e.d.get(i, i)
            assert v.debt == e.b.row_sum(i)
            assert v.virtual_load == v.load + v.debt
            assert v.foreign_load == v.load - v.own_load
            assert v.local_time == int(e.local_time[i])

    def test_copies_not_views(self):
        e = traced_engine(n=4)
        drive(e, 10)
        v = e.processor(0)
        d = v.d
        d[0] += 100
        assert v.d[0] == e.d.get(0, 0) == d[0] - 100  # engine unchanged
        assert np.array_equal(v.d, e.d.row_dense(0))
        assert np.array_equal(v.b, e.b.row_dense(0))

    def test_would_trigger_consistent(self):
        e = traced_engine(n=4)
        drive(e, 30)
        for i in range(4):
            v = e.processor(i)
            # after a settled drive, no processor should be mid-trigger
            # (any fired trigger was serviced inline)
            assert v.would_trigger() in ("none", "growth", "decrease")

    def test_out_of_range(self):
        e = traced_engine(n=4)
        with pytest.raises(IndexError):
            e.processor(4)

    def test_repr(self):
        e = traced_engine(n=4)
        assert "ProcessorView(i=2" in repr(e.processor(2))

    def test_can_borrow_respects_capacity(self):
        e = traced_engine(n=4)
        e.d.add(1, 0, 5)  # foreign packets available
        e.l[1] = 5
        assert e.processor(1).can_borrow
        e.b.add(1, 2, e.params.C)
        assert not e.processor(1).can_borrow
