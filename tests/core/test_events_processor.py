"""Tests for the balance trace events and their transfer sets."""

import numpy as np

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

