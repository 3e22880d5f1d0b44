"""Tests for the full n-processor engine (section 4 + appendix)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine, EngineConfig
from repro.params import LBParams


def make_engine(
    n=6, f=1.5, delta=1, C=4, seed=0, check=True, **kw
) -> Engine:
    return Engine(
        EngineConfig(
            n=n,
            params=LBParams(f=f, delta=delta, C=C),
            check_invariants=check,
            **kw,
        ),
        rng=seed,
    )


def gen_only(n, i=0):
    a = np.zeros(n, dtype=np.int64)
    a[i] = 1
    return a


def con_only(n, i=0):
    a = np.zeros(n, dtype=np.int64)
    a[i] = -1
    return a


class TestBasicActions:
    def test_generate_books_own_class(self):
        e = make_engine()
        e.step(gen_only(6))
        assert e.l.sum() == 1
        assert e.d.total() == 1
        assert e.total_generated == 1

    def test_consume_decrements_total(self):
        e = make_engine(f=3.0, delta=3)  # wide trigger band
        for _ in range(10):
            e.step(gen_only(6))
        before = int(e.l.sum())
        loaded = int((e.l > 0).sum())
        e.step(np.full(6, -1, dtype=np.int64))  # everyone consumes
        assert e.l.sum() == before - loaded
        assert e.counters.starved == 6 - loaded

    def test_consume_on_empty_is_starved(self):
        e = make_engine()
        e.step(con_only(6))
        assert e.counters.starved == 1
        assert (e.l == 0).all()

    def test_idle_changes_nothing(self):
        e = make_engine()
        e.step(np.zeros(6, dtype=np.int64))
        assert e.l.sum() == 0
        assert e.total_ops == 0

    def test_bad_action_shape(self):
        e = make_engine()
        with pytest.raises(ValueError):
            e.step(np.zeros(5, dtype=np.int64))

    def test_bad_action_value(self):
        e = make_engine()
        with pytest.raises(ValueError):
            e.step(np.full(6, 2, dtype=np.int64))

    def test_real_load_conservation(self):
        e = make_engine(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(60):
            e.step(rng.integers(-1, 2, size=6))
        assert e.l.sum() == e.total_generated - e.total_consumed
        e.assert_invariants()


class TestBalancing:
    def test_first_packet_triggers_balance(self):
        e = make_engine(n=4, f=1.1, delta=1)
        e.step(gen_only(4))
        assert e.total_ops >= 1

    def test_balance_equalises_real_loads(self):
        e = make_engine(n=4, f=1.1, delta=3, seed=1)
        for _ in range(40):
            e.step(gen_only(4))
        # delta = n-1: every op balances the whole machine
        assert e.l.max() - e.l.min() <= 1

    def test_l_old_refreshed_for_participants(self):
        e = make_engine(n=4, f=1.5, delta=3, refresh_participants=True)
        for _ in range(10):
            e.step(gen_only(4))
        # after ops, every participant's l_old equals its own-class load
        assert (e.l_old == e.d.diag).all()

    def test_refresh_only_initiator_mode(self):
        e = make_engine(n=4, f=1.5, delta=1, refresh_participants=False)
        for _ in range(20):
            e.step(gen_only(4))
        e.assert_invariants()  # conservation still holds

    def test_local_time_counts_ops(self):
        e = make_engine(n=4, f=1.5, delta=3)
        for _ in range(20):
            e.step(gen_only(4))
        # all processors participate in every op (delta = n-1)
        assert (e.local_time == e.total_ops).all()

    def test_ops_bound_by_trigger_factor(self):
        """With f = 2 the producer must double its own-class load
        between ops: ops grow logarithmically, not linearly."""
        e = make_engine(n=8, f=2.0, delta=2, seed=2)
        for _ in range(200):
            e.step(gen_only(8))
        assert e.total_ops < 60

    def test_migrations_counted(self):
        e = make_engine(n=4, f=1.1, delta=3)
        for _ in range(10):
            e.step(gen_only(4))
        assert e.packets_migrated > 0


class TestBorrowing:
    def _drain_setup(self, C=2):
        """Processor 1 ends up holding only foreign packets."""
        e = make_engine(n=4, f=1.5, delta=3, C=C, seed=5)
        for _ in range(30):
            e.step(gen_only(4, i=0))  # proc 0 generates, balancing spreads
        return e

    def test_borrow_on_foreign_consume(self):
        e = self._drain_setup()
        # processor 1 has load but no self-generated packets
        assert e.d.get(1, 1) == 0 and e.l[1] > 0
        e.step(con_only(4, i=1))
        assert e.counters.total_borrow == 1
        assert e.b.row_sum(1) == 1

    def test_borrow_capacity_respected_between_reductions(self):
        e = self._drain_setup(C=2)
        for _ in range(12):
            e.step(con_only(4, i=1))
            assert e.b.row_sum(1) <= 2  # never exceeds C
        assert e.counters.total_borrow > 2  # reductions made room

    def test_generation_repays_debt(self):
        e = self._drain_setup()
        e.step(con_only(4, i=1))
        assert e.b.row_sum(1) == 1
        e.step(gen_only(4, i=1))
        assert e.counters.repayments == 1
        assert e.b.row_sum(1) == 0

    def test_debt_reduction_paths_counted(self):
        """Exhausting capacity triggers remote exchange or the dance."""
        e = self._drain_setup(C=1)
        for _ in range(10):
            e.step(con_only(4, i=1))
        c = e.counters
        assert c.remote_borrow + c.borrow_fail >= 1
        assert c.decrease_sim >= c.remote_borrow  # each exchange books one

    def test_debt_ledger_closes(self):
        e = self._drain_setup(C=2)
        rng = np.random.default_rng(1)
        for _ in range(80):
            e.step(rng.integers(-1, 2, size=4))
        e.assert_invariants()  # includes the debt-ledger law


class TestInvariantMode:
    def test_catches_corruption(self):
        e = make_engine()
        e.step(gen_only(6))
        e.d.add(0, 0, 5)  # corrupt
        with pytest.raises(AssertionError):
            e.assert_invariants()

    def test_negative_debt_detected(self):
        e = make_engine()
        e.b.add(2, 3, -1)
        with pytest.raises(AssertionError):
            e.assert_invariants()

    def test_debt_entry_above_one_detected(self):
        e = make_engine()
        e.b.add(2, 3, 2)
        e.counters.total_borrow += 2  # the debt ledger still closes
        with pytest.raises(AssertionError, match="b entry 2 above 1"):
            e.assert_invariants()


class TestPropertyRandomWalk:
    @given(
        n=st.integers(2, 10),
        delta=st.integers(1, 4),
        f=st.floats(1.0, 3.0),
        C=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40)
    def test_invariants_hold_under_any_workload(self, n, delta, f, C, seed):
        """The master property: for any parameters in (and slightly out
        of) the provable domain and any random action sequence, all
        conservation laws hold at every tick."""
        if delta >= n:
            return
        params = LBParams(f=f, delta=delta, C=C, require_provable=False)
        e = Engine(
            EngineConfig(n=n, params=params, check_invariants=True),
            rng=seed,
        )
        rng = np.random.default_rng(seed + 1)
        for _ in range(50):
            e.step(rng.integers(-1, 2, size=n))  # asserts internally
        assert e.l.sum() == e.total_generated - e.total_consumed

    @given(
        n=st.integers(8, 16),
        delta=st.integers(1, 3),
        f=st.floats(1.05, 2.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_debt_entries_stay_zero_or_one(self, n, delta, f, seed):
        """``b`` in {0, 1} at every tick, on a dance-heavy stream: C = 1
        and a growth phase followed by a drain, so borrows fail and run
        the class-j dance, whose deals must not stack two debts."""
        params = LBParams(f=f, delta=delta, C=1, require_provable=False)
        e = Engine(EngineConfig(n=n, params=params, check_invariants=True), rng=seed)
        rng = np.random.default_rng(seed + 1)
        for t in range(90):
            p = 0.75 if t < 30 else 0.3
            e.step(np.where(rng.random(n) < p, 1, -1))  # asserts internally
        assert e.counters.borrow_fail > 0

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25)
    def test_steady_state_balanced(self, seed):
        """After sustained uniform activity, loads are tightly grouped
        (the Theorem-4 promise, empirically)."""
        e = make_engine(n=8, f=1.1, delta=2, seed=seed, check=False)
        rng = np.random.default_rng(seed)
        for t in range(300):
            gen = (rng.random(8) < 0.7).astype(np.int64)
            e.step(gen)  # pure growth keeps loads positive
        mean = e.l.mean()
        assert e.l.max() <= 1.35 * mean + 5
        assert e.l.min() >= 0.65 * mean - 5
