"""The compiled tick walk must be invisible.

An untraced :class:`~repro.core.columnar.ColumnarEngine` runs every
residual tick (one with any slow processor) through the compiled walk
of :mod:`repro.core.rngadvance`: generate, repay, consume, starve,
borrow, the trigger, the balancing operation, self-debt settlement and
the class-``j`` dance in C, with a call back into Python for the
producer exchange.  Checked here against the scalar oracle
(``Engine``), after every tick, on ``l``, ``l_old``, ``local_time``,
both ledgers, every counter and the full RNG state:

* a lockstep grid (n 8–1024, C 1/4/8, δ 1–3, f 1.1–2.0, the strict
  trigger, initiator-only refresh, idle actions; stationary,
  exchange-heavy and starvation-heavy streams) on an engine whose
  Python walk raises, so every residual tick provably ran compiled;
* each condition that routes a tick to ``_dense_sweep`` instead, and
  a failed probe or build, which warn once and stay exact;
* an exception raised in the exchange callback, which propagates with
  the counters of the partial tick applied;
* Lemire's rejection step of the bounded draw, forced by a planted
  32-bit word.
"""

from __future__ import annotations

import types
import warnings

import numpy as np
import pytest

from repro.core import columnar, rngadvance
from repro.core.columnar import ColumnarEngine, _TickFrame
from repro.core.engine import Engine, EngineConfig
from repro.core.ledger import ClassLedger
from repro.core.rngadvance import _states_equal
from repro.core.selection import GlobalRandomSelector
from repro.dynnet import DynamicNetwork
from repro.network import CompleteGraph
from repro.observability import Profiler, Tracer
from repro.params import LBParams

pytestmark = pytest.mark.skipif(
    rngadvance.walk_function() is None, reason="no compiled tick walk on this machine"
)


class _WalkOnly(ColumnarEngine):
    """Every residual tick must take the compiled walk."""

    walk_ticks = 0

    def _tick_walk(self):
        walk = super()._tick_walk()
        assert walk, "the compiled walk did not bind"
        self.walk_ticks += 1
        return walk

    def _dense_sweep(self, frame) -> None:
        raise AssertionError("a residual tick took the Python walk")


class _DenseCounting(ColumnarEngine):
    dense_ticks = 0

    def _dense_sweep(self, frame) -> None:
        self.dense_ticks += 1
        super()._dense_sweep(frame)


def _stream(kind: str, n: int, ticks: int, idle: float, seed: int) -> np.ndarray:
    """Action rows: ``stationary`` (growth, then P(generate) = 0.45),
    ``exchange`` (growth, then a drain: borrows, exchanges, dances) or
    ``starve`` (P(generate) = 0.2)."""
    wr = np.random.default_rng(seed)
    out = np.empty((ticks, n), dtype=np.int64)
    for t in range(ticks):
        if kind == "stationary":
            p = 0.6 if t < ticks // 3 else 0.45
        elif kind == "exchange":
            p = 0.8 if t < ticks // 2 else 0.25
        else:
            p = 0.2
        row = np.where(wr.random(n) < p, 1, -1)
        row[wr.random(n) < idle] = 0
        out[t] = row
    return out


def _assert_same(eng: Engine, ref: Engine) -> None:
    assert eng.l.tolist() == ref.l.tolist()
    assert eng.l_old.tolist() == ref.l_old.tolist()
    assert eng.local_time.tolist() == ref.local_time.tolist()
    for name in ("d", "b"):
        a, b = getattr(eng, name), getattr(ref, name)
        assert a.diag.tolist() == b.diag.tolist(), name
        assert a.row_sums.tolist() == b.row_sums.tolist(), name
        assert a.rows == b.rows, name
    assert eng.counters.as_dict() == ref.counters.as_dict()
    for name in ("total_ops", "packets_migrated", "total_generated", "total_consumed"):
        assert getattr(eng, name) == getattr(ref, name), name
    assert _states_equal(eng.rng.bit_generator.state, ref.rng.bit_generator.state)


def _lockstep(eng: Engine, ref: Engine, actions: np.ndarray) -> None:
    for row in actions:
        eng.step(row)
        ref.step(row)
        _assert_same(eng, ref)


GRID = [
    # (n, f, delta, C, strict, refresh, idle, stream, ticks, seed)
    (8, 1.1, 1, 1, False, True, 0.0, "exchange", 80, 0),
    (8, 2.0, 3, 4, True, True, 0.1, "stationary", 80, 1),
    (16, 1.5, 2, 8, False, False, 0.1, "exchange", 80, 2),
    (16, 1.1, 1, 1, False, True, 0.1, "starve", 80, 3),
    (64, 1.3, 2, 4, False, True, 0.1, "stationary", 60, 4),
    (64, 1.2, 3, 1, True, False, 0.0, "exchange", 60, 5),
    (256, 1.3, 2, 4, False, True, 0.1, "exchange", 40, 6),
    (256, 2.0, 1, 8, False, True, 0.1, "starve", 40, 7),
    (1024, 1.3, 2, 4, False, True, 0.1, "stationary", 30, 8),
    (1024, 1.1, 3, 1, False, False, 0.0, "exchange", 30, 9),
]


@pytest.mark.parametrize("n,f,delta,C,strict,refresh,idle,kind,ticks,seed", GRID)
def test_walk_matches_the_scalar_oracle_tick_by_tick(
    n, f, delta, C, strict, refresh, idle, kind, ticks, seed
):
    config = EngineConfig(
        n=n,
        params=LBParams(f=f, delta=delta, C=C, require_provable=False),
        strict_trigger=strict,
        refresh_participants=refresh,
    )
    eng = _WalkOnly(config, rng=seed)
    ref = Engine(config, rng=seed)
    _lockstep(eng, ref, _stream(kind, n, ticks, idle, 100 + seed))
    assert eng.walk_ticks > 0
    assert eng.total_ops > 0
    eng.assert_invariants()


def test_grid_reaches_every_debt_path():
    """The grid's streams reach the producer exchange, the dance, the
    annihilating dance, a blocked consume and starvation."""
    totals = dict.fromkeys(
        ("remote_borrow", "borrow_fail", "debt_annihilated", "consume_blocked", "starved"), 0
    )
    for n, f, delta, C, strict, refresh, idle, kind, ticks, seed in GRID[:8]:
        config = EngineConfig(
            n=n,
            params=LBParams(f=f, delta=delta, C=C, require_provable=False),
            strict_trigger=strict,
            refresh_participants=refresh,
        )
        eng = _WalkOnly(config, rng=seed)
        for row in _stream(kind, n, ticks, idle, 100 + seed):
            eng.step(row)
        for name in totals:
            totals[name] += getattr(eng.counters, name)
    assert all(totals.values()), totals


def _fallback_kwargs(n: int) -> dict:
    return {
        "tracer": {"tracer": Tracer()},
        "profiler": {"profiler": Profiler()},
        "selector": {"selector": GlobalRandomSelector(n)},
        "dynnet": {"dynnet": DynamicNetwork(CompleteGraph(n))},
        "kernel off": {},
    }


@pytest.mark.parametrize(
    "condition", ["tracer", "profiler", "selector", "dynnet", "kernel off"]
)
def test_fallback_conditions_take_the_python_walk(condition, request):
    if condition == "kernel off":
        request.getfixturevalue("python_tier")
    n = 32
    config = EngineConfig(n=n, params=LBParams(f=1.3, delta=2, C=2))
    eng = _DenseCounting(config, rng=3, **_fallback_kwargs(n)[condition])
    ref = Engine(config, rng=3)
    _lockstep(eng, ref, _stream("exchange", n, 40, 0.1, 11))
    assert eng._walk is False
    assert eng.dense_ticks > 0


def test_non_floyd_partner_draws_take_the_python_walk():
    # choice(10_001, 201) is past numpy's Floyd cutoff: a tail shuffle
    n, delta = 10_002, 201
    config = EngineConfig(
        n=n, params=LBParams(f=1.3, delta=delta, C=2, require_provable=False)
    )
    eng = _DenseCounting(config, rng=5)
    ref = Engine(config, rng=5)
    wr = np.random.default_rng(5)
    actions = np.zeros((3, n), dtype=np.int64)
    for row in actions:
        row[wr.choice(n, 20, replace=False)] = 1
    _lockstep(eng, ref, actions)
    assert eng._walk is False
    assert eng.dense_ticks == 3


def test_failed_probe_warns_once_and_takes_the_python_walk(monkeypatch):
    monkeypatch.setattr(rngadvance, "_TIER_CACHE", {})
    monkeypatch.setattr(columnar, "_probe_walk", lambda fn, cls: False)
    config = EngineConfig(n=32, params=LBParams(f=1.3, delta=2, C=2))
    actions = _stream("exchange", 32, 30, 0.1, 12)
    with pytest.warns(RuntimeWarning, match="tick walk failed its exactness probe"):
        eng = _DenseCounting(config, rng=4)
        _lockstep(eng, Engine(config, rng=4), actions)
    assert eng._walk is False
    assert eng.dense_ticks > 0
    # the verdict is cached: a second engine neither probes nor warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = _DenseCounting(config, rng=4)
        _lockstep(again, Engine(config, rng=4), actions)
    assert again.dense_ticks > 0


def test_failed_build_warns_once_and_takes_the_python_walk(monkeypatch):
    monkeypatch.setattr(rngadvance, "_walk_fn", None)
    monkeypatch.setattr(rngadvance, "_walk_build", OSError("Python.h not found"))
    config = EngineConfig(n=32, params=LBParams(f=1.3, delta=2, C=2))
    actions = _stream("exchange", 32, 30, 0.1, 13)
    with pytest.warns(RuntimeWarning, match="compiled tick walk is unavailable"):
        eng = _DenseCounting(config, rng=6)
        _lockstep(eng, Engine(config, rng=6), actions)
    assert eng._walk is False
    assert eng.dense_ticks > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rngadvance.walk_function() is None


def test_rebinds_when_state_columns_are_replaced():
    # as load_engine_state does: fresh ledgers and columns, same values
    config = EngineConfig(n=64, params=LBParams(f=1.3, delta=2, C=4))
    eng = _WalkOnly(config, rng=1)
    ref = Engine(config, rng=1)
    actions = _stream("stationary", 64, 40, 0.1, 14)
    _lockstep(eng, ref, actions[:20])
    first = eng._walk
    eng.d, eng.b = (ClassLedger.from_csr(led.diag, *led.to_csr()) for led in (eng.d, eng.b))
    eng.l = eng.d.row_sums.copy()
    eng.l_old = eng.l_old.copy()
    _lockstep(eng, ref, actions[20:])
    assert eng._walk is not first


class _Boom(RuntimeError):
    pass


def _boom(self, i, j):
    raise _Boom(f"exchange {i} <- {j}")


def test_exchange_exception_propagates_with_the_partial_tick_booked():
    n = 64
    config = EngineConfig(n=n, params=LBParams(f=1.3, delta=2, C=4))
    eng = _WalkOnly(config, rng=2)
    ref = Engine(config, rng=2)
    for e in (eng, ref):
        e._exchange_with_producer = types.MethodType(_boom, e)
    for row in _stream("exchange", n, 80, 0.0, 15):
        raised = []
        for e in (eng, ref):
            try:
                e.step(row)
            except _Boom as exc:
                raised.append(str(exc))
        _assert_same(eng, ref)
        if raised:
            assert len(raised) == 2 and raised[0] == raised[1]
            break
    else:
        pytest.fail("the stream reached no producer exchange")
    assert eng.counters.total_borrow > 0


def _planted(k: int, leftover: int) -> int:
    """A 32-bit word ``x`` with ``(x * k) mod 2**32 == leftover`` (k odd)."""
    return (leftover * pow(k, -1, 2**32)) % 2**32


@pytest.mark.parametrize(
    "k,leftover",
    # threshold = 2**32 mod k: 1 for k = 3, 4 for k = 7; below it the
    # draw is rejected and redrawn, at it the draw is accepted
    [(3, 0), (3, 1), (7, 0), (7, 3), (7, 4), (7, 6)],
)
def test_bounded_draw_rejection_matches_numpy(k, leftover):
    n = 16
    config = EngineConfig(n=n, params=LBParams(f=1.3, delta=2, C=8))
    eng = _WalkOnly(config, rng=0)
    ref = Engine(config, rng=0)
    for e in (eng, ref):
        # processor 0 owes one packet of each of k classes, and repays
        # one of them (rng.integers(k)) as the tick's first draw
        e.b.rows[0] = {c: 1 for c in range(1, k + 1)}
        e.b.row_sums[0] = k
        state = e.rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, _planted(k, leftover)
        e.rng.bit_generator.state = state
    actions = np.zeros(n, dtype=np.int64)
    actions[0] = 1
    frame = _TickFrame(actions)
    frame.order = np.arange(n)
    eng._tick_walk().run(eng, frame)
    ref._generate(0)
    _assert_same(eng, ref)
