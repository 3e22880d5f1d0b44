"""Columnar engine equivalence: the pass pipeline must be invisible.

:class:`~repro.core.columnar.ColumnarEngine` re-expresses the tick as
an array-pass pipeline but must replay *exactly* the sweep of the
scalar oracle (``Engine``): same RNG draw order, same state, same
trace events, spans and monitor verdicts.
Four layers of evidence:

* a seeded equivalence grid at ``n <= 32``, run as shipped, unfused
  (deep-quiet lane off, so every all-fast tick is classified and
  bulk-applied on its own) and without the C kernels (the
  ``python_tier`` fixture, i.e. ``REPRO_NO_CKERNEL=1``);
* a hypothesis property searching the parameter space adversarially
  (including idle actions and degenerate n=2);
* a per-tick lockstep hypothesis property on the bench workloads
  (quiet / stationary / growth, n <= 64) comparing full state and the
  RNG state after *every* tick — a divergence is caught on the tick it
  happens, not ticks later;
* a golden-trace run through :func:`~repro.simulation.driver.
  run_simulation` with tracer + monitors + spans + metrics all on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.experiments.microbench import _make_actions, _prepare_engine
from repro.observability import (
    MetricsRegistry,
    MonitorSuite,
    Tracer,
    spans_from_trace,
)
from repro.params import LBParams


class _UnfusedEngine(ColumnarEngine):
    """The pipeline with the deep-quiet lane off: no horizon is ever
    proven, so every tick runs classify and the per-tick lanes."""

    def _deep_horizon(self) -> int:
        return 0


def _run(n, params, actions, seed, **kwargs):
    tracer = Tracer()
    if kwargs.pop("scalar", False):
        eng = Engine(EngineConfig(n=n, params=params), rng=seed, tracer=tracer)
    else:
        engine_cls = kwargs.pop("engine_cls", ColumnarEngine)
        eng = engine_cls(
            EngineConfig(n=n, params=params),
            rng=seed,
            tracer=tracer,
            **kwargs,
        )
    for row in actions:
        eng.step(np.asarray(row, dtype=np.int64))
    eng.assert_invariants()
    return eng, tracer


def _assert_equivalent(n, params, actions, seed, **kwargs):
    col, col_tr = _run(n, params, actions, seed, **kwargs)
    ref, ref_tr = _run(n, params, actions, seed, scalar=True)
    assert col.l.tolist() == ref.l.tolist()
    assert col.l_old.tolist() == ref.l_old.tolist()
    assert np.array_equal(col.d.dense(), ref.d.dense())
    assert np.array_equal(col.b.dense(), ref.b.dense())
    assert col.counters.as_dict() == ref.counters.as_dict()
    assert col.total_ops == ref.total_ops
    assert col.packets_migrated == ref.packets_migrated
    assert col.total_generated == ref.total_generated
    assert col.total_consumed == ref.total_consumed
    assert col.rng.bit_generator.state == ref.rng.bit_generator.state
    assert col_tr.events == ref_tr.events


GRID = [
    # (n, f, delta, C, gen_bias, ticks, seed)
    (2, 1.5, 1, 2, 0.5, 80, 0),
    (3, 1.1, 1, 1, 0.6, 60, 1),
    (5, 1.3, 2, 4, 0.45, 60, 2),
    (8, 1.2, 3, 2, 0.55, 50, 3),
    (16, 1.1, 2, 4, 0.5, 40, 4),
    (16, 2.5, 4, 1, 0.7, 40, 5),
    (32, 1.3, 2, 4, 0.45, 30, 6),
    (32, 1.8, 5, 3, 0.65, 30, 7),
]


def _grid_actions(n, bias, ticks, seed):
    wr = np.random.default_rng(1000 + seed)
    u = wr.random((ticks, n))
    actions = np.zeros((ticks, n), dtype=np.int64)
    actions[u < bias * 0.9] = 1
    actions[u > 1 - (1 - bias) * 0.9] = -1  # ~10% idle
    return actions


@pytest.mark.parametrize(
    "engine_cls, kernels",
    [(ColumnarEngine, True), (_UnfusedEngine, True), (ColumnarEngine, False)],
    ids=["fused", "unfused", "no-kernel"],
)
@pytest.mark.parametrize("n,f,delta,C,bias,ticks,seed", GRID)
def test_equivalence_seeded_sweep(
    n, f, delta, C, bias, ticks, seed, engine_cls, kernels, request
):
    if not kernels:
        request.getfixturevalue("python_tier")
    actions = _grid_actions(n, bias, ticks, seed)
    _assert_equivalent(
        n, LBParams(f=f, delta=delta, C=C), actions, seed, engine_cls=engine_cls
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    f=st.sampled_from([1.05, 1.1, 1.3, 1.5, 2.0]),
    delta_raw=st.integers(min_value=1, max_value=4),
    C=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_equivalence_property(n, f, delta_raw, C, seed, data):
    delta = min(delta_raw, n - 1)
    assume(f < delta + 1)  # the provable parameter domain
    ticks = data.draw(st.integers(min_value=1, max_value=25))
    actions = data.draw(
        st.lists(
            st.lists(
                st.sampled_from([-1, 0, 1]), min_size=n, max_size=n
            ),
            min_size=ticks,
            max_size=ticks,
        )
    )
    _assert_equivalent(
        n, LBParams(f=f, delta=delta, C=C), np.asarray(actions), seed
    )


@pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
@pytest.mark.parametrize(
    "bad,message",
    [
        (2, "invalid action 2 for processor 1"),
        (0.5, "invalid action 0.5 for processor 1"),
    ],
    ids=["two", "half"],
)
def test_invalid_action_rejected_before_anything_moves(engine_cls, bad, message):
    eng = engine_cls(
        EngineConfig(n=4, params=LBParams(f=1.3, delta=1, C=2)), rng=0
    )
    eng.step(np.array([1, 1, 1, 1]))
    l_before = eng.l.tolist()
    rng_before = eng.rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        eng.step(np.array([1, bad, 1, -1]))
    assert eng.l.tolist() == l_before
    assert eng.rng.bit_generator.state == rng_before


@pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
def test_integral_float_actions_match_integer_actions(engine_cls):
    config = EngineConfig(n=4, params=LBParams(f=1.3, delta=1, C=2))
    ints = engine_cls(config, rng=0)
    floats = engine_cls(config, rng=0)
    for row in ([1, 1, 1, 1], [1.0, 0.0, -1.0, 1.0], [-1, -1, 0, 1]):
        ints.step(np.asarray(row, dtype=np.int64))
        floats.step(np.asarray(row, dtype=np.float64))
    assert floats.l.tolist() == ints.l.tolist()
    assert floats.rng.bit_generator.state == ints.rng.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    profile=st.sampled_from(["quiet", "stationary", "growth"]),
    seed=st.integers(min_value=0, max_value=2**16),
    workload_seed=st.integers(min_value=0, max_value=2**16),
    ticks=st.integers(min_value=1, max_value=40),
)
def test_lockstep_property_on_bench_profiles(
    n, profile, seed, workload_seed, ticks
):
    """Full state + RNG equality after EVERY tick on the bench workloads."""
    params = LBParams(f=1.3, delta=min(2, n - 1), C=4)
    acts = _make_actions(profile, n, ticks, workload_seed)
    col = ColumnarEngine(EngineConfig(n=n, params=params), rng=seed)
    ref = Engine(EngineConfig(n=n, params=params), rng=seed)
    _prepare_engine(col, profile, n)
    _prepare_engine(ref, profile, n)
    for t in range(ticks):
        a = np.asarray(acts[t], dtype=np.int64)
        col.step(a)
        ref.step(a)
        assert col.l.tolist() == ref.l.tolist(), f"l diverged at tick {t}"
        assert col.l_old.tolist() == ref.l_old.tolist()
        assert np.array_equal(col.d.dense(), ref.d.dense())
        assert np.array_equal(col.b.dense(), ref.b.dense())
        assert col.counters.as_tuple() == ref.counters.as_tuple()
        assert col.rng.bit_generator.state == ref.rng.bit_generator.state
    # no assert_invariants here: _prepare_engine pokes load state
    # directly, so the generated-consumed conservation law cannot hold;
    # the scalar reference engine is the oracle


def _observed_simulation(engine_cls):
    from repro.simulation.driver import run_simulation
    from repro.workload import Section7Workload

    params = LBParams(f=1.3, delta=2, C=4)
    tracer = Tracer()
    suite = MonitorSuite.standard(params, tracer=tracer)
    metrics = MetricsRegistry()
    res = run_simulation(
        24,
        params,
        Section7Workload(24, 120, layout_rng=5),
        120,
        seed=5,
        check_invariants=True,
        tracer=tracer,
        metrics=metrics,
        monitors=suite,
        engine_cls=engine_cls,
    )
    return res, tracer, suite, metrics


def test_golden_trace_with_monitors_on():
    """Monitors-on §7 run: events, verdicts, metrics all bit-identical."""
    col_res, col_tr, col_suite, col_m = _observed_simulation(ColumnarEngine)
    ref_res, ref_tr, ref_suite, ref_m = _observed_simulation(Engine)
    assert np.array_equal(col_res.loads, ref_res.loads)
    assert col_res.total_ops == ref_res.total_ops
    assert col_res.packets_migrated == ref_res.packets_migrated
    assert col_res.counters.as_dict() == ref_res.counters.as_dict()
    assert col_tr.events == ref_tr.events  # includes monitor events
    assert spans_from_trace(col_tr.events) == spans_from_trace(ref_tr.events)
    assert col_suite.verdicts() == ref_suite.verdicts()
    assert col_m.as_dict() == ref_m.as_dict()


class TestDeepQuietLane:
    def _quiet_engine(self, n=256, **kwargs):
        eng = ColumnarEngine(
            EngineConfig(n=n, params=LBParams(f=1.3, delta=2, C=4)),
            rng=3,
            **kwargs,
        )
        _prepare_engine(eng, "quiet", n)
        return eng

    def test_fusion_compiles_and_engages(self):
        eng = self._quiet_engine()
        assert eng.pipeline.describe() == "classify -> advance+apply -> residual"
        eng.step(np.full(eng.n, -1, dtype=np.int64))
        # the first quiet tick proves a multi-tick horizon
        assert eng._deep_left > 0

    def test_invalid_action_in_deep_lane_mutates_nothing(self):
        eng = self._quiet_engine()
        eng.step(np.full(eng.n, -1, dtype=np.int64))
        assert eng._deep_left > 0
        l_before = eng.l.copy()
        rng_before = eng.rng.bit_generator.state
        bad = np.ones(eng.n, dtype=np.int64)
        bad[17] = 2
        with pytest.raises(ValueError, match="invalid action 2 for processor 17"):
            eng.step(bad)
        assert eng.l.tolist() == l_before.tolist()
        assert eng.rng.bit_generator.state == rng_before

    def test_invalidate_horizon(self):
        eng = self._quiet_engine()
        eng.step(np.full(eng.n, -1, dtype=np.int64))
        assert eng._deep_left > 0
        eng.invalidate_horizon()
        assert eng._deep_left == 0

    def test_deep_lane_matches_scalar_across_horizon_boundary(self):
        """Run past the proven horizon so re-probing is exercised too."""
        n = 64
        ticks = 60  # > 2x the quiet-state horizon
        acts = _make_actions("quiet", n, ticks, 0)
        params = LBParams(f=1.3, delta=2, C=4)
        col = self._quiet_engine(n=n)
        ref = Engine(EngineConfig(n=n, params=params), rng=3)
        _prepare_engine(ref, "quiet", n)
        for t in range(ticks):
            a = np.asarray(acts[t])
            col.step(a)
            ref.step(a)
        assert col.l.tolist() == ref.l.tolist()
        assert col.rng.bit_generator.state == ref.rng.bit_generator.state
