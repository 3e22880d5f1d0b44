"""Engine integration: byte-identity fallback and churny runs.

The headline contract of the subsystem (ISSUE 9 / docs/DYNAMICS.md):
with churn disabled, a homogeneous profile and a complete base
topology, threading a ``DynamicNetwork`` through either engine changes
*nothing* — loads, counters, traces and the engine RNG stream are
bit-for-bit identical to a run without it.
"""

import numpy as np
import pytest

from repro.core import AsyncEngine, ConstantRates, Engine, EngineConfig
from repro.dynnet import ChurnPlan, DynamicNetwork, HeterogeneousProfile
from repro.network import CompleteGraph, Hypercube, Ring
from repro.params import LBParams
from repro.workload import Section7Workload

N = 16
PARAMS = LBParams(f=1.5, delta=3, C=2)


def _run_sync(dynnet=None, steps=200):
    e = Engine(EngineConfig(n=N, params=PARAMS), rng=7, dynnet=dynnet)
    wl = Section7Workload(N, horizon=steps, layout_rng=11)
    wrng = np.random.default_rng(13)
    for t in range(steps):
        e.step(wl.actions(t, e.l, wrng))
    return e


def _rates():
    return ConstantRates(np.full(N, 0.6), np.full(N, 0.4))


def _run_async(dynnet=None, horizon=50.0, tracer=None):
    e = AsyncEngine(
        PARAMS, _rates(), latency=0.05, seed=7, dynnet=dynnet, tracer=tracer
    )
    e.run(horizon)
    return e


class TestByteIdentity:
    def test_sync_engine_trivial_dynnet_is_invisible(self):
        plain = _run_sync()
        wrapped = _run_sync(DynamicNetwork(CompleteGraph(N)))
        assert np.array_equal(plain.l, wrapped.l)
        assert plain.total_ops == wrapped.total_ops
        assert plain.rng.bit_generator.state == wrapped.rng.bit_generator.state

    def test_columnar_kernel_switch_reaches_the_dynnet_selector(self, request):
        from repro.core.columnar import ColumnarEngine

        runs = {}
        for kernel in ("auto", "off"):
            if kernel == "off":
                request.getfixturevalue("python_tier")
            dyn = DynamicNetwork(CompleteGraph(N))
            e = ColumnarEngine(EngineConfig(n=N, params=PARAMS), rng=7, dynnet=dyn)
            wl = Section7Workload(N, horizon=200, layout_rng=11)
            wrng = np.random.default_rng(13)
            for t in range(200):
                e.step(wl.actions(t, e.l, wrng))
            runs[kernel] = (e, dyn)
        off, off_dyn = runs["off"]
        auto, _ = runs["auto"]
        assert off.total_ops > 0
        assert off_dyn._global.tier == "python"
        assert np.array_equal(off.l, auto.l)
        assert off.counters.as_dict() == auto.counters.as_dict()
        assert off.total_ops == auto.total_ops
        assert off.rng.bit_generator.state == auto.rng.bit_generator.state

    def test_async_engine_trivial_dynnet_is_invisible(self):
        plain = _run_async()
        wrapped = _run_async(DynamicNetwork(CompleteGraph(N)))
        assert np.array_equal(plain.l, wrapped.l)
        assert plain.total_ops == wrapped.total_ops
        assert plain.rng.bit_generator.state == wrapped.rng.bit_generator.state


class TestWiring:
    def test_rejects_selector_and_dynnet_together(self):
        from repro.core.selection import GlobalRandomSelector

        with pytest.raises(ValueError, match="not both"):
            Engine(
                EngineConfig(n=N, params=PARAMS),
                rng=0,
                selector=GlobalRandomSelector(N),
                dynnet=DynamicNetwork(CompleteGraph(N)),
            )
        with pytest.raises(ValueError, match="not both"):
            AsyncEngine(
                PARAMS,
                _rates(),
                seed=0,
                selector=GlobalRandomSelector(N),
                dynnet=DynamicNetwork(CompleteGraph(N)),
            )

    def test_rejects_n_mismatch(self):
        with pytest.raises(ValueError, match="n="):
            Engine(
                EngineConfig(n=N, params=PARAMS),
                rng=0,
                dynnet=DynamicNetwork(CompleteGraph(N + 1)),
            )

    def test_async_rejects_leaves_plus_explicit_faults(self):
        from repro.faults import FaultPlan

        topo = Ring(N)
        plan = ChurnPlan.sample(
            topo, rate=0.0, horizon=20.0, seed=1, leave_frac=0.25
        )
        assert plan.leaves
        with pytest.raises(ValueError, match="compose them explicitly"):
            AsyncEngine(
                PARAMS,
                _rates(),
                seed=0,
                dynnet=DynamicNetwork(topo, plan=plan),
                faults=FaultPlan(),
            )


class TestChurnyRuns:
    def _plan(self, topo, seed=3):
        return ChurnPlan.sample(
            topo, rate=0.4, horizon=40.0, seed=seed, leave_frac=0.25
        )

    def test_sync_engine_applies_churn(self):
        topo = Hypercube(4)
        plan = self._plan(topo)
        net = DynamicNetwork(topo, plan=plan)
        e = _run_sync(net, steps=60)
        assert net.pending_events == 0
        assert net.rewires_applied == len(plan.rewires)
        assert net.leaves_applied == len(plan.leaves)
        assert net.joins_applied == len(plan.leaves)
        assert (e.l >= 0).all()

    def test_async_engine_applies_churn_and_composes_faults(self):
        topo = Hypercube(4)
        plan = self._plan(topo)
        net = DynamicNetwork(topo, plan=plan)
        e = _run_async(net, horizon=50.0)
        assert net.pending_events == 0
        assert net.rewires_applied == len(plan.rewires)
        # leaves ride the crash machinery: the injector saw them
        assert e._fault_stats()["crashes"] == len(plan.leaves)
        assert (e.l >= 0).all()

    def test_sync_engine_isolated_counter(self):
        # ring of 4: both neighbours of 0 and 2 away → isolated ops
        from repro.dynnet import LeaveWindow

        n = 4
        topo = Ring(n)
        plan = ChurnPlan(
            leaves=(
                LeaveWindow(proc=1, start=1.0, end=100.0),
                LeaveWindow(proc=3, start=1.0, end=100.0),
            )
        )
        net = DynamicNetwork(topo, plan=plan)
        e = Engine(EngineConfig(n=n, params=PARAMS), rng=7, dynnet=net)
        wl = Section7Workload(n, horizon=40, layout_rng=11)
        wrng = np.random.default_rng(13)
        for t in range(40):
            e.step(wl.actions(t, e.l, wrng))
        assert e.isolated_ops > 0

    def test_deterministic_in_seed(self):
        topo = Hypercube(4)
        plan = self._plan(topo)
        profile = HeterogeneousProfile.skewed(N, 0.5, seed=2)
        a = _run_async(DynamicNetwork(topo, plan=plan, profile=profile))
        b = _run_async(DynamicNetwork(topo, plan=plan, profile=profile))
        assert np.array_equal(a.l, b.l)
        assert a.total_ops == b.total_ops


class TestSpeedScaling:
    def test_faster_processors_act_more_often(self):
        from repro.observability import Tracer

        speeds = np.ones(N)
        speeds[:4] = 4.0  # a fast quartile
        profile = HeterogeneousProfile(speeds / speeds.mean())
        net = DynamicNetwork(CompleteGraph(N), profile=profile)
        tracer = Tracer()
        _run_async(net, horizon=80.0, tracer=tracer)
        per_proc = np.zeros(N)
        for ev in tracer.events:
            if ev["type"] == "async_deliver" and ev["kind"] == "action":
                per_proc[ev["proc"]] += 1
        fast = per_proc[:4].mean()
        slow = per_proc[4:].mean()
        assert fast > 2.0 * slow
