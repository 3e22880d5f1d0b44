"""The compiled event walk must be invisible.

An untraced, fault-free :class:`~repro.core.async_engine.AsyncEngine`
or :class:`~repro.service.engine.ServiceEngine` run delivers its events
through the C walk of :mod:`repro.core.event_walk`.  Checked here
against the Python handlers of the same engine:

* a lockstep matrix of service runs (diurnal, poisson and bursty
  traffic at two seeds; a run that reaches ``shedding`` and one that
  stays healthy; no retries and the default policy; zero and non-zero
  latency; a replayed trace) and base-engine runs on constant and
  tabled rates — the full document, loads, snapshot times, every
  counter, the queues and sojourns and the final bit-generator state;
* everything an observer reads at each snapshot boundary;
* which lane a run takes (tracer, profiler and chaos take the Python
  handlers; monitors and telemetry do not);
* planted mutations of the C source, which the first-use probe rejects
  with one warning, and a failed build;
* the columnar task queues against the deques they replace, and the
  snapshot schedule.

Under ``REPRO_NO_CKERNEL=1`` there is no walk: the lockstep tests then
compare the Python lane with itself, and the ring and schedule tests
still run.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np
import pytest

from repro.core import async_engine, rngadvance
from repro.core.async_engine import (
    AsyncEngine,
    ConstantRates,
    RetryPolicy,
    TableRates,
    snapshot_schedule,
)
from repro.core.event_walk import ACTION, ARRIVAL, COMPLETE, RETRY, EventWalk, same_run
from repro.core.rngadvance import _states_equal
from repro.observability import Profiler, Tracer
from repro.observability.monitors import MonitorSuite
from repro.observability.telemetry import TelemetrySampler
from repro.params import LBParams
from repro.service import engine as service_engine
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.engine import ServiceConfig, ServiceEngine, service_run
from repro.service.queues import TaskQueues
from repro.service.slo import build_service_doc

WALK = rngadvance.event_walk_function() is not None
needs_walk = pytest.mark.skipif(not WALK, reason="no compiled event walk on this machine")


def _walk_only(monkeypatch):
    """Every engine that binds the walk must deliver through it."""
    deliver = AsyncEngine._deliver

    def checked(self, *args):
        assert not self._walk, "a run with a bound walk took the Python handlers"
        deliver(self, *args)

    monkeypatch.setattr(AsyncEngine, "_deliver", checked)


def _walked(eng) -> bool:
    """Whether ``eng`` ran the walk (wherever there is one)."""
    return isinstance(eng._walk, EventWalk) or not WALK


def _both(monkeypatch, run):
    """``run()`` through the walk, then through the Python handlers."""
    with monkeypatch.context() as m:
        _walk_only(m)
        walked = run()
    with monkeypatch.context() as m:
        m.setattr(AsyncEngine, "_event_walk", lambda self: False)
        python = run()
    return walked, python


def _assert_same(a, b, ra, rb) -> None:
    assert ra.times.tolist() == rb.times.tolist()
    assert np.array_equal(ra.loads, rb.loads)
    assert ra.counters() == rb.counters()
    assert ra.declined_joins == rb.declined_joins
    sa, sb = a.rng.bit_generator.state, b.rng.bit_generator.state
    assert (sa["has_uint32"], sa["uinteger"]) == (sb["has_uint32"], sb["uinteger"])
    assert _states_equal(sa, sb)
    if isinstance(a, ServiceEngine):
        assert a.queues.sojourns.tolist() == b.queues.sojourns.tolist()
    assert same_run(a, b, ra, rb)


def _cfg(**kw) -> ServiceConfig:
    base = dict(
        n=32, horizon=40.0, rate=40.0, admission_rate=30.0, admission_burst=60.0,
        queue_cap=6, period=20.0, burst_at=12.0, burst_duration=8.0,
    )
    return ServiceConfig(**{**base, **kw})


def _service_lockstep(monkeypatch, cfg, **kwargs):
    walked, python = _both(monkeypatch, lambda: service_run(cfg, **kwargs))
    _assert_same(walked.engine, python.engine, walked.result, python.result)
    assert walked.doc == python.doc
    assert _walked(walked.engine)
    return walked


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize("traffic", ["diurnal", "poisson", "bursty"])
def test_service_runs_match_the_python_handlers(monkeypatch, traffic, seed):
    run = _service_lockstep(monkeypatch, _cfg(traffic=traffic, seed=seed))
    assert run.doc["slo"]["completed"] > 0
    assert run.result.total_ops > 0


def test_a_run_through_shedding_and_back(monkeypatch):
    """The ladder changes the bucket scale, the brown-out and the
    trigger factor mid-run; the walk re-reads them on resume."""
    run = _service_lockstep(monkeypatch, ServiceConfig.smoke())
    states = [tr["state"] for tr in run.doc["timeline"]]
    assert "shedding" in states and states[-1] == "healthy"
    shed = run.doc["slo"]["shed_by_reason"]
    assert shed["brownout"] > 0 and shed["bucket"] > 0


def test_a_healthy_run(monkeypatch):
    run = _service_lockstep(monkeypatch, ServiceConfig(n=16, horizon=30.0, rate=3.0))
    assert run.doc["timeline"] == [] and run.doc["final_state"] == "healthy"


@pytest.mark.parametrize("latency", [0.0, 0.1, 0.4])
@pytest.mark.parametrize("max_retries", [0, 2])
def test_retry_policy_and_latency(monkeypatch, latency, max_retries):
    cfg = _cfg(traffic="bursty", latency=latency, n=16, seed=7, queue_cap=3)
    traffic = service_engine._traffic(cfg)
    arrivals = traffic.arrivals(cfg.horizon)

    def run():
        eng = service_engine._engine(
            cfg, None, seed=cfg.seed, retry=RetryPolicy(max_retries=max_retries)
        )
        eng.schedule_arrivals(arrivals)
        result = eng.run(cfg.horizon)
        doc = build_service_doc(
            config=cfg.describe(), traffic=traffic.describe(), slo=eng.slo,
            queues=eng.queues, admission=eng.admission, ladder=eng.ladder,
            result=result, horizon=cfg.horizon, chaos=None,
        )
        return eng, result, doc

    (a, ra, da), (b, rb, db) = _both(monkeypatch, run)
    _assert_same(a, b, ra, rb)
    assert da == db and _walked(a)
    assert da["slo"]["shed_by_reason"]["depth"] > 0
    if not latency:  # an operation completes before anyone else acts
        assert ra.dropped_ops == 0
    elif max_retries:
        assert ra.retries > 0
    else:
        assert ra.retries == 0 and ra.give_ups == ra.dropped_ops > 0


def test_replay_of_a_recorded_trace(monkeypatch):
    recorded = service_run(_cfg(traffic="bursty", seed=3)).trace
    _service_lockstep(monkeypatch, _cfg(seed=5), replay=recorded)


@pytest.mark.parametrize("tabled", [False, True])
def test_base_engine_runs_match(monkeypatch, tabled):
    n = 24
    wr = np.random.default_rng(9)
    if tabled:
        rates = TableRates(wr.uniform(0.2, 0.7, (15, n)), wr.uniform(0.1, 0.5, (15, n)))
    else:
        rates = ConstantRates(np.full(n, 0.45), np.full(n, 0.3))

    def run():
        eng = AsyncEngine(LBParams(f=1.2, delta=2, C=4), rates, latency=0.2, seed=11)
        return eng, eng.run(20.0)

    (a, ra), (b, rb) = _both(monkeypatch, run)
    _assert_same(a, b, ra, rb)
    assert _walked(a)
    assert ra.total_ops > 0 and ra.retries > 0


def test_a_second_run_continues_exactly(monkeypatch):
    """The heap and in-flight operations go back into the engine between
    runs, so a run continued by another lane stays exact."""
    rates = ConstantRates(np.full(16, 0.5), np.full(16, 0.3))

    def run(first_walks: bool):
        eng = AsyncEngine(LBParams(f=1.2, delta=2, C=4), rates, latency=0.5, seed=4)
        eng.run(7.3)
        pending = (len(eng.queue), dict(eng._inflight))
        if first_walks:
            eng._walk = False
        return eng, eng.run(12.0), pending

    (a, ra, pa), (b, rb, pb) = _both(monkeypatch, lambda: run(True))
    (c, rc, pc), _ = _both(monkeypatch, lambda: run(False))
    assert pa == pb == pc and pa[1]  # operations were in flight at the cut
    _assert_same(a, b, ra, rb)
    _assert_same(c, b, rc, rb)


class _Boundary:
    """A telemetry sampler recording everything observers read."""

    def bind_service(self, engine) -> None:
        self.engine = engine
        self.seen = []

    def sample(self, t: float, loads) -> None:
        e = self.engine
        adm, q = e.admission, e.queues
        self.seen.append((
            t, e.time, adm.offered, adm.admitted, dict(adm.shed),
            adm.bucket.tokens, adm.bucket._t_last, adm.bucket.scale, adm.brownout,
            e.total_ops, e.dropped_ops, e.retries, e.packets_migrated,
            q.completed, q.sojourns.tolist(), q.migrated_tasks,
            e.l.tolist(), e.l_old.tolist(), e.busy.tolist(), len(e.queue),
            e.trigger.f, np.array_equal(q.depths(), e.l),
        ))


def test_snapshot_boundary_contract(monkeypatch):
    walked, python = _both(
        monkeypatch, lambda: service_run(ServiceConfig.smoke(), telemetry=_Boundary())
    )
    seen = walked.engine.telemetry.seen
    assert seen == python.engine.telemetry.seen
    assert all(row[-1] for row in seen)  # depth == load at every boundary
    assert len({row[-2] for row in seen}) == 2  # the widened trigger acted


def _kwargs(kind: str, cfg: ServiceConfig) -> dict:
    return {
        "tracer": {"tracer": Tracer()},
        "profiler": {"profiler": Profiler()},
        "chaos": {"chaos": True},
        "monitors": {"monitors": MonitorSuite.standard(cfg.params())},
        "telemetry": {"telemetry": TelemetrySampler()},
    }[kind]


@pytest.mark.parametrize("kind", ["tracer", "profiler", "chaos"])
def test_observed_and_chaos_runs_take_the_python_handlers(kind):
    cfg = _cfg(n=16, horizon=20.0)
    run = service_run(cfg, **_kwargs(kind, cfg))
    assert run.engine._walk is False


@needs_walk
@pytest.mark.parametrize("kind", ["monitors", "telemetry"])
def test_monitored_and_telemetry_runs_take_the_walk(monkeypatch, kind):
    cfg = _cfg(n=16, horizon=20.0)
    walked, python = _both(monkeypatch, lambda: service_run(cfg, **_kwargs(kind, cfg)))
    assert isinstance(walked.engine._walk, EventWalk)
    assert walked.doc == python.doc


def test_the_lane_rules():
    params, n = LBParams(f=1.3, delta=2, C=4), 16
    rates = ConstantRates(np.full(n, 0.4), np.full(n, 0.3))

    class Custom(AsyncEngine):  # declares no walk of its own
        pass

    assert AsyncEngine(params, rates)._walk is None  # bound at the first run
    assert Custom(params, rates)._walk is False
    assert AsyncEngine(params, rates, retry=type("R", (RetryPolicy,), {})())._walk is False
    tabled = TableRates(np.full((2, n), 0.4), np.full((2, n), 0.3))
    assert AsyncEngine(params, tabled)._walk is None
    # a consume-only service whose table generates later never walks
    g = np.zeros((3, n))
    g[2, 0] = 0.1
    assert service_engine._engine(_cfg(n=n), None, seed=0)._walk is None
    queues = TaskQueues(n, 4)
    late = ServiceEngine(
        params, TableRates(g, np.full((3, n), 0.4)), queues=queues,
        admission=AdmissionController(TokenBucket(5.0, 5.0), queues),
    )
    assert late._walk is False


def test_payload_kinds_match_the_engines():
    assert (ACTION, COMPLETE, RETRY) == (
        async_engine._ACTION, async_engine._COMPLETE, async_engine._RETRY
    )
    assert ARRIVAL == service_engine._ARRIVAL


# -- the probe ---------------------------------------------------------------

_MUTATIONS = {
    # serve one token too many: admit on an empty bucket
    "token": ("if (!(st[TOKENS] >= 1.0)) {", "if (!(st[TOKENS] >= 0.0)) {"),
    # donors give their oldest task instead of their newest
    "donor": (
        "            w->moving[m++] = c->ring[p * cap + slot];",
        "            w->moving[m++] = c->ring[p * cap + c->head[p]];\n"
        "            c->head[p] = (c->head[p] + 1) % cap;",
    ),
}


def _mutant(tmp_path, which: str):
    old, new = _MUTATIONS[which]
    assert rngadvance._EVENT_SOURCE.count(old) == 1
    source = rngadvance._EVENT_SOURCE.replace(old, new)
    so = rngadvance._compile(tmp_path, f"mutant_{which}", source, *rngadvance.event_build_flags())
    return rngadvance.load_event_walk(so)


@needs_walk
def test_the_probe_passes_the_real_walk():
    fn = rngadvance.event_walk_function()
    for cls in (AsyncEngine, ServiceEngine):
        assert cls._probe_event_walk(fn, np.random.PCG64)
        assert cls._probe_event_walk(fn, np.random.Philox)


@needs_walk
@pytest.mark.parametrize("which", sorted(_MUTATIONS))
def test_a_planted_mutation_fails_the_probe_with_one_warning(monkeypatch, tmp_path, which):
    fn = _mutant(tmp_path, which)
    assert not ServiceEngine._probe_event_walk(fn, np.random.PCG64)
    monkeypatch.setattr(rngadvance, "_TIER_CACHE", {})
    monkeypatch.setattr(async_engine, "event_walk_function", lambda: fn)
    cfg = _cfg(traffic="bursty", n=16, horizon=20.0)
    with pytest.warns(RuntimeWarning, match="event walk of ServiceEngine failed its exactness probe"):
        run = service_run(cfg)
    assert run.engine._walk is False
    # the verdict is cached: a second run neither probes nor warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = service_run(cfg)
    assert again.engine._walk is False and again.doc == run.doc
    with monkeypatch.context() as m:
        m.setattr(AsyncEngine, "_event_walk", lambda self: False)
        assert service_run(cfg).doc == run.doc


@needs_walk
def test_a_failed_build_warns_once_and_takes_the_python_handlers(monkeypatch):
    monkeypatch.setattr(rngadvance, "_event_fn", None)
    monkeypatch.setattr(rngadvance, "_event_build", OSError("numpy ships no libnpyrandom.a"))
    cfg = _cfg(n=16, horizon=10.0)
    with pytest.warns(RuntimeWarning, match="compiled event walk is unavailable"):
        run = service_run(cfg)
    assert run.engine._walk is False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rngadvance.event_walk_function() is None


def test_kernels_off_take_the_python_handlers(python_tier):
    run = service_run(_cfg(n=16, horizon=10.0))
    assert run.engine._walk is False


# -- the columnar task queues --------------------------------------------------


class _DequeQueues:
    """The deque-per-processor queues the columnar ones replace."""

    def __init__(self, n: int, cap: int) -> None:
        self.cap = cap
        self.q = [deque() for _ in range(n)]
        self.sojourns: list[float] = []

    def push(self, i, t):
        self.q[i].append(t)

    def pop_oldest(self, i, now):
        self.sojourns.append(now - self.q[i].popleft())

    def migrate(self, alive, before, after):
        moving = []
        for k, i in enumerate(alive):
            for _ in range(before[k] - after[k]):
                moving.append(self.q[i].pop())
        moving.sort()
        pos = 0
        for k, i in enumerate(alive):
            take = after[k] - before[k]
            if take > 0:
                merged = sorted(list(self.q[i]) + moving[pos:pos + take])
                pos += take
                self.q[i] = deque(merged)
        return len(moving)

    def hot_fraction(self, watermark):
        return sum(1 for q in self.q if len(q) > watermark * self.cap) / len(self.q)


@pytest.mark.parametrize("seed", range(6))
def test_ring_matches_the_deques(seed):
    """Random pushes to full, pops that wrap the ring around, and
    even-split migrations."""
    from repro.core.balance import even_split

    wr = np.random.default_rng(seed)
    n, cap = 6, 5
    ring, ref = TaskQueues(n, cap), _DequeQueues(n, cap)
    t = 0.0
    for _ in range(400):
        t += float(wr.exponential(0.3))
        op = wr.random()
        i = int(wr.integers(n))
        if op < 0.45:
            if not ring.full(i):
                ring.push(i, t)
                ref.push(i, t)
            else:
                with pytest.raises(RuntimeError, match="admission must"):
                    ring.push(i, t)
        elif op < 0.8:
            if ring.depth(i):
                ring.pop_oldest(i, t)
                ref.pop_oldest(i, t)
        else:
            alive = [int(p) for p in wr.choice(n, 3, replace=False)]
            before = [ring.depth(p) for p in alive]
            after = even_split(sum(before), 3, start=int(wr.integers(3))).tolist()
            assert ring.migrate(alive, before, after) == ref.migrate(alive, before, after)
        for p in range(n):
            assert ring.contents(p) == list(ref.q[p])
        assert ring.sojourns.tolist() == ref.sojourns
        for w in (0.0, 0.5, 0.9):
            assert ring.hot_fraction(w) == ref.hot_fraction(w)
    assert ring._head.any()  # the ring wrapped around


def test_ring_wraps_and_fills():
    q = TaskQueues(1, cap=3)
    for k in range(7):  # push, pop: the head walks around the ring
        q.push(0, float(k))
        q.pop_oldest(0, float(k) + 0.5)
    for k in range(3):
        q.push(0, 10.0 + k)
    assert q.full(0) and q.contents(0) == [10.0, 11.0, 12.0]
    assert q.pop_oldest(0, 20.0) == 10.0
    assert q.contents(0) == [11.0, 12.0]
    assert q.sojourns.tolist() == [0.5] * 7 + [10.0]
    with pytest.raises(ValueError):
        q.sojourns[0] = 1.0  # a read-only view


def test_migrate_merges_in_arrival_order_and_refuses_overfill():
    q = TaskQueues(3, cap=4)
    for t in (1.0, 4.0, 6.0, 7.0):
        q.push(0, t)
    for t in (2.0, 5.0):
        q.push(1, t)
    q.pop_oldest(1, 5.5)  # queue 1 now [5.0], its head moved
    assert q.migrate([0, 1, 2], [4, 1, 0], [2, 2, 1]) == 2
    assert q.contents(0) == [1.0, 4.0]
    assert q.contents(1) == [5.0, 6.0]
    assert q.contents(2) == [7.0]
    with pytest.raises(RuntimeError, match="overfills"):
        q.migrate([0, 1, 2], [2, 2, 1], [0, 0, 5])


def test_sojourn_buffer_grows():
    q = TaskQueues(1, cap=1)
    for k in range(3000):
        q.push(0, float(k))
        q.pop_oldest(0, k + 0.25)
    assert len(q.sojourns) == 3000 and set(q.sojourns.tolist()) == {0.25}
    assert q.completed == 3000


@needs_walk
def test_the_walk_grows_the_sojourn_buffer(monkeypatch):
    """A full buffer returns to Python mid-interval; the walk resumes at
    the pending event."""
    init = TaskQueues.__init__

    def small(self, n, cap):
        init(self, n, cap)
        self._soj = np.zeros(4)

    monkeypatch.setattr(TaskQueues, "__init__", small)
    run = _service_lockstep(monkeypatch, _cfg(seed=2))
    assert len(run.engine.queues.sojourns) > 4


# -- the snapshot schedule -------------------------------------------------------


@pytest.mark.parametrize(
    "dt,horizon,count",
    [(0.1, 0.3, 4), (0.2, 0.6, 4), (0.1, 1.0, 11)],
)
def test_snapshot_k_is_at_k_dt(monkeypatch, dt, horizon, count):
    rates = ConstantRates(np.full(8, 0.5), np.full(8, 0.3))

    def run():
        eng = AsyncEngine(LBParams(f=1.3, delta=2, C=4), rates, snapshot_dt=dt, seed=0)
        return eng, eng.run(horizon)

    (a, ra), (b, rb) = _both(monkeypatch, run)
    want = [0.0] + [min(k * dt, horizon) for k in range(1, count)]
    assert ra.times.tolist() == rb.times.tolist() == want
    assert ra.times[-1] == horizon
    _assert_same(a, b, ra, rb)


def test_snapshot_schedule():
    assert snapshot_schedule(0.5, 2.0) == [0.5, 1.0, 1.5, 2.0]
    assert snapshot_schedule(5.0, 20.0) == [5.0, 10.0, 15.0, 20.0]
    assert snapshot_schedule(1.0, 0.5) == []
    assert snapshot_schedule(1.0, 0.0) == []
    assert snapshot_schedule(0.1, 1.0)[8] == 9 * 0.1
