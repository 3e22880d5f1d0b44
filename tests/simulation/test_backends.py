"""Tests for the pluggable batch-execution backends.

The centrepiece is the cross-backend equivalence suite: the seeded
experiment grid must be *bit-identical* on every backend — collector
envelopes, merged metrics, golden event traces.  That property is what
makes ``REPRO_BACKEND`` a pure deployment knob (docs/BACKENDS.md).
"""

import warnings

import numpy as np
import pytest

from repro.observability.schema import validate_event
from repro.observability.tracer import Tracer
from repro.rng import RngFactory
from repro.simulation.backends import (
    BackendFallbackWarning,
    BatchClient,
    Capabilities,
    MultiprocessingClient,
    NativeClient,
    available_backends,
    get_client,
    resolve_backend,
)
from repro.simulation.backends import pool as pool_module
from repro.simulation.backends import registry as registry_module
from repro.simulation.backends.pool import auto_jobs
from repro.simulation.parallel import parallel_map


def square(x: int) -> int:
    return x * x


def _traced_run(r: int) -> list[dict]:
    """One tiny traced simulation; returns the run's golden trace."""
    from repro.params import LBParams
    from repro.simulation.driver import run_simulation
    from repro.workload.phases import Section7Workload

    factory = RngFactory(7).child_factory("run", r)
    workload = Section7Workload(8, 40, layout_rng=factory.named("layout"))
    tracer = Tracer()
    run_simulation(
        8, LBParams(f=1.3, delta=2, C=4), workload, 40,
        seed=factory, tracer=tracer,
    )
    return tracer.events


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return monkeypatch


class TestCrossBackendEquivalence:
    """native and multiprocessing must agree bit for bit."""

    def test_quality_experiment_bit_identical(self):
        from repro.experiments.config import QualityConfig
        from repro.experiments.runner import quality_experiment

        cfg = QualityConfig(n=8, steps=60, runs=3, seed=4, snapshot_ticks=(30,))
        a = quality_experiment(cfg, backend="native", collect_metrics=True)
        b = quality_experiment(
            cfg, backend="multiprocessing", jobs=2, collect_metrics=True
        )
        for field in ("mean", "min", "max", "mean_spread"):
            av, bv = getattr(a.envelope, field, None), getattr(b.envelope, field, None)
            if av is not None:
                assert np.array_equal(av, bv), field
        assert a.snapshots.keys() == b.snapshots.keys()
        for t in a.snapshots:
            for k in a.snapshots[t]:
                assert np.array_equal(a.snapshots[t][k], b.snapshots[t][k])
        assert [c.as_dict() for c in a.counters] == [
            c.as_dict() for c in b.counters
        ]
        assert a.mean_ops == b.mean_ops
        assert a.mean_migrated == b.mean_migrated
        assert np.array_equal(a.final_rel_spreads, b.final_rel_spreads)
        pa, pb = a.metrics.as_dict(), b.metrics.as_dict()
        assert pa["counters"] == pb["counters"]
        assert pa["histograms"] == pb["histograms"]

    def test_golden_traces_identical(self):
        tasks = [0, 1, 2]
        with get_client("native") as client:
            serial = list(client.map_ordered(_traced_run, tasks))
        with get_client("multiprocessing", jobs=2) as client:
            pooled = list(client.map_ordered(_traced_run, tasks, chunksize=1))
            assert client.used_backend in ("multiprocessing", "native")
        assert serial == pooled  # full events, seq numbers and all
        assert all(len(ev) > 0 for ev in serial)

    def test_resilience_doc_identical(self):
        from repro.experiments.resilience import (
            ResilienceConfig,
            resilience_experiment,
        )

        cfg = ResilienceConfig(n=8, horizon=45.0, seed=3)
        a = resilience_experiment(cfg, backend="native")
        b = resilience_experiment(cfg, backend="multiprocessing", jobs=2)
        assert a.pop("backend") == "native"
        assert b.pop("backend") in ("multiprocessing", "native")
        assert a == b


class TestSelectionRules:
    def test_defaults_to_native_serial(self, clean_env):
        assert resolve_backend() == ("native", 1)

    def test_jobs_gt_one_implies_multiprocessing(self, clean_env):
        assert resolve_backend(jobs=4) == ("multiprocessing", 4)
        assert resolve_backend(jobs=1) == ("native", 1)

    def test_env_backend_beats_jobs_derivation(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "native")
        assert resolve_backend(jobs=4) == ("native", 4)

    def test_param_beats_env(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "multiprocessing")
        name, _ = resolve_backend(backend="native")
        assert name == "native"

    def test_jobs_param_beats_env(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "7")
        assert resolve_backend(jobs=2) == ("multiprocessing", 2)

    def test_env_jobs_alone_parallelises(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "8")
        assert resolve_backend() == ("multiprocessing", 8)

    def test_parallel_backend_defaults_to_auto_jobs(self, clean_env):
        assert resolve_backend(backend="multiprocessing") == (
            "multiprocessing", auto_jobs()
        )

    def test_jobs_zero_means_auto(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "0")
        _, jobs = resolve_backend(backend="multiprocessing")
        assert jobs == auto_jobs()

    def test_backend_name_normalised(self, clean_env):
        assert resolve_backend(backend=" Native ")[0] == "native"

    def test_unknown_backend_param_raises(self, clean_env):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(backend="bogus")

    def test_unknown_backend_env_raises(self, clean_env):
        for name in ("bogus", "distributed"):
            clean_env.setenv("REPRO_BACKEND", name)
            with pytest.raises(ValueError, match="REPRO_BACKEND"):
                resolve_backend()

    def test_malformed_repro_jobs_raises(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_backend()

    def test_get_client_honours_env(self, clean_env):
        clean_env.setenv("REPRO_BACKEND", "multiprocessing")
        with get_client(jobs=2) as client:
            assert isinstance(client, MultiprocessingClient)
            assert client.jobs == 2
        with get_client("native") as client:
            assert isinstance(client, NativeClient)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == (
            "multiprocessing", "native",
        )

    def test_register_requires_name(self):
        class Nameless(NativeClient):
            name = ""

        with pytest.raises(ValueError, match="name"):
            registry_module.register_backend(Nameless)

    def test_register_rejects_taken_name(self):
        class Impostor(NativeClient):
            name = "native"

        with pytest.raises(ValueError, match="already taken"):
            registry_module.register_backend(Impostor)

    def test_third_party_backend_selectable(self, clean_env):
        @registry_module.register_backend
        class Reversed(BatchClient):
            name = "test-reversed"
            capabilities = Capabilities()

            def __init__(self, jobs=None, *, tracer=None):
                super().__init__()

            def map_ordered(self, fn, items, *, chunksize=None):
                yield from [fn(x) for x in items]

        try:
            assert "test-reversed" in available_backends()
            with get_client("test-reversed") as client:
                assert list(client.map_ordered(square, [1, 2])) == [1, 4]
        finally:
            registry_module._REGISTRY.pop("test-reversed")


class TestFallback:
    @pytest.fixture
    def broken_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", explode)

    def test_pool_start_failure_degrades_loudly(self, broken_pool):
        tracer = Tracer()
        with MultiprocessingClient(jobs=2, tracer=tracer) as client:
            with pytest.warns(BackendFallbackWarning, match="falling back"):
                out = list(client.map_ordered(square, list(range(8))))
            assert out == [x * x for x in range(8)]
            assert client.fell_back
            assert client.used_backend == "native"
            events = tracer.events
            assert [ev["type"] for ev in events] == ["backend_fallback"]
            validate_event(events[0])
            assert events[0]["requested"] == "multiprocessing"
            assert events[0]["chosen"] == "native"
            assert "OSError" in events[0]["reason"]

    def test_fallback_warns_only_once(self, broken_pool):
        with MultiprocessingClient(jobs=2) as client:
            with pytest.warns(BackendFallbackWarning):
                list(client.map_ordered(square, [1, 2, 3]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a second warning would raise
                assert list(client.map_ordered(square, [4, 5])) == [16, 25]

    def test_single_item_batch_never_touches_the_pool(self, broken_pool):
        with MultiprocessingClient(jobs=2) as client:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert list(client.map_ordered(square, [6])) == [36]
            assert not client.fell_back

    def test_no_tracer_is_fine(self, broken_pool):
        with MultiprocessingClient(jobs=2) as client:
            with pytest.warns(BackendFallbackWarning):
                assert list(client.map_ordered(square, [1, 2])) == [1, 4]


class TestClientContract:
    def test_capability_flags(self):
        assert NativeClient.capabilities == Capabilities(
            parallel=False, streaming=True
        )
        assert MultiprocessingClient.capabilities == Capabilities(
            parallel=True, streaming=False
        )

    def test_submit_gather_ordered(self):
        with NativeClient() as client:
            a = client.submit(square, [1, 2, 3])
            b = client.submit(square, [4, 5])
            assert (a.batch_id, b.batch_id) == (0, 1)
            assert client.gather(b) == [16, 25]  # out-of-order gather is fine
            assert client.gather(a) == [1, 4, 9]

    def test_gather_is_single_use(self):
        with NativeClient() as client:
            handle = client.submit(square, [1])
            client.gather(handle)
            with pytest.raises(ValueError, match="already-gathered"):
                client.gather(handle)

    def test_closed_client_rejects_work(self):
        client = NativeClient()
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            next(client.map_ordered(square, [1]))
        with pytest.raises(RuntimeError, match="closed"):
            client.submit(square, [1])

    def test_close_is_idempotent(self):
        client = MultiprocessingClient(jobs=2)
        client.close()
        client.close()

    def test_native_streams_lazily(self):
        consumed = []

        def gen():
            for x in range(4):
                consumed.append(x)
                yield x

        with NativeClient() as client:
            out = client.map_ordered(square, gen())
            assert consumed == []
            assert next(out) == 0
            assert consumed == [0]
            assert list(out) == [1, 4, 9]

    def test_task_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with NativeClient() as client:
            with pytest.raises(RuntimeError, match="task 1"):
                list(client.map_ordered(boom, [1, 2]))


class TestParallelMapShim:
    def test_backend_param_forwarded(self, clean_env):
        out = list(parallel_map(square, range(10), backend="multiprocessing", jobs=2))
        assert out == [x * x for x in range(10)]

    def test_explicit_native_ignores_job_count(self, clean_env):
        out = list(parallel_map(square, range(10), backend="native", jobs=8))
        assert out == [x * x for x in range(10)]

    def test_unknown_backend_raises_before_running(self, clean_env):
        with pytest.raises(ValueError, match="unknown backend"):
            list(parallel_map(square, [1], backend="bogus"))
