"""Tests for batch execution (:mod:`repro.simulation.parallel`).

The centrepiece is the cross-backend equivalence suite: the seeded
experiment grid must be *bit-identical* inline and on the process pool —
collector envelopes, merged metrics, golden event traces.  That property
is what makes ``REPRO_BACKEND`` a pure deployment knob (docs/BACKENDS.md).
"""

import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.observability.schema import validate_event
from repro.observability.tracer import Tracer
from repro.rng import RngFactory
from repro.simulation import parallel as parallel_module
from repro.simulation.parallel import (
    BackendFallbackWarning,
    auto_jobs,
    get_client,
    parallel_map,
    resolve_backend,
)


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


def _require_pool(used_backend: str) -> None:
    """Skip when the pool fell back: native vs native proves nothing."""
    if used_backend != "multiprocessing":
        pytest.skip(
            "the process pool could not start here and fell back to "
            "native, so the pool side of the comparison never ran"
        )


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return monkeypatch


@pytest.fixture
def built_clients(monkeypatch):
    """Every client the code under test builds through ``get_client``."""
    built = []
    real = parallel_module.get_client

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(parallel_module, "get_client", recording)
    return built


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``: runs ``map`` inline.

    ``chunksizes`` records what each ``map`` call was given; with
    ``break_after=k`` the result iterator raises ``BrokenProcessPool``
    after ``k`` results, as a pool whose workers died would.
    """

    chunksizes: list = []
    break_after: int | None = None

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def map(self, fn, seq, *, chunksize):
        type(self).chunksizes.append(chunksize)
        for i, item in enumerate(seq):
            if i == self.break_after:
                raise BrokenProcessPool("worker died")
            yield fn(item)

    def shutdown(self, **kwargs):
        pass


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(_FakePool, "chunksizes", [])
    monkeypatch.setattr(_FakePool, "break_after", None)
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _FakePool)
    return _FakePool


class TestCrossBackendEquivalence:
    """native and multiprocessing must agree bit for bit."""

    def test_quality_experiment_bit_identical(self, built_clients):
        from repro.experiments.config import QualityConfig
        from repro.experiments.runner import quality_experiment

        cfg = QualityConfig(n=8, steps=60, runs=3, seed=4, snapshot_ticks=(30,))
        a = quality_experiment(cfg, backend="native")
        b = quality_experiment(cfg, backend="multiprocessing", jobs=2)
        _require_pool(built_clients[-1].used_backend)
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

    def test_golden_traces_identical(self):
        tasks = [0, 1, 2]
        with get_client("native") as client:
            serial = list(client.map_ordered(_traced_run, tasks))
        with get_client("multiprocessing", jobs=2) as client:
            pooled = list(client.map_ordered(_traced_run, tasks, chunksize=1))
            _require_pool(client.used_backend)
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
        _require_pool(b.pop("backend"))
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
            assert client.used_backend == "multiprocessing"
            assert client.jobs == 2
        with get_client("native") as client:
            assert client.used_backend == "native"


class TestFallback:
    @pytest.fixture
    def broken_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", explode)

    def test_pool_start_failure_degrades_loudly(self, broken_pool):
        tracer = Tracer()
        with get_client("multiprocessing", jobs=2, tracer=tracer) as client:
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
        with get_client("multiprocessing", jobs=2) as client:
            with pytest.warns(BackendFallbackWarning):
                list(client.map_ordered(square, [1, 2, 3]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a second warning would raise
                assert list(client.map_ordered(square, [4, 5])) == [16, 25]

    def test_single_item_batch_never_touches_the_pool(self, broken_pool):
        with get_client("multiprocessing", jobs=2) as client:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert list(client.map_ordered(square, [6])) == [36]
            assert not client.fell_back

    def test_no_tracer_is_fine(self, broken_pool):
        with get_client("multiprocessing", jobs=2) as client:
            with pytest.warns(BackendFallbackWarning):
                assert list(client.map_ordered(square, [1, 2])) == [1, 4]

    def test_pool_death_before_first_result_reruns_inline(self, fake_pool):
        fake_pool.break_after = 0
        tracer = Tracer()
        with get_client("multiprocessing", jobs=2, tracer=tracer) as client:
            with pytest.warns(BackendFallbackWarning, match="BrokenProcessPool"):
                assert list(client.map_ordered(square, [1, 2, 3])) == [1, 4, 9]
            assert client.used_backend == "native"
        assert [ev["type"] for ev in tracer.events] == ["backend_fallback"]

    def test_pool_death_mid_batch_reraises(self, fake_pool):
        fake_pool.break_after = 1
        with get_client("multiprocessing", jobs=2) as client:
            out = client.map_ordered(square, [1, 2, 3])
            assert next(out) == 1
            with pytest.raises(BrokenProcessPool):
                next(out)
            assert not client.fell_back


class TestClientContract:
    def test_closed_client_rejects_work(self):
        client = get_client("native")
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            next(client.map_ordered(square, [1]))

    def test_close_is_idempotent(self):
        client = get_client("multiprocessing", jobs=2)
        client.close()
        client.close()

    def test_native_streams_lazily(self):
        consumed = []

        def gen():
            for x in range(4):
                consumed.append(x)
                yield x

        with get_client("native") as client:
            out = client.map_ordered(square, gen())
            assert consumed == []
            assert next(out) == 0
            assert consumed == [0]
            assert list(out) == [1, 4, 9]

    def test_task_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with get_client("native") as client:
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


@pytest.mark.usefixtures("clean_env")
class TestParallelMap:
    """Default (jobs-derived) selection rules, so an outer
    ``REPRO_BACKEND`` — e.g. CI's multiprocessing smoke job — is
    cleared."""

    def test_serial_path(self):
        assert list(parallel_map(square, [1, 2, 3], jobs=1)) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        out = list(parallel_map(square, items, jobs=4))
        assert out == [x * x for x in items]

    def test_single_item_stays_inline(self):
        assert list(parallel_map(square, [7], jobs=8)) == [49]

    def test_empty(self):
        assert list(parallel_map(square, [], jobs=4)) == []

    def test_lazy_iterable_parallel_materialises(self):
        out = list(parallel_map(square, (x for x in range(20)), jobs=4))
        assert out == [x * x for x in range(20)]

    def test_auto_chunksize_formula(self, fake_pool):
        # len // (4 * jobs), floored at 1; order and results preserved
        assert list(parallel_map(square, range(40), jobs=2)) == [
            x * x for x in range(40)
        ]
        assert list(parallel_map(square, range(3), jobs=8)) == [0, 1, 4]
        assert fake_pool.chunksizes == [5, 1]
