"""Engine tick microbenchmarks + the tier-2 perf regression smoke.

Two roles:

* regenerate a small microbench report through the same harness the
  ``repro bench`` CLI uses (JSON artifact via ``save_json``), proving
  the harness end to end;
* ``perf_smoke`` (also ``tier2``): re-measure the ``n=256`` points and
  the headline columnar ``n=10⁵`` quiet point, and fail when ticks/sec
  regresses more than 30% against the committed
  ``results/BENCH_engine.json`` baseline — or when the n=10⁵ quiet run
  drops below the issue's interactivity floor (10³ ticks/sec, < 1 GiB
  peak RSS).  Best-of-three timing filters scheduler noise; regenerate
  the baseline on a quiet machine with ``repro bench`` when the engine
  legitimately changes speed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ENGINE_JSON, save_json
from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.experiments.microbench import (
    PROFILES,
    _make_actions,
    _prepare_engine,
    _tick_budget,
    bench_report,
    run_microbench,
)
from repro.params import LBParams

SMOKE_N = 256
SMOKE_PROFILES = ("quiet", "stationary")
ALLOWED_REGRESSION = 0.30
BEST_OF = 3
#: the issue's interactivity floor for the columnar engine
HEADLINE_N = 100_000
HEADLINE_MIN_TPS = 1000.0
HEADLINE_MAX_RSS = 2**30  # 1 GiB


def _committed_run(doc, n, profile):
    return next(
        (
            r
            for r in doc["runs"]
            if r["n"] == n and r["profile"] == profile
        ),
        None,
    )


def test_report_covers_all_profiles(results_dir):
    doc = bench_report(ns=(64,))
    assert doc["schema"] == "repro.bench_engine.v1"
    assert doc["profile_policy"] == {"quiet_only_above": 4096}
    assert {r["profile"] for r in doc["runs"]} == set(PROFILES)
    for rec in doc["runs"]:
        assert rec["engine"] == "columnar"
        assert rec["ticks_per_sec"] > 0
        assert rec["peak_rss_bytes"] > 0
        assert "sections" in rec
    save_json(results_dir, "bench_engine_n64", doc)


def test_quiet_profile_is_event_free():
    rec = run_microbench(64, "quiet", ticks=50)
    assert rec["total_ops"] == 0
    assert rec["events"] == {}


def test_engines_agree_on_bench_workloads():
    """The scalar oracle, driven through the harness's own actions,
    initial state and warm-ups, ends where the benchmarked columnar
    engine does."""
    n, ticks = 64, 40
    params = LBParams(f=1.3, delta=2, C=4)
    for profile in PROFILES:
        warmup, _ = _tick_budget(n, profile)
        acts = _make_actions(profile, n, warmup + ticks, 123)
        col, ref = (
            cls(EngineConfig(n=n, params=params), rng=7)
            for cls in (ColumnarEngine, Engine)
        )
        for eng in (col, ref):
            _prepare_engine(eng, profile, n)
            for t in range(warmup + ticks):
                eng.step(acts[t])
        assert np.array_equal(col.l, ref.l), profile
        assert col.counters.as_dict() == ref.counters.as_dict(), profile
        assert col.total_ops == ref.total_ops, profile
        rec = run_microbench(n, profile, ticks=ticks)
        events = {k: v for k, v in ref.counters.as_dict().items() if v}
        assert rec["events"] == events, profile
        assert rec["total_ops"] == ref.total_ops, profile


@pytest.mark.tier2
@pytest.mark.perf_smoke
@pytest.mark.parametrize("profile", SMOKE_PROFILES)
def test_no_perf_regression_at_n256(profile):
    if not BENCH_ENGINE_JSON.exists():
        pytest.skip("no committed BENCH_engine.json baseline")
    doc = json.loads(BENCH_ENGINE_JSON.read_text())
    committed = _committed_run(doc, SMOKE_N, profile)
    assert committed is not None, (
        f"baseline has no n={SMOKE_N} {profile} run — regenerate it"
    )
    best = max(
        run_microbench(SMOKE_N, profile)["ticks_per_sec"]
        for _ in range(BEST_OF)
    )
    floor = committed["ticks_per_sec"] * (1 - ALLOWED_REGRESSION)
    assert best >= floor, (
        f"{profile}@{SMOKE_N}: {best:.1f} ticks/s is >"
        f"{ALLOWED_REGRESSION:.0%} below the committed "
        f"{committed['ticks_per_sec']:.1f} (floor {floor:.1f}); if the "
        "slowdown is intended, regenerate results/BENCH_engine.json"
    )


@pytest.mark.tier2
@pytest.mark.perf_smoke
def test_committed_baseline_has_headline_rows():
    """The committed artifact must carry the issue's headline numbers."""
    if not BENCH_ENGINE_JSON.exists():
        pytest.skip("no committed BENCH_engine.json baseline")
    doc = json.loads(BENCH_ENGINE_JSON.read_text())
    big = _committed_run(doc, HEADLINE_N, "quiet")
    assert big is not None, "baseline lacks the n=10^5 quiet row"
    assert big["engine"] == "columnar"
    assert big["ticks_per_sec"] >= HEADLINE_MIN_TPS
    assert big["peak_rss_bytes"] < HEADLINE_MAX_RSS
    huge = _committed_run(doc, 1_000_000, "quiet")
    assert huge is not None, "baseline lacks the n=10^6 quiet row"


@pytest.mark.tier2
@pytest.mark.perf_smoke
def test_columnar_quiet_1e5_is_interactive():
    """Fresh measurement: >= 10^3 quiet ticks/sec at n=10^5, < 1 GiB.

    The RSS bound is checked on this process's high-water mark after
    the run — any earlier test in the session only makes the bound
    harder, never easier.
    """
    if not BENCH_ENGINE_JSON.exists():
        pytest.skip("no committed BENCH_engine.json baseline")
    doc = json.loads(BENCH_ENGINE_JSON.read_text())
    committed = _committed_run(doc, HEADLINE_N, "quiet")
    assert committed is not None, "baseline lacks the n=10^5 quiet row"
    best = max(
        run_microbench(HEADLINE_N, "quiet", ticks=100)["ticks_per_sec"]
        for _ in range(BEST_OF)
    )
    floor = max(
        HEADLINE_MIN_TPS,
        committed["ticks_per_sec"] * (1 - ALLOWED_REGRESSION),
    )
    assert best >= floor, (
        f"quiet@{HEADLINE_N}: {best:.1f} ticks/s below floor {floor:.1f} "
        f"(committed {committed['ticks_per_sec']:.1f}, interactivity "
        f"target {HEADLINE_MIN_TPS:.0f})"
    )
    from repro.experiments.microbench import peak_rss_bytes

    assert peak_rss_bytes() < HEADLINE_MAX_RSS
