"""Multi-run experiment execution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.borrowing import BorrowCounters
from repro.experiments.config import QualityConfig
from repro.metrics.collector import EnvelopeSeries, MultiRunCollector
from repro.rng import RngFactory
from repro.simulation.driver import run_simulation
from repro.simulation.parallel import parallel_map
from repro.workload.phases import Section7Workload

__all__ = ["QualityResult", "quality_experiment"]


def _one_quality_run(
    args: tuple[QualityConfig, int]
) -> tuple[np.ndarray, BorrowCounters, int, int]:
    """One §7 run (module-level so it pickles for the process pool)."""
    config, r = args
    run_factory = RngFactory(config.seed).child_factory("run", r)
    workload = Section7Workload(
        config.n,
        config.steps,
        g_range=config.g_range,
        c_range=config.c_range,
        len_range=config.len_range,
        layout_rng=run_factory.named("layout"),
    )
    res = run_simulation(
        config.n,
        config.params,
        workload,
        config.steps,
        seed=run_factory,
        meta={"run": r},
    )
    return res.loads, res.counters, res.total_ops, res.packets_migrated


@dataclass(frozen=True, slots=True)
class QualityResult:
    """All measurements of one section-7 configuration.

    ``envelope`` feeds figures 7/8, ``snapshots`` figures 9/10 (keyed
    by tick: per-processor mean/min/max over runs), ``counters`` the
    Table-1 columns.
    """

    config: QualityConfig
    envelope: EnvelopeSeries
    snapshots: Mapping[int, Mapping[str, np.ndarray]]
    counters: list[BorrowCounters]
    mean_ops: float
    mean_migrated: float
    final_rel_spreads: np.ndarray
    """Per-run end-state ``(max - min) / mean`` — the sample the
    bootstrap confidence intervals run on."""


def quality_experiment(
    config: QualityConfig,
    *,
    jobs: int | None = None,
    backend: str | None = None,
) -> QualityResult:
    """Run one section-7 configuration ``config.runs`` times.

    Every run draws a fresh random phase layout (as in the paper: the
    workload-describing parameters are randomly chosen per experiment)
    and fresh balancing randomness, all derived from ``config.seed``
    via structural RNG keys — results are identical for any execution
    backend and any ``jobs`` (set ``REPRO_BACKEND``/``REPRO_JOBS`` or
    pass ``backend=``/``jobs=`` to fan runs out; see
    ``docs/BACKENDS.md``).
    """
    collector = MultiRunCollector(snapshot_ticks=config.snapshot_ticks)
    counters: list[BorrowCounters] = []
    ops = 0.0
    migrated = 0.0
    final_spreads: list[float] = []
    tasks = [(config, r) for r in range(config.runs)]
    for loads, run_counters, run_ops, run_migrated in parallel_map(
        _one_quality_run, tasks, jobs=jobs, backend=backend
    ):
        collector.add(loads)
        counters.append(run_counters)
        ops += run_ops
        migrated += run_migrated
        final = loads[-1].astype(float)
        final_spreads.append(
            float((final.max() - final.min()) / max(final.mean(), 1.0))
        )
    snapshots = {t: collector.snapshot(t) for t in config.snapshot_ticks}
    return QualityResult(
        config=config,
        envelope=collector.envelope(),
        snapshots=snapshots,
        counters=counters,
        mean_ops=ops / config.runs,
        mean_migrated=migrated / config.runs,
        final_rel_spreads=np.asarray(final_spreads),
    )

