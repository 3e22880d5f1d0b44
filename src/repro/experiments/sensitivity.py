"""Full parameter sensitivity sweep: the (f, delta, C) trade-off surface.

Section 7's core message is that all qualities — balance, variation,
cost — are *scalable by the parameters*.  This driver maps the whole
surface on the §7 workload: for every grid point it measures balance
quality (within-run relative spread, with bootstrap CI), organisational
cost (ops, migrations) and borrow traffic, and derives the empirical
Pareto front (configurations not dominated in (spread, migrations)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.experiments.config import QualityConfig, check_runs, default_runs
from repro.experiments.report import render_table
from repro.experiments.runner import quality_experiment
from repro.metrics.confidence import ConfidenceInterval, bootstrap_ci

__all__ = ["SweepPoint", "SensitivityResult", "sensitivity_sweep"]


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Measurements of one (f, delta, C) grid point."""

    f: float
    delta: int
    C: int
    spread: ConfidenceInterval       # within-run relative spread, end of run
    ops_per_run: float
    migrated_per_run: float
    borrows_per_run: float

    @property
    def key(self) -> tuple[float, int, int]:
        return (self.f, self.delta, self.C)


@dataclass(frozen=True, slots=True)
class SensitivityResult:
    points: tuple[SweepPoint, ...]

    def render(self) -> str:
        rows = []
        front = set(p.key for p in self.pareto_front())
        for p in self.points:
            rows.append(
                [
                    p.f,
                    p.delta,
                    p.C,
                    f"{p.spread.estimate:.3f} ±{p.spread.width / 2:.3f}",
                    p.ops_per_run,
                    p.migrated_per_run,
                    p.borrows_per_run,
                    "*" if p.key in front else "",
                ]
            )
        return render_table(
            ["f", "delta", "C", "rel spread (95% CI)", "ops/run",
             "migrated/run", "borrows/run", "Pareto"],
            rows,
        )

    def pareto_front(self) -> list[SweepPoint]:
        """Points not dominated in (spread, migrations): the live
        trade-off menu a user picks from."""
        front = []
        for p in self.points:
            dominated = any(
                q.spread.estimate <= p.spread.estimate
                and q.migrated_per_run <= p.migrated_per_run
                and (
                    q.spread.estimate < p.spread.estimate
                    or q.migrated_per_run < p.migrated_per_run
                )
                for q in self.points
            )
            if not dominated:
                front.append(p)
        return front

    def marginal(self, axis: str) -> Mapping[float, float]:
        """Mean spread per value of one parameter (f / delta / C)."""
        if axis not in ("f", "delta", "C"):
            raise ValueError(f"axis must be f, delta or C, got {axis}")
        acc: dict[float, list[float]] = {}
        for p in self.points:
            acc.setdefault(getattr(p, axis), []).append(p.spread.estimate)
        return {k: float(np.mean(v)) for k, v in sorted(acc.items())}


def sensitivity_sweep(
    *,
    fs: Sequence[float] = (1.1, 1.4, 1.8),
    deltas: Sequence[int] = (1, 2, 4),
    cs: Sequence[int] = (4, 16),
    n: int = 64,
    steps: int = 300,
    runs: int | None = None,
    seed: int = 0,
) -> SensitivityResult:
    """Measure every grid point; see module docstring."""
    runs = default_runs() if runs is None else check_runs(runs)
    points: list[SweepPoint] = []
    for f in fs:
        for delta in deltas:
            if not f < delta + 1:
                continue  # outside the provable domain
            for C in cs:
                cfg = QualityConfig(
                    n=n, steps=steps, f=f, delta=delta, C=C,
                    runs=runs, seed=seed, snapshot_ticks=(),
                )
                res = quality_experiment(cfg)
                ci = bootstrap_ci(res.final_rel_spreads, seed=seed)
                borrows = float(
                    np.mean([c.total_borrow for c in res.counters])
                )
                points.append(
                    SweepPoint(
                        f=f,
                        delta=delta,
                        C=C,
                        spread=ci,
                        ops_per_run=res.mean_ops,
                        migrated_per_run=res.mean_migrated,
                        borrows_per_run=borrows,
                    )
                )
    return SensitivityResult(points=tuple(points))
