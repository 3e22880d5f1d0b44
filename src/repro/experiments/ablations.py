"""Library drivers for the ablation studies (A1/A2).

The benchmark files assert the expected shapes; these functions produce
the underlying tables for interactive use and the CLI (``repro
baselines`` / ``repro locality``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.baselines import (
    Diffusion,
    GlobalAverageOracle,
    GradientModel,
    NoBalance,
    RSU,
    RandomScatter,
    WorkStealing,
    run_baseline,
)
from repro.core.columnar import ColumnarEngine
from repro.core.engine import EngineConfig
from repro.core.selection import (
    GlobalRandomSelector,
    NeighborhoodSelector,
    RandomWalkSelector,
)
from repro.experiments.report import render_table
from repro.metrics.cost_model import price_events
from repro.network import DeBruijn, Hypercube, Ring, Torus2D
from repro.observability.tracer import Tracer
from repro.params import LBParams
from repro.rng import RngFactory
from repro.simulation.driver import Simulation, run_simulation
from repro.workload.phases import Section7Workload
from repro.workload.trace import TraceRecorder

__all__ = [
    "BaselineComparison",
    "baseline_comparison",
    "LocalityStudy",
    "locality_study",
]


def _torus_for(n: int) -> Torus2D:
    """Most-square rows x cols torus with n nodes (rows >= 2)."""
    rows = int(np.sqrt(n))
    while rows >= 2 and n % rows:
        rows -= 1
    if rows < 2:
        raise ValueError(f"cannot build a torus on n={n} (prime?)")
    return Torus2D(rows=rows, cols=n // rows)


def _cv(loads: np.ndarray) -> float:
    final = loads[-1].astype(float)
    mean = final.mean()
    return float(final.std() / mean) if mean > 0 else 0.0


@dataclass(frozen=True, slots=True)
class BaselineComparison:
    """A1 results: per-balancer quality and cost on one shared trace."""

    rows: Mapping[str, tuple[float, int, int]]  # name -> (cv, max, migrated)

    def render(self) -> str:
        return render_table(
            ["balancer", "final CV", "final max", "migrations"],
            [[k, v[0], v[1], v[2]] for k, v in self.rows.items()],
        )

    def cv(self, name: str) -> float:
        return self.rows[name][0]


def baseline_comparison(
    *,
    n: int = 64,
    steps: int = 400,
    seed: int = 3,
    f: float = 1.1,
    delta: int = 2,
) -> BaselineComparison:
    """Run all balancers on one recorded §7 trace (A1)."""
    rec = TraceRecorder(Section7Workload(n, steps, layout_rng=seed))
    lm = run_simulation(
        n, LBParams(f=f, delta=delta, C=4), rec, steps=steps, seed=seed
    )
    trace = rec.trace()
    rows: dict[str, tuple[float, int, int]] = {
        "Lüling-Monien": (
            _cv(lm.loads),
            int(lm.loads[-1].max()),
            lm.packets_migrated,
        )
    }
    for name, balancer in [
        ("RSU", RSU(n, rng=seed)),
        ("work stealing", WorkStealing(n, rng=seed)),
        ("diffusion (torus)", Diffusion(_torus_for(n), rng=seed)),
        ("gradient (torus)", GradientModel(_torus_for(n), rng=seed)),
        ("random scatter", RandomScatter(n, rng=seed)),
        ("global oracle", GlobalAverageOracle(n, rng=seed)),
        ("no balancing", NoBalance(n, rng=seed)),
    ]:
        res = run_baseline(balancer, trace, steps, seed=seed + 1)
        rows[name] = (
            _cv(res.loads),
            int(res.loads[-1].max()),
            res.packets_migrated,
        )
    return BaselineComparison(rows=rows)


@dataclass(frozen=True, slots=True)
class LocalityStudy:
    """A2 results: candidate-pool strategy vs quality and hop costs."""

    rows: Mapping[str, tuple[float, int, int, float]]
    # name -> (cv, ops, migrated, mean hops/packet)

    def render(self) -> str:
        return render_table(
            ["candidate pool", "final CV", "ops", "migrated", "hops/packet"],
            [[k, *v] for k, v in self.rows.items()],
        )


def locality_study(
    *,
    n: int = 64,
    steps: int = 300,
    seed: int = 9,
    f: float = 1.1,
    delta: int = 2,
    walk_lengths: Sequence[int] = (2, 6),
) -> LocalityStudy:
    """Candidate selection strategies on concrete topologies (A2).

    All strategies are priced on the *same* physical topology (the 2-D
    torus — the transputer-grid of the paper's machines): the global
    selector gets perfect balance but pays full-diameter hops; radius-1
    pools pay one hop; random walks interpolate.
    """
    torus = _torus_for(n)
    strategies: dict[str, object] = {
        "global random (paper)": GlobalRandomSelector(n),
        "torus radius-1": NeighborhoodSelector(torus.neighborhood_pools(1)),
        "torus radius-2": NeighborhoodSelector(torus.neighborhood_pools(2)),
    }
    for wl in walk_lengths:
        strategies[f"torus walk-{wl}"] = RandomWalkSelector(torus, wl)
    strategies["hypercube radius-1"] = NeighborhoodSelector(
        Hypercube(int(np.log2(n))).neighborhood_pools(1)
    ) if (n & (n - 1)) == 0 else None
    strategies["deBruijn radius-1"] = NeighborhoodSelector(
        DeBruijn(int(np.log2(n))).neighborhood_pools(1)
    ) if (n & (n - 1)) == 0 else None
    strategies["ring radius-1"] = NeighborhoodSelector(
        Ring(n).neighborhood_pools(1)
    )

    rows: dict[str, tuple[float, int, int, float]] = {}
    for name, selector in strategies.items():
        if selector is None:
            continue
        factory = RngFactory(seed)
        tracer = Tracer()
        engine = ColumnarEngine(
            EngineConfig(n=n, params=LBParams(f=f, delta=delta, C=4)),
            rng=factory.named("engine"),
            selector=selector,
            tracer=tracer,
        )
        workload = Section7Workload(n, steps, layout_rng=factory.named("layout"))
        sim = Simulation(engine, workload, workload_rng=factory.named("workload"))
        loads = sim.run(steps)
        cost = price_events(tracer, torus)
        rows[name] = (
            _cv(loads),
            engine.total_ops,
            engine.packets_migrated,
            cost.mean_hops_per_packet,
        )
    return LocalityStudy(rows=rows)
