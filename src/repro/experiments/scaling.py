"""Network-size scaling study.

The paper's headline is independence of the network size: the
expected-load factor is bounded by `δ/(δ+1−f)` for *any* ``n``, and the
authors report good behaviour "even on networks containing up to 1024
processors".  This driver measures, across ``n``:

* within-run relative spread (balance quality) — should be flat in ``n``;
* balancing operations per processor-tick (organisational cost) —
  should be flat in ``n`` (the trigger is purely local);
* migrated packets per processor-tick — ditto.

There is no table/figure for this in the paper (the 1024-processor
claim cites the application papers [7, 8]), so this is experiment A4 of
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.config import check_runs
from repro.experiments.report import render_table
from repro.params import LBParams
from repro.rng import RngFactory
from repro.simulation.driver import run_simulation
from repro.workload.phases import Section7Workload

__all__ = ["ScalingResult", "scaling_experiment"]


@dataclass(frozen=True, slots=True)
class ScalingResult:
    """Per-network-size quality/cost measurements."""

    ns: tuple[int, ...]
    f: float
    delta: int
    rel_spread: np.ndarray        # within-run (max-min)/mean, end of run
    ops_per_proc_tick: np.ndarray
    migrated_per_proc_tick: np.ndarray
    runs: int

    def render(self) -> str:
        rows = [
            [
                n,
                float(self.rel_spread[i]),
                float(self.ops_per_proc_tick[i]),
                float(self.migrated_per_proc_tick[i]),
            ]
            for i, n in enumerate(self.ns)
        ]
        return render_table(
            ["n", "rel spread (end)", "ops / proc-tick", "migrated / proc-tick"],
            rows,
        )

    def quality_flat(self, tolerance: float = 2.0) -> bool:
        """True iff the end-state spread varies by < ``tolerance``x
        across the size sweep (the scale-independence claim)."""
        lo, hi = self.rel_spread.min(), self.rel_spread.max()
        return bool(hi <= lo * tolerance + 0.05)


def scaling_experiment(
    ns: Sequence[int] = (16, 32, 64, 128, 256),
    *,
    f: float = 1.1,
    delta: int = 2,
    C: int = 4,
    steps: int = 300,
    runs: int = 3,
    seed: int = 0,
) -> ScalingResult:
    """Run the §7 workload at several network sizes."""
    check_runs(runs)
    params = LBParams(f=f, delta=delta, C=C)
    spread = np.zeros(len(ns))
    ops = np.zeros(len(ns))
    migrated = np.zeros(len(ns))
    for i, n in enumerate(ns):
        for r in range(runs):
            factory = RngFactory(seed).child_factory("scale", n, r)
            workload = Section7Workload(
                n, steps, layout_rng=factory.named("layout")
            )
            res = run_simulation(n, params, workload, steps, seed=factory)
            final = res.loads[-1].astype(float)
            mean = max(final.mean(), 1.0)
            spread[i] += (final.max() - final.min()) / mean
            ops[i] += res.total_ops / (n * steps)
            migrated[i] += res.packets_migrated / (n * steps)
        spread[i] /= runs
        ops[i] /= runs
        migrated[i] /= runs
    return ScalingResult(
        ns=tuple(ns),
        f=f,
        delta=delta,
        rel_spread=spread,
        ops_per_proc_tick=ops,
        migrated_per_proc_tick=migrated,
        runs=runs,
    )
