#!/usr/bin/env python
"""Does the paper's synchronous analysis survive real asynchrony — and
a misbehaving network?

The analysed model assumes a global unit clock, instantaneous
balancing and a perfect network.  Real machines (the paper's
transputer deployments) have per-processor clocks, communication
latency, and hardware that fails.  This example runs the *practical*
variant of the algorithm (total-load trigger, no virtual classes —
what [7, 8] actually deployed) on a discrete-event simulator, first
under increasing latency, then under an injected fault plan
(docs/RESILIENCE.md): a crash burst, lost completion messages and a
straggling processor.

Run:  python examples/async_robustness.py
"""

from repro.core.async_engine import AsyncEngine, TableRates
from repro.experiments.report import render_table
from repro.faults import FaultPlan, StragglerWindow
from repro.metrics.band import recovery_report
from repro.params import LBParams
from repro.theory.bounds import theorem4_bound
from repro.workload import Section7Workload

PARAMS = LBParams(f=1.1, delta=2, C=4)


def latency_sweep(n: int, horizon: int, seed: int) -> None:
    print(
        "Practical algorithm on the section-7 workload, 64 processors,\n"
        "Poisson per-processor clocks, varying balancing latency\n"
        "(latency 1.0 = one full expected action period):\n"
    )
    rows = []
    for latency in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        workload = Section7Workload(n, horizon, layout_rng=seed)
        engine = AsyncEngine(
            PARAMS,
            TableRates(*workload.phase_tables),
            latency=latency,
            seed=seed,
        )
        res = engine.run(float(horizon))
        rows.append(
            [
                latency,
                res.final_cv(),
                res.total_ops,
                res.dropped_ops,
                res.declined_joins,
                res.packets_migrated,
            ]
        )

    print(
        render_table(
            ["latency", "final CV", "ops", "dropped ops",
             "declined joins", "migrations"],
            rows,
        )
    )
    print(
        "\nBalance quality (CV) degrades only mildly while the busy-"
        "decline mechanism throttles the operation count — the factor-"
        "trigger principle is self-stabilising under asynchrony, which "
        "is why the synchronous analysis transfers to the deployments "
        "the paper reports.\n"
    )


def chaos_scenario(n: int, horizon: int, seed: int) -> None:
    burst_start, burst_end = 100.0, 140.0
    plan = FaultPlan.crash_burst(
        n,
        0.1,
        at=burst_start,
        duration=burst_end - burst_start,
        seed=seed,
        message_loss=0.01,
        stragglers=(
            StragglerWindow(proc=0, start=0.0, end=float(horizon), factor=8.0),
        ),
    )
    print(
        "Now break the network (same workload, same engine seed):\n"
        f"  - {len(plan.crashes)} processors crash over "
        f"[{burst_start:g}, {burst_end:g})\n"
        f"  - every completion message is lost with p={plan.message_loss:g}\n"
        "  - processor 0 straggles at 8x latency throughout\n"
    )
    rows = []
    stats = {}
    for label, faults in (("perfect network", None), ("fault plan", plan)):
        workload = Section7Workload(n, horizon, layout_rng=seed)
        engine = AsyncEngine(
            PARAMS,
            TableRates(*workload.phase_tables),
            latency=0.5,
            seed=seed,
            faults=faults,
        )
        res = engine.run(float(horizon))
        rep = recovery_report(
            res.times, res.loads, PARAMS,
            burst_start=burst_start, burst_end=burst_end,
        )
        reentry = "-" if rep.reentry_time is None else f"{rep.reentry_time:g}"
        rows.append(
            [label, res.final_cv(), res.total_ops,
             f"{rep.spike_ratio:.2f}", reentry, res.retries]
        )
        if res.fault_stats is not None:
            stats = res.fault_stats

    print(
        render_table(
            ["network", "final CV", "ops", "spike ratio",
             "reentry (time)", "retries"],
            rows,
        )
    )
    print(
        f"\nTheorem-4 band f^2*delta/(delta+1-f) = "
        f"{theorem4_bound(None, PARAMS.delta, PARAMS.f):.3f}.  Injected: {stats['crashes']} "
        f"crashes, {stats['lost_messages']} lost messages "
        f"({stats['reclaimed_ops']} reclaimed by timeout), "
        f"{stats['straggled_ops']} straggled operations."
    )
    print(
        "The trigger mechanism that absorbs latency also absorbs the "
        "faults: on recovery the victims' own triggers redistribute "
        "their dark load, and the whole run is bit-for-bit replayable "
        "from (engine seed, FaultPlan).  `repro chaos` performs the "
        "focused measurement and writes results/resilience.json."
    )


def main() -> None:
    n, horizon, seed = 64, 400, 7
    latency_sweep(n, horizon, seed)
    chaos_scenario(n, horizon, seed)


if __name__ == "__main__":
    main()
