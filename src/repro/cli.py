"""Command line interface: regenerate any paper artifact, inspect runs.

Usage::

    repro list
    repro fig6 [--trials 20000] [--out results/]
    repro fig7 | fig8 | fig9 | fig10  [--runs 100] [--out results/]
    repro table1 [--runs 100]
    repro theorem12 | theorem3 | lemma4 | lemma56
    repro scaling | async                     (A3/A4 ablations)
    repro all [--runs 25] [--out results/]

Every command prints an ASCII rendering; ``--out DIR`` additionally
writes the raw series as CSV files.

Observability tools (see docs/OBSERVABILITY.md)::

    repro trace [--n 16] [--steps 200] [--seed 0] [--f 1.3] [--delta 2]
                [--trace-out trace.ndjson] [--export chrome|ndjson]
                [--capacity N]
    repro trace --diff a.ndjson b.ndjson
    repro trace --engine async [--horizon 50]
    repro profile [--n 64] [--steps 300] [--seed 0]
    repro profile --engine async [--horizon 60]
    repro trace|profile|spans|report --faulted [--n N] [--horizon 80]
    repro bench [--sizes 64,...,1000000 | -n N] [--profile quiet,...]
                [--ticks T] [--seed 7] [--out DIR]
                [--backend native|multiprocessing] [--jobs N]
                [--trace-out bench_trace.json]
    repro chaos [--n 16] [--horizon 80] [--plan crash_burst|stragglers|
                partition|lossy] [--crash-frac 0.1] [--message-loss 0.01]
                [--out DIR] [--backend native|multiprocessing] [--jobs N]
    repro churn [--smoke] [--n N] [--horizon H] [--topologies a,b,...]
                [--churn-rates 0,0.1,...] [--skews 0,0.5,...] [--out DIR]
                [--backend native|multiprocessing] [--jobs N]
    repro report [--engine sync|async] [--faulted] [--report-out run.html]
    repro report --compare REF.json CAND.json [--tolerance 0.75]
    repro report --compare results/bench_history.ndjson CAND.json
    repro report --service results/service.json [--report-out run.html]
    repro report --dynamics results/dynamics.json [--report-out run.html]
    repro spans [--engine sync|async] [--faulted] | repro spans --trace-in t.ndjson

Live service mode (see docs/SERVICE.md)::

    repro serve [--smoke] [--chaos] [--traffic poisson|bursty|diurnal]
                [--rate R] [--queue-cap K] [--n N] [--horizon H] [--seed S]
                [--record trace.json | --replay trace.json] [--out DIR]
                [--telemetry PORT [--telemetry-hold SECONDS]]
    repro top [--url http://127.0.0.1:9100/metrics] [--once]
              [--frames N] [--interval S]

``repro serve`` runs one service episode: open-loop traffic through
the admission controller into bounded per-processor queues balanced by
the asynchronous engine, with the degradation ladder
(healthy → backpressure → shedding → recovering) re-tuning admission
and the balancing trigger as backpressure builds.  ``--smoke`` selects
the tuned CI scenario (a flash crowd over the chaos window);
``--chaos`` composes the crash-burst fault plan underneath it.  The
run writes schema-validated ``results/service.json`` (SLO verdicts,
degradation-state timeline, worst sojourns); ``--record`` saves the
offered arrival stream, ``--replay`` re-runs a saved one bit-exactly.
``repro report --service`` renders a saved service document as the
report's service-run section.

Live telemetry (see docs/OBSERVABILITY.md § Telemetry): ``--telemetry
PORT`` samples the running episode into a windowed time series, times
the async engine's profiler sections into the same registry, and
serves both as a Prometheus text exposition on ``/metrics`` (``0`` picks
any free port; ``--telemetry-hold`` keeps the endpoint up after the
episode so scrapers catch the final state).  ``repro top`` is the
matching live dashboard — it scrapes an endpoint on an interval and
renders band occupancy, sojourn quantiles, admission/shed rates and
the degradation state in place (``q`` quits, ``p`` pauses; ``--once``
prints a single frame without curses).  ``repro trace --export
chrome`` (and ``repro bench --trace-out``) write Chrome trace-event
JSON for Perfetto / ``chrome://tracing``; a run export draws one span
per balancing operation, derived from the trace; a bench export is
built from the bench document itself: one ``bench:grid`` root span plus
one span per measured run, on the run's own lane, as long as its
measured time.

``trace``, ``profile``, ``spans`` and ``report`` observe the same
deterministic run, built in one place: the §7 workload on the
synchronous engine (``--steps`` ticks), on the asynchronous engine
(``--engine async``, ``--horizon`` in model time), or the crash-burst
resilience scenario (``--faulted``; :mod:`repro.experiments.resilience`,
docs/RESILIENCE.md).  Each command attaches only the observers it
reads.  ``repro trace`` records the run with the structured event
tracer on, prints a summary, cross-checks the trace against the run's
aggregate counters, and (with ``--trace-out``) exports the
schema-validated NDJSON.  ``--diff`` compares two recorded traces.
``repro profile`` times the engine's hot sections and prints the run
report's profiler section.
``repro bench`` runs the engine tick microbenchmarks
(:mod:`repro.experiments.microbench`) on the columnar engine and writes
``results/BENCH_engine.json``; ``-n``/``--profile``/``--ticks`` narrow
the grid to one size / a profile subset / a fixed tick count (CI smoke
runs), and each run appends a record to ``bench_history.ndjson``, the
cross-revision perf trajectory (see docs/PERFORMANCE.md).  Multi-run
commands (``bench``, ``chaos``, ``churn``, and every experiment built on
``quality_experiment``) execute through the batch backend
(:mod:`repro.simulation.parallel`) selected by ``--backend``/``--jobs``
or ``REPRO_BACKEND`` / ``REPRO_JOBS`` (see docs/BACKENDS.md); the flags
are validated once for every command (an unknown backend exits 2) and
then stand in for the two environment variables while the command
runs.  The chosen backend is printed in the ``bench``/``chaos``/
``churn`` output and recorded in their JSON artifacts.

``repro chaos`` runs a named fault scenario (``--plan``;
:mod:`repro.experiments.resilience`, docs/RESILIENCE.md) and writes
``results/resilience.json``.

``repro churn`` runs the dynamic-network degradation study
(:mod:`repro.experiments.dynamics`, docs/DYNAMICS.md): Theorem-4 band
occupancy, worst normalised ratio and per-event recovery times over a
``topologies x churn-rates x skews`` grid, written to schema-validated
``results/dynamics.json`` (``--smoke`` is the tuned deterministic CI
grid; ``repro report --dynamics`` renders a saved document).

``repro report`` observes that run fully — tracer, conformance
monitors, profiler; the balancing-operation spans are derived from the
trace — and renders a self-contained
markdown report (``--report-out x.html`` writes HTML for CI artifacts);
``--faulted`` gives the monitors a story to tell.  ``repro report
--compare A B`` diffs two ``BENCH_engine.json`` documents
(:func:`repro.experiments.microbench.compare_bench`) and exits nonzero
on drift.  ``repro spans`` prints the report's spans section for the
run (or for a recorded NDJSON trace via ``--trace-in``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Lüling & Monien, SPAA'93.",
    )
    p.add_argument(
        "command",
        choices=["list", *_COMMANDS, "all", "top"],
        help="artifact to regenerate, an observability tool "
        "(trace/profile/bench/chaos/churn/report/spans), the live "
        "service mode (serve), or the telemetry dashboard (top)",
    )
    p.add_argument("--runs", type=int, default=None, help="runs per config (paper: 100)")
    p.add_argument("--trials", type=int, default=20_000, help="MC trials (fig6/theorem12)")
    p.add_argument(
        "--seed", type=int, default=None,
        help="random seed (default 0; bench: engine seed, default 7)",
    )
    p.add_argument("--out", type=Path, default=None, help="directory for CSV output")
    # trace / profile options
    p.add_argument(
        "--n", "-n", type=int, default=None,
        help="network size (trace/profile/report/spans/serve/chaos; "
        "default 16; churn: default 32; bench: run this single size "
        "instead of --sizes)",
    )
    p.add_argument(
        "--steps", type=int, default=200,
        help="ticks (sync trace/profile/report/spans)",
    )
    p.add_argument(
        "--f", type=float, default=1.3,
        help="trigger factor (trace/profile/report/spans/chaos; churn without --smoke)",
    )
    p.add_argument(
        "--delta", type=int, default=2,
        help="partners (trace/profile/report/spans/chaos; churn without --smoke)",
    )
    p.add_argument(
        "--cap", type=int, default=4,
        help="borrow capacity C (trace/profile/report/spans/chaos; churn without --smoke)",
    )
    p.add_argument(
        "--trace-out", type=Path, default=None,
        help="write the recorded trace to this file (trace; bench: "
        "export the bench timeline, one span per measured run, as a "
        "Chrome trace here)",
    )
    p.add_argument(
        "--export", type=str, default=None, metavar="FORMAT",
        help="trace output format for --trace-out (trace; "
        "chrome|ndjson; default ndjson — chrome writes a Chrome "
        "trace-event JSON for Perfetto / chrome://tracing)",
    )
    p.add_argument(
        "--diff", type=Path, nargs=2, metavar=("A", "B"), default=None,
        help="diff two recorded NDJSON traces instead of recording (trace)",
    )
    p.add_argument(
        "--capacity", type=int, default=None,
        help="tracer ring-buffer capacity; events beyond it evict the "
        "oldest (trace/report/spans; default unbounded)",
    )
    p.add_argument(
        "--trace-in", type=Path, default=None,
        help="reconstruct spans from this recorded NDJSON trace instead "
        "of running (spans)",
    )
    # report options
    p.add_argument(
        "--report-out", type=Path, default=None,
        help="write the run report to this file; .html gets a "
        "self-contained HTML page, anything else markdown (report)",
    )
    p.add_argument(
        "--compare", type=Path, nargs=2, metavar=("REF", "CAND"), default=None,
        help="regression mode: diff two BENCH_engine.json documents, "
        "exit nonzero on drift (report)",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.75,
        help="throughput ratio below which --compare flags drift; "
        "counters always compare exactly (report; default 0.75)",
    )
    p.add_argument(
        "--faulted", action="store_true",
        help="observe the crash-burst resilience scenario instead of a "
        "clean run (trace/profile/spans/report; implies the async "
        "engine; --horizon defaults to 80)",
    )
    p.add_argument(
        "--engine", choices=["sync", "async"], default="sync",
        help="engine to drive (trace/profile/spans/report); async uses "
        "--horizon",
    )
    p.add_argument(
        "--horizon", type=float, default=None,
        help="model-time horizon (async or --faulted trace/profile/"
        "spans/report; chaos, churn, serve)",
    )
    # chaos options
    p.add_argument(
        "--plan", type=str, default=None, metavar="NAME",
        help="fault scenario (chaos; crash_burst|stragglers|partition|"
        "lossy; default crash_burst)",
    )
    p.add_argument(
        "--crash-frac", type=float, default=0.1,
        help="fraction of processors affected by the burst (chaos)",
    )
    p.add_argument(
        "--message-loss", type=float, default=0.01,
        help="per-message loss probability (chaos)",
    )
    # churn options (docs/DYNAMICS.md)
    p.add_argument(
        "--topologies", type=str, default=None, metavar="NAMES",
        help="comma-separated base topologies for the degradation sweep "
        "(churn; complete|ring|torus|hypercube|debruijn|random_regular)",
    )
    p.add_argument(
        "--churn-rates", type=str, default=None, metavar="RATES",
        help="comma-separated churn event rates per time unit (churn)",
    )
    p.add_argument(
        "--skews", type=str, default=None, metavar="SIGMAS",
        help="comma-separated log-normal speed-skew sigmas (churn)",
    )
    # serve options (docs/SERVICE.md)
    p.add_argument(
        "--smoke", action="store_true",
        help="run the tuned CI smoke scenario: a flash crowd over the "
        "chaos window (serve)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="compose the crash-burst fault plan under the service run "
        "(serve)",
    )
    p.add_argument(
        "--traffic", type=str, default=None, metavar="NAME",
        help="open-loop traffic profile (serve; "
        "poisson|bursty|diurnal; default poisson, bursty with --smoke)",
    )
    p.add_argument(
        "--rate", type=float, default=None,
        help="network-wide arrival rate per time unit (serve)",
    )
    p.add_argument(
        "--queue-cap", type=int, default=None,
        help="bounded per-processor queue capacity (serve)",
    )
    p.add_argument(
        "--record", type=Path, default=None,
        help="write the offered arrival stream to this JSON file (serve)",
    )
    p.add_argument(
        "--replay", type=Path, default=None,
        help="replay a recorded arrival stream instead of generating "
        "traffic (serve)",
    )
    p.add_argument(
        "--telemetry", type=int, default=None, metavar="PORT",
        help="serve live telemetry as a Prometheus text exposition on "
        "this port while the episode runs (serve; 0 = any free port; "
        "see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--telemetry-hold", type=float, default=0.0, metavar="SECONDS",
        help="keep the telemetry endpoint up this long after the "
        "episode finishes so scrapers can catch the final state "
        "(serve; default 0)",
    )
    # top options (docs/OBSERVABILITY.md)
    p.add_argument(
        "--url", type=str, default=None, metavar="URL",
        help="telemetry endpoint to scrape "
        "(top; default http://127.0.0.1:9100/metrics)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print a single dashboard frame without curses (top)",
    )
    p.add_argument(
        "--frames", type=int, default=None,
        help="stop the dashboard after this many frames (top; CI)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="scrape interval in seconds (top; default 1.0)",
    )
    p.add_argument(
        "--service", type=Path, default=None, metavar="SERVICE_JSON",
        help="render a saved service.json as the report's service-run "
        "section (report)",
    )
    p.add_argument(
        "--dynamics", type=Path, default=None, metavar="DYNAMICS_JSON",
        help="render a saved dynamics.json as the report's degradation "
        "section (report)",
    )
    # bench options
    p.add_argument(
        "--sizes", type=str, default="64,256,1024,4096,100000,1000000",
        help="comma-separated network sizes (bench)",
    )
    p.add_argument(
        "--profile", type=str, default=None, metavar="NAMES",
        help="comma-separated workload profiles to benchmark "
        "(quiet|stationary|growth; bench; default all three)",
    )
    p.add_argument(
        "--ticks", type=int, default=None,
        help="measured ticks per point, overriding the per-profile "
        "budget (bench; CI smoke runs)",
    )
    # execution backend options (docs/BACKENDS.md)
    p.add_argument(
        "--backend", type=str, default=None, metavar="NAME",
        help="batch-execution backend for multi-run commands "
        "(native|multiprocessing; default: REPRO_BACKEND env, "
        "else derived from jobs)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for parallel backends (default: REPRO_JOBS "
        "env; 0 = all cores but one)",
    )
    return p


def _run_fig6(args: argparse.Namespace) -> str:
    from repro.experiments.figures import figure6

    res = figure6(trials=args.trials, seed=args.seed)
    if args.out:
        res.to_csv(args.out)
    return res.render()


def _run_figure(cmd: str, args: argparse.Namespace) -> str:
    from repro.experiments import figures

    res = getattr(figures, f"figure{cmd[3:]}")(runs=args.runs, seed=args.seed)
    if args.out:
        res.to_csv(args.out, stem=cmd)
    return res.render()


def _run_table1(args: argparse.Namespace) -> str:
    from repro.experiments.tables import table1

    return table1(runs=args.runs, seed=args.seed).render()


def _run_theorem12(args: argparse.Namespace) -> str:
    from repro.experiments.tables import theorem12_table

    return theorem12_table(trials=args.trials, seed=args.seed).render()


def _run_theorem3(args: argparse.Namespace) -> str:
    from repro.experiments.tables import theorem3_table

    return theorem3_table().render()


def _run_lemma4(args: argparse.Namespace) -> str:
    from repro.experiments.tables import lemma4_table

    return lemma4_table(seed=args.seed).render()


def _run_lemma56(args: argparse.Namespace) -> str:
    from repro.experiments.tables import lemma56_table

    return lemma56_table(runs=args.runs, seed=args.seed).render()


def _run_scaling(args: argparse.Namespace) -> str:
    from repro.experiments.scaling import scaling_experiment

    return scaling_experiment(
        runs=3 if args.runs is None else args.runs, seed=args.seed
    ).render()


def _run_baselines(args: argparse.Namespace) -> str:
    from repro.experiments.ablations import baseline_comparison

    return baseline_comparison(seed=args.seed).render()


def _run_locality(args: argparse.Namespace) -> str:
    from repro.experiments.ablations import locality_study

    return locality_study(seed=args.seed).render()


def _run_sensitivity(args: argparse.Namespace) -> str:
    from repro.experiments.sensitivity import sensitivity_sweep

    return sensitivity_sweep(runs=args.runs, seed=args.seed).render()


def _run_async(args: argparse.Namespace) -> str:
    from repro.core.async_engine import AsyncEngine, TableRates
    from repro.experiments.report import render_table
    from repro.params import LBParams
    from repro.workload import Section7Workload

    rows = []
    for latency in (0.0, 0.25, 1.0, 4.0):
        w = Section7Workload(64, 400, layout_rng=args.seed)
        eng = AsyncEngine(
            LBParams(f=1.1, delta=2, C=4),
            TableRates(*w.phase_tables),
            latency=latency,
            seed=args.seed,
        )
        res = eng.run(400.0)
        rows.append([latency, res.final_cv(), res.total_ops, res.dropped_ops])
    return render_table(["latency", "final CV", "ops", "dropped"], rows)


#: the commands that run the algorithm on ``-n`` processors with
#: ``--f``/``--delta``/``--cap``, and have no config default of their own
_PARAM_COMMANDS = ("trace", "profile", "report", "spans", "chaos")
#: ``--n`` when not given, for the ``_PARAM_COMMANDS``
_DEFAULT_N = 16
#: ``--seed`` when not given: 0, except bench's engine seed, which the
#: committed baselines were recorded with
_DEFAULT_SEEDS = {"bench": 7}


class _ObservedRun(NamedTuple):
    """What :func:`_observed_run` leaves behind besides its observers."""

    title: str
    meta: dict
    result: object
    times: object
    loads: object
    crash_bounds: tuple[float, float] | None


def _params(args: argparse.Namespace):
    from repro.params import LBParams

    return LBParams(f=args.f, delta=args.delta, C=args.cap)


def _observed_run(args: argparse.Namespace, **observers) -> _ObservedRun:
    """The one deterministic run that trace/profile/spans/report observe.

    ``--faulted`` replays the crash-burst resilience scenario (async
    engine, :meth:`~repro.experiments.resilience.ResilienceConfig.engine`);
    otherwise ``--engine`` picks the §7 workload on the synchronous
    engine (``--steps`` ticks) or the asynchronous one (``--horizon``,
    default 50).  ``observers`` (``tracer=``, ``profiler=``,
    ``monitors=``) attach to the engine unchanged; spans are derived
    from the tracer's events afterwards, so no engine records them.
    """
    from repro.workload import Section7Workload

    n = _DEFAULT_N if args.n is None else args.n
    extra: dict = {}
    crash_bounds = None
    if args.faulted:
        from repro.experiments.resilience import ResilienceConfig

        cfg = ResilienceConfig(
            n=n, f=args.f, delta=args.delta, C=args.cap, seed=args.seed,
            **({"horizon": args.horizon} if args.horizon is not None else {}),
        )
        engine = cfg.engine(cfg.plan(), **observers)
        res = engine.run(cfg.horizon)
        crash_bounds = engine.faults.crash_bounds()
        label, kind = "crash-burst", "async (faulted)"
        length = ("horizon", f"{cfg.horizon:g}")
        extra = {"crash_frac": cfg.crash_frac, "message_loss": cfg.message_loss}
    elif args.engine == "async":
        from repro.core.async_engine import AsyncEngine, TableRates

        horizon = 50.0 if args.horizon is None else args.horizon
        w = Section7Workload(n, max(int(horizon) + 1, 1), layout_rng=args.seed)
        res = AsyncEngine(
            _params(args), TableRates(*w.phase_tables), seed=args.seed,
            **observers,
        ).run(horizon)
        label = kind = "async"
        length = ("horizon", f"{horizon:g}")
    else:
        from repro.simulation.driver import run_simulation

        workload = Section7Workload(n, args.steps, layout_rng=args.seed)
        res = run_simulation(
            n, _params(args), workload, args.steps, seed=args.seed,
            **observers,
        )
        label = kind = "sync"
        length = ("steps", args.steps)
    times = res.times if kind != "sync" else list(range(res.loads.shape[0]))
    meta = {
        "engine": kind, "n": n, length[0]: length[1], "f": args.f,
        "delta": args.delta, "C": args.cap, "seed": args.seed, **extra,
        "ops": res.total_ops,
    }
    title = f"{label} run (n={n}, {length[0]}={length[1]})"
    return _ObservedRun(title, meta, res, times, res.loads, crash_bounds)


def _run_header(verb: str, run: _ObservedRun) -> str:
    """``<verb> [async ]run: n=... f=... seed=...`` from the run's meta."""
    kind = run.meta["engine"]
    fields = " ".join(
        f"{k}={v}" for k, v in run.meta.items() if k not in ("engine", "ops")
    )
    return f"{verb} {'' if kind == 'sync' else kind + ' '}run: {fields}"


def _run_trace(args: argparse.Namespace) -> str:
    from repro.experiments.report import render_table
    from repro.observability import (
        Tracer,
        diff_summaries,
        reconcile_async_trace,
        reconcile_trace,
        render_summary,
        summarise_trace,
        validate_ndjson,
    )
    from repro.observability.tracer import read_ndjson

    if args.export is not None:
        _check_choice("export format", args.export, ("ndjson", "chrome"))
        if args.trace_out is None:
            _usage_error("--export needs --trace-out to name the output file")

    if args.diff:
        a_path, b_path = args.diff
        a = summarise_trace(read_ndjson(a_path))
        b = summarise_trace(read_ndjson(b_path))
        rows = [
            [key, va, vb, dv] for key, va, vb, dv in diff_summaries(a, b)
        ]
        return render_table([" key", a_path.name, b_path.name, "delta"], rows)

    tracer = Tracer(capacity=args.capacity)
    run = _observed_run(args, tracer=tracer)
    res = run.result
    if run.meta["engine"] == "sync":
        problems = reconcile_trace(tracer.events, res)
    else:
        problems = reconcile_async_trace(tracer.events, res)
    lines = [
        _run_header("traced", run),
        "",
        render_summary(summarise_trace(tracer.events)),
        "",
        (
            f"ring buffer: {tracer.dropped} events evicted "
            f"(capacity {tracer.capacity}; summary covers the survivors)"
            if tracer.dropped
            else "ring buffer: 0 events evicted (complete trace)"
        ),
        "",
    ]
    if tracer.dropped:
        # survivors cannot add up to the run totals once the ring
        # buffer evicted events, so reconciling would cry wolf
        lines.append(
            "reconciliation with run aggregates: skipped (truncated trace)"
        )
    elif problems:
        lines.append("reconciliation with run aggregates FAILED:")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append(
            "reconciliation with run aggregates: OK "
            f"(ops={res.total_ops}, migrated={res.packets_migrated})"
        )
    if args.trace_out:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        if args.export == "chrome":
            from repro.observability.export import write_chrome_trace

            count = write_chrome_trace(args.trace_out, tracer.events)
            lines.append(
                f"wrote {count} Chrome trace events to {args.trace_out} "
                "(open in Perfetto / chrome://tracing)"
            )
        else:
            count = tracer.to_ndjson(args.trace_out)
            validate_ndjson(args.trace_out)
            lines.append(
                f"wrote {count} events to {args.trace_out} (schema valid)"
            )
    return "\n".join(lines)


def _run_profile(args: argparse.Namespace) -> str:
    from repro.observability import Profiler, profiler_section

    profiler = Profiler()
    run = _observed_run(args, profiler=profiler)
    header = _run_header("profiled", run) + f" (ops={run.result.total_ops})"
    return "\n".join([header, "", *profiler_section(profiler)])


def _usage_error(message: str) -> NoReturn:
    """Report bad input the CLI's one way: ``error: ...`` on stderr, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_numbers(args: argparse.Namespace) -> None:
    """Fail fast (exit 2) on a numeric option out of range, before any
    command runs; an option left at ``None`` (not given) passes."""
    from repro.params import ParamError

    for flag, value, least in (
        ("--runs", args.runs, 1),
        ("--trials", args.trials, 1),
        ("--steps", args.steps, 1),
        ("-n", args.n, 2),
        ("--capacity", args.capacity, 1),
        ("--ticks", args.ticks, 1),
        ("--queue-cap", args.queue_cap, 1),
    ):
        if value is not None and value < least:
            _usage_error(f"{flag} needs a value >= {least}, got {value}")
    if args.horizon is not None and not args.horizon > 0:
        _usage_error(f"--horizon needs a value > 0, got {args.horizon}")
    if args.rate is not None and not args.rate >= 0:
        _usage_error(f"--rate needs a value >= 0, got {args.rate}")
    if not 0 <= args.crash_frac <= 1:
        _usage_error(f"--crash-frac needs a value in [0, 1], got {args.crash_frac}")
    if not 0 <= args.message_loss < 1:
        _usage_error(
            f"--message-loss needs a value in [0, 1), got {args.message_loss}"
        )
    try:
        params = _params(args)
        for n in _network_sizes(args):
            params.validate_for_network(n)
    except ParamError as exc:
        _usage_error(f"--f/--delta/--cap: {exc}")
    if args.n is not None and (
        args.command == "serve" or args.command == "churn" and args.smoke
    ):
        # these runs take delta from their config, not from --delta
        from repro.experiments.dynamics import DynamicsConfig
        from repro.service import ServiceConfig

        config = ServiceConfig if args.command == "serve" else DynamicsConfig
        delta = config.smoke().delta if args.smoke else config().delta
        if args.n <= delta:
            _usage_error(f"-n needs a value > delta = {delta}, got {args.n}")


def _network_sizes(args: argparse.Namespace) -> tuple[int, ...]:
    """The sizes ``n`` a command runs ``--delta`` partners on."""
    if args.command == "bench":
        return (args.n,) if args.n is not None else _bench_sizes(args.sizes)
    if args.command == "churn" and not args.smoke:
        from repro.experiments.dynamics import DynamicsConfig

        return (DynamicsConfig().n if args.n is None else args.n,)
    if args.command in _PARAM_COMMANDS:
        return (_DEFAULT_N if args.n is None else args.n,)
    return ()


def _bench_sizes(sizes: str) -> tuple[int, ...]:
    """``--sizes`` parsed: comma-separated ints, each >= 2."""
    try:
        ns = tuple(int(x) for x in sizes.split(",") if x)
    except ValueError:
        _usage_error(f"--sizes expects comma-separated ints, got {sizes!r}")
    if not ns or any(n < 2 for n in ns):
        _usage_error(f"--sizes needs values >= 2, got {sizes!r}")
    return ns


def _check_choice(kind: str, value: str, valid) -> None:
    """Fail fast (exit 2) on an unknown registry name.

    One convention for every name-shaped option (``--profile``,
    ``--plan``, ``--traffic``, ``--topologies``): print ``error:
    unknown <kind> '<value>' (known <kind>s: ...)`` to stderr and exit
    2, instead of a traceback from wherever the registry lookup would
    eventually have failed.
    """
    if value not in valid:
        plural = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
        _usage_error(f"unknown {kind} {value!r} (known {plural}: {', '.join(valid)})")


def _run_bench(args: argparse.Namespace) -> str:
    from repro.experiments.microbench import (
        PROFILES,
        append_bench_history,
        bench_report,
        render_report,
        write_bench_json,
    )
    from repro.params import LBParams

    profiles = PROFILES
    if args.profile is not None:
        profiles = tuple(x.strip() for x in args.profile.split(",") if x.strip())
        for name in profiles:
            _check_choice("profile", name, PROFILES)
        if not profiles:
            _usage_error(f"--profile needs at least one of {', '.join(PROFILES)}")
    doc = bench_report(
        _network_sizes(args),
        profiles=profiles,
        params=LBParams(f=args.f, delta=args.delta, C=args.cap),
        ticks=args.ticks,
        engine_seed=args.seed,
    )
    out_dir = args.out or Path("results")
    path = out_dir / "BENCH_engine.json"
    write_bench_json(path, doc)
    tail = [f"wrote {path}"]
    history_path = out_dir / "bench_history.ndjson"
    append_bench_history(history_path, doc)
    tail.append(
        f"appended perf trajectory record to {history_path} "
        "(repro report --compare reads the last line as a baseline)"
    )
    if args.trace_out is not None:
        from repro.experiments.microbench import bench_timeline
        from repro.observability.export import write_chrome_trace

        count = write_chrome_trace(
            args.trace_out, [], timeline=bench_timeline(doc),
            run_id=f"bench-{doc['git_rev']}",
        )
        tail.append(
            f"wrote {count} Chrome trace events to {args.trace_out} "
            "(bench timeline, one span per run; open in Perfetto)"
        )
    return render_report(doc) + "\n\n" + "\n".join(tail)


def _write_report(md: str, title: str, dest: Path | None) -> str:
    """The ``--report-out`` writer shared by every report: ``.html`` /
    ``.htm`` get a self-contained HTML page, anything else markdown."""
    if dest is None:
        return md
    from repro.observability import to_html

    dest.parent.mkdir(parents=True, exist_ok=True)
    if dest.suffix.lower() in (".html", ".htm"):
        dest.write_text(to_html(md, title=title))
    else:
        dest.write_text(md)
    return md + f"\n\nwrote {dest}"


def _run_report(args: argparse.Namespace) -> str:
    from repro.observability import MonitorSuite, Profiler, Tracer, build_report

    if args.compare:
        from repro.experiments.microbench import (
            compare_bench,
            load_bench,
            load_bench_history,
        )

        # a .ndjson reference is a bench-history trajectory: its last
        # line stands in as the comparison baseline
        ref, cand = (
            load_bench_history(path) if path.suffix == ".ndjson"
            else load_bench(path)
            for path in args.compare
        )
        text, ok = compare_bench(ref, cand, tolerance=args.tolerance)
        if not ok:
            print(text)
            raise SystemExit(2)
        return text

    if args.service or args.dynamics:
        from repro.experiments.dynamics import DYNAMICS_SHAPE, render_dynamics
        from repro.service import SERVICE_SHAPE, service_markdown_section
        from repro.simulation.serialize import load_document

        path, shape = (
            (args.service, SERVICE_SHAPE) if args.service
            else (args.dynamics, DYNAMICS_SHAPE)
        )
        try:
            doc = load_document(path, shape)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        body = (
            service_markdown_section(doc) if args.service
            else ["```", render_dynamics(doc), "```"]
        )
        md = "\n".join([f"# {shape.kind} report — {path}", "", *body])
        return _write_report(md, f"{shape.kind} report", args.report_out)

    tracer = Tracer(capacity=args.capacity)
    profiler = Profiler()
    suite = MonitorSuite.standard(_params(args), tracer=tracer)
    run = _observed_run(args, tracer=tracer, profiler=profiler, monitors=suite)
    md = build_report(
        title=run.title,
        meta=run.meta,
        monitors=suite,
        events=tracer.events,
        tracer=tracer,
        times=run.times,
        loads=run.loads,
        profiler=profiler,
        crash_bounds=run.crash_bounds,
    )
    return _write_report(md, run.title, args.report_out)


def _run_spans(args: argparse.Namespace) -> str:
    from repro.observability import Tracer, spans_from_trace, spans_section

    if args.trace_in:
        from repro.observability.tracer import read_ndjson

        events = list(read_ndjson(args.trace_in))
        header = f"spans from {args.trace_in}"
    else:
        tracer = Tracer(capacity=args.capacity)
        run = _observed_run(args, tracer=tracer)
        events = tracer.events
        header = f"spans of {run.title}"
    return "\n".join([header, "", *spans_section(spans_from_trace(events))])


def _run_chaos(args: argparse.Namespace) -> str:
    from repro.experiments.resilience import (
        RESILIENCE_SHAPE,
        SCENARIOS,
        ResilienceConfig,
        render_resilience,
        resilience_experiment,
    )
    from repro.simulation.serialize import write_document

    kwargs = dict(
        n=_DEFAULT_N if args.n is None else args.n,
        crash_frac=args.crash_frac,
        message_loss=args.message_loss,
        f=args.f,
        delta=args.delta,
        C=args.cap,
        seed=args.seed,
    )
    if args.plan is not None:
        _check_choice("plan", args.plan, SCENARIOS)
        kwargs["scenario"] = args.plan
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    doc = resilience_experiment(ResilienceConfig(**kwargs))
    out_dir = args.out or Path("results")
    path = write_document(out_dir / "resilience.json", doc, RESILIENCE_SHAPE)
    return render_resilience(doc) + f"\n\nwrote {path}"


def _run_churn(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.experiments.dynamics import (
        DYNAMICS_SHAPE,
        TOPOLOGIES,
        DynamicsConfig,
        dynamics_experiment,
        render_dynamics,
    )
    from repro.simulation.serialize import write_document

    cfg = (
        DynamicsConfig.smoke(seed=args.seed) if args.smoke
        else DynamicsConfig(f=args.f, delta=args.delta, C=args.cap, seed=args.seed)
    )
    overrides: dict = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.topologies is not None:
        names = tuple(x.strip() for x in args.topologies.split(",") if x.strip())
        for name in names:
            _check_choice("topology", name, tuple(sorted(TOPOLOGIES)))
        overrides["topologies"] = names
    for opt, field in (
        (args.churn_rates, "churn_rates"),
        (args.skews, "skews"),
    ):
        if opt is not None:
            try:
                overrides[field] = tuple(
                    float(x) for x in opt.split(",") if x.strip()
                )
            except ValueError:
                _usage_error(
                    f"--{field.replace('_', '-')} expects "
                    f"comma-separated numbers, got {opt!r}"
                )
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    doc = dynamics_experiment(cfg)
    out_dir = args.out or Path("results")
    path = write_document(out_dir / "dynamics.json", doc, DYNAMICS_SHAPE)
    return render_dynamics(doc) + f"\n\nwrote {path} (schema valid)"


def _run_serve(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.service import SERVICE_SHAPE, ServiceConfig, render_service, service_run
    from repro.simulation.serialize import write_document

    if args.record and args.replay:
        raise SystemExit("error: --record and --replay are mutually exclusive")

    cfg = ServiceConfig.smoke(seed=args.seed) if args.smoke else ServiceConfig(
        seed=args.seed
    )
    overrides: dict = {}
    if args.traffic is not None:
        from repro.service import TRAFFIC_PROFILES

        _check_choice("traffic profile", args.traffic, TRAFFIC_PROFILES)
        overrides["traffic"] = args.traffic
    if args.rate is not None:
        overrides["rate"] = args.rate
    if args.queue_cap is not None:
        overrides["queue_cap"] = args.queue_cap
    if args.n is not None:
        overrides["n"] = args.n
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    replay = None
    if args.replay:
        from repro.workload.trace import ArrivalTrace

        replay = ArrivalTrace.from_json(args.replay)

    telemetry = server = profiler = None
    if args.telemetry is not None:
        from repro.observability import (
            MetricsRegistry,
            Profiler,
            TelemetrySampler,
        )
        from repro.observability.export import TelemetryServer

        # one registry: the profiler's sections are scraped live
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        telemetry = TelemetrySampler(metrics=registry)
        server = TelemetryServer(telemetry, port=args.telemetry)
        server.start()
        # announce before the run so scrapers can attach while the
        # episode executes (the result text only prints at the end)
        print(f"telemetry: serving {server.url}", flush=True)

    try:
        run = service_run(cfg, chaos=args.chaos, replay=replay,
                          telemetry=telemetry, profiler=profiler)
        if server is not None and args.telemetry_hold > 0:
            # keep the endpoint (and the sampler's final window) up for
            # post-run scrapers — the CI smoke job's second scrape
            time.sleep(args.telemetry_hold)
    finally:
        if server is not None:
            server.stop()
    out_dir = args.out or Path("results")
    path = write_document(out_dir / "service.json", run.doc, SERVICE_SHAPE)
    lines = [render_service(run.doc), "", f"wrote {path} (schema valid)"]
    if telemetry is not None:
        lines.append(
            f"telemetry: {telemetry.snapshot()['samples']} samples "
            f"served at {server.url} (now stopped)"
        )
    if args.record:
        run.trace.to_json(args.record)
        lines.append(
            f"recorded {len(run.trace)} offered arrivals to {args.record}"
        )
    if args.replay:
        lines.append(f"replayed {len(replay)} arrivals from {args.replay}")
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    from repro.observability.top import run_top

    url = args.url or "http://127.0.0.1:9100/metrics"
    return run_top(
        url,
        interval=args.interval,
        frames=args.frames,
        once=args.once,
    )


#: subcommand name -> runner returning the text to print (``list``,
#: ``all`` and the interactive ``top`` are dispatched by :func:`main`)
_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "fig6": _run_fig6,
    **{f"fig{k}": partial(_run_figure, f"fig{k}") for k in (7, 8, 9, 10)},
    "table1": _run_table1,
    "theorem12": _run_theorem12,
    "theorem3": _run_theorem3,
    "lemma4": _run_lemma4,
    "lemma56": _run_lemma56,
    "scaling": _run_scaling,
    "async": _run_async,
    "baselines": _run_baselines,
    "locality": _run_locality,
    "sensitivity": _run_sensitivity,
    "trace": _run_trace,
    "profile": _run_profile,
    "bench": _run_bench,
    "chaos": _run_chaos,
    "churn": _run_churn,
    "serve": _run_serve,
    "report": _run_report,
    "spans": _run_spans,
}

_ALL = [
    "theorem12",
    "theorem3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
    "lemma4",
    "lemma56",
    "scaling",
    "async",
    "baselines",
    "locality",
    "sensitivity",
]


@contextmanager
def _batch_selection(backend: str | None, jobs: int | None):
    """Validate ``--backend``/``--jobs``; make them the process selection.

    Every batch resolves its backend from ``REPRO_BACKEND`` /
    ``REPRO_JOBS`` when not told otherwise, so installing the resolved
    pair there reaches every command that runs a batch without
    threading the flags through each experiment function.  The previous
    values come back on exit.  An unknown backend (reported with the
    known names) or a malformed ``REPRO_JOBS`` exits 2 instead of
    raising a traceback from inside a batch.
    """
    from repro.simulation.parallel import resolve_backend

    try:
        backend, jobs = resolve_backend(backend, jobs)
    except ValueError as exc:
        _usage_error(str(exc))
    saved = {key: os.environ.get(key) for key in ("REPRO_BACKEND", "REPRO_JOBS")}
    os.environ["REPRO_BACKEND"] = backend
    os.environ["REPRO_JOBS"] = str(jobs)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _check_numbers(args)
    with _batch_selection(args.backend, args.jobs):
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "top":
        # interactive: no timing header, exit code straight from the
        # dashboard loop
        return _run_top(args)
    if args.command == "list":
        print("available artifacts:", ", ".join(_ALL))
        print(
            "observability tools: trace, profile, report, spans "
            "(docs/OBSERVABILITY.md)"
        )
        print("performance tools: bench, report --compare (docs/PERFORMANCE.md)")
        print("resilience tools: chaos, report --faulted (docs/RESILIENCE.md)")
        print(
            "dynamics tools: churn [--smoke], report --dynamics "
            "(docs/DYNAMICS.md)"
        )
        print(
            "service mode: serve [--smoke --chaos], report --service "
            "(docs/SERVICE.md)"
        )
        print(
            "telemetry: serve --telemetry PORT, top [--once], "
            "trace --export chrome|ndjson (docs/OBSERVABILITY.md)"
        )
        return 0
    commands = _ALL if args.command == "all" else [args.command]
    for cmd in commands:
        seed = _DEFAULT_SEEDS.get(cmd, 0) if args.seed is None else args.seed
        t0 = time.perf_counter()
        out = _COMMANDS[cmd](argparse.Namespace(**{**vars(args), "seed": seed}))
        dt = time.perf_counter() - t0
        print(f"== {cmd} ({dt:.1f}s) " + "=" * 40)
        print(out)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
