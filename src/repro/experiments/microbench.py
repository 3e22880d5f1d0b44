"""Engine tick microbenchmarks: the ``repro bench`` harness.

Times raw engine ticks — not experiment drivers — across network sizes
and three workload profiles, and writes a machine-readable
``BENCH_engine.json`` so every PR leaves a perf trajectory behind
(schema below).

The harness times the
:class:`~repro.core.columnar.ColumnarEngine` pass pipeline (records
carry ``"engine": "columnar"``); the scalar oracle
:class:`~repro.core.engine.Engine` is bit-identical on every workload
(``benchmarks/test_bench_microbench.py`` checks it on the bench
actions).  Cross-revision comparisons read the perf trajectory in
``results/bench_history.ndjson``.  This module is the one home of
both document formats: it writes them (:func:`write_bench_json`,
:func:`append_bench_history`), reads them back (:func:`load_bench`,
:func:`load_bench_history`) and diffs two of them
(:func:`compare_bench`, the engine of ``repro report --compare``).

Profiles
--------
``quiet``
    Pre-balanced uniform state (every processor holds ``L`` own-class
    packets, ``l_old`` in equilibrium) under saturated alternating
    traffic: a whole-network consume tick followed by a whole-network
    generate tick, repeatedly.  The trigger band never fires and no
    debts exist, so this isolates the per-tick bookkeeping the columnar
    pipeline vectorizes — the regime it is designed for (rare
    balancing).  This is the headline profile.
``stationary``
    Sub-critical random traffic (``P(generate)=0.45``,
    ``P(consume)=0.55``) measured after a 200-tick warmup.  Loads
    hover near 2 and the tick is dominated by borrow/repay events and
    balancing ops; both engines pay the same pinned per-event RNG
    draws, so speedups here are modest and honest.
``growth``
    Generate-biased traffic (``P(generate)=0.55``) from a cold start:
    the load-growth phase of the paper's analysis, trigger-op heavy.

All profiles drive the engine through the public ``step`` API with
precomputed action arrays; workload and engine seeds are fixed, so a
given (profile, n) measurement replays the identical computation in
every run.

JSON schema (``repro.bench_engine.v1``)
---------------------------------------
::

    {
      "schema": "repro.bench_engine.v1",
      "git_rev": "<short rev or 'unknown'>",
      "backend": "native",            # batch backend that ran the grid
      "grid_elapsed_sec": ...,        # the grid's wall time
      "python": "3.11.7", "numpy": "1.26.2",
      "params": {"f": 1.3, "delta": 2, "C": 4,
                 "engine_seed": 7, "workload_seed": 123},
      "profile_policy": {"quiet_only_above": 4096},
      "runs": [
        {"n": 1024, "profile": "quiet", "engine": "columnar",
         "warmup": 0, "ticks": 200,
         "ticks_per_sec": ..., "total_ops": ..., "events": {...},
         "peak_rss_bytes": ...,          # process high-water, see note
         "sections": {"columnar.classify": {"count":..., "total_ns":...,
                                            "mean_ns":...}, ...}},
        ...
      ]
    }

``ticks_per_sec`` times an unprofiled engine, the one users run (the
columnar engine's event-dense ticks then take the compiled tick walk).
``sections`` come from a second, profiled pass over the same actions on
a fresh engine: a profiled engine walks its event-dense ticks through
the Python handlers, so its timings describe that walk, and the two
passes must agree on ``total_ops`` and every event counter.

Above ``profile_policy.quiet_only_above`` processors only the quiet
profile is measured: an event-dense tick's work grows with n, and the
profiled pass walks it in Python, so a single warmed-up stationary
tick at n = 10⁵ takes seconds and measures nothing the n = 4096 row
doesn't already.

``peak_rss_bytes`` is ``ru_maxrss`` — the high-water mark of the
process that ran the point.  On the default ``native`` backend every
point runs in this process, so the column is monotone over the
report's ascending-``n`` run order and the largest-``n`` figure bounds
every run; per-run deltas are not recoverable from it.  On a parallel
backend (``REPRO_BACKEND=multiprocessing`` or ``backend=``, see
``docs/BACKENDS.md``) each figure is its *worker's* high-water mark —
tighter per point, but not monotone.  Counters and final state are
backend-independent; only the wall-clock columns move.
"""

from __future__ import annotations

import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.columnar import ColumnarEngine
from repro.core.engine import EngineConfig
from repro.experiments.report import render_table
from repro.observability import Profiler, Span
from repro.params import LBParams

__all__ = [
    "PROFILES",
    "DEFAULT_NS",
    "QUIET_ONLY_ABOVE",
    "BENCH_SCHEMA",
    "BENCH_HISTORY_SCHEMA",
    "append_bench_history",
    "bench_report",
    "bench_timeline",
    "compare_bench",
    "history_record",
    "load_bench",
    "load_bench_history",
    "run_microbench",
    "write_bench_json",
]

PROFILES = ("quiet", "stationary", "growth")
DEFAULT_NS = (64, 256, 1024, 4096, 100_000, 1_000_000)
#: above this n, only the quiet profile is benchmarked (see module doc)
QUIET_ONLY_ABOVE = 4096
#: the ``BENCH_engine.json`` document (module docstring)
BENCH_SCHEMA = "repro.bench_engine.v1"
#: one-line-per-run NDJSON perf trajectory (``results/bench_history.ndjson``)
BENCH_HISTORY_SCHEMA = "repro.bench_history.v1"
_QUIET_LOAD = 40

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _tick_budget(n: int, profile: str) -> tuple[int, int]:
    """(warmup, measured ticks) keeping each run in the seconds range."""
    if profile == "quiet":
        # a short warmup keeps the one-time kernel compile/probe of
        # repro.core.rngadvance (and the first-tick horizon probe) out
        # of the timing — it dominates a short --ticks smoke run
        return 5, 200
    if profile == "stationary":
        return 200, max(30, 20480 // n)
    if profile == "growth":
        return 0, max(30, 10240 // n)
    raise ValueError(f"unknown profile {profile!r} (want one of {PROFILES})")


class _AlternatingActions:
    """Quiet-profile action stream without the (ticks, n) matrix.

    Indexable like the 2-D array it replaces, but holds just two cached
    rows (a full materialisation is ``8 · ticks · n`` bytes — 1.6 GB at
    n = 10⁶ × 200 ticks, which would dwarf the engine itself in the
    peak-RSS column this report documents).
    """

    def __init__(self, n: int, total: int) -> None:
        self._con = np.full(n, -1, dtype=np.int64)
        self._gen = np.ones(n, dtype=np.int64)
        self._total = total

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, t: int) -> np.ndarray:
        return self._con if t % 2 == 0 else self._gen


def _make_actions(profile: str, n: int, total: int, workload_seed: int):
    if profile == "quiet":
        # consume tick, generate tick, ...
        return _AlternatingActions(n, total)
    gen = 0.45 if profile == "stationary" else 0.55
    wr = np.random.default_rng(workload_seed)
    return (wr.random((total, n)) < gen).astype(np.int64) * 2 - 1


def _prepare_engine(engine: Any, profile: str, n: int) -> None:
    """Profile-specific initial state (shared by every engine)."""
    if profile != "quiet":
        return
    # pre-balanced uniform state: L own-class packets everywhere, the
    # trigger reference in equilibrium -> the +-1 oscillation stays
    # inside the factor-f band and no borrowing ever happens
    engine.d.diag[:] = _QUIET_LOAD
    engine.d.row_sums[:] = _QUIET_LOAD
    engine.l[:] = _QUIET_LOAD
    engine.l_old[:] = _QUIET_LOAD


def run_microbench(
    n: int,
    profile: str,
    *,
    params: LBParams | None = None,
    engine_seed: int = 7,
    workload_seed: int = 123,
    warmup: int | None = None,
    ticks: int | None = None,
    profile_sections: bool = False,
) -> dict[str, Any]:
    """Time ``ticks`` :class:`~repro.core.columnar.ColumnarEngine` steps
    for one (n, profile) point.

    Returns a plain-data record (see module docstring schema).  The
    timed pass is unprofiled; ``profile_sections`` adds the profiled
    replay that fills ``"sections"`` (module doc).
    """
    params = params or LBParams(f=1.3, delta=2, C=4)
    default_warmup, default_ticks = _tick_budget(n, profile)
    warmup = default_warmup if warmup is None else warmup
    ticks = default_ticks if ticks is None else ticks
    if ticks < 1 or warmup < 0:
        raise ValueError(
            f"need ticks >= 1 and warmup >= 0, got ticks={ticks}, "
            f"warmup={warmup}"
        )

    acts = _make_actions(profile, n, warmup + ticks, workload_seed)

    def timed_pass(profiler):
        eng = ColumnarEngine(
            EngineConfig(n=n, params=params), rng=engine_seed, profiler=profiler
        )
        _prepare_engine(eng, profile, n)
        for t in range(warmup):
            eng.step(acts[t])
        t0 = time.perf_counter()
        for t in range(warmup, warmup + ticks):
            eng.step(acts[t])
        return eng, time.perf_counter() - t0

    eng, elapsed = timed_pass(None)
    counters = eng.counters.as_dict()
    record: dict[str, Any] = {
        "n": n,
        "profile": profile,
        "engine": "columnar",
        "warmup": warmup,
        "ticks": ticks,
        "ticks_per_sec": round(ticks / elapsed, 2),
        "elapsed_sec": round(elapsed, 4),
        "total_ops": int(eng.total_ops),
        "events": {k: v for k, v in counters.items() if v},
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if profile_sections:
        # a profiled engine walks its residual ticks in Python, so the
        # sections come from a second pass, never from the timed one
        del eng  # one engine at a time: n = 10⁶ points are large
        profiler = Profiler()
        profiled, _ = timed_pass(profiler)
        if (profiled.total_ops, profiled.counters.as_dict()) != (
            record["total_ops"],
            counters,
        ):
            raise RuntimeError(
                f"the profiled pass of ({n}, {profile!r}) "
                "diverged from the timed pass"
            )
        record["sections"] = {
            name: {
                "count": calls,
                "total_ns": round(total_ms * 1e6),
                "mean_ns": round(mean_us * 1e3, 1),
            }
            for name, calls, total_ms, _, mean_us, _, _ in sorted(
                profiler.summary()
            )
        }
    return record


def peak_rss_bytes() -> int:
    """Process RSS high-water mark (``ru_maxrss``; KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * (1 if sys.platform == "darwin" else 1024)


def git_rev(repo_root: Path | None = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=repo_root or _REPO_ROOT,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _bench_point(task: tuple) -> dict[str, Any]:
    """One (n, profile) measurement (module-level so it pickles)."""
    n, profile, params, engine_seed, workload_seed, ticks = task
    return run_microbench(
        n,
        profile,
        params=params,
        engine_seed=engine_seed,
        workload_seed=workload_seed,
        ticks=ticks,
        profile_sections=True,
    )


def bench_report(
    ns: tuple[int, ...] = DEFAULT_NS,
    *,
    profiles: tuple[str, ...] = PROFILES,
    params: LBParams | None = None,
    ticks: int | None = None,
    engine_seed: int = 7,
    workload_seed: int = 123,
    backend: str | None = None,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Full benchmark document (see module docstring for the schema).

    The measurement grid runs through the selected batch backend
    (``backend=``/``jobs=``, defaulting to ``REPRO_BACKEND`` /
    ``REPRO_JOBS``) in ascending-``n`` order — on the default
    ``native`` backend the RSS high-water mark column therefore reads
    as a per-size upper bound; the backend that actually executed the
    grid is recorded under ``"backend"``.  Above ``QUIET_ONLY_ABOVE``
    processors only the quiet profile is measured (see module doc).
    ``ticks`` overrides the per-profile tick budget (CI smoke runs).
    """
    from repro.simulation.parallel import get_client

    params = params or LBParams(f=1.3, delta=2, C=4)
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "params": {
            "f": params.f,
            "delta": params.delta,
            "C": params.C,
            "engine_seed": engine_seed,
            "workload_seed": workload_seed,
        },
        "quiet_load": _QUIET_LOAD,
        "profile_policy": {"quiet_only_above": QUIET_ONLY_ABOVE},
        "runs": [],
    }

    tasks = [
        (n, profile, params, engine_seed, workload_seed, ticks)
        for n in sorted(ns)
        for profile in profiles
        if profile == "quiet" or n <= QUIET_ONLY_ABOVE
    ]
    with get_client(backend, jobs=jobs) as client:
        t0 = time.perf_counter()
        # chunksize=1: one (n, profile) point per dispatch, so a
        # parallel backend interleaves sizes instead of striping them
        doc["runs"].extend(
            client.map_ordered(_bench_point, tasks, chunksize=1)
        )
        # the grid's wall time: less than the summed run times when a
        # parallel backend overlaps the runs
        doc["grid_elapsed_sec"] = round(time.perf_counter() - t0, 4)
        doc["backend"] = client.used_backend
    return doc


def bench_timeline(doc: dict[str, Any]) -> list[Span]:
    """The span timeline of a bench document (``repro bench --trace-out``).

    A root ``bench:grid`` span runs from 0 to the grid's wall time,
    ``grid_elapsed_sec``; run ``i`` of ``doc["runs"]`` is one
    ``bench:{profile}@{n}`` span on lane ``i`` from 0 to its own
    ``elapsed_sec``.  The runs are independent, so the
    timeline is built here from their records rather than traced in the
    workers.
    """
    grid = Span(
        span=0, op="bench:grid", proc=0, start=0.0,
        end=float(doc["grid_elapsed_sec"]), status="completed",
    )
    return [grid] + [
        Span(
            span=i + 1, op=f"bench:{r['profile']}@{r['n']}", proc=i,
            start=0.0, end=float(r["elapsed_sec"]), status="completed",
        )
        for i, r in enumerate(doc["runs"])
    ]


def write_bench_json(path: Path, doc: dict[str, Any]) -> None:
    """Serialise a bench document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")



def history_record(
    doc: dict[str, Any], *, date: str | None = None
) -> dict[str, Any]:
    """Condense a bench document into one perf-trajectory record.

    Keeps exactly what a regression hunt needs — rev, date, backend,
    and per-point ``ticks_per_sec`` / ``total_ops`` / ``peak_rss_bytes``
    — so the history file stays grep-able and one line per run.
    """
    import datetime

    if date is None:
        date = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
    return {
        "schema": BENCH_HISTORY_SCHEMA,
        "git_rev": doc.get("git_rev", "unknown"),
        "date": date,
        "backend": doc.get("backend", "native"),
        "runs": [
            {
                "n": r["n"],
                "profile": r["profile"],
                "engine": r["engine"],
                "ticks_per_sec": r["ticks_per_sec"],
                "total_ops": r["total_ops"],
                "peak_rss_bytes": r["peak_rss_bytes"],
            }
            for r in doc.get("runs", [])
        ],
    }


def append_bench_history(
    path: Path, doc: dict[str, Any], *, date: str | None = None
) -> dict[str, Any]:
    """Append one :func:`history_record` line to an NDJSON history file.

    Creates the file (and parents) on first use; returns the record.
    ``repro report --compare history.ndjson`` reads the *last* line
    back as a comparison baseline (see :func:`load_bench_history`).
    """
    record = history_record(doc, date=date)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return record


def load_bench(path: str | Path) -> dict:
    """Load one ``BENCH_engine.json`` document, checking its schema tag."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    return doc


def load_bench_history(path: str | Path) -> dict:
    """Load the *last* record of a ``bench_history.ndjson`` trajectory
    as a :func:`compare_bench`-shaped baseline document.

    ``repro bench`` appends one condensed line per run (schema
    ``repro.bench_history.v1``, see :func:`append_bench_history`); the
    most recent line is the natural comparison baseline for
    ``repro report --compare history.ndjson``.  History rows carry no
    ``events`` counters, so the compare gates on ``total_ops`` and
    throughput only.
    """
    lines = [
        line
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{path}: empty bench history")
    record = json.loads(lines[-1])
    if record.get("schema") != BENCH_HISTORY_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_HISTORY_SCHEMA!r}, "
            f"got {record.get('schema')!r}"
        )
    return {
        "schema": BENCH_SCHEMA,
        "git_rev": record.get("git_rev", "unknown"),
        "backend": record.get("backend", "native"),
        "runs": record.get("runs", []),
    }


def compare_bench(
    a: Mapping, b: Mapping, *, tolerance: float = 0.75
) -> tuple[str, bool]:
    """Diff two bench documents; return ``(report text, ok)``.

    ``a`` is the reference, ``b`` the candidate.  Per ``(n, profile)``
    run present in both:

    * ``total_ops`` and every ``events`` counter must match exactly —
      they are pure functions of the baked-in seeds, so any difference
      means the engine's *behaviour* changed (drift);
    * ``ticks_per_sec`` flags drift only when the candidate drops below
      ``tolerance`` times the reference (throughput is hardware-bound;
      pass a small tolerance to effectively gate on counters only).

    Runs present on one side only are reported but do not flag drift —
    the two documents may have been produced with different ``--sizes``.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    a_runs = {(r["n"], r["profile"]): r for r in a.get("runs", ())}
    b_runs = {(r["n"], r["profile"]): r for r in b.get("runs", ())}
    shared = sorted(set(a_runs) & set(b_runs))
    lines = [
        f"bench compare: reference rev {a.get('git_rev', '?')} "
        f"(backend {a.get('backend', 'native')}) vs "
        f"candidate rev {b.get('git_rev', '?')} "
        f"(backend {b.get('backend', 'native')}) "
        f"({len(shared)} shared runs, throughput tolerance {tolerance:g})",
    ]
    only_a = sorted(set(a_runs) - set(b_runs))
    only_b = sorted(set(b_runs) - set(a_runs))
    if only_a:
        lines.append(f"  only in reference (ignored): {only_a}")
    if only_b:
        lines.append(f"  only in candidate (ignored): {only_b}")
    drift: list[str] = []
    rows = []
    for key in shared:
        ra, rb = a_runs[key], b_runs[key]
        n, profile = key
        problems = []
        if ra["total_ops"] != rb["total_ops"]:
            problems.append(
                f"total_ops {ra['total_ops']} -> {rb['total_ops']}"
            )
        # condensed history rows carry no events section at all; only
        # diff the counters when both sides actually recorded them
        ev_a, ev_b = ra.get("events"), rb.get("events")
        if ev_a is not None and ev_b is not None:
            for name in sorted(set(ev_a) | set(ev_b)):
                va, vb = ev_a.get(name, 0), ev_b.get(name, 0)
                if va != vb:
                    problems.append(f"events.{name} {va} -> {vb}")
        tps_a, tps_b = ra["ticks_per_sec"], rb["ticks_per_sec"]
        ratio = tps_b / tps_a if tps_a else float("inf")
        if ratio < tolerance:
            problems.append(
                f"throughput {tps_a:g} -> {tps_b:g} ticks/s "
                f"(x{ratio:.2f} < {tolerance:g})"
            )
        rows.append(
            [
                n, profile, f"{tps_a:g}", f"{tps_b:g}", f"x{ratio:.2f}",
                "DRIFT" if problems else "ok",
            ]
        )
        for p in problems:
            drift.append(f"n={n} {profile}: {p}")
    lines.append("")
    lines.append(
        render_table(
            ["n", "profile", "ref ticks/s", "cand ticks/s", "ratio", "verdict"],
            rows,
        )
    )
    if drift:
        lines.append("")
        lines.append(f"DRIFT ({len(drift)} finding(s)):")
        lines.extend(f"  - {d}" for d in drift)
    else:
        lines.append("")
        lines.append("no drift: counters identical, throughput within tolerance")
    return "\n".join(lines), not drift


def render_report(doc: dict[str, Any]) -> str:
    """ASCII summary of a bench document."""
    rows = [
        [
            r["n"],
            r["profile"],
            r["engine"],
            r["ticks"],
            r["ticks_per_sec"],
            r["total_ops"],
            f"{r['peak_rss_bytes'] / 2**20:.0f}",
        ]
        for r in doc["runs"]
    ]
    table = render_table(
        ["n", "profile", "engine", "ticks", "ticks/s", "ops", "rss MiB"], rows
    )
    head = (
        f"engine microbench  rev={doc['git_rev']}  "
        f"backend={doc.get('backend', 'native')}  "
        f"f={doc['params']['f']} delta={doc['params']['delta']} "
        f"C={doc['params']['C']}"
    )
    return head + "\n\n" + table
