"""The repo benchmark: one command, three workloads, digest-checked output.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quiet-100k --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``; why each was chosen is in
``BENCHMARK.json`` and ``perfbench/README.md``):

* ``quiet-100k`` — ``ColumnarEngine`` at n = 10⁵, pre-balanced,
  alternating consume/generate ticks: classify/advance/apply passes and
  the ``core.rngadvance`` C kernels, no balancing operations;
* ``stationary-1024`` — ``ColumnarEngine`` at n = 1024 with
  P(generate) = 0.45 after a 200-tick warm-up: the scalar residual
  (ledger, deal, borrowing, selection, triggers);
* ``serve-diurnal`` — ``service_run`` at n = 256 under diurnal traffic
  whose peak exceeds the admission bucket: the async engine, event
  queue, admission, queues, SLO tracking and the degradation ladder.

Every workload runs in fresh child processes.  ``--trace 0`` runs three
identical children, each doing a third of the work, one after another,
and reports the median set-up time, the median block throughput and the
latency percentiles over all their operations: on a shared host, speed
drifts by tens of percent within a minute, and three samples spread over
the run average that out better than one long one.  ``--trace 1`` runs
one child untraced and one with every layer's entry point wrapped in
spans, and reports the per-layer metrics and the tracing overhead.

Correctness: each run's final state is hashed (loads, ledgers, RNG
state, counters; the whole service document on serve) and compared with
the digest recorded in ``expected.json`` for that seed.  For a seed
without a recording the run also replays a short recorded prefix of the
default seed (the *canary*).  A mismatch or a broken invariant counts
every operation of the run as failed.  The kernel tier must be the
recorded one, else the benchmark stops without a result.

``--record`` rewrites the recorded digests (default and held-out seed)
from the current code; use it only for a deliberate behaviour change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from workloads import PARTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("quiet-100k", "stationary-1024", "serve-diurnal")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009
#: wall-clock budget of one invocation (the contract allows 180 s)
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "eventqueue.events":
        return "count"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_throughput"):
        return "1/s"
    if name == "ops_per_tick":
        return "ops/tick"
    if name == "rngadvance.tier":
        return "level"
    return "ratio"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached once (by --prime) in the build directory, so
    # set-up times never include compiling the source
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    # tempfile.gettempdir() -> the kernel .so cache stays in the checkout
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


class Runner:
    """Spawns the child processes of one invocation within its budget."""

    def __init__(self, budget: float | None = BUDGET_S) -> None:
        self.deadline = None if budget is None else time.monotonic() + budget
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = _env()

    def child(self, arg: str) -> tuple[float, dict]:
        """Run ``workloads.py arg``; return (spawn time, its JSON result)."""
        t0 = time.monotonic()
        timeout = None if self.deadline is None else self.deadline - t0
        if timeout is not None and timeout <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), arg],
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {arg[:80]} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {arg[:80]} exited with {proc.returncode}")
        return t0, json.loads(lines[-1])

    def spec(self, spec: dict) -> tuple[float, dict]:
        return self.child(json.dumps(spec))


def _load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def _check_tier(tier: str, expected: dict) -> None:
    want = expected["kernel_tier"]
    if tier != want:
        raise BenchError(
            f"core.rngadvance kernel tier is {tier!r} but the benchmark was "
            f"recorded on {want!r}; refusing to measure a different program"
        )


def _verify(runner: Runner, spec: dict, results: list[dict], expected: dict) -> tuple[str | None, str]:
    """Return (problem or None, how the output was checked)."""
    for r in results:
        if r["problem"]:
            return r["problem"], "invariants"
    digest = results[0]["digest"]
    if any(r["digest"] != digest for r in results):
        return "child runs of the same inputs ended in different states", "digest"
    table = expected["digests"].get(spec["workload"], {})
    want = table.get(results[0]["shape"], {}).get(str(spec["seed"]))
    if want is not None:
        if digest != want:
            return f"digest {digest} != recorded {want}", "recorded digest"
        return None, "recorded digest"
    canary = {**spec, "seed": DEFAULT_SEED, "size": "toy" if spec["size"] == "toy" else "canary"}
    _, c = runner.spec(canary)
    _check_tier(c["tier"], expected)
    want = table.get(c["shape"], {}).get(str(DEFAULT_SEED))
    if want is None:
        raise BenchError(f"no recorded canary digest for {spec['workload']} {c['shape']}")
    if c["problem"] or c["digest"] != want:
        return f"canary digest {c['digest']} != recorded {want}", "canary"
    return None, "invariants + canary digest"


def measure(args: argparse.Namespace) -> dict:
    runner = Runner()
    expected = _load_expected()
    _, primed = runner.child("--prime")
    _check_tier(primed["tier"], expected)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "size": "toy" if args.toy else "full",
        "seconds": args.seconds,
        "trace": False,
        "perturb": args.perturb,
    }
    if args.trace:
        _, base = runner.spec(spec)
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.npz"
        _, traced = runner.spec({**spec, "trace": True, "spans_out": str(spans)})
        results = [base, traced]
        metrics = dict(traced["layers"])
        untraced_tp, traced_tp = (statistics.median(r["rates"]) for r in results)
        metrics["trace_overhead"] = traced_tp / untraced_tp
        metrics["trace_overhead.traced_throughput"] = traced_tp
        metrics["trace_overhead.untraced_throughput"] = untraced_tp
        units = {k: layer_unit(k) for k in metrics}
    else:
        results = []
        setups = []
        for _ in range(PARTS):
            t0, r = runner.spec(spec)
            if r["ready"] is None:
                raise BenchError(f"{args.workload} failed during set-up")
            setups.append(r["ready"] - t0)
            results.append(r)
        op_ms = np.concatenate([r["op_ns"] for r in results]) / 1e6
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput": statistics.median(x for r in results for x in r["rates"]),
            "op_p50_ms": float(np.percentile(op_ms, 50)),
            "op_p99_ms": float(np.percentile(op_ms, 99)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        units = END_TO_END_UNITS
    for r in results:
        _check_tier(r["tier"], expected)
    problem, how = _verify(runner, spec, results, expected)
    main = results[-1]
    attempted = sum(r["ops"] for r in results)
    failed = attempted if problem else sum(r["failed"] for r in results)
    status = f"FAILED ({problem})" if problem else "ok"
    print(
        f"{args.workload} seed={args.seed} {len(results)} x ({main['shape']}): "
        f"tier {main['tier']}, {attempted} ops, {failed} failed, output {status} [{how}]"
    )
    return {
        "correct": problem is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def record(args: argparse.Namespace) -> None:
    """Re-record the digests of the default and held-out seeds."""
    runner = Runner(budget=None)
    expected = _load_expected()
    _, primed = runner.child("--prime")
    expected["kernel_tier"] = primed["tier"]
    digests: dict = {}
    for workload in WORKLOADS:
        jobs = [("full", DEFAULT_SEED), ("full", HELD_OUT_SEED), ("canary", DEFAULT_SEED),
                ("toy", DEFAULT_SEED), ("toy", HELD_OUT_SEED)]
        for size, seed in jobs:
            spec = {"workload": workload, "seed": seed, "size": size,
                    "seconds": args.seconds, "trace": False}
            _, r = runner.spec(spec)
            if r["problem"] or r["failed"]:
                raise BenchError(f"{workload} {size} seed {seed}: {r['problem']}")
            digests.setdefault(workload, {}).setdefault(r["shape"], {})[str(seed)] = r["digest"]
            print(f"{workload} {size} seed={seed} {r['shape']}: {r['digest']}")
    expected["digests"] = digests
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--perturb", action="store_true",
                    help="change one final load before hashing (self-test)")
    ap.add_argument("--record", action="store_true",
                    help="re-record the expected digests from the current code")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record(args)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
