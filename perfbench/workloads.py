"""The benchmark's workloads; each run happens in a fresh child process.

``run.py`` spawns this file once per child run and reads the JSON line
it prints last::

    python3 perfbench/workloads.py --prime
    python3 perfbench/workloads.py '<spec as JSON>'

``--prime`` compiles the ``repro.core.rngadvance`` kernel into the build
cache, imports every module the workloads use (so later set-ups load
cached bytecode) and reports the kernel tier.  A spec runs one workload:

* ``size``: ``"full"`` (a third of ``seconds`` worth of work: ``run.py``
  runs three such children), ``"canary"`` (a short prefix whose digest
  is recorded for the default seed) or ``"toy"``;
* ``trace``: wrap the layers' entry points in spans (see ``layers.py``);
* ``perturb``: change one final load before the digest, to prove that
  the digest check notices.

The load comes from this single process, closed-loop: the next
operation starts when the previous one returns.  An operation is one
``step()`` on the sync workloads and one ``snapshot_dt`` interval of
simulated service on ``serve-diurnal``.

Operation latency is the process CPU time the operation took: on a
shared host, wall time per operation mostly measures when other tenants
preempt this process, which moved p99 by a third between runs of the
same code.  Throughput stays wall-clock (operations per host second).
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

#: blocks the timed phase is cut into; throughput is their median
BLOCKS = 10
TIERS = ("python", "next32", "pcg64")

QUIET_LOAD = 40

# n, warm-up ops, and timed ops per child: a fixed count for canary/toy,
# and for "full" a third of ``ops_per_s * seconds`` (about ``seconds`` of
# wall time over three children on the reference 2-core host; fixed work
# keeps the output digest reproducible)
SIZES = {
    "quiet-100k": {
        "full": {"n": 100_000, "warmup": 10, "ops_per_s": 700},
        "canary": {"n": 100_000, "warmup": 10, "ops": 400},
        "toy": {"n": 2_000, "warmup": 4, "ops": 120},
    },
    "stationary-1024": {
        "full": {"n": 1024, "warmup": 200, "ops_per_s": 70},
        "canary": {"n": 1024, "warmup": 50, "ops": 50},
        "toy": {"n": 64, "warmup": 20, "ops": 100},
    },
    # serve: ops are snapshot intervals; the horizon is whole periods
    "serve-diurnal": {
        "full": {"n": 256, "warmup": 1, "ops_per_s": 100},
        "canary": {"n": 256, "warmup": 1, "periods": 1},
        "toy": {"n": 32, "warmup": 1, "periods": 1},
    },
}
MIN_OPS = 1000  # over the three children, so that ten samples lie beyond p99
PARTS = 3  # children per measured run (run.py pools their operations)

SERVE_PERIOD = 40.0
SERVE_DT = 0.5


def _shape(workload: str, size: str, seconds: float) -> dict:
    s = dict(SIZES[workload][size])
    if workload == "serve-diurnal":
        if "periods" not in s:
            per_period = SERVE_PERIOD / SERVE_DT
            total = max(MIN_OPS + PARTS, s.pop("ops_per_s") * seconds)
            s["periods"] = math.ceil(total / per_period / PARTS)
        s["ops"] = int(s["periods"] * SERVE_PERIOD / SERVE_DT) - s["warmup"]
    elif "ops" not in s:
        s["ops"] = math.ceil(max(MIN_OPS, s.pop("ops_per_s") * seconds) / PARTS)
    return s


def shape_key(shape: dict) -> str:
    return ",".join(f"{k}={shape[k]}" for k in sorted(shape))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype="<i8").tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True, default=str).encode())
    return h.hexdigest()[:32]


# -- sync workloads (ColumnarEngine) ---------------------------------------


class _SyncWorkload:
    """Closed-loop ticks of the columnar engine on pre-generated actions."""

    def __init__(self, seed: int, shape: dict) -> None:
        from repro.core.columnar import ColumnarEngine
        from repro.core.engine import EngineConfig
        from repro.params import LBParams

        self.n = shape["n"]
        self.warmup = shape["warmup"]
        self.ops = shape["ops"]
        self.make_actions(seed)
        self.eng = ColumnarEngine(
            EngineConfig(n=self.n, params=LBParams(f=1.3, delta=2, C=4)), rng=seed
        )
        self.prepare()
        for t in range(self.warmup):
            self.eng.step(self.actions(t))
        # counters at the start of the timed phase, for per-layer ratios
        self.ops_before = self.eng.total_ops
        self.fails_before = self.eng.counters.borrow_fail

    def make_actions(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def actions(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def drive(self, log=None):
        """Run the timed ops; return (per-op CPU ns, wall-clock block marks, failed)."""
        step = self.eng.step
        actions = self.actions
        durs = np.zeros(self.ops, dtype=np.int64)
        marks = []
        block = max(1, self.ops // BLOCKS)
        pc = time.perf_counter_ns
        cpu = time.process_time_ns
        failed = 0
        if log is not None:
            from layers import STEP_SPAN

            nid = log.intern(STEP_SPAN)
            enter, leave = log.enter, log.exit
        for k in range(self.ops):
            if k % block == 0:
                marks.append((k, pc(), k))
            a = actions(self.warmup + k)
            t0 = cpu()
            try:
                if log is None:
                    step(a)
                else:
                    enter(nid)
                    try:
                        step(a)
                    finally:
                        leave()
            except Exception as exc:  # an operation that raises has failed
                failed += 1
                print(f"op {k} failed: {exc!r}", file=sys.stderr)
            durs[k] = cpu() - t0
        marks.append((self.ops, pc(), self.ops))
        return durs, marks, failed

    def check(self) -> str | None:
        try:
            self.eng.assert_invariants()
        except AssertionError as exc:
            return f"invariant violated: {exc}"
        return None

    def perturb(self) -> None:
        self.eng.l[0] += 1

    def digest(self) -> str:
        e = self.eng
        return _sha(
            e.l, e.l_old, e.local_time,
            *e.d.to_csr(), *e.b.to_csr(),
            {
                "rng": e.rng.bit_generator.state,
                "counters": e.counters.as_dict(),
                "total_ops": e.total_ops,
                "packets_migrated": e.packets_migrated,
                "total_generated": e.total_generated,
                "total_consumed": e.total_consumed,
                "global_time": e.global_time,
            },
        )

    def tier(self) -> str:
        from repro.core.rngadvance import PermutationSkipper

        return PermutationSkipper(self.eng.rng).tier

    def layer_extras(self, log) -> dict:
        calls, _, _ = log.stats("borrowing.eligible")
        return {
            "borrowing.fail_ratio": (
                (self.eng.counters.borrow_fail - self.fails_before) / calls if calls else 0.0
            ),
            "ops_per_tick": (self.eng.total_ops - self.ops_before) / self.ops,
        }


class QuietWorkload(_SyncWorkload):
    """n = 10⁵, pre-balanced, alternating whole-network consume/generate."""

    def make_actions(self, seed: int) -> None:
        self._con = np.full(self.n, -1, dtype=np.int64)
        self._gen = np.ones(self.n, dtype=np.int64)

    def prepare(self) -> None:
        e = self.eng
        e.d.diag[:] = QUIET_LOAD
        e.d.row_sums[:] = QUIET_LOAD
        e.l[:] = QUIET_LOAD
        e.l_old[:] = QUIET_LOAD
        # as if every processor had generated its packets: keeps the
        # engine's conservation law (sum l == generated - consumed)
        e.total_generated = QUIET_LOAD * self.n
        e.invalidate_horizon()

    def actions(self, t: int) -> np.ndarray:
        return self._con if t % 2 == 0 else self._gen


class StationaryWorkload(_SyncWorkload):
    """n = 1024, P(generate) = 0.45 per processor per tick, after warm-up."""

    def make_actions(self, seed: int) -> None:
        rng = np.random.default_rng((seed, 0x57A7))
        draws = rng.random((self.warmup + self.ops, self.n))
        self._acts = np.where(draws < 0.45, 1, -1).astype(np.int64)

    def actions(self, t: int) -> np.ndarray:
        return self._acts[t]


# -- serve workload (service_run) ------------------------------------------


class _IntervalClock:
    """Read-only telemetry probe: stamps each snapshot boundary."""

    def __init__(self, log=None) -> None:
        self.log = log
        self.stamps: list[int] = []
        self.cpu: list[int] = []
        self.admitted: list[int] = []
        self.engine = None

    def bind_service(self, engine) -> None:
        self.engine = engine

    def sample(self, t: float, loads) -> None:
        self.stamps.append(time.perf_counter_ns())
        self.cpu.append(time.process_time_ns())
        self.admitted.append(self.engine.admission.admitted)
        if len(self.stamps) == 1:
            eng = self.engine
            # counters at the start of the timed phase, for per-layer ratios
            self.before = (len(eng.queue), eng.total_ops, eng.admission.offered,
                           eng.admission.admitted)
            if self.log is not None:
                self.log.start_timed()


class ServeWorkload:
    """``service_run``: n = 256 under diurnal traffic over whole periods.

    Set-up covers traffic generation, engine construction and the first
    snapshot interval (which also schedules every processor's first
    action); the remaining intervals are the timed operations.
    """

    def __init__(self, seed: int, shape: dict, log=None) -> None:
        from repro.service.engine import ServiceConfig

        n = shape["n"]
        scale = n / 256
        self.cfg = ServiceConfig(
            n=n,
            horizon=shape["periods"] * SERVE_PERIOD,
            seed=seed,
            snapshot_dt=SERVE_DT,
            traffic="diurnal",
            period=SERVE_PERIOD,
            rate=110.0 * scale,
            admission_rate=140.0 * scale,
            admission_burst=420.0 * scale,
        )
        self.ops = shape["ops"]
        self.clock = _IntervalClock(log)
        self.log = log
        self.run = None
        self.error = None

    def start(self) -> int | None:
        """Run set-up and the whole episode; return the setup-end stamp."""
        from repro.service.engine import service_run

        profiler = None
        if self.log is not None:
            from layers import SectionProfiler

            profiler = SectionProfiler(self.log)
        try:
            self.run = service_run(self.cfg, telemetry=self.clock, profiler=profiler)
        except Exception as exc:  # the remaining intervals have failed
            self.error = repr(exc)
            print(f"service run failed: {exc!r}", file=sys.stderr)
        return self.clock.stamps[0] if self.clock.stamps else None

    def timings(self):
        if len(self.clock.stamps) < 2:
            return np.zeros(0, dtype=np.int64), [], self.ops
        stamps = np.asarray(self.clock.stamps, dtype=np.int64)
        durs = np.diff(np.asarray(self.clock.cpu, dtype=np.int64))
        done = len(durs)
        block = max(1, self.ops // BLOCKS)
        marks = [
            (k, int(stamps[k]), self.clock.admitted[k] - self.clock.admitted[0])
            for k in range(0, done, block)
        ]
        marks.append((done, int(stamps[done]), self.clock.admitted[done] - self.clock.admitted[0]))
        return durs, marks, self.ops - done

    def check(self) -> str | None:
        if self.run is None:
            return self.error or "service run did not finish"
        eng = self.run.engine
        adm = eng.admission
        if not np.array_equal(eng.queues.depths(), eng.l):
            return "queue depths differ from the load vector"
        if adm.offered != adm.admitted + adm.shed_total():
            return "offered != admitted + shed"
        if eng.queues.completed > adm.admitted:
            return "more tasks completed than admitted"
        return None

    def perturb(self) -> None:
        self.run.result.loads[-1][0] += 1

    def digest(self) -> str:
        r = self.run
        return _sha(r.result.loads, {"rng": r.engine.rng.bit_generator.state, "doc": r.doc})

    def tier(self) -> str:
        from repro.core.rngadvance import PermutationSkipper

        return PermutationSkipper(np.random.default_rng(0)).tier

    def layer_extras(self, log) -> dict:
        eng = self.run.engine
        queued, ops, offered, admitted = self.clock.before
        pushes, _, _ = log.stats("eventqueue.push")
        selects, _, _ = log.stats("selection.select")
        offered = eng.admission.offered - offered
        return {
            "eventqueue.events": pushes + queued - len(eng.queue),
            "admission.admit_ratio": (
                (eng.admission.admitted - admitted) / offered if offered else 0.0
            ),
            "async.op_ratio": (eng.total_ops - ops) / selects if selects else 0.0,
        }


SYNC = {"quiet-100k": QuietWorkload, "stationary-1024": StationaryWorkload}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(log, extras: dict, tier: str) -> dict:
    """Every per-layer metric from the span log (zero where a layer is unused)."""
    from layers import PROFILER_SECTIONS, SETUP_SPANS, STEP_SPAN, TARGETS

    out: dict[str, float] = {}
    for name in [t[0] for t in TARGETS] + list(PROFILER_SECTIONS) + [STEP_SPAN]:
        calls, total, _ = log.stats(name, setup=name in SETUP_SPANS)
        if name == "columnar.init":
            out["columnar.init_s"] = total
            continue
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
    for name in (STEP_SPAN, "columnar.residual", "async.run"):
        out[f"{name}.self_s"] = log.stats(name)[2]
    out["rngadvance.tier"] = TIERS.index(tier)
    for key in ("borrowing.fail_ratio", "ops_per_tick", "eventqueue.events",
                "admission.admit_ratio", "async.op_ratio"):
        out[key] = extras.get(key, 0)
    return out


# -- child entry ---------------------------------------------------------------


def _block_rates(marks: list) -> list[float]:
    """Work per wall-clock second of each block of the timed phase."""
    return [
        (w1 - w0) / ((t1 - t0) / 1e9)
        for (k0, t0, w0), (k1, t1, w1) in zip(marks, marks[1:])
        if k1 > k0
    ]


def run_spec(spec: dict) -> dict:
    workload = spec["workload"]
    shape = _shape(workload, spec["size"], spec["seconds"])
    log = None
    if spec.get("trace"):
        import layers

        log = layers.SpanLog()
        layers.install(log)
    out = {"shape": shape_key(shape), "ops": shape["ops"]}

    if workload in SYNC:
        wl = SYNC[workload](spec["seed"], shape)
        out["ready"] = time.monotonic()
        if log is not None:
            log.start_timed()
        durs, marks, failed = wl.drive(log)
    else:
        wl = ServeWorkload(spec["seed"], shape, log=log)
        ready_ns = wl.start()
        # the first snapshot ends set-up: map its perf-counter stamp to
        # the monotonic clock the parent started from
        out["ready"] = (
            time.monotonic() - (time.perf_counter_ns() - ready_ns) / 1e9
            if ready_ns is not None
            else None
        )
        durs, marks, failed = wl.timings()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["op_ns"] = durs.tolist()
    out["rates"] = _block_rates(marks)
    out["failed"] = failed
    out["problem"] = wl.check()
    if spec.get("perturb") and out["problem"] is None:
        wl.perturb()
    out["digest"] = wl.digest() if out["problem"] is None else None
    out["tier"] = wl.tier()
    if log is not None:
        out["layers"] = layer_metrics(log, wl.layer_extras(log), out["tier"])
        if spec.get("spans_out"):
            log.write(Path(spec["spans_out"]))
    return out


def prime() -> dict:
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    import repro.core.columnar  # noqa: F401
    import repro.service.engine  # noqa: F401
    from repro.core.rngadvance import PermutationSkipper, kernel_available

    kernel_available()
    return {"tier": PermutationSkipper(np.random.default_rng(0)).tier}


def main(argv: list[str]) -> None:
    if argv == ["--prime"]:
        result = prime()
    elif len(argv) == 1:
        result = run_spec(json.loads(argv[0]))
    else:
        raise SystemExit("usage: workloads.py --prime | workloads.py '<spec json>'")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
