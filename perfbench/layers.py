"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public entry point of each layer — a module
function or a class method — in a span recorder, from the benchmark's
own code; nothing inside ``src/`` changes.  Spans nest through a stack,
so every span knows its parent and a layer's *self* time is its
duration minus the time its direct child spans cover.  Spans stay in
memory (compact arrays) and are written out once, when the run ends.

The untraced runs never import this module's patching: the program they
time is the unmodified one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (span name, module, attribute path) — one row per traced entry point.
# Functions imported by name elsewhere are rebound in every ``repro``
# module that holds them, so calls through either name are traced.
TARGETS = (
    ("columnar.init", "repro.core.columnar", "ColumnarEngine.__init__"),
    ("columnar.classify", "repro.core.columnar", "ClassifyPass.run"),
    ("columnar.fused_quiet", "repro.core.columnar", "FusedQuietPass.run"),
    ("columnar.residual", "repro.core.columnar", "ResidualPass.run"),
    ("rngadvance.skip", "repro.core.rngadvance", "PermutationSkipper.skip"),
    ("rngadvance.quiet_apply", "repro.core.rngadvance", "quiet_apply"),
    ("ledger.snake_redeal", "repro.core.ledger", "ClassLedger.snake_redeal"),
    ("ledger.positive_classes", "repro.core.ledger", "ClassLedger.positive_classes"),
    ("ledger.bulk_diag_add", "repro.core.ledger", "ClassLedger.bulk_diag_add"),
    # the sync engine has no public balancing-operation entry point;
    # Engine._balance is the boundary of one operation (select + deal)
    ("balance.op", "repro.core.engine", "Engine._balance"),
    ("balance.even_split", "repro.core.balance", "even_split"),
    ("selection.select", "repro.core.selection", "GlobalRandomSelector.select"),
    ("borrowing.eligible", "repro.core.borrowing", "eligible_borrow_classes_sparse"),
    ("borrowing.pick", "repro.core.borrowing", "pick_from_classes"),
    ("triggers.check", "repro.core.triggers", "FactorTrigger.check"),
    ("triggers.quiet_interval", "repro.core.triggers", "FactorTrigger.quiet_interval"),
    ("eventqueue.push", "repro.simulation.eventqueue", "EventQueue.push"),
    ("async.run", "repro.core.async_engine", "AsyncEngine.run"),
    ("admission.decide", "repro.service.admission", "AdmissionController.decide"),
    ("queues.push", "repro.service.queues", "TaskQueues.push"),
    ("queues.pop_oldest", "repro.service.queues", "TaskQueues.pop_oldest"),
    ("queues.migrate", "repro.service.queues", "TaskQueues.migrate"),
    ("slo.observe", "repro.service.slo", "SLOTracker.observe"),
    ("degradation.evaluate", "repro.service.degradation", "DegradationLadder.evaluate"),
    ("traffic.arrivals", "repro.service.traffic", "DiurnalTraffic.arrivals"),
)

#: sections the async engine times through its public ``profiler=``
PROFILER_SECTIONS = ("async.action", "async.complete", "async.retry")

#: the operation span of the sync workloads, opened by the benchmark loop
STEP_SPAN = "columnar.step"

#: spans that run during set-up; every other span reports the timed phase
SETUP_SPANS = ("columnar.init", "traffic.arrivals")


class SpanLog:
    """In-memory span store with running per-name totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.setup = (self.calls, self.total_ns, self.self_ns)
        # open spans: [span index, name id, start ns, child ns]
        self._stack: list[list[int]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        t = time.perf_counter_ns()
        self.start.append(t)
        self.end.append(t)
        self._stack.append([idx, nid, t, 0])

    def exit(self) -> None:
        t = time.perf_counter_ns()
        idx, nid, t0, child = self._stack.pop()
        self.end[idx] = t
        dur = t - t0
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, name: str):
        self.enter(self.intern(name))
        try:
            yield
        finally:
            self.exit()

    def start_timed(self) -> None:
        """Set the totals so far aside as set-up; later totals cover the timed phase.

        A span still open here (the serve episode's ``async.run``) adds its
        whole duration to the timed totals when it closes.
        """
        self.setup = (self.calls, self.total_ns, self.self_ns)
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)

    def stats(self, name: str, *, setup: bool = False) -> tuple[int, float, float]:
        """``(calls, inclusive seconds, self seconds)``; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        calls, total_ns, self_ns = self.setup if setup else (self.calls, self.total_ns, self.self_ns)
        return calls[nid], total_ns[nid] / 1e9, self_ns[nid] / 1e9

    def write(self, path: Path) -> None:
        """Dump every span as ``name parent start_ns end_ns`` rows (NPZ)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class SectionProfiler:
    """Duck-typed ``Profiler`` feeding the async engine's sections into a log."""

    enabled = True

    def __init__(self, log: SpanLog) -> None:
        self._log = log

    def section(self, name: str):
        return self._log.span(name)


def _traced(fn, log: SpanLog, nid: int):
    enter, exit_ = log.enter, log.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return traced


def install(log: SpanLog) -> None:
    """Wrap every entry point of :data:`TARGETS` (call before set-up)."""
    for span, modname, attr in TARGETS:
        mod = importlib.import_module(modname)
        nid = log.intern(span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _traced(getattr(cls, meth), log, nid))
            continue
        original = getattr(mod, attr)
        wrapped = _traced(original, log, nid)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attr, None) is original
            ):
                setattr(other, attr, wrapped)
