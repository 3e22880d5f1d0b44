"""The compiled serve loop: the async engine's event walk in C.

:class:`~repro.core.async_engine.AsyncEngine` (and the live service,
:class:`~repro.service.engine.ServiceEngine`) spend their run in a
Python event loop: pop ``(time, seq, payload)`` off the heap, dispatch
to a handler, push the follow-up events.  ``event_walk`` in
:mod:`repro.core.rngadvance` transcribes the fault-free handlers into C
— the workload action with its rate lookup, the trigger, the partner
draw, refusal with retry and backoff, balance completion with its
``even_split``, and the service arrival (power-of-two routing on ``l``,
brown-out, token bucket, depth gate) with the task-queue rings — and
drains the event order in C between snapshot boundaries.

:class:`EventWalk` binds it to one engine.  A run hands the engine's
event heap to the walk (:meth:`EventWalk.drive`); the walk returns to
Python at every snapshot boundary, where the snapshot hooks (monitors,
``SLOTracker.observe``, ``DegradationLadder.evaluate``, telemetry) run
as they do on the Python lane, and on resume it re-reads the trigger
factor, the bucket scale and the brown-out flag they may have changed.
Before each boundary it writes back everything an observer can read:
the counters, the admission counters and bucket, ``queues.completed``
and ``queues.sojourns``, ``time``; ``l``, ``l_old``, ``busy`` and the
queue rings are shared columns, and ``len(engine.queue)`` reads the
walk's heap.  The heap goes back into the engine's
:class:`~repro.simulation.eventqueue.EventQueue` when the run ends.

Draws come from numpy's own C functions (``next_double`` for
``rng.random()``, ``random_standard_exponential`` for
``rng.exponential(1.0)``), ``bounded32`` for ``rng.integers(k)`` and
``choice_next32`` for the partners, so the walk consumes the bit
generator exactly as the Python handlers do.  Which engines walk is
decided by :meth:`AsyncEngine._event_walk`; the engine class's
``_probe_event_walk`` holds the walk to its Python handlers on a short
seeded run before the first use (:func:`same_run` is the comparison).
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from repro.core.rngadvance import _states_equal
from repro.simulation.eventqueue import Event

__all__ = ["EVENT_DTYPE", "EventWalk", "same_run"]

#: one pending event (``event`` in the C source)
EVENT_DTYPE = np.dtype(
    [("t", "<f8"), ("seq", "<i8"), ("kind", "<i4"), ("proc", "<i4"), ("arg", "<i8")]
)

# the payload kinds the walk delivers: async_engine's _ACTION, _COMPLETE
# and _RETRY, and the service's arrival (FIRST_EXTRA_KIND)
ACTION, COMPLETE, RETRY, ARRIVAL = 0, 1, 2, 6
_KINDS = (ACTION, COMPLETE, RETRY, ARRIVAL)

# the walk's counters, in its accumulator order
_ACC = (
    "heap_size", "next_seq", "op_seq", "total_ops", "dropped_ops",
    "declined_joins", "packets_migrated", "retries", "give_ups", "offered",
    "admitted", "shed_brownout", "shed_bucket", "shed_depth", "completed",
    "migrated_tasks", "n_sojourns",
)
_ENGINE_COUNTERS = (
    "_op_seq", "total_ops", "dropped_ops", "declined_joins",
    "packets_migrated", "retries", "give_ups",
)
_ERRORS = {
    -1: "event heap overflow",
    -2: "out of memory",
    -3: "task queues out of step with the loads",
    -4: "an event the walk cannot deliver",
}

_P = ctypes.c_void_p


class _EventConfig(ctypes.Structure):
    """The walk's view of one engine (``ev_cfg`` in the C source)."""

    _fields_ = [
        *[(name, _P) for name in (
            "l", "l_old", "attempts", "busy", "pending", "g", "c", "heap",
            "op_id", "op_size", "op_group", "op_t0", "arr_a", "arr_b",
            "arr_crit", "ring", "head", "depth", "soj", "acc", "st", "bg",
        )],
        *[(name, ctypes.c_int64) for name in (
            "n", "delta", "rows", "heap_cap", "soj_cap", "qcap", "service",
            "strict", "max_retries", "brownout",
        )],
        *[(name, ctypes.c_double) for name in (
            "f", "latency", "backoff", "jitter", "rate", "burst", "scale",
        )],
    ]


def _columns(eng) -> tuple:
    """The engine arrays the walk holds pointers into."""
    cols = (eng.l, eng.l_old, eng._attempts, eng.busy, eng._retry_pending)
    if eng._WALK_MODE == "service":
        q = eng.queues
        cols += (q._ring, q._head, q._depth)
    return cols


def _rate_tables(rates) -> tuple[np.ndarray, np.ndarray]:
    """``(g, c)`` as ``rows x n`` tables (ConstantRates has one row)."""
    if hasattr(rates, "g_table"):
        return rates.g_table, rates.c_table
    return rates.g[None, :], rates.c[None, :]


def _is_column(arr, dtype, shape) -> bool:
    return (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.shape == shape
        and arr.flags.c_contiguous
        and arr.flags.writeable
    )


class EventWalk:
    """The compiled event walk bound to one engine.

    The C side holds raw pointers into the engine's columns, rate
    tables, queue rings and bit generator, so this object keeps
    references to all of them and rebinds when a column is replaced.
    It owns the heap, the in-flight operation table (at most one
    operation per initiator: an initiator stays busy until its
    operation completes) and the arrival table during a run.
    """

    @staticmethod
    def fits(eng) -> bool:
        """Whether every column has the dtype, shape and layout the C
        side reads."""
        n = eng.n
        if n >= 2**31:
            return False
        ints = (eng.l, eng.l_old, eng._attempts)
        flags = (eng.busy, eng._retry_pending)
        ok = all(_is_column(a, np.int64, (n,)) for a in ints) and all(
            _is_column(a, np.bool_, (n,)) for a in flags
        )
        g, c = _rate_tables(eng.rates)
        ok = ok and all(
            isinstance(t, np.ndarray)
            and t.dtype == np.float64
            and t.ndim == 2
            and t.shape[1] == n
            and t.shape[0] >= 1
            and t.flags.c_contiguous
            for t in (g, c)
        ) and g.shape == c.shape
        if ok and eng._WALK_MODE == "service":
            q = eng.queues
            ok = (
                q.n == n
                and _is_column(q._ring, np.float64, (n, q.cap))
                and _is_column(q._head, np.int64, (n,))
                and _is_column(q._depth, np.int64, (n,))
            )
        return ok

    def __init__(self, fn, eng) -> None:
        self._fn = fn
        self.service = eng._WALK_MODE == "service"
        n, delta = eng.n, eng.params.delta
        self.acc = np.zeros(len(_ACC), dtype=np.int64)
        self.st = np.zeros(3, dtype=np.float64)
        self.op_id = np.zeros(n, dtype=np.int64)
        self.op_size = np.zeros(n, dtype=np.int64)
        self.op_group = np.zeros((n, delta + 1), dtype=np.int64)
        self.op_t0 = np.zeros(n, dtype=np.float64)
        self.heap = np.zeros(0, dtype=EVENT_DTYPE)
        self.cfg = _EventConfig(
            n=n,
            delta=delta,
            latency=float(eng.latency),
            max_retries=eng.retry.max_retries,
            backoff=float(eng.retry.backoff),
            jitter=float(eng.retry.jitter),
            service=int(self.service),
        )
        self._cfg = ctypes.addressof(self.cfg)
        cfg = self.cfg
        for name in ("acc", "st", "op_id", "op_size", "op_group", "op_t0"):
            setattr(cfg, name, getattr(self, name).ctypes.data)
        self._bind(eng)

    # -- binding ---------------------------------------------------------

    def _bind(self, eng) -> None:
        """Point the C side at the engine's current columns and generator."""
        cfg = self.cfg
        self.cols = cols = _columns(eng)
        for name, col in zip(("l", "l_old", "attempts", "busy", "pending"), cols):
            setattr(cfg, name, col.ctypes.data)
        self.rng = eng.rng
        cfg.bg = eng.rng.bit_generator.ctypes.bit_generator.value
        if self.service:
            q = eng.queues
            cfg.ring, cfg.head, cfg.depth = (col.ctypes.data for col in cols[5:])
            cfg.qcap = q.cap
            self._soj = None  # rebound by _bind_sojourns

    def bound_to(self, eng) -> bool:
        return eng.rng is self.rng and all(
            a is b for a, b in zip(_columns(eng), self.cols)
        )

    def _bind_sojourns(self, queues) -> None:
        if queues._soj is not self._soj:
            self._soj = queues._soj
            self.cfg.soj = self._soj.ctypes.data
            self.cfg.soj_cap = len(self._soj)

    # -- a run -------------------------------------------------------------

    def drive(self, eng, horizon: float, schedule: list[float], snapshot) -> bool:
        """Run the engine to ``horizon``, calling ``snapshot(t)`` at each
        time of ``schedule`` after the events before it.

        Returns False, having done nothing, when the engine's heap holds
        an event the walk does not deliver (the caller then runs the
        Python handlers).
        """
        if not self._open(eng, horizon):
            return False
        try:
            for t in schedule:
                self._segment(eng, t - 1e-12, horizon)
                snapshot(t)
            self._segment(eng, math.inf, horizon)
        finally:
            self._close(eng)
        return True

    def _open(self, eng, horizon: float) -> bool:
        """Move the engine's pending events and in-flight operations
        into the walk's tables."""
        events, seq = eng.queue.take_all()
        payloads = [e[2] for e in events]
        kinds = np.fromiter((p[0] for p in payloads), dtype=np.int32, count=len(events))
        if (
            not self.fits(eng)  # the rate tables are read afresh each run
            or not np.isin(kinds, _KINDS).all()
            or (not self.service and (kinds == ARRIVAL).any())
        ):
            eng.queue.restore(events, seq)
            return False
        m = len(events)
        # every action reschedules itself; completions and retries are
        # at most one per processor each
        self.heap = heap = np.zeros(m + 2 * eng.n + 8, dtype=EVENT_DTYPE)
        heap["t"][:m] = [e[0] for e in events]
        heap["seq"][:m] = [e[1] for e in events]
        heap["kind"][:m] = kinds
        heap["proc"][:m] = [p[1] for p in payloads]
        # (COMPLETE, i, group, op) and (ARRIVAL, target, arrival, row)
        heap["arg"][:m] = [p[3] if len(p) > 3 else 0 for p in payloads]
        cfg = self.cfg
        cfg.heap = heap.ctypes.data
        cfg.heap_cap = len(heap)
        self.op_size[:] = 0
        for op, (group, t0) in eng._inflight.items():
            i = group[0]
            self.op_id[i] = op
            self.op_size[i] = len(group)
            self.op_group[i, : len(group)] = group
            self.op_t0[i] = t0
        eng._inflight = {}
        g, c = _rate_tables(eng.rates)
        self._rates = (g, c)  # keep the tables the pointers point into
        cfg.g, cfg.c = g.ctypes.data, c.ctypes.data
        cfg.rows = g.shape[0]
        self.acc[:] = [m, seq, *(getattr(eng, k) for k in _ENGINE_COUNTERS), *[0] * 8]
        self.st[0] = eng.time
        if self.service:
            self._open_service(eng)
        self._queue = eng.queue
        eng.queue = _LiveQueue(self, horizon)
        return True

    def _open_service(self, eng) -> None:
        arrivals = eng._arrivals
        self._arr = (
            np.array([a.targets[0] for a in arrivals], dtype=np.int64),
            np.array([a.targets[1] for a in arrivals], dtype=np.int64),
            np.array([a.critical for a in arrivals], dtype=np.uint8),
        )
        cfg = self.cfg
        cfg.arr_a, cfg.arr_b, cfg.arr_crit = (a.ctypes.data for a in self._arr)
        adm, q = eng.admission, eng.queues
        self.acc[9:] = [
            adm.offered, adm.admitted, adm.shed["brownout"], adm.shed["bucket"],
            adm.shed["depth"], q.completed,
            q.migrated_tasks, q._nsoj,
        ]
        self.st[1:] = adm.bucket.tokens, adm.bucket._t_last

    def _segment(self, eng, stop: float, horizon: float) -> None:
        """Deliver the events before ``stop`` (and up to ``horizon``),
        then write back what observers read."""
        if not self.bound_to(eng):
            if not self.fits(eng):
                raise RuntimeError("an engine column was replaced by an incompatible array")
            self._bind(eng)
        cfg = self.cfg
        cfg.f = eng.trigger.f
        cfg.strict = eng.trigger.strict
        if self.service:
            adm = eng.admission
            bucket = adm.bucket
            cfg.rate, cfg.burst, cfg.scale = bucket.rate, bucket.burst, bucket.scale
            cfg.brownout = adm.brownout
            queues = eng.queues
            self._bind_sojourns(queues)
        while True:
            rc = self._fn(self._cfg, stop, horizon)
            if rc != 1:
                break
            # the sojourn buffer is full: the pending event waits for room
            queues._nsoj = int(self.acc[-1])
            queues._reserve(1)
            self._bind_sojourns(queues)
        self._store(eng)
        if rc < 0:
            raise RuntimeError(f"event walk failed: {_ERRORS.get(rc, rc)}")

    def _store(self, eng) -> None:
        acc = self.acc.tolist()
        for name, v in zip(_ENGINE_COUNTERS, acc[2:9]):
            setattr(eng, name, v)
        eng.time = float(self.st[0])
        if self.service:
            adm, q = eng.admission, eng.queues
            adm.offered, adm.admitted = acc[9], acc[10]
            shed = adm.shed
            shed["brownout"], shed["bucket"], shed["depth"] = acc[11:14]
            q.completed, q.migrated_tasks, q._nsoj = acc[14:17]
            adm.bucket.tokens, adm.bucket._t_last = self.st[1:].tolist()

    def _close(self, eng) -> None:
        """Hand the pending events and in-flight operations back."""
        m = int(self.acc[0])
        ev = self.heap[:m]
        groups = {
            i: tuple(self.op_group[i, : self.op_size[i]].tolist())
            for i in np.flatnonzero(self.op_size).tolist()
        }
        arrivals = eng._arrivals if self.service else ()
        events = []
        for t, seq, kind, proc, arg in zip(
            ev["t"].tolist(), ev["seq"].tolist(), ev["kind"].tolist(),
            ev["proc"].tolist(), ev["arg"].tolist(),
        ):
            if kind == COMPLETE:
                payload = (kind, proc, groups[proc], arg)
            elif kind == ARRIVAL:
                payload = (kind, proc, arrivals[arg], arg)
            else:
                payload = (kind, proc)
            events.append(Event(t, seq, payload))
        self._queue.restore(events, int(self.acc[1]))
        eng.queue = self._queue
        eng._inflight = {
            int(self.op_id[i]): (group, float(self.op_t0[i]))
            for i, group in sorted(groups.items(), key=lambda kv: self.op_id[kv[0]])
        }
        self.heap = np.zeros(0, dtype=EVENT_DTYPE)


class _LiveQueue:
    """``engine.queue`` during a walk: the length of the walk's heap as
    the Python lane reports it at a snapshot, where the event that
    triggered the snapshot has already been popped."""

    __slots__ = ("_walk", "_horizon")

    def __init__(self, walk: EventWalk, horizon: float) -> None:
        self._walk = walk
        self._horizon = horizon

    def __len__(self) -> int:
        size = int(self._walk.acc[0])
        if size and self._walk.heap[0]["t"] <= self._horizon:
            size -= 1
        return size


def _pending(eng) -> list:
    return sorted(eng.queue._heap)


def same_run(a, b, ra, rb) -> bool:
    """Whether two finished runs (engines ``a``/``b``, results
    ``ra``/``rb``) agree on the snapshots, every column and counter,
    the pending events and in-flight operations, the task queues and
    admission state of a service, and the full bit-generator state."""
    ok = (
        np.array_equal(ra.times, rb.times)
        and np.array_equal(ra.loads, rb.loads)
        and ra.counters() == rb.counters()
        and (ra.declined_joins, ra.fault_stats) == (rb.declined_joins, rb.fault_stats)
        and all(np.array_equal(x, y) for x, y in zip(_columns(a)[:5], _columns(b)[:5]))
        and a.declined_joins == b.declined_joins
        and a._op_seq == b._op_seq
        and a._inflight == b._inflight
        and a.time == b.time
        and _pending(a) == _pending(b)
        and a.queue._seq == b.queue._seq
        and _states_equal(a.rng.bit_generator.state, b.rng.bit_generator.state)
    )
    if ok and a._WALK_MODE == "service":
        qa, qb = a.queues, b.queues
        ok = (
            all(qa.contents(i) == qb.contents(i) for i in range(a.n))
            and np.array_equal(qa.sojourns, qb.sojourns)
            and (qa.completed, qa.migrated_tasks) == (qb.completed, qb.migrated_tasks)
            and a.admission.counters() == b.admission.counters()
            and (a.admission.bucket.tokens, a.admission.bucket._t_last)
            == (b.admission.bucket.tokens, b.admission.bucket._t_last)
        )
    return ok
