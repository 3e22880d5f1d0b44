"""Columnar tick engine: one tick as a fixed pipeline of array passes.

The scalar sweep of :class:`~repro.core.engine.Engine` walks every
processor in Python each tick.  This module keeps the struct-of-arrays
state the engine already has — ``l``, ``l_old``, ``d.diag``,
``d.row_sums``, ``b.row_sums`` as numpy columns, the ledgers'
off-diagonals sparse (``{class: count}`` dict rows, CSR export via
``ClassLedger.to_csr``) — and expresses the whole tick as an ordered
list of **array passes** composed by :class:`PassPipeline`::

    classify -> advance+apply -> residual

* **classify** — probes the deep-quiet horizon first (one C pass,
  ``deep_horizon`` in :mod:`repro.core.rngadvance`); otherwise one
  fused band pass (:meth:`FactorTrigger.quiet_interval`) produces the
  fast/starved/slow masks and picks the tick *mode* (``deep`` /
  ``bulk`` / ``residual``);
* **advance+apply** (:class:`FusedQuietPass`) — consume the tick's
  permutation draw: a bit-exact RNG fast-forward
  (:class:`~repro.core.rngadvance.PermutationSkipper`) when the
  permutation's values are never read, followed by the bulk ±1
  application of an all-fast tick; the real draw otherwise;
* **residual** — a tick with any slow processor walks the permutation
  with per-processor semantics.  The compiled **tick walk**
  (``tick_walk`` in :mod:`repro.core.rngadvance`) runs every handler
  of the scalar sweep — generate, repay, consume, starve, borrow, the
  factor-``f`` trigger, the balancing operation, self-debt settlement
  and the class-``j`` dance — in C, over the engine's own columns and
  dict rows, and calls back into Python only for the producer exchange
  (``Engine._exchange_with_producer``).  Where the walk does not apply
  (a tracer or profiler is attached, a custom selector or ``dynnet``
  draws the partners, the kernels are off (``REPRO_NO_CKERNEL``), or
  numpy's Floyd branch does not draw them),
  :meth:`ColumnarEngine._dense_sweep` walks in Python: fast
  runs buffered and applied in bulk, the inherited scalar handlers at
  every slow or mid-tick-dirtied processor.

The fused advance+apply pass hosts the **deep-quiet lane**: when nothing
in the network owes a debt and every processor's band margin allows at
least one more ±1 drift, the band margin *is* a proven horizon of ticks
that cannot classify anything slow — those ticks run as one fused C call
(validate + apply) plus an RNG state advance, skipping classification
entirely.

Exactness
---------
``ColumnarEngine`` subclasses :class:`~repro.core.engine.Engine` and
replaces only its sweep: the scalar handlers are inherited verbatim, so
every processor routed to them consumes the identical RNG draws and
emits identical trace events (so identical derived spans) and
monitor-visible state as the oracle.  Fast processors draw no RNG and
touch only their own diagonal, so bulk application commutes with any
interleaving; the permutation skip is bit-exact by the probe in
:mod:`repro.core.rngadvance`; and the deep-quiet horizon is derived
from the same integer bands the classifier uses (the kernel's
``band()`` transcribes them in the same IEEE doubles).  The tick walk
replays the handlers' draws through the bit generator's own
``next_uint32`` and is gated by a first-use probe against
:meth:`ColumnarEngine._dense_sweep` (state and full RNG state).
The result is RNG- and trace-identical to ``Engine`` — pinned on the
seeded equivalence grid, per-tick by a hypothesis property, and through
a full monitors-on golden trace
(``tests/core/test_columnar_equivalence.py``), and for the walk by
lockstep runs in ``tests/core/test_tick_walk.py``.

See ``docs/PERFORMANCE.md`` for the pass catalogue and the horizon
derivation.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np

from repro.core.engine import Engine, EngineConfig
from repro.core.rngadvance import (
    DeepHorizon,
    PermutationSkipper,
    _states_equal,
    floyd_branch,
    quiet_apply,
    walk_function,
    walk_probed,
)
from repro.params import LBParams

__all__ = [
    "ColumnarEngine",
    "PassPipeline",
    "TickPass",
    "ClassifyPass",
    "FusedQuietPass",
    "ResidualPass",
]


class _TickFrame:
    """Mutable per-tick scratch carried between passes.

    ``fast_gen``/``fast_con``/``starved`` mark the event-free
    processors classify found (debt-free generate, consume-own, starved
    consume — each with the trigger staying quiet); every other
    processor with a non-zero action is slow.
    """

    __slots__ = ("actions", "fast_gen", "fast_con", "starved", "order", "mode")

    def __init__(self, actions: np.ndarray) -> None:
        self.actions = actions
        self.fast_gen = self.fast_con = self.starved = None
        self.order: np.ndarray | None = None
        # "deep" | "bulk" | "residual" — set by classify
        self.mode = ""


class TickPass:
    """One array pass of the tick program; ``run`` mutates the engine
    and/or the frame.  ``name`` is the pass in :meth:`PassPipeline.describe`,
    ``section`` its profiler section (the benchmark's layer name)."""

    name = "pass"
    section: str

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        raise NotImplementedError


class ClassifyPass(TickPass):
    """Build the tick masks and choose the tick mode."""

    name = "classify"
    section = "columnar.classify"

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        if eng._deep_left > 0:
            # inside a proven deep-quiet horizon: no masks needed, the
            # fused pass applies the whole tick in one call
            frame.mode = "deep"
            return
        # probe the horizon *before* building any masks: h >= 1 proves
        # this very tick all-fast too, so the whole mask classification
        # is redundant work (this is what makes the steady quiet tick
        # O(1) numpy calls instead of ~30)
        h = eng._deep_horizon()
        if h >= 1:
            eng._deep_left = h - 1
            frame.mode = "deep"
            return
        # a processor is fast iff its whole action resolves without
        # randomness or events: the trigger stays quiet on the
        # post-action own-load, a generate does not repay (no debts) and
        # a consume hits an own-class packet (or starves); both trigger
        # tests come out of one quiet_interval band computation
        actions = frame.actions
        eng._check_range(actions)
        own = eng.d.diag
        lo, hi = eng.trigger.quiet_interval(eng.l_old)
        own_gen = own + 1
        own_con = own - 1
        gen_mask = actions == 1
        con_mask = actions == -1
        fast_gen = gen_mask & (eng.b.row_sums == 0) & (own_gen > lo) & (own_gen < hi)
        starved = con_mask & (eng.l == 0)
        fast_con = (
            con_mask & (eng.l > 0) & (own >= 1) & (own_con > lo) & (own_con < hi)
        )
        slow = (gen_mask | con_mask) & ~(fast_gen | fast_con | starved)
        frame.fast_gen, frame.fast_con, frame.starved = fast_gen, fast_con, starved
        frame.mode = "residual" if slow.any() else "bulk"


class FusedQuietPass(TickPass):
    """Advance the RNG past the tick's permutation and bulk-apply an
    all-fast tick; hosts the deep-quiet lane."""

    name = "advance+apply"
    section = "columnar.fused_quiet"

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        mode = frame.mode
        if mode == "deep":
            # validates the action range before mutating anything (and
            # before the RNG advance below), like the scalar sweep
            npos, nneg = quiet_apply(
                frame.actions,
                eng.l,
                eng.d.diag,
                eng.d.row_sums,
            )
            eng._skipper.skip(eng.n)
            eng._deep_left -= 1
            eng.total_generated += npos
            eng.total_consumed += nneg
        elif mode == "bulk":
            eng._skipper.skip(eng.n)
            eng._apply_fast(
                np.flatnonzero(frame.fast_gen), np.flatnonzero(frame.fast_con)
            )
            n_starved = int(np.count_nonzero(frame.starved))
            if n_starved:
                eng.counters.starved += n_starved
        else:
            # a residual tick reads the permutation's values
            frame.order = eng.rng.permutation(eng.n)


class ResidualPass(TickPass):
    """Per-processor semantics: the compiled tick walk, or the Python
    walk where the compiled one does not apply."""

    name = "residual"
    section = "columnar.residual"

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        if frame.mode != "residual":
            return
        walk = eng._tick_walk()
        if walk:
            walk.run(eng, frame)
        else:
            eng._dense_sweep(frame)


class PassPipeline:
    """The ordered array passes making up one tick.

    ``describe()`` renders the program for docs, tests and debugging;
    with a profiler attached every pass is timed as its ``section``.
    """

    def __init__(self, passes: list[TickPass]) -> None:
        self.passes = list(passes)

    def describe(self) -> str:
        return " -> ".join(p.name for p in self.passes)

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        if eng._profile:
            profiler = eng.profiler
            for p in self.passes:
                t0 = time.perf_counter_ns()
                p.run(eng, frame)
                profiler.observe_ns(p.section, time.perf_counter_ns() - t0)
        else:
            for p in self.passes:
                p.run(eng, frame)


# -- the compiled tick walk ------------------------------------------------

# the walk's counter deltas, in its accumulator order: BorrowCounters
# fields, then engine totals
_WALK_COUNTERS = (
    "total_borrow", "borrow_fail", "decrease_sim", "repayments",
    "consume_blocked", "starved", "debt_annihilated", "debts_settled",
)
_WALK_TOTALS = ("total_ops", "packets_migrated", "total_generated", "total_consumed")
_WALK_COLUMNS = ("l", "l_old", "local_time", "d_diag", "d_rs", "b_diag", "b_rs")


def _columns(eng: Engine) -> tuple[np.ndarray, ...]:
    """The state columns the walk writes, in ``_WALK_COLUMNS`` order."""
    return (
        eng.l, eng.l_old, eng.local_time,
        eng.d.diag, eng.d.row_sums, eng.b.diag, eng.b.row_sums,
    )


class _WalkConfig(ctypes.Structure):
    """The walk's view of one engine (``walk_cfg`` in the C source)."""

    _fields_ = [
        *[(name, ctypes.c_void_p) for name in (*_WALK_COLUMNS, "acc")],
        *[(name, ctypes.c_int64) for name in ("n", "delta", "cap", "strict", "refresh")],
        ("f", ctypes.c_double),
        ("next32", ctypes.c_void_p),
        ("bg", ctypes.c_void_p),
    ]


class _TickWalk:
    """The compiled tick walk bound to one engine's columns and generator.

    The C side holds raw pointers into the columns and the bit
    generator's state, so this object keeps references to all of them;
    :meth:`ColumnarEngine._tick_walk` rebinds when a column is replaced.
    """

    @staticmethod
    def fits(eng: "ColumnarEngine") -> bool:
        """Whether every state column is contiguous int64 of length n."""
        return all(
            col.dtype == np.int64 and col.shape == (eng.n,) and col.flags.c_contiguous
            for col in _columns(eng)
        )

    def __init__(self, fn, eng: "ColumnarEngine") -> None:
        cols = _columns(eng)
        self._fn = fn
        self.cols = cols
        self.rng = eng.rng
        self.keys = tuple(range(eng.n))
        self.acc = np.zeros(len(_WALK_COUNTERS) + len(_WALK_TOTALS), dtype=np.int64)
        cif = eng.rng.bit_generator.ctypes
        self.cfg = _WalkConfig(
            *[col.ctypes.data for col in cols],
            self.acc.ctypes.data,
            eng.n,
            eng.params.delta,
            eng.params.C,
            eng.trigger.strict,
            eng.config.refresh_participants,
            eng.trigger.f,
            ctypes.cast(cif.next_uint32, ctypes.c_void_p).value,
            cif.state.value,
        )
        self._cfg = ctypes.addressof(self.cfg)

    def bound_to(self, eng: "ColumnarEngine") -> bool:
        return all(a is b for a, b in zip(_columns(eng), self.cols))

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        order = np.ascontiguousarray(frame.order, dtype=np.int64)
        acts = np.ascontiguousarray(frame.actions, dtype=np.int64)
        try:
            self._fn(
                self._cfg, eng.d.rows, eng.b.rows, self.keys,
                eng._exchange_with_producer, order.ctypes.data, acts.ctypes.data,
            )
        finally:
            deltas = self.acc.tolist()
            counters = eng.counters
            for name, dv in zip(_WALK_COUNTERS, deltas):
                setattr(counters, name, getattr(counters, name) + dv)
            for name, dv in zip(_WALK_TOTALS, deltas[len(_WALK_COUNTERS):]):
                setattr(eng, name, getattr(eng, name) + dv)


def _same_state(a: Engine, b: Engine) -> bool:
    """Whether two engines agree on every column, both ledgers, every
    counter and the full bit-generator state."""
    return (
        all(np.array_equal(x, y) for x, y in zip(_columns(a), _columns(b)))
        and a.d.rows == b.d.rows
        and a.b.rows == b.b.rows
        and a.counters.as_tuple() == b.counters.as_tuple()
        and all(getattr(a, name) == getattr(b, name) for name in _WALK_TOTALS)
        and _states_equal(a.rng.bit_generator.state, b.rng.bit_generator.state)
    )


def _probe_walk(fn, bitgen_cls) -> bool:
    """A short seeded event-dense run (growth, then drain: borrows,
    exchanges, dances) through the walk and through ``_dense_sweep``."""
    n = 24
    wr = np.random.default_rng(24)
    acts = np.concatenate([
        np.where(wr.random((30, n)) < 0.7, 1, -1),
        np.where(wr.random((40, n)) < 0.35, 1, -1),
    ])
    config = EngineConfig(n=n, params=LBParams(f=1.2, delta=2, C=2))
    pair = []
    for walked in (True, False):
        eng = ColumnarEngine(config, rng=np.random.Generator(bitgen_cls(2024)))
        eng._walk = _TickWalk(fn, eng) if walked else False
        for row in acts:
            eng.step(row)
        pair.append(eng)
    return _same_state(*pair)


class ColumnarEngine(Engine):
    """Struct-of-arrays engine, bit-identical to the scalar sweep.

    Drop-in replacement for :class:`Engine` (same constructor);
    interactive at n = 10⁵–10⁶ on quiet-dominated workloads.  It uses
    the C kernels of :mod:`repro.core.rngadvance` that pass their
    exactness probe, the compiled tick walk included;
    ``REPRO_NO_CKERNEL=1``, the one kernel switch, turns them all off
    for the process (pure numpy/python fallbacks, same results).

    External mid-run mutation of engine state (tests poking ``d``/``l``
    between steps) must be followed by :meth:`invalidate_horizon`.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        rng=0,
        selector=None,
        tracer=None,
        profiler=None,
        dynnet=None,
    ) -> None:
        super().__init__(
            config,
            rng=rng,
            selector=selector,
            tracer=tracer,
            profiler=profiler,
            dynnet=dynnet,
        )
        self._deep_left = 0
        self._skipper = PermutationSkipper(self.rng)
        # the horizon kernel bound to the current columns (see _deep_horizon)
        self._horizon: DeepHorizon | None = None
        # the compiled walk replaces the Python handlers' sweep only when
        # nothing observes them (the tracer's events and the profiler's
        # per-handler sections come from the handlers) and the engine's
        # own selector draws the partners on numpy's Floyd branch; None
        # = bind at the first residual tick (which finds out whether the
        # kernels are on), False = never
        walkable = (
            not self._observed
            and selector is None
            and dynnet is None
            and floyd_branch(self.n - 1, self.params.delta)
        )
        self._walk: _TickWalk | bool | None = None if walkable else False
        self.pipeline = PassPipeline(
            [ClassifyPass(), FusedQuietPass(), ResidualPass()]
        )

    # -- tick ------------------------------------------------------------

    def _sweep(self, actions: np.ndarray) -> None:
        self._dirty.clear()
        self.pipeline.run(self, _TickFrame(actions))

    def invalidate_horizon(self) -> None:
        """Drop the deep-quiet horizon after external state mutation."""
        self._deep_left = 0

    def _tick_walk(self) -> _TickWalk | bool:
        """The compiled walk for this tick, or False for ``_dense_sweep``.

        Loaded, probed (once per process and bit-generator class) and
        bound at the first residual tick, so runs that never reach one
        pay nothing; rebound when a state column is replaced.
        """
        walk = self._walk
        if walk is None or (walk and not walk.bound_to(self)):
            fn = walk_function()
            ok = (
                fn is not None
                and _TickWalk.fits(self)
                and walk_probed(
                    type(self.rng.bit_generator), lambda cls: _probe_walk(fn, cls)
                )
            )
            walk = self._walk = _TickWalk(fn, self) if ok else False
        return walk

    # -- deep-quiet horizon ----------------------------------------------

    def _deep_horizon(self) -> int:
        """Ticks from now that provably classify every processor fast.

        Requires no prior classification — the bound is derived from the
        current columns alone.  With no debts anywhere, each tick moves
        any ``own`` and ``l`` by at most 1, so before tick ``k``
        (``k = 1`` being the next tick) ``own' ∈ [own-(k-1), own+(k-1)]``.
        Requiring ``lo + 2 <= own' <= hi - 2`` keeps both post-action
        loads (``own' ± 1``) strictly inside the trigger band, and
        ``l - (k-1) >= 1`` rules out starvation; generates stay
        repay-free because nothing in a fast tick creates debts.  Hence
        ``h = min(own - lo - 1, hi - own - 1, l)`` consecutive ticks
        need no classification at all.  The ``own >= 1`` consume guard
        follows from ``own' >= lo + 2 >= 1`` whenever ``lo >= -1``; the
        guarded ``l_old == 0`` band (``lo`` at int64-min scale) instead
        forces ``hi - own - 1 <= 0`` for any non-negative ``own``, so
        such processors simply veto the deep lane.  One C pass
        (:func:`~repro.core.rngadvance.deep_horizon`), bound to the
        columns once and rebound when one is replaced.
        """
        cols = (self.l, self.l_old, self.d.diag, self.b.row_sums)
        horizon = self._horizon
        if horizon is None or not horizon.bound_to(*cols):
            horizon = self._horizon = DeepHorizon(*cols)
        return horizon(self.trigger)

    # -- bulk application -------------------------------------------------

    def _apply_fast(self, gen_ids, con_ids) -> None:
        """Apply fast generates (+1) and consumes (-1) to own diagonals.

        ``gen_ids``/``con_ids`` are processor-id lists or index arrays.
        Fast processors draw no RNG, emit no events and touch only their
        own diagonal, row sum and load, so any batch of them commutes
        with any interleaving — the one bulk-apply step of every lane.
        """
        if len(gen_ids):
            gen_ids = np.asarray(gen_ids)
            self.d.bulk_diag_add(gen_ids, 1)
            self.l[gen_ids] += 1
            self.total_generated += len(gen_ids)
        if len(con_ids):
            con_ids = np.asarray(con_ids)
            self.d.bulk_diag_add(con_ids, -1)
            self.l[con_ids] -= 1
            self.total_consumed += len(con_ids)

    # -- the Python walk --------------------------------------------------

    def _dense_sweep(self, frame: _TickFrame) -> None:
        """Buffered Python walk of a residual tick.

        Walks the permutation, buffering consecutive fast processors and
        flushing the buffer through :meth:`_apply_fast` before each slow
        (or mid-tick-dirtied) processor runs its scalar handler — the
        flush puts the fast run's effects in place first, so the
        interleaving is exact.  The lane of observed runs and of runs
        the compiled walk does not cover.
        """
        act_l = frame.actions.tolist()
        fast_gen_l = frame.fast_gen.tolist()
        fast_con_l = frame.fast_con.tolist()
        starved_l = frame.starved.tolist()
        dirty = self._dirty
        buf_gen: list[int] = []
        buf_con: list[int] = []
        n_starved = 0
        for i in frame.order.tolist():
            a = act_l[i]
            if a == 0:
                continue
            if i not in dirty:
                if a == 1:
                    if fast_gen_l[i]:
                        buf_gen.append(i)
                        continue
                elif starved_l[i]:
                    n_starved += 1
                    continue
                elif fast_con_l[i]:
                    buf_con.append(i)
                    continue
            if buf_gen or buf_con:
                self._apply_fast(buf_gen, buf_con)
                buf_gen = []
                buf_con = []
            if a == 1:
                self._generate(i)
            else:
                self._consume(i)
        if buf_gen or buf_con:
            self._apply_fast(buf_gen, buf_con)
        if n_starved:
            self.counters.starved += n_starved
