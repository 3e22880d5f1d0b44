"""Columnar tick engine: one tick as a fixed pipeline of array passes.

The scalar sweep of :class:`~repro.core.engine.Engine` walks every
processor in Python each tick.  This module keeps the struct-of-arrays
state the engine already has — ``l``, ``l_old``, ``d.diag``,
``d.row_sums``, ``b.row_sums`` as numpy columns, the ledgers'
off-diagonals sparse (CSR export via ``ClassLedger.to_csr``) — and
expresses the whole tick as an ordered list of **array passes**
composed by :class:`PassPipeline`::

    classify -> advance+apply -> residual

* **classify** — probes the deep-quiet horizon first; otherwise one
  fused band pass (:meth:`FactorTrigger.quiet_interval`) produces the
  fast/starved/slow masks and picks the tick *mode* (``deep`` /
  ``bulk`` / ``residual`` / ``dense``);
* **advance+apply** (:class:`FusedQuietPass`) — consume the tick's
  permutation draw: a bit-exact RNG fast-forward
  (:class:`~repro.core.rngadvance.PermutationSkipper`) when the
  permutation's values are never read, followed by the bulk ±1
  application of an all-fast tick; the real draw otherwise;
* **residual** — everything that needs per-processor semantics: the
  inherited scalar handlers (partner-match → deal → repay →
  debt-settle, with their spans and trace events) run at exactly the
  permutation positions of slow or mid-tick-dirtied processors.  With
  few such stops the fast *segments between* them apply as bulk
  gathers; with many (``dense``) a buffered Python walk applies the
  fast runs between stops instead.

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
emits identical trace events, spans and monitor-visible state as the
oracle.  Fast processors draw no RNG and touch only their own diagonal,
so bulk application commutes with any interleaving; the permutation
skip is bit-exact by the probe in :mod:`repro.core.rngadvance`; and the
deep-quiet horizon is derived from the same integer bands the
classifier uses.  The result is RNG- and trace-identical to ``Engine``
— pinned on the seeded equivalence grid, per-tick by a hypothesis
property, and through a full monitors-on golden trace
(``tests/core/test_columnar_equivalence.py``).

See ``docs/PERFORMANCE.md`` for the pass catalogue and the horizon
derivation.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.engine import Engine, EngineConfig
from repro.core.rngadvance import PermutationSkipper, quiet_apply
from repro.core.selection import GlobalRandomSelector

__all__ = [
    "ColumnarEngine",
    "PassPipeline",
    "TickPass",
    "ClassifyPass",
    "FusedQuietPass",
    "ResidualPass",
]

# the segmented residual sweep pays a few numpy gathers per scalar stop;
# when the average fast segment between stops is shorter than this, the
# buffered Python walk of the dense lane wins
_MIN_SEGMENT = 32


class _TickFrame:
    """Mutable per-tick scratch carried between passes.

    ``fast_gen``/``fast_con``/``starved`` mark the event-free
    processors classify found (debt-free generate, consume-own, starved
    consume — each with the trigger staying quiet); ``slow`` is every
    other processor with a non-zero action.
    """

    __slots__ = (
        "actions", "fast_gen", "fast_con", "starved", "slow", "order", "mode",
    )

    def __init__(self, actions: np.ndarray) -> None:
        self.actions = actions
        self.fast_gen = self.fast_con = self.starved = self.slow = None
        self.order: np.ndarray | None = None
        # "deep" | "bulk" | "residual" | "dense" — set by classify
        self.mode = ""


class _NotifyingSet(set):
    """The engine's ``_dirty`` set with a mutation hook.

    The residual sweep installs a hook for the duration of one tick so
    that a processor dirtied by someone else's balancing operation is
    *scheduled* as a scalar stop if its turn is still ahead — the array
    analogue of the dense lane's ``i not in dirty`` re-check.
    """

    __slots__ = ("hook",)

    def __init__(self) -> None:
        super().__init__()
        self.hook = None

    def add(self, item) -> None:
        super().add(item)
        if self.hook is not None:
            self.hook(item)

    def update(self, items) -> None:
        if self.hook is None:
            super().update(items)
        else:
            for item in items:
                self.add(item)


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
        frame.fast_gen, frame.fast_con = fast_gen, fast_con
        frame.starved, frame.slow = starved, slow
        n_slow = int(np.count_nonzero(slow))
        if n_slow == 0:
            frame.mode = "bulk"
        elif n_slow * _MIN_SEGMENT > eng.n:
            frame.mode = "dense"
        else:
            frame.mode = "residual"


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
                use_kernel=eng._use_kernel,
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
            # residual and dense ticks read the permutation's values
            frame.order = eng.rng.permutation(eng.n)


class ResidualPass(TickPass):
    """Per-processor semantics: scalar stops + bulk fast runs."""

    name = "residual"
    section = "columnar.residual"

    def run(self, eng: "ColumnarEngine", frame: _TickFrame) -> None:
        if frame.mode == "residual":
            eng._residual_sweep(frame)
        elif frame.mode == "dense":
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


class ColumnarEngine(Engine):
    """Struct-of-arrays engine, bit-identical to the scalar sweep.

    Drop-in replacement for :class:`Engine` (same constructor plus one
    knob); interactive at n = 10⁵–10⁶ on quiet-dominated workloads.

    Parameters beyond :class:`Engine`'s:

    kernel:
        ``"auto"`` (default) uses the C kernels of
        :mod:`repro.core.rngadvance` when they pass their exactness
        probe; ``"off"`` forces the pure numpy/python fallbacks, the
        default selector's partner draws included.

    Custom per-processor ``triggers`` (which may carry per-check state,
    e.g. :class:`~repro.core.triggers.AdaptiveTrigger`, so they must see
    every check) disable the pipeline: the engine then runs the
    inherited scalar sweep.  External mid-run mutation of engine state
    (tests poking ``d``/``l`` between steps) must be followed by
    :meth:`invalidate_horizon`.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        rng=0,
        selector=None,
        triggers=None,
        tracer=None,
        profiler=None,
        spans=None,
        dynnet=None,
        kernel: str = "auto",
    ) -> None:
        super().__init__(
            config,
            rng=rng,
            selector=selector,
            triggers=triggers,
            tracer=tracer,
            profiler=profiler,
            spans=spans,
            dynnet=dynnet,
        )
        self._vectorized = triggers is None
        # replace the plain dirty set with the hook-capable one before
        # any tick runs (the scalar handlers mutate it via add/update)
        self._dirty = _NotifyingSet()
        self._deep_left = 0
        self._use_kernel = kernel != "off"
        self._skipper = PermutationSkipper(self.rng, kernel=kernel)
        if selector is None and dynnet is None:
            # the default selector's partner draws follow the same switch
            self.selector = GlobalRandomSelector(self.n, kernel=kernel)
        self.pipeline = PassPipeline(
            [ClassifyPass(), FusedQuietPass(), ResidualPass()]
        )

    # -- tick ------------------------------------------------------------

    def _sweep(self, actions: np.ndarray) -> None:
        if not self._vectorized:
            super()._sweep(actions)
            return
        self._dirty.clear()
        self.pipeline.run(self, _TickFrame(actions))

    def invalidate_horizon(self) -> None:
        """Drop the deep-quiet horizon after external state mutation."""
        self._deep_left = 0

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
        such processors simply veto the deep lane.
        """
        if self.b.row_sums.any():
            return 0
        own = self.d.diag
        lo, hi = self.trigger.quiet_interval(self.l_old)
        margin = np.minimum(own - lo - 1, hi - own - 1)
        margin = np.minimum(margin, self.l)
        h = int(margin.min()) if self.n else 0
        return h if h > 0 else 0

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

    # -- residual sweeps --------------------------------------------------

    def _residual_sweep(self, frame: _TickFrame) -> None:
        """Scalar stops at slow/dirtied positions, bulk gathers between.

        A min-heap over permutation *positions* holds the pending scalar
        stops — initially the slow-classified processors, extended live
        by the dirty-set hook whenever a balancing operation touches a
        processor whose turn is still ahead (matching the dense lane's
        conservative re-route).  Between consecutive stops every
        processor is provably fast/starved/idle, so those segments apply
        as gathers; the scalar handlers themselves are the inherited
        ones, so RNG draws, trace events and spans are bit-identical.
        """
        order = frame.order
        actions = frame.actions
        n = self.n
        fast_gen, fast_con, starved = frame.fast_gen, frame.fast_con, frame.starved

        # permutation position of each processor, for the dirty hook
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        heap = np.nonzero(frame.slow[order])[0].tolist()  # ascending = heapified
        scheduled = frame.slow.copy()

        pos_now = -1  # position of the stop currently running

        def on_dirty(j: int) -> None:
            # schedule j as a scalar stop iff its turn is still ahead
            # and it would otherwise act in a bulk segment
            if not scheduled[j] and rank[j] > pos_now and actions[j] != 0:
                scheduled[j] = True
                heapq.heappush(heap, int(rank[j]))

        def apply_segment(seg: np.ndarray) -> int:
            # every processor in seg is fast, starved or idle (scheduled
            # stops bound the segment); returns the starved count
            self._apply_fast(seg[fast_gen[seg]], seg[fast_con[seg]])
            return int(np.count_nonzero(starved[seg]))

        dirty = self._dirty
        dirty.hook = on_dirty
        try:
            cursor = 0
            n_starved = 0
            while heap:
                p = heapq.heappop(heap)
                pos_now = p
                if p > cursor:
                    n_starved += apply_segment(order[cursor:p])
                cursor = p + 1
                i = int(order[p])
                if int(actions[i]) == 1:
                    self._generate(i)
                else:
                    self._consume(i)
            if cursor < n:
                pos_now = n
                n_starved += apply_segment(order[cursor:n])
            if n_starved:
                self.counters.starved += n_starved
        finally:
            dirty.hook = None

    def _dense_sweep(self, frame: _TickFrame) -> None:
        """Buffered Python walk for ticks with many scalar stops.

        Walks the permutation, buffering consecutive fast processors and
        flushing the buffer through :meth:`_apply_fast` before each slow
        (or mid-tick-dirtied) processor runs its scalar handler — the
        flush puts the fast run's effects in place first, so the
        interleaving is exact.
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
