"""The full n-processor generator/consumer algorithm (section 4 + appendix).

State per processor ``i`` (kept in compact ledgers across the network,
see :mod:`repro.core.ledger`):

* ``d[i][j]`` — real packets of *virtual load class* ``j`` (class ``j``
  = packets generated by processor ``j``) currently on ``i``;
* ``b[i][j]`` — debts: virtual class-``j`` packets on ``i`` whose real
  packet has already been consumed (see :mod:`repro.core.borrowing`);
* ``l[i] = sum_j d[i][j]`` — real load;
* ``l_old[i]`` — value of the self-generated load ``d[i][i]`` at ``i``'s
  previous balancing operation (trigger reference).

``d`` and ``b`` are :class:`~repro.core.ledger.ClassLedger` instances —
O(active entries) instead of dense ``n x n`` — read and written only
through the ledger's sparse accessors (``get``, ``add``, ``row_sum``,
``diag``, ``row_sums``); ``dense()`` materialises a matrix for tests.

Per global tick every processor performs one action from the workload
model (+1 generate / -1 consume / 0 idle), exactly the paper's timing
model; processors act in a fresh random order each tick so no processor
is systematically first.  Balancing operations happen *inline* when the
factor-``f`` trigger fires, as in the appendix's event loop.

Balancing operation of initiator ``i`` with partners ``M`` (``|M| =
delta``): the ``d`` and ``b`` rows of the ``delta + 1`` participants are
re-dealt with the snake distribution (:mod:`repro.core.balance`),
establishing the appendix's three ±1 invariants; real loads follow from
the ``d`` row sums; ``l_old`` is refreshed for all participants (each
balancing op a processor is involved in counts as one of its local
clock ticks — section 4's analysis; disable with
``refresh_participants=False`` to study the strictly-literal appendix,
which refreshes only the initiator).

The sweep
---------
:meth:`Engine.step` validates the action vector, then runs the tick's
permutation sweep (:meth:`Engine._sweep`).  This scalar sweep is the
oracle: :class:`~repro.core.columnar.ColumnarEngine` replaces
``_sweep`` with a vectorized pass pipeline and must reproduce it bit
for bit — same RNG draw order, same state, same events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.balance import greedy_transfers
from repro.core.borrowing import (
    BorrowCounters,
    eligible_borrow_classes_sparse,
    pick_from_classes,
)
from repro.core.ledger import ClassLedger
from repro.core.selection import CandidateSelector, GlobalRandomSelector
from repro.core.triggers import FactorTrigger, TriggerDecision
from repro.observability.profiler import Profiler
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.params import LBParams
from repro.rng import make_rng

__all__ = ["EngineConfig", "Engine"]

@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Static configuration of an :class:`Engine`."""

    n: int
    params: LBParams
    refresh_participants: bool = True
    strict_trigger: bool = False
    check_invariants: bool = False

    def __post_init__(self) -> None:
        self.params.validate_for_network(self.n)


class Engine:
    """Executable instance of the load balancing algorithm.

    Drive it either one tick at a time (:meth:`step`, passing the action
    vector for this tick) or via
    :func:`~repro.simulation.driver.run_simulation`.

    The engine is deliberately single-threaded: the paper's model is a
    global unit-time clock with per-processor local clocks, which a
    sequential sweep realises exactly (see DESIGN.md, substitutions).
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        rng: int | np.random.Generator | None = 0,
        selector: CandidateSelector | None = None,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        dynnet=None,
    ) -> None:
        self.config = config
        # observability: the hot paths test the cached booleans only, so
        # an untraced/unprofiled run pays a single branch per site (see
        # docs/OBSERVABILITY.md for the event and section catalogue);
        # ``_observed`` is set when either watches the handlers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = bool(self.tracer.enabled)
        self.profiler = profiler
        self._profile = profiler is not None
        self._observed = self._trace or self._profile
        n = config.n
        self.n = n
        self.params = config.params
        self.rng = make_rng(rng)
        # a DynamicNetwork (repro.dynnet) doubles as the selector: it
        # restricts partner draws to the live neighbourhood of the
        # current topology snapshot and delegates to the stock global
        # selector when trivial (complete/static/homogeneous), keeping
        # the RNG stream byte-identical to a run without it
        if dynnet is not None:
            if selector is not None:
                raise ValueError("pass either selector= or dynnet=, not both")
            if dynnet.n != n:
                raise ValueError(f"dynnet has n={dynnet.n}, engine has n={n}")
            dynnet.attach(tracer=self.tracer)
            self.selector = dynnet
        else:
            self.selector = selector or GlobalRandomSelector(n)
        self._dynnet = dynnet
        self.trigger = FactorTrigger(config.params.f, strict=config.strict_trigger)

        self.d = ClassLedger(n)
        self.b = ClassLedger(n)
        self.l = np.zeros(n, dtype=np.int64)
        self.l_old = np.zeros(n, dtype=np.int64)
        self.local_time = np.zeros(n, dtype=np.int64)
        # processors whose state was changed by someone else's balancing
        # op mid-tick; a vectorized sweep (ColumnarEngine) re-routes them
        # to the scalar handlers because their start-of-tick
        # classification is stale
        self._dirty: set[int] = set()

        self.counters = BorrowCounters()
        self.global_time = 0
        self.total_ops = 0
        self.isolated_ops = 0
        self.packets_migrated = 0
        self.total_generated = 0
        self.total_consumed = 0

    # -- public driving interface ---------------------------------------

    def step(self, actions: np.ndarray) -> None:
        """Advance one global tick with the given per-processor actions.

        ``actions[i]`` in ``{-1, 0, +1}``; a consume request on an empty
        processor is counted as *starved* and skipped (the workload
        model expresses desire, availability is the engine's business —
        matching the paper's "consume a locally available packet").
        Any other value (``2``, ``0.5``, ``nan``) raises
        :class:`ValueError` before any load, ledger or RNG state
        changes.
        """
        actions = self._check_actions(actions)
        if self._dynnet is not None:
            # churn events due by this tick reshape the partner pools
            # before anyone acts (global ticks are the sync engine's
            # model time)
            self._dynnet.advance(float(self.global_time))
        self._sweep(actions)
        self.global_time += 1
        if self.config.check_invariants:
            self.assert_invariants()

    def _check_actions(self, actions) -> np.ndarray:
        """The action vector as an integer array of the right shape.

        Integral floats convert once here; anything fractional or
        non-finite is rejected.  The ``{-1, 0, 1}`` range is checked by
        the sweep itself (:meth:`_check_range`), still before it changes
        any state or draws a random number — the columnar engine's
        deep-quiet lane checks it inside its fused C apply, so a
        separate pass here would cost every quiet tick a full scan.
        """
        actions = np.asarray(actions)
        if actions.shape != (self.n,):
            raise ValueError(f"actions must have shape ({self.n},), got {actions.shape}")
        if actions.dtype.kind not in "iu":
            with np.errstate(invalid="ignore"):
                ints = actions.astype(np.int64)
            bad = ints != actions
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"invalid action {actions[i].item()} for processor {i}"
                )
            actions = ints
        return actions

    @staticmethod
    def _check_range(actions: np.ndarray) -> None:
        """Raise on the first action outside ``{-1, 0, 1}``."""
        bad = (actions < -1) | (actions > 1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid action {int(actions[i])} for processor {i}")

    def _sweep(self, actions: np.ndarray) -> None:
        """The tick's event loop: every processor acts once, in a fresh
        random order (the scalar oracle every faster sweep must match)."""
        self._check_range(actions)
        act = actions.tolist()
        for i in self.rng.permutation(self.n).tolist():
            a = act[i]
            if a == 1:
                self._generate(i)
            elif a == -1:
                self._consume(i)

    # -- actions ---------------------------------------------------------

    def _generate(self, i: int) -> None:
        """Appendix, ``x = 1``: repay an outstanding debt if any,
        otherwise book a new self-generated packet."""
        if self.b.row_sums[i] > 0:
            owed = self.b.positive_classes(i)
            j = pick_from_classes(owed, self.rng)
            self.b.add(i, j, -1)
            self.d.add(i, j, 1)
            self.counters.repayments += 1
            if self._trace:
                self.tracer.emit("repay", t=self.global_time, proc=i, cls=j)
        else:
            self.d.diag[i] += 1
            self.d.row_sums[i] += 1
        self.l[i] += 1
        self.total_generated += 1
        self._maybe_balance(i)

    def _consume(self, i: int) -> None:
        """Appendix, ``x = -1``: consume own packet, else borrow."""
        if self.l[i] == 0:
            self.counters.starved += 1
            return
        if self.d.diag[i] >= 1:
            self.d.diag[i] -= 1
            self.d.row_sums[i] -= 1
            self.l[i] -= 1
            self.total_consumed += 1
            self._maybe_balance(i)
            return
        # d[i][i] == 0, l[i] > 0: the borrowing path
        if not self._borrow(i):
            # capacity exhausted or no eligible class: reduce debt first
            self._reduce_debt(i)
            if not self._borrow(i):
                # still nothing eligible (rare): the consume request
                # cannot be honoured this tick
                self.counters.consume_blocked += 1

    # -- borrowing protocol ----------------------------------------------

    def _borrow(self, i: int) -> bool:
        """Try to consume a foreign-class packet against a new debt.

        Allowed when the total debt is below ``C`` and some class has a
        real packet here with no outstanding debt ("at most one packet
        from any load class").  Returns True iff a packet was consumed.
        """
        if int(self.b.row_sums[i]) >= self.params.C:
            return False
        eligible = eligible_borrow_classes_sparse(self.d.rows[i], self.b.rows[i])
        if not eligible:
            return False
        j = eligible[int(self.rng.integers(len(eligible)))]
        self.b.add(i, j, 1)
        self.d.add(i, j, -1)
        self.l[i] -= 1
        self.total_consumed += 1
        self.counters.total_borrow += 1
        if self._trace:
            self.tracer.emit("borrow", t=self.global_time, proc=i, cls=j)
        return True

    def _reduce_debt(self, i: int) -> None:
        """Section-4 debt reduction: pick an owed class ``j``; exchange
        with producer ``j`` if it holds own packets, else run the
        class-``j`` balancing dance."""
        j = pick_from_classes(self.b.positive_classes(i), self.rng)
        if j == i:
            # a debt to one's own class (possible after a re-deal moved
            # the marker here): appendix's final rule — simulated
            # decrease on oneself, no packets move
            count = self.b.get(i, i)
            self.counters.debts_settled += count
            self.b.add(i, i, -count)
            if self._trace:
                self.tracer.emit(
                    "debt_settle", t=self.global_time, proc=i, cls=i,
                    count=count, mechanism="self",
                )
            self._simulated_decrease(i)
            return
        if self.d.diag[j] > 0:
            self._exchange_with_producer(i, j)
        else:
            self._class_balancing_dance(i, j)

    def _exchange_with_producer(self, i: int, j: int) -> None:
        """Remote borrow (``d[j][j] > 0``): ``x = min(d[j][j], sum_k
        b[i][k])`` real packets migrate ``j -> i`` and back ``x`` debts
        of ``i`` (class ``j``'s debts first); ``j`` books the virtual
        consumption as a simulated workload decrease of ``x``.
        """
        x = min(int(self.d.diag[j]), int(self.b.row_sums[i]))
        assert x >= 1
        self.counters.remote_borrow += 1
        self._dirty.add(i)
        self._dirty.add(j)
        if self._trace:
            self.tracer.emit(
                "exchange", t=self.global_time, debtor=i, producer=j, amount=x
            )
        cleared = 0
        # clear class-j debts first so class j becomes borrow-eligible
        take = min(self.b.get(i, j), x)
        if take:
            self.b.add(i, j, -take)
            self.d.add(i, j, take)
            cleared += take
            if self._trace:
                self.tracer.emit(
                    "debt_settle", t=self.global_time, proc=i, cls=j,
                    count=take, mechanism="exchange",
                )
        while cleared < x:
            k = pick_from_classes(self.b.positive_classes(i), self.rng)
            self.b.add(i, k, -1)
            self.d.add(i, k, 1)
            cleared += 1
            if self._trace:
                self.tracer.emit(
                    "debt_settle", t=self.global_time, proc=i, cls=k,
                    count=1, mechanism="exchange",
                )
        self.counters.debts_settled += x
        self.l[i] += x
        self.d.diag[j] -= x
        self.d.row_sums[j] -= x
        self.l[j] -= x
        self.packets_migrated += x
        if self._trace:
            self.tracer.emit(
                "transfer", t=self.global_time, src=j, dst=i,
                amount=x, cause="exchange",
            )
        self._simulated_decrease(j)

    def _class_balancing_dance(self, i: int, j: int) -> None:
        """Borrow-fail path (``d[j][j] == 0``): section 4's class-``j``
        balancing among ``j``, ``delta`` random partners and ``i``.

        Operationally: balance the class-``j`` entries (``d`` and ``b``)
        over the group, then settle one debt of ``i``: if any group
        member now holds a real class-``j`` packet it migrates to ``i``
        and backs the debt; otherwise the debt annihilates at its
        producer ``j`` (who books a simulated decrease).
        """
        self.counters.borrow_fail += 1
        partners = self.selector.select(j, self.params.delta, self.rng)
        group_set = {j, i}
        group_set.update(partners.tolist())
        group_list = sorted(group_set)
        k = len(group_list)
        self._dirty.update(group_list)
        if self._trace:
            self.tracer.emit(
                "dance", t=self.global_time, debtor=i, cls=j,
                group=group_list,
            )

        # virtual balancing of class j across the group (expectation-
        # invariant: all participants' class-j entries go to the mean);
        # single-class even ±1 split with a random remainder start —
        # the one-column case of the snake distribution
        load = self.l
        for mat in (self.d, self.b):
            col = [mat.get(p, j) for p in group_list]
            total = sum(col)
            start = int(self.rng.integers(k))
            base, rem = divmod(total, k)
            dealt = [
                base + (1 if (q - start) % k < rem else 0) for q in range(k)
            ]
            moved = 0
            for q, p in enumerate(group_list):
                diff = dealt[q] - col[q]
                if diff > 0:
                    moved += diff
                if diff:
                    mat.add(p, j, diff)
            if mat is self.d:
                self.packets_migrated += moved
                for q, p in enumerate(group_list):
                    load[p] += dealt[q] - col[q]
                if self._trace:
                    for src, dst, amount in greedy_transfers(
                        group_list, col, dealt
                    ):
                        self.tracer.emit(
                            "transfer", t=self.global_time, src=src, dst=dst,
                            amount=amount, cause="dance",
                        )

        if self.b.get(i, j) == 0:
            # the debt migrated away from i during the re-deal; whoever
            # holds it now is left to resolve it later
            return
        holders = [p for p in group_list if self.d.get(p, j) > 0]
        if holders:
            p = pick_from_classes(holders, self.rng)
            self.d.add(p, j, -1)
            self.l[p] -= 1
            self.b.add(i, j, -1)
            self.d.add(i, j, 1)
            self.l[i] += 1
            self.counters.debts_settled += 1
            self.packets_migrated += 1
            if self._trace:
                self.tracer.emit(
                    "transfer", t=self.global_time, src=p, dst=i,
                    amount=1, cause="dance",
                )
                self.tracer.emit(
                    "debt_settle", t=self.global_time, proc=i, cls=j,
                    count=1, mechanism="dance",
                )
            self._simulated_decrease(j)
        else:
            # no real class-j packet anywhere in the group: the debt
            # annihilates at its producer (a pure virtual consumption)
            self.b.add(i, j, -1)
            self.counters.debt_annihilated += 1
            self.counters.debts_settled += 1
            if self._trace:
                self.tracer.emit(
                    "debt_settle", t=self.global_time, proc=i, cls=j,
                    count=1, mechanism="annihilate",
                )
            self._simulated_decrease(j)

    def _simulated_decrease(self, j: int) -> None:
        """Processor ``j`` books a virtual consumption of own-class load
        (its ``d[j][j]`` shrank on behalf of a debtor); this may fire
        ``j``'s decrease trigger."""
        self.counters.decrease_sim += 1
        self._maybe_balance(j)

    # -- balancing ---------------------------------------------------------

    def _maybe_balance(self, i: int) -> None:
        own, old = int(self.d.diag[i]), int(self.l_old[i])
        if self._profile:
            with self.profiler.section("triggers.check"):
                decision = self.trigger.check(own, old)
        else:
            decision = self.trigger.check(own, old)
        if decision is TriggerDecision.NONE:
            return
        if self._trace:
            self.tracer.emit(
                "trigger", t=self.global_time, proc=i,
                decision=decision.value, own_load=own, l_old=old,
            )
        self._balance(i)

    def _balance(self, i: int) -> None:
        """One balancing operation initiated by ``i`` (appendix)."""
        delta = self.params.delta
        if self._profile:
            with self.profiler.section("selection.select"):
                partners = self.selector.select(i, delta, self.rng)
        else:
            partners = self.selector.select(i, delta, self.rng)
        if len(partners) == 0:
            # isolated under the current topology snapshot (a dynamic
            # network can churn every live neighbour away): nobody to
            # balance with — re-anchor the trigger reference so the
            # trigger does not refire on every subsequent local change
            self.isolated_ops += 1
            self.l_old[i] = self.d.diag[i]
            self.local_time[i] += 1
            return
        part_ids = [i] + [int(p) for p in partners]
        k = len(part_ids)
        self._dirty.update(part_ids)
        if self._trace:
            self.tracer.emit(
                "partner_select", t=self.global_time, initiator=i,
                partners=part_ids[1:],
            )

        load = self.l
        old_l = [int(load[p]) for p in part_ids]
        start_d = int(self.rng.integers(k))
        if self._profile:
            with self.profiler.section("ledger.snake_redeal"):
                new_l = self.d.snake_redeal(part_ids, start_d)
        else:
            new_l = self.d.snake_redeal(part_ids, start_d)
        # the b-row start is drawn unconditionally to keep the generator
        # stream identical whether or not any debts are present
        start_b = int(self.rng.integers(k))
        brs = self.b.row_sums
        if any(brs[p] for p in part_ids):
            if self._profile:
                with self.profiler.section("ledger.snake_redeal"):
                    self.b.snake_redeal(part_ids, start_b)
            else:
                self.b.snake_redeal(part_ids, start_b)
        moved = 0
        for q, p in enumerate(part_ids):
            nl = new_l[q]
            diff = nl - old_l[q]
            if diff > 0:
                moved += diff
            load[p] = nl
        self.packets_migrated += moved

        if self._trace:
            self.tracer.emit(
                "balance", t=self.global_time, initiator=i,
                participants=part_ids, loads_before=old_l,
                loads_after=new_l, migrated=moved,
            )
            for src, dst, amount in greedy_transfers(part_ids, old_l, new_l):
                self.tracer.emit(
                    "transfer", t=self.global_time, src=src, dst=dst,
                    amount=amount, cause="balance",
                )

        self.total_ops += 1
        diag = self.d.diag
        l_old = self.l_old
        local_time = self.local_time
        if self.config.refresh_participants:
            for p in part_ids:
                l_old[p] = diag[p]
                local_time[p] += 1
        else:
            l_old[i] = diag[i]
            local_time[i] += 1

        # appendix final rule: a debt to one's own class resolves by a
        # simulated decrease on oneself (the virtual packets vanish; no
        # real load changes, the trigger reference is already refreshed)
        for p in part_ids:
            if self.b.diag[p] > 0:
                self.counters.decrease_sim += 1
                count = self.b.get(p, p)
                self.counters.debts_settled += count
                self.b.add(p, p, -count)
                if self._trace:
                    self.tracer.emit(
                        "debt_settle", t=self.global_time, proc=p,
                        cls=p, count=count, mechanism="self",
                    )

    # -- introspection ------------------------------------------------------

    def assert_invariants(self) -> None:
        """Raise AssertionError if a conservation law is violated.

        Laws (see :mod:`repro.core.borrowing`):

        1. all of ``d``, ``b``, ``l`` non-negative;
        2. ``l[i] == sum_j d[i][j]`` (real load = real packets);
        3. ``sum l == total_generated - total_consumed`` (real packets
           are conserved by balancing and migration);
        4. ``sum b == total_borrow - repayments - debts_settled``
           (debt ledger closes);
        5. every ``b`` entry is 0 or 1: a borrow needs ``b[i][j] == 0``,
           the snake re-deal deals a class total of at most ``k`` over
           ``k`` participants, and the dance deals a column whose total
           is at most the group size.

        Additionally the ledgers' internal caches are verified (row-sum
        cache vs stored entries, pruned zeros), and at small ``n`` the
        sparse representation is cross-checked against its materialised
        dense form entry by entry.
        """
        self.d.check_consistency()
        self.b.check_consistency()
        if self.d.min_value() < 0:
            raise AssertionError("negative d entry")
        if self.b.min_value() < 0:
            raise AssertionError("negative b entry")
        if self.b.max_value() > 1:
            raise AssertionError(f"b entry {self.b.max_value()} above 1")
        if (self.l < 0).any():
            raise AssertionError("negative load")
        if not np.array_equal(self.d.row_sums, self.l):
            raise AssertionError("l != row sums of d")
        if self.n <= 64:
            # dense cross-check: materialise and re-derive
            for led, name in ((self.d, "d"), (self.b, "b")):
                dense = led.dense()
                if not np.array_equal(dense.sum(axis=1), led.row_sums):
                    raise AssertionError(
                        f"{name}: dense row sums disagree with sparse cache"
                    )
                if not np.array_equal(np.diagonal(dense), led.diag):
                    raise AssertionError(
                        f"{name}: dense diagonal disagrees with sparse diag"
                    )
        net = self.total_generated - self.total_consumed
        if int(self.l.sum()) != net:
            raise AssertionError(
                f"real load {int(self.l.sum())} != generated-consumed {net}"
            )
        c = self.counters
        expect_debt = c.total_borrow - c.repayments - c.debts_settled
        if self.b.total() != expect_debt:
            raise AssertionError(
                f"debt ledger open: sum b = {self.b.total()}, "
                f"expected {expect_debt}"
            )

    def loads_snapshot(self) -> np.ndarray:
        """Copy of the current real load vector."""
        return self.l.copy()
