"""The practical balancer: synchronous, host-callback driven.

The analysed engine (:mod:`repro.core.engine`) needs virtual load
classes and debts to make the proof compositional; the deployed
algorithm of [7, 8] watches the *total* local load and ships whatever
packets the balancing operation says to ship.  This class implements
that variant against the standard ``Balancer`` protocol, and — the part
the task runtime needs — reports every load-changing micro-event to a
:class:`BalancerHooks` object *inline, in execution order*:

``on_generate(i)`` / ``on_consume(i)`` / ``on_starved(i)`` /
``on_transfer(src, dst, amount)`` / ``on_crash(i)`` / ``on_recover(i)``.

Inline ordering matters: within one tick a processor may consume, then
a balancing operation triggered elsewhere may ship packets away; a host
that replays the events in any other order can transiently underflow
its queues.  With inline callbacks the host's per-processor task queues
stay in lock-step with the balancer's load vector (the
:class:`~repro.runtime.machine.TaskMachine` asserts exactly that).

Fault model (``faults=`` with a :class:`~repro.faults.plan.FaultPlan`,
window times read as tick indices): a crashed processor takes no
workload action, never triggers, is filtered out of every partner set
and receives no transfers.  Its *volatile* load is lost at the crash —
``on_crash(i)`` fires first (so the host can stash task descriptors
from its durable lineage log), then the load entry is zeroed.  At the
window's end ``on_recover(i)`` fires and the host re-injects the lost
work (see :class:`~repro.runtime.machine.TaskMachine` and
``docs/RESILIENCE.md``).  Message loss and stragglers are asynchronous
phenomena and have no synchronous-tick counterpart; partitions are
honoured through the partner filter.
"""

from __future__ import annotations

import numpy as np

from repro.core.balance import even_split, greedy_transfers
from repro.core.selection import CandidateSelector, GlobalRandomSelector
from repro.core.triggers import FactorTrigger, TriggerDecision
from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import FaultPlan
from repro.params import LBParams
from repro.rng import make_rng

__all__ = ["BalancerHooks", "PracticalBalancer"]


class BalancerHooks:
    """No-op hook base; hosts override what they need."""

    def on_generate(self, i: int) -> None: ...

    def on_consume(self, i: int) -> None: ...

    def on_starved(self, i: int) -> None: ...

    def on_transfer(self, src: int, dst: int, amount: int) -> None: ...

    def on_crash(self, i: int) -> None: ...

    def on_recover(self, i: int) -> None: ...


class PracticalBalancer:
    """Total-load factor-trigger balancing with inline event hooks.

    Protocol-compatible with :class:`repro.simulation.driver.Simulation`
    (``step`` / ``loads_snapshot``); every shipment reaches the host
    through ``hooks.on_transfer``.
    """

    def __init__(
        self,
        n: int,
        params: LBParams,
        *,
        rng: int | np.random.Generator | None = 0,
        selector: CandidateSelector | None = None,
        hooks: BalancerHooks | None = None,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> None:
        params.validate_for_network(n)
        self.n = n
        self.params = params
        self.rng = make_rng(rng)
        self.selector = selector or GlobalRandomSelector(n)
        self.trigger = FactorTrigger(params.f)
        self.hooks = hooks or BalancerHooks()
        self.faults = as_injector(faults)
        if self.faults is not None:
            self.faults.plan.validate_for_network(n)
        self.l = np.zeros(n, dtype=np.int64)
        self.l_old = np.zeros(n, dtype=np.int64)
        self.tick_count = 0
        self.total_ops = 0
        self.dropped_ops = 0
        self.packets_migrated = 0
        self.starved = 0
        self.crash_events = 0
        self._crashed_now = np.zeros(n, dtype=bool)

    def step(self, actions: np.ndarray) -> None:
        """One tick: apply actions and service triggers, inline."""
        actions = np.asarray(actions)
        if actions.shape != (self.n,):
            raise ValueError(
                f"actions must have shape ({self.n},), got {actions.shape}"
            )
        if self.faults is not None:
            self._fault_transitions(float(self.tick_count))
        for i in self.rng.permutation(self.n):
            if self._crashed_now[i]:
                continue  # fail-stop: no action, no trigger
            a = int(actions[i])
            if a == 1:
                self.l[i] += 1
                self.hooks.on_generate(int(i))
            elif a == -1:
                if self.l[i] > 0:
                    self.l[i] -= 1
                    self.hooks.on_consume(int(i))
                else:
                    self.starved += 1
                    self.hooks.on_starved(int(i))
            elif a != 0:
                raise ValueError(f"invalid action {a}")
            self._maybe_balance(int(i))
        self.tick_count += 1

    def _fault_transitions(self, t: float) -> None:
        """Enter/leave crash windows; hooks fire on the transitions.

        ``on_crash`` runs *before* the load entry is zeroed so the host
        can read its (still lock-stepped) queues to derive the lost
        task set from its lineage log; ``on_recover`` runs after the
        balancer state is reset, and the host re-injects the recovered
        tasks as pending generations.
        """
        for i in range(self.n):
            crashed = self.faults.crashed(i, t)
            if crashed and not self._crashed_now[i]:
                self.crash_events += 1
                self.hooks.on_crash(i)
                self._crashed_now[i] = True
                self.l[i] = 0
                self.l_old[i] = 0
            elif not crashed and self._crashed_now[i]:
                self._crashed_now[i] = False
                self.l_old[i] = self.l[i]
                self.hooks.on_recover(i)

    def _maybe_balance(self, i: int) -> None:
        decision = self.trigger.check(int(self.l[i]), int(self.l_old[i]))
        if decision is TriggerDecision.NONE:
            return
        partners = self.selector.select(i, self.params.delta, self.rng)
        if self.faults is not None:
            t = float(self.tick_count)
            partners = [
                int(p)
                for p in partners
                if not self.faults.partner_declines(i, int(p), t)
            ]
            if not partners:
                # whole partner set dark: drop the operation and
                # re-anchor, as the asynchronous engine does on give-up
                self.dropped_ops += 1
                self.l_old[i] = self.l[i]
                return
        parts = [i] + [int(p) for p in partners]
        before = self.l[parts].tolist()
        after = even_split(
            sum(before), len(parts), start=int(self.rng.integers(len(parts)))
        )
        self.l[parts] = after
        self.l_old[parts] = after
        self.total_ops += 1
        # the greedy minimal transfer set, emitted inline
        for src, dst, amount in greedy_transfers(parts, before, after.tolist()):
            self.packets_migrated += amount
            self.hooks.on_transfer(src, dst, amount)

    def loads_snapshot(self) -> np.ndarray:
        return self.l.copy()
