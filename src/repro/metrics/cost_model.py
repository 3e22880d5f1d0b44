"""Hop-weighted communication cost model.

The paper's analysis charges every balancing operation O(1) regardless
of distance, justified by wormhole routing (section 2).  This module
quantifies what that abstraction hides: given the ``balance`` events of
an engine's trace (:class:`~repro.observability.tracer.Tracer`) and a
concrete :class:`~repro.network.topology.Topology`, it prices

* **packet-hops** — every migrated packet times the hop distance it
  travelled (reconstructed from the event's minimal transfer set,
  :func:`~repro.core.balance.greedy_transfers`);
* **control messages** — each balancing operation needs one
  request/reply exchange between the initiator and each partner.

The A2 ablation uses this to show *why* locality-restricted candidate
pools are attractive despite their slightly worse balance: global
random partners on a ring pay ~n/4 hops per packet, neighbourhood
partners pay 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.balance import greedy_transfers
from repro.network.topology import Topology

__all__ = ["CostBreakdown", "price_events"]


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Aggregate communication cost of a simulation run."""

    operations: int
    packets_moved: int
    packet_hops: int
    control_messages: int
    control_hops: int

    @property
    def mean_hops_per_packet(self) -> float:
        if self.packets_moved == 0:
            return 0.0
        return self.packet_hops / self.packets_moved

    @property
    def mean_cost_per_op(self) -> float:
        if self.operations == 0:
            return 0.0
        return (self.packet_hops + self.control_hops) / self.operations

    def as_dict(self) -> dict[str, float]:
        return {
            "operations": self.operations,
            "packets_moved": self.packets_moved,
            "packet_hops": self.packet_hops,
            "control_messages": self.control_messages,
            "control_hops": self.control_hops,
            "mean_hops_per_packet": self.mean_hops_per_packet,
            "mean_cost_per_op": self.mean_cost_per_op,
        }


def price_events(
    events: Iterable[Mapping], topology: Topology
) -> CostBreakdown:
    """Price the ``balance`` events of a trace on a topology.

    Every other event type is skipped, so a whole tracer (or its NDJSON
    export) can be passed as is.  Packet transfers use each operation's
    greedy minimal transfer set (:func:`~repro.core.balance.
    greedy_transfers`, the set the ``transfer`` events with
    ``cause="balance"`` carry); the exchange and dance shipments of the
    borrowing protocol are not priced.  Control traffic is one round
    trip initiator <-> partner per partner (2 messages each,
    hop-weighted).
    """
    dist = topology.distances()
    ops = 0
    moved = 0
    packet_hops = 0
    ctrl_msgs = 0
    ctrl_hops = 0
    for ev in events:
        if ev["type"] != "balance":
            continue
        ops += 1
        initiator = ev["initiator"]
        participants = ev["participants"]
        for p in participants:
            if p == initiator:
                continue
            ctrl_msgs += 2
            ctrl_hops += 2 * int(dist[initiator, p])
        for src, dst, amount in greedy_transfers(
            participants, ev["loads_before"], ev["loads_after"]
        ):
            moved += amount
            packet_hops += amount * int(dist[src, dst])
    return CostBreakdown(
        operations=ops,
        packets_moved=moved,
        packet_hops=packet_hops,
        control_messages=ctrl_msgs,
        control_hops=ctrl_hops,
    )
