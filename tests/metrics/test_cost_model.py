"""Tests for the hop-weighted cost model."""

import numpy as np
import pytest

from repro import Engine, EngineConfig, LBParams
from repro.core.selection import NeighborhoodSelector
from repro.metrics.cost_model import price_events
from repro.network import CompleteGraph, Ring
from repro.observability.tracer import Tracer


def balance_event(initiator, participants, before, after, t=0):
    """A trace ``balance`` event as the engines emit it."""
    return {
        "type": "balance", "seq": 0, "t": t, "initiator": initiator,
        "participants": list(participants), "loads_before": list(before),
        "loads_after": list(after),
        "migrated": sum(max(a - b, 0) for a, b in zip(after, before)),
    }


def synthetic_event(src=0, dst=2, amount=3, t=0):
    return balance_event(src, (src, dst), (2 * amount, 0), (amount, amount), t)


class TestPriceEvents:
    def test_complete_graph_one_hop(self):
        cost = price_events([synthetic_event()], CompleteGraph(4))
        assert cost.packet_hops == 3  # 3 packets x 1 hop
        assert cost.control_messages == 2
        assert cost.control_hops == 2
        assert cost.mean_hops_per_packet == pytest.approx(1.0)

    def test_ring_distance_weighted(self):
        # ring of 8: distance 0 -> 4 is 4 hops
        ev = balance_event(0, (0, 4), (6, 0), (3, 3))
        cost = price_events([ev], Ring(8))
        assert cost.packet_hops == 3 * 4
        assert cost.control_hops == 2 * 4

    def test_other_event_types_skipped(self):
        other = {"type": "transfer", "seq": 1, "t": 0, "src": 0, "dst": 4,
                 "amount": 3, "cause": "exchange"}
        cost = price_events([synthetic_event(), other], CompleteGraph(4))
        assert cost.operations == 1
        assert cost.packets_moved == 3

    def test_empty_trace(self):
        cost = price_events([], Ring(4))
        assert cost.operations == 0
        assert cost.mean_cost_per_op == 0.0
        assert cost.mean_hops_per_packet == 0.0

    def test_as_dict_keys(self):
        d = price_events([synthetic_event()], CompleteGraph(4)).as_dict()
        assert set(d) >= {"operations", "packet_hops", "mean_cost_per_op"}


class TestEndToEndCosts:
    def _run(self, selector, topo, seed=3):
        tracer = Tracer()
        e = Engine(
            EngineConfig(n=topo.n, params=LBParams(f=1.2, delta=1, C=4)),
            rng=seed,
            selector=selector,
            tracer=tracer,
        )
        rng = np.random.default_rng(seed)
        for _ in range(150):
            e.step((rng.random(topo.n) < 0.7).astype(np.int64))
        cost = price_events(tracer, topo)
        assert cost.operations == e.total_ops
        return cost

    def test_locality_cuts_hops_on_ring(self):
        """The point of the cost model: neighbourhood candidates pay
        1 hop/packet on a ring, global candidates pay ~n/4."""
        from repro.core.selection import GlobalRandomSelector

        topo = Ring(16)
        local = self._run(NeighborhoodSelector(topo.neighborhood_pools(1)), topo)
        global_ = self._run(GlobalRandomSelector(16), topo)
        assert local.mean_hops_per_packet == pytest.approx(1.0)
        assert global_.mean_hops_per_packet > 2.0
