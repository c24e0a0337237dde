"""Dimension-order routing: determinism, datelines, deadlock freedom."""

import random

import pytest

from repro import (
    DimensionOrder,
    Message,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.network.channel import Channel
from repro.topology.torus import KAryNCube
from repro.verify.reference import ReferenceEngine


class TestVcRequirements:
    def test_torus_needs_two(self):
        assert DimensionOrder(torus(4, 2)).min_vcs() == 2

    def test_mesh_needs_one(self):
        assert DimensionOrder(KAryNCube(4, 2, wrap=False)).min_vcs() == 1

    def test_network_rejects_too_few_vcs(self):
        topo = torus(4, 2)
        with pytest.raises(ValueError, match="VCs"):
            WormholeNetwork(topo, DimensionOrder(topo), num_vcs=1)

    def test_lane_count(self):
        routing = DimensionOrder(torus(4, 2))
        assert routing.num_lanes(2) == 1
        assert routing.num_lanes(4) == 2
        with pytest.raises(ValueError):
            routing.num_lanes(1)


class TestDatelineState:
    def _hop(self, routing, msg, dim, wrap):
        channel = Channel(0, 1, num_vcs=2)
        channel.dim = dim
        channel.is_wrap = wrap
        routing.on_header_hop(msg, channel)

    def test_wrap_sets_bit(self):
        routing = DimensionOrder(torus(4, 2))
        msg = Message(0, 5, 4)
        self._hop(routing, msg, dim=0, wrap=False)
        assert msg.dateline_bit == 0
        self._hop(routing, msg, dim=0, wrap=True)
        assert msg.dateline_bit == 1

    def test_dimension_change_resets_bit(self):
        routing = DimensionOrder(torus(4, 2))
        msg = Message(0, 5, 4)
        self._hop(routing, msg, dim=0, wrap=True)
        assert msg.dateline_bit == 1
        self._hop(routing, msg, dim=1, wrap=False)
        assert msg.dateline_bit == 0

    def test_lane_assignment_randomised(self):
        routing = DimensionOrder(torus(4, 2))
        rng = random.Random(0)
        lanes = set()
        for _ in range(16):
            msg = Message(0, 5, 4)
            routing.assign_lane(msg, rng)
            lanes.add(msg.lane % routing.num_lanes(4))
        assert lanes == {0, 1}


class TestDeadlockFreedom:
    @pytest.mark.parametrize("topo_factory", [
        lambda: torus(4, 2), lambda: KAryNCube(4, 2, wrap=False),
    ])
    def test_saturating_plain_wormhole_drains(self, topo_factory):
        """DOR with dateline VCs never deadlocks, even saturated."""
        topology = topo_factory()
        routing = DimensionOrder(topology)
        network = WormholeNetwork(
            topology, routing, num_vcs=routing.min_vcs()
        )
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
            seed=3,
            watchdog=3000,
        )
        rng = random.Random(5)
        messages = []
        for src in range(topology.num_nodes):
            for _ in range(3):
                dst = rng.randrange(topology.num_nodes)
                if dst == src:
                    continue
                msg = Message(src, dst, 12, seq=engine.next_seq(src, dst))
                engine.admit(msg)
                messages.append(msg)
        assert engine.run_until_drained(30000)
        assert all(m.delivered for m in messages)
        assert engine.stats.counters.get("kills", 0) == 0

    def test_route_is_dimension_ordered(self):
        topology = torus(4, 2)
        routing = DimensionOrder(topology)
        network = WormholeNetwork(topology, routing, num_vcs=2)
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
            seed=0,
        )
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 3))
        msg = Message(src, dst, 4, seq=0)
        engine.admit(msg)
        engine.run_until_drained(500)
        assert msg.delivered
        dims = [
            seg.feeder.dim
            for seg in msg.segments
            if seg.feeder is not None and not seg.feeder.is_injection
        ]
        assert dims == sorted(dims), "hops must complete dim 0 before dim 1"
