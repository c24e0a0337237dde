"""Engine-level behaviour: single messages, timing, drains, watchdog."""

import pytest

from repro import (
    GraphTopology,
    Message,
    MinimalAdaptive,
    NetworkDeadlockError,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.verify.reference import ReferenceEngine


def build_engine(
    radix=4,
    dims=2,
    num_vcs=1,
    buffer_depth=2,
    mode=ProtocolMode.CR,
    topology=None,
    **engine_kwargs,
):
    topology = topology or torus(radix, dims)
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        num_vcs=num_vcs,
        buffer_depth=buffer_depth,
    )
    protocol = ProtocolConfig(mode=mode)
    return ReferenceEngine(network, protocol=protocol, seed=1, **engine_kwargs)


def send_one(engine, src, dst, length=4, max_cycles=500):
    msg = Message(src, dst, length, created_at=engine.now,
                  seq=engine.next_seq(src, dst))
    assert engine.admit(msg)
    for _ in range(max_cycles):
        if msg.delivered:
            break
        engine.step()
    return msg


class TestSingleMessage:
    def test_neighbour_delivery(self):
        engine = build_engine()
        msg = send_one(engine, 0, 1)
        assert msg.delivered
        assert msg.header_consumed_at is not None

    def test_delivery_across_diameter(self):
        engine = build_engine()
        topo = engine.topology
        src = topo.node_at((0, 0))
        dst = topo.node_at((2, 2))
        msg = send_one(engine, src, dst)
        assert msg.delivered

    def test_latency_scales_with_wire_length(self):
        # An uncontended worm delivers in O(hops + wire length).
        engine = build_engine()
        msg = send_one(engine, 0, 1, length=4)
        hops = engine.topology.min_distance(0, 1)
        assert msg.delivered_at is not None
        assert msg.delivered_at >= hops + msg.wire_length
        assert msg.delivered_at <= hops * 3 + msg.wire_length + 10

    def test_padding_applied_under_cr(self):
        engine = build_engine(mode=ProtocolMode.CR)
        msg = send_one(engine, 0, 1, length=2)
        assert msg.wire_length > msg.payload_length
        assert msg.pad_flits_sent == msg.wire_length - msg.payload_length

    def test_no_padding_under_plain(self):
        engine = build_engine(mode=ProtocolMode.PLAIN)
        msg = send_one(engine, 0, 1, length=2)
        assert msg.wire_length == 2

    def test_commit_before_delivery(self):
        engine = build_engine()
        msg = send_one(engine, 0, 1)
        assert msg.committed_at is not None
        assert msg.delivered_at is not None
        assert msg.committed_at <= msg.delivered_at

    def test_padding_lemma_header_before_commit(self):
        engine = build_engine()
        topo = engine.topology
        msg = send_one(engine, 0, topo.node_at((2, 1)), length=3)
        assert msg.header_consumed_at is not None
        assert msg.header_consumed_at <= msg.committed_at


class TestNetworkHygiene:
    def test_clean_state_after_drain(self):
        engine = build_engine()
        for dst in (1, 5, 12, 15):
            send_one(engine, 0, dst)
        send_one(engine, 7, 2)
        # All buffers empty, no ownership, full credits everywhere.
        for router in engine.routers:
            assert not router.claims
            assert not router.out_owner
            for port_bufs in router.in_buffers:
                for buf in port_bufs:
                    assert buf.occupancy == 0
                    assert buf.owner is None
        for _ in range(5):
            engine.step()  # let last credits tick home
        for channel in engine.network.all_channels():
            if channel.is_ejection:
                continue
            for vc in range(channel.num_vcs):
                assert channel.credits[vc] == channel.sinks[vc].depth

    def test_run_until_drained(self):
        engine = build_engine()
        msg = Message(0, 5, 4, seq=engine.next_seq(0, 5))
        engine.admit(msg)
        assert engine.run_until_drained(500)
        assert msg.delivered

    def test_admit_respects_queue_cap(self):
        engine = build_engine(queue_cap=2)
        assert engine.admit(Message(0, 1, 4))
        assert engine.admit(Message(0, 2, 4))
        assert not engine.admit(Message(0, 3, 4))
        assert engine.stats.counters["generation_blocked"] == 1


class TestWatchdog:
    #: a 4-node ring with clockwise links only
    RING = GraphTopology.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], bidirectional=False
    )

    @staticmethod
    def _ring_pattern(engine):
        """Messages 0->2, 1->3, 2->0, 3->1 on the clockwise ring.

        Every worm holds channel i->i+1 and waits for (i+1)->(i+2): a
        textbook channel-dependency cycle.
        """
        messages = []
        for src in range(4):
            msg = Message(src, (src + 2) % 4, 40, seq=src)
            engine.admit(msg)
            messages.append(msg)
        return messages

    def test_fires_on_wedged_plain_adaptive(self):
        engine = build_engine(
            topology=self.RING, mode=ProtocolMode.PLAIN, watchdog=300
        )
        self._ring_pattern(engine)
        with pytest.raises(NetworkDeadlockError):
            for _ in range(5000):
                engine.step()

    def test_cr_breaks_the_same_pattern(self):
        engine = build_engine(
            topology=self.RING, mode=ProtocolMode.CR, watchdog=5000
        )
        messages = self._ring_pattern(engine)
        assert engine.run_until_drained(20000)
        assert all(m.delivered for m in messages)
        assert engine.stats.counters["kills"] >= 1
