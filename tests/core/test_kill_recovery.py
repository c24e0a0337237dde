"""Kill, teardown, and retransmission behaviour."""

from repro import (
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    StaticGap,
    FixedTimeout,
    WormholeNetwork,
    torus,
)
from repro.core.protocol import MessagePhase
from repro.verify.reference import ReferenceEngine


def cr_engine(radix=4, dims=2, **protocol_kwargs):
    topology = torus(radix, dims)
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        num_vcs=1,
        buffer_depth=2,
    )
    protocol = ProtocolConfig(mode=ProtocolMode.CR, **protocol_kwargs)
    return ReferenceEngine(network, protocol=protocol, seed=13, watchdog=5000)


def network_is_clean(engine):
    for router in engine.routers:
        if router.claims or router.out_owner:
            return False
        for port_bufs in router.in_buffers:
            for buf in port_bufs:
                if buf.occupancy or buf.owner is not None:
                    return False
    return True


class TestDeadChannelRecovery:
    def test_kill_and_reroute_around_dead_channel(self):
        """Worms that wander into a dead-end time out, die, and random
        retries eventually find the live minimal path.

        The trap: for (0,0)->(1,1), kill (1,0)->(1,1).  A worm that
        chose dim 0 first reaches (1,0), finds its only productive link
        dead, stalls, and must be killed; only retries that choose dim 1
        first can deliver.  This is the paper's permanent-fault story --
        and why CR pairs recovery with *random* selection (a
        deterministic selector would retry into the trap forever).
        """
        engine = cr_engine(timeout=FixedTimeout(16), backoff=StaticGap(4))
        topology = engine.topology
        src = topology.node_at((0, 0))
        dst = topology.node_at((1, 1))
        trap = topology.node_at((1, 0))
        engine.network.find_link(trap, dst).dead = True
        messages = []
        for seq in range(10):
            msg = Message(src, dst, 4, seq=seq)
            engine.admit(msg)
            messages.append(msg)
        assert engine.run_until_drained(20000)
        assert all(m.delivered for m in messages)
        # With ten messages and 50/50 first-hop choice, some attempts
        # must have entered the trap and been killed.
        assert sum(m.kills for m in messages) >= 1
        assert network_is_clean(engine)

    def test_retry_limit_marks_failed(self):
        engine = cr_engine(
            timeout=FixedTimeout(8),
            backoff=StaticGap(2),
            retry_limit=3,
        )
        topology = engine.topology
        src = topology.node_at((0, 0))
        dst = topology.node_at((0, 1))
        # Sole minimal direction; kill both rings out of the source in
        # dim 1 so every attempt stalls.
        engine.network.find_link(src, dst).dead = True
        msg = Message(src, dst, 4, seq=0)
        engine.admit(msg)
        engine.run_until_drained(4000)
        assert msg.phase is MessagePhase.FAILED
        assert msg.kills == 4  # retry_limit + the final exceeding kill
        assert engine.stats.counters["messages_failed"] == 1
        assert network_is_clean(engine)


class TestKillAccounting:
    def test_kill_statistics_recorded(self):
        engine = cr_engine(timeout=FixedTimeout(8), backoff=StaticGap(2))
        topology = engine.topology
        src = topology.node_at((0, 0))
        mid = topology.node_at((1, 0))
        dst = topology.node_at((2, 0))
        blocker_dst = topology.node_at((3, 0))
        # Park a long worm across src->mid->dst to stall the victim.
        blocker = Message(src, blocker_dst, 60, seq=0)
        engine.admit(blocker)
        for _ in range(3):
            engine.step()
        victim = Message(src, dst, 4, seq=1)
        engine.admit(victim)
        engine.run_until_drained(8000)
        assert victim.delivered
        assert blocker.delivered
        report = engine.stats.report()
        assert report.get("kills", 0) == victim.kills + blocker.kills
        if victim.kills:
            assert report.get("retransmissions", 0) >= 1

    def test_killed_partial_delivery_discarded(self):
        """Headers of killed attempts reach the receiver but only the
        successful attempt delivers (exactly-once)."""
        engine = cr_engine(timeout=FixedTimeout(8), backoff=StaticGap(2))
        topology = engine.topology
        pairs = [
            (topology.node_at((0, 0)), topology.node_at((2, 2))),
            (topology.node_at((2, 0)), topology.node_at((0, 2))),
            (topology.node_at((0, 2)), topology.node_at((2, 0))),
            (topology.node_at((2, 2)), topology.node_at((0, 0))),
        ]
        messages = []
        for i, (src, dst) in enumerate(pairs * 3):
            msg = Message(src, dst, 16, seq=engine.next_seq(src, dst))
            engine.admit(msg)
            messages.append(msg)
        assert engine.run_until_drained(20000)
        delivered = [m for m in messages if m.delivered]
        assert len(delivered) == len(messages)
        assert len(engine.ledger.delivered_uids) == len(messages)
        assert network_is_clean(engine)
