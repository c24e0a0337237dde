"""PCSManager internals: candidate filtering and backtrack bookkeeping."""

from repro import (
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.core.protocol import MessagePhase
from repro.verify.reference import ReferenceEngine


def pcs_engine(pcs_wait=2):
    topology = torus(4, 2)
    network = WormholeNetwork(
        topology, MinimalAdaptive(topology), num_vcs=1
    )
    protocol = ProtocolConfig(mode=ProtocolMode.PCS, pcs_wait=pcs_wait)
    return ReferenceEngine(network, protocol=protocol, seed=1, watchdog=5000)


def launch(engine, src, dst, length=4):
    msg = Message(src, dst, length, seq=engine.next_seq(src, dst))
    engine.admit(msg)
    engine.step()  # injector reserves the injection buffer + launches
    assert msg.phase is MessagePhase.PROBING
    return msg


class TestProbeAdvance:
    def test_probe_extends_one_hop_per_cycle(self):
        engine = pcs_engine()
        topology = engine.topology
        msg = launch(engine, 0, topology.node_at((2, 2)))
        lengths = [len(msg.segments)]
        for _ in range(4):
            engine.step()
            if msg.phase is not MessagePhase.PROBING:
                break
            lengths.append(len(msg.segments))
        # Monotone growth while probing, one segment per cycle.
        assert lengths == sorted(lengths)
        assert max(lengths) - lengths[0] >= 2

    def test_circuit_completion_sets_stream_time(self):
        engine = pcs_engine()
        msg = launch(engine, 0, 1)
        for _ in range(20):
            engine.step()
            if msg.phase is MessagePhase.INJECTING:
                break
        assert msg.stream_start_at is not None
        assert msg.stream_start_at >= engine.now

    def test_probe_claims_are_real_reservations(self):
        engine = pcs_engine()
        topology = engine.topology
        msg = launch(engine, 0, topology.node_at((0, 2)))
        for _ in range(3):
            engine.step()
        # Every routed segment's output ownership belongs to the probe.
        for seg in msg.segments:
            if seg.routed:
                owner = seg.router.out_owner[(seg.out_port, seg.out_vc)]
                assert owner is msg


class TestBacktracking:
    def test_dead_end_triggers_immediate_backtrack(self):
        engine = pcs_engine(pcs_wait=50)  # patience high: dead != busy
        topology = engine.topology
        trap = topology.node_at((1, 0))
        dst = topology.node_at((2, 0))
        # Straight-line route with the second hop dead: probe must
        # retreat without waiting out the (long) patience budget.
        engine.network.find_link(trap, dst).dead = True
        engine.network.find_link(
            topology.node_at((3, 0)), dst
        ).dead = True  # block the other way round too
        msg = launch(engine, 0, dst)
        for _ in range(30):
            engine.step()
        assert msg.probe_backtracks >= 1

    def test_tried_ports_not_retried_within_attempt(self):
        engine = pcs_engine(pcs_wait=1)
        topology = engine.topology
        dst = topology.node_at((1, 1))
        msg = launch(engine, 0, dst)
        for _ in range(50):
            engine.step()
            if msg.delivered:
                break
        assert msg.delivered

    def test_exhausted_probe_requeues_with_gap(self):
        engine = pcs_engine(pcs_wait=1)
        topology = engine.topology
        dst = topology.node_at((0, 1))
        # The only minimal link is dead: every attempt fails -- possibly
        # within the very cycle the probe launches (dead-end at source).
        engine.network.find_link(0, dst).dead = True
        msg = Message(0, dst, 4, seq=engine.next_seq(0, dst))
        engine.admit(msg)
        for _ in range(60):
            engine.step()
            if msg.kills >= 1 and msg.phase is MessagePhase.QUEUED:
                break
        assert msg.phase is MessagePhase.QUEUED
        assert msg.kills >= 1
        assert msg.retransmit_at is not None
        # Everything the probe reserved was released.
        for router in engine.routers:
            assert not router.out_owner
