"""Injector state machine details (driven through a live engine)."""

import pytest

from repro import (
    FirstFree,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.core.padding import cr_wire_length, fcr_wire_length
from repro.core.protocol import MessagePhase
from repro.network.flit import FlitKind
from repro.verify.reference import ReferenceEngine


def make_engine(mode=ProtocolMode.CR, num_inject=1, order=True, **proto):
    topology = torus(4, 2)
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        FirstFree(),
        num_vcs=1,
        num_inject=num_inject,
    )
    protocol = ProtocolConfig(mode=mode, order_preserving=order, **proto)
    return ReferenceEngine(network, protocol=protocol, seed=5, watchdog=5000)


class TestWireSizing:
    @pytest.mark.parametrize("mode,sizer", [
        (ProtocolMode.CR, cr_wire_length),
        (ProtocolMode.FCR, fcr_wire_length),
    ])
    def test_wire_matches_padding_rule(self, mode, sizer):
        engine = make_engine(mode)
        msg = Message(0, 5, 4, seq=0)
        engine.admit(msg)
        engine.step()
        hops = engine.topology.min_distance(0, 5)
        assert msg.wire_length == sizer(4, hops, engine.protocol.padding)

    def test_plain_mode_no_padding(self):
        engine = make_engine(ProtocolMode.PLAIN)
        msg = Message(0, 5, 4, seq=0)
        engine.admit(msg)
        engine.step()
        assert msg.wire_length == 4

    def test_flit_sequence_shape(self):
        """HEAD, BODY x (payload-1), PAD x rest, final flit is tail."""
        engine = make_engine(ProtocolMode.CR)
        injector = engine.nodes[0].injectors[0]
        msg = Message(0, 5, 4, seq=0)
        msg.begin_attempt(12, now=0)
        flits = [injector._make_flit(msg, i) for i in range(12)]
        assert flits[0].kind is FlitKind.HEAD
        assert all(f.kind is FlitKind.BODY for f in flits[1:4])
        assert all(f.kind is FlitKind.PAD for f in flits[4:])
        assert flits[-1].is_tail
        assert not any(f.is_tail for f in flits[:-1])


class TestInjectionFlow:
    def test_one_flit_per_cycle(self):
        engine = make_engine(ProtocolMode.PLAIN)
        msg = Message(0, 5, 6, seq=0)
        engine.admit(msg)
        engine.step()
        assert msg.flits_injected == 1
        engine.step()
        assert msg.flits_injected == 2

    def test_commit_at_last_flit(self):
        engine = make_engine(ProtocolMode.PLAIN)
        msg = Message(0, 1, 3, seq=0)
        engine.admit(msg)
        while msg.flits_injected < 3:
            engine.step()
        assert msg.phase in (MessagePhase.COMMITTED, MessagePhase.DELIVERED)
        assert msg.committed_at is not None
        assert engine.nodes[0].injectors[0].current is None

    def test_injector_busy_flag(self):
        engine = make_engine(ProtocolMode.PLAIN)
        injector = engine.nodes[0].injectors[0]
        assert not injector.busy
        engine.admit(Message(0, 5, 10, seq=0))
        engine.step()
        assert injector.busy

    def test_parallel_injectors_drain_queue_faster(self):
        single = make_engine(ProtocolMode.PLAIN, num_inject=1, order=False)
        double = make_engine(ProtocolMode.PLAIN, num_inject=2, order=False)
        for engine in (single, double):
            for i, dst in enumerate((5, 10, 15, 6)):
                engine.admit(Message(0, dst, 12, seq=i))
            engine.run_until_drained(2000)
        t_single = max(m.delivered_at for m in single.ledger.deliveries)
        t_double = max(m.delivered_at for m in double.ledger.deliveries)
        assert t_double < t_single


class TestOrderGateInteraction:
    def test_same_dst_serialised(self):
        engine = make_engine(ProtocolMode.CR, num_inject=2)
        first = Message(0, 5, 4, seq=0)
        second = Message(0, 5, 4, seq=1)
        engine.admit(first)
        engine.admit(second)
        engine.step()
        injectors = engine.nodes[0].injectors
        active = [inj.current for inj in injectors if inj.current]
        assert active == [first]  # second waits on the gate

    def test_different_dst_parallel(self):
        engine = make_engine(ProtocolMode.CR, num_inject=2)
        a = Message(0, 5, 4, seq=0)
        b = Message(0, 10, 4, seq=0)
        engine.admit(a)
        engine.admit(b)
        engine.step()
        injectors = engine.nodes[0].injectors
        active = {inj.current for inj in injectors if inj.current}
        assert active == {a, b}

    def test_gate_disabled_allows_same_dst_overlap(self):
        engine = make_engine(ProtocolMode.CR, num_inject=2, order=False)
        a = Message(0, 5, 4, seq=0)
        b = Message(0, 5, 4, seq=1)
        engine.admit(a)
        engine.admit(b)
        engine.step()
        injectors = engine.nodes[0].injectors
        active = [inj.current for inj in injectors if inj.current]
        assert len(active) == 2

    def test_backoff_gap_respected(self):
        from repro import FixedTimeout, StaticGap

        engine = make_engine(
            ProtocolMode.CR,
            timeout=FixedTimeout(8),
            backoff=StaticGap(100),
        )
        # Dead-end the sole minimal path so the first attempt dies.
        engine.network.find_link(0, 1).dead = True
        msg = Message(0, 1, 4, seq=0)
        engine.admit(msg)
        killed_at = None
        for _ in range(400):
            engine.step()
            if msg.kills == 1 and killed_at is None:
                killed_at = engine.now
            if msg.attempts == 2:
                break
        assert killed_at is not None
        assert msg.retransmit_at >= killed_at - 1 + 100
