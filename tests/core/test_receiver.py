"""Receiver state machine details (driven through a live engine)."""

from repro import (
    FirstFree,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.network.flit import FlitKind
from repro.verify.reference import ReferenceEngine


def make_engine(mode=ProtocolMode.CR, num_sink=1):
    topology = torus(4, 2)
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        FirstFree(),
        num_vcs=1,
        num_sink=num_sink,
    )
    return ReferenceEngine(
        network,
        protocol=ProtocolConfig(mode=mode),
        seed=8,
        watchdog=5000,
    )


class TestAssembly:
    def test_pad_flits_stripped(self):
        """Delivered payload equals what was sent; pads never surface."""
        engine = make_engine(ProtocolMode.CR)
        msg = Message(0, 5, 3, seq=0)  # heavily padded
        engine.admit(msg)
        assert engine.run_until_drained(2000)
        assert msg.delivered
        assert msg.pad_flits_sent == msg.wire_length - 3
        # The ledger records the message object; payload length intact.
        assert engine.ledger.deliveries[0].payload_length == 3

    def test_header_time_recorded_every_attempt(self):
        engine = make_engine(ProtocolMode.CR)
        msg = Message(0, 5, 3, seq=0)
        engine.admit(msg)
        engine.run_until_drained(2000)
        assert msg.header_consumed_at is not None
        assert msg.header_consumed_at <= msg.committed_at

    def test_assembly_state_cleared_after_delivery(self):
        engine = make_engine(ProtocolMode.CR)
        msg = Message(0, 5, 3, seq=0)
        engine.admit(msg)
        engine.run_until_drained(2000)
        assert engine.nodes[5].receiver.assembly == {}
        assert engine.nodes[5].receiver.staging == []


class TestCorruption:
    def _run_with_corrupted_body(self, mode):
        """Corrupt one body flit in flight by monkeypatching the fault
        model to hit exactly the second flit of the message."""
        from repro.faults.model import FaultModel

        class OneShot(FaultModel):
            def __init__(self):
                self.done = False

            def corrupt(self, flit, channel, rng):
                if (
                    not self.done
                    and flit.kind is FlitKind.BODY
                    and flit.index == 1
                ):
                    self.done = True
                    return True
                return False

        engine = make_engine(mode)
        engine.fault_model = OneShot()
        msg = Message(0, 5, 4, seq=0)
        engine.admit(msg)
        engine.run_until_drained(4000)
        return engine, msg

    def test_cr_delivers_corrupt_payload(self):
        """Without FCR there is no integrity protection: the corrupt
        message is delivered and counted."""
        engine, msg = self._run_with_corrupted_body(ProtocolMode.CR)
        assert msg.delivered
        assert engine.ledger.corrupt_deliveries == 1

    def test_fcr_fkills_and_retries(self):
        engine, msg = self._run_with_corrupted_body(ProtocolMode.FCR)
        assert msg.delivered
        assert msg.fkills == 1
        assert engine.ledger.corrupt_deliveries == 0
        assert engine.stats.counters.get("late_corruption", 0) == 0

    def test_fcr_header_fault_router_kill(self):
        from repro.faults.model import FaultModel

        class HeadShot(FaultModel):
            def __init__(self):
                self.done = False

            def corrupt(self, flit, channel, rng):
                if not self.done and flit.is_head:
                    self.done = True
                    return True
                return False

        engine = make_engine(ProtocolMode.FCR)
        engine.fault_model = HeadShot()
        msg = Message(0, 5, 4, seq=0)
        engine.admit(msg)
        engine.run_until_drained(4000)
        assert msg.delivered
        assert msg.kills >= 1
        assert engine.stats.counters.get("kills_header_fault", 0) == 1


class TestSinkContention:
    def test_single_sink_serialises_arrivals(self):
        """Two worms to the same node with one ejection channel must
        deliver one after the other."""
        engine = make_engine(ProtocolMode.PLAIN, num_sink=1)
        a = Message(1, 0, 10, seq=0)
        b = Message(4, 0, 10, seq=0)
        engine.admit(a)
        engine.admit(b)
        engine.run_until_drained(2000)
        assert a.delivered and b.delivered
        first, second = sorted((a, b), key=lambda m: m.delivered_at)
        # The second tail cannot complete until the first worm released
        # the ejection port.
        assert second.delivered_at >= first.delivered_at + 2

    def test_two_sinks_overlap(self):
        engine = make_engine(ProtocolMode.PLAIN, num_sink=2)
        a = Message(1, 0, 10, seq=0)
        b = Message(4, 0, 10, seq=0)
        engine.admit(a)
        engine.admit(b)
        engine.run_until_drained(2000)
        gap = abs(a.delivered_at - b.delivered_at)
        assert gap <= 3  # delivered nearly simultaneously
