"""Unit tests for VC buffers and credit-based channels."""

import pytest

from repro.network.buffer import VCBuffer
from repro.network.channel import Channel
from repro.network.flit import Flit, FlitKind
from repro.network.message import Message
from repro.network.router import Router


def make_buffer(depth=2):
    router = Router(0, num_vcs=1)
    port = router.add_input_port(depth)
    return router.in_buffers[port][0]


def flit_of(msg, index=0, kind=FlitKind.HEAD, tail=False):
    return Flit(msg, kind, index, is_tail=tail)


class TestVCBuffer:
    def test_staging_respects_arrival_time(self):
        buf = make_buffer()
        msg = Message(0, 1, 2)
        buf.stage(flit_of(msg), arrival=5)
        assert buf.merge_incoming(4) == []
        assert buf.head() is None
        arrived = buf.merge_incoming(5)
        assert len(arrived) == 1
        assert buf.head() is arrived[0]

    def test_merge_takes_exactly_the_due_entries(self):
        """``incoming`` need not be in stamp order: ``merge_incoming(t)``
        moves every flit stamped ``<= t``, in staging order, and keeps
        the rest."""
        buf = make_buffer(depth=3)
        msg = Message(0, 1, 4)
        late, due_a, due_b = (
            flit_of(msg, i, FlitKind.BODY) for i in (1, 2, 3)
        )
        for flit, stamp in ((late, 6), (due_a, 5), (due_b, 5)):
            buf.stage(flit, arrival=stamp)
        assert buf.merge_incoming(5) == [due_a, due_b]
        assert list(buf.fifo) == [due_a, due_b]
        assert buf.incoming == [(6, late)]
        assert buf.merge_incoming(6) == [late]
        assert buf.incoming == []

    def test_pop_credits_feeder(self):
        channel = Channel(0, 1, num_vcs=1)
        buf = make_buffer()
        channel.attach_sink(0, buf)
        msg = Message(0, 1, 2)
        channel.send(0, flit_of(msg), now=0)
        assert channel.credits[0] == 1
        buf.merge_incoming(1)
        buf.pop(1)
        assert channel.credits[0] == 1  # credit still in flight
        channel.tick(2)
        assert channel.credits[0] == 2

    def test_acquire_release(self):
        buf = make_buffer()
        msg = Message(0, 1, 2)
        buf.acquire(msg, now=3)
        assert buf.owner is msg
        assert buf.last_advance == 3
        buf.release()
        assert buf.owner is None

    def test_double_acquire_raises(self):
        buf = make_buffer()
        buf.acquire(Message(0, 1, 2))
        with pytest.raises(RuntimeError):
            buf.acquire(Message(1, 2, 2))

    def test_flush_owner_returns_credits_and_clears(self):
        channel = Channel(0, 1, num_vcs=1)
        buf = make_buffer(depth=4)
        channel.attach_sink(0, buf)
        msg = Message(0, 1, 4)
        buf.acquire(msg)
        for i in range(3):
            channel.send(0, flit_of(msg, i), now=0)
        buf.merge_incoming(1)
        assert channel.credits[0] == 1
        dropped = buf.flush_owner(now=1)
        assert dropped == 3
        assert buf.owner is None
        assert buf.occupancy == 0
        channel.tick(2)
        assert channel.credits[0] == 4

    def test_flush_covers_in_flight_flits(self):
        channel = Channel(0, 1, num_vcs=1)
        buf = make_buffer(depth=4)
        channel.attach_sink(0, buf)
        msg = Message(0, 1, 4)
        buf.acquire(msg)
        channel.send(0, flit_of(msg), now=0)  # still staged, not merged
        dropped = buf.flush_owner(now=0)
        assert dropped == 1
        assert not buf.incoming

    def test_invalid_depth(self):
        router = Router(0, num_vcs=1)
        with pytest.raises(ValueError):
            VCBuffer(router, 0, 0, depth=0)


class TestChannel:
    def test_credit_lifecycle(self):
        channel = Channel(0, 1, num_vcs=2)
        buf = make_buffer(depth=3)
        channel.attach_sink(0, buf)
        assert channel.credits[0] == 3
        assert channel.can_send(0)
        msg = Message(0, 1, 2)
        for _ in range(3):
            channel.send(0, flit_of(msg), now=0)
        assert not channel.can_send(0)
        with pytest.raises(RuntimeError, match="credit underflow"):
            channel.send(0, flit_of(msg), now=0)
        assert channel.credits[0] == 0
        assert len(buf.incoming) == 3

    def test_credit_return_latency(self):
        channel = Channel(0, 1, num_vcs=1, latency=3)
        buf = make_buffer(depth=1)
        channel.attach_sink(0, buf)
        channel.send(0, flit_of(Message(0, 1, 2)), now=10)
        channel.return_credit(0, now=10)
        channel.tick(12)
        assert channel.credits[0] == 0
        channel.tick(13)
        assert channel.credits[0] == 1

    def test_dead_channel_blocks_send(self):
        channel = Channel(0, 1, num_vcs=1)
        buf = make_buffer()
        channel.attach_sink(0, buf)
        channel.dead = True
        assert not channel.can_send(0)

    def test_ejection_capacity(self):
        channel = Channel(0, 0, num_vcs=1, is_ejection=True)
        channel.set_eject_capacity(2)
        assert channel.credits[0] == 2

    def test_eject_capacity_on_link_raises(self):
        with pytest.raises(RuntimeError):
            Channel(0, 1, num_vcs=1).set_eject_capacity(2)

    def test_send_without_sink_raises(self):
        channel = Channel(0, 1, num_vcs=1)
        channel.credits[0] = 1
        with pytest.raises(RuntimeError):
            channel.send(0, flit_of(Message(0, 1, 2)), now=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Channel(0, 1, num_vcs=0)
        with pytest.raises(ValueError):
            Channel(0, 1, num_vcs=1, latency=0)


class TestRouterState:
    def test_claim_and_release(self):
        router = Router(0, num_vcs=2)
        port = router.add_input_port(2)
        buf = router.in_buffers[port][0]
        msg = Message(0, 1, 2)
        router.claim_output(3, 1, buf, msg)
        assert not router.output_free(3, 1)
        assert router.claims[(3, 1)] is buf
        assert buf.routed and buf.out_port == 3 and buf.out_vc == 1
        router.release_output(3, 1)
        assert router.output_free(3, 1)

    def test_double_claim_raises(self):
        router = Router(0, num_vcs=1)
        port = router.add_input_port(2)
        buf = router.in_buffers[port][0]
        router.claim_output(0, 0, buf, Message(0, 1, 2))
        with pytest.raises(RuntimeError):
            router.claim_output(0, 0, buf, Message(1, 0, 2))

    def test_release_if_checks_owner(self):
        router = Router(0, num_vcs=1)
        port = router.add_input_port(2)
        buf = router.in_buffers[port][0]
        owner = Message(0, 1, 2)
        other = Message(1, 0, 2)
        router.claim_output(0, 0, buf, owner)
        router.release_output_if(0, 0, other)
        assert not router.output_free(0, 0)
        router.release_output_if(0, 0, owner)
        assert router.output_free(0, 0)

    def test_retire_claim_keeps_ownership(self):
        router = Router(0, num_vcs=1)
        port = router.add_input_port(2)
        buf = router.in_buffers[port][0]
        msg = Message(0, 1, 2)
        router.claim_output(0, 0, buf, msg)
        router.retire_claim(0, 0)
        assert (0, 0) not in router.claims
        assert not router.output_free(0, 0)

    def test_rotate_round_robin(self):
        router = Router(0, num_vcs=1)
        picks = [router.rotate(0, 3) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
