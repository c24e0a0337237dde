"""Unit tests for flits and messages."""

import pytest

from repro.core.protocol import MessagePhase
from repro.network.flit import Flit, FlitKind
from repro.network.message import Message, reset_uid_counter


class TestFlit:
    def setup_method(self):
        self.msg = Message(0, 1, 4)

    def test_head_properties(self):
        flit = Flit(self.msg, FlitKind.HEAD, 0)
        assert flit.is_head
        assert flit.is_payload
        assert not flit.is_tail
        assert not flit.corrupted

    def test_pad_is_not_payload(self):
        flit = Flit(self.msg, FlitKind.PAD, 5)
        assert not flit.is_payload
        assert not flit.is_head

    def test_tail_flag(self):
        flit = Flit(self.msg, FlitKind.PAD, 9, is_tail=True)
        assert flit.is_tail


class TestMessage:
    def test_uid_monotonic(self):
        reset_uid_counter()
        a = Message(0, 1, 4)
        b = Message(1, 2, 4)
        assert b.uid == a.uid + 1

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            Message(0, 1, 0)

    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            Message(3, 3, 4)

    def test_initial_phase(self):
        msg = Message(0, 1, 4)
        assert msg.phase is MessagePhase.QUEUED
        assert not msg.committed
        assert not msg.delivered

    def test_begin_attempt_resets_state(self):
        msg = Message(0, 1, 4, created_at=10)
        msg.begin_attempt(12, now=20)
        assert msg.attempts == 1
        assert msg.wire_length == 12
        assert msg.wire_length - msg.payload_length == 8  # pad flits
        assert msg.first_inject_at == 20
        assert msg.phase is MessagePhase.INJECTING
        msg.segments.append(object())
        msg.begin_attempt(12, now=50)
        assert msg.attempts == 2
        assert msg.segments == []
        assert msg.first_inject_at == 20  # first attempt time is sticky
        assert msg.inject_start_at == 50

    def test_latencies_none_until_delivered(self):
        msg = Message(0, 1, 4, created_at=5)
        assert msg.total_latency() is None
        assert msg.network_latency() is None
        msg.begin_attempt(4, now=7)
        msg.delivered_at = 30
        assert msg.total_latency() == 25
        assert msg.network_latency() == 23

    def test_active_segments_window(self):
        msg = Message(0, 1, 4)
        msg.begin_attempt(4, now=0)
        msg.segments = ["a", "b", "c"]
        msg.tail_seg = 1
        assert msg.active_segments == ["b", "c"]
