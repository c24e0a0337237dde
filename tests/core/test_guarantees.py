"""Order gate and delivery ledger."""

import pytest

from repro.core.guarantees import (
    DeliveryLedger,
    GuaranteeViolation,
    OrderGate,
)
from repro.network.message import Message


def delivered(src, dst, seq, header_at):
    msg = Message(src, dst, 4, seq=seq)
    msg.header_consumed_at = header_at
    return msg


class TestOrderGate:
    def test_serialises_same_destination(self):
        gate = OrderGate()
        first = Message(0, 5, 4, seq=0)
        second = Message(0, 5, 4, seq=1)
        assert gate.may_start(first)
        gate.on_start(first)
        assert not gate.may_start(second)
        gate.on_commit(first)
        assert gate.may_start(second)

    def test_different_destinations_independent(self):
        gate = OrderGate()
        gate.on_start(Message(0, 5, 4, seq=0))
        assert gate.may_start(Message(0, 6, 4, seq=0))

    def test_holder_may_restart(self):
        """A killed message retries while still holding the gate."""
        gate = OrderGate()
        msg = Message(0, 5, 4, seq=0)
        gate.on_start(msg)
        assert gate.may_start(msg)

    def test_abandon_releases(self):
        gate = OrderGate()
        msg = Message(0, 5, 4, seq=0)
        gate.on_start(msg)
        gate.on_abandon(msg)
        assert gate.may_start(Message(0, 5, 4, seq=1))

    def test_disabled_gate_is_permissive(self):
        gate = OrderGate(enabled=False)
        gate.on_start(Message(0, 5, 4, seq=0))
        assert gate.may_start(Message(0, 5, 4, seq=1))


class TestDeliveryLedger:
    def test_duplicate_delivery_raises(self):
        ledger = DeliveryLedger()
        msg = delivered(0, 1, 0, 10)
        ledger.on_delivery(msg, corrupt=False)
        with pytest.raises(GuaranteeViolation, match="duplicate"):
            ledger.on_delivery(msg, corrupt=False)

    def test_corrupt_counted_without_integrity(self):
        ledger = DeliveryLedger(expect_integrity=False)
        ledger.on_delivery(delivered(0, 1, 0, 10), corrupt=True)
        assert ledger.corrupt_deliveries == 1

    def test_corrupt_raises_with_integrity(self):
        ledger = DeliveryLedger(expect_integrity=True)
        with pytest.raises(GuaranteeViolation, match="corrupt"):
            ledger.on_delivery(delivered(0, 1, 0, 10), corrupt=True)

    def test_fifo_accepts_ordered(self):
        ledger = DeliveryLedger()
        for seq, t in ((0, 10), (1, 20), (2, 30)):
            ledger.on_delivery(delivered(0, 1, seq, t), corrupt=False)
        assert ledger.validate_fifo() == 1

    def test_fifo_rejects_inverted_headers(self):
        ledger = DeliveryLedger()
        ledger.on_delivery(delivered(0, 1, 0, 30), corrupt=False)
        ledger.on_delivery(delivered(0, 1, 1, 20), corrupt=False)
        with pytest.raises(GuaranteeViolation, match="out-of-order"):
            ledger.validate_fifo()

    def test_fifo_counts_pairs(self):
        ledger = DeliveryLedger()
        ledger.on_delivery(delivered(0, 1, 0, 10), corrupt=False)
        ledger.on_delivery(delivered(2, 3, 0, 10), corrupt=False)
        assert ledger.validate_fifo() == 2

    def test_fifo_requires_header_time(self):
        ledger = DeliveryLedger()
        msg = Message(0, 1, 4, seq=0)
        ledger.on_delivery(msg, corrupt=False)
        with pytest.raises(GuaranteeViolation, match="header"):
            ledger.validate_fifo()

    def test_fifo_violations_counted_not_raised(self):
        ledger = DeliveryLedger()
        for seq, t in ((0, 30), (1, None), (2, 20), (3, 40)):
            ledger.on_delivery(delivered(0, 1, seq, t), corrupt=False)
        ledger.on_delivery(delivered(2, 3, 0, 10), corrupt=False)
        # seq 2 arrives before seq 0; seq 1 has no header time: skipped
        assert ledger.count_fifo_violations() == 1
