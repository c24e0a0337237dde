"""Order gate and delivery ledger."""

import pytest

from repro import SimConfig, run_simulation
from repro.core.guarantees import (
    Delivery,
    DeliveryLedger,
    GuaranteeViolation,
    OrderGate,
)
from repro.core.protocol import MessagePhase
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


def snapshot(message):
    """The row a delivery should leave: the message's fields, read at
    the moment the ledger is handed it."""
    fields = {
        name: getattr(message, name) for name in Delivery._fields
    }
    fields["kill_history"] = tuple(message.kill_history)
    return fields, message.total_latency()


def recorded_run(**config):
    """Run ``config`` with the ledger's ``on_delivery`` wrapped so each
    message is snapshotted as it is delivered; returns the ledger and
    the snapshots in delivery order."""
    seen = []

    def setup(engine):
        record = engine.ledger.on_delivery

        def on_delivery(message, corrupt):
            seen.append(snapshot(message))
            record(message, corrupt)

        engine.ledger.on_delivery = on_delivery

    result = run_simulation(SimConfig(**config), setup=setup)
    return result.ledger, seen


SMALL = dict(radix=4, dims=2, message_length=8, warmup=100, measure=500)


class TestDeliveryRows:
    """``ledger.deliveries`` reads back every delivered message's fields
    as they stood at delivery, in delivery order."""

    RUNS = {
        "e01-cr": dict(radix=8, dims=2, message_length=16, num_vcs=2,
                       buffer_depth=2, routing="cr", load=0.1,
                       warmup=100, measure=400, seed=3),
        "fcr-cascade": dict(SMALL, routing="fcr", misrouting=True,
                            workload="mmpp", load=0.3, seed=11,
                            fault_rate=1e-3,
                            cascade_faults=(
                                "base_hazard=2e-4,load_gain=8,"
                                "check_interval=16,neighbor_boost=10,"
                                "boost_cycles=96,repair_cycles=200"
                            )),
        "pcs": dict(SMALL, routing="pcs", load=0.15, seed=9),
        "drop": dict(SMALL, routing="drop", load=0.3, seed=9,
                     order_preserving=False),
    }

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_rows_equal_the_messages_at_delivery(self, run):
        ledger, seen = recorded_run(**run)
        rows = list(ledger.deliveries)
        assert len(rows) == len(ledger.deliveries) == len(seen) > 100
        for index, (row, (fields, total)) in enumerate(
            zip(rows, seen)
        ):
            assert row._asdict() == fields, f"row {index}"
            assert row.phase is MessagePhase.DELIVERED
            assert row.total_latency() == total
            assert ledger.deliveries[index] == row
        assert ledger.deliveries[-1] == rows[-1]

    def test_the_runs_cover_every_optional_field(self):
        rows = {
            name: list(recorded_run(**run)[0].deliveries)
            for name, run in self.RUNS.items()
        }
        causes = {
            cause for row in rows["fcr-cascade"]
            for _, cause in row.kill_history
        }
        assert {"source_timeout", "fkill", "header_fault"} <= causes
        assert any(row.fkills for row in rows["fcr-cascade"])
        assert all(
            row.stream_start_at is not None for row in rows["pcs"]
        )
        assert all(row.stream_start_at is None for row in rows["e01-cr"])
        assert any(row.kill_history for row in rows["drop"])
