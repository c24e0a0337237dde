"""Trace/introspection helpers."""

from repro import (
    SimConfig,
    buffer_occupancy,
    channel_heatmap,
    channel_load_stats,
    format_timeline,
    message_timeline,
    occupancy_snapshot,
    run_simulation,
)


def finished_engine():
    result = run_simulation(
        SimConfig(
            radix=4, dims=2, routing="cr", load=0.2, message_length=8,
            warmup=50, measure=300, drain=3000, seed=2,
        ),
        keep_engine=True,
    )
    return result


class TestTimeline:
    def test_delivered_message_has_full_lifecycle(self):
        result = finished_engine()
        msg = result.ledger.deliveries[0]
        events = dict(message_timeline(msg))
        assert events["phase"] == "delivered"
        assert events["created"] <= events["first_injection"]
        assert events["header_at_destination"] <= events["committed"]
        assert events["committed"] <= events["delivered"]
        assert events["total_latency"] == msg.total_latency()

    def test_format_timeline_text(self):
        result = finished_engine()
        msg = result.ledger.deliveries[0]
        text = format_timeline(msg)
        assert f"message {msg.uid}" in text
        assert "delivered" in text


class TestOccupancy:
    def test_empty_after_drain(self):
        result = finished_engine()
        occ = buffer_occupancy(result.engine)
        assert set(occ) == set(range(16))
        assert all(v == 0 for v in occ.values())

    def test_snapshot_grid_shape(self):
        result = finished_engine()
        snapshot = occupancy_snapshot(result.engine)
        lines = snapshot.splitlines()
        assert len(lines) == 4  # 4x4 torus
        assert all("." in line for line in lines)  # drained

    def test_snapshot_shows_parked_worms(self):
        from repro import (
            Message,
            MinimalAdaptive,
            ProtocolConfig,
            ProtocolMode,
            WormholeNetwork,
            torus,
        )
        from repro.verify.reference import ReferenceEngine

        topology = torus(4, 2)
        network = WormholeNetwork(
            topology, MinimalAdaptive(topology), num_vcs=1
        )
        engine = ReferenceEngine(
            network, protocol=ProtocolConfig(mode=ProtocolMode.PLAIN), seed=0
        )
        engine.admit(Message(0, 5, 30, seq=0))
        for _ in range(10):
            engine.step()
        occ = buffer_occupancy(engine)
        assert sum(occ.values()) > 0
        assert any(ch.isdigit() for ch in occupancy_snapshot(engine))


class TestChannelStats:
    def test_heatmap_sorted_and_bounded(self):
        result = finished_engine()
        rows = channel_heatmap(result.engine, top=5)
        assert len(rows) == 5
        flits = [row["flits"] for row in rows]
        assert flits == sorted(flits, reverse=True)
        assert flits[0] > 0

    def test_load_stats(self):
        result = finished_engine()
        stats = channel_load_stats(result.engine)
        assert 0 < stats["utilisation"] < 1
        assert stats["imbalance"] >= 1.0

    def test_adaptive_balances_better_than_dor_on_transpose(self):
        base = SimConfig(
            radix=4, dims=2, pattern="transpose", load=0.3,
            num_vcs=2, message_length=8,
            warmup=100, measure=600, drain=4000, seed=3,
        )
        cr = run_simulation(base.with_(routing="cr"), keep_engine=True)
        dor = run_simulation(base.with_(routing="dor"), keep_engine=True)
        cr_imbalance = channel_load_stats(cr.engine)["imbalance"]
        dor_imbalance = channel_load_stats(dor.engine)["imbalance"]
        assert cr_imbalance < dor_imbalance
