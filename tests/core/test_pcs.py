"""Pipelined circuit switching (the E20 baseline)."""

from repro import SimConfig, run_simulation
from repro.core.protocol import MessagePhase


def pcs_config(**overrides):
    base = dict(
        routing="pcs", radix=4, dims=2, load=0.15, message_length=8,
        warmup=100, measure=500, drain=6000, seed=9,
    )
    base.update(overrides)
    return SimConfig(**base)


def clean(engine):
    for router in engine.routers:
        if router.claims or router.out_owner:
            return False
        for port_bufs in router.in_buffers:
            for buf in port_bufs:
                if buf.occupancy or buf.owner is not None:
                    return False
    return True


class TestBasics:
    def test_everything_delivered_and_clean(self):
        result = run_simulation(pcs_config(), keep_engine=True)
        assert result.drained
        assert result.report["undelivered"] == 0
        assert clean(result.engine)

    def test_no_padding(self):
        result = run_simulation(pcs_config(load=0.05))
        for msg in result.ledger.deliveries:
            assert msg.wire_length == msg.payload_length

    def test_setup_latency_floor(self):
        """Even uncontended, PCS pays probe + ack before data moves:
        latency >= ~3x one-way distance + serialisation."""
        result = run_simulation(pcs_config(load=0.02))
        for msg in result.ledger.deliveries:
            hops = result.config.make_topology().min_distance(
                msg.src, msg.dst
            )
            assert msg.delivered_at - msg.first_inject_at >= 2 * hops

    def test_circuits_counted(self):
        result = run_simulation(pcs_config())
        report = result.report
        assert report.get("probes_launched", 0) >= \
            report["messages_delivered"]
        assert report.get("circuits_established", 0) >= \
            report["messages_delivered"]

    def test_no_kills_ever(self):
        """Data on a reserved circuit cannot block: no kill machinery."""
        result = run_simulation(pcs_config(load=0.3, drain=10000))
        assert result.report.get("kills_source_timeout", 0) == 0
        assert result.report.get("kills_fkill", 0) == 0


class TestContention:
    def test_backtracks_under_load(self):
        light = run_simulation(pcs_config(load=0.05))
        heavy = run_simulation(pcs_config(load=0.3, drain=10000))
        assert (
            heavy.report.get("probe_backtracks", 0)
            > light.report.get("probe_backtracks", 0)
        )

    def test_probe_failures_retry_and_deliver(self):
        result = run_simulation(pcs_config(load=0.35, drain=12000))
        assert result.report.get("probe_failures", 0) > 0
        assert result.report["undelivered"] == 0
        assert result.drained


class TestFaultTolerance:
    def test_routes_around_dead_links(self):
        """Backtracking search avoids dead channels without data loss."""
        config = pcs_config(load=0.08, permanent_faults=2, drain=20000,
                            misrouting=True)
        result = run_simulation(config, keep_engine=True)
        assert result.drained
        assert result.report["undelivered"] == 0
        assert clean(result.engine)

    def test_dead_end_probe_backtracks(self):
        result = run_simulation(
            pcs_config(load=0.08, permanent_faults=3, drain=20000,
                       seed=4, misrouting=True),
        )
        # With several dead links some probes must have had to retreat.
        assert result.report.get("probe_backtracks", 0) > 0
        assert result.report["undelivered"] == 0


class TestPhases:
    def test_delivered_messages_went_through_probing(self):
        result = run_simulation(pcs_config(load=0.1))
        for msg in result.ledger.deliveries:
            assert msg.phase is MessagePhase.DELIVERED
            assert msg.stream_start_at is not None
            assert msg.committed_at is not None
            assert msg.stream_start_at <= msg.committed_at
