"""Telemetry HTTP server: serve specs, endpoints, live-run publishing."""

import urllib.error
import urllib.request

import pytest

from repro import SimConfig, run_simulation
from repro.obs.metrics import parse_prometheus_text
from repro.obs.server import (
    EngineTelemetry,
    TelemetryServer,
    make_telemetry_server,
    parse_serve,
)


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


@pytest.fixture
def server():
    server = TelemetryServer().start()
    yield server
    server.stop()


class TestParseServe:
    @pytest.mark.parametrize("spec,expected", [
        (True, ("127.0.0.1", 0)),
        (9100, ("127.0.0.1", 9100)),
        ("9100", ("127.0.0.1", 9100)),
        ("0.0.0.0:9100", ("0.0.0.0", 9100)),
        (("localhost", 8080), ("localhost", 8080)),
    ])
    def test_accepted_forms(self, spec, expected):
        assert parse_serve(spec) == expected

    @pytest.mark.parametrize("bad", [
        False, "nope", "host:", [], 1.5,
        # ports outside 0-65535: these used to parse, and the run then
        # died in socket.bind with an OverflowError traceback
        "70000", "-1", ":65536", "0.0.0.0:99999", 65536, -5,
        ("localhost", 65536),
    ])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValueError):
            parse_serve(bad)

    def test_make_telemetry_server_passthrough_starts(self):
        server = TelemetryServer()
        try:
            assert not server.running
            assert make_telemetry_server(server) is server
            assert server.running
        finally:
            server.stop()


class TestEndpoints:
    def test_ephemeral_port_resolves_at_construction(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_placeholder_before_first_publish(self, server):
        status, content_type, body = fetch(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert body.startswith("# no metrics published yet")

    def test_published_snapshots_are_served(self, server):
        server.publish("cr_up 1\n")
        assert server.publishes == 1
        _, content_type, metrics = fetch(server.url + "/metrics")
        assert content_type.startswith("text/plain; version=0.0.4")
        assert parse_prometheus_text(metrics)["cr_up"]["samples"] == {
            "cr_up": 1.0
        }

    def test_partial_publish_leaves_other_snapshots(self, server):
        """A publish swaps the whole text: families of an earlier
        publish are not merged into the next one."""
        server.publish("cr_up 1\ncr_cycle 10\n")
        server.publish("cr_up 0\n")
        assert server.publishes == 2
        assert server.metrics_text() == "cr_up 0\n"
        _, _, metrics = fetch(server.url + "/metrics")
        parsed = parse_prometheus_text(metrics)
        assert parsed["cr_up"]["samples"] == {"cr_up": 0.0}
        assert "cr_cycle" not in parsed

    def test_index_and_404(self, server):
        """``/metrics`` is the one served payload: the index and the
        old JSON endpoints are 404s like any unknown path."""
        server.publish("cr_up 1\n")
        for path in ("/", "/health", "/status", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server.url + path)
            assert err.value.code == 404, path

    def test_stop_is_idempotent_and_closes_the_socket(self):
        server = TelemetryServer().start()
        url = server.url
        server.stop()
        server.stop()
        assert not server.running
        with pytest.raises(OSError):
            fetch(url + "/metrics")


class TestEngineTelemetry:
    def run_config(self, server, **overrides):
        params = dict(
            radix=4, dims=2, routing="cr", load=0.2, message_length=8,
            warmup=50, measure=300, drain=3000, seed=2,
            sample_interval=100, alerts=True, serve=server,
        )
        params.update(overrides)
        return SimConfig(**params)

    def test_config_wires_publisher_without_owning_the_server(
            self, server):
        engine = self.run_config(server).build()
        assert isinstance(engine.telemetry, EngineTelemetry)
        assert engine.telemetry.server is server
        assert not engine.telemetry.owns_server
        assert engine.telemetry in engine.sampler.listeners
        # build() publishes a cycle-0 snapshot immediately.
        assert server.publishes >= 1
        _, _, body = fetch(server.url + "/metrics")
        assert "cr_build_info" in body

    def test_run_serves_live_round_trippable_metrics(self, server):
        result = run_simulation(
            self.run_config(server), keep_engine=True
        )
        engine = result.engine
        # One publish per sampler window, plus build-time and close.
        assert server.publishes >= len(result.report["timeseries"])
        _, _, metrics = fetch(server.url + "/metrics")
        parsed = parse_prometheus_text(metrics)
        delivered = engine.stats.counters["messages_delivered"]
        assert (parsed["cr_messages_delivered_total"]["samples"]
                ["cr_messages_delivered_total"] == delivered)
        # A clean drained run scores near-perfect health (kills during
        # the run leave a little kill-pressure residue).
        health = parsed["cr_network_health"]["samples"][
            "cr_network_health"
        ]
        assert 0.9 <= health <= 1.0

    def test_health_payload_reports_score_and_version(self, server):
        from repro import __version__

        run_simulation(self.run_config(server))
        _, _, body = fetch(server.url + "/metrics")
        parsed = parse_prometheus_text(body)
        score = parsed["cr_network_health"]["samples"]["cr_network_health"]
        assert 0.9 <= score <= 1.0
        components = parsed["cr_network_health_component"]["samples"]
        assert set(components) == {
            f'cr_network_health_component{{component="{name}"}}'
            for name in ("delivery", "channel_liveness", "kill_pressure",
                         "occupancy_headroom")
        }
        (build,) = parsed["cr_build_info"]["samples"]
        assert f'version="{__version__}"' in build

    def test_cycle_gauge_tracks_the_run(self, server):
        result = run_simulation(
            self.run_config(server), keep_engine=True
        )
        _, _, body = fetch(server.url + "/metrics")
        parsed = parse_prometheus_text(body)
        assert parsed["cr_cycle"]["samples"]["cr_cycle"] == result.engine.now
        assert "cr_alerts_firing" in parsed

    def test_owned_server_stops_when_the_run_finishes(self):
        config = SimConfig(
            radix=4, dims=2, routing="cr", load=0.2, message_length=8,
            warmup=50, measure=200, drain=2000, seed=2,
            sample_interval=100, serve=True,
        )
        result = run_simulation(config, keep_engine=True)
        telemetry = result.engine.telemetry
        assert telemetry.owns_server  # serve=True built a fresh server
        assert not telemetry.server.running  # ...and stopped it on close
        final = parse_prometheus_text(telemetry.server.metrics_text())
        assert final["cr_cycle"]["samples"]["cr_cycle"] == result.engine.now

    def test_build_info_labels(self, server):
        from repro import __version__
        from repro.campaign.store import STORE_SCHEMA_VERSION

        run_simulation(self.run_config(server, engine="fast"))
        _, _, metrics = fetch(server.url + "/metrics")
        key = (
            f'cr_build_info{{engine="FastEngine",'
            f'schema="{STORE_SCHEMA_VERSION}",'
            f'version="{__version__}"}}'
        )
        assert parse_prometheus_text(metrics)[
            "cr_build_info"
        ]["samples"][key] == 1.0
