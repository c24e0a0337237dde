"""Alert episodes through the campaign layer: store, runner, watch."""

import sqlite3

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.monitor import (
    STALE_AFTER,
    CampaignMonitor,
    heartbeat_age,
    render_alerts,
    render_status,
)
from repro.campaign.report import campaign_markdown
from repro.campaign.spec import CampaignPoint
from repro.sim.config import SimConfig


def episode(rule="kill-storm", severity="critical", state="resolved",
            fired_at=200, resolved_at=400, value=2.0):
    return {
        "rule": rule, "severity": severity, "state": state,
        "fired_at": fired_at, "resolved_at": resolved_at,
        "value": value, "message": f"{rule} test episode",
    }


#: a rule that holds in every window, so campaigns journal an episode
#: per point deterministically.
ALWAYS = [{"name": "heartbeat", "metric": "delivery_ratio",
           "op": "<=", "value": 1.0, "severity": "info"}]


def alerting_spec(name="al", alerts=ALWAYS, loads=(0.1, 0.2)):
    return CampaignSpec.from_dict({
        "name": name,
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "drain": 2000, "message_length": 8,
                 "sample_interval": 100, "alerts": alerts},
        "axes": {"routing": ["cr"], "load": list(loads)},
    })


def make_point(point_id="load=0.1/rep=0"):
    return CampaignPoint(
        point_id=point_id, grid="", scenario={"load": 0.1},
        replication=0,
        config=SimConfig(radix=4, dims=2, message_length=8),
    )


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


def journal(store, point, episodes, campaign="al"):
    """Settle ``point`` ok with ``episodes`` in the same transaction."""
    assert store.record_success(campaign, point, {}, 0.1, alerts=episodes)


class TestStoreRoundTrip:
    def test_record_and_read_back_in_order(self, store):
        spec = alerting_spec()
        store.register(spec)
        point = next(iter(spec.points()))
        rows = [episode(), episode(rule="delivery-slo",
                                   severity="warning", state="firing",
                                   resolved_at=None)]
        journal(store, point, rows)
        assert store.alerts("al") == {point.point_id: rows}

    def test_rerecord_replaces(self, store):
        spec = alerting_spec()
        point = next(iter(spec.points()))
        journal(store, point, [episode(), episode()])
        journal(store, point, [episode(fired_at=999)])
        (rows,) = store.alerts("al").values()
        assert [row["fired_at"] for row in rows] == [999]

    def test_alert_counts_roll_up_by_rule(self, store):
        spec = alerting_spec()
        point = next(iter(spec.points()))
        journal(store, point, [
            episode(), episode(), episode(rule="delivery-slo"),
        ])
        assert store.alert_counts("al") == {
            point.point_id: {"kill-storm": 2, "delivery-slo": 1},
        }

    def test_empty_campaign_reads_empty(self, store):
        assert store.alerts("nothing") == {}
        assert store.alert_counts("nothing") == {}

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        point = make_point()
        with CampaignStore(path) as store:
            journal(store, point, [episode()])
        with CampaignStore(path) as store:
            assert len(store.alerts("al")[point.point_id]) == 1


class TestRunnerJournaling:
    def test_alerting_campaign_lands_episodes_in_the_store(
            self, store):
        spec = alerting_spec()
        stats = run_campaign(spec, store, workers=1)
        assert stats.complete
        journaled = store.alerts("al")
        assert len(journaled) == spec.size
        for rows in journaled.values():
            assert [row["rule"] for row in rows] == ["heartbeat"]
            assert rows[0]["state"] == "firing"

    def test_a_point_never_settles_without_its_episodes(self, store):
        """A write that fails while a point's episodes go in (a killed
        process, a full disk) leaves the point unsettled, so a resume
        re-runs it and its episodes land; it never leaves an ``ok`` row
        that resume skips for good without them."""
        spec = alerting_spec()
        store._conn.execute(
            "CREATE TRIGGER full_disk BEFORE INSERT ON alerts "
            "BEGIN SELECT RAISE(ABORT, 'disk full'); END")
        with pytest.raises(sqlite3.DatabaseError, match="disk full"):
            run_campaign(spec, store, workers=1, heartbeat=None)
        assert store.completed("al") == {}
        store._conn.execute("DROP TRIGGER full_disk")
        stats = run_campaign(spec, store, workers=1, heartbeat=None)
        assert (stats.ran, stats.skipped) == (spec.size, 0)
        settled = sorted(store.completed("al"))
        assert len(settled) == spec.size
        assert sorted(store.alerts("al")) == settled
        assert sorted(store.timeseries("al")) == settled

    def test_unarmed_campaign_stores_no_alerts(self, store):
        spec = CampaignSpec.from_dict({
            "name": "flat",
            "base": {"radix": 4, "warmup": 50, "measure": 200,
                     "drain": 2000, "message_length": 8},
            "axes": {"routing": ["cr"], "load": [0.1]},
        })
        run_campaign(spec, store, workers=1)
        assert store.alerts("flat") == {}

    def test_cascade_stress_arms_the_builtin_rules(self):
        from repro.campaign.library import get_campaign

        spec = get_campaign("cascade-stress")
        point = next(iter(spec.points()))
        assert point.config.alerts is True
        assert point.config.sample_interval == 200


class TestLiveServing:
    def test_metrics_round_trip_while_the_campaign_runs(
            self, store):
        # The progress callback fires between points, i.e. while the
        # campaign is genuinely mid-flight: scraping there proves the
        # endpoints are live during execution, not just at the end.
        import urllib.request

        from repro.obs.metrics import parse_prometheus_text
        from repro.obs.server import TelemetryServer

        server = TelemetryServer()
        scrapes = []

        def scrape(_status):
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=5
            ) as response:
                scrapes.append(
                    parse_prometheus_text(
                        response.read().decode("utf-8")))

        spec = alerting_spec()
        try:
            stats = run_campaign(
                spec, store, workers=1,
                heartbeat=0.0, serve=server, progress=scrape,
            )
            final = parse_prometheus_text(server.metrics_text())
        finally:
            server.stop()
        assert stats.complete
        assert len(scrapes) == spec.size == 2
        # The second point's scrape reads the heartbeat published once
        # the first point was journaled: live while the run is not done.
        parsed = scrapes[-1]
        counters = parsed["cr_campaign_points_total"]["samples"]
        assert counters['cr_campaign_points_total{outcome="ok"}'] == 1
        assert parsed["cr_campaign_alerts_total"]["samples"][
            "cr_campaign_alerts_total"
        ] >= 1.0
        assert final["cr_campaign_points_total"]["samples"][
            'cr_campaign_points_total{outcome="ok"}'] == spec.size

    def test_runner_stops_an_owned_server(self, store):
        from repro.obs.server import TelemetryServer

        spec = alerting_spec(name="al2", loads=(0.1,))
        # A spec (True) makes the runner build and own the server; we
        # can't reach it afterwards, so just assert clean completion.
        stats = run_campaign(spec, store, workers=1,
                             heartbeat=0.0, serve=True)
        assert stats.complete
        # An instance stays caller-owned: still running afterwards.
        server = TelemetryServer()
        try:
            run_campaign(spec, store, workers=1,
                         heartbeat=0.0, serve=server)
            assert server.running
            assert server.status()["state"] == "finished"
        finally:
            server.stop()


class TestMonitorAlerts:
    def make_monitor(self, total=4):
        ticks = iter(range(1000))
        return CampaignMonitor("m", total, None,
                               clock=lambda: float(next(ticks)))

    def test_episodes_land_in_heartbeat_and_registry(self):
        monitor = self.make_monitor()
        monitor.fold(make_point(), "ok", 0.5, None, [
            episode(), episode(rule="delivery-slo", severity="warning")])
        status = monitor.snapshot()
        assert status["alerts"]["total"] == 2
        assert status["alerts"]["by_rule"] == {
            "kill-storm": 1, "delivery-slo": 1,
        }
        assert [a["point_id"] for a in status["alerts"]["recent"]] == [
            "load=0.1/rep=0", "load=0.1/rep=0",
        ]
        by_rule = monitor.registry.snapshot()[
            "cr_campaign_alerts_by_rule_total"]["values"]
        assert by_rule['{rule="kill-storm",severity="critical"}'] == 1.0

    def test_build_info_gauge_in_heartbeat_metrics(self):
        from repro import __version__

        monitor = self.make_monitor()
        monitor.on_point(make_point(), "ok", 0.5, {})
        values = monitor.registry.snapshot()[
            "cr_campaign_build_info"]["values"]
        (key,) = values
        assert f'version="{__version__}"' in key
        assert values[key] == 1.0

    def test_monitor_republishes_to_a_server(self, tmp_path):
        from repro.obs.server import TelemetryServer

        server = TelemetryServer()
        try:
            monitor = CampaignMonitor("m", 2, None)
            monitor.server = server
            monitor.fold(make_point(), "ok", 0.5, None, [episode()])
            monitor.publish(monitor.snapshot("finished"))
            assert server.publishes == 1
            health = server.health()
            assert health["campaign"] == "m"
            assert health["status"] == "finished"
            assert health["alerts"] == {"kill-storm": 1}
            assert "cr_campaign_points_total" in server.metrics_text()
            assert server.status()["state"] == "finished"
        finally:
            server.stop()


class TestWatchRendering:
    def status_with_alerts(self, state="running", updated_at=None):
        status = {
            "name": "al", "state": state,
            "done": 1, "total": 4,
            "alerts": {
                "total": 2,
                "by_rule": {"kill-storm": 1, "delivery-slo": 1},
                "recent": [
                    dict(episode(), point_id="p0"),
                    dict(episode(rule="delivery-slo", state="firing",
                                 resolved_at=None), point_id="p1"),
                ],
            },
        }
        if updated_at is not None:
            status["updated_at"] = updated_at
        return status

    def test_render_alerts_marks_firing_episodes(self):
        lines = render_alerts(self.status_with_alerts())
        assert lines[0].startswith("  alerts: 2 episode(s)")
        assert "delivery-slox1" in lines[0]
        firing = [line for line in lines if line.lstrip().startswith("!")]
        assert len(firing) == 1
        assert "delivery-slo" in firing[0]

    def test_render_alerts_empty(self):
        assert render_alerts({}) == ["  alerts: none"]

    def test_alerts_only_filter_drops_progress(self):
        text = render_status(self.status_with_alerts(),
                             alerts_only=True)
        assert "— alerts" in text
        assert "kill-storm" in text
        assert "elapsed" not in text  # progress block dropped

    def test_stale_heartbeat_banner_keeps_alerts_visible(self):
        now = 1000.0
        status = self.status_with_alerts(
            updated_at=now - STALE_AFTER - 5.0)
        assert heartbeat_age(status, now=now) == pytest.approx(
            STALE_AFTER + 5.0)
        text = render_status(status, now=now)
        assert text.startswith("!! STALE heartbeat")
        assert "last-known" in text
        assert "kill-storm" in text  # alerts still render after banner

    def test_fresh_or_finished_heartbeat_has_no_banner(self):
        now = 1000.0
        fresh = self.status_with_alerts(updated_at=now - 1.0)
        assert "STALE" not in render_status(fresh, now=now)
        finished = self.status_with_alerts(
            state="finished", updated_at=now - 500.0)
        assert "STALE" not in render_status(finished, now=now)

    def test_stale_threshold_is_strictly_past(self):
        # The banner triggers strictly *past* the threshold: an age of
        # exactly stale_after is still fresh, one tick later is stale.
        now = 1000.0
        at_threshold = self.status_with_alerts(
            updated_at=now - STALE_AFTER)
        assert "STALE" not in render_status(at_threshold, now=now)
        just_past = self.status_with_alerts(
            updated_at=now - STALE_AFTER - 1e-3)
        assert "STALE" in render_status(just_past, now=now)

    def test_stale_threshold_is_configurable(self):
        # `campaign watch --stale-after` tightens or relaxes the
        # banner; the same edge semantics hold at the custom value.
        now = 1000.0
        status = self.status_with_alerts(updated_at=now - 5.0)
        assert "STALE" not in render_status(status, now=now)  # default 15
        assert "STALE" in render_status(status, now=now,
                                        stale_after=4.0)
        assert "STALE" not in render_status(status, now=now,
                                            stale_after=5.0)  # exact age
        assert "STALE" not in render_status(status, now=now,
                                            stale_after=60.0)


class TestCampaignMarkdownAlerts:
    def test_report_counts_and_lists_episodes(self, store):
        spec = alerting_spec()
        run_campaign(spec, store, workers=1)
        text = campaign_markdown(store, "al")
        assert "| alerts |" in text  # scenario table column
        assert "## Alerts" in text
        assert "heartbeat" in text
        assert "firing" in text

    def test_report_omits_alert_section_without_episodes(self, store):
        spec = CampaignSpec.from_dict({
            "name": "flat",
            "base": {"radix": 4, "warmup": 50, "measure": 200,
                     "drain": 2000, "message_length": 8},
            "axes": {"routing": ["cr"], "load": [0.1]},
        })
        run_campaign(spec, store, workers=1)
        text = campaign_markdown(store, "flat")
        assert "## Alerts" not in text
        assert "| — |" in text or "| alerts |" in text
