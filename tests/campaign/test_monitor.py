"""Campaign heartbeat: monitor accounting, publishing, rendering."""

import json
import os

import pytest

from repro import SimConfig
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    render_status,
    run_campaign,
)
from repro.campaign.monitor import (
    ROLLING_WINDOW,
    CampaignMonitor,
    CampaignView,
    status_svg,
    text_sparkline,
    write_status,
)
from repro.campaign.spec import CampaignPoint
from repro.obs.metrics import parse_prometheus_text
from repro.obs.server import TelemetryServer


def tiny_spec(name="hb-test", loads=(0.1, 0.2)):
    return CampaignSpec.from_dict({
        "name": name,
        "description": "heartbeat test campaign",
        "base": {
            "radix": 4, "dims": 2, "routing": "cr",
            "message_length": 8, "warmup": 50, "measure": 150,
            "drain": 1000,
        },
        "axes": {"load": list(loads)},
        "replications": 1,
    })


def mixed_spec(name="hb-mixed"):
    """One point that journals an alert episode, one that fails both
    of its two attempts."""
    return CampaignSpec.from_dict({
        "name": name,
        "base": {
            "radix": 4, "dims": 2, "message_length": 8, "warmup": 50,
            "measure": 150, "drain": 1000, "sample_interval": 50,
            "alerts": [{"name": "always", "metric": "delivery_ratio",
                        "op": "<=", "value": 1.0, "severity": "info"}],
        },
        "axes": {"routing": ["cr", "nope"], "load": [0.1]},
        "max_attempts": 2,
    })


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def served_run(spec, db, **kwargs):
    """Run ``spec`` into the store at ``db`` with a telemetry server
    attached; returns (stats, the store's heartbeat as ``watch`` shows
    it, the last ``/metrics`` parsed, the server's publish count)."""
    server = TelemetryServer()
    try:
        with CampaignStore(db) as store:
            stats = run_campaign(spec, store, serve=server, **kwargs)
        return (stats, stored_heartbeat(db, spec.name),
                parse_prometheus_text(server.metrics_text()),
                server.publishes)
    finally:
        server.stop()


def stored_heartbeat(db, name):
    with CampaignStore(db, readonly=True) as reader:
        return CampaignView.open(reader, name).heartbeat()


def served_counts(scrape):
    """``(ok, failed)`` as the served ``cr_campaign_points_total``
    counts them."""
    samples = scrape["cr_campaign_points_total"]["samples"]
    return tuple(samples[f'cr_campaign_points_total{{outcome="{outcome}"}}']
                 for outcome in ("ok", "failed"))


def served_done(metrics_text):
    """Settled points in a published ``/metrics`` text."""
    return sum(served_counts(parse_prometheus_text(metrics_text)))


def make_point(point_id="p/rep=0", scenario=None, replication=0):
    return CampaignPoint(
        point_id=point_id,
        grid="",
        scenario=scenario or {"load": 0.1},
        replication=replication,
        config=SimConfig(radix=4, dims=2, message_length=8),
    )


class TestAtomicWrites:
    def test_write_then_read_round_trip(self, tmp_path):
        path = str(tmp_path / "deep" / "s.status.json")
        write_status(path, {"done": 3, "total": 9})
        assert read_json(path) == {"done": 3, "total": 9}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "s.status.json")
        write_status(path, {"state": "running"})
        write_status(path, {"state": "finished"})
        assert os.listdir(tmp_path) == ["s.status.json"]

    def test_reader_never_sees_a_torn_file(self, tmp_path):
        # os.replace is atomic: even immediately after a rewrite the
        # file parses as complete JSON.
        path = str(tmp_path / "s.status.json")
        for index in range(20):
            write_status(path, {"index": index, "pad": "x" * 4096})
            assert read_json(path)["index"] == index


class TestMonitorAccounting:
    def make_monitor(self, total=4):
        ticks = iter(range(1000))

        def clock():
            return float(next(ticks))

        return CampaignMonitor("m", total, None, clock=clock)

    def test_ok_and_failed_rows_both_settle_into_done(self):
        """A view folds a point once, when it settles: stored ok or
        failed with its attempt budget used up."""
        monitor = self.make_monitor()
        monitor.on_point(make_point(), "ok", 0.5)
        monitor.on_point(make_point(), "failed", 0.2)
        status = monitor.snapshot()
        assert (status["done"], status["failed"]) == (2, 1)
        assert status["last_point"]["outcome"] == "failed"
        counters = parse_prometheus_text(monitor.registry.prometheus_text())[
            "cr_campaign_points_total"]["samples"]
        assert counters == {
            'cr_campaign_points_total{outcome="ok"}': 1.0,
            'cr_campaign_points_total{outcome="failed"}': 1.0,
        }

    def test_kill_rate_sparkline_reads_the_stored_row(self):
        monitor = self.make_monitor()
        monitor.on_point(make_point(), "ok", 0.5, {"kill_rate": 0.1})
        monitor.on_point(make_point(), "ok", 0.7, {"kill_rate": 0.3})
        monitor.on_point(make_point(), "ok", 0.7, {"throughput": 0.2})
        status = monitor.snapshot()
        # A row that does not store kill_rate adds no made-up sample.
        assert status["recent_kill_rates"] == [0.1, 0.3]
        assert status["recent_wall_seconds"] == [0.5, 0.7, 0.7]
        # Nothing the journal does not hold: no rates, no counters;
        # the registry is shown on /metrics, not copied in here.
        assert "rates" not in status and "metrics" not in status
        assert not any(name.startswith(("cr_campaign_kills",
                                        "cr_campaign_retransmissions",
                                        "cr_campaign_messages"))
                       for name in monitor.registry.names())

    def test_eta_is_remaining_over_the_settle_rate(self):
        """Points that settle two at a time (two workers, one poll a
        second) read remaining / rate -- not mean point wall x
        remaining, which here reads twice too long."""
        now = [0.0]
        monitor = CampaignMonitor("m", 10, None, clock=lambda: now[0])
        assert monitor.eta_seconds() is None  # no samples yet
        # Resumed rows took no time now: folded, but not a rate.
        monitor.fold(make_point(), "ok", 2.0)
        monitor.fold(make_point(), "ok", 2.0)
        for second in (1.0, 2.0):
            now[0] = second
            monitor.fold(make_point(), "ok", 2.0)
            monitor.fold(make_point(), "ok", 2.0)
            monitor.mark()
            if second == 1.0:
                assert monitor.eta_seconds() is None  # one sample
        # 2 points a second, 4 to go.
        assert monitor.snapshot()["eta_seconds"] == pytest.approx(2.0)
        # on_point samples as it folds.
        now[0] = 3.0
        monitor.on_point(make_point(), "ok", 2.0)
        # 3 to go at (7 - 4) points per (3 - 1) seconds.
        assert monitor.eta_seconds() == pytest.approx(2.0)

    def test_eta_zero_when_complete(self):
        monitor = self.make_monitor(total=1)
        monitor.on_point(make_point(), "ok", 2.0)
        assert monitor.eta_seconds() == 0.0

    def test_rolling_window_is_bounded(self):
        monitor = self.make_monitor(total=ROLLING_WINDOW * 2)
        for index in range(ROLLING_WINDOW + 10):
            monitor.on_point(make_point(), "ok", float(index))
        assert len(monitor._recent_wall) == ROLLING_WINDOW

    def test_interval_throttles_intermediate_writes(self, tmp_path):
        """run_campaign publishes once after the resume pass, not
        between two points inside the interval, and once at the end."""
        db = str(tmp_path / "camp.sqlite")
        spec = tiny_spec()
        seen = []
        server = TelemetryServer()
        try:
            with CampaignStore(db) as store:
                run_campaign(spec, store, heartbeat=100.0, serve=server,
                             progress=lambda _: seen.append(
                                 (server.publishes,
                                  served_done(server.metrics_text()))))
            publishes = server.publishes
            final = served_done(server.metrics_text())
        finally:
            server.stop()
        assert seen == [(1, 0)] * spec.size
        assert publishes == 2
        assert final == spec.size

    def test_completion_writes_even_when_throttled(self, tmp_path):
        spec = tiny_spec()
        _, status, scrape, _ = served_run(
            spec, str(tmp_path / "camp.sqlite"), heartbeat=1000.0)
        assert status["done"] == status["total"] == spec.size
        assert status["state"] == "finished"
        assert served_counts(scrape) == (spec.size, 0)


class TestRunCampaignHeartbeat:
    def test_run_writes_and_finalizes_heartbeat(self, tmp_path):
        spec = tiny_spec()
        stats, status, scrape, _ = served_run(
            spec, str(tmp_path / "camp.sqlite"), heartbeat=0.0)
        assert stats.complete
        assert status["state"] == "finished"
        assert status["done"] == status["total"] == spec.size
        assert status["last_point"]["outcome"] == "ok"
        assert "load" in status["last_point"]["scenario"]
        assert served_counts(scrape) == (spec.size, 0)

    def test_resume_counts_skipped_points_as_done(self, tmp_path):
        db = str(tmp_path / "camp.sqlite")
        spec = tiny_spec()
        served_run(spec, db, heartbeat=0.0)
        # Second run resumes: every point skips, heartbeat stays
        # consistent at done == total.
        stats, status, scrape, _ = served_run(spec, db, heartbeat=0.0)
        assert stats.skipped == spec.size
        assert status["state"] == "finished"
        assert status["done"] == status["total"] == spec.size
        assert served_counts(scrape) == (spec.size, 0)

    def test_status_is_the_stores_view(self, tmp_path):
        """One heartbeat: the served ``cr_campaign_*`` counts are those
        of a read-only view of the same store (what ``watch`` shows),
        and the registries are shown on ``/metrics`` only."""
        db = str(tmp_path / "camp.sqlite")
        spec = mixed_spec()
        _, viewed, scrape, _ = served_run(spec, db, heartbeat=0.0)
        assert (viewed["done"], viewed["failed"]) == (2, 1)
        assert viewed["alerts"]["total"] >= 1
        assert "metrics" not in viewed
        # Two failed attempts are one settled point; no skip label.
        counters = scrape["cr_campaign_points_total"]["samples"]
        assert counters == {'cr_campaign_points_total{outcome="ok"}': 1,
                            'cr_campaign_points_total{outcome="failed"}': 1}
        assert scrape["cr_campaign_alerts_total"]["samples"][
            "cr_campaign_alerts_total"] == viewed["alerts"]["total"]

    def test_resumed_run_publishes_the_first_runs_heartbeat(self,
                                                             tmp_path):
        db = str(tmp_path / "camp.sqlite")
        spec = mixed_spec()
        _, first, first_scrape, _ = served_run(spec, db, heartbeat=0.0)
        stats, again, again_scrape, _ = served_run(spec, db, heartbeat=0.0)
        assert stats.ran == 0
        for key in ("state", "done", "total", "failed", "alerts",
                    "last_point"):
            assert again[key] == first[key], key
        for family in ("cr_campaign_points_total",
                       "cr_campaign_alerts_total",
                       "cr_campaign_alerts_by_rule_total"):
            assert (again_scrape[family]["samples"]
                    == first_scrape[family]["samples"]), family

    def test_heartbeat_none_disables_monitoring(self, tmp_path):
        spec = tiny_spec()
        stats, _, _, publishes = served_run(
            spec, str(tmp_path / "camp.sqlite"), heartbeat=None)
        assert stats.complete and publishes == 0

    def test_in_memory_store_skips_heartbeat(self):
        with CampaignStore(":memory:") as store:
            stats = run_campaign(tiny_spec(), store, heartbeat=0.0)
        assert stats.complete  # no crash, no file anywhere to check

    def test_the_store_is_the_only_record(self, tmp_path):
        """A run, served or not, writes nothing beside its store, and
        a settled re-run leaves every file byte-identical."""
        db = str(tmp_path / "camp.sqlite")
        spec = mixed_spec()
        served_run(spec, db, heartbeat=0.0)
        with CampaignStore(db) as store:
            run_campaign(spec, store, heartbeat=0.0)
        assert sorted(os.listdir(tmp_path)) == ["camp.sqlite"]
        before = (tmp_path / "camp.sqlite").read_bytes()
        served_run(spec, db, heartbeat=0.0)
        assert sorted(os.listdir(tmp_path)) == ["camp.sqlite"]
        assert (tmp_path / "camp.sqlite").read_bytes() == before


class TestRendering:
    def test_text_sparkline_shape(self):
        line = text_sparkline([0.0, 0.5, 1.0])
        assert line == "▁▅█"
        assert text_sparkline([]) == ""
        # Constant series renders mid-ramp, not flatline-at-zero.
        assert set(text_sparkline([2.0, 2.0])) == {"▅"}

    def test_text_sparkline_clamps_to_width(self):
        assert len(text_sparkline(list(range(100)))) == 32

    def test_render_status_is_pure_and_complete(self):
        status = {
            "name": "fm", "state": "running",
            "elapsed_seconds": 12.0, "eta_seconds": 48.0,
            "done": 2, "total": 8,
            "last_point": {
                "point_id": "load=0.2/rep=0", "outcome": "ok",
                "elapsed": 1.5, "scenario": {"load": 0.2},
            },
            "recent_wall_seconds": [1.0, 2.0],
            "recent_kill_rates": [0.1, 0.3],
        }
        text = render_status(status)
        assert "campaign fm [running]" in text
        assert "2/8 (25%)" in text
        assert "eta 48.0s" in text
        assert "load=0.2/rep=0" in text
        assert "load=0.2" in text
        assert "kills/delivered" not in text
        assert "▁█" in text  # sparklines present

    def test_render_status_tolerates_sparse_dict(self):
        assert "campaign ? [?]" in render_status({})

    def test_status_svg(self):
        svg = status_svg({
            "name": "fm",
            "recent_wall_seconds": [1.0, 2.0, 3.0],
            "recent_kill_rates": [0.0, 0.1],
        })
        assert svg.startswith("<svg")
        assert "point wall s" in svg and "kill rate" in svg

    def test_status_svg_tolerates_null_samples(self):
        # A heartbeat written mid-point can hold null rate samples
        # (e.g. an all-quiescent measurement interval).
        svg = status_svg({
            "name": "fm",
            "recent_wall_seconds": [1.0, None, 3.0],
            "recent_kill_rates": [None],
        })
        assert svg.startswith("<svg")
        assert "point wall s" in svg and "kill rate" in svg

    def test_render_status_tolerates_null_samples(self):
        text = render_status({
            "name": "fm", "state": "running",
            "recent_wall_seconds": [1.0, None],
            "recent_kill_rates": [None, 0.5],
        })
        assert "(last 0.00s)" in text
        assert "(last 0.500)" in text

    def test_finished_status_round_trips_through_render(self, tmp_path):
        db = str(tmp_path / "camp.sqlite")
        spec = tiny_spec()
        with CampaignStore(db) as store:
            run_campaign(spec, store, heartbeat=0.0)
        status = stored_heartbeat(db, spec.name)
        text = render_status(status)
        assert f"{spec.size}/{spec.size} (100%)" in text
        assert json.dumps(status)  # heartbeat is pure JSON
