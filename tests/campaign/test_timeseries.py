"""Interval samples in the campaign store, runner, and report."""

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.report import campaign_markdown, saturation_onset


def sample(index, start, end, latency=10.0, occupancy=5, kills=0):
    return {
        "index": index, "start": start, "end": end,
        "injected_flits": 100, "delivered_flits": 90,
        "created_messages": 10, "delivered_messages": 9,
        "kills": kills, "accepted_load": 0.1, "throughput": 0.09,
        "kill_rate": 0.0, "latency_mean": latency, "latency_p99": latency,
        "occupancy": occupancy,
    }


@pytest.fixture
def spec():
    return CampaignSpec.from_dict({
        "name": "ts",
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "drain": 2000, "message_length": 8,
                 "sample_interval": 100},
        "axes": {"routing": ["cr"], "load": [0.1]},
    })


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


class TestStoreRoundTrip:
    def test_record_and_read_back_in_order(self, store, spec):
        point = next(iter(spec.points()))
        rows = [sample(0, 0, 100), sample(1, 100, 200)]
        assert store.record_timeseries("ts", point, rows) == 2
        series = store.timeseries("ts")
        assert series == {point.point_id: rows}

    def test_rerecord_replaces_rather_than_mixes(self, store, spec):
        point = next(iter(spec.points()))
        store.record_timeseries("ts", point, [
            sample(0, 0, 100), sample(1, 100, 200), sample(2, 200, 300),
        ])
        fresh = [sample(0, 0, 100, latency=99.0)]
        store.record_timeseries("ts", point, fresh)
        assert store.timeseries("ts")[point.point_id] == fresh

    def test_point_filter(self, store, spec):
        point = next(iter(spec.points()))
        store.record_timeseries("ts", point, [sample(0, 0, 100)])
        assert store.timeseries("ts", point_id="missing") == {}
        assert point.point_id in store.timeseries(
            "ts", point_id=point.point_id
        )

    def test_survives_reopen(self, tmp_path, spec):
        path = str(tmp_path / "c.sqlite")
        point = next(iter(spec.points()))
        with CampaignStore(path) as store:
            store.record_timeseries("ts", point, [sample(0, 0, 100)])
        with CampaignStore(path) as store:
            assert len(store.timeseries("ts")[point.point_id]) == 1


class TestRunnerJournaling:
    def test_sampled_campaign_lands_series_in_the_store(self, store, spec):
        stats = run_campaign(spec, store, workers=1)
        assert stats.complete
        series = store.timeseries("ts")
        assert len(series) == 1
        (samples,) = series.values()
        assert samples, "sampled run journaled no intervals"
        assert samples[0]["start"] == 0
        assert [s["index"] for s in samples] == list(range(len(samples)))

    def test_unsampled_campaign_stores_no_series(self, store):
        spec = CampaignSpec.from_dict({
            "name": "flat",
            "base": {"radix": 4, "warmup": 50, "measure": 200,
                     "drain": 2000, "message_length": 8},
            "axes": {"routing": ["cr"], "load": [0.1]},
        })
        run_campaign(spec, store, workers=1)
        assert store.timeseries("flat") == {}


class TestSaturationOnset:
    def test_detects_the_first_breakout_interval(self):
        series = [
            sample(0, 0, 100, latency=10.0),
            sample(1, 100, 200, latency=12.0),
            sample(2, 200, 300, latency=25.0),
            sample(3, 300, 400, latency=40.0),
        ]
        assert saturation_onset(series) == 300

    def test_flat_run_never_saturates(self):
        series = [sample(i, i * 100, (i + 1) * 100, latency=10.0)
                  for i in range(4)]
        assert saturation_onset(series) is None

    def test_all_zero_metric_returns_none(self):
        series = [sample(0, 0, 100, latency=0.0)]
        assert saturation_onset(series) is None

    def test_zero_intervals_do_not_poison_the_baseline(self):
        # A warmup interval with no deliveries reports latency 0; the
        # baseline must come from the positive samples only.
        series = [
            sample(0, 0, 100, latency=0.0),
            sample(1, 100, 200, latency=10.0),
            sample(2, 200, 300, latency=30.0),
        ]
        assert saturation_onset(series) == 300

    def test_custom_metric_and_factor(self):
        series = [
            sample(0, 0, 100, occupancy=4),
            sample(1, 100, 200, occupancy=13),
        ]
        assert saturation_onset(
            series, metric="occupancy", factor=3.0
        ) == 200


class TestCampaignMarkdownTimeSeries:
    def test_report_section_appears_with_series(self, store, spec):
        run_campaign(spec, store, workers=1)
        text = campaign_markdown(store, "ts")
        assert "## Time series" in text
        assert "saturation onset" in text
        (point_id,) = store.timeseries("ts")
        assert point_id in text

    def test_report_omits_section_without_series(self, store):
        spec = CampaignSpec.from_dict({
            "name": "flat",
            "base": {"radix": 4, "warmup": 50, "measure": 200,
                     "drain": 2000, "message_length": 8},
            "axes": {"routing": ["cr"], "load": [0.1]},
        })
        run_campaign(spec, store, workers=1)
        assert "## Time series" not in campaign_markdown(store, "flat")
