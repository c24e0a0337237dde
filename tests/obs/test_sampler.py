"""Interval sampler: boundaries, counter deltas, exports."""

import csv

import pytest

from repro import SimConfig, run_simulation
from repro.obs.sampler import IntervalSampler


def sampled_result(interval=100, measure=300, **overrides):
    params = dict(
        radix=4, dims=2, routing="cr", load=0.2, message_length=8,
        warmup=50, measure=measure, drain=3000, seed=2,
        sample_interval=interval,
    )
    params.update(overrides)
    return run_simulation(SimConfig(**params), keep_engine=True)


class TestConstruction:
    def test_rejects_nonpositive_interval(self):
        engine = SimConfig(radix=4, dims=2, message_length=8).build()
        with pytest.raises(ValueError):
            IntervalSampler(engine, interval=0)

    def test_config_wires_the_sampler(self):
        engine = SimConfig(
            radix=4, dims=2, message_length=8, sample_interval=50
        ).build()
        assert engine.sampler is not None
        assert engine.sampler.interval == 50


class TestSampling:
    def test_intervals_tile_the_run_contiguously(self):
        result = sampled_result()
        samples = result.report["timeseries"]
        assert samples, "sampled run produced no intervals"
        assert [s["index"] for s in samples] == list(range(len(samples)))
        assert samples[0]["start"] == 0
        for prev, cur in zip(samples, samples[1:]):
            assert cur["start"] == prev["end"]
        assert samples[-1]["end"] == result.cycles_run

    def test_finalize_closes_a_partial_trailing_interval(self):
        # 350 active cycles at interval 100 plus a drain that almost
        # never lands on a boundary: the last sample must be partial.
        result = sampled_result(interval=100, measure=300)
        samples = result.report["timeseries"]
        spans = [s["end"] - s["start"] for s in samples]
        assert all(span == 100 for span in spans[:-1])
        assert 0 < spans[-1] <= 100

    def test_deltas_sum_to_the_run_totals(self):
        result = sampled_result()
        samples = result.report["timeseries"]
        counters = result.stats.counters
        assert (sum(s["created_messages"] for s in samples)
                == counters["messages_created"])
        assert (sum(s["delivered_messages"] for s in samples)
                == counters["messages_delivered"])
        assert (sum(s["kills"] for s in samples) == counters["kills"])
        assert (sum(s["injected_flits"] for s in samples)
                == counters["flits_injected"])

    def test_latency_stats_cover_each_interval_independently(self):
        result = sampled_result()
        samples = result.report["timeseries"]
        delivered = [s for s in samples if s["delivered_messages"]]
        assert delivered
        for sample in delivered:
            assert sample["latency_p99"] >= sample["latency_mean"] > 0

    def test_empty_interval_reports_latency_as_none(self):
        # An interval with no deliveries has no latency distribution:
        # mean/p99 must be None, not a misleading 0.0.
        result = sampled_result(interval=10, load=0.02)
        samples = result.report["timeseries"]
        empty = [s for s in samples if not s["delivered_messages"]]
        assert empty, "run produced no empty windows to check"
        for sample in empty:
            assert sample["latency_mean"] is None
            assert sample["latency_p99"] is None

    def test_interval_longer_than_run_still_emits_final_sample(self):
        # sample_interval far beyond the run length: finalize must
        # close the one partial window covering the entire run.
        result = sampled_result(interval=100_000, measure=300)
        samples = result.report["timeseries"]
        assert len(samples) == 1
        (sample,) = samples
        assert sample["start"] == 0
        assert sample["end"] == result.cycles_run
        assert (sample["delivered_messages"]
                == result.stats.counters["messages_delivered"])

    def test_occupancy_drains_to_zero(self):
        result = sampled_result()
        samples = result.report["timeseries"]
        assert samples[-1]["occupancy"] == 0  # run fully drained
        assert max(s["occupancy"] for s in samples) > 0


class TestListeners:
    def test_listeners_see_every_closed_window_in_order(self):
        calls = []

        class Recorder:
            def on_sample(self, engine, sample):
                calls.append((sample["index"], sample["end"]))

        engine = SimConfig(
            radix=4, dims=2, routing="cr", load=0.2, message_length=8,
            warmup=50, measure=300, drain=3000, seed=2,
            sample_interval=100,
        ).build()
        engine.sampler.listeners.append(Recorder())
        engine.run(20_000)
        engine.sampler.finalize(engine.now)
        assert [index for index, _ in calls] == list(range(len(calls)))
        assert calls == [(s["index"], s["end"])
                         for s in engine.sampler.samples]


class TestExports:
    def test_series_matches_rows(self):
        result = sampled_result()
        sampler = result.engine.sampler
        assert sampler.series("kills") == [
            s["kills"] for s in sampler.rows()
        ]

    def test_to_csv_round_trip(self, tmp_path):
        result = sampled_result()
        path = str(tmp_path / "series.csv")
        count = result.engine.sampler.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert count == len(rows) == len(result.report["timeseries"])
        assert rows[0]["start"] == "0"  # a CSV reads back as strings

    def test_to_svg_renders_one_row_per_metric(self, tmp_path):
        result = sampled_result()
        path = str(tmp_path / "series.svg")
        svg = result.engine.sampler.to_svg(path, title="t")
        assert svg.startswith("<svg")
        for metric in ("accepted_load", "throughput", "latency_mean",
                       "kills", "occupancy"):
            assert f">{metric}</text>" in svg
        with open(path) as handle:
            assert handle.read() == svg
