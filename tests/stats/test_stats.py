"""Latency summaries, the collector, and table rendering."""

import pytest

from repro.network.message import Message
from repro.stats.collector import StatsCollector
from repro.stats.latency import histogram, percentile, summarize
from repro.stats.report import format_series, format_table


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(sorted(values), 0.0) == 1
        assert percentile(sorted(values), 1.0) == 9

    def test_single_value(self):
        assert percentile([7], 0.9) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestSummarize:
    def test_moments(self):
        summary = summarize([2, 4, 6, 8])
        assert summary.mean == 5.0
        assert summary.count == 4
        assert summary.minimum == 2
        assert summary.maximum == 8
        assert summary.std == pytest.approx(5.0**0.5)

    def test_empty_sample(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0


class TestHistogram:
    def test_binning(self):
        bins = histogram([0, 1, 15, 16, 17, 40], bin_width=16)
        assert bins == [(0, 3), (16, 2), (32, 1)]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            histogram([1], bin_width=0)


class TestCollector:
    def _delivered_message(self, created, injected, delivered):
        msg = Message(0, 1, 8, created_at=created)
        msg.begin_attempt(8, now=injected)
        msg.delivered_at = delivered
        return msg

    def test_window_marking(self):
        stats = StatsCollector(4, warmup_end=100, measure_end=200)
        early = Message(0, 1, 8, created_at=50)
        stats.on_created(early, 50)
        assert not early.measured
        inside = Message(0, 1, 8, created_at=150)
        stats.on_created(inside, 150)
        assert inside.measured

    def test_latency_only_for_measured(self):
        stats = StatsCollector(4, warmup_end=0, measure_end=1000)
        msg = self._delivered_message(10, 12, 50)
        stats.on_created(msg, 10)
        stats.on_delivery(msg, 50, corrupt=False)
        assert stats.latency_summary().count == 1
        assert stats.latency_summary().mean == 40

    def test_throughput_window(self):
        stats = StatsCollector(num_nodes=2, warmup_end=0, measure_end=100)
        msg = self._delivered_message(1, 2, 50)
        stats.on_created(msg, 1)
        stats.on_delivery(msg, 50, corrupt=False)
        late = self._delivered_message(1, 2, 150)
        stats.on_created(late, 1)
        stats.on_delivery(late, 150, corrupt=False)  # outside window
        assert stats.throughput_flits_per_node_cycle() == \
            pytest.approx(8 / (2 * 100))

    def test_pad_overhead(self):
        stats = StatsCollector(4)
        for _ in range(6):
            stats.on_flit_injected(is_pad=False)
        for _ in range(2):
            stats.on_flit_injected(is_pad=True)
        assert stats.pad_overhead() == pytest.approx(0.25)

    def test_kill_accounting(self):
        stats = StatsCollector(4)
        msg = Message(0, 1, 8)
        stats.on_kill(msg, "source_timeout")
        stats.on_kill(msg, "fkill")
        assert stats.counters["kills"] == 2
        assert stats.counters["kills_source_timeout"] == 1
        assert stats.counters["kills_fkill"] == 1

    def test_undelivered_census(self):
        stats = StatsCollector(4, warmup_end=0, measure_end=100)
        a = self._delivered_message(10, 11, 90)
        b = Message(0, 1, 8, created_at=20)
        stats.on_created(a, 10)
        stats.on_created(b, 20)
        stats.on_delivery(a, 90, corrupt=False)
        assert stats.undelivered_measured() == 1

    def test_report_keys(self):
        stats = StatsCollector(4, warmup_end=0, measure_end=100)
        report = stats.report()
        for key in ("latency_mean", "throughput", "kill_rate",
                    "pad_overhead", "undelivered"):
            assert key in report


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_series_pivot(self):
        rows = [
            {"load": 0.1, "config": "cr", "latency": 5},
            {"load": 0.1, "config": "dor", "latency": 7},
            {"load": 0.2, "config": "cr", "latency": 9},
            {"load": 0.2, "config": "dor", "latency": 12},
        ]
        text = format_series(rows, x="load", y="latency")
        lines = text.splitlines()
        assert "cr" in lines[0] and "dor" in lines[0]
        assert len(lines) == 4
