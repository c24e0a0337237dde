"""Metrics registry: types, exposition format, round-trip, publisher."""

import math
import threading

import pytest

from repro import SimConfig, run_simulation
from repro.obs.metrics import (
    COUNTER_HELP,
    LATENCY_BUCKETS,
    WALL_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    engine_metrics,
    parse_prometheus_text,
)


def finished_engine(**overrides):
    params = dict(
        radix=4, dims=2, routing="cr", load=0.2, message_length=8,
        warmup=50, measure=300, drain=2000, seed=11,
    )
    params.update(overrides)
    return run_simulation(SimConfig(**params), keep_engine=True).engine


class TestPrimitives:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        assert gauge.value == 10.0
        gauge.set(3)
        assert gauge.value == 3.0

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.inf_count == 1
        assert hist.count == 4
        assert hist.sum == 555.5
        lines = hist.sample_lines("h", ())
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="100"} 3' in lines
        assert 'h_bucket{le="+Inf"} 4' in lines
        assert "h_count 4" in lines

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))


class TestRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "Hits.")
        second = registry.counter("hits")
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing", "A thing.")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_labels_partition_instances(self):
        registry = MetricsRegistry()
        ok = registry.counter("points", "Points.",
                              labels={"outcome": "ok"})
        failed = registry.counter("points",
                                  labels={"outcome": "failed"})
        assert ok is not failed
        ok.inc(3)
        text = registry.prometheus_text()
        assert 'points{outcome="ok"} 3' in text
        assert 'points{outcome="failed"} 0' in text

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(prefix="bad prefix ")
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("no spaces allowed")
        with pytest.raises(ValueError):
            registry.counter("ok", labels={"bad-label": "x"})

    def test_prefix_applies_to_every_family(self):
        registry = MetricsRegistry(prefix="cr_")
        registry.counter("kills_total", "Kills.")
        assert registry.names() == ["cr_kills_total"]

    def test_families_lists_name_type_help(self):
        registry = MetricsRegistry()
        registry.counter("a", "Help A.")
        registry.histogram("b", "Help B.", buckets=(1.0,))
        assert registry.families() == [
            ("a", "counter", "Help A."),
            ("b", "histogram", "Help B."),
        ]

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("writes", "Writes.").inc(7)
        prom = tmp_path / "deep" / "m.prom.txt"
        text = registry.write_prometheus(str(prom))
        assert prom.read_text() == text
        assert "writes 7" in text


class TestHistogramEdges:
    def test_value_on_exact_bound_lands_in_that_bucket(self):
        # Prometheus `le` is inclusive: observe(10.0) counts in le="10".
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(10.0)
        assert hist.counts == [0, 1]
        assert hist.inf_count == 0
        assert 'h_bucket{le="10"} 1' in hist.sample_lines("h", ())

    def test_value_above_every_bound_lands_in_inf(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(10.0000001)
        assert hist.counts == [0, 0]
        assert hist.inf_count == 1
        assert 'h_bucket{le="+Inf"} 1' in hist.sample_lines("h", ())

    def test_negative_observation_lands_in_the_first_bucket(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(-5.0)
        assert hist.counts == [1, 0]
        assert hist.sum == -5.0
        assert hist.count == 1

    def test_prometheus_text_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "Latency.",
                                  buckets=(1.0, 10.0, 100.0))
        for value in (-1.0, 1.0, 10.0, 99.0, 1e9):
            hist.observe(value)
        # The instance keeps per-bucket counts; the text is cumulative.
        assert (hist.counts, hist.inf_count) == ([2, 1, 1], 1)
        parsed = parse_prometheus_text(registry.prometheus_text())
        samples = parsed["lat"]["samples"]
        assert samples['lat_bucket{le="1"}'] == 2
        assert samples['lat_bucket{le="10"}'] == 3
        assert samples['lat_bucket{le="100"}'] == 4
        assert samples['lat_bucket{le="+Inf"}'] == 5
        assert samples["lat_count"] == 5
        assert samples["lat_sum"] == pytest.approx(1e9 + 109.0)


class TestThreadSafety:
    def test_hammer_leaves_exact_totals(self):
        # Four writer threads hammer one counter and one histogram
        # through the registry while a reader thread renders the text
        # export concurrently; with the registry lock shared into every
        # instance the final totals are exact, not approximately right.
        registry = MetricsRegistry()
        counter = registry.counter("hits", "Hits.")
        hist = registry.histogram("obs", "Obs.", buckets=(0.5,))
        per_thread, threads = 2_000, 4

        def writer():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(1.0)

        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                text = registry.prometheus_text()
                seen.append(parse_prometheus_text(text)["obs"]["samples"][
                    "obs_count"])

        workers = [threading.Thread(target=writer)
                   for _ in range(threads)]
        observer = threading.Thread(target=reader)
        observer.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        observer.join()
        total = per_thread * threads
        assert counter.value == total
        assert hist.count == total
        assert hist.inf_count == total
        assert seen and seen[-1] <= total

    def test_snapshot_is_atomic_under_concurrent_registration(self):
        # Registering new families while exporting must never corrupt
        # an in-flight prometheus_text render.
        registry = MetricsRegistry()
        registry.counter("seed", "Seed.").inc()

        def register():
            for index in range(200):
                registry.counter(f"extra_{index}").inc()

        worker = threading.Thread(target=register)
        worker.start()
        for _ in range(50):
            parsed = parse_prometheus_text(registry.prometheus_text())
            assert parsed["seed"]["samples"]["seed"] == 1.0
        worker.join()
        assert "extra_199" in registry.names()


class TestLabelEscaping:
    def test_special_label_values_round_trip(self):
        registry = MetricsRegistry()
        hostile = 'quote " slash \\ newline \n done'
        registry.gauge("g", "G.", labels={"v": hostile}).set(7)
        text = registry.prometheus_text()
        assert "\n\n" not in text.replace("\n# ", "x")  # still one line
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parsed = parse_prometheus_text(text)
        (key,) = parsed["g"]["samples"]
        assert parsed["g"]["samples"][key] == 7.0
        # The parsed key re-renders the escapes exactly as exported.
        assert key == 'g{v="quote \\" slash \\\\ newline \\n done"}'

    def test_escaped_export_reimports_identically(self):
        registry = MetricsRegistry()
        registry.counter("c", "C.", labels={"a": 'x"y', "b": "p\\q"})
        registry.counter("c", labels={"a": "plain", "b": "r\ns"}).inc(3)
        first = registry.prometheus_text()
        parsed = parse_prometheus_text(first)
        assert len(parsed["c"]["samples"]) == 2
        assert sum(parsed["c"]["samples"].values()) == 3.0

    def test_malformed_label_blocks_rejected(self):
        for bad in ('m{a="unterminated} 1\n',
                    'm{a=noquote} 1\n',
                    'm{a="x" b="y"} 1\n',
                    'm{a="x"'):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad)


class TestRoundTrip:
    def test_every_family_survives_parse(self):
        engine = finished_engine()
        registry = engine_metrics(engine)
        parsed = parse_prometheus_text(registry.prometheus_text())
        for name, kind, help_text in registry.families():
            assert name in parsed, f"family {name} lost in round-trip"
            assert parsed[name]["type"] == kind
            assert parsed[name]["help"] == help_text

    def test_counter_values_survive_parse(self):
        engine = finished_engine()
        registry = engine_metrics(engine)
        parsed = parse_prometheus_text(registry.prometheus_text())
        delivered = engine.stats.counters["messages_delivered"]
        assert (parsed["cr_messages_delivered_total"]["samples"]
                ["cr_messages_delivered_total"] == delivered)

    def test_histogram_samples_attributed_to_family(self):
        engine = finished_engine()
        parsed = parse_prometheus_text(
            engine_metrics(engine).prometheus_text()
        )
        family = parsed["cr_message_latency_cycles"]
        assert family["type"] == "histogram"
        samples = family["samples"]
        measured = len(engine.stats.total_latencies)
        assert measured > 0
        assert samples["cr_message_latency_cycles_count"] == measured
        inf_key = 'cr_message_latency_cycles_bucket{le="+Inf"}'
        assert samples[inf_key] == measured
        # Cumulative buckets never decrease toward +Inf.
        bounds = [f'cr_message_latency_cycles_bucket{{le="{b:g}"}}'
                  for b in LATENCY_BUCKETS]
        values = [samples[k] for k in bounds if k in samples]
        assert values == sorted(values)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparsable"):
            parse_prometheus_text("this is not prometheus\n")

    def test_inf_value_parses(self):
        parsed = parse_prometheus_text("x 1\ny +Inf\n")
        assert parsed["y"]["samples"]["y"] == math.inf


class TestEnginePublisher:
    def test_every_stats_counter_published(self):
        engine = finished_engine()
        registry = engine_metrics(engine)
        names = set(registry.names())
        for counter in engine.stats.counters:
            if counter.startswith("kills_"):
                assert "cr_kills_by_cause_total" in names
            else:
                assert f"cr_{counter}_total" in names

    def test_declared_help_used(self):
        engine = finished_engine()
        families = dict(
            (name, help_text)
            for name, _, help_text in engine_metrics(engine).families()
        )
        for counter, help_text in COUNTER_HELP.items():
            name = f"cr_{counter}_total"
            if name in families:
                assert families[name] == help_text

    def test_kill_causes_fold_into_labelled_family(self):
        engine = finished_engine(load=0.4)
        counters = engine.stats.counters
        causes = {name[len("kills_"):]: counters[name]
                  for name in counters if name.startswith("kills_")}
        assert causes, "run produced no kill causes to fold"
        text = engine_metrics(engine).prometheus_text()
        for cause, count in causes.items():
            assert (f'cr_kills_by_cause_total{{cause="{cause}"}} '
                    f"{count:g}" in text)

    def test_latency_histogram_matches_stats(self):
        engine = finished_engine()
        registry = engine_metrics(engine)
        hist = registry.histogram("message_latency_cycles")
        assert hist.count == len(engine.stats.total_latencies)
        assert hist.sum == pytest.approx(
            sum(engine.stats.total_latencies)
        )

    def test_gauges_zero_after_full_drain(self):
        engine = finished_engine()
        registry = engine_metrics(engine)
        assert registry.gauge("live_messages").value == 0
        assert registry.gauge("in_flight_worms").value == 0
        assert registry.gauge("buffer_occupancy_flits").value == 0
        assert registry.gauge("cycle").value == engine.now

    def test_new_hook_counters_are_live(self):
        engine = finished_engine()
        counters = engine.stats.counters
        assert counters["flits_ejected"] > 0
        assert counters["kill_segments_flushed"] >= 0
        # Ejected flits account for everything delivered.
        assert (counters["flits_ejected"]
                >= counters["payload_flits_delivered"])

    def test_wall_time_buckets_shape(self):
        assert list(WALL_TIME_BUCKETS) == sorted(WALL_TIME_BUCKETS)
        assert WALL_TIME_BUCKETS[0] < 1.0 < WALL_TIME_BUCKETS[-1]
