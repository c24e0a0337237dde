"""Trace recording and replay (workload-identical A/B methodology)."""

import pytest

from repro import SimConfig, run_simulation
from repro.traffic.trace import Trace, TraceEntry, record_trace


def base_config(**overrides):
    defaults = dict(
        radix=4, dims=2, routing="cr", load=0.15, message_length=8,
        warmup=50, measure=400, drain=4000, seed=19,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestTrace:
    def test_entries_sorted_by_cycle(self):
        trace = Trace(
            [TraceEntry(5, 0, 1, 4), TraceEntry(1, 2, 3, 4),
             TraceEntry(3, 1, 0, 4)]
        )
        assert [e.cycle for e in trace] == [1, 3, 5]

    def test_tuple_roundtrip(self):
        trace = Trace([TraceEntry(1, 0, 1, 8), TraceEntry(2, 3, 0, 4)])
        again = Trace.from_tuples(trace.as_tuples())
        assert again.as_tuples() == trace.as_tuples()

    def test_totals(self):
        trace = Trace([TraceEntry(0, 0, 1, 8), TraceEntry(1, 1, 2, 4)])
        assert len(trace) == 2
        assert trace.total_payload_flits() == 12


class TestRecord:
    def test_recorded_trace_matches_generator_statistics(self):
        config = base_config()
        trace = record_trace(config)
        assert len(trace) > 0
        horizon = config.warmup + config.measure
        assert all(0 <= e.cycle < horizon for e in trace)
        assert all(e.src != e.dst for e in trace)
        assert all(e.length == 8 for e in trace)

    def test_recording_is_deterministic(self):
        config = base_config()
        assert record_trace(config).as_tuples() == \
            record_trace(config).as_tuples()

    def test_seed_changes_trace(self):
        a = record_trace(base_config(seed=1))
        b = record_trace(base_config(seed=2))
        assert a.as_tuples() != b.as_tuples()

    def test_explicit_bernoulli_records_the_default_trace(self):
        assert record_trace(base_config(workload="bernoulli")).as_tuples() \
            == record_trace(base_config()).as_tuples()

    @pytest.mark.parametrize(
        "workload", ["mmpp", "incast:period=32,fanin=4"]
    )
    def test_other_workloads_are_refused_not_ignored(self, workload):
        with pytest.raises(ValueError, match="config.workload"):
            record_trace(base_config(workload=workload))

    def test_a_config_that_replays_a_trace_is_refused(self):
        trace = record_trace(base_config())
        with pytest.raises(ValueError, match="config.trace"):
            record_trace(base_config(trace=trace))


class TestReplay:
    def test_replay_offers_identical_workload_to_both_schemes(self):
        trace = record_trace(base_config())
        results = {}
        for scheme in ("cr", "dor"):
            result = run_simulation(
                base_config(routing=scheme, trace=trace)
            )
            results[scheme] = result
        # Both runs created exactly the trace's messages.
        for result in results.values():
            assert result.report["messages_created"] == len(trace)
            assert result.report["undelivered"] == 0
            assert result.drained

    def test_full_queue_slips_but_preserves_workload(self):
        trace = record_trace(base_config(load=0.5))
        result = run_simulation(
            base_config(trace=trace, queue_cap=2, drain=10000)
        )
        assert result.report["messages_created"] == len(trace)
        assert result.report["undelivered"] == 0

    def test_exhausted_flag(self):
        trace = Trace([TraceEntry(0, 0, 1, 4)])
        engine = base_config(trace=trace).build()
        generator = engine.generator
        assert not generator.exhausted
        engine.run(5)
        assert generator.exhausted
        assert generator.replayed == 1

    def test_replay_determinism_end_to_end(self):
        trace = record_trace(base_config())
        a = run_simulation(base_config(trace=trace))
        b = run_simulation(base_config(trace=trace))
        assert a.latency == b.latency
        assert a.report["kills"] == b.report["kills"]


class TestWorkloadTraceRoundTrip:
    """record_trace -> JSONL -> workload='trace:<path>' replay."""

    def test_jsonl_roundtrip_preserves_entries(self, tmp_path):
        from repro.workload import (
            load_workload_trace,
            save_workload_trace,
        )

        trace = record_trace(base_config())
        path = str(tmp_path / "workload.jsonl")
        assert save_workload_trace(trace, path) == len(trace)
        loaded = load_workload_trace(path)
        assert [
            (e.cycle, e.src, e.dst, e.length) for e in loaded
        ] == list(trace.as_tuples())

    def test_workload_trace_mode_matches_legacy_replay(self, tmp_path):
        from repro.workload import save_workload_trace

        trace = record_trace(base_config())
        path = str(tmp_path / "workload.jsonl")
        save_workload_trace(trace, path)
        legacy = run_simulation(base_config(trace=trace))
        workload = run_simulation(
            base_config(workload=f"trace:{path}")
        )
        # Same scheduled arrivals through either replay path: the
        # delivered workload is identical.
        for key in ("messages_created", "messages_delivered",
                    "undelivered"):
            assert workload.report[key] == legacy.report[key]
        assert workload.report["messages_created"] == len(trace)

    def test_trace_and_workload_are_mutually_exclusive(self):
        trace = record_trace(base_config())
        config = base_config(trace=trace, workload="mmpp")
        with pytest.raises(ValueError, match="workload"):
            config.build()
