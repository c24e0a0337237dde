"""Trace recording and replay (workload-identical A/B methodology)."""

import pytest

from repro import SimConfig, run_simulation
from repro.sim.parallel import config_cache_key
from repro.workload import ScheduledArrival, record_trace


def base_config(**overrides):
    defaults = dict(
        radix=4, dims=2, routing="cr", load=0.15, message_length=8,
        warmup=50, measure=400, drain=4000, seed=19,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def replay(entries):
    """The ``workload`` value that replays ``entries``."""
    return {"kind": "trace", "entries": entries}


class TestTrace:
    def test_entries_sorted_by_cycle(self):
        result = run_simulation(base_config(load=0.0, workload=replay(
            [(5, 0, 1, 4), (1, 2, 3, 4), (3, 1, 0, 4)]
        )))
        # Admission order (uid) follows the cycle, not the list order.
        admitted = sorted(result.ledger.deliveries, key=lambda m: m.uid)
        assert [m.created_at for m in admitted] == [1, 3, 5]


class TestRecord:
    def test_recorded_trace_matches_generator_statistics(self):
        config = base_config()
        trace = record_trace(config)
        assert len(trace) > 0
        assert all(isinstance(e, ScheduledArrival) for e in trace)
        horizon = config.warmup + config.measure
        assert all(0 <= e.cycle < horizon for e in trace)
        assert all(e.src != e.dst for e in trace)
        assert all(e.length == 8 for e in trace)

    def test_recording_is_deterministic(self):
        config = base_config()
        assert record_trace(config) == record_trace(config)

    def test_seed_changes_trace(self):
        a = record_trace(base_config(seed=1))
        b = record_trace(base_config(seed=2))
        assert a != b

    def test_explicit_bernoulli_records_the_default_trace(self):
        assert record_trace(base_config(workload="bernoulli")) \
            == record_trace(base_config())

    @pytest.mark.parametrize(
        "workload", ["mmpp", "incast:period=32,fanin=4"]
    )
    def test_other_workloads_are_refused_not_ignored(self, workload):
        with pytest.raises(ValueError, match="config.workload"):
            record_trace(base_config(workload=workload))

    def test_a_config_that_replays_a_trace_is_refused(self):
        trace = record_trace(base_config())
        with pytest.raises(ValueError, match="config.workload"):
            record_trace(base_config(workload=replay(trace)))

    def test_a_replay_config_has_a_cache_key(self):
        config = base_config()
        key = config_cache_key(
            config.with_(workload=replay(record_trace(config)))
        )
        assert key is not None
        assert key != config_cache_key(config)


class TestReplay:
    def test_replay_offers_identical_workload_to_both_schemes(self):
        trace = record_trace(base_config())
        results = {}
        for scheme in ("cr", "dor"):
            result = run_simulation(
                base_config(routing=scheme, workload=replay(trace))
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
            base_config(workload=replay(trace), queue_cap=2, drain=10000)
        )
        assert result.report["messages_created"] == len(trace)
        assert result.report["undelivered"] == 0

    def test_exhausted_flag(self):
        engine = base_config(workload=replay([(0, 0, 1, 4)])).build()
        generator = engine.generator
        assert not generator.exhausted
        engine.run(5)
        assert generator.exhausted
        assert generator.replayed == 1

    def test_replay_determinism_end_to_end(self):
        trace = record_trace(base_config())
        a = run_simulation(base_config(workload=replay(trace)))
        b = run_simulation(base_config(workload=replay(trace)))
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
        assert load_workload_trace(path) == trace

    def test_path_replay_matches_inline_entries(self, tmp_path):
        from repro.workload import save_workload_trace

        trace = record_trace(base_config())
        path = str(tmp_path / "workload.jsonl")
        save_workload_trace(trace, path)
        inline = run_simulation(base_config(workload=replay(trace)))
        from_file = run_simulation(
            base_config(workload=f"trace:{path}")
        )
        # Same scheduled arrivals through either spelling: the run is
        # identical.
        assert from_file.report == inline.report
        assert from_file.report["messages_created"] == len(trace)
