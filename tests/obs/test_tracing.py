"""run_traced and experiment presets: artifacts, counts, acceptance."""

import json

import pytest

from repro import SimConfig, read_jsonl, run_traced
from repro.obs import config_for_experiment, trace_experiments
from repro.obs.sinks import filter_events


def near_saturation_config(**overrides):
    """A small CR run loaded hard enough to produce kills."""
    params = dict(
        radix=4, dims=2, routing="cr", load=0.45, message_length=8,
        warmup=50, measure=300, drain=3000, seed=5,
    )
    params.update(overrides)
    return SimConfig(**params)


class TestExperimentPresets:
    def test_known_ids_build_configs(self):
        ids = trace_experiments()
        assert "e01" in ids and "fault-matrix" in ids
        for experiment in ids:
            config = config_for_experiment(experiment)
            assert config.radix == 8
            assert config.measure > 0

    def test_unknown_id_names_the_choices(self):
        with pytest.raises(ValueError, match="fault-matrix"):
            config_for_experiment("e99")

    def test_overrides_win(self):
        config = config_for_experiment("e01", seed=7, measure=100)
        assert config.seed == 7 and config.measure == 100
        assert config.routing == "cr"

    @pytest.mark.parametrize("experiment", ["e02", "e03"])
    def test_preset_is_a_point_of_its_experiments_grid(self, experiment):
        from repro.experiments import QUICK, REGISTRY
        from repro.sim.parallel import config_cache_key

        grid = {
            config_cache_key(config)
            for _, config in REGISTRY[experiment].module.points(QUICK)
        }
        assert config_cache_key(config_for_experiment(experiment)) in grid

    def test_fault_matrix_combines_fault_axes(self):
        config = config_for_experiment("fault-matrix")
        assert config.fault_rate > 0
        assert config.permanent_faults > 0
        assert config.misrouting


class TestRunTraced:
    def test_collects_events_and_counts(self):
        traced = run_traced(near_saturation_config())
        counts = traced.counts()
        assert counts["MessageCreated"] > 0
        assert counts["MessageDelivered"] > 0
        assert sum(counts.values()) == len(traced.events)
        assert traced.jsonl_path is None
        assert traced.perfetto_path is None

    def test_kill_events_match_the_kills_counter(self, tmp_path):
        # Acceptance criterion: with the JSONL sink attached, the kill
        # events recorded in the trace match the StatsCollector's kills
        # counter exactly.
        path = str(tmp_path / "kills.jsonl")
        traced = run_traced(near_saturation_config(), jsonl_path=path)
        kills = traced.report["kills"]
        assert kills > 0, "run was not loaded enough to kill worms"
        recorded = filter_events(read_jsonl(path), "KillStarted")
        assert len(recorded) == kills
        in_memory = traced.counts()["KillStarted"]
        assert in_memory == kills

    def test_every_kill_start_has_a_completion(self):
        traced = run_traced(near_saturation_config())
        counts = traced.counts()
        assert counts.get("KillStarted", 0) == counts.get(
            "KillCompleted", 0
        )
        assert counts.get("Retransmit", 0) == counts.get(
            "KillStarted", 0
        )

    def test_perfetto_artifact_parses(self, tmp_path):
        path = str(tmp_path / "run.perfetto.json")
        traced = run_traced(near_saturation_config(), perfetto_path=path)
        with open(path) as handle:
            doc = json.load(handle)
        assert len(doc["traceEvents"]) == traced.perfetto_entries > 0

    def test_sample_interval_override_collects_series(self):
        traced = run_traced(
            near_saturation_config(), sample_interval=100
        )
        assert traced.samples
        assert traced.samples == traced.report["timeseries"]

    def test_keep_engine_exposes_the_engine(self):
        traced = run_traced(near_saturation_config(), keep_engine=True)
        assert traced.result.engine is not None
        # The trace run leaves the bus attached for post-hoc queries.
        assert traced.result.engine.bus is not None

    def test_extra_sinks_receive_events(self):
        seen = []

        class Probe:
            def on_event(self, event):
                seen.append(event)

        traced = run_traced(
            near_saturation_config(), extra_sinks=[Probe()]
        )
        assert seen == traced.events
