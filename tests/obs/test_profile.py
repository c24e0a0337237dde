"""Engine self-profiler: guard discipline, attribution, exports."""

import pytest

from repro import SimConfig, run_simulation
from repro.network.message import reset_uid_counter
from repro.obs.profile import _PHASE_HELP, PHASES, EngineProfiler
from repro.workload import record_trace


ENGINES = ("reference", "fast")

# One config per distinct phase table: plain CR, the fault sweep, the
# two modes where the fast engine falls back to the reference sweeps,
# and the optional tail entries.
TABLE_VARIANTS = {
    "cr": {},
    "fcr-faults": dict(routing="fcr", num_vcs=2, fault_rate=5e-4),
    "pcs": dict(routing="pcs", num_vcs=2),
    "swretry": dict(routing="dor", num_vcs=2, software_retry=True,
                    fault_rate=5e-4),
    "sampler-checker": dict(sample_interval=50, verify=True),
}


def quick_config(**overrides):
    params = dict(
        radix=4, dims=2, routing="cr", load=0.2, message_length=8,
        warmup=50, measure=300, drain=2000, seed=7,
    )
    params.update(overrides)
    return SimConfig(**params)


@pytest.fixture(scope="module")
def sparse_replay():
    """Runner replaying one load-0.02 trace: the gaps between entries
    have no actor at all, so the fast engine skips them outright."""
    reset_uid_counter()
    entries = record_trace(quick_config(load=0.02, measure=1000))

    def replay(engine, **overrides):
        reset_uid_counter()
        return run_simulation(
            quick_config(engine=engine, load=0.0, measure=1000,
                         workload={"kind": "trace", "entries": entries},
                         **overrides),
            keep_engine=True,
        )

    return replay


class TestGuardDiscipline:
    def test_default_engine_is_unprofiled(self):
        engine = quick_config().build()
        assert engine.profiler is None

    def test_config_profile_true_arms_the_profiler(self):
        engine = quick_config(profile=True).build()
        assert engine.profiler is not None
        assert engine.profiler.snapshot_interval == 0

    def test_config_profile_int_sets_snapshot_interval(self):
        engine = quick_config(profile=50).build()
        assert engine.profiler.snapshot_interval == 50

    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ValueError):
            EngineProfiler(snapshot_interval=-1)


class TestDeterminism:
    @staticmethod
    def assert_profile_only_observes(**overrides):
        plain = run_simulation(quick_config(**overrides))
        profiled = run_simulation(quick_config(profile=True, **overrides))
        profiled_report = dict(profiled.report)
        profile = profiled_report.pop("profile")
        assert profiled_report == plain.report
        assert profile["cycles"] == profiled.cycles_run

    def test_profiled_run_reproduces_the_unprofiled_report(self):
        # Profiling must only *observe*: the simulation outcome, flit
        # for flit, is identical with and without the profiler armed.
        self.assert_profile_only_observes()

    @pytest.mark.parametrize("variant", list(TABLE_VARIANTS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_timed_walk_matches_plain_walk(self, engine, variant):
        # The timed and the plain cycle walk the same table, whichever
        # engine built it and whichever hooks are in it.
        self.assert_profile_only_observes(
            engine=engine, **TABLE_VARIANTS[variant]
        )


class TestPhaseTable:
    """The profiler taxonomy and the engines' phase tables cannot drift."""

    @staticmethod
    def table_names(engine):
        # Every hook armed: fault sweep, generator, PCS, sampler, checker.
        config = quick_config(
            engine=engine, routing="pcs", num_vcs=2, fault_rate=1e-4,
            sample_interval=50, verify=True,
        )
        return [name for name, _ in config.build()._phase_table()]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_table_is_the_profiler_taxonomy(self, engine):
        assert self.table_names(engine) == [
            name for name in PHASES if name != "idle"
        ]

    def test_every_profiler_phase_can_be_emitted(self):
        # ``idle`` is the one name no table carries: the fast engine
        # records it from event skipping (asserted in
        # tests/network/test_fastengine.py).
        emitted = {"idle"}
        for engine in ENGINES:
            emitted.update(self.table_names(engine))
        assert set(PHASES) == emitted
        assert set(_PHASE_HELP) == emitted


class TestAttribution:
    def test_phase_sum_bounded_by_step_total(self):
        result = run_simulation(quick_config(profile=True),
                                keep_engine=True)
        profiler = result.engine.profiler
        # Timer + glue overhead lands in the gap, never in a phase.
        assert 0 < profiler.phase_wall_ns() <= profiler.step_wall_ns

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_cycle_phases_called_once(self, engine):
        result = run_simulation(
            quick_config(profile=True, engine=engine), keep_engine=True
        )
        profiler = result.engine.profiler
        cycles = result.cycles_run
        assert profiler.cycles == cycles
        # Unconditional phases run every cycle; optional subsystems
        # that were never attached must show zero calls.
        for name in ("credit", "arrival", "ejection", "kill",
                     "injection", "routing", "switch", "monitor"):
            assert profiler.phases[name].calls == cycles
        assert profiler.phases["fault"].calls == 0
        assert profiler.phases["sampler"].calls == 0
        assert profiler.phases["checker"].calls == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_optional_phases_counted_when_attached(self, engine):
        result = run_simulation(
            quick_config(profile=True, sample_interval=50,
                         fault_rate=1e-4, engine=engine),
            keep_engine=True,
        )
        profiler = result.engine.profiler
        assert profiler.phases["sampler"].calls == result.cycles_run
        assert profiler.phases["fault"].calls == result.cycles_run

    def test_summary_shares_sum_below_one(self):
        result = run_simulation(quick_config(profile=True))
        summary = result.report["profile"]
        assert set(summary["phases"]) == set(PHASES)
        total_share = sum(
            entry["share"] for entry in summary["phases"].values()
        )
        assert 0 < total_share <= 1.0
        assert summary["phase_wall_ns"] <= summary["step_wall_ns"]


class TestExports:
    def test_hotspot_rows_sorted_hottest_first(self):
        result = run_simulation(quick_config(profile=True),
                                keep_engine=True)
        rows = result.engine.profiler.hotspot_rows()
        assert [r["phase"] for r in rows] != []
        walls = [r["wall_ms"] for r in rows]
        assert walls == sorted(walls, reverse=True)
        assert {r["phase"] for r in rows} == set(PHASES)

    def test_hotspot_markdown_shape(self):
        result = run_simulation(quick_config(profile=True),
                                keep_engine=True)
        text = result.engine.profiler.hotspot_markdown()
        assert text.startswith("# Engine phase hotspots")
        assert "| phase | calls |" in text
        # One table row per phase.
        assert sum(
            1 for line in text.splitlines()
            if line.startswith("| ") and not line.startswith("| phase")
            and not line.startswith("| ---")
        ) == len(PHASES)

    def test_counter_track_events_from_snapshots(self):
        result = run_simulation(quick_config(profile=100),
                                keep_engine=True)
        profiler = result.engine.profiler
        assert profiler.snapshots, "snapshot interval produced no rows"
        events = profiler.counter_track_events()
        assert events
        for event in events:
            assert event["ph"] == "C"
            assert event["name"] == "engine phase wall µs"
            assert event["args"]
            assert set(event["args"]) <= set(PHASES)
        # Snapshot timestamps land on interval boundaries.
        assert all(event["ts"] % 100 == 0 for event in events)

    def test_skipped_window_boundaries_still_snapshot(self, sparse_replay):
        # A boundary that falls inside an event-skipped span closes its
        # window all the same: both engines emit the same snapshot
        # cycles, and profiling does not change what gets skipped.
        runs = {
            engine: sparse_replay(engine, profile=50) for engine in ENGINES
        }
        cycles = {
            engine: [cycle for cycle, _ in run.engine.profiler.snapshots]
            for engine, run in runs.items()
        }
        assert cycles["fast"] == cycles["reference"]
        assert cycles["reference"] == list(
            range(50, runs["reference"].cycles_run + 1, 50)
        )
        skipped = runs["fast"].engine.cycles_skipped
        assert skipped > 50
        assert skipped == sparse_replay("fast").engine.cycles_skipped

    def test_no_snapshots_means_no_counter_track(self):
        result = run_simulation(quick_config(profile=True),
                                keep_engine=True)
        assert result.engine.profiler.counter_track_events() == []

    def test_run_traced_merges_counter_track_into_perfetto(self, tmp_path):
        import json

        from repro.obs import run_traced

        path = str(tmp_path / "t.perfetto.json")
        traced = run_traced(
            quick_config(), perfetto_path=path, profile=100
        )
        assert traced.profiler is not None
        with open(path) as handle:
            entries = json.load(handle)["traceEvents"]
        counters = [e for e in entries if e.get("ph") == "C"]
        assert counters
        assert traced.perfetto_entries == len(entries)
