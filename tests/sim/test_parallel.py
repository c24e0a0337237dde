"""Parallel sweep executor and the deterministic result cache."""

import json
import os

import pytest

from repro import SimConfig
from repro.sim import parallel
from repro.sim.parallel import (
    PointStatus,
    SweepCache,
    config_cache_key,
    resolve_cache,
    run_reports,
)
from repro.sim.sweep import load_sweep, matrix_sweep
from repro.traffic.lengths import FixedLength


def tiny(**overrides):
    base = dict(
        radix=4, dims=2, warmup=100, measure=400, drain=3000,
        message_length=8, load=0.15, seed=21,
    )
    base.update(overrides)
    return SimConfig(**base)


class _NoRepr(FixedLength):
    """A working length distribution whose default object repr
    contains a memory address."""

    __repr__ = object.__repr__


class TestCacheKey:
    def test_stable_across_instances(self):
        assert config_cache_key(tiny()) == config_cache_key(tiny())

    def test_every_field_matters(self):
        base = config_cache_key(tiny())
        assert config_cache_key(tiny(seed=22)) != base
        assert config_cache_key(tiny(load=0.2)) != base
        assert config_cache_key(tiny(routing="dor")) != base

    def test_pattern_kwargs_participate(self):
        a = tiny(pattern="hotspot", pattern_kwargs={"fraction": 0.1})
        b = tiny(pattern="hotspot", pattern_kwargs={"fraction": 0.2})
        assert config_cache_key(a) != config_cache_key(b)

    def test_unstable_repr_is_uncacheable(self):
        config = tiny(message_length=_NoRepr(8))
        assert config_cache_key(config) is None

    def test_a_tuple_hashes_as_the_list_json_makes_of_it(self):
        placed = tiny(permanent_faults=((300, 0, 1), (300, 1, 0)))
        assert config_cache_key(placed) == config_cache_key(
            tiny(permanent_faults=[[300, 0, 1], [300, 1, 0]])
        )


class TestRunReports:
    def test_serial_matches_direct_run(self):
        from repro import run_simulation

        configs = [tiny(load=0.1), tiny(load=0.2)]
        reports = run_reports(configs, workers=1)
        assert reports == [run_simulation(c).report for c in configs]

    def test_parallel_rows_identical_to_serial(self):
        configs = [tiny(load=load) for load in (0.1, 0.15, 0.2)]
        assert run_reports(configs, workers=4) == \
            run_reports(configs, workers=1)

    def test_progress_callback(self):
        seen = []
        run_reports([tiny(load=0.1), tiny(load=0.2)], workers=1,
                    progress=seen.append)
        assert [status.index for status in seen] == [0, 1]
        assert all(status.total == 2 for status in seen)
        assert all(not status.cached for status in seen)
        assert all(status.elapsed > 0 for status in seen)

    def test_empty_input(self):
        assert run_reports([], workers=4) == []

    def test_on_result_journal_hook(self):
        landed = []
        reports = run_reports(
            [tiny(load=0.1), tiny(load=0.2)],
            workers=1,
            on_result=lambda i, r, e, c: landed.append((i, r, e, c)),
        )
        assert [entry[0] for entry in landed] == [0, 1]
        assert [entry[1] for entry in landed] == reports
        assert all(not entry[3] for entry in landed)

    def test_on_result_fires_on_cache_hits(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        run_reports([tiny(load=0.1)], cache=cache)
        landed = []
        run_reports(
            [tiny(load=0.1)], cache=cache,
            on_result=lambda i, r, e, c: landed.append((i, c)),
        )
        assert landed == [(0, True)]

    def test_on_result_under_pool(self):
        landed = []
        configs = [tiny(load=load) for load in (0.1, 0.15, 0.2)]
        reports = run_reports(
            configs, workers=3,
            on_result=lambda i, r, e, c: landed.append((i, r)),
        )
        # completion order may differ; every point lands exactly once
        assert sorted(i for i, _ in landed) == [0, 1, 2]
        for index, report in landed:
            assert reports[index] == report


class TestFailureCapture:
    def test_default_raises(self):
        with pytest.raises(ValueError, match="unknown routing"):
            run_reports([tiny(routing="nope")])

    def test_failures_return_yields_pointfailure(self):
        from repro.sim.parallel import PointFailure

        reports = run_reports(
            [tiny(load=0.1), tiny(routing="nope")], failures="return"
        )
        assert isinstance(reports[0], dict)
        assert isinstance(reports[1], PointFailure)
        assert "nope" in reports[1].error

    def test_failures_return_under_pool(self):
        from repro.sim.parallel import PointFailure

        reports = run_reports(
            [tiny(load=0.1), tiny(routing="nope"), tiny(load=0.15)],
            workers=3, failures="return",
        )
        assert isinstance(reports[1], PointFailure)
        assert isinstance(reports[0], dict)
        assert isinstance(reports[2], dict)

    def test_failures_never_cached(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        run_reports([tiny(routing="nope")], cache=cache,
                    failures="return")
        assert list(tmp_path.glob("*.json")) == []

    def test_bad_failures_value_rejected(self):
        with pytest.raises(ValueError, match="failures"):
            run_reports([tiny()], failures="ignore")


class TestSweepDeterminism:
    def test_load_sweep_workers4_equals_workers1(self):
        base = tiny()
        loads = [0.1, 0.15, 0.2]
        serial = load_sweep(base, loads, label="cr", workers=1)
        fanned = load_sweep(base, loads, label="cr", workers=4)
        assert fanned == serial

    def test_matrix_sweep_workers_equal(self):
        configs = {"cr": tiny(routing="cr"), "dor": tiny(routing="dor")}
        serial = matrix_sweep(configs, [0.1, 0.2], workers=1)
        fanned = matrix_sweep(configs, [0.1, 0.2], workers=3)
        assert fanned == serial


class TestSweepCache:
    def test_second_call_hits_cache(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        first = load_sweep(tiny(), [0.1, 0.2], cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        second = load_sweep(tiny(), [0.1, 0.2], cache=cache)
        assert second == first
        assert cache.hits == 2

    def test_cached_rows_identical_without_rerun(self, tmp_path, monkeypatch):
        cache = SweepCache(str(tmp_path))
        first = load_sweep(tiny(), [0.1], cache=cache)

        def boom(config):
            raise AssertionError("cache should have been hit")

        monkeypatch.setattr(parallel, "_run_point", boom)
        assert load_sweep(tiny(), [0.1], cache=cache) == first

    def test_stale_version_ignored(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        load_sweep(tiny(), [0.1], cache=cache)
        (entry_file,) = tmp_path.glob("*.json")
        entry = json.loads(entry_file.read_text())
        entry["version"] = "0.0.0-stale"
        entry_file.write_text(json.dumps(entry))
        cache.hits = cache.misses = 0
        load_sweep(tiny(), [0.1], cache=cache)
        assert cache.hits == 0 and cache.misses == 1
        # and the entry was rewritten at the current version
        entry = json.loads(entry_file.read_text())
        import repro

        assert entry["version"] == repro.__version__

    def test_stale_schema_ignored(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        load_sweep(tiny(), [0.1], cache=cache)
        (entry_file,) = tmp_path.glob("*.json")
        entry = json.loads(entry_file.read_text())
        entry["schema"] = parallel.SCHEMA_VERSION + 1
        entry_file.write_text(json.dumps(entry))
        assert cache.get(entry_file.stem) is None

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        load_sweep(tiny(), [0.1], cache=cache)
        (entry_file,) = tmp_path.glob("*.json")
        entry_file.write_text("{not json")
        assert cache.get(entry_file.stem) is None

    def test_progress_reports_cache_hits(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        load_sweep(tiny(), [0.1], cache=cache)
        seen = []
        load_sweep(tiny(), [0.1], cache=cache, progress=seen.append)
        assert seen == [PointStatus(index=0, total=1, elapsed=0.0,
                                    cached=True)]

    def test_uncacheable_config_runs_without_cache_entry(
        self, tmp_path, monkeypatch
    ):
        cache = SweepCache(str(tmp_path))
        config = tiny(message_length=_NoRepr(8))
        # Fake the run itself: only the cache layer is under test, and
        # it must neither store nor serve the point.
        monkeypatch.setattr(
            parallel, "_run_point", lambda c: ({"latency_mean": 1.0}, 0.01)
        )
        reports = run_reports([config], cache=cache)
        assert reports == [{"latency_mean": 1.0}]
        assert list(tmp_path.glob("*.json")) == []

    def test_clear(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        load_sweep(tiny(), [0.1, 0.2], cache=cache)
        assert cache.clear() == 2
        assert list(tmp_path.glob("*.json")) == []


class TestResolveCache:
    def test_disabled(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_default_dir(self):
        cache = resolve_cache(True)
        assert isinstance(cache, SweepCache)
        assert cache.path == parallel.DEFAULT_CACHE_DIR

    def test_path_and_passthrough(self, tmp_path):
        cache = resolve_cache(str(tmp_path))
        assert cache.path == str(tmp_path)
        assert resolve_cache(cache) is cache
