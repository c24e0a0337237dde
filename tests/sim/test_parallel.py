"""Parallel sweep executor and the deterministic result cache."""

import dataclasses
import enum
import hashlib
import json
import os
import re

import pytest

from repro import SimConfig
from repro.campaign import CampaignSpec
from repro.campaign.library import campaign_names, get_campaign
from repro.campaign.spec import CampaignPoint, decode_field
from repro.core.backoff import ExponentialBackoff
from repro.core.timeout import FixedTimeout
from repro.experiments.common import PAPER, QUICK
from repro.sim import parallel
from repro.sim.parallel import (
    PointStatus,
    SweepCache,
    config_cache_key,
    resolve_cache,
    run_reports,
    unstable_fields,
)
from repro.sim.sweep import load_sweep, matrix_points, point_rows
from repro.traffic.lengths import BimodalLength, FixedLength
from repro.verify.fuzz import DEFAULT_CASES, DEFAULT_SEED, fuzz_config


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


# -- the key format, frozen ------------------------------------------------
#
# Stores and sweep caches written by any earlier version key on these
# bytes, so the algorithm below is the reference the product's key must
# reproduce exactly: sorted ``name=canonical`` pairs joined by ``;``,
# SHA-256; lists and tuples alike; memory-address reprs uncacheable.

_ORACLE_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+>")


def _oracle_canonical(value):
    if isinstance(value, dict):
        parts = []
        for key in sorted(value, key=repr):
            text = _oracle_canonical(value[key])
            if text is None:
                return None
            parts.append(f"{key!r}: {text}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        items = [_oracle_canonical(item) for item in value]
        if any(item is None for item in items):
            return None
        return "[" + ", ".join(items) + "]"
    text = repr(value)
    if _ORACLE_ADDRESS.search(text):
        return None
    return text


def _oracle_key(config):
    parts = []
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        text = _oracle_canonical(getattr(config, field.name))
        if text is None:
            return None
        parts.append(f"{field.name}={text}")
    blob = ";".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _oracle_unstable(config):
    return [
        field.name for field in dataclasses.fields(config)
        if _oracle_canonical(getattr(config, field.name)) is None
    ]


_CASCADE = dict(base_hazard=1e-6, load_gain=8.0, check_interval=16,
                neighbor_boost=25.0, boost_cycles=192,
                max_dead_fraction=0.06, repair_cycles=160)

#: name -> (config, its key as released); a changed literal means every
#: stored campaign and sweep cache silently re-runs.
PINNED = {
    "default": (
        SimConfig(),
        "a10210fe8c6a96f12290ed36c2fa7ed7ec359b7ab8474700d939b0b3b06445b4"),
    "perf-grid-point": (
        SimConfig(topology="hypercube", dims=3, message_length=4, warmup=0,
                  measure=40, drain=3000, engine="fast", routing="fcr",
                  load=0.2, seed=43),
        "b67c7fd3db690fb1c742434e177e37d3129b867b95a9acef0df37bb21cfdc800"),
    "cascade_fcr": (
        SimConfig(radix=8, dims=2, message_length=16, warmup=100,
                  measure=400, drain=6000, routing="fcr", misrouting=True,
                  cascade_faults=_CASCADE, alerts=True, sample_interval=200,
                  workload="mmpp", load=0.3, engine="fast", seed=4200),
        "ccb4e78b5fcc9d631604a1077afebce371d4bbaed93c922091ed6a9633cfd96e"),
    "pattern-kwargs": (
        SimConfig(radix=4, pattern="hotspot",
                  pattern_kwargs={"hotspot": 5, "fraction": 0.2}),
        "8e096dcbb9ea04ac195a6eea6c5b80ffd05aa0df6890b60f0408b8c67e496bcf"),
    "placed-faults-list": (
        SimConfig(radix=4, permanent_faults=[[300, 0, 1], [300, 1, 0]]),
        "ec36f1bb11dafbd78646e50e90d14fae645956800493dec69683345d37d49524"),
    "placed-faults-tuple": (
        SimConfig(radix=4, permanent_faults=((300, 0, 1), (300, 1, 0))),
        "ec36f1bb11dafbd78646e50e90d14fae645956800493dec69683345d37d49524"),
    "workload-dict": (
        SimConfig(radix=4, workload={"kind": "mmpp", "mean_on": 16}),
        "c335b4d6a354abc6f368e94b5d90e636fc83bebfad35702ae20a77e87b1ae3fc"),
    "length-distribution": (
        SimConfig(radix=4, message_length=BimodalLength(
            short=4, long=32, long_fraction=0.25)),
        "c8b4a07e9dbc0ddade87960654542c85da4001b9e9a4ba89f3ef73d0bab11ca2"),
    "policies": (
        SimConfig(radix=4, timeout=FixedTimeout(32),
                  backoff=ExponentialBackoff(), load=0.25),
        "8c3ebdf330d6f0b681186bd8bcb058f68adb8666c688c37a7fd114a2d0d26d7e"),
}


#: the benchmark's campaign grid (routing x load x 4 replications on
#: a 3-cube), at one of its seeds
PERF_GRID = CampaignSpec.from_dict({
    "name": "perf-grid",
    "base": {"topology": "hypercube", "dims": 3, "message_length": 4,
             "warmup": 0, "measure": 40, "drain": 3000, "engine": "fast"},
    "axes": {"routing": ["cr", "fcr", "dor"], "load": [0.1, 0.2, 0.3, 0.4]},
    "replications": 4,
    "seed": 7,
})


def _library_specs():
    """Every library campaign at both scales, once as shipped and once
    with three replications (so seeds above the spec's own are
    expanded), and the benchmark's grid."""
    for name in campaign_names():
        for scale in (QUICK, PAPER):
            spec = get_campaign(name, scale)
            yield spec
            yield dataclasses.replace(spec, replications=3)
    yield PERF_GRID


def _library_points():
    for spec in _library_specs():
        yield from spec.points()


def _corpus():
    """Every library point a stored campaign may hold, and the fuzz
    corpus: the configs whose keys must not move."""
    for point in _library_points():
        yield point.config
    for index in range(DEFAULT_CASES):
        yield fuzz_config(DEFAULT_SEED, index)


class TestKeyFormatIsFrozen:
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_literal(self, name):
        config, key = PINNED[name]
        assert config_cache_key(config) == key
        assert _oracle_key(config) == key

    def test_library_and_fuzz_corpus_match_the_oracle(self):
        seen = 0
        for config in _corpus():
            assert config_cache_key(config) == _oracle_key(config)
            assert unstable_fields(config) == _oracle_unstable(config)
            seen += 1
        assert seen > DEFAULT_CASES

    def test_expansion_keys_match_the_oracle(self):
        """``points()`` keys a grid once and substitutes each point's
        axis and seed texts: every point's key is its config's."""
        seen = 0
        for point in _library_points():
            assert point.config_hash == _oracle_key(point.config), \
                point.point_id
            seen += 1
        assert seen > 1000

    def test_a_config_stores_the_values_it_is_given(self):
        """What makes that substitution exact: ``SimConfig`` has no
        ``__post_init__`` and every field is an ``__init__`` argument,
        so a config's field is the value the spec passed."""
        assert not hasattr(SimConfig, "__post_init__")
        assert all(field.init for field in dataclasses.fields(SimConfig))


class TestExpandedConfigs:
    """An expanded point builds its config on first use: the config it
    builds is the one its grid names, and its key is that config's."""

    def test_each_library_point_builds_the_config_its_grid_names(self):
        seen = 0
        for spec in _library_specs():
            grids = {grid.label: grid for grid in spec.grids}
            for point in spec.points():
                assert "config" not in vars(point), point.point_id
                # An axis may also be set in the base; the axis wins.
                fields = {**grids[point.grid].base, **point.scenario}
                expected = SimConfig(
                    **{name: decode_field(name, value)
                       for name, value in fields.items()},
                    seed=spec.seed + point.replication,
                )
                # By repr: the policy objects (timeout, backoff) have
                # no __eq__, and their reprs are what the key reads.
                assert repr(point.config) == repr(expected), point.point_id
                assert point.config is point.config  # built once
                assert point.config_hash == config_cache_key(point.config)
                seen += 1
        assert seen > 1000

    def test_a_point_built_by_hand_keeps_its_config(self):
        config = tiny()
        point = CampaignPoint(point_id="p/rep=0", grid="",
                              scenario={}, replication=0, config=config)
        assert point.config is config
        assert point.config_hash == config_cache_key(config)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            point.nope


class _Cycles(int):
    def __repr__(self):
        return f"Cycles({int(self)})"


class _Depth(enum.IntEnum):
    TWO = 2


class TestKeyEdgeCases:
    """Values a fast path could get wrong: each keys as the oracle does."""

    @pytest.mark.parametrize("overrides", [
        {"pattern": "<object at 0x1f>"},
        {"message_length": _NoRepr(8)},
        {"pattern_kwargs": {"hotspot": _NoRepr(1)}},
        {"permanent_faults": [(1, 0, _NoRepr(1))]},
    ], ids=["str", "object", "in-dict", "in-list"])
    def test_memory_address_stays_uncacheable(self, overrides):
        config = tiny(**overrides)
        assert config_cache_key(config) is None
        assert unstable_fields(config) == _oracle_unstable(config) == \
            list(overrides)

    @pytest.mark.parametrize("value", [_Cycles(2), _Depth.TWO],
                             ids=["int-subclass", "IntEnum"])
    def test_int_subclasses_take_the_general_path(self, value):
        config = tiny(buffer_depth=value)
        assert config_cache_key(config) == _oracle_key(config)
        assert config_cache_key(config) != config_cache_key(
            tiny(buffer_depth=2))

    def test_bool_and_int_hash_apart(self):
        for name in ("order_preserving", "misrouting"):
            keys = {config_cache_key(tiny(**{name: value}))
                    for value in (True, 1, False, 0)}
            assert len(keys) == 4
        assert config_cache_key(tiny(order_preserving=1)) == \
            _oracle_key(tiny(order_preserving=1))

    def test_signed_zero_hashes_apart(self):
        plus, minus = tiny(fault_rate=0.0), tiny(fault_rate=-0.0)
        assert config_cache_key(plus) != config_cache_key(minus)
        assert config_cache_key(minus) == _oracle_key(minus)

    def test_a_value_equal_to_its_default_hashes_like_it(self):
        fresh = float("0")
        assert fresh is not SimConfig.fault_rate
        assert config_cache_key(tiny(fault_rate=fresh)) == \
            config_cache_key(tiny()) == _oracle_key(tiny())
        assert config_cache_key(tiny(pattern="".join(["uni", "form"]))) \
            == config_cache_key(tiny())


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


class TestFailureCapture:
    def test_default_raises(self):
        with pytest.raises(ValueError, match="unknown routing"):
            run_reports([tiny(routing="nope")])

    def test_failures_never_cached(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        with pytest.raises(ValueError, match="unknown routing"):
            run_reports([tiny(load=0.1), tiny(routing="nope")],
                        cache=cache)
        # the point that ran is cached, the one that raised is not
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestSweepDeterminism:
    def test_load_sweep_workers4_equals_workers1(self):
        base = tiny()
        loads = [0.1, 0.15, 0.2]
        serial = load_sweep(base, loads, label="cr", workers=1)
        fanned = load_sweep(base, loads, label="cr", workers=4)
        assert fanned == serial

    def test_matrix_points_workers_equal(self):
        # the experiments' path: labelled curves over one load axis
        points = matrix_points(
            {"cr": tiny(routing="cr"), "dor": tiny(routing="dor")},
            [0.1, 0.2],
        )

        def fill(coords, report):
            return {**coords, "latency_mean": report["latency_mean"]}

        serial = point_rows(points, fill, workers=1)
        fanned = point_rows(points, fill, workers=3)
        assert fanned == serial
        assert [(row["config"], row["load"]) for row in serial] == [
            ("cr", 0.1), ("cr", 0.2), ("dor", 0.1), ("dor", 0.2)]


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


class TestResolveCache:
    def test_disabled(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_default_dir(self):
        cache = resolve_cache(True)
        assert isinstance(cache, SweepCache)
        assert cache.path == parallel.DEFAULT_CACHE_DIR

    def test_passthrough(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        assert resolve_cache(cache) is cache
