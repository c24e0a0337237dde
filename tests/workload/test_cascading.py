"""Load-dependent cascading faults: hazards, clusters, repairs, guards."""

import pytest

from repro.faults.cascading import LoadDependentFaults, make_cascading
from repro.faults.model import CompositeFaultModel
from repro.network.message import reset_uid_counter
from repro.sim.simulator import run_simulation
from repro.verify import workload_equivalence_configs


def cascade_result():
    reset_uid_counter()
    config = workload_equivalence_configs()["cascade"]
    return run_simulation(config, keep_engine=True)


def find_model(engine):
    model = engine.fault_model
    if isinstance(model, LoadDependentFaults):
        return model
    assert isinstance(model, CompositeFaultModel)
    for child in model.models:
        if isinstance(child, LoadDependentFaults):
            return child
    raise AssertionError("no LoadDependentFaults on the engine")


@pytest.fixture(scope="module")
def stressed():
    result = cascade_result()
    return result, find_model(result.engine)


class TestFactory:
    def test_a_built_model_is_refused(self):
        # A config holds data; a hand-built model goes to the engine.
        with pytest.raises(TypeError, match="engine constructor"):
            make_cascading(LoadDependentFaults())

    def test_true_means_defaults(self):
        model = make_cascading(True, seed=9)
        assert model.base_hazard == 1e-6
        assert model.seed == 9

    def test_dict_kwargs(self):
        model = make_cascading(
            {"base_hazard": 1e-4, "check_interval": 16}, seed=3
        )
        assert model.base_hazard == 1e-4
        assert model.check_interval == 16
        assert model.seed == 3

    def test_dict_seed_wins_over_default(self):
        assert make_cascading({"seed": 7}, seed=3).seed == 7

    def test_string_form(self):
        model = make_cascading(
            "base_hazard=1e-4,load_gain=6,repair_cycles=300", seed=1
        )
        assert model.base_hazard == pytest.approx(1e-4)
        assert model.load_gain == pytest.approx(6.0)
        assert model.repair_cycles == 300

    @pytest.mark.parametrize("text", ["", "cascade", "default"])
    def test_bare_strings_mean_defaults(self, text):
        model = make_cascading(text, seed=2)
        assert model.check_interval == 32 and model.seed == 2

    def test_malformed_string(self):
        with pytest.raises(ValueError, match="key=value"):
            make_cascading("base_hazard")

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            make_cascading(42)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LoadDependentFaults(base_hazard=-1.0)
        with pytest.raises(ValueError):
            LoadDependentFaults(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            LoadDependentFaults(check_interval=0)
        with pytest.raises(ValueError):
            LoadDependentFaults(neighbor_boost=0.5)
        with pytest.raises(ValueError):
            LoadDependentFaults(max_dead_fraction=1.5)


class TestBoundaries:
    def test_next_event_math(self):
        model = LoadDependentFaults(check_interval=32)
        assert model.next_event(0) == 0
        assert model.next_event(64) == 64
        assert model.next_event(1) == 32
        assert model.next_event(33) == 64

    def test_off_boundary_cycles_are_pure_noops(self):
        model = LoadDependentFaults(check_interval=32)
        # network=None would crash on any real work; off-boundary
        # cycles must return before touching it.
        for now in (1, 5, 31, 33, 63):
            model.on_cycle(now, network=None)
        assert not model._bound and model.channel_faults == 0


class TestStressRun:
    """The cascade equivalence preset drives genuine cascades."""

    def test_faults_applied_and_tallied(self, stressed):
        _, model = stressed
        assert model.channel_faults > 0
        assert len(model.applied) == model.channel_faults
        check = model.check_interval
        assert all(now % check == 0 for now, _, _ in model.applied)

    def test_clusters_account_for_every_fault(self, stressed):
        _, model = stressed
        sizes = [members for _, members in model._clusters.values()]
        assert sum(sizes) == model.channel_faults
        assert model.cascade_events == sum(1 for s in sizes if s >= 2)

    def test_repairs_ran_on_boundaries(self, stressed):
        _, model = stressed
        assert model.repairs_done > 0
        check = model.check_interval
        assert all(due % check == 0 for due, _ in model._repairs)

    def test_connectivity_guard_held(self, stressed):
        _, model = stressed
        for node, dead in model._dead_out.items():
            assert dead <= model._out_degree[node] - 1
        for node, dead in model._dead_in.items():
            assert dead <= model._out_degree[node] - 1

    def test_outage_stays_bounded(self, stressed):
        _, model = stressed
        cap = max(
            1, int(model.max_dead_fraction * len(model._channels))
        )
        dead = sum(1 for c in model._channels if c.dead)
        assert dead <= cap

    def test_counters_mirrored_into_report(self, stressed):
        result, model = stressed
        report = result.report
        assert report["cascade_channel_faults"] == model.channel_faults
        assert report["cascade_events"] == model.cascade_events
        assert report["cascade_repairs"] == model.repairs_done
        assert report["cascade_clusters"] == len(model._clusters)

    def test_fault_sequence_is_deterministic(self, stressed):
        result, model = stressed
        rerun = cascade_result()
        assert find_model(rerun.engine).applied == model.applied
        assert dict(rerun.report) == dict(result.report)


class TestStatsBinding:
    def test_bind_stats_reaches_composite_children(self):
        class FakeStats:
            pass

        stats = FakeStats()
        child = LoadDependentFaults()
        composite = CompositeFaultModel([child])
        composite.bind_stats(stats)
        assert child.stats is stats

    def test_counting_without_stats_is_safe(self):
        model = LoadDependentFaults()
        model._count("cascade_events")  # no stats bound: no-op
