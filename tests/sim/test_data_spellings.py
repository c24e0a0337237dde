"""A ``SimConfig`` is a value: fault schedules, cascade parameters and
alert rules are data, and ``build()`` makes every model afresh.

Each spelling below used to need a live object in the config (a
``PermanentFaultSchedule``, a ``LoadDependentFaults``, an
``AlertEngine``) that its first run used up: a re-run read different
numbers, a pool saw fresh copies that a serial sweep did not, and the
config had no hash for a store to resume on.
"""

import json

import pytest

from repro import SimConfig, run_simulation
from repro.campaign import CampaignSpec, CampaignStore, Worker, run_campaign
from repro.sim.parallel import config_cache_key, run_reports

BASE = dict(
    radix=4, dims=2, routing="fcr", misrouting=True, num_vcs=2,
    message_length=8, load=0.2, warmup=50, measure=400, drain=4000,
    seed=5,
)

#: spelling -> the fields that spell it.
SPELLINGS = {
    "placed-schedule": {
        "permanent_faults": [(120, 0, 1), (120, 1, 0), (300, 5, 6)],
    },
    "cascade-dict": {
        "cascade_faults": {
            "base_hazard": 2e-4, "load_gain": 8, "check_interval": 16,
            "neighbor_boost": 10, "boost_cycles": 96, "repair_cycles": 200,
        },
    },
    "alert-rules": {
        "sample_interval": 100,
        "alerts": [{"name": "kills", "metric": "kills", "op": ">=",
                    "value": 1, "severity": "info"}],
    },
}


def config(spelling, **overrides):
    return SimConfig(**{**BASE, **SPELLINGS[spelling], **overrides})


@pytest.mark.parametrize("spelling", SPELLINGS)
class TestEachSpelling:
    def test_a_rerun_reports_the_same(self, spelling):
        once = config(spelling)
        first = run_simulation(once).report
        assert run_simulation(once).report == first
        # ...and the model was really there.
        fired = {"placed-schedule": "kills", "alert-rules": "alerts",
                 "cascade-dict": "cascade_channel_faults"}[spelling]
        assert first[fired]

    def test_the_config_hashes(self, spelling):
        assert config_cache_key(config(spelling)) is not None

    def test_serial_rows_equal_pool_rows(self, spelling):
        # One config object shared by both points, as a sweep shares it.
        shared = config(spelling)
        points = [shared, shared.with_(load=0.25)]
        assert run_reports(points, workers=1) == \
            run_reports(points, workers=2)


def campaign():
    base = {k: v for k, v in BASE.items() if k not in ("seed", "load")}
    base.update(SPELLINGS["placed-schedule"])
    base.update(SPELLINGS["cascade-dict"])
    base.update(SPELLINGS["alert-rules"])
    return CampaignSpec.from_dict({
        "name": "placed", "base": base, "axes": {"load": [0.1, 0.2]},
    })


def hashes(spec):
    return [(p.point_id, p.config_hash) for p in spec.points()]


class TestCampaignRoundTrip:
    def test_json_keeps_every_point_hash(self):
        spec = campaign()
        loaded = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        # The trip turns every placement tuple into a list...
        assert loaded.grids[0].base["permanent_faults"][0] == [120, 0, 1]
        # ...and no hash moves.
        assert hashes(loaded) == hashes(spec)
        assert all(digest is not None for _, digest in hashes(spec))

    def test_resume_and_a_fabric_worker_skip_settled_points(self, tmp_path):
        db = str(tmp_path / "c.sqlite")
        spec = campaign()
        with CampaignStore(db) as store:
            assert run_campaign(spec, store).ran == 2
            stored = store.spec(spec.name)
            again = run_campaign(stored, store)
        assert (again.ran, again.skipped) == (0, 2)
        # A worker rebuilds the grid from the stored JSON.
        worker = Worker(spec.name, db, worker_id="w1")
        worker.run()
        assert worker.stats.complete and worker.stats.ran == 0
