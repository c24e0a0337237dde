"""Distributed campaign fabric: workers, coordinator, CLI wiring."""

import hashlib
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    Coordinator,
    Worker,
    run_campaign,
)
from repro.campaign import fabric as fabric_module
from repro.campaign.fabric import default_worker_id, run_fabric
from repro.campaign.monitor import (
    CampaignView, render_status, render_workers)
from repro.campaign.runner import point_candidates
from repro.obs.metrics import parse_prometheus_text
from repro.sim.parallel import config_cache_key


SPEC_DICT = {
    "name": "fab",
    "base": {"radix": 4, "warmup": 50, "measure": 150,
             "drain": 1000, "message_length": 8},
    "axes": {"routing": ["cr", "dor"], "load": [0.1, 0.15]},
    "replications": 1,
}


@pytest.fixture
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "c.sqlite")


def run_worker(spec, db, **kwargs):
    worker = Worker(spec.name, db, **kwargs)
    worker.run()
    return worker


class TestSpecRoundTrip:
    def test_stored_spec_preserves_point_ids_and_hashes(self, spec, db):
        """Regression: spec JSON must round-trip through the store with
        axis order intact — fabric workers rebuild the grid from it, and
        a reordered round-trip would shard a different campaign than the
        coordinator registered."""
        with CampaignStore(db) as store:
            store.register(spec)
            loaded = store.spec(spec.name)
        assert point_candidates(list(loaded.points())) == \
            point_candidates(list(spec.points()))


class TestWorker:
    def test_unregistered_campaign_raises(self, db):
        with pytest.raises(LookupError, match="not registered"):
            Worker("ghost", db).run()

    def test_single_worker_completes_campaign(self, spec, db):
        with CampaignStore(db) as store:
            store.register(spec)
        worker = run_worker(spec, db, worker_id="w1", batch=2, poll=0.05)
        assert worker.stats.complete
        assert worker.stats.ran == 4
        assert worker.stats.failed == 0
        with CampaignStore(db) as store:
            assert store.summary(spec.name)["ok"] == 4
            (row,) = store.workers(spec.name)
            assert row["worker_id"] == "w1"
            assert row["state"] == "finished"
            assert row["done"] == 4
            assert store.leases(spec.name) == []

    def test_single_worker_rows_identical_to_run_campaign(
        self, spec, tmp_path
    ):
        """The acceptance bar: fabric sharding must not change results.

        A one-worker fabric run and the classic ``run_campaign`` must
        journal identical rows (ids, status, provenance, metrics) for
        the same spec — only wall time and timestamps may differ.
        """
        volatile = ("wall_time", "created_at", "worker_id")
        with CampaignStore(str(tmp_path / "classic.sqlite")) as store:
            stats = run_campaign(spec, store)
            assert stats.complete
            classic = {r["point_id"]: {k: v for k, v in r.items()
                                       if k not in volatile}
                       for r in store.rows(spec.name)}
        db = str(tmp_path / "fabric.sqlite")
        with CampaignStore(db) as store:
            store.register(spec)
        run_worker(spec, db, worker_id="w1", batch=2, poll=0.05)
        with CampaignStore(db) as store:
            fabric = {r["point_id"]: {k: v for k, v in r.items()
                                      if k not in volatile}
                      for r in store.rows(spec.name)}
        assert fabric == classic

    def test_two_inprocess_workers_split_the_grid(self, spec, db):
        with CampaignStore(db) as store:
            store.register(spec)
        workers = [Worker(spec.name, db, worker_id=f"w{i}", batch=1,
                          poll=0.02) for i in (1, 2)]
        threads = [threading.Thread(target=w.run) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(w.stats.complete for w in workers)
        assert sum(w.stats.ran for w in workers) == 4
        with CampaignStore(db) as store:
            assert store.summary(spec.name)["ok"] == 4

    def test_resume_skips_stored_points(self, spec, db):
        with CampaignStore(db) as store:
            run_campaign(spec, store)
        worker = run_worker(spec, db, worker_id="w1")
        assert worker.stats.complete
        assert worker.stats.ran == 0  # everything already settled

    def test_a_worker_leaves_the_run_start_alone(self, spec, db):
        """The campaign's ``updated_at`` is the run's start, stamped by
        the submitter: ``CampaignView.open`` reads elapsed time and the
        ETA's rate samples from it, so a worker joining later must not
        move it."""
        with CampaignStore(db) as store:
            store.register(spec)
            store._conn.execute(
                "UPDATE campaigns SET updated_at = 100.0 WHERE name = ?",
                (spec.name,))
        worker = run_worker(spec, db, worker_id="w1", batch=4)
        assert worker.stats.ran == 4
        with CampaignStore(db) as store:
            assert store.updated_at(spec.name) == 100.0

    def test_reclaim_is_published_before_the_batch_runs(self, spec, db):
        """A takeover is on the worker's row by the time its first
        point settles, not a heartbeat interval (here 20 s) later: the
        coordinator's settling poll must count it."""
        with CampaignStore(db) as store:
            store.register(spec)
            candidates = point_candidates(list(spec.points()))
            store.acquire_leases(spec.name, "ghost", candidates[:1],
                                 limit=1, ttl=1.0, now=0.0)
            published = []
            run_worker(
                spec, db, worker_id="w1", batch=4, ttl=60.0,
                progress=lambda status: published.append(sum(
                    row["reclaims"] for row in store.workers(spec.name))),
            )
        assert published == [1, 1, 1, 1]

    def test_default_worker_id_embeds_pid(self):
        assert default_worker_id().endswith(str(__import__("os").getpid()))


class TestCoordinator:
    def test_aggregates_to_completion(self, spec, db):
        store = CampaignStore(db)
        coordinator = Coordinator(spec, store, interval=0.05)
        worker = Worker(spec.name, db, worker_id="w1", batch=2, poll=0.05)
        thread = threading.Thread(target=worker.run)
        thread.start()
        stats = coordinator.run(timeout=120)
        thread.join(timeout=30)
        store.close()
        assert stats.complete
        assert (stats.ok, stats.failed, stats.total) == (4, 0, 4)
        assert stats.workers_seen == 1
        with CampaignStore(db, readonly=True) as reader:
            status = CampaignView.open(reader, spec.name).heartbeat()
        assert status["state"] == "finished"
        assert status["done"] == status["total"] == 4
        assert status["kind"] == "fabric"
        (row,) = status["workers"]
        assert row["worker_id"] == "w1"
        assert status["fabric"]["reclaims"] == 0

    def test_publishes_fabric_gauges(self, spec, db):
        store = CampaignStore(db)
        coordinator = Coordinator(spec, store)
        run_worker(spec, db, worker_id="w1", batch=4)
        coordinator.poll()
        families = parse_prometheus_text(
            coordinator.registry.prometheus_text())
        store.close()
        assert families["cr_fabric_points_total"]["samples"][
            "cr_fabric_points_total"] == 4
        assert families["cr_fabric_points_done"]["samples"][
            "cr_fabric_points_done"] == 4
        assert families["cr_fabric_workers_seen"]["samples"][
            "cr_fabric_workers_seen"] == 1
        assert "cr_fabric_lease_reclaims_total" in families
        assert "cr_fabric_leases_held" in families
        (info,) = [k for k in families["cr_fabric_build_info"]["samples"]]
        assert 'schema="5"' in info

    def test_a_settled_campaign_spawns_no_worker(self, spec, db,
                                                 monkeypatch):
        """``run_fabric`` over a store that already holds every point
        settled starts no process, so nothing races to write to it."""
        with CampaignStore(db) as store:
            assert run_campaign(spec, store).complete

        def refuse(*args, **kwargs):
            raise AssertionError("spawned a worker for a settled campaign")

        monkeypatch.setattr(fabric_module, "spawn_worker", refuse)
        with open(db, "rb") as handle:
            before = hashlib.sha256(handle.read()).hexdigest()
        probe = sqlite3.connect(db)
        try:
            version = probe.execute("PRAGMA data_version").fetchone()
            stats = run_fabric(spec, db, workers=2, interval=0.05)
            assert probe.execute("PRAGMA data_version").fetchone() == \
                version
        finally:
            probe.close()
        assert stats.complete and stats.workers_seen == 0
        with open(db, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == before

    def test_survives_restart_mid_campaign(self, spec, db):
        """Coordinator loss never stalls the fabric: a fresh coordinator
        resumes aggregating the same store."""
        store = CampaignStore(db)
        first = Coordinator(spec, store)
        first.poll()
        del first  # coordinator "crash"
        run_worker(spec, db, worker_id="w1", batch=4)
        second = Coordinator(spec, store)
        status = second.poll()
        store.close()
        assert status["done"] == status["total"] == 4


#: two points, each journaling one alert episode (the rule holds in
#: every sampler window).
ALERTING_DICT = {
    "name": "fab-al",
    "base": {"radix": 4, "warmup": 50, "measure": 200, "drain": 2000,
             "message_length": 8, "sample_interval": 100,
             "alerts": [{"name": "heartbeat", "metric": "delivery_ratio",
                         "op": "<=", "value": 1.0, "severity": "info"}]},
    "axes": {"routing": ["cr"], "load": [0.1, 0.2]},
}


class TestOneHeartbeat:
    """The coordinator's heartbeat is the local runner's: the same
    CampaignMonitor, folded from what the journal holds."""

    def test_fabric_heartbeat_matches_a_local_run(self, db, tmp_path):
        from repro.obs.server import TelemetryServer

        spec = CampaignSpec.from_dict(ALERTING_DICT)
        polled = []
        server = TelemetryServer()
        store = CampaignStore(db)
        try:
            coordinator = Coordinator(
                spec, store, interval=0.05, server=server,
                on_poll=polled.append)
            run_worker(spec, db, worker_id="w1")
            stats = coordinator.run(timeout=60)
            served = server.status()
            health = server.health()
            scrape = parse_prometheus_text(server.metrics_text())
        finally:
            server.stop()
            store.close()
        assert stats.complete
        with CampaignStore(db, readonly=True) as reader:
            status = CampaignView.open(reader, spec.name).heartbeat()
        text = render_status(status)
        assert "alerts: 2 episode(s)  heartbeatx2" in text
        assert "last point: " in text
        assert "point wall s" in text and "kill rate" in text
        assert "kills/delivered" not in text
        assert "workers: 1" in text
        # The registries are shown on /metrics only.
        assert "metrics" not in status and "metrics" not in served
        # One heartbeat everywhere it is read.
        assert polled[-1]["alerts"] == served["alerts"] == status["alerts"]
        assert health["alerts"] == {"heartbeat": 2}
        assert health["workers_live"] == 0  # w1 left, state finished
        assert scrape["cr_campaign_alerts_total"]["samples"][
            "cr_campaign_alerts_total"] == 2
        assert scrape["cr_fabric_points_done"]["samples"][
            "cr_fabric_points_done"] == 2

        local_db = str(tmp_path / "local.sqlite")
        with CampaignStore(local_db) as local_store:
            run_campaign(spec, local_store, heartbeat=0.0)
            local = CampaignView.open(local_store, spec.name).heartbeat()
        assert set(status) - set(local) == {"kind", "workers", "fabric"}
        assert set(local) <= set(status)
        for key in ("done", "total", "failed", "recent_kill_rates",
                    "alerts", "eta_seconds"):
            assert status[key] == local[key], key
        assert {k: v for k, v in status["last_point"].items()
                if k != "elapsed"} == {
            k: v for k, v in local["last_point"].items() if k != "elapsed"}

    def test_watch_view_from_the_store_matches_the_coordinator(self, db):
        """``campaign watch`` folds the journal over a read-only
        connection into the heartbeat the coordinator publishes."""
        spec = CampaignSpec.from_dict(ALERTING_DICT)
        with CampaignStore(db) as store:
            coordinator = Coordinator(spec, store, interval=0.05)
            run_worker(spec, db, worker_id="w1")
            assert coordinator.run(timeout=60).complete
            published = coordinator.poll()
        with CampaignStore(db, readonly=True) as reader:
            watched = CampaignView.open(reader, spec.name).heartbeat()
        # One assembly: every key but the ones that read the clock
        # (worker ages, the running time since each view started).
        assert set(watched) == set(published)
        for key in set(published) - {"workers", "elapsed_seconds"}:
            assert watched[key] == published[key], key
        assert [w["worker_id"] for w in watched["workers"]] == ["w1"]
        text = render_status(watched)
        assert "alerts: 2 episode(s)  heartbeatx2" in text
        assert "last point: " in text and "workers: 1" in text
        assert "STALE" not in text

    def test_view_eta_reads_the_journal_timestamps(self, spec, db):
        """One read gives an ETA: the settle rate comes from the rows'
        own journal times, and a row an earlier run journaled is no
        sample (it took no time now)."""
        points = list(spec.points())
        with CampaignStore(db) as store:
            store.register(spec)
            for point, at in zip(points[:3], (50.0, 101.0, 102.0)):
                store.record_success(spec.name, point, {}, 0.5)
                store._conn.execute(
                    "UPDATE results SET created_at = ? WHERE point_id = ?",
                    (at, point.point_id))
            status = CampaignView(spec, points, store,
                                  started=100.0).heartbeat(now=103.0)
        assert (status["done"], status["total"]) == (3, 4)
        # One point a second since the view started; one to go.
        assert status["eta_seconds"] == pytest.approx(1.0)
        assert status["updated_at"] == 102.0
        assert status["elapsed_seconds"] == pytest.approx(3.0)
        assert status["state"] == "running" and "workers" not in status

    def test_resumed_coordinator_folds_what_already_settled(self, db):
        spec = CampaignSpec.from_dict(ALERTING_DICT)
        store = CampaignStore(db)
        first = Coordinator(spec, store)
        assert first.poll()["done"] == 0
        del first  # coordinator "crash"
        run_worker(spec, db, worker_id="w1")
        second = Coordinator(spec, store)
        status = second.poll()
        again = second.poll()  # nothing is folded twice
        store.close()
        assert status["done"] == status["total"] == 2
        assert status["state"] == "finished"
        assert status["eta_seconds"] == 0.0
        assert status["last_point"]["outcome"] == "ok"
        assert len(status["recent_wall_seconds"]) == 2
        assert len(status["recent_kill_rates"]) == 2
        assert status["alerts"]["total"] == 2
        assert again["alerts"] == status["alerts"]
        assert again["done"] == 2

    def test_verify_is_stored_so_a_plain_worker_runs_it(self, db):
        """The stored spec carries ``verify``: a worker joined without
        being told still runs the verified points, and their hashes
        are the ones ``config.with_(verify=True)`` gives."""
        spec = CampaignSpec.from_dict(dict(
            SPEC_DICT, axes={"routing": ["cr"], "load": [0.1, 0.15]}))
        store = CampaignStore(db)
        coordinator = Coordinator(spec, store, interval=0.05, verify=True)
        assert all(grid.base["verify"] is True
                   for grid in store.spec(spec.name).grids)
        worker = run_worker(spec, db, worker_id="w1")
        stats = coordinator.run(timeout=30)
        hashes = {row["point_id"]: row["config_hash"]
                  for row in store.rows(spec.name)}
        store.close()
        assert worker.stats.complete and stats.complete
        assert hashes == {
            point.point_id: config_cache_key(
                point.config.with_(verify=True))
            for point in spec.points()
        }


class TestWorkersPane:
    def test_render_workers_lines(self):
        status = {
            "workers": [
                {"worker_id": "w1", "state": "live", "done": 3,
                 "failed": 1, "leases": 2, "reclaims": 0,
                 "last_seen_age": 0.5},
                {"worker_id": "w2", "state": "dead", "done": 0,
                 "failed": 0, "leases": 1, "reclaims": 0,
                 "last_seen_age": 120.0},
            ],
            "fabric": {"live_workers": 1, "reclaims": 2},
        }
        lines = render_workers(status)
        assert lines[0] == "  workers: 2 (1 live)   lease reclaims: 2"
        assert lines[1].startswith("   + w1")
        assert "done 3 (1 failed)" in lines[1]
        assert lines[2].startswith("   ! w2")
        assert "[dead" in lines[2]

    def test_render_status_includes_pane_only_for_fabric(self):
        base = {"name": "x", "state": "running", "done": 1, "total": 2,
                "updated_at": __import__("time").time()}
        assert "workers:" not in render_status(dict(base))
        fabric = dict(base, workers=[
            {"worker_id": "w1", "state": "live", "done": 1,
             "failed": 0, "leases": 0, "reclaims": 0,
             "last_seen_age": 0.1}])
        assert "workers: 1" in render_status(fabric)


class TestCli:
    def run_cli(self, *argv, cwd):
        import os

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, timeout=300, cwd=str(cwd),
            env=env,
        )

    def test_worker_unregistered_campaign_exits_2(self, tmp_path,
                                                  usage_error):
        proc = self.run_cli(
            "campaign", "worker", "ghost", "--db", "c.sqlite",
            cwd=tmp_path,
        )
        assert proc.returncode == 2
        usage_error("campaign worker", "not registered", err=proc.stderr)

    def test_worker_memory_db_exits_2(self, tmp_path, usage_error):
        proc = self.run_cli(
            "campaign", "worker", "x", "--db", ":memory:", cwd=tmp_path,
        )
        assert proc.returncode == 2
        usage_error("campaign worker", "on-disk", err=proc.stderr)

    def test_lease_flags_require_fabric(self, tmp_path, usage_error):
        proc = self.run_cli(
            "campaign", "run", "fault-matrix", "--db", "c.sqlite",
            "--lease-ttl", "5", cwd=tmp_path,
        )
        assert proc.returncode == 2
        usage_error("campaign run", "--workers-fabric", err=proc.stderr)

    def test_fabric_run_memory_db_exits_2(self, tmp_path, usage_error):
        proc = self.run_cli(
            "campaign", "run", "fault-matrix", "--db", ":memory:",
            "--workers-fabric", "2", cwd=tmp_path,
        )
        assert proc.returncode == 2
        usage_error("campaign run", "on-disk", err=proc.stderr)

    def test_registered_campaign_worker_completes(self, spec, tmp_path):
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            store.register(spec)
        proc = self.run_cli(
            "campaign", "worker", spec.name, "--db", db,
            "--worker-id", "cli-w1", "--poll", "0.05",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "campaign complete" in proc.stderr
        with CampaignStore(db) as store:
            assert store.summary(spec.name)["ok"] == 4
