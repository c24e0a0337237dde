"""Campaign runner: resume, crash safety, failure retry."""

import json
import sqlite3
import threading
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    Coordinator,
    run_campaign,
)
from repro.sim import parallel
from repro.sim.config import SimConfig


@pytest.fixture
def spec():
    return CampaignSpec.from_dict({
        "name": "r",
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "drain": 2000, "message_length": 8},
        "axes": {"routing": ["cr", "dor"], "load": [0.1, 0.15]},
        "replications": 1,
    })


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


def counting_run_point(monkeypatch):
    """Route _run_point through a call counter; returns the counter."""
    calls = []
    real = parallel._run_point

    def wrapper(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(parallel, "_run_point", wrapper)
    return calls


class TestRunAndResume:
    def test_full_run_stores_every_point(self, spec, store):
        stats = run_campaign(spec, store)
        assert stats.complete
        assert (stats.ran, stats.skipped, stats.failed) == (4, 0, 0)
        assert store.summary("r")["ok"] == 4
        assert stats.wall_time > 0

    def test_second_run_skips_everything(self, spec, store, monkeypatch):
        run_campaign(spec, store)
        calls = counting_run_point(monkeypatch)
        stats = run_campaign(spec, store)
        assert stats.complete
        assert (stats.ran, stats.skipped) == (0, 4)
        assert calls == []

    def test_changed_spec_reruns_stale_points(self, spec, store,
                                              monkeypatch):
        run_campaign(spec, store)
        changed = CampaignSpec.from_dict({
            **spec.to_dict(),
            "base": {**spec.to_dict()["base"], "buffer_depth": 4},
        })
        calls = counting_run_point(monkeypatch)
        stats = run_campaign(changed, store)
        # same point ids, different configs: provenance forces re-runs
        assert (stats.ran, stats.skipped) == (4, 0)
        assert len(calls) == 4

    def test_a_point_without_a_config_hash_is_refused(self, spec, store):
        # A hand-written length distribution without a repr hashes to
        # None: a resume could not tell it from a changed one.  Refused
        # by name before the spec is stored.
        from repro.traffic.lengths import FixedLength

        class NoRepr(FixedLength):
            __repr__ = object.__repr__

        body = spec.to_dict()
        body["base"]["message_length"] = NoRepr(8)
        with pytest.raises(ValueError,
                           match="routing=cr/load=0.1/rep=0.*message_length"):
            run_campaign(CampaignSpec.from_dict(body), store)
        assert store.spec("r") is None and store.rows("r") == []

    def test_interrupted_run_resumes_without_rerunning(
        self, spec, store, monkeypatch
    ):
        seen = []

        def interrupt_after_two(status):
            seen.append(status)
            if status.done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store, progress=interrupt_after_two)
        # the two completed points were journaled before the interrupt
        assert store.summary("r")["ok"] == 2

        calls = counting_run_point(monkeypatch)
        stats = run_campaign(spec, store)
        assert stats.complete
        assert (stats.ran, stats.skipped) == (2, 2)
        assert len(calls) == 2  # completed points never re-simulated

    def test_interrupt_between_points_still_tears_down(self, spec, store):
        from repro.obs.server import TelemetryServer

        def interrupt_after_two(status):
            if status.done == 2:
                raise KeyboardInterrupt

        def serving():
            return {thread.name for thread in threading.enumerate()
                    if thread.name.startswith("cr-telemetry:")}

        before = serving()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store, progress=interrupt_after_two,
                         trace=True, serve=0)
        # No span left open (`campaign timeline` relies on it), the root
        # closed on what ran, the server this call started gone.
        assert "open" not in store.span_counts("r")
        (root,) = [s for s in store.spans("r") if s["kind"] == "root"]
        assert root["status"] == "error"
        assert root["attrs"] == {"executor": "local", "ran": 2,
                                 "skipped": 0, "failed": 0}
        assert serving() == before
        # A caller's server is the caller's to stop.
        server = TelemetryServer()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store, progress=interrupt_after_two,
                             serve=server)
            assert server.running
        finally:
            server.stop()

    def test_progress_reports_skips_and_runs(self, spec, store):
        run_campaign(spec, store)
        seen = []
        run_campaign(spec, store, progress=seen.append)
        assert [s.outcome for s in seen] == ["skipped"] * 4
        assert [s.done for s in seen] == [1, 2, 3, 4]
        assert all(s.total == 4 for s in seen)


def _submit_locally(spec, store):
    run_campaign(spec, store)


def _submit_to_the_fabric(spec, store):
    Coordinator(spec, store)


class TestSettledResumeWritesNothing:
    """A submit registers the spec only when there is something to
    record, so ``updated_at`` stays the start of the last run that had
    work to do."""

    @pytest.mark.parametrize("submit", [_submit_locally,
                                        _submit_to_the_fabric],
                             ids=["run_campaign", "Coordinator"])
    def test_only_work_or_a_new_spec_writes(self, spec, tmp_path, submit):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            assert run_campaign(spec, store).complete
            started = store.updated_at("r")
        with open(path, "rb") as handle:
            before = handle.read()

        # A settled re-run: no commit another connection can see, and
        # not a byte of the file moves once that connection checkpoints.
        probe = sqlite3.connect(path)
        try:
            version = probe.execute("PRAGMA data_version").fetchone()
            with CampaignStore(path) as store:
                submit(spec, store)
                assert store.updated_at("r") == started
            assert probe.execute("PRAGMA data_version").fetchone() == \
                version
        finally:
            probe.close()
        with open(path, "rb") as handle:
            assert handle.read() == before

        # A description-only edit with nothing pending is stored.
        edited = replace(spec, description="an edited description")
        with CampaignStore(path) as store:
            submit(edited, store)
            assert store.spec_text("r") == json.dumps(edited.to_dict())
            assert store.summary("r")["ok"] == 4

        # A store missing one row restamps the run start.
        with CampaignStore(path) as store:
            store._conn.execute(
                "UPDATE campaigns SET updated_at = 100.0 WHERE name = 'r'")
            store._conn.execute(
                "DELETE FROM results WHERE point_id = 'routing=cr/"
                "load=0.1/rep=0'")
            submit(edited, store)
            assert store.updated_at("r") > 100.0


    def test_a_settled_resume_builds_no_config(self, spec, store,
                                               monkeypatch):
        """A settled point is compared by its key alone: resuming a
        settled campaign constructs no ``SimConfig``."""
        assert run_campaign(spec, store).complete
        built = []
        real = SimConfig.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            real(self, *args, **kwargs)

        monkeypatch.setattr(SimConfig, "__init__", counting_init)
        stats = run_campaign(spec, store)
        assert (stats.ran, stats.skipped) == (0, 4)
        assert built == []
        # The counter counts: a point that runs builds its config.
        edited = spec.with_base(measure=150)
        assert run_campaign(edited, store).ran == 4
        assert len(built) == 4


class TestFailures:
    def test_permanently_failing_point_recorded_not_fatal(
        self, store
    ):
        spec = CampaignSpec.from_dict({
            "name": "f",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            # "nope" passes spec validation (field values are free-form)
            # but raises at engine build time — a permanent failure.
            "axes": {"routing": ["dor", "nope"], "load": [0.1]},
            "max_attempts": 2,
        })
        stats = run_campaign(spec, store, backoff=0.0)
        assert not stats.complete
        assert (stats.ran, stats.failed) == (1, 1)
        assert stats.retried == 1
        assert stats.failures == ["routing=nope/load=0.1/rep=0"]
        (row,) = store.rows("f", status="failed")
        assert "nope" in row["error"]
        assert row["attempts"] == 2  # initial attempt + 1 retry

    def test_flaky_point_retried_to_success(self, store, monkeypatch):
        spec = CampaignSpec.from_dict({
            "name": "flaky",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            "axes": {"load": [0.1, 0.15]},
        })
        real = parallel._run_point
        failed_once = []

        def flaky(config):
            if config.load == 0.15 and not failed_once:
                failed_once.append(True)
                raise RuntimeError("transient blip")
            return real(config)

        monkeypatch.setattr(parallel, "_run_point", flaky)
        stats = run_campaign(spec, store, backoff=0.0)
        assert stats.complete
        assert (stats.ran, stats.failed, stats.retried) == (2, 0, 1)
        # the retried point's stored row reflects the second attempt
        (row,) = [r for r in store.rows("flaky") if r["load"] == 0.15]
        assert row["status"] == "ok" and row["attempts"] == 2

    def test_terminal_failures_settle_progress_to_total(self, store):
        """Regression: exhausted-retry points must settle into done.

        Terminally failed points used to never advance the progress
        callback's ``done``, so progress and the watch ETA stuck below
        ``total`` forever.  They now settle into a visible
        ``done (N failed)`` state.
        """
        spec = CampaignSpec.from_dict({
            "name": "stall",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            "axes": {"routing": ["dor", "nope"], "load": [0.1]},
            "max_attempts": 2,
        })
        seen = []
        stats = run_campaign(spec, store, backoff=0.0,
                             progress=seen.append)
        assert (stats.ran, stats.failed) == (1, 1)
        # progress reaches total despite the permanent failure...
        assert seen[-1].done == seen[-1].total == 2
        assert max(s.done for s in seen) == 2
        # ...but only the FINAL failed attempt settles; the retried
        # attempt must not inflate done past total.
        failed_events = [s for s in seen if s.outcome == "failed"]
        assert len(failed_events) == 2  # attempt 1 + final attempt 2
        assert failed_events[0].done < failed_events[1].done

    def test_terminal_failures_render_in_done_count(self, tmp_path):
        """The heartbeat shows ``done (N failed)`` once retries exhaust;
        a retried attempt is no settled point."""
        from repro.campaign.monitor import CampaignView, render_status

        spec = CampaignSpec.from_dict({
            "name": "stallm",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            "axes": {"routing": ["dor", "nope"], "load": [0.1]},
            "max_attempts": 2,
        })
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            run_campaign(spec, store, backoff=0.0, heartbeat=0.0)
            view = CampaignView.open(store, spec.name)
            status = view.heartbeat()
        assert (status["done"], status["failed"]) == (2, 1)
        assert status["eta_seconds"] == 0.0  # no stall below total
        counters = view.monitor.registry.snapshot()[
            "cr_campaign_points_total"]["values"]
        assert counters['{outcome="failed"}'] == 1.0
        rendered = render_status(status)
        assert "2/2 (100%) (1 failed)" in rendered

    def test_failed_points_resume_as_pending(self, store, monkeypatch):
        """A failure with attempts left in the spec's budget resumes at
        the next attempt; one that used the budget up stays settled,
        as it does for a fabric worker."""
        spec = CampaignSpec.from_dict({
            "name": "f2",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            "axes": {"routing": ["dor", "nope"], "load": [0.1]},
            "max_attempts": 1,
        })
        run_campaign(spec, store, backoff=0.0)
        assert store.summary("f2") == {
            "campaign": "f2", "ok": 1, "failed": 1,
            "wall_time": store.summary("f2")["wall_time"], "versions": 1,
        }
        calls = counting_run_point(monkeypatch)
        again = run_campaign(spec, store, backoff=0.0)
        assert calls == []
        assert (again.skipped, again.failed) == (1, 1)
        assert again.failures == ["routing=nope/load=0.1/rep=0"]
        # a larger budget re-attempts only the failed point, at attempt 2
        run_campaign(replace(spec, max_attempts=2), store, backoff=0.0)
        assert len(calls) == 1 and calls[0].routing == "nope"
        (row,) = store.rows("f2", status="failed")
        assert row["attempts"] == 2

    def test_edited_spec_reruns_a_spent_failure_from_attempt_one(
        self, store, monkeypatch
    ):
        """A terminal failure journaled under an old config settles
        nothing for the edited one: it re-runs with the full budget."""
        spec = CampaignSpec.from_dict({
            "name": "f3",
            "base": {"radix": 4, "warmup": 50, "measure": 100,
                     "drain": 1000, "message_length": 8},
            "axes": {"routing": ["dor", "nope"], "load": [0.1]},
            "max_attempts": 2,
        })
        run_campaign(spec, store, backoff=0.0)
        (row,) = store.rows("f3", status="failed")
        assert row["attempts"] == 2
        body = spec.to_dict()
        body["base"]["measure"] = 120
        calls = counting_run_point(monkeypatch)
        stats = run_campaign(CampaignSpec.from_dict(body), store,
                             backoff=0.0)
        assert stats.skipped == 0
        assert (stats.ran, stats.failed, stats.retried) == (1, 1, 1)
        assert sorted(c.routing for c in calls) == ["dor", "nope", "nope"]
        (row,) = store.rows("f3", status="failed")
        assert row["attempts"] == 2  # attempts 1 and 2 of the new config


class TestParallelExecution:
    def test_workers_pool_matches_serial(self, spec, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as a:
            run_campaign(spec, a)
            serial = {r["point_id"]: r["latency_mean"]
                      for r in a.rows("r")}
        with CampaignStore(str(tmp_path / "b.sqlite")) as b:
            run_campaign(spec, b, workers=3)
            fanned = {r["point_id"]: r["latency_mean"]
                      for r in b.rows("r")}
        assert fanned == serial
