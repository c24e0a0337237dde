"""Chaos harness: SIGKILL a fabric worker mid-lease; the campaign heals.

The fabric's crash-safety claims, tested against real worker
subprocesses rather than asserted in docstrings: a worker killed with
SIGKILL (no cleanup, no atexit, heartbeat thread dies with it) at a
seeded-random point of progress must cost only its in-flight points.
Survivors reclaim the expired leases and finish the grid with exactly
one ``ok`` row per point — nothing lost, nothing double-journaled.
"""

import os
import random
import signal
import time
import urllib.request

import pytest

from repro.campaign import CampaignSpec, CampaignStore, Coordinator
from repro.campaign.fabric import spawn_worker
from repro.campaign.monitor import CampaignView, render_status
from repro.obs.metrics import parse_prometheus_text
from repro.obs.server import TelemetryServer

#: fixed chaos seed: the kill point is randomized but reproducible.
CHAOS_SEED = 0xC0FFEE

#: short lease TTL so the test reclaims quickly; heartbeats at ttl/3.
TTL = 1.2

SPEC_DICT = {
    "name": "chaos",
    "base": {"radix": 4, "warmup": 100, "measure": 600,
             "drain": 3000, "message_length": 8},
    "axes": {"load": [0.1, 0.15, 0.2, 0.25, 0.3],
             "routing": ["cr", "dor"]},
    "replications": 1,
}


@pytest.fixture
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


def wait_for(predicate, timeout, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def kill_victim_then_heal(spec, db, kill_after=0, **coordinator):
    """SIGKILL a worker mid-lease, then let two survivors finish under
    a ``Coordinator(**coordinator)``.  Returns its stats and the lease
    rows the victim died holding."""
    with CampaignStore(db) as store:
        store.register(spec)
    victim = spawn_worker(
        spec.name, db, worker_id="victim",
        batch=4, ttl=TTL, poll=0.05,
    )
    survivors = []
    watcher = CampaignStore(db)
    try:
        def mid_lease():
            held = [row for row in watcher.leases(spec.name)
                    if row["worker_id"] == "victim" and row["live"]]
            states = watcher.result_states(spec.name)
            done = sum(1 for s in states.values() if s["status"] == "ok")
            return len(held) >= 2 and done >= kill_after

        wait_for(mid_lease, timeout=60,
                 message="victim to hold >= 2 live leases")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        # SIGKILL means no cleanup: the victim's leases must still be
        # on the table, doomed to expire rather than released.
        orphaned = [row for row in watcher.leases(spec.name)
                    if row["worker_id"] == "victim"]
        assert orphaned, "victim died without in-flight leases"

        survivors = [
            spawn_worker(spec.name, db, worker_id=f"survivor-{i}",
                         batch=2, ttl=TTL, poll=0.05)
            for i in (1, 2)
        ]
        stats = Coordinator(
            spec, watcher, interval=0.1, ttl=TTL, **coordinator
        ).run(
            timeout=180,
            stop=lambda: all(p.poll() is not None for p in survivors),
        )
    finally:
        for proc in [victim, *survivors]:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        watcher.close()
    return stats, orphaned


def test_sigkilled_worker_points_are_reclaimed_and_completed(
    spec, tmp_path
):
    rng = random.Random(CHAOS_SEED)
    db = str(tmp_path / "chaos.sqlite")
    total = len(list(spec.points()))
    # Kill once the victim has journaled this many points (and still
    # holds live leases) — a seeded-random moment mid-campaign.
    stats, orphaned = kill_victim_then_heal(
        spec, db, kill_after=rng.randrange(0, 3),
    )
    assert stats.complete, (
        f"campaign did not heal after SIGKILL: {stats}"
    )

    with CampaignStore(db) as store:
        rows = store.rows(spec.name)
        # Exactly one ok row per point: none lost, none duplicated.
        assert len(rows) == total
        assert {row["status"] for row in rows} == {"ok"}
        assert len({row["point_id"] for row in rows}) == total
        assert {row["point_id"] for row in rows} == {
            point.point_id for point in spec.points()
        }
        # Recovery, not luck: survivors took over expired leases...
        reclaims = sum(row["reclaims"]
                       for row in store.workers(spec.name))
        assert reclaims > 0
        assert stats.reclaims == reclaims
        # ...and the reclaimed points carry fenced attempt numbers
        # past the victim's (attempt monotonicity across the kill).
        orphan_ids = {row["point_id"] for row in orphaned}
        finished_by = {row["point_id"]: row for row in rows}
        retried = [finished_by[pid] for pid in orphan_ids
                   if finished_by[pid]["attempts"] >= 2]
        assert retried, "no orphaned point shows a takeover attempt"
        # No leases left behind once the campaign settled.
        assert store.leases(spec.name) == []


def test_the_healing_shows_on_a_live_scrape_and_the_watch_pane(
    spec, tmp_path
):
    """What a reader of the running fabric sees: ``cr_fabric_*`` gauges
    on ``/metrics`` while the coordinator polls, and the per-worker
    pane ``cr-sim campaign watch`` renders from the status file."""
    server = TelemetryServer().start()
    scrapes = []

    def scrape(status):
        with urllib.request.urlopen(
            f"{server.url}/metrics", timeout=5
        ) as response:
            scrapes.append(response.read().decode("utf-8"))

    db = str(tmp_path / "chaos.sqlite")
    try:
        stats, _ = kill_victim_then_heal(
            spec, db, server=server, on_poll=scrape,
        )
    finally:
        server.stop()
    assert stats.complete and stats.workers_seen == 3, stats
    parsed = parse_prometheus_text(scrapes[-1])
    for name, expected in (
        ("cr_fabric_points_done", stats.total),
        ("cr_fabric_points_total", stats.total),
        ("cr_fabric_lease_reclaims_total", stats.reclaims),
        ("cr_fabric_workers_seen", 3),
    ):
        assert parsed[name]["samples"][name] == expected, name
    assert stats.reclaims >= 1
    with CampaignStore(db, readonly=True) as reader:
        rendered = render_status(
            CampaignView.open(reader, spec.name).heartbeat())
    assert "workers: 3" in rendered, rendered
    assert f"lease reclaims: {stats.reclaims}" in rendered, rendered


def test_sigkilled_workers_orphan_spans_are_closed_aborted(
    spec, tmp_path
):
    """Tracing under chaos: a SIGKILLed worker leaves open spans; the
    reclaim closes its point-scoped orphans ``aborted``, the settle
    sweep closes its session span, and the final store carries one
    trace with no span left open."""
    db = str(tmp_path / "chaos.sqlite")
    watcher = CampaignStore(db)
    coordinator = Coordinator(
        spec, watcher, interval=0.1, ttl=TTL,
        trace=True,
    )
    traceparent = coordinator.traceparent()
    assert traceparent is not None

    victim = spawn_worker(
        spec.name, db, worker_id="victim",
        batch=4, ttl=TTL, poll=0.05,
        trace=True, traceparent=traceparent,
    )
    survivors = []
    try:
        def mid_lease_with_spans():
            held = [row for row in watcher.leases(spec.name)
                    if row["worker_id"] == "victim" and row["live"]]
            open_leases = [
                span for span in watcher.spans(spec.name)
                if span["status"] == "open" and span["worker_id"] == "victim"
                and span["kind"] == "lease"
            ]
            return len(held) >= 2 and len(open_leases) >= 2

        wait_for(mid_lease_with_spans, timeout=60,
                 message="victim to journal open lease spans")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        orphans = [
            span for span in watcher.spans(spec.name)
            if span["status"] == "open" and span["worker_id"] == "victim"
        ]
        assert any(span["kind"] == "lease" for span in orphans)

        survivors = [
            spawn_worker(spec.name, db, worker_id=f"survivor-{i}",
                         batch=2, ttl=TTL, poll=0.05,
                         trace=True, traceparent=traceparent)
            for i in (1, 2)
        ]
        stats = coordinator.run(
            timeout=180,
            stop=lambda: all(p.poll() is not None for p in survivors),
        )
    finally:
        for proc in [victim, *survivors]:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    assert stats.complete

    with CampaignStore(db) as store:
        spans = store.spans(spec.name)
        by_id = {span["span_id"]: span for span in spans}

        # Invariant: no span left open, however the process died.
        assert store.span_counts(spec.name).get("open", 0) == 0

        # The victim's orphaned lease spans were closed `aborted` --
        # a worker death made visible in the timeline.
        victim_leases = [s for s in spans if s["worker_id"] == "victim"
                         and s["kind"] == "lease"]
        assert victim_leases
        assert any(s["status"] == "aborted" for s in victim_leases)
        # Its session span was swept at settle, not left dangling.
        (session,) = [s for s in spans if s["worker_id"] == "victim"
                      and s["kind"] == "worker"]
        assert session["status"] == "aborted"

        # Every span -- victim's, survivors', coordinator's -- shares
        # the coordinator's trace.
        assert {span["trace_id"] for span in spans} == {
            traceparent.split("-")[1]
        }

        # Parenting survived the kill: run -> lease -> worker -> root.
        (root,) = [s for s in spans if s["kind"] == "root"]
        assert root["status"] == "ok"
        for span in spans:
            if span["kind"] == "run":
                assert by_id[span["parent_id"]]["kind"] == "lease"
            elif span["kind"] in ("lease", "renew"):
                assert by_id[span["parent_id"]]["kind"] == "worker"
            elif span["kind"] in ("worker", "submit"):
                assert span["parent_id"] == root["span_id"]
