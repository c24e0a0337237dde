"""Property tests for the fabric lease state machine.

Hypothesis drives random interleavings of the operations the fabric
performs against the store — lease acquisition, heartbeat renewal,
clock advance past expiry (which makes reclaim possible), fenced
completion and failure — with an injected clock, and checks the
invariants the fabric's crash-safety argument rests on:

* **single ownership** — acquiring never grants a point whose lease is
  still live under another worker; at most one lease row per point;
* **journal-or-nothing** — a fenced write lands exactly when the writer
  still owns the lease at that attempt; a stale (reclaimed) writer's
  result is discarded and the current state is untouched;
* **attempt monotonicity** — every grant's attempt number strictly
  exceeds any attempt previously granted or journaled for that point,
  so attempt numbers work as fencing tokens across worker deaths.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.campaign import CampaignSpec, CampaignStore
from repro.campaign.fabric import Coordinator, Worker
from repro.campaign.runner import point_candidates
from repro.campaign.store import settled

TTL = 10.0
MAX_ATTEMPTS = 3
WORKERS = ("alice", "bob", "carol")

SPEC = CampaignSpec.from_dict({
    "name": "leases",
    "base": {"radix": 4, "warmup": 10, "measure": 10,
             "drain": 100, "message_length": 8},
    "axes": {"load": [0.1, 0.2], "routing": ["cr", "dor"]},
    "replications": 1,
})


class LeaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.store = CampaignStore(":memory:")
        self.points = list(SPEC.points())
        self.by_id = {p.point_id: p for p in self.points}
        self.candidates = point_candidates(self.points)
        self.clock = 1000.0
        #: every Lease ever granted (live, expired, or long settled) —
        #: completion rules draw from it so stale writers get exercised.
        self.grants = []
        #: point_id -> highest attempt ever granted or journaled.
        self.high_water = {}

    def teardown(self):
        self.store.close()

    # -- helpers --------------------------------------------------------

    def live_leases(self):
        return {
            row["point_id"]: row
            for row in self.store.leases("leases", now=self.clock)
            if row["live"]
        }

    def lease_row(self, point_id):
        for row in self.store.leases("leases", now=self.clock):
            if row["point_id"] == point_id:
                return row
        return None

    # -- rules ----------------------------------------------------------

    @rule(worker=st.sampled_from(WORKERS),
          limit=st.integers(min_value=1, max_value=4))
    def acquire(self, worker, limit):
        live_before = self.live_leases()
        granted = self.store.acquire_leases(
            "leases", worker, self.candidates, limit=limit, ttl=TTL,
            max_attempts=MAX_ATTEMPTS, now=self.clock,
        )
        states = self.store.result_states("leases")
        for lease in granted:
            # Single ownership: never poach a live lease.
            assert lease.point_id not in live_before, (
                f"{worker} was granted {lease.point_id} over a live "
                f"lease held by "
                f"{live_before[lease.point_id]['worker_id']}"
            )
            # Monotonic attempts: the fencing token only advances.
            assert lease.attempt > self.high_water.get(lease.point_id, 0)
            self.high_water[lease.point_id] = lease.attempt
            # Settled points are never re-leased.
            stored = states.get(lease.point_id)
            if stored is not None:
                assert not (stored["status"] == "ok"
                            and stored["config_hash"] == dict(
                                self.candidates)[lease.point_id])
                assert not (stored["status"] == "failed"
                            and stored["attempts"] >= MAX_ATTEMPTS)
            self.grants.append((worker, lease))

    @rule(worker=st.sampled_from(WORKERS))
    def renew(self, worker):
        owned = [pid for pid, row in self.live_leases().items()
                 if row["worker_id"] == worker]
        renewed = self.store.renew_leases(
            "leases", worker, [p[0] for p in self.candidates],
            ttl=TTL, now=self.clock,
        )
        # Renewal is fenced on ownership: it never touches other
        # workers' leases (expired-but-unclaimed own leases may also
        # renew, hence >=).
        assert renewed >= len(owned)
        for pid, row in self.live_leases().items():
            if row["worker_id"] != worker:
                assert row == self.lease_row(pid)

    @rule(dt=st.floats(min_value=0.5, max_value=TTL * 1.5))
    def advance_clock(self, dt):
        self.clock += dt

    @precondition(lambda self: self.grants)
    @rule(data=st.data(), succeed=st.booleans())
    def complete(self, data, succeed):
        """A (possibly long-dead) worker reports a leased point's result."""
        worker, lease = data.draw(st.sampled_from(self.grants))
        before = self.store.result_states("leases").get(lease.point_id)
        row = self.lease_row(lease.point_id)
        owns = (row is not None and row["worker_id"] == worker
                and row["attempt"] == lease.attempt)
        point = self.by_id[lease.point_id]
        if succeed:
            wrote = self.store.record_success(
                "leases", point, {"latency_mean": 1.0}, 0.01,
                attempts=lease.attempt, fence=(worker, lease.attempt),
            )
        else:
            wrote = self.store.record_failure(
                "leases", point, "boom", 0.01,
                attempts=lease.attempt, fence=(worker, lease.attempt),
            )
        # Journal-or-nothing: the fenced write lands iff the writer
        # still owns the lease at that exact attempt.
        assert wrote == owns
        after = self.store.result_states("leases").get(lease.point_id)
        if wrote:
            # ...and the lease is consumed atomically with the row.
            assert self.lease_row(lease.point_id) is None
            assert after["attempts"] == lease.attempt
            assert after["status"] == ("ok" if succeed else "failed")
            self.high_water[lease.point_id] = max(
                self.high_water.get(lease.point_id, 0), lease.attempt)
        else:
            # A stale writer changes nothing.
            assert after == before
            assert self.lease_row(lease.point_id) == row

    @rule()
    def one_lease_row_per_point(self):
        rows = self.store.leases("leases", now=self.clock)
        ids = [row["point_id"] for row in rows]
        assert len(ids) == len(set(ids))
        # A leased point is never already settled ok under its hash.
        states = self.store.result_states("leases")
        expected = dict(self.candidates)
        for row in rows:
            stored = states.get(row["point_id"])
            if stored is not None and stored["status"] == "ok":
                assert stored["config_hash"] != expected[row["point_id"]]


LeaseMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None,
)
TestLeaseStateMachine = LeaseMachine.TestCase


#: one point's tables: a results row (or none) and a lease (or none).
ROW = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("ok", "stale-ok", "failed")),
              st.integers(min_value=1, max_value=MAX_ATTEMPTS + 1)),
)
LEASE = st.sampled_from((None, "live", "expired"))


@settings(max_examples=60, deadline=None)
@given(tables=st.lists(st.tuples(ROW, LEASE), min_size=4, max_size=4))
@example(tables=[(("ok", 1), None), (("failed", MAX_ATTEMPTS), "expired"),
                 (("ok", 2), "live"), (("failed", MAX_ATTEMPTS + 1), None)])
@example(tables=[(("ok", 1), None), (("failed", MAX_ATTEMPTS - 1), None),
                 (("stale-ok", 1), None), (None, "live")])
def test_every_consumer_of_settled_agrees(tables):
    """``store.settled`` has four callers; over random result / lease
    tables they give one answer."""
    points = list(SPEC.points())
    expected = dict(point_candidates(points))
    clock = 1000.0
    with CampaignStore(":memory:") as store:
        coordinator = Coordinator(SPEC, store, max_attempts=MAX_ATTEMPTS)
        live = set()
        for point, (row, lease) in zip(points, tables):
            if lease is not None:
                store.acquire_leases(
                    "leases", "owner", [(point.point_id, None)], limit=1,
                    ttl=TTL if lease == "live" else TTL / 100,
                    now=clock - TTL / 2,
                )
                if lease == "live":
                    live.add(point.point_id)
            if row is not None:
                status, attempts = row
                if status == "stale-ok":  # ok, under another config's hash
                    point = replace(
                        point, config=point.config.with_(buffer_depth=5))
                if status == "failed":
                    store.record_failure("leases", point, "boom", 0.0,
                                         attempts=attempts)
                else:
                    store.record_success("leases", point, {}, 0.0,
                                         attempts=attempts)
        states = store.result_states("leases")
        verdicts = {
            point_id: settled(states.get(point_id), expected_hash,
                              MAX_ATTEMPTS)
            for point_id, expected_hash in expected.items()
        }
        # acquire_leases: without a live lease, granted <=> unsettled.
        granted = {
            lease.point_id for lease in store.acquire_leases(
                "leases", "probe", list(expected.items()), limit=4,
                ttl=TTL, max_attempts=MAX_ATTEMPTS, now=clock,
            )
        }
        assert granted == {point_id for point_id, verdict in verdicts.items()
                           if verdict is None and point_id not in live}
        # The worker's exit test and the coordinator's done count.
        worker = Worker("leases", ":memory:", max_attempts=MAX_ATTEMPTS)
        status = coordinator.poll()
        assert status["done"] == sum(v is not None for v in verdicts.values())
        assert status["failed"] == sum(v == "failed" for v in verdicts.values())
        assert worker._settled(store, expected) == (
            status["done"] == len(points))
        # The local runner keeps its retry budget per invocation
        # (max_attempts=None): ok rows skip, a failed row always re-runs.
        for point_id, verdict in verdicts.items():
            assert settled(states.get(point_id), expected[point_id], None) == (
                "ok" if verdict == "ok" else None)


def test_completed_grid_stops_granting():
    """Once every point is settled, acquire returns nothing forever."""
    with CampaignStore(":memory:") as store:
        points = list(SPEC.points())
        candidates = point_candidates(points)
        clock = 50.0
        for point in points:
            (lease,) = store.acquire_leases(
                "leases", "w", [
                    (point.point_id,
                     dict(candidates)[point.point_id])],
                limit=1, ttl=TTL, now=clock,
            )
            assert store.record_success(
                "leases", point, {}, 0.0, attempts=lease.attempt,
                fence=("w", lease.attempt),
            )
        assert store.acquire_leases(
            "leases", "w2", candidates, limit=10, ttl=TTL, now=clock,
        ) == []
        assert store.leases("leases") == []


def test_terminal_failure_stops_granting():
    with CampaignStore(":memory:") as store:
        points = list(SPEC.points())
        candidates = point_candidates(points)[:1]
        point = points[0]
        clock = 50.0
        for _ in range(MAX_ATTEMPTS):
            (lease,) = store.acquire_leases(
                "leases", "w", candidates, limit=1, ttl=TTL,
                max_attempts=MAX_ATTEMPTS, now=clock,
            )
            assert store.record_failure(
                "leases", point, "boom", 0.0, attempts=lease.attempt,
                fence=("w", lease.attempt),
            )
        assert store.acquire_leases(
            "leases", "w", candidates, limit=1, ttl=TTL,
            max_attempts=MAX_ATTEMPTS, now=clock,
        ) == []


def test_reclaim_is_flagged_and_advances_attempt():
    with CampaignStore(":memory:") as store:
        points = list(SPEC.points())
        candidates = point_candidates(points)[:1]
        (first,) = store.acquire_leases(
            "leases", "w1", candidates, limit=1, ttl=TTL, now=100.0)
        assert (first.attempt, first.reclaimed) == (1, False)
        # Not expired yet: nobody else can have it.
        assert store.acquire_leases(
            "leases", "w2", candidates, limit=1, ttl=TTL,
            now=100.0 + TTL - 0.1) == []
        (second,) = store.acquire_leases(
            "leases", "w2", candidates, limit=1, ttl=TTL,
            now=100.0 + TTL + 0.1)
        assert (second.attempt, second.reclaimed) == (2, True)
        # The dead worker's late write is fenced out...
        assert not store.record_success(
            "leases", points[0], {}, 0.0, attempts=first.attempt,
            fence=("w1", first.attempt))
        # ...while the reclaimer's lands.
        assert store.record_success(
            "leases", points[0], {}, 0.0, attempts=second.attempt,
            fence=("w2", second.attempt))


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
