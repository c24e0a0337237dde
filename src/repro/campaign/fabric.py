"""Distributed campaign fabric: lease-based multi-worker sharding.

The paper's stance is recovery over avoidance — kill a deadlocked worm
and retry, rather than constraining routing to prevent the deadlock.
The fabric applies the same stance to campaign orchestration: instead
of a scheduler that must never lose a worker, any number of
:class:`Worker` processes (same host or many hosts sharing the store
path) *lease* pending points from the WAL-mode
:class:`~repro.campaign.store.CampaignStore`, run them through the
normal :func:`~repro.sim.parallel.run_reports` path, and journal
results through the usual ``record_*`` store methods.  Worker loss is
recovered, not prevented:

* leases carry an expiry a background heartbeat thread keeps pushing
  forward; a SIGKILLed, crashed, or partitioned worker simply stops
  renewing;
* an expired lease is **reclaimed** by the next worker that asks —
  the attempt counter advances past the dead worker's, and every
  result write is *fenced* on ``(worker_id, attempt)``, so a zombie
  worker that comes back after losing its lease can never overwrite
  the new owner's row;
* completed rows are never lost and never duplicated: the results
  table is keyed on ``(campaign, point_id)`` and fenced writes are
  discarded, so worker loss costs only in-flight points.

The :class:`Coordinator` owns no scheduling: it registers the grid
(submit phase), then aggregates — per-worker heartbeats, live and
expired leases, reclaim totals — into the same atomic
``<name>.status.json`` heartbeat ``cr-sim campaign watch`` renders
(now with a per-worker liveness pane) and publishes ``cr_fabric_*``
gauges through the :class:`~repro.obs.server.TelemetryServer`.  It is
also restartable: if the coordinator dies, workers keep leasing and
journaling; a new coordinator just resumes aggregating.

Entry points: ``cr-sim campaign run <spec> --workers-fabric N``
(coordinator + N local worker processes) and ``cr-sim campaign worker
<name>`` (one worker against an existing campaign, e.g. on another
host), or :func:`run_fabric` / :class:`Worker` from Python.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import open_telemetry
from ..obs.log import StructuredLogger, campaign_log_path
from ..obs.metrics import MetricsRegistry
from ..obs.trace import (
    TRACE_ARM_ENV,
    TRACEPARENT_ENV,
    Span,
    SpanContext,
    Tracer,
    context_from_environ,
    parse_traceparent,
    tracing_armed,
)
from ..sim.parallel import PointFailure, run_reports
from .monitor import (
    STALE_AFTER,
    build_info_gauge,
    publish_heartbeat,
    status_path,
)
from .runner import (
    CampaignProgress,
    CampaignRunStats,
    PointReporter,
    point_candidates,
    submit_campaign,
)
from .spec import CampaignPoint, CampaignSpec
from .store import CampaignStore, Lease

#: default lease time-to-live (seconds); a worker renews at ttl/3, so
#: one missed beat survives and a dead worker is reclaimable within ttl.
DEFAULT_TTL = 15.0

#: default points leased per batch: small enough that worker loss costs
#: little, large enough to amortise the lease transaction.
DEFAULT_BATCH = 2

#: default idle poll (seconds) while other workers hold all the work.
DEFAULT_POLL = 0.25

#: attempts (across all workers) before a failing point is terminal.
DEFAULT_MAX_ATTEMPTS = 3


def default_worker_id() -> str:
    """A worker identity unique across hosts sharing one store."""
    return f"{socket.gethostname()}-{os.getpid()}"


# ----------------------------------------------------------------------
# Worker: lease -> run -> report, heartbeat-renewed
# ----------------------------------------------------------------------

@dataclass
class WorkerStats:
    """What one :class:`Worker` process contributed to a campaign."""

    total: int = 0  #: points in the campaign grid
    ran: int = 0  #: points this worker completed ok
    failed: int = 0  #: attempts this worker journaled as failures
    fenced: int = 0  #: stale results discarded (lease lost to a reclaim)
    reclaims: int = 0  #: expired leases this worker took over
    batches: int = 0  #: lease batches acquired
    complete: bool = False  #: campaign fully settled when the worker left


class Worker:
    """One fabric worker process: lease a batch, simulate, journal, repeat.

    The loop is crash-safe by construction — a worker holds no state
    another worker cannot reconstruct from the store.  Between
    batches it re-reads the settlement state, so it exits (with
    ``stats.complete``) as soon as every point is either stored ``ok``
    under the current config hash or terminally failed.

    A daemon heartbeat thread (its own SQLite connection) renews the
    worker's held leases every ``ttl / 3`` seconds and upserts the
    worker's liveness row the coordinator aggregates.  Kill the
    process at any moment: the thread dies with it, the leases expire,
    and survivors reclaim the in-flight points.
    """

    def __init__(
        self,
        campaign: str,
        db_path: str,
        worker_id: Optional[str] = None,
        batch: int = DEFAULT_BATCH,
        ttl: float = DEFAULT_TTL,
        poll: float = DEFAULT_POLL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        verify: bool = False,
        progress: Optional[CampaignProgress] = None,
        trace: Optional[bool] = None,
        traceparent: Optional[str] = None,
        log_level: str = "info",
    ) -> None:
        self.campaign = campaign
        self.db_path = str(db_path)
        self.worker_id = worker_id or default_worker_id()
        self.batch = max(1, int(batch))
        self.ttl = float(ttl)
        self.poll = float(poll)
        self.max_attempts = max(1, int(max_attempts))
        self.verify = verify
        self.progress = progress
        #: trace=None auto-arms from the CR_TRACE environment variable
        #: the coordinator sets when it spawns traced workers.
        self.trace = tracing_armed() if trace is None else bool(trace)
        self.traceparent = traceparent
        self.log_level = log_level
        self.stats = WorkerStats()
        self._held: Dict[str, Lease] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._tracer: Optional[Tracer] = None
        self._logger: Optional[StructuredLogger] = None
        self._session: Optional[Span] = None
        self._lease_spans: Dict[str, Span] = {}

    # -- heartbeat thread ----------------------------------------------

    def _beat(self, store: CampaignStore, state: str) -> None:
        with self._lock:
            held_ids = list(self._held)
        if held_ids:
            renew = None
            if self._tracer is not None and self._session is not None:
                renew = self._tracer.start_span(
                    "renew", kind="renew", parent=self._session,
                    attrs={"held": len(held_ids)},
                )
            renewed = store.renew_leases(self.campaign, self.worker_id,
                                         held_ids, self.ttl)
            if renew is not None:
                done = self._tracer.end_span(
                    renew, "ok", attrs={"renewed": renewed})
                store.record_spans(self.campaign, [done.to_dict()])
            if self._logger is not None:
                self._logger.debug("lease_renewed", held=len(held_ids),
                                   renewed=renewed)
        current = (self._tracer.current()
                   if self._tracer is not None else None)
        store.worker_heartbeat(
            self.campaign, self.worker_id, state=state,
            pid=os.getpid(), host=socket.gethostname(),
            done=self.stats.ran, failed=self.stats.failed,
            leases=len(held_ids), reclaims=self.stats.reclaims,
            span=(f"{current.name} {current.span_id[:8]}"
                  if current is not None else ""),
            spans=(self._tracer.finished
                   if self._tracer is not None else 0),
            logs=(self._logger.written
                  if self._logger is not None else 0),
        )

    def _heartbeat_loop(self) -> None:
        store = CampaignStore(self.db_path)
        try:
            while not self._stop.wait(self.ttl / 3.0):
                self._beat(store, "running")
        finally:
            store.close()

    # -- the lease -> run -> report loop --------------------------------

    def run(self) -> WorkerStats:
        """Work the campaign until it settles; returns this worker's stats.

        Raises :class:`LookupError` when the campaign was never
        registered in the store (submit the spec first — the
        coordinator, ``run_campaign``, or ``cr-sim campaign run`` all
        do).
        """
        store = CampaignStore(self.db_path)
        try:
            spec = store.spec(self.campaign)
            if spec is None:
                raise LookupError(
                    f"campaign {self.campaign!r} is not registered in "
                    f"{self.db_path}; run the coordinator (or "
                    f"`cr-sim campaign run`) first"
                )
            return self._run(store, spec)
        finally:
            self._stop.set()
            store.close()

    def _trace_root(self, store: CampaignStore) -> Optional[SpanContext]:
        """The coordinator's trace context this worker joins.

        Priority: an explicit ``traceparent`` argument, then the
        ``CR_TRACEPARENT`` environment (spawned workers), then the
        campaign's open root span in the store (hand-started workers
        on other hosts).  None starts a worker-local trace — the
        worker still runs; the timeline just shows the discontinuity.
        """
        if self.traceparent:
            try:
                return parse_traceparent(self.traceparent)
            except ValueError:
                pass
        context = context_from_environ()
        if context is not None:
            return context
        row = store.open_root_span(self.campaign)
        if row is not None:
            return SpanContext(row["trace_id"], row["span_id"])
        return None

    def _arm(self, store: CampaignStore) -> None:
        """Bring up this worker's tracer + structured logger."""
        if not self.trace:
            return
        self._tracer = Tracer(worker_id=self.worker_id,
                              root=self._trace_root(store))
        self._logger = StructuredLogger(
            campaign_log_path(self.db_path, self.campaign,
                              self.worker_id),
            worker_id=self.worker_id, level=self.log_level,
            tracer=self._tracer,
        )
        self._session = self._tracer.start_span(
            f"worker {self.worker_id}", kind="worker",
            attrs={"pid": os.getpid(), "host": socket.gethostname()},
        )
        # Journal the session span open: a SIGKILLed worker leaves it
        # behind for the coordinator's settle-time sweep to close.
        store.record_spans(self.campaign, [self._session.to_dict()])
        self._logger.info("worker_started", pid=os.getpid(),
                          batch=self.batch, ttl=self.ttl)

    def _disarm(self, store: CampaignStore) -> None:
        """Close the session span + logger on an orderly exit."""
        if self._logger is not None:
            self._logger.info(
                "worker_finished", ran=self.stats.ran,
                failed=self.stats.failed, fenced=self.stats.fenced,
                reclaims=self.stats.reclaims,
                complete=self.stats.complete,
            )
        if self._tracer is not None and self._session is not None:
            done = self._tracer.end_span(
                self._session,
                "ok" if self.stats.complete else "error",
                attrs={"ran": self.stats.ran,
                       "failed": self.stats.failed,
                       "fenced": self.stats.fenced},
            )
            store.record_spans(self.campaign, [done.to_dict()])
        if self._logger is not None:
            self._logger.close()

    def _run(self, store: CampaignStore, spec: CampaignSpec) -> WorkerStats:
        # Re-run the submit phase against the stored spec: expansion is
        # deterministic, so every worker sees the identical point list
        # (the re-register is an idempotent refresh).
        points = submit_campaign(spec, store, verify=self.verify)
        by_id = {point.point_id: point for point in points}
        candidates = point_candidates(points)
        expected = dict(candidates)
        self.stats.total = len(points)

        self._arm(store)
        run_stats = CampaignRunStats(total=len(points))
        reporter = PointReporter(spec, store, run_stats,
                                 progress=self.progress,
                                 tracer=self._tracer)

        self._beat(store, "running")  # visible before the first lease
        thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"cr-fabric-heartbeat:{self.worker_id}",
            daemon=True,
        )
        thread.start()
        try:
            while True:
                if self._settled(store, expected):
                    self.stats.complete = True
                    break
                leases = store.acquire_leases(
                    self.campaign, self.worker_id, candidates,
                    limit=self.batch, ttl=self.ttl,
                    max_attempts=self.max_attempts,
                )
                if not leases:
                    # Everything pending is leased elsewhere: wait for
                    # completion, a failure, or an expiry to reclaim.
                    time.sleep(self.poll)
                    continue
                self._run_batch(store, reporter, by_id, leases)
        finally:
            self._stop.set()
            thread.join(timeout=self.ttl)
            self._disarm(store)
            self._beat(store, "finished" if self.stats.complete
                       else "stopped")
        return self.stats

    def _run_batch(
        self,
        store: CampaignStore,
        reporter: PointReporter,
        by_id: Dict[str, CampaignPoint],
        leases: Sequence[Lease],
    ) -> None:
        self.stats.batches += 1
        reclaimed = sum(1 for lease in leases if lease.reclaimed)
        self.stats.reclaims += reclaimed
        with self._lock:
            self._held.update({lease.point_id: lease for lease in leases})
        if reclaimed:
            # Published at once, not with the next beat: a reclaimed
            # batch can finish inside one heartbeat interval, and the
            # coordinator settles on the poll that sees the last point
            # done — its reclaim total must already be on the table.
            self._beat(store, "running")
        batch_points = [by_id[lease.point_id] for lease in leases]

        if self._tracer is not None:
            # One lease span per granted point, journaled *open*: a
            # SIGKILLed worker leaves them behind as orphans the next
            # reclaim (or the coordinator's settle sweep) closes
            # 'aborted', so the merged timeline shows the death.
            opened = []
            for lease in leases:
                span = self._tracer.start_span(
                    f"lease {lease.point_id}", kind="lease",
                    parent=self._session, point_id=lease.point_id,
                    attrs={"attempt": lease.attempt,
                           "reclaimed": lease.reclaimed},
                )
                self._lease_spans[lease.point_id] = span
                opened.append(span.to_dict())
            store.record_spans(self.campaign, opened)
        if self._logger is not None:
            self._logger.info(
                "batch_leased", points=len(leases), reclaimed=reclaimed,
                point_ids=[lease.point_id for lease in leases],
            )
            if reclaimed:
                self._logger.warning(
                    "leases_reclaimed", count=reclaimed,
                    point_ids=[lease.point_id for lease in leases
                               if lease.reclaimed],
                )

        def journal(index: int, report: object, elapsed: float,
                    cached: bool) -> None:
            lease = leases[index]
            point = batch_points[index]
            final = (isinstance(report, PointFailure)
                     and lease.attempt >= self.max_attempts)
            parent = None
            extra = None
            lease_span = self._lease_spans.pop(point.point_id, None)
            if lease_span is not None and self._tracer is not None:
                # Close the lease span now and let it ride the fenced
                # result transaction: if the write is fenced out, this
                # 'ok' closure is discarded with it and the reclaimer's
                # 'aborted' closure stands.
                closed = self._tracer.end_span(lease_span, "ok")
                parent = closed
                extra = [closed.to_dict()]
            outcome = reporter.report(
                point, report, elapsed, lease.attempt, final=final,
                fence=(self.worker_id, lease.attempt),
                parent=parent, extra_spans=extra,
            )
            # The fenced store write released the lease atomically
            # with the journal row; drop it from the renewal set.
            with self._lock:
                self._held.pop(point.point_id, None)
            if outcome == "fenced":
                self.stats.fenced += 1
            elif outcome == "failed":
                self.stats.failed += 1
            elif outcome == "ok":
                self.stats.ran += 1
            if self._logger is not None:
                level = "info" if outcome == "ok" else "warning"
                self._logger.log(
                    level, f"point_{outcome}", point_id=point.point_id,
                    attempt=lease.attempt, elapsed=round(elapsed, 4),
                    final=final,
                )

        try:
            run_reports(
                [point.config for point in batch_points],
                workers=1, on_result=journal, failures="return",
            )
        finally:
            # Belt and braces: anything not journaled (interrupt
            # mid-batch) is released so others need not wait for expiry.
            with self._lock:
                leftovers = [lease for lease in leases
                             if lease.point_id in self._held]
                for lease in leftovers:
                    self._held.pop(lease.point_id, None)
            abandoned = []
            for lease in leftovers:
                store.release_lease(self.campaign, lease.point_id,
                                    self.worker_id, lease.attempt)
                span = self._lease_spans.pop(lease.point_id, None)
                if span is not None and self._tracer is not None:
                    abandoned.append(self._tracer.end_span(
                        span, "aborted", attrs={"released": True},
                    ).to_dict())
            if abandoned:
                store.record_spans(self.campaign, abandoned)

    def _settled(self, store: CampaignStore,
                 expected: Dict[str, Optional[str]]) -> bool:
        outcomes = store.settlement(self.campaign, expected,
                                    self.max_attempts)
        return len(outcomes) == len(expected)


# ----------------------------------------------------------------------
# Coordinator: submit, aggregate, publish
# ----------------------------------------------------------------------

@dataclass
class FabricStats:
    """What a fabric run settled to, as the coordinator saw it."""

    total: int = 0
    ok: int = 0  #: points stored ok under the current config hash
    failed: int = 0  #: terminally failed points (attempts exhausted)
    reclaims: int = 0  #: expired-lease takeovers across all workers
    workers_seen: int = 0  #: distinct workers that ever heartbeat
    elapsed: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def done(self) -> int:
        return self.ok + self.failed

    @property
    def complete(self) -> bool:
        return self.ok == self.total


class Coordinator:
    """Submits the grid, then aggregates fabric state until it settles.

    Owns no scheduling — workers lease autonomously — so a coordinator
    crash never stalls the campaign; restart it and aggregation
    resumes.  Each :meth:`poll` reads the store once, derives the
    campaign heartbeat (done/total/ETA plus the per-worker liveness
    pane), writes it atomically for ``cr-sim campaign watch``, and
    publishes the ``cr_fabric_*`` metrics to an attached
    :class:`~repro.obs.server.TelemetryServer`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        heartbeat_path: Optional[str] = None,
        interval: float = 1.0,
        ttl: float = DEFAULT_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        verify: bool = False,
        server: Optional[Any] = None,
        on_poll: Optional[Callable[[Dict[str, Any]], None]] = None,
        trace: bool = False,
        log_level: str = "info",
    ) -> None:
        self.spec = spec
        self.store = store
        self.interval = float(interval)
        self.ttl = float(ttl)
        self.max_attempts = max(1, int(max_attempts))
        self.server = server
        self.on_poll = on_poll
        self.path = heartbeat_path or status_path(store.path, spec.name)

        # -- tracing + structured logging (armed by trace=True) --------
        self.trace = bool(trace)
        self.tracer: Optional[Tracer] = None
        self.root: Optional[Span] = None
        self.logger: Optional[StructuredLogger] = None
        self.trace_registry: Optional[MetricsRegistry] = None
        self._span_rows_seen = 0
        self._worker_liveness: Dict[str, str] = {}
        self._c_spans = None
        if self.trace:
            # Its own cr_-prefixed registry so the scrape names match
            # the worker-side taxonomy (cr_trace_spans_total is the
            # fabric-wide journaled total, not one process's count).
            self.trace_registry = MetricsRegistry(prefix="cr_")
            self._c_spans = self.trace_registry.counter(
                "trace_spans_total",
                "Trace spans journaled into the campaign store.")
            self.tracer = Tracer(worker_id="coordinator")
            self.logger = StructuredLogger(
                campaign_log_path(store.path, spec.name, "coordinator"),
                worker_id="coordinator", level=log_level,
                tracer=self.tracer, registry=self.trace_registry,
            )
            self.root = self.tracer.start_span(
                f"campaign {spec.name}", kind="root",
                attrs={"executor": "fabric"},
            )

        if self.tracer is not None:
            submit = self.tracer.start_span("submit", kind="submit")
            points = submit_campaign(spec, store, verify=verify)
            submit = self.tracer.end_span(
                submit, "ok", attrs={"points": len(points)})
            # Root journals open (it is the trace-context fallback
            # hand-started workers look up); submit journals closed.
            store.record_spans(spec.name, [self.root.to_dict(),
                                           submit.to_dict()])
        else:
            points = submit_campaign(spec, store, verify=verify)
        self.expected = dict(point_candidates(points))
        self.total = len(points)
        if self.logger is not None:
            self.logger.info("campaign_submitted", points=self.total)
        self._started = time.monotonic()
        self._rate_window: deque = deque(maxlen=32)
        self._last_reclaims = 0.0

        self.registry = MetricsRegistry(prefix="cr_fabric_")
        self._g_live = self.registry.gauge(
            "workers_live", "Fabric workers with a fresh heartbeat.")
        self._g_workers = self.registry.gauge(
            "workers_seen", "Distinct fabric workers ever seen.")
        self._g_held = self.registry.gauge(
            "leases_held", "Live (unexpired) leases across all workers.")
        self._g_expired = self.registry.gauge(
            "leases_expired",
            "Expired leases awaiting reclaim by a surviving worker.")
        self._g_done = self.registry.gauge(
            "points_done", "Campaign points settled (ok + terminal).")
        self._g_failed = self.registry.gauge(
            "points_failed", "Campaign points terminally failed.")
        self.registry.gauge(
            "points_total", "Campaign points in the expanded grid."
        ).set(self.total)
        self._c_reclaims = self.registry.counter(
            "lease_reclaims_total",
            "Expired leases taken over from dead workers.")
        build_info_gauge(self.registry)

    def traceparent(self) -> Optional[str]:
        """The root span's W3C traceparent (spawned workers join it)."""
        if self.root is None:
            return None
        return self.root.context().traceparent()

    # -- one aggregation step -------------------------------------------

    def poll(self, state: str = "running") -> Dict[str, Any]:
        """Read the store once; write + publish the aggregated heartbeat."""
        now = time.time()
        outcomes = self.store.settlement(self.spec.name, self.expected,
                                         self.max_attempts)
        failures = [point_id for point_id, outcome in outcomes.items()
                    if outcome == "failed"]
        done, failed = len(outcomes), len(failures)

        leases = self.store.leases(self.spec.name, now=now)
        held = sum(1 for lease in leases if lease["live"])
        expired = len(leases) - held

        workers = []
        live_workers = 0
        reclaims = 0
        for row in self.store.workers(self.spec.name):
            age = max(0.0, now - row["last_seen"])
            if row["state"] in ("finished", "stopped"):
                liveness = row["state"]
            elif age <= max(self.ttl, STALE_AFTER):
                liveness = "live"
                live_workers += 1
            elif age <= 3.0 * max(self.ttl, STALE_AFTER):
                liveness = "stale"
            else:
                liveness = "dead"
            reclaims += row["reclaims"]
            workers.append({
                "worker_id": row["worker_id"],
                "state": liveness,
                "last_seen_age": age,
                "pid": row["pid"],
                "host": row["host"],
                "done": row["done"],
                "failed": row["failed"],
                "leases": row["leases"],
                "reclaims": row["reclaims"],
                "span": row["span"],
                "spans": row["spans"],
                "logs": row["logs"],
            })
            if self.logger is not None:
                previous = self._worker_liveness.get(row["worker_id"])
                if previous is not None and previous != liveness:
                    level = ("warning" if liveness in ("stale", "dead")
                             else "info")
                    self.logger.log(
                        level, f"worker_{liveness}",
                        worker=row["worker_id"], was=previous,
                        last_seen_age=round(age, 2),
                    )
                self._worker_liveness[row["worker_id"]] = liveness

        if self._c_spans is not None:
            counts = self.store.span_counts(self.spec.name)
            total_spans = sum(counts.values())
            if total_spans > self._span_rows_seen:
                self._c_spans.inc(total_spans - self._span_rows_seen)
                self._span_rows_seen = total_spans

        self._g_live.set(live_workers)
        self._g_workers.set(len(workers))
        self._g_held.set(held)
        self._g_expired.set(expired)
        self._g_done.set(done)
        self._g_failed.set(failed)
        if reclaims > self._last_reclaims:
            self._c_reclaims.inc(reclaims - self._last_reclaims)
            self._last_reclaims = reclaims

        self._rate_window.append((time.monotonic(), done))
        status = {
            "name": self.spec.name,
            "state": state if done < self.total else "finished",
            "kind": "fabric",
            "updated_at": now,
            "elapsed_seconds": time.monotonic() - self._started,
            "done": done,
            "failed": failed,
            "total": self.total,
            "eta_seconds": self._eta(done),
            "last_point": None,
            "workers": workers,
            "fabric": {
                "live_workers": live_workers,
                "workers_seen": len(workers),
                "leases_held": held,
                "leases_expired": expired,
                "reclaims": int(reclaims),
            },
            "metrics": self.registry.snapshot(),
        }
        # Two registries, one scrape: cr_fabric_* gauges plus the
        # cr_trace_spans_total / cr_log_records_total counters.
        registries = [self.registry]
        if self.trace_registry is not None:
            registries.append(self.trace_registry)
        publish_heartbeat(
            status, self.path, self.server, registries,
            health={"workers_live": live_workers},
        )
        if self.on_poll is not None:
            self.on_poll(status)
        self._last_status = status
        self._last_failures = failures
        return status

    def _eta(self, done: int) -> Optional[float]:
        remaining = self.total - done
        if remaining <= 0:
            return 0.0
        if len(self._rate_window) < 2:
            return None
        t0, d0 = self._rate_window[0]
        t1, d1 = self._rate_window[-1]
        if d1 <= d0 or t1 <= t0:
            return None
        return remaining * (t1 - t0) / (d1 - d0)

    # -- the aggregation loop -------------------------------------------

    def run(
        self,
        timeout: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> FabricStats:
        """Aggregate until the campaign settles; returns fabric stats.

        ``stop`` is an optional predicate polled each interval (e.g.
        "all my local worker processes exited"); ``timeout`` bounds the
        wall clock.  Either way the final heartbeat is written before
        returning, so ``campaign watch`` never sees a vanishing run.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            status = self.poll()
            if status["done"] >= self.total:
                break
            if stop is not None and stop():
                status = self.poll()  # one last read after the signal
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(self.interval)
        stats = FabricStats(
            total=self.total,
            ok=status["done"] - status["failed"],
            failed=status["failed"],
            reclaims=status["fabric"]["reclaims"],
            workers_seen=status["fabric"]["workers_seen"],
            elapsed=status["elapsed_seconds"],
            failures=list(self._last_failures),
        )
        self.settle(stats)
        return stats

    def settle(self, stats: FabricStats) -> None:
        """Close the trace: end the root span, sweep every straggler.

        Called at the end of :meth:`run`; after it, the store holds no
        span with status ``open`` — the "no span left open" guarantee
        the merged timeline relies on.  A no-op without tracing.
        """
        if self.tracer is None or self.root is None:
            return
        if self.logger is not None:
            self.logger.info(
                "campaign_settled", ok=stats.ok, failed=stats.failed,
                reclaims=stats.reclaims,
                workers_seen=stats.workers_seen,
            )
        closed = self.tracer.end_span(
            self.root, "ok" if stats.complete else "error",
            attrs={"ok": stats.ok, "failed": stats.failed,
                   "reclaims": stats.reclaims},
        )
        # Order matters: land the root's clean closure first, then
        # abort whatever is still open (a SIGKILLed worker's session
        # span, an orphan lease no survivor happened to reclaim).
        self.store.record_spans(self.spec.name, [closed.to_dict()])
        swept = self.store.close_open_spans(self.spec.name)
        if swept and self.logger is not None:
            self.logger.warning("orphan_spans_closed", count=swept)
        if self.logger is not None:
            self.logger.close()
            self.logger = None
        self.root = None  # settle is idempotent across run() calls


# ----------------------------------------------------------------------
# Local fan-out: coordinator + N worker subprocesses
# ----------------------------------------------------------------------

def _worker_env(trace: bool = False,
                traceparent: Optional[str] = None) -> Dict[str, str]:
    """The spawned worker's environment, with this repro importable.

    ``trace`` arms the child's tracing+logging via ``CR_TRACE``;
    ``traceparent`` propagates the coordinator's root span context via
    ``CR_TRACEPARENT`` (the W3C-style subprocess boundary), so every
    worker's spans join the coordinator's trace.
    """
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    if trace:
        env[TRACE_ARM_ENV] = "1"
    if traceparent:
        env[TRACEPARENT_ENV] = traceparent
    return env


def spawn_worker(
    campaign: str,
    db_path: str,
    worker_id: Optional[str] = None,
    batch: int = DEFAULT_BATCH,
    ttl: float = DEFAULT_TTL,
    poll: float = DEFAULT_POLL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    verify: bool = False,
    quiet: bool = True,
    trace: bool = False,
    traceparent: Optional[str] = None,
) -> "subprocess.Popen[bytes]":
    """Launch one ``cr-sim campaign worker`` subprocess against a store.

    The campaign must already be registered (the coordinator's submit
    phase does this).  The child is a real OS process — SIGKILL it and
    the fabric's recovery path, not Python cleanup, puts its points
    back into play.  ``trace``/``traceparent`` arm the child's tracing
    through the environment (see :func:`_worker_env`).
    """
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign", "worker",
        campaign, "--db", str(db_path),
        "--batch", str(batch), "--ttl", str(ttl), "--poll", str(poll),
        "--max-attempts", str(max_attempts),
    ]
    if worker_id:
        cmd += ["--worker-id", worker_id]
    if verify:
        cmd += ["--verify"]
    return subprocess.Popen(
        cmd,
        env=_worker_env(trace=trace, traceparent=traceparent),
        stdout=subprocess.DEVNULL if quiet else None,
        stderr=subprocess.DEVNULL if quiet else None,
    )


def run_fabric(
    spec: CampaignSpec,
    db_path: str,
    workers: int = 2,
    batch: int = DEFAULT_BATCH,
    ttl: float = DEFAULT_TTL,
    poll: float = DEFAULT_POLL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    interval: float = 1.0,
    verify: bool = False,
    serve: Optional[object] = None,
    heartbeat_path: Optional[str] = None,
    timeout: Optional[float] = None,
    on_poll: Optional[Callable[[Dict[str, Any]], None]] = None,
    quiet_workers: bool = True,
    trace: bool = False,
) -> FabricStats:
    """Run a campaign sharded across ``workers`` local worker processes.

    The coordinator registers the grid, spawns the workers, aggregates
    until every point settles (or all workers die / ``timeout``
    expires), then reaps the children.  Raising inside aggregation
    still terminates the children.  ``serve`` attaches a telemetry
    server exactly like :func:`~repro.campaign.runner.run_campaign`.
    """
    server, owns_server = open_telemetry(serve)
    store = CampaignStore(db_path)
    procs: List["subprocess.Popen[bytes]"] = []
    try:
        coordinator = Coordinator(
            spec, store, heartbeat_path=heartbeat_path,
            interval=interval, ttl=ttl, max_attempts=max_attempts,
            verify=verify, server=server, on_poll=on_poll,
            trace=trace,
        )
        procs = [
            spawn_worker(
                spec.name, db_path, worker_id=f"worker-{index + 1}",
                batch=batch, ttl=ttl, poll=poll,
                max_attempts=max_attempts, verify=verify,
                quiet=quiet_workers,
                trace=trace, traceparent=coordinator.traceparent(),
            )
            for index in range(max(1, int(workers)))
        ]
        stats = coordinator.run(
            timeout=timeout,
            stop=lambda: all(proc.poll() is not None for proc in procs),
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10.0)
        store.close()
        if owns_server:
            server.stop()
    return stats
